#!/usr/bin/env python3
"""Markdown tables from alternating perfbench A/B runs.

Input: a JSONL file with one line per run,
  {"revision": "<name>", "workload": "<name>", "pair": <n>, "result": <perfbench result line>}
where `result` is the last stdout line of
  perfbench --workload <w> --seed <s> --seconds <n> --trace 0
Runs of the same workload and pair number form one A/B pair.

Usage: python3 results/perfbench_ab.py results/perfbench_split_memo.jsonl BASE NEW

Prints two tables: every end-to-end metric per workload (median and
quartiles of each side, the median ratio, and how many pairs NEW won),
then the fast vs hardened `write_storm` slowdown per revision.
"""
import json
import statistics
import sys

METRICS = [
    ("accesses_per_s", True),
    ("submit_p50_ms", False),
    ("submit_p90_ms", False),
    ("setup_s", False),
    ("peak_rss_mib", False),
]


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.3g}"


def main():
    path, base, new = sys.argv[1:4]
    runs = [json.loads(line) for line in open(path) if line.strip()]
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        sys.exit(f"{len(bad)} runs failed a correctness gate")
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    print(f"| workload | metric | {base} median [q1, q3] | {new} median [q1, q3] | {new}/{base} | {new} wins |")
    print("|---|---|---:|---:|---:|---:|")
    medians = {}
    for w in workloads:
        side = {rev: {r["pair"]: r["result"]["metrics"] for r in runs if r["workload"] == w and r["revision"] == rev} for rev in (base, new)}
        pairs = sorted(set(side[base]) & set(side[new]))
        for name, higher in METRICS:
            a = [side[base][p][name]["value"] for p in pairs]
            b = [side[new][p][name]["value"] for p in pairs]
            qa, qb = quartiles(a), quartiles(b)
            medians[(w, name, base)], medians[(w, name, new)] = qa[1], qb[1]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            print(
                f"| {w} | {name} | {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] "
                f"| {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] | {qb[1] / qa[1]:.3f} | {wins}/{len(pairs)} |"
            )
    if "write_storm" in workloads and "write_storm_hardened" in workloads:
        print()
        print("| revision | `write_storm` (fast) | `write_storm_hardened` | hardened slowdown |")
        print("|---|---:|---:|---:|")
        for rev in (base, new):
            fast = medians[("write_storm", "accesses_per_s", rev)]
            hard = medians[("write_storm_hardened", "accesses_per_s", rev)]
            print(f"| {rev} | {fast:,.0f} | {hard:,.0f} | {fast / hard:.1f}× |")


if __name__ == "__main__":
    main()
