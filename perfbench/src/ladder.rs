//! The traced run (`--trace 1`): the same stream replayed down a ladder of
//! the layers' public functions, each rung timed from this file.
//!
//! Rungs, top to bottom, all over the same timed batches (the pooled rung
//! runs on for the rest of a quarter of the run, as the baseline for the
//! tracing overhead, but only its first batches are the ladder's root):
//!
//! 1. `service.pooled` — `SecureMemoryService::submit` at pool width 2.
//! 2. `service.serial` — `submit_with_jobs(_, 1)` on a second service.
//! 3. `engine` — each shard's sub-batch through `SecureMemory::read` /
//!    `write` on engines built like the shards (same policy factory and
//!    backend), in the order the service would run them.
//! 4. `otp` — a fresh `RmccOtp` on the same keys fed the `(block, counter)`
//!    data-pad request of every engine call.
//!
//! Every span records its name, start, end, parent and batch. A span's
//! parent is the span one rung up that did the same work: a serial submit's
//! parent is the pooled submit of the same batch, an engine call's is the
//! serial submit of its batch, an OTP call's is the engine call that issued
//! the request. A rung's self time is its duration minus its children's, so
//! the self times of all rungs add back up to `service.pooled_s` (the pooled
//! rung's self time is negative when the pool saves time).
//!
//! Below the ladder, fixed-size probes time the primitives (AES, clmul, MAC)
//! and the counter-update policy on the workload's own inputs; their spans
//! each cover a chunk of [`PROBE_CHUNK`] calls, because one call is shorter
//! than a clock read.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rmcc_core::shard::{aggregate_stats, MemoHandle, ShardMemoStats};
use rmcc_crypto::aes::{AesVariant, BATCH_BLOCKS};
use rmcc_crypto::mac::{compute_mac, MacKeys};
use rmcc_crypto::otp::{BlockPads, KeySet, OtpPipeline, RmccOtp};
use rmcc_crypto::stats::CryptoStats;
use rmcc_secmem::engine::SecureMemory;
use rmcc_secmem::service::{Access, AccessResult, ShardFaultCause};

use crate::e2e::timed_pass;
use crate::stats::{median, percentile};
use crate::workloads::{
    build_engine, fold_digest, service_config, set_up, shard_policy, Inputs, Oracle, Workload,
    SHARDS,
};
use crate::Report;

/// Every per-layer metric: name, unit, and the end-to-end metric it should
/// move, on which workload.
pub const PER_LAYER: [(&str, &str, &str); 23] = [
    (
        "service.pooled_s",
        "s",
        "accesses_per_s on every workload (ladder root)",
    ),
    (
        "service.serial_s",
        "s",
        "accesses_per_s on every workload; with pooled_s gives the pool's effect",
    ),
    (
        "service.pool_speedup",
        "x",
        "accesses_per_s, most on write_storm_hardened (long batches)",
    ),
    (
        "service.shard_imbalance",
        "x",
        "submit_p90_ms on kv_resident (the slowest shard sets a batch's time)",
    ),
    (
        "service.overhead_s",
        "s",
        "accesses_per_s and submit_p50_ms on kv_resident; barely write_storm_hardened",
    ),
    ("engine.busy_s", "s", "accesses_per_s on every workload"),
    (
        "engine.read_ns_p50",
        "ns",
        "accesses_per_s on kv_resident and sweep_busting",
    ),
    ("engine.write_ns_p50", "ns", "accesses_per_s on write_storm"),
    (
        "engine.mac_verifies_per_access",
        "count",
        "accesses_per_s on kv_resident and sweep_busting",
    ),
    (
        "engine.reencryptions_per_access",
        "count",
        "accesses_per_s on write_storm",
    ),
    (
        "otp.block_pads_ns",
        "ns",
        "accesses_per_s on sweep_busting, not kv_resident",
    ),
    (
        "otp.derive_ns",
        "ns",
        "accesses_per_s on sweep_busting, not kv_resident",
    ),
    (
        "ledger.aes_per_access",
        "count",
        "accesses_per_s on sweep_busting, not kv_resident",
    ),
    (
        "ledger.clmul_per_access",
        "count",
        "accesses_per_s on sweep_busting, not kv_resident",
    ),
    (
        "aes.block_ns",
        "ns",
        "accesses_per_s on write_storm_hardened above all",
    ),
    (
        "aes.batch8_block_ns",
        "ns",
        "accesses_per_s on write_storm_hardened above all",
    ),
    (
        "clmul.combine_ns",
        "ns",
        "accesses_per_s on write_storm_hardened and sweep_busting",
    ),
    (
        "mac.compute_ns",
        "ns",
        "accesses_per_s on write_storm_hardened and write_storm",
    ),
    ("policy.bump_ns", "ns", "accesses_per_s on write_storm"),
    (
        "policy.conformed_write_share",
        "ratio",
        "accesses_per_s on write_storm",
    ),
    (
        "policy.table_hit_rate",
        "ratio",
        "accesses_per_s on write_storm",
    ),
    (
        "reconcile.residual_share",
        "ratio",
        "none: how much of engine.busy_s the ledger leaves unexplained",
    ),
    (
        "trace.overhead_share",
        "ratio",
        "none: the cost of tracing the pooled pass",
    ),
];

/// Most accesses the rungs below the pooled pass replay, which bounds the
/// span log; the time budget stops earlier on slow workloads.
const LADDER_MAX_ACCESSES: usize = 1 << 17;
/// Calls timed by one probe span.
const PROBE_CHUNK: usize = 256;
/// Probe spans per primitive; the probe reports their median.
const PROBE_CHUNKS: usize = 64;

/// One timed interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    batch: usize,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log, written out as JSONL when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        batch: usize,
    ) -> usize {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Total seconds of the spans `pick` selects.
    fn total_s(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| pick(s)).map(Span::ns).sum();
        ns as f64 / 1e9
    }

    /// Each span's self time in nanoseconds: its duration minus its
    /// children's.
    fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| i64::try_from(s.ns()).unwrap_or(i64::MAX))
            .collect();
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| own.get_mut(p)) {
                *slot -= i64::try_from(s.ns()).unwrap_or(i64::MAX);
            }
        }
        own
    }

    /// Times `PROBE_CHUNKS` chunks of `PROBE_CHUNK` calls to `call` and
    /// returns the median nanoseconds per call.
    fn probe(&mut self, name: &'static str, mut call: impl FnMut(usize)) -> f64 {
        let mut per_call = Vec::with_capacity(PROBE_CHUNKS);
        for chunk in 0..PROBE_CHUNKS {
            let start = self.now();
            for i in 0..PROBE_CHUNK {
                call(chunk * PROBE_CHUNK + i);
            }
            let id = self.push(name, start, None, chunk);
            if let Some(s) = self.spans.get(id) {
                per_call.push(s.ns() as f64 / PROBE_CHUNK as f64);
            }
        }
        median(&per_call)
    }

    fn write_jsonl(&self, path: &PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        out.flush()
    }
}

/// The ladder rungs, top to bottom, and the span names each one owns.
const RUNGS: [(&str, &[&str]); 4] = [
    ("service.pooled", &["service.pooled"]),
    ("service.serial", &["service.serial"]),
    ("engine", &["engine.read", "engine.write"]),
    ("otp", &["otp.block_pads"]),
];

/// One data-pad request issued by an engine call.
struct PadRequest {
    block: u64,
    ctr: u64,
    /// The engine span that issued it.
    span: usize,
    batch: usize,
}

/// What the engine rung observed.
#[derive(Default)]
struct EngineRung {
    requests: Vec<PadRequest>,
    read_ns: Vec<f64>,
    write_ns: Vec<f64>,
    /// The counter each write found before its `bump`.
    write_counters: Vec<u64>,
    shard_accesses: [u64; SHARDS],
    crypto: CryptoStats,
    reencryptions: u64,
}

/// One access on a bare engine, mapped to a result the way the service
/// maps it.
fn apply(mem: &mut SecureMemory, access: &Access) -> AccessResult {
    match *access {
        Access::Read { block } => mem
            .read(block)
            .map_or_else(AccessResult::ReadFailed, AccessResult::Data),
        Access::Write { block, data } => match mem.write(block, data) {
            Ok(()) => AccessResult::Written {
                counter: mem.counter_of(block),
            },
            Err(e) => AccessResult::WriteFailed(e),
        },
    }
}

fn engine_totals(engines: &[SecureMemory]) -> (CryptoStats, u64) {
    engines
        .iter()
        .fold((CryptoStats::new(), 0), |(mut c, r), e| {
            c.merge(&e.crypto_stats());
            (c, r + e.overflow_reencryptions())
        })
}

/// Rung 3: replays set-up untraced, then the timed batches with one span
/// per engine call, checking every batch's digest against the pooled pass.
fn engine_rung(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Tracer,
    route: &dyn Fn(u64) -> usize,
    serial_spans: &[usize],
    pooled: &[u64],
    setup_digest: u64,
) -> Result<EngineRung, String> {
    let mut engines: Vec<SecureMemory> = (0..SHARDS).map(|_| build_engine(w.backend)).collect();
    let mut digest = 0u64;
    for batch in inputs.setup_batches() {
        let mut results = Vec::with_capacity(batch.len());
        for access in batch {
            let mem = engines
                .get_mut(route(access.block()))
                .ok_or("a block routed past the last shard")?;
            results.push(apply(mem, access));
        }
        digest = fold_digest(digest, &results);
    }
    if digest != setup_digest {
        return Err(format!(
            "engine rung set-up digest {digest:#018x} != service set-up digest {setup_digest:#018x}"
        ));
    }
    let mut rung = EngineRung::default();
    let (crypto_before, reenc_before) = engine_totals(&engines);
    for (k, (&parent, &want)) in serial_spans.iter().zip(pooled).enumerate() {
        let batch = inputs.timed_batch(k);
        let mut merged = vec![
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Internal,
            };
            batch.len()
        ];
        // Shard by shard, each in submission order: the order one serial
        // submit runs them in.
        for (shard, (mem, count)) in engines.iter_mut().zip(&mut rung.shard_accesses).enumerate() {
            for (access, slot) in batch.iter().zip(merged.iter_mut()) {
                if route(access.block()) != shard {
                    continue;
                }
                *count += 1;
                let block = access.block();
                let before = mem.counter_of(block);
                let start = tracer.now();
                *slot = apply(mem, access);
                let write = matches!(access, Access::Write { .. });
                let name = if write { "engine.write" } else { "engine.read" };
                let span = tracer.push(name, start, Some(parent), k);
                let ns = tracer.spans.get(span).map_or(0.0, |s| s.ns() as f64);
                if write {
                    rung.write_ns.push(ns);
                    rung.write_counters.push(before);
                } else {
                    rung.read_ns.push(ns);
                }
                // A read's data pad uses the counter it found; a write's, the
                // counter it left.
                let ctr = match *slot {
                    AccessResult::Written { counter } => counter,
                    _ => before,
                };
                rung.requests.push(PadRequest {
                    block,
                    ctr,
                    span,
                    batch: k,
                });
            }
        }
        let got = fold_digest(0, &merged);
        if got != want {
            return Err(format!(
                "timed batch {k}: pooled digest {want:#018x} != engine rung digest {got:#018x}"
            ));
        }
    }
    let (crypto_after, reenc_after) = engine_totals(&engines);
    rung.crypto = CryptoStats {
        aes_paid: crypto_after.aes_paid - crypto_before.aes_paid,
        aes_saved: crypto_after.aes_saved - crypto_before.aes_saved,
        clmul_ops: crypto_after.clmul_ops - crypto_before.clmul_ops,
        mac_verifies: crypto_after.mac_verifies - crypto_before.mac_verifies,
    };
    rung.reencryptions = reenc_after - reenc_before;
    Ok(rung)
}

/// Policy tallies of the timed pass: (conformed writes, baseline writes,
/// table hits, table lookups).
fn policy_delta(before: &ShardMemoStats, handles: &[MemoHandle]) -> (u64, u64, u64, u64) {
    let after = aggregate_stats(handles);
    let hits = |s: &ShardMemoStats| s.table.group_hits + s.table.mru_hits;
    (
        after.conformed_writes - before.conformed_writes,
        after.baseline_writes - before.baseline_writes,
        hits(&after) - hits(before),
        after.table.lookups() - before.table.lookups(),
    )
}

/// Runs the ladder and its checks.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    match ladder(w, seed, seconds, &mut report) {
        Ok(()) => report,
        Err(e) => report.fail(e),
    }
}

fn ladder(w: &Workload, seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::generate(w, seed);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };

    // Untraced pooled pass: fixes how many batches the pooled rung replays
    // and is the baseline for the tracing overhead. The rungs below replay
    // the first `batches` of them.
    let ready = set_up(&inputs, w.backend, None)?;
    let setup_digest = ready.digest;
    let untraced = timed_pass(&ready.service, &inputs, Duration::from_secs(seconds) / 4, 1);
    drop(ready);
    let batches = untraced.digests.len().min(LADDER_MAX_ACCESSES / w.batch);
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;

    // Rung 1: the pooled pass again, on a fresh service, with spans.
    let ready = set_up(&inputs, w.backend, None)?;
    if ready.digest != setup_digest {
        return Err("set-up digests differ between two identical services".into());
    }
    let policy_before = aggregate_stats(&ready.handles);
    let mut pooled_spans = Vec::with_capacity(untraced.digests.len());
    for (k, &want) in untraced.digests.iter().enumerate() {
        let start = tracer.now();
        let results = ready.service.submit(inputs.timed_batch(k));
        pooled_spans.push(tracer.push("service.pooled", start, None, k));
        report.attempted += results.len() as u64;
        report.failed += results.iter().filter(|r| !r.is_ok()).count() as u64;
        let got = fold_digest(0, &results);
        if got != want {
            return Err(format!(
                "timed batch {k}: untraced digest {want:#018x} != traced digest {got:#018x}"
            ));
        }
    }
    let (conformed, baseline, table_hits, table_lookups) =
        policy_delta(&policy_before, &ready.handles);
    let snapshot = ready.service.snapshot();
    drop(ready);

    // Rung 2: the serial reference, checked against the pooled digests and
    // the oracle.
    let mut oracle = Oracle::default();
    let reference = set_up(&inputs, w.backend, Some(&mut oracle))?;
    let mut serial_spans = Vec::with_capacity(batches);
    let ladder_batches = pooled_spans.iter().zip(&untraced.digests).take(batches);
    for (k, (&parent, &want)) in ladder_batches.enumerate() {
        let batch = inputs.timed_batch(k);
        let start = tracer.now();
        let results = reference.service.submit_with_jobs(batch, 1);
        serial_spans.push(tracer.push("service.serial", start, Some(parent), k));
        let got = fold_digest(0, &results);
        if got != want {
            return Err(format!(
                "timed batch {k}: pooled digest {want:#018x} != submit_with_jobs(_, 1) digest {got:#018x}"
            ));
        }
        oracle
            .check(batch, &results)
            .map_err(|e| format!("timed batch {k}: {e}"))?;
    }
    drop(reference);

    // Rung 3: the engines.
    let route = |block: u64| snapshot.shard_of(block);
    let engine = engine_rung(
        w,
        &inputs,
        &mut tracer,
        &route,
        &serial_spans,
        &untraced.digests,
        setup_digest,
    )?;

    // Rung 4: the OTP pipeline, one span per data-pad request; then the
    // same requests untraced on a fresh pipeline (otp.block_pads_ns) and
    // through the memo-bypassing 8-wide derivation (otp.derive_ns), which
    // must produce the same pads.
    let keys = KeySet::from_master_on(
        service_config(w.backend).key_seed,
        AesVariant::Aes128,
        w.backend,
    );
    let otp = RmccOtp::new(keys.clone());
    let mut pads: Vec<BlockPads> = Vec::with_capacity(engine.requests.len());
    for r in &engine.requests {
        let start = tracer.now();
        pads.push(otp.block_pads(r.block, r.ctr));
        tracer.push("otp.block_pads", start, Some(r.span), r.batch);
    }
    let requests = engine.requests.len().max(1) as f64;
    let fresh = RmccOtp::new(keys.clone());
    let start = Instant::now();
    for r in &engine.requests {
        black_box(fresh.block_pads(black_box(r.block), black_box(r.ctr)));
    }
    let block_pads_ns = start.elapsed().as_nanos() as f64 / requests;
    let lanes: Vec<(u64, u64)> = engine.requests.iter().map(|r| (r.block, r.ctr)).collect();
    let mut derived: Vec<BlockPads> = Vec::with_capacity(lanes.len() + BATCH_BLOCKS);
    let start = Instant::now();
    for group in lanes.chunks(BATCH_BLOCKS) {
        let out = otp.block_pads_batch8(black_box(group));
        derived.extend_from_slice(out.get(..group.len()).unwrap_or(&[]));
    }
    let derive_ns = start.elapsed().as_nanos() as f64 / requests;
    if let Some(i) = pads.iter().zip(&derived).position(|(a, b)| a != b) {
        return Err(format!(
            "data-pad request {i}: block_pads and block_pads_batch8 disagree"
        ));
    }

    // Probes: primitives and the policy on the workload's own inputs.
    let ctrs: Vec<u128> = engine.requests.iter().map(|r| u128::from(r.ctr)).collect();
    let ctrs = if ctrs.is_empty() { vec![0] } else { ctrs };
    let aes = keys.encryption();
    let aes_ns = tracer.probe("probe.aes.block", |i| {
        black_box(aes.encrypt_u128(black_box(ctrs[i % ctrs.len()])));
    });
    let aes8_ns = tracer.probe("probe.aes.batch8", |i| {
        let base = (i * BATCH_BLOCKS) % ctrs.len();
        let lanes: [u128; BATCH_BLOCKS] = std::array::from_fn(|j| ctrs[(base + j) % ctrs.len()]);
        black_box(aes.encrypt_u128_batch8(black_box(lanes)));
    }) / BATCH_BLOCKS as f64;
    let words: Vec<u128> = pads.iter().flat_map(|p| p.words).collect();
    let words = if words.len() < 2 { vec![1, 2] } else { words };
    let clmul_ns = tracer.probe("probe.clmul.combine", |i| {
        let a = words[i % words.len()];
        let b = words[(i + 1) % words.len()];
        black_box(RmccOtp::combine(black_box(a), black_box(b)));
    });
    let mac_keys = MacKeys::from_seed(seed);
    let blocks: Vec<[u8; 64]> = inputs
        .stream
        .iter()
        .flatten()
        .filter_map(|a| match *a {
            Access::Write { data, .. } => Some(data),
            Access::Read { .. } => None,
        })
        .take(1024)
        .collect();
    let blocks = if blocks.is_empty() {
        vec![[0; 64]]
    } else {
        blocks
    };
    let mac_ns = tracer.probe("probe.mac.compute", |i| {
        let pad = words[i % words.len()];
        black_box(compute_mac(
            &mac_keys,
            black_box(&blocks[i % blocks.len()]),
            pad,
        ));
    });
    let (mut policy, _) = shard_policy();
    let bumps = if engine.write_counters.is_empty() {
        vec![0]
    } else {
        engine.write_counters.clone()
    };
    let bump_ns = tracer.probe("probe.policy.bump", |i| {
        black_box(policy.bump(black_box(bumps[i % bumps.len()])));
    });

    // Metrics. The ladder's root is the pooled rung over the batches the
    // rungs below replayed.
    let pooled_all_s = tracer.total_s(|s| s.name == "service.pooled");
    let pooled_s = tracer.total_s(|s| s.name == "service.pooled" && s.batch < batches);
    let serial_s = tracer.total_s(|s| s.name == "service.serial");
    let engine_s = tracer.total_s(|s| s.name.starts_with("engine."));
    let accesses = engine.shard_accesses.iter().sum::<u64>().max(1) as f64;
    let c = engine.crypto;
    let ledger_ns =
        c.aes_paid as f64 * aes_ns + c.clmul_ops as f64 * clmul_ns + c.mac_verifies as f64 * mac_ns;
    let residual = (engine_s * 1e9 - ledger_ns) / (engine_s * 1e9);
    let mean_shard = accesses / SHARDS as f64;
    let max_shard = engine.shard_accesses.iter().copied().max().unwrap_or(0) as f64;
    let writes = (conformed + baseline).max(1) as f64;
    report.metrics = vec![
        ("service.pooled_s", pooled_s, "s"),
        ("service.serial_s", serial_s, "s"),
        ("service.pool_speedup", serial_s / pooled_s, "x"),
        ("service.shard_imbalance", max_shard / mean_shard, "x"),
        ("service.overhead_s", serial_s - engine_s, "s"),
        ("engine.busy_s", engine_s, "s"),
        ("engine.read_ns_p50", percentile(&engine.read_ns, 0.5), "ns"),
        (
            "engine.write_ns_p50",
            percentile(&engine.write_ns, 0.5),
            "ns",
        ),
        (
            "engine.mac_verifies_per_access",
            c.mac_verifies as f64 / accesses,
            "count",
        ),
        (
            "engine.reencryptions_per_access",
            engine.reencryptions as f64 / accesses,
            "count",
        ),
        ("otp.block_pads_ns", block_pads_ns, "ns"),
        ("otp.derive_ns", derive_ns, "ns"),
        (
            "ledger.aes_per_access",
            c.aes_paid as f64 / accesses,
            "count",
        ),
        (
            "ledger.clmul_per_access",
            c.clmul_ops as f64 / accesses,
            "count",
        ),
        ("aes.block_ns", aes_ns, "ns"),
        ("aes.batch8_block_ns", aes8_ns, "ns"),
        ("clmul.combine_ns", clmul_ns, "ns"),
        ("mac.compute_ns", mac_ns, "ns"),
        ("policy.bump_ns", bump_ns, "ns"),
        (
            "policy.conformed_write_share",
            conformed as f64 / writes,
            "ratio",
        ),
        (
            "policy.table_hit_rate",
            table_hits as f64 / table_lookups.max(1) as f64,
            "ratio",
        ),
        ("reconcile.residual_share", residual, "ratio"),
        (
            "trace.overhead_share",
            1.0 - untraced.busy_seconds() / pooled_all_s,
            "ratio",
        ),
    ];

    let start = Instant::now();
    for _ in 0..PROBE_CHUNK * PROBE_CHUNKS {
        black_box(tracer.now());
    }
    let clock_ns = start.elapsed().as_nanos() as f64 / (PROBE_CHUNK * PROBE_CHUNKS) as f64;
    print_table(w, &tracer, batches, clock_ns, report);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", w.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "{}: {} spans written to out/spans-{}.jsonl in the benchmark directory",
        w.name,
        tracer.spans.len(),
        w.name
    );
    report.correct = report.failed == 0;
    if !report.correct {
        report.error = Some(format!("{} accesses failed", report.failed));
    }
    Ok(())
}

/// Prints the per-rung self-time table and every per-layer metric with the
/// end-to-end metric it should move.
fn print_table(w: &Workload, tracer: &Tracer, batches: usize, clock_ns: f64, report: &Report) {
    let self_ns = tracer.self_ns();
    let in_rung = |s: &Span, names: &[&str]| names.contains(&s.name) && s.batch < batches;
    let pooled_s = tracer.total_s(|s| in_rung(s, &["service.pooled"]));
    println!(
        "{}: ladder over {} batches of {} accesses, backend {}",
        w.name,
        batches,
        w.batch,
        w.backend.name()
    );
    println!(
        "  {:<16} {:>8} {:>12} {:>12} {:>12}",
        "rung", "spans", "total_s", "self_s", "self/pooled"
    );
    let mut sum_self = 0.0;
    for (rung, names) in RUNGS {
        let spans = tracer.spans.iter().filter(|s| in_rung(s, names)).count();
        let total = tracer.total_s(|s| in_rung(s, names));
        let own: i64 = tracer
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| in_rung(s, names))
            .map(|(_, &ns)| ns)
            .sum();
        let own = own as f64 / 1e9;
        sum_self += own;
        println!(
            "  {rung:<16} {spans:>8} {total:>12.6} {own:>12.6} {:>11.1}%",
            100.0 * own / pooled_s
        );
    }
    println!("  self times sum to {sum_self:.6} s; service.pooled_s is {pooled_s:.6} s");
    println!("  each engine and otp span includes two clock reads of {clock_ns:.1} ns each");
    println!(
        "  {:<34} {:>14} {:<6} should move",
        "metric", "value", "unit"
    );
    for ((name, value, unit), (_, _, moves)) in report.metrics.iter().zip(PER_LAYER) {
        println!("  {name:<34} {value:>14.4} {unit:<6} {moves}");
        if *name == "reconcile.residual_share" {
            println!(
                "    caveat: CryptoStats charges the modeled AES count even on pad-memo hits, so \
                 where the memo hits (kv_resident) the ledger overstates crypto time and this \
                 residual is expected to be negative"
            );
        }
    }
}
