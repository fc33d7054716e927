//! Wall-clock throughput harness for the crypto hot path.
//!
//! Every other harness in this crate measures *simulated* quantities
//! (cycles, hit rates, traffic). This one measures the simulator itself:
//! how many AES blocks, memoization-table lookups, and end-to-end secure
//! reads+writes the host executes per wall-clock second. The numbers seed
//! the perf trajectory in `BENCH_hotpath.json` at the repo root, so every
//! later hot-path change is judged against a reproducible baseline.
//!
//! Two kinds of output are strictly separated:
//!
//! * **Deterministic results** — operation counts and checksums of the
//!   computed values. These are byte-identical across runs, hosts, and
//!   `RMCC_JOBS` widths; CI diffs them between a serial and a pooled run.
//! * **Timing** — wall-clock rates. These vary run to run and are reported
//!   for trend tracking only.

use std::time::Instant;

use rmcc_core::table::{MemoizationTable, TableConfig};
use rmcc_crypto::aes::{Aes, Backend, BATCH_BLOCKS};
use rmcc_crypto::splitmix64_next;
use rmcc_secmem::counters::CounterOrg;
use rmcc_secmem::engine::{PipelineKind, SecureMemory};
use rmcc_secmem::service::{digest_results, Access, SecureMemoryService, ServiceConfig};
use rmcc_workloads::workload::Scale;

/// Work sizes for one throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputConfig {
    /// AES-128 blocks encrypted in the AES component.
    pub aes_blocks: u64,
    /// Memoization-table lookups in the table component.
    pub table_lookups: u64,
    /// Secure-memory accesses (reads + writes) per shard.
    pub accesses_per_shard: u64,
    /// Independent secure-memory shards; fixed per config so results do not
    /// depend on the worker-pool width.
    pub shards: usize,
    /// Protected bytes per shard's secure memory.
    pub shard_bytes: u64,
    /// Distinct data blocks the access stream touches per shard.
    pub working_blocks: u64,
}

impl ThroughputConfig {
    /// The configuration for a workload scale.
    pub fn from_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => ThroughputConfig {
                aes_blocks: 20_000,
                table_lookups: 200_000,
                accesses_per_shard: 2_000,
                shards: 4,
                shard_bytes: 1 << 22,
                working_blocks: 512,
            },
            Scale::Small => ThroughputConfig {
                aes_blocks: 200_000,
                table_lookups: 2_000_000,
                accesses_per_shard: 20_000,
                shards: 8,
                shard_bytes: 1 << 24,
                working_blocks: 4_096,
            },
            Scale::Full => ThroughputConfig {
                aes_blocks: 1_000_000,
                table_lookups: 10_000_000,
                accesses_per_shard: 100_000,
                shards: 8,
                shard_bytes: 1 << 26,
                working_blocks: 16_384,
            },
        }
    }
}

/// One component's measurement: how much work ran, how long it took, and a
/// checksum over the computed values (the deterministic part).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentResult {
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock seconds the component ran for.
    pub seconds: f64,
    /// Order-independent digest of every value the component computed.
    pub checksum: u64,
}

impl ComponentResult {
    /// Operations per wall-clock second.
    pub fn ops_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A full throughput run: per-component results plus the pool width used
/// for the pooled end-to-end pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Scale name the run was configured from.
    pub scale: String,
    /// Worker-pool width used for the pooled end-to-end pass.
    pub jobs: usize,
    /// Raw AES-128 block encryption (scalar chain, env-selected backend).
    pub aes: ComponentResult,
    /// 8-lane batched AES-128 on the T-table `fast` backend.
    pub aes_fast: ComponentResult,
    /// 8-lane batched AES-128 on the bitsliced `hardened` backend. Must
    /// carry the same checksum as [`ThroughputReport::aes_fast`]: the
    /// backends are ciphertext-identical, only timing may differ.
    pub aes_hardened: ComponentResult,
    /// Memoization-table lookups over a seeded table.
    pub table: ComponentResult,
    /// End-to-end secure-memory reads+writes, all shards on one thread.
    pub e2e_serial: ComponentResult,
    /// The same shards fanned across the worker pool.
    pub e2e_pooled: ComponentResult,
    /// Batched end-to-end service submits on the `fast` backend.
    pub e2e_batched_fast: ComponentResult,
    /// The same batched submits on the `hardened` backend; checksum must
    /// match [`ThroughputReport::e2e_batched_fast`].
    pub e2e_batched_hardened: ComponentResult,
}

impl ThroughputReport {
    /// The deterministic results as one canonical JSON line — byte-identical
    /// across runs and pool widths. CI diffs this between serial and pooled
    /// invocations.
    pub fn deterministic_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"rmcc-bench-hotpath-v2\",",
                "\"aes_blocks\":{},\"aes_checksum\":\"{:#018x}\",",
                "\"aes_batched_blocks\":{},\"aes_batched_checksum\":\"{:#018x}\",",
                "\"table_lookups\":{},\"table_checksum\":\"{:#018x}\",",
                "\"e2e_accesses\":{},\"e2e_checksum\":\"{:#018x}\",",
                "\"e2e_batched_accesses\":{},\"e2e_batched_checksum\":\"{:#018x}\",",
                "\"pooled_matches_serial\":{},",
                "\"backends_match\":{}}}"
            ),
            self.aes.ops,
            self.aes.checksum,
            self.aes_fast.ops,
            self.aes_fast.checksum,
            self.table.ops,
            self.table.checksum,
            self.e2e_serial.ops,
            self.e2e_serial.checksum,
            self.e2e_batched_fast.ops,
            self.e2e_batched_fast.checksum,
            self.e2e_serial.checksum == self.e2e_pooled.checksum
                && self.e2e_serial.ops == self.e2e_pooled.ops,
            self.backends_match(),
        )
    }

    /// Whether the fast and hardened backends computed bit-identical
    /// results on both the batched-AES and batched-e2e workloads. `false`
    /// is always a bug — the backends are ciphertext-identical by
    /// contract — and the bench binary gates on it.
    pub fn backends_match(&self) -> bool {
        self.aes_fast.checksum == self.aes_hardened.checksum
            && self.aes_fast.ops == self.aes_hardened.ops
            && self.e2e_batched_fast.checksum == self.e2e_batched_hardened.checksum
            && self.e2e_batched_fast.ops == self.e2e_batched_hardened.ops
    }

    /// The full report (deterministic results + timing) as pretty JSON, the
    /// content of `BENCH_hotpath.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rmcc-bench-hotpath-v2\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"deterministic\": ");
        out.push_str(&self.deterministic_json());
        out.push_str(",\n  \"timing\": {\n");
        out.push_str(&format!(
            "    \"aes_blocks_per_s\": {:.1},\n",
            self.aes.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"aes_fast_blocks_per_s\": {:.1},\n",
            self.aes_fast.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"aes_hardened_blocks_per_s\": {:.1},\n",
            self.aes_hardened.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"table_lookups_per_s\": {:.1},\n",
            self.table.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"e2e_serial_accesses_per_s\": {:.1},\n",
            self.e2e_serial.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"e2e_pooled_accesses_per_s\": {:.1},\n",
            self.e2e_pooled.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"e2e_batched_fast_accesses_per_s\": {:.1},\n",
            self.e2e_batched_fast.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"e2e_batched_hardened_accesses_per_s\": {:.1}\n",
            self.e2e_batched_hardened.ops_per_s()
        ));
        out.push_str("  }\n}\n");
        out
    }
}

/// Raw AES throughput: a data-dependent encryption chain (each input is the
/// previous ciphertext XOR a counter), so the compiler cannot batch or
/// elide blocks.
fn bench_aes(blocks: u64) -> ComponentResult {
    let aes = Aes::new_128(&[0x42u8; 16]);
    let start = Instant::now();
    let mut state = 0x0123_4567_89ab_cdef_u128;
    let mut checksum = 0u64;
    for i in 0..blocks {
        state = aes.encrypt_u128(state ^ u128::from(i));
        checksum = checksum
            .rotate_left(1)
            .wrapping_add((state >> 64) as u64 ^ state as u64);
    }
    ComponentResult {
        ops: blocks,
        seconds: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// 8-lane batched AES throughput on an explicit backend: eight
/// independent data-dependent chains advance in lockstep through
/// `encrypt_u128_batch8`, so the workload (and therefore the checksum) is
/// identical for every backend while the per-block rate reflects each
/// backend's batch economics.
fn bench_aes_batched_on(blocks: u64, backend: Backend) -> ComponentResult {
    let aes = Aes::new_128_on(&[0x42u8; 16], backend);
    let rounds = blocks / BATCH_BLOCKS as u64;
    let mut lanes = [0u128; BATCH_BLOCKS];
    for (lane, slot) in lanes.iter_mut().enumerate() {
        *slot = 0x0123_4567_89ab_cdef ^ ((lane as u128) << 96);
    }
    let start = Instant::now();
    let mut checksum = 0u64;
    for i in 0..rounds {
        for slot in lanes.iter_mut() {
            *slot ^= u128::from(i);
        }
        lanes = aes.encrypt_u128_batch8(lanes);
        for state in lanes {
            checksum = checksum
                .rotate_left(1)
                .wrapping_add((state >> 64) as u64 ^ state as u64);
        }
    }
    ComponentResult {
        ops: rounds * BATCH_BLOCKS as u64,
        seconds: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Memoization-table lookup throughput over the paper's 16×8 geometry,
/// driven by a seeded value stream concentrated around the live groups
/// (realistic hit mix: mostly group hits, a tail of misses).
fn bench_table(lookups: u64) -> ComponentResult {
    let mut table = MemoizationTable::new(TableConfig::paper());
    table.seed_groups((0..16u64).map(|g| 50_000 + g * 6_400));
    let mut rng = 0x0007_ab1e_5eed_u64;
    let start = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..lookups {
        let r = splitmix64_next(&mut rng);
        // 7 in 8 lookups land inside a live group; the rest scatter.
        let value = if !r.is_multiple_of(8) {
            50_000 + (r >> 8) % 16 * 6_400 + (r >> 16) % 8
        } else {
            (r >> 8) % 200_000
        };
        let hit = table.lookup(value).is_hit();
        checksum = checksum.rotate_left(1).wrapping_add(u64::from(hit));
    }
    ComponentResult {
        ops: lookups,
        seconds: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Runs one end-to-end shard to completion and returns its checksum: a
/// digest over every decrypted byte and final counter the shard produced.
fn run_shard(cfg: &ThroughputConfig, shard: usize) -> u64 {
    let mut mem = SecureMemory::new(
        CounterOrg::Morphable128,
        cfg.shard_bytes,
        PipelineKind::Rmcc,
        0x5eed_0000 + shard as u64,
    );
    let blocks = cfg.working_blocks.min(cfg.shard_bytes / 64);
    let mut rng = 0xfeed_f00d ^ (shard as u64) << 32;
    let mut checksum = 0u64;
    // Warm-up: every block in the working set gets an initial write, so the
    // measured loop runs in steady state (all metadata materialized).
    for b in 0..blocks {
        let mut pt = [0u8; 64];
        pt[0] = b as u8;
        pt[7] = shard as u8;
        if mem.write(b, pt).is_err() {
            return 0;
        }
    }
    for i in 0..cfg.accesses_per_shard {
        let r = splitmix64_next(&mut rng);
        let block = r % blocks;
        if r & 0x100 == 0 {
            let mut pt = [0u8; 64];
            pt[..8].copy_from_slice(&r.to_be_bytes());
            pt[56..].copy_from_slice(&i.to_be_bytes());
            if mem.write(block, pt).is_err() {
                return 0;
            }
            checksum = checksum.rotate_left(3).wrapping_add(r);
        } else {
            match mem.read(block) {
                Ok(data) => {
                    let folded = data.chunks_exact(8).fold(0u64, |acc, c| {
                        acc ^ c.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b))
                    });
                    checksum = checksum.rotate_left(3).wrapping_add(folded);
                }
                Err(_) => return 0,
            }
        }
    }
    checksum.wrapping_add(mem.counter_of(0))
}

/// Runs every shard on the calling thread, in order.
fn bench_e2e_serial(cfg: &ThroughputConfig) -> ComponentResult {
    let start = Instant::now();
    let mut checksum = 0u64;
    for shard in 0..cfg.shards {
        checksum ^= run_shard(cfg, shard).rotate_left(shard as u32);
    }
    ComponentResult {
        ops: cfg.accesses_per_shard * cfg.shards as u64,
        seconds: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Fans the same shards across `jobs` workers. Shards are independent and
/// combined with a shard-indexed rotation, so the digest is identical to
/// the serial pass at any pool width.
fn bench_e2e_pooled(cfg: &ThroughputConfig, jobs: usize) -> ComponentResult {
    let jobs = jobs.clamp(1, cfg.shards);
    if jobs == 1 {
        return bench_e2e_serial(cfg);
    }
    let start = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<u64>> =
        (0..cfg.shards).map(|_| std::sync::Mutex::new(0)).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let slots = &slots;
        for _ in 0..jobs {
            scope.spawn(move || loop {
                let shard = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if shard >= cfg.shards {
                    break;
                }
                let digest = run_shard(cfg, shard);
                if let Some(slot) = slots.get(shard) {
                    if let Ok(mut guard) = slot.lock() {
                        *guard = digest;
                    }
                }
            });
        }
    });
    let checksum = slots.iter().enumerate().fold(0u64, |acc, (shard, slot)| {
        acc ^ slot.lock().map_or(0, |g| *g).rotate_left(shard as u32)
    });
    ComponentResult {
        ops: cfg.accesses_per_shard * cfg.shards as u64,
        seconds: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Batched end-to-end throughput through the sharded service on an
/// explicit backend: warm writes, then a deterministic mixed stream
/// submitted in wide batches so the per-shard pad-prefetch seam (8-block
/// OTP groups) is on the measured path. The access stream is
/// backend-independent, so the checksum must match across backends.
fn bench_e2e_batched_on(cfg: &ThroughputConfig, backend: Backend) -> ComponentResult {
    let svc_cfg = ServiceConfig::new(cfg.shards, cfg.shard_bytes).with_backend(backend);
    let svc = SecureMemoryService::new(&svc_cfg);
    let blocks = (cfg.working_blocks * cfg.shards as u64).min(cfg.shard_bytes / 64);
    let warm: Vec<Access> = (0..blocks)
        .map(|b| {
            let mut pt = [0u8; 64];
            pt[0] = b as u8;
            pt[7] = (b >> 8) as u8;
            Access::Write { block: b, data: pt }
        })
        .collect();
    let total = cfg.accesses_per_shard * cfg.shards as u64;
    let start = Instant::now();
    let mut checksum = digest_results(&svc.submit(&warm));
    let mut rng = 0xbead_cafe_5eed_u64;
    let mut batch = Vec::with_capacity(512);
    let mut submitted = 0u64;
    while submitted < total {
        batch.clear();
        let width = 512.min(total - submitted) as usize;
        for i in 0..width {
            let r = splitmix64_next(&mut rng);
            let block = r % blocks;
            if r & 0x100 == 0 {
                let mut pt = [0u8; 64];
                pt[..8].copy_from_slice(&r.to_be_bytes());
                pt[56..].copy_from_slice(&(submitted + i as u64).to_be_bytes());
                batch.push(Access::Write { block, data: pt });
            } else {
                batch.push(Access::Read { block });
            }
        }
        checksum = checksum
            .rotate_left(3)
            .wrapping_add(digest_results(&svc.submit(&batch)));
        submitted += width as u64;
    }
    let shard_digest = (0..cfg.shards).fold(0u64, |acc, s| {
        acc ^ svc.shard_state_digest(s).unwrap_or(0).rotate_left(s as u32)
    });
    ComponentResult {
        ops: total,
        seconds: start.elapsed().as_secs_f64(),
        checksum: checksum.wrapping_add(shard_digest),
    }
}

/// Runs the full harness: AES (scalar + per-backend batched), table,
/// end-to-end serial/pooled, and per-backend batched service submits.
pub fn run(scale: Scale, jobs: usize) -> ThroughputReport {
    let cfg = ThroughputConfig::from_scale(scale);
    ThroughputReport {
        scale: scale.to_string(),
        jobs,
        aes: bench_aes(cfg.aes_blocks),
        aes_fast: bench_aes_batched_on(cfg.aes_blocks, Backend::Fast),
        aes_hardened: bench_aes_batched_on(cfg.aes_blocks, Backend::Hardened),
        table: bench_table(cfg.table_lookups),
        e2e_serial: bench_e2e_serial(&cfg),
        e2e_pooled: bench_e2e_pooled(&cfg, jobs),
        e2e_batched_fast: bench_e2e_batched_on(&cfg, Backend::Fast),
        e2e_batched_hardened: bench_e2e_batched_on(&cfg, Backend::Hardened),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_matches_the_golden_line() {
        // Golden pin: the CI serial/pooled and fast/hardened diffs cannot
        // see a change that shifts every stream alike.
        assert_eq!(
            run(Scale::Tiny, 2).deterministic_json(),
            concat!(
                "{\"schema\":\"rmcc-bench-hotpath-v2\",",
                "\"aes_blocks\":20000,\"aes_checksum\":\"0xb1da01a500363e55\",",
                "\"aes_batched_blocks\":20000,",
                "\"aes_batched_checksum\":\"0xfc8dde2a1e5d5a56\",",
                "\"table_lookups\":200000,\"table_checksum\":\"0x8b510f4decd78bd5\",",
                "\"e2e_accesses\":8000,\"e2e_checksum\":\"0xe777c155850f91e4\",",
                "\"e2e_batched_accesses\":8000,",
                "\"e2e_batched_checksum\":\"0x0f348e2ceb6370c1\",",
                "\"pooled_matches_serial\":true,\"backends_match\":true}"
            )
        );
    }

    #[test]
    fn shards_are_deterministic_and_distinct() {
        let cfg = ThroughputConfig {
            aes_blocks: 10,
            table_lookups: 10,
            accesses_per_shard: 50,
            shards: 2,
            shard_bytes: 1 << 20,
            working_blocks: 32,
        };
        let a = run_shard(&cfg, 0);
        assert_eq!(a, run_shard(&cfg, 0), "same shard, same digest");
        assert_ne!(a, run_shard(&cfg, 1), "different shards diverge");
        assert_ne!(a, 0, "a zero digest signals an engine error");
    }

    #[test]
    fn pooled_matches_serial_at_any_width() {
        let cfg = ThroughputConfig {
            aes_blocks: 10,
            table_lookups: 10,
            accesses_per_shard: 40,
            shards: 3,
            shard_bytes: 1 << 20,
            working_blocks: 16,
        };
        let serial = bench_e2e_serial(&cfg);
        for jobs in [1, 2, 7] {
            let pooled = bench_e2e_pooled(&cfg, jobs);
            assert_eq!(serial.checksum, pooled.checksum, "jobs = {jobs}");
            assert_eq!(serial.ops, pooled.ops);
        }
    }

    fn sample_report() -> ThroughputReport {
        let c = |ops: u64, seconds: f64, checksum: u64| ComponentResult {
            ops,
            seconds,
            checksum,
        };
        ThroughputReport {
            scale: "tiny".to_string(),
            jobs: 1,
            aes: c(1, 0.5, 2),
            aes_fast: c(8, 0.5, 9),
            aes_hardened: c(8, 0.25, 9),
            table: c(3, 0.5, 4),
            e2e_serial: c(5, 0.5, 6),
            e2e_pooled: c(5, 0.25, 6),
            e2e_batched_fast: c(7, 0.5, 11),
            e2e_batched_hardened: c(7, 0.25, 11),
        }
    }

    #[test]
    fn report_json_has_the_schema_markers() {
        let report = sample_report();
        let det = report.deterministic_json();
        assert!(det.contains("\"schema\":\"rmcc-bench-hotpath-v2\""));
        assert!(det.contains("\"pooled_matches_serial\":true"));
        assert!(det.contains("\"backends_match\":true"));
        let full = report.to_json();
        assert!(full.contains("\"aes_blocks_per_s\": 2.0"));
        assert!(full.contains("\"aes_fast_blocks_per_s\": 16.0"));
        assert!(full.contains("\"aes_hardened_blocks_per_s\": 32.0"));
        assert!(full.contains("\"e2e_pooled_accesses_per_s\": 20.0"));
        assert!(full.contains("\"e2e_batched_hardened_accesses_per_s\": 28.0"));
    }

    #[test]
    fn backend_divergence_is_visible_in_the_deterministic_line() {
        let mut report = sample_report();
        assert!(report.backends_match());
        report.aes_hardened.checksum ^= 1;
        assert!(!report.backends_match());
        assert!(report
            .deterministic_json()
            .contains("\"backends_match\":false"));
    }

    #[test]
    fn batched_aes_checksums_agree_across_backends() {
        let fast = bench_aes_batched_on(64, Backend::Fast);
        let hardened = bench_aes_batched_on(64, Backend::Hardened);
        let reference = bench_aes_batched_on(64, Backend::Reference);
        assert_eq!(fast.checksum, hardened.checksum);
        assert_eq!(fast.checksum, reference.checksum);
        assert_eq!(fast.ops, 64);
    }

    #[test]
    fn batched_e2e_checksums_agree_across_backends() {
        let cfg = ThroughputConfig {
            aes_blocks: 10,
            table_lookups: 10,
            accesses_per_shard: 40,
            shards: 2,
            shard_bytes: 1 << 20,
            working_blocks: 16,
        };
        let fast = bench_e2e_batched_on(&cfg, Backend::Fast);
        let hardened = bench_e2e_batched_on(&cfg, Backend::Hardened);
        assert_eq!(fast.checksum, hardened.checksum);
        assert_eq!(fast.ops, hardened.ops);
        assert_ne!(fast.checksum, 0, "zero digest signals a service error");
    }
}
