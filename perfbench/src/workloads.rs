//! The benchmark's four workloads, the seeded streams they generate, and the
//! set-up every run performs before it times anything.
//!
//! Every workload drives the same service geometry: [`SHARDS`] shards of the
//! paper's memoizing stack (Morphable counters, the RMCC split pipeline, a
//! per-shard `memo_policy`), submitted to in batches by one closed-loop
//! client at pool width [`JOBS`]. They differ in the stream and the batch
//! size, and so in which layer does the work.
//!
//! Set-up writes every block the stream touches before anything is timed
//! (the populate pass), so no timed read can fail as `Unwritten`, then
//! replays the head of the stream once (the warm pass) so the timed pass
//! starts from a service whose counters, tree and memo are in steady state.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rmcc_core::shard::{memo_policy, MemoHandle, ShardMemoConfig};
use rmcc_crypto::aes::Backend;
use rmcc_crypto::mac::DataBlock;
use rmcc_secmem::engine::{CounterUpdatePolicy, SecureMemory};
use rmcc_secmem::service::{
    digest_results, Access, AccessResult, SecureMemoryService, ServiceConfig,
};
use rmcc_workloads::corpus::{
    splitmix64, AdversarialLocalityConfig, KvServingConfig, Scenario, BLOCK_BYTES,
};

/// Shards in the service under test.
pub const SHARDS: usize = 8;
/// Worker-pool width of the pooled (measured) passes; the host this
/// benchmark was written for has two CPUs.
pub const JOBS: usize = 2;
/// Protected capacity; one value for every workload, so every workload
/// walks a tree of the same depth.
const DATA_BYTES: u64 = 1 << 30;
/// The seed the populate test runs at.
pub const DEFAULT_SEED: u64 = 1;

/// Which stream a workload generates.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// `Scenario::KvServing`: zipfian keys over `regions` keyed regions,
    /// zipfian offsets over the first `hot` blocks of each region.
    Kv {
        regions: u64,
        hot: u64,
        write_permille: u32,
    },
    /// `Scenario::AdversarialLocality`: a cyclic sweep of `bursts` visits
    /// of `burst` consecutive blocks, packed densely in the address space
    /// (16 bursts per 128-block counter region). Spreading one burst per
    /// counter region instead leaves each shard's 1,024-slot arena pages
    /// 1/16 full and pushes the service past 3.5 GiB resident at this size.
    Sweep {
        bursts: u64,
        burst: u64,
        write_permille: u32,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// AES backend of every shard.
    pub backend: Backend,
    /// A second backend that must reproduce this workload's results
    /// exactly (checked on the set-up and the first timed batches).
    pub twin: Option<Backend>,
    stream: Stream,
    /// Accesses per `submit` call.
    pub batch: usize,
    /// Accesses in one cycle of the stream; the timed pass cycles over it.
    stream_len: usize,
    /// Accesses at the head of the stream replayed by the warm pass.
    warm_len: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    // kv_resident: ~250 distinct blocks per shard, far inside the
    // 16,384-slot pad memo, so nearly every data pad is a memo hit and AES
    // does little. The service (routing, scatter, catch_unwind, pad prefetch)
    // and the engine's tree walk do most of the work: a change to those
    // shows here first.
    Workload {
        name: "kv_resident",
        backend: Backend::Fast,
        twin: None,
        stream: Stream::Kv {
            regions: 256,
            hot: 8,
            write_permille: 50,
        },
        batch: 256,
        stream_len: 1 << 16,
        warm_len: 1 << 16,
    },
    // sweep_busting: a cyclic sweep of 65,536 8-block bursts, ~65k blocks
    // per shard, four times the pad memo, so nearly every data pad is
    // derived (AES + clmul). The counterpart to
    // kv_resident for any pad-cache or AES change: one exercises the memo,
    // the other bypasses it.
    Workload {
        name: "sweep_busting",
        backend: Backend::Fast,
        twin: None,
        stream: Stream::Sweep {
            bursts: 65_536,
            burst: 8,
            write_permille: 250,
        },
        // 256 consecutive blocks span only two counter regions, so one
        // batch in eight would land on a single shard and leave the second
        // worker idle; 1,024 spread over eight regions.
        batch: 1024,
        stream_len: 65_536 * 8,
        warm_len: 1 << 16,
    },
    // write_storm: 90% writes over 64 regions x 128 hot blocks. Writes are
    // on the critical path (policy bump, Morphable overflow and relevel,
    // publish_node re-MACs; ~0.75 relevel re-encryptions per access), so a
    // read-path gain that costs writes shows up here.
    Workload {
        name: "write_storm",
        backend: Backend::Fast,
        twin: Some(Backend::Hardened),
        stream: Stream::Kv {
            regions: 64,
            hot: 128,
            write_permille: 900,
        },
        batch: 256,
        stream_len: 1 << 16,
        warm_len: 1 << 14,
    },
    // write_storm_hardened: write_storm's stream and seed on the bitsliced
    // constant-time backend, the only workload that reaches it. Paired with
    // write_storm it gives the hardened/fast end-to-end ratio. (A sweep was
    // rejected for this role: populating it on hardened takes tens of
    // seconds, and a sweep short enough to be cheaper fits the memo again.)
    Workload {
        name: "write_storm_hardened",
        backend: Backend::Hardened,
        twin: Some(Backend::Fast),
        stream: Stream::Kv {
            regions: 64,
            hot: 128,
            write_permille: 900,
        },
        batch: 256,
        stream_len: 1 << 16,
        warm_len: 1 << 14,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The configuration every shard of every workload is built from.
pub fn service_config(backend: Backend) -> ServiceConfig {
    ServiceConfig::new(SHARDS, DATA_BYTES)
        .with_jobs(JOBS)
        .with_backend(backend)
}

/// One shard's counter-update policy and its telemetry handle: the paper's
/// memo table with a 4,096-access epoch and a 5% budget, seeded with one
/// group at counter 4.
pub fn shard_policy() -> (Box<dyn CounterUpdatePolicy>, MemoHandle) {
    let mut cfg = ShardMemoConfig::paper().with_epoch(4_096);
    cfg.budget_fraction = 0.05;
    let (policy, handle) = memo_policy(&cfg);
    handle.seed_groups([4]);
    (policy, handle)
}

/// A memoizing service on `backend` and its per-shard policy handles.
pub fn build_service(backend: Backend) -> (SecureMemoryService, Vec<MemoHandle>) {
    let mut handles = Vec::with_capacity(SHARDS);
    let service = SecureMemoryService::with_policies(&service_config(backend), |_| {
        let (policy, handle) = shard_policy();
        handles.push(handle);
        policy
    });
    (service, handles)
}

/// An engine built exactly like one shard of [`build_service`].
pub fn build_engine(backend: Backend) -> SecureMemory {
    let cfg = service_config(backend);
    SecureMemory::with_policy_on(
        cfg.org,
        cfg.data_bytes,
        cfg.pipeline,
        cfg.key_seed,
        shard_policy().0,
        backend,
    )
}

/// The plaintext written by the access at stream position `seq`.
fn block_data(block: u64, seq: u64) -> DataBlock {
    let mut out = [0u8; 64];
    let mut s = splitmix64(block ^ seq.rotate_left(32));
    for chunk in out.chunks_exact_mut(8) {
        s = splitmix64(s);
        chunk.copy_from_slice(&s.to_le_bytes());
    }
    out
}

/// A workload's inputs for one seed: the populate batches, the cyclic
/// stream, and where the warm pass ends in it.
pub struct Inputs {
    /// One write per distinct block of the stream, in first-touch order.
    pub populate: Vec<Vec<Access>>,
    /// One cycle of the stream, in batches.
    pub stream: Vec<Vec<Access>>,
    /// Batches at the head of `stream` replayed by the warm pass.
    pub warm_batches: usize,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let coverage = service_config(w.backend).org.coverage() as u64;
        let events = w.stream_len as u64;
        let scenario = match w.stream {
            Stream::Kv {
                regions,
                hot,
                write_permille,
            } => Scenario::KvServing(KvServingConfig {
                tenants: 16,
                regions_per_tenant: regions / 16,
                blocks_per_region: coverage,
                hot_blocks_per_region: hot,
                events,
                write_permille,
                churn_period: 0,
                seed,
            }),
            Stream::Sweep {
                bursts,
                burst,
                write_permille,
            } => Scenario::AdversarialLocality(AdversarialLocalityConfig {
                regions: bursts,
                blocks_per_region: burst,
                burst,
                events,
                write_permille,
                seed,
            }),
        };
        let accesses: Vec<Access> = scenario
            .events()
            .zip(0u64..)
            .map(|(ev, seq)| {
                let block = ev.addr / BLOCK_BYTES;
                if ev.is_write {
                    Access::Write {
                        block,
                        data: block_data(block, seq),
                    }
                } else {
                    Access::Read { block }
                }
            })
            .collect();
        let mut seen = HashSet::new();
        let populate: Vec<Access> = accesses
            .iter()
            .map(Access::block)
            .filter(|b| seen.insert(*b))
            .map(|block| Access::Write {
                block,
                data: block_data(block, u64::MAX),
            })
            .collect();
        Inputs {
            populate: populate.chunks(w.batch).map(<[Access]>::to_vec).collect(),
            stream: accesses.chunks(w.batch).map(<[Access]>::to_vec).collect(),
            warm_batches: w.warm_len.div_ceil(w.batch),
        }
    }

    /// The set-up batches in submission order: populate, then warm.
    pub fn setup_batches(&self) -> impl Iterator<Item = &[Access]> {
        let warm = self.stream.iter().take(self.warm_batches);
        self.populate.iter().chain(warm).map(Vec::as_slice)
    }

    /// Timed batch `k`: the stream continues where the warm pass stopped
    /// and wraps around at the end of its cycle.
    pub fn timed_batch(&self, k: usize) -> &[Access] {
        let n = self.stream.len().max(1);
        self.stream
            .get((self.warm_batches + k) % n)
            .map_or(&[], Vec::as_slice)
    }
}

/// A service after set-up.
pub struct Ready {
    /// The service, ready for the timed pass.
    pub service: SecureMemoryService,
    /// Its per-shard policy handles.
    pub handles: Vec<MemoHandle>,
    /// Construction plus the populate and warm submits, in seconds.
    pub seconds: f64,
    /// Order-sensitive digest of every set-up result.
    pub digest: u64,
    /// Set-up accesses submitted.
    pub attempted: u64,
    /// Set-up accesses whose result is not `is_ok()`.
    pub failed: u64,
}

/// Builds a service on `backend` and runs the populate and warm passes at
/// pool width [`JOBS`]. Only construction and the `submit` calls are
/// timed; when an oracle is given, every result is checked against it
/// outside the timed intervals.
pub fn set_up(
    inputs: &Inputs,
    backend: Backend,
    mut oracle: Option<&mut Oracle>,
) -> Result<Ready, String> {
    let start = Instant::now();
    let (service, handles) = build_service(backend);
    let mut seconds = start.elapsed().as_secs_f64();
    let (mut digest, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    for batch in inputs.setup_batches() {
        let start = Instant::now();
        let results = service.submit(batch);
        seconds += start.elapsed().as_secs_f64();
        digest = fold_digest(digest, &results);
        attempted += results.len() as u64;
        failed += results.iter().filter(|r| !r.is_ok()).count() as u64;
        if let Some(oracle) = oracle.as_deref_mut() {
            oracle.check(batch, &results)?;
        }
    }
    Ok(Ready {
        service,
        handles,
        seconds,
        digest,
        attempted,
        failed,
    })
}

/// Folds one batch's `digest_results` into a running digest.
pub fn fold_digest(acc: u64, results: &[AccessResult]) -> u64 {
    acc.rotate_left(9) ^ digest_results(results)
}

/// A plain map of what each block should hold: the last plaintext written
/// and the counter that write returned.
#[derive(Default)]
pub struct Oracle {
    blocks: HashMap<u64, (DataBlock, u64)>,
}

impl Oracle {
    /// Checks one batch's results: every read returns the block's last
    /// written plaintext, every write succeeds with a counter above the
    /// block's previous one, and nothing fails.
    pub fn check(&mut self, batch: &[Access], results: &[AccessResult]) -> Result<(), String> {
        if batch.len() != results.len() {
            return Err(format!(
                "{} results for a batch of {}",
                results.len(),
                batch.len()
            ));
        }
        for (access, result) in batch.iter().zip(results) {
            match (*access, *result) {
                (Access::Read { block }, AccessResult::Data(data)) => {
                    if self.blocks.get(&block).map(|(d, _)| d) != Some(&data) {
                        return Err(format!(
                            "read of block {block} returned data that is not its last write"
                        ));
                    }
                }
                (Access::Write { block, data }, AccessResult::Written { counter }) => {
                    let previous = self.blocks.get(&block).map(|&(_, c)| c);
                    if previous.is_some_and(|p| counter <= p) {
                        return Err(format!(
                            "write of block {block} returned counter {counter}, not above {previous:?}"
                        ));
                    }
                    self.blocks.insert(block, (data, counter));
                }
                (access, result) => {
                    return Err(format!("{access:?} failed: {result:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's set-up at its default seed writes every block the
    /// stream touches and leaves nothing failed, so no timed access can
    /// exit early as `Unwritten` and `failed_share` starts from zero.
    #[test]
    fn populate_leaves_no_failures_at_default_seed() {
        for w in WORKLOADS {
            let inputs = Inputs::generate(&w, DEFAULT_SEED);
            let populated: HashSet<u64> = inputs
                .populate
                .iter()
                .flatten()
                .map(Access::block)
                .collect();
            let touched: HashSet<u64> = inputs.stream.iter().flatten().map(Access::block).collect();
            assert_eq!(
                populated, touched,
                "{}: populate misses stream blocks",
                w.name
            );
            let mut oracle = Oracle::default();
            let ready = set_up(&inputs, w.backend, Some(&mut oracle))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(ready.attempted > 0, "{}", w.name);
            assert_eq!(ready.failed, 0, "{}: failed_share is not 0", w.name);
            let first = ready.service.submit(inputs.timed_batch(0));
            oracle
                .check(inputs.timed_batch(0), &first)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = WORKLOADS[0];
        let a = Inputs::generate(&w, 7);
        let b = Inputs::generate(&w, 7);
        let c = Inputs::generate(&w, 8);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
    }
}
