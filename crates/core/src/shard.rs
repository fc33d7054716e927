//! Per-shard memoization state for the sharded secure-memory service.
//!
//! The service in `rmcc_secmem::service` splits the memory image into N
//! independent shards; this module gives each shard its own slice of the
//! RMCC stack — a [`MemoizationTable`] and a fixed-point [`TrafficBudget`]
//! ledger — packaged as a [`CounterUpdatePolicy`] the shard's engine calls
//! on every write and relevel.
//!
//! Two deliberate properties:
//!
//! * **Nothing is shared between shards.** Each policy owns its table and
//!   budget outright; the only cross-shard artifact is the read-only
//!   aggregation below. That keeps the hot path free of cross-shard
//!   contention and makes every shard's trajectory a pure function of the
//!   traffic routed to it.
//! * **Deterministic epoch aggregation.** Each shard's budget ticks epochs
//!   on its *own* access count (a shard serving 1/N of the traffic crosses
//!   epoch boundaries at 1/N the global rate, exactly as if it were a
//!   smaller standalone system). [`aggregate_stats`] folds per-shard
//!   tallies in shard-index order into one [`ShardMemoStats`]; every field
//!   is a commutative saturating sum (plus one AND), so the aggregate is
//!   identical no matter how the shards were scheduled.
//!
//! The policy's steering rule mirrors `rmcc::Rmcc::update_counter` in
//! miniature: bump to the nearest memoized value above the current counter
//! when the budget affords the extra traffic, else fall back to the
//! baseline `current + 1`; relevel targets snap up to memoized values for
//! free (the relevel re-encrypts its coverage region either way).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rmcc_secmem::engine::CounterUpdatePolicy;
use rmcc_secmem::service::{SecureMemoryService, ServiceConfig};

use crate::budget::TrafficBudget;
use crate::table::{MemoizationTable, TableConfig, TableStats};

/// How to build one shard's memoization state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMemoConfig {
    /// Memoization-table geometry.
    pub table: TableConfig,
    /// Overhead-traffic budget as a fraction of total traffic (§IV-C1's
    /// 1%).
    pub budget_fraction: f64,
    /// Accesses per budget/reselection epoch, counted per shard.
    pub epoch_accesses: u64,
}

impl ShardMemoConfig {
    /// The paper's parameters: 16×8 table, 1% budget, 1 M-access epochs.
    pub fn paper() -> Self {
        ShardMemoConfig {
            table: TableConfig::paper(),
            budget_fraction: 0.01,
            epoch_accesses: crate::budget::EPOCH_ACCESSES,
        }
    }

    /// The same config with a shorter epoch (tests and small sim runs).
    #[must_use]
    pub fn with_epoch(mut self, epoch_accesses: u64) -> Self {
        self.epoch_accesses = epoch_accesses.max(1);
        self
    }

    /// The same config with a different overhead-traffic budget fraction.
    #[must_use]
    pub fn with_budget(mut self, budget_fraction: f64) -> Self {
        self.budget_fraction = budget_fraction;
        self
    }
}

/// One shard's mutable memoization state.
struct MemoCore {
    /// The build-time configuration, kept so a reset can reconstruct the
    /// just-built state deterministically.
    cfg: ShardMemoConfig,
    /// Every group start seeded through [`MemoHandle::seed_groups`], in
    /// seeding order — replayed on reset so a rebuilt shard's ladder is
    /// identical to a never-faulted twin's.
    seeds: Vec<u64>,
    table: MemoizationTable,
    budget: TrafficBudget,
    conformed_writes: u64,
    baseline_writes: u64,
    memoized_relevels: u64,
}

fn lock(core: &Arc<Mutex<MemoCore>>) -> MutexGuard<'_, MemoCore> {
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Builds one shard's policy plus the handle the host keeps for telemetry,
/// seeding, and fault injection. The policy goes into the shard's engine
/// (`SecureMemoryService::with_policies`); the handle stays outside the
/// engine, which is what lets telemetry read — and the fault harness
/// corrupt — a live shard's table without touching the engine's API.
pub fn memo_policy(cfg: &ShardMemoConfig) -> (Box<dyn CounterUpdatePolicy>, MemoHandle) {
    let core = Arc::new(Mutex::new(MemoCore {
        cfg: *cfg,
        seeds: Vec::new(),
        table: MemoizationTable::new(cfg.table),
        budget: TrafficBudget::with_epoch(cfg.budget_fraction, cfg.epoch_accesses),
        conformed_writes: 0,
        baseline_writes: 0,
        memoized_relevels: 0,
    }));
    let handle = MemoHandle {
        core: Arc::clone(&core),
    };
    (Box::new(MemoPolicy { core }), handle)
}

/// Builds a memoizing service: one [`memo_policy`] per shard, each table
/// seeded with the group at `ladder_seed` (`0` = cold start, no seeding),
/// plus the shards' handles in shard order. Every corpus-driven run, bench
/// pass and fault harness builds its service here.
pub fn memo_service(
    svc_cfg: &ServiceConfig,
    memo_cfg: &ShardMemoConfig,
    ladder_seed: u64,
) -> (SecureMemoryService, Vec<MemoHandle>) {
    let mut handles = Vec::with_capacity(svc_cfg.shards.max(1));
    let service = SecureMemoryService::with_policies(svc_cfg, |_| {
        let (policy, handle) = memo_policy(memo_cfg);
        if ladder_seed > 0 {
            handle.seed_groups([ladder_seed]);
        }
        handles.push(handle);
        policy
    });
    (service, handles)
}

/// A [`CounterUpdatePolicy`] backed by one shard's memoization table and
/// traffic budget. Built via [`memo_policy`].
pub struct MemoPolicy {
    core: Arc<Mutex<MemoCore>>,
}

impl CounterUpdatePolicy for MemoPolicy {
    fn bump(&mut self, current: u64) -> u64 {
        let mut core = lock(&self.core);
        if core.budget.on_access() {
            // Epoch boundary: LFU demotion / shadow promotion, no forced
            // insertion (the host seeds groups through the handle).
            core.table.epoch_reselect(None);
        }
        let next = current.saturating_add(1);
        if let Some(target) = core.table.nearest_memoized_above(current) {
            // Landing on the ladder is free when it *is* the baseline bump;
            // a farther jump charges one overhead request to the ledger
            // (the jump's worth of extra counter traffic, the same unit
            // `Rmcc::update_counter` accounts).
            let affordable = target == next || core.budget.try_consume(1);
            if affordable && core.table.lookup(target).is_hit() {
                core.conformed_writes = core.conformed_writes.saturating_add(1);
                return target;
            }
            // Unaffordable, or the entry was poisoned: `lookup` has already
            // counted the fail-safe fallback and cleared the poison, so the
            // table self-heals while this write takes the baseline path.
        }
        core.baseline_writes = core.baseline_writes.saturating_add(1);
        next
    }

    fn relevel_target(&mut self, min_target: u64) -> u64 {
        let mut core = lock(&self.core);
        match core
            .table
            .nearest_memoized_above(min_target.saturating_sub(1))
        {
            Some(target) if target >= min_target => {
                core.memoized_relevels = core.memoized_relevels.saturating_add(1);
                target
            }
            _ => min_target,
        }
    }

    /// Rebuild-time reset: discards every table entry (including poison
    /// marks), replays the recorded seed ladder, and restarts the budget
    /// ledger from its just-built configuration. Cumulative table tallies
    /// survive (they are history, not state); the budget ledger's counters
    /// restart with it, since spend/epoch position *is* its state.
    fn reset(&mut self) {
        let mut core = lock(&self.core);
        core.table.reset_entries();
        let seeds: Vec<u64> = core.seeds.clone();
        core.table.seed_groups(seeds);
        core.budget = TrafficBudget::with_epoch(core.cfg.budget_fraction, core.cfg.epoch_accesses);
    }

    /// Detected-but-unserved corrupted entries — the health monitor's
    /// quarantine signal.
    fn scrub(&mut self) -> u64 {
        lock(&self.core).table.poisoned_entries()
    }
}

/// The host-side handle to one shard's memoization state.
#[derive(Clone)]
pub struct MemoHandle {
    core: Arc<Mutex<MemoCore>>,
}

impl MemoHandle {
    /// Seeds consecutive-value groups, one per `starts` entry (warm start,
    /// mirroring the high-value monitor's insertions). Seeds are recorded
    /// so a rebuild-time [`CounterUpdatePolicy::reset`] can replay them.
    pub fn seed_groups(&self, starts: impl IntoIterator<Item = u64>) {
        let mut core = lock(&self.core);
        for s in starts {
            core.seeds.push(s);
            core.table.insert_group(s);
        }
    }

    /// Poisons the cached entry for `value` if memoized (the fault
    /// harness's seam). Returns whether anything was corrupted.
    pub fn corrupt_entry(&self, value: u64) -> bool {
        lock(&self.core).table.corrupt_entry(value)
    }

    /// Poisons *every* memoized value at once — the massive-upset injection
    /// that should trip a quarantine rather than entry-at-a-time healing.
    /// Returns how many values were poisoned.
    pub fn corrupt_all(&self) -> u64 {
        lock(&self.core).table.corrupt_all_entries()
    }

    /// How many values are currently marked corrupted and unhealed.
    pub fn poisoned_entries(&self) -> u64 {
        lock(&self.core).table.poisoned_entries()
    }

    /// Whether `value` is currently memoized and trusted (no state change).
    pub fn probe(&self, value: u64) -> bool {
        lock(&self.core).table.probe(value)
    }

    /// This shard's cumulative tallies.
    pub fn stats(&self) -> ShardMemoStats {
        let core = lock(&self.core);
        ShardMemoStats {
            table: core.table.stats(),
            budget_spent: core.budget.total_spent(),
            budget_accesses: core.budget.total_accesses(),
            budget_epochs: core.budget.epochs(),
            conformed_writes: core.conformed_writes,
            baseline_writes: core.baseline_writes,
            memoized_relevels: core.memoized_relevels,
            budget_ok: core.budget.invariant_holds(),
        }
    }
}

/// Cumulative per-shard (or, after [`aggregate_stats`], service-wide)
/// memoization tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMemoStats {
    /// Memoization-table hit/miss/maintenance counters.
    pub table: TableStats,
    /// Overhead requests the budget ledger actually spent.
    pub budget_spent: u64,
    /// Accesses the ledger metered.
    pub budget_accesses: u64,
    /// Completed budget epochs.
    pub budget_epochs: u64,
    /// Writes steered onto a memoized value.
    pub conformed_writes: u64,
    /// Writes that took the baseline `current + 1` path.
    pub baseline_writes: u64,
    /// Overflow relevels that landed on a memoized value.
    pub memoized_relevels: u64,
    /// Whether every folded ledger's spend invariant held.
    pub budget_ok: bool,
}

impl ShardMemoStats {
    /// Field-wise fold of two tallies (sums, `budget_ok` ANDed).
    #[must_use]
    pub fn merged(self, other: ShardMemoStats) -> ShardMemoStats {
        ShardMemoStats {
            table: self.table.merged(other.table),
            budget_spent: self.budget_spent.saturating_add(other.budget_spent),
            budget_accesses: self.budget_accesses.saturating_add(other.budget_accesses),
            budget_epochs: self.budget_epochs.saturating_add(other.budget_epochs),
            conformed_writes: self.conformed_writes.saturating_add(other.conformed_writes),
            baseline_writes: self.baseline_writes.saturating_add(other.baseline_writes),
            memoized_relevels: self
                .memoized_relevels
                .saturating_add(other.memoized_relevels),
            budget_ok: self.budget_ok && other.budget_ok,
        }
    }
}

/// Folds every shard's tallies, in shard-index order, into one aggregate.
/// Deterministic for a given set of per-shard states regardless of how the
/// service scheduled the shards (every field is commutative).
pub fn aggregate_stats(handles: &[MemoHandle]) -> ShardMemoStats {
    handles.iter().fold(
        ShardMemoStats {
            budget_ok: true,
            ..ShardMemoStats::default()
        },
        |acc, h| acc.merged(h.stats()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg() -> ShardMemoConfig {
        // Short epochs shrink the per-epoch allowance (fraction × epoch);
        // raise the fraction so a 64-access epoch still affords jumps.
        let mut cfg = ShardMemoConfig::paper().with_epoch(64);
        cfg.budget_fraction = 0.25;
        cfg
    }

    #[test]
    fn bump_conforms_to_seeded_ladder_and_counts_it() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        handle.seed_groups([1_000]);
        assert_eq!(policy.bump(0), 1_000, "jump to the nearest memoized value");
        let s = handle.stats();
        assert_eq!(s.conformed_writes, 1);
        assert_eq!(s.budget_spent, 1, "the jump charged the ledger");
        assert!(s.budget_ok);
        // Within the group the baseline bump *is* the next rung: free.
        assert_eq!(policy.bump(1_000), 1_001);
        assert_eq!(handle.stats().budget_spent, 1);
    }

    #[test]
    fn bump_above_ladder_takes_baseline_path() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        handle.seed_groups([1_000]);
        assert_eq!(policy.bump(5_000), 5_001);
        let s = handle.stats();
        assert_eq!(s.baseline_writes, 1);
        assert_eq!(s.conformed_writes, 0);
    }

    #[test]
    fn corrupted_entry_fails_safe_then_heals() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        handle.seed_groups([1_000]);
        assert!(handle.corrupt_entry(1_000));
        assert!(!handle.probe(1_000), "poisoned entries are untrusted");
        // The steering still *aims* at 1000 but the poisoned lookup falls
        // back to the baseline path and clears the poison.
        assert_eq!(policy.bump(0), 1);
        let s = handle.stats();
        assert_eq!(s.table.fallbacks, 1);
        assert_eq!(s.baseline_writes, 1);
        // Healed: the next write conforms again.
        assert_eq!(policy.bump(1), 1_000);
        assert_eq!(handle.stats().conformed_writes, 1);
    }

    #[test]
    fn relevel_snaps_up_to_memoized_for_free() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        handle.seed_groups([1_000]);
        assert_eq!(policy.relevel_target(900), 1_000);
        assert_eq!(policy.relevel_target(1_000), 1_000, "already on a rung");
        assert_eq!(
            policy.relevel_target(2_000),
            2_000,
            "nothing above: minimum"
        );
        let s = handle.stats();
        assert_eq!(s.memoized_relevels, 2);
        assert_eq!(s.budget_spent, 0, "relevels never charge the ledger");
    }

    #[test]
    fn epochs_tick_per_shard_access_count() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        for i in 0..(64 * 3) as u64 {
            policy.bump(i * 10);
        }
        assert_eq!(handle.stats().budget_epochs, 3);
        assert_eq!(handle.stats().budget_accesses, 192);
    }

    #[test]
    fn corrupt_all_then_scrub_then_reset_restores_seeded_ladder() {
        let (mut policy, handle) = memo_policy(&short_cfg());
        handle.seed_groups([1_000]);
        policy.bump(0); // conform once so the budget has state
        assert!(handle.corrupt_all() >= 8, "the whole group is poisoned");
        assert_eq!(policy.scrub(), handle.poisoned_entries());
        assert!(policy.scrub() > 0);

        policy.reset();
        assert_eq!(policy.scrub(), 0, "reset clears the poison");
        assert!(handle.probe(1_000), "the seeded ladder is back");
        let s = handle.stats();
        assert_eq!(s.budget_spent, 0, "the ledger restarts");
        assert_eq!(s.budget_accesses, 0);
        assert_eq!(
            s.conformed_writes, 1,
            "cumulative write history survives the reset"
        );
        // The reset state behaves exactly like a fresh seeded policy.
        let (mut fresh, fh) = memo_policy(&short_cfg());
        fh.seed_groups([1_000]);
        for current in [0u64, 1_000, 1_001, 5_000] {
            assert_eq!(policy.bump(current), fresh.bump(current));
        }
    }

    #[test]
    fn aggregation_folds_shards_commutatively() {
        let (mut p0, h0) = memo_policy(&short_cfg());
        let (mut p1, h1) = memo_policy(&short_cfg());
        h0.seed_groups([100]);
        p0.bump(0);
        p1.bump(0);
        p1.bump(10);
        let forward = aggregate_stats(&[h0.clone(), h1.clone()]);
        let backward = aggregate_stats(&[h1, h0]);
        assert_eq!(forward, backward);
        assert_eq!(forward.conformed_writes, 1);
        assert_eq!(forward.baseline_writes, 2);
        assert_eq!(forward.budget_accesses, 3);
        assert!(forward.budget_ok);
        assert_eq!(aggregate_stats(&[]).budget_accesses, 0);
        assert!(aggregate_stats(&[]).budget_ok);
    }
}
