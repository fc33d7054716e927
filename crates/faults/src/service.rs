//! Per-shard fault isolation for the sharded [`SecureMemoryService`].
//!
//! The single-engine harness in [`crate::inject`] shows that a corrupted
//! memoization entry fails *safe*: the lookup falls back to the full AES
//! path and the table heals itself. The service-level question is blast
//! radius: when one shard's table is poisoned, does anything leak across
//! the shard boundary?
//!
//! Nothing should, by construction — each shard owns its table and ledger
//! outright (`rmcc_core::shard`) — and this harness makes that checkable.
//! It builds a memoizing service plus a pristine control twin, drives both
//! with identical write+read rounds, and reports per-shard result digests
//! and policy tallies. Corrupting one shard's table must:
//!
//! * leave every plaintext read correct everywhere (fail-safe),
//! * leave every *other* shard's digest and tallies byte-identical to the
//!   control twin (isolation),
//! * show up on the victim shard as counted full-AES fallbacks, after
//!   which the shard conforms again (self-heal).

use rmcc_core::shard::{memo_service, MemoHandle, ShardMemoConfig, ShardMemoStats};
use rmcc_secmem::service::{
    digest_results, Access, AccessResult, SecureMemoryService, ServiceConfig,
};

/// The value every shard's table is seeded with — the ladder writes conform
/// to, and the entry [`ServiceFaultHarness::corrupt_shard_memo`] poisons.
pub const LADDER_SEED: u64 = 64;

/// A memoizing service under test, with the host-side handles the fault
/// campaign needs to poison and observe each shard's table.
pub struct ServiceFaultHarness {
    service: SecureMemoryService,
    handles: Vec<MemoHandle>,
    /// For each shard, the data blocks the canonical round touches (two
    /// regions per shard, first block of each).
    shard_blocks: Vec<Vec<u64>>,
}

/// One write+read round's observable outcome, per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Order-sensitive digest of each shard's results, in shard order.
    pub per_shard_digest: Vec<u64>,
    /// Each shard's cumulative policy tallies after the round.
    pub per_shard_stats: Vec<ShardMemoStats>,
    /// Whether every read in the round returned the plaintext the round's
    /// own write stored — the fail-safe invariant.
    pub plaintexts_ok: bool,
}

impl ServiceFaultHarness {
    /// Builds an N-shard memoizing service whose tables are all seeded at
    /// [`LADDER_SEED`], plus the block set the canonical round uses (two
    /// owned regions per shard).
    pub fn new(shards: usize) -> Self {
        // Short epochs and a generous budget so a small round's jumps are
        // always affordable — the fault story, not the budget, is under
        // test here.
        let memo_cfg = ShardMemoConfig::paper().with_epoch(256).with_budget(0.5);
        let (service, handles) =
            memo_service(&ServiceConfig::new(shards, 1 << 26), &memo_cfg, LADDER_SEED);
        let snap = service.snapshot();
        let coverage = snap.coverage();
        let mut shard_blocks: Vec<Vec<u64>> = vec![Vec::new(); snap.shards()];
        let mut region = 0u64;
        while shard_blocks.iter().any(|b| b.len() < 2) && region < 10_000 {
            let block = region * coverage;
            let owner = snap.shard_of(block);
            if let Some(list) = shard_blocks.get_mut(owner) {
                if list.len() < 2 {
                    list.push(block);
                }
            }
            region += 1;
        }
        ServiceFaultHarness {
            service,
            handles,
            shard_blocks,
        }
    }

    /// Number of shards under test.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Poisons the victim shard's memoized entry for `value` through its
    /// policy handle — the service analogue of
    /// [`crate::FaultKind::MemoCorruption`]. Returns whether an entry was
    /// actually corrupted (`false` for an out-of-range shard or a value
    /// that isn't memoized). After round N of [`Self::write_read_round`]
    /// the shard's counters sit at `LADDER_SEED + N - 1`, so the entry the
    /// *next* round consults is `LADDER_SEED + N`.
    pub fn corrupt_shard_memo(&self, shard: usize, value: u64) -> bool {
        self.handles
            .get(shard)
            .map(|h| h.corrupt_entry(value))
            .unwrap_or(false)
    }

    /// Whether the shard's entry for `value` is currently trusted (poison
    /// shows up as `false`; a healed table reports `true` again).
    pub fn shard_memo_trusted(&self, shard: usize, value: u64) -> bool {
        self.handles
            .get(shard)
            .map(|h| h.probe(value))
            .unwrap_or(false)
    }

    /// Drives one canonical round: for every shard, in shard order, write
    /// `[tag; 64]` to each of its blocks then read it back, all in one
    /// batch through `submit`. Returns per-shard digests and tallies.
    pub fn write_read_round(&self, tag: u8) -> RoundReport {
        let mut batch = Vec::new();
        let mut owners = Vec::new();
        for (shard, blocks) in self.shard_blocks.iter().enumerate() {
            for &block in blocks {
                batch.push(Access::Write {
                    block,
                    data: [tag; 64],
                });
                owners.push(shard);
                batch.push(Access::Read { block });
                owners.push(shard);
            }
        }
        let results = self.service.submit(&batch);
        let mut plaintexts_ok = true;
        let mut per_shard: Vec<Vec<AccessResult>> = vec![Vec::new(); self.shards()];
        for ((access, result), &owner) in batch.iter().zip(results.iter()).zip(owners.iter()) {
            if let Access::Read { .. } = access {
                plaintexts_ok &= *result == AccessResult::Data([tag; 64]);
            }
            if let Some(list) = per_shard.get_mut(owner) {
                list.push(*result);
            }
        }
        RoundReport {
            per_shard_digest: per_shard.iter().map(|r| digest_results(r)).collect(),
            per_shard_stats: self.handles.iter().map(MemoHandle::stats).collect(),
            plaintexts_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_assigns_blocks_to_owning_shards() {
        let h = ServiceFaultHarness::new(4);
        assert_eq!(h.shards(), 4);
        for blocks in &h.shard_blocks {
            assert_eq!(blocks.len(), 2, "two regions per shard");
        }
    }

    #[test]
    fn clean_round_conforms_on_every_shard() {
        let h = ServiceFaultHarness::new(3);
        let r = h.write_read_round(0xAB);
        assert!(r.plaintexts_ok);
        for s in &r.per_shard_stats {
            assert!(s.conformed_writes > 0, "ladder steering active: {s:?}");
            assert_eq!(s.table.fallbacks, 0);
        }
    }

    #[test]
    fn corruption_is_contained_and_heals() {
        let faulted = ServiceFaultHarness::new(4);
        let control = ServiceFaultHarness::new(4);
        let f1 = faulted.write_read_round(0x11);
        let c1 = control.write_read_round(0x11);
        assert_eq!(f1, c1, "twins agree before the fault");

        // Counters sit at LADDER_SEED after round 1; round 2 will consult
        // the next rung up.
        let rung = LADDER_SEED + 1;
        assert!(faulted.corrupt_shard_memo(2, rung));
        assert!(!faulted.shard_memo_trusted(2, rung));

        let f2 = faulted.write_read_round(0x22);
        let c2 = control.write_read_round(0x22);
        assert!(f2.plaintexts_ok, "poisoned shard still fails safe");
        for shard in 0..4 {
            if shard == 2 {
                assert_eq!(
                    f2.per_shard_stats[shard].table.fallbacks, 1,
                    "victim pays one counted full-AES fallback"
                );
            } else {
                assert_eq!(f2.per_shard_digest[shard], c2.per_shard_digest[shard]);
                assert_eq!(f2.per_shard_stats[shard], c2.per_shard_stats[shard]);
            }
        }

        // Healed: the fallback cleared the poison, the next round conforms
        // again and the fallback count stops growing.
        assert!(faulted.shard_memo_trusted(2, rung));
        let f3 = faulted.write_read_round(0x33);
        assert!(f3.plaintexts_ok);
        assert_eq!(f3.per_shard_stats[2].table.fallbacks, 1);
        assert!(f3.per_shard_stats[2].conformed_writes > f2.per_shard_stats[2].conformed_writes);
    }
}
