//! The fault harness: one secure memory under seeded adversarial fire.
//!
//! Every fault is *constructed to land* — the harness does not flip bits
//! into the void and hope. A ciphertext flip targets a written block, a
//! rollback captures a genuinely stale image, a memoization corruption hits
//! a value that is actually memoized. That way the classification is sharp:
//! an undetected fault is a real security bug, never a dud injection.

use std::collections::BTreeMap;

use rmcc_core::rmcc::{Rmcc, RmccConfig};
use rmcc_core::table::LookupResult;
use rmcc_crypto::otp::COUNTER_MAX;
use rmcc_secmem::counters::CounterOrg;
use rmcc_secmem::engine::{PipelineKind, ReadError, SecureMemory};

/// A tiny deterministic RNG (splitmix64) so campaigns are reproducible from
/// a single seed with no external dependency.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        rmcc_crypto::splitmix64_next(&mut self.0)
    }

    /// A value uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// Every fault class the paper's threat model names (§II, §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one ciphertext bit on the bus.
    CipherBitFlip,
    /// Corrupt ciphertext *and* forge the co-located MAC.
    MacForge,
    /// Roll the stored counter-block image back to a stale capture.
    CounterRollback,
    /// Replay a full stale (ciphertext, MAC, counter image) triple.
    BlockReplay,
    /// Suppress a data writeback (stale data survives, or the first write
    /// never lands at all).
    DroppedWriteback,
    /// Corrupt one memoized AES result inside the RMCC table (SRAM upset).
    MemoCorruption,
    /// Forge the counter image to the Observed-System-Max bound or the
    /// 56-bit [`COUNTER_MAX`] itself, probing saturation handling.
    CounterSaturation,
}

impl FaultKind {
    /// Every fault class, in a fixed order (campaign iteration).
    pub const ALL: [FaultKind; 7] = [
        FaultKind::CipherBitFlip,
        FaultKind::MacForge,
        FaultKind::CounterRollback,
        FaultKind::BlockReplay,
        FaultKind::DroppedWriteback,
        FaultKind::MemoCorruption,
        FaultKind::CounterSaturation,
    ];

    /// Whether this fault attacks data/metadata *integrity* — i.e. a read
    /// after it must fail with a [`ReadError`]. Memoization-table
    /// corruption is the exception: the table caches recomputable AES
    /// results, so the correct response is a fail-safe fallback, not an
    /// error.
    pub fn integrity_affecting(self) -> bool {
        !matches!(self, FaultKind::MemoCorruption)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CipherBitFlip => "cipher-bit-flip",
            FaultKind::MacForge => "mac-forge",
            FaultKind::CounterRollback => "counter-rollback",
            FaultKind::BlockReplay => "block-replay",
            FaultKind::DroppedWriteback => "dropped-writeback",
            FaultKind::MemoCorruption => "memo-corruption",
            FaultKind::CounterSaturation => "counter-saturation",
        }
    }
}

/// What the stack did with one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The read after the fault failed with a typed error — the integrity
    /// machinery caught it.
    Detected(ReadError),
    /// The fault hit recomputable state (memoization table); the pipeline
    /// fell back to the full AES path and the plaintext stayed correct.
    FailSafe,
    /// The read succeeded with plaintext that does not match the last
    /// write — the one outcome that must never happen.
    SilentCorruption,
}

impl FaultOutcome {
    /// `true` unless the fault corrupted plaintext silently.
    pub fn is_safe(self) -> bool {
        !matches!(self, FaultOutcome::SilentCorruption)
    }
}

/// Seeded memoized group starts for the harness's RMCC engine; chosen to be
/// far apart so group membership is unambiguous.
const MEMO_GROUP_STARTS: [u64; 2] = [1_000, 50_000];

/// One secure memory + RMCC engine + plaintext shadow copy under seeded
/// adversarial fire.
///
/// After every injection the harness classifies the outcome, *heals* the
/// damage by rewriting the victim, and asserts the heal took — so a long
/// campaign keeps every fault independent and the final state checkable.
#[derive(Debug)]
pub struct FaultHarness {
    mem: SecureMemory,
    rmcc: Rmcc,
    /// The last plaintext written per block — ground truth for silent
    /// corruption checks.
    shadow: BTreeMap<u64, [u8; 64]>,
    /// Victim pool, sorted for deterministic choice.
    blocks: Vec<u64>,
    rng: FaultRng,
    write_round: u64,
}

impl FaultHarness {
    /// A harness over `working_set` warm blocks of a fresh secure memory.
    ///
    /// # Panics
    ///
    /// Panics if `working_set` is zero or exceeds the memory's capacity.
    pub fn new(
        org: CounterOrg,
        pipeline: PipelineKind,
        seed: u64,
        working_set: u64,
        data_bytes: u64,
    ) -> Self {
        let mem = SecureMemory::new(org, data_bytes, pipeline, seed);
        assert!(
            working_set > 0 && working_set <= mem.layout().data_blocks(),
            "working set must fit the protected capacity"
        );
        let mut rmcc = Rmcc::new(RmccConfig::paper());
        for start in MEMO_GROUP_STARTS {
            rmcc.seed_group(0, start);
        }
        let mut harness = FaultHarness {
            mem,
            rmcc,
            shadow: BTreeMap::new(),
            blocks: Vec::new(),
            rng: FaultRng::new(seed ^ (0xfa_u64 << 56)),
            write_round: 0,
        };
        // Warm-up: spread the working set across counter blocks so faults
        // exercise different tree paths.
        let stride = (harness.mem.layout().data_blocks() / working_set).max(1);
        for i in 0..working_set {
            let block = i * stride;
            harness.rewrite(block);
            harness.blocks.push(block);
        }
        harness
    }

    /// The victim pool.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// The underlying RMCC engine (fallback-counter inspection).
    pub fn rmcc(&self) -> &Rmcc {
        &self.rmcc
    }

    fn pattern(&self, block: u64, round: u64) -> [u8; 64] {
        let mut rng = FaultRng::new(block.wrapping_mul(0x1234_5678) ^ round);
        core::array::from_fn(|i| (rng.next_u64() >> (8 * (i % 8))) as u8)
    }

    /// Writes a fresh deterministic pattern to `block` and records it in
    /// the shadow copy.
    fn rewrite(&mut self, block: u64) {
        self.write_round += 1;
        let data = self.pattern(block, self.write_round);
        self.mem
            .write(block, data)
            .expect("victim blocks are within capacity");
        self.shadow.insert(block, data);
    }

    fn victim(&mut self) -> u64 {
        self.blocks[self.rng.below(self.blocks.len() as u64) as usize]
    }

    /// Reads `block` and classifies the result against the shadow copy:
    /// a typed error is a detection, matching plaintext is safe, anything
    /// else is silent corruption.
    fn classify_read(&mut self, block: u64, expect_detection: bool) -> FaultOutcome {
        match self.mem.read(block) {
            Err(e) => FaultOutcome::Detected(e),
            Ok(data) => {
                if !expect_detection && Some(&data) == self.shadow.get(&block) {
                    FaultOutcome::FailSafe
                } else {
                    FaultOutcome::SilentCorruption
                }
            }
        }
    }

    /// Injects one fault of a seeded-random kind.
    pub fn inject_random(&mut self) -> (FaultKind, FaultOutcome) {
        let kind = FaultKind::ALL[self.rng.below(FaultKind::ALL.len() as u64) as usize];
        (kind, self.inject(kind))
    }

    /// Injects one fault of `kind`, classifies the outcome, and heals the
    /// damage so the next fault starts from a clean, verified state.
    ///
    /// # Panics
    ///
    /// Panics if healing fails — the harness must always be able to recover
    /// by rewriting (that *is* the documented recovery path), so a failed
    /// heal is a bug worth dying loudly for.
    pub fn inject(&mut self, kind: FaultKind) -> FaultOutcome {
        let victim = self.victim();
        let outcome = match kind {
            FaultKind::CipherBitFlip => {
                let byte = self.rng.below(64) as usize;
                let mask = 1u8 << self.rng.below(8);
                self.mem
                    .tamper_data(victim, byte, mask)
                    .expect("victim is written");
                self.classify_read(victim, true)
            }
            FaultKind::MacForge => {
                let byte = self.rng.below(64) as usize;
                let mask = 1u8 << self.rng.below(8);
                let mac_mask = self.rng.next_u64() | 1;
                self.mem
                    .tamper_data(victim, byte, mask)
                    .expect("victim is written");
                self.mem
                    .tamper_mac(victim, mac_mask)
                    .expect("victim is written");
                self.classify_read(victim, true)
            }
            FaultKind::CounterRollback => {
                let l0 = self.mem.layout().l0_index(victim);
                let stale = self
                    .mem
                    .snapshot_node(0, l0)
                    .expect("warm node image exists");
                self.rewrite(victim); // counter moves on
                self.mem.replay_node(&stale);
                self.classify_read(victim, true)
            }
            FaultKind::BlockReplay => {
                let stale = self.mem.snapshot(victim).expect("victim is on the bus");
                self.rewrite(victim);
                self.mem.replay(&stale).expect("same layout");
                self.classify_read(victim, true)
            }
            FaultKind::DroppedWriteback => {
                if self.rng.below(2) == 0 {
                    // The update writeback never lands: stale data survives
                    // under an advanced counter.
                    let stale = self.mem.data_snapshot(victim).expect("victim is written");
                    self.rewrite(victim);
                    self.mem.restore_data(&stale);
                    self.classify_read(victim, true)
                } else {
                    // The initial writeback never lands at all.
                    self.rewrite(victim);
                    self.mem.drop_stored(victim).expect("victim is written");
                    self.classify_read(victim, true)
                }
            }
            FaultKind::MemoCorruption => {
                let start = MEMO_GROUP_STARTS[self.rng.below(2) as usize];
                let value = start + self.rng.below(8);
                if !self.rmcc.corrupt_entry(0, value) {
                    // The value must be memoized by construction; a dud
                    // injection is a harness bug, surfaced as the worst case.
                    return FaultOutcome::SilentCorruption;
                }
                let fallbacks_before = self.rmcc.table_stats(0).fallbacks;
                let lookup = self.rmcc.lookup(0, value);
                let counted = self.rmcc.table_stats(0).fallbacks == fallbacks_before + 1;
                if lookup != LookupResult::Miss || !counted {
                    // The corrupted result was served as a hit (or the
                    // fallback went uncounted): memoization is no longer
                    // fail-safe.
                    return FaultOutcome::SilentCorruption;
                }
                // The full-AES fallback leaves stored plaintext untouched.
                self.classify_read(victim, false)
            }
            FaultKind::CounterSaturation => {
                let l0 = self.mem.layout().l0_index(victim);
                let forged = if self.rng.below(2) == 0 {
                    self.mem.observed_max() + 1
                } else {
                    COUNTER_MAX
                };
                self.mem
                    .forge_node_counters(0, l0, forged)
                    .expect("node is in the layout");
                self.classify_read(victim, true)
            }
        };
        // Heal: rewriting republishes data + node images from trusted
        // state; the recovery path itself is part of what we verify.
        self.rewrite(victim);
        let healed = self.mem.read(victim).expect("rewrite must heal the victim");
        assert_eq!(
            &healed, &self.shadow[&victim],
            "healed block must match its last write"
        );
        outcome
    }

    /// Verifies every block in the victim pool reads back byte-identical to
    /// its last write. Returns `false` on any mismatch or error.
    pub fn verify_all(&mut self) -> bool {
        let blocks = self.blocks.clone();
        blocks
            .iter()
            .all(|&b| self.mem.read(b).ok().as_ref() == self.shadow.get(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(kind: PipelineKind) -> FaultHarness {
        FaultHarness::new(CounterOrg::Morphable128, kind, 7, 16, 1 << 22)
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(1);
        let mut b = FaultRng::new(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn every_kind_yields_a_safe_outcome() {
        let mut h = harness(PipelineKind::Rmcc);
        for kind in FaultKind::ALL {
            let outcome = h.inject(kind);
            assert!(outcome.is_safe(), "{kind:?} -> {outcome:?}");
            if kind.integrity_affecting() {
                assert!(
                    matches!(outcome, FaultOutcome::Detected(_)),
                    "{kind:?} must be detected, got {outcome:?}"
                );
            } else {
                assert_eq!(outcome, FaultOutcome::FailSafe, "{kind:?}");
            }
        }
        assert!(h.verify_all(), "healed memory must verify");
    }

    #[test]
    fn same_seed_same_outcomes() {
        let run = |seed| {
            let mut h = FaultHarness::new(CounterOrg::Sc64, PipelineKind::Sgx, seed, 8, 1 << 22);
            (0..40).map(|_| h.inject_random()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn memo_corruption_increments_fallbacks() {
        let mut h = harness(PipelineKind::Rmcc);
        let before = h.rmcc().table_stats(0).fallbacks;
        assert_eq!(h.inject(FaultKind::MemoCorruption), FaultOutcome::FailSafe);
        assert_eq!(h.rmcc().table_stats(0).fallbacks, before + 1);
    }
}
