//! The serving-scale workload corpus: synthetic traffic generators for the
//! "millions of users" scenario class, whose streams drive the sharded
//! service live or through the compact trace codec ([`crate::codec`]).
//!
//! Where [`crate::kernels`] replays SPEC/GraphBig-style *program* behavior,
//! this module generates *service* behavior: multi-tenant key-value traffic
//! with zipfian popularity, phase changes, and adversarial locality. Every
//! generator is a pure integer function of its config — no floats, no
//! platform-dependent math — so streams are bit-identical on every host,
//! and every generator implements [`TraceSource`] so it plugs into the same
//! pipeline as live kernels and recorded traces.
//!
//! The module also owns the shared integer zipfian sampler ([`zipf_rank`])
//! used by the simulator's service runner and the bench harness. Earlier
//! revisions clamped the top octave's out-of-range mass onto rank `n - 1`
//! (`.min(n - 1)`), which put a spurious probability spike on the last key
//! whenever `n` was not a power of two; the sampler here folds that mass
//! back into the head instead.

use crate::trace::{TraceEvent, TraceSink, TraceSource};

/// SplitMix64: the repo-wide deterministic PRNG step. One multiply-xorshift
/// chain per draw; passes through every u64 state exactly once.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ~1/x-distributed rank in `[0, n)`: picks a binary octave uniformly,
/// then a uniform element inside it, so each octave carries equal mass —
/// the integer-only analogue of a Zipf(s = 1) inverse CDF. All-integer on
/// purpose: no `exp`/`ln`, so the stream is bit-identical on every
/// platform.
///
/// When `n` is not a power of two the top octave extends past `n - 1`; the
/// out-of-range mass is folded back onto the head (`r - n`, always in
/// range because the largest candidate is `2n - 2`) rather than clamped
/// onto rank `n - 1`, so no key receives a spurious probability spike.
#[must_use]
pub fn zipf_rank(r1: u64, r2: u64, n: u64) -> u64 {
    let n = n.max(1);
    let octaves = u64::from(64 - n.leading_zeros());
    let base = 1u64 << (r1 % octaves);
    let r = base - 1 + (r2 % base);
    if r < n {
        r
    } else {
        r - n
    }
}

/// A sharper-than-1/x rank in `[0, n)` for key popularity: the octave is
/// the *minimum* of two uniform octave draws (a quadratic tilt toward the
/// head), then a uniform element inside it, with the same out-of-range
/// fold as [`zipf_rank`]. Real serving key popularity concentrates far
/// more mass on the top keys than the equal-octave-mass sampler does;
/// this keeps the head heavy enough that a handful of keys dominate, the
/// way production key-value traffic does. Integer-only and bit-stable.
#[must_use]
pub fn zipf_rank_sharp(r1: u64, r2: u64, n: u64) -> u64 {
    let n = n.max(1);
    let octaves = u64::from(64 - n.leading_zeros());
    // Two near-independent octave draws from one u64: octaves <= 64, so
    // octaves^2 <= 4096 divides 2^64 closely enough that the residual bias
    // is far below anything the distribution tests can see.
    let a = r1 % octaves;
    let b = (r1 / octaves) % octaves;
    let base = 1u64 << a.min(b);
    let r = base - 1 + (r2 % base);
    if r < n {
        r
    } else {
        r - n
    }
}

/// Key-value serving traffic: zipfian keys over `tenants × regions_per_tenant`
/// keyed regions, with read/write-mix and tenant-churn knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvServingConfig {
    /// Distinct tenants; a key's tenant is `key / regions_per_tenant`.
    pub tenants: u64,
    /// Keyed regions per tenant.
    pub regions_per_tenant: u64,
    /// Blocks of address span reserved per region (one counter-coverage
    /// group downstream).
    pub blocks_per_region: u64,
    /// Distinct blocks actually hammered inside a region (zipfian). Real
    /// tenants hit a few hot lines per region; keeping this small keeps the
    /// steady-state working set realistic instead of smearing accesses
    /// across the whole coverage span.
    pub hot_blocks_per_region: u64,
    /// Events one full stream emits.
    pub events: u64,
    /// Probability, in per-mille, that an event is a write.
    pub write_permille: u32,
    /// Events per churn epoch: every epoch the hot-key identity rotates
    /// across tenant boundaries, modeling tenant churn. `0` disables churn.
    pub churn_period: u64,
    /// Stream seed.
    pub seed: u64,
}

/// A stream whose hot set jumps to a disjoint region window every phase —
/// the "program entered a new phase" case memoization must re-learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseChangeConfig {
    /// Total keyed regions.
    pub regions: u64,
    /// Blocks of address span reserved per region.
    pub blocks_per_region: u64,
    /// Regions in the hot window of one phase.
    pub hot_regions: u64,
    /// Events per phase; each phase shifts the hot window by `hot_regions`.
    pub phase_len: u64,
    /// Events one full stream emits.
    pub events: u64,
    /// Probability, in per-mille, that an event is a write.
    pub write_permille: u32,
    /// Stream seed.
    pub seed: u64,
}

/// The worst case for self-reinforcement: a cyclic sweep over a region set
/// sized just past the memo table, so every region is touched exactly often
/// enough to evict the entries that would have served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialLocalityConfig {
    /// Regions in the sweep cycle (size this above the per-shard memo
    /// table so entries age out between revisits).
    pub regions: u64,
    /// Blocks of address span reserved per region.
    pub blocks_per_region: u64,
    /// Consecutive accesses per region before the sweep moves on.
    pub burst: u64,
    /// Events one full stream emits.
    pub events: u64,
    /// Probability, in per-mille, that an event is a write.
    pub write_permille: u32,
    /// Stream seed.
    pub seed: u64,
}

/// One serving-corpus scenario: a pure-integer traffic generator that is
/// both an iterator factory ([`Scenario::events`]) and a [`TraceSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Multi-tenant key-value serving (zipfian keys, churn knob).
    KvServing(KvServingConfig),
    /// Hot set jumps to a new window every phase.
    PhaseChange(PhaseChangeConfig),
    /// Memo-defeating cyclic sweep.
    AdversarialLocality(AdversarialLocalityConfig),
}

/// Bytes per block in every scenario's address arithmetic (one cache line /
/// protected data block).
pub const BLOCK_BYTES: u64 = 64;

impl Scenario {
    /// Stable scenario name, used in fixture paths and report rows.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::KvServing(_) => "kv_serving",
            Scenario::PhaseChange(_) => "phase_change",
            Scenario::AdversarialLocality(_) => "adversarial_locality",
        }
    }

    /// Events one full stream emits.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        match self {
            Scenario::KvServing(c) => c.events,
            Scenario::PhaseChange(c) => c.events,
            Scenario::AdversarialLocality(c) => c.events,
        }
    }

    /// The stream seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            Scenario::KvServing(c) => c.seed,
            Scenario::PhaseChange(c) => c.seed,
            Scenario::AdversarialLocality(c) => c.seed,
        }
    }

    /// A fresh pass over the stream. Every call restarts from the seed, so
    /// repeated passes are identical.
    #[must_use]
    pub fn events(&self) -> ScenarioEvents {
        ScenarioEvents {
            scenario: *self,
            rng: self.seed() | 1,
            emitted: 0,
        }
    }

    /// Generates event `i` of the stream, advancing `rng` by however many
    /// draws the scenario takes per event (a fixed count per variant, so
    /// event `i` is a pure function of `(config, i)` given the rng chain).
    fn event_at(&self, i: u64, rng: &mut u64) -> TraceEvent {
        let mut next = || {
            *rng = splitmix64(*rng);
            *rng
        };
        let (block, write_permille) = match self {
            Scenario::KvServing(c) => {
                let keys = (c.tenants.max(1)) * (c.regions_per_tenant.max(1));
                let rank = zipf_rank_sharp(next(), next(), keys);
                // Churn rotates which physical key is "rank k hot", with a
                // stride that crosses tenant boundaries so hot traffic
                // migrates between tenants epoch to epoch.
                // `checked_div` doubles as the churn on/off switch:
                // `churn_period == 0` means no rotation.
                let key = match i.checked_div(c.churn_period) {
                    Some(epoch) => {
                        let stride = c.regions_per_tenant.max(1) + 1;
                        (rank + epoch.wrapping_mul(stride)) % keys
                    }
                    None => rank,
                };
                let hot = c
                    .hot_blocks_per_region
                    .max(1)
                    .min(c.blocks_per_region.max(1));
                let offset = zipf_rank(next(), next(), hot);
                (key * c.blocks_per_region.max(1) + offset, c.write_permille)
            }
            Scenario::PhaseChange(c) => {
                let regions = c.regions.max(1);
                let hot = c.hot_regions.max(1).min(regions);
                let phase = i / c.phase_len.max(1);
                let window_base = phase.wrapping_mul(hot) % regions;
                // 7/8 of traffic lands in the current hot window (zipfian
                // inside it), 1/8 is uniform background.
                let region = if next() % 8 != 0 {
                    (window_base + zipf_rank(next(), next(), hot)) % regions
                } else {
                    next() % regions
                };
                let offset = zipf_rank(next(), next(), c.blocks_per_region.max(1));
                (
                    region * c.blocks_per_region.max(1) + offset,
                    c.write_permille,
                )
            }
            Scenario::AdversarialLocality(c) => {
                let regions = c.regions.max(1);
                let burst = c.burst.max(1);
                // Round-robin sweep: each region gets `burst` consecutive
                // accesses, then is not seen again for a full cycle —
                // exactly long enough for its memo entries to be evicted.
                let region = (i / burst) % regions;
                let offset = (i % burst) % c.blocks_per_region.max(1);
                (
                    region * c.blocks_per_region.max(1) + offset,
                    c.write_permille,
                )
            }
        };
        let is_write = next() % 1_000 < u64::from(write_permille);
        TraceEvent {
            addr: block * BLOCK_BYTES,
            is_write,
            work: 0,
            dep_on_prev_load: false,
        }
    }
}

/// Iterator over one pass of a [`Scenario`] stream.
#[derive(Debug, Clone)]
pub struct ScenarioEvents {
    scenario: Scenario,
    rng: u64,
    emitted: u64,
}

impl Iterator for ScenarioEvents {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.emitted >= self.scenario.event_count() {
            return None;
        }
        let i = self.emitted;
        self.emitted += 1;
        Some(self.scenario.event_at(i, &mut self.rng))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.scenario.event_count().saturating_sub(self.emitted);
        let left = usize::try_from(left).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl TraceSource for Scenario {
    fn stream(&mut self, sink: &mut dyn TraceSink) {
        for ev in self.events() {
            sink.emit(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingSink;

    fn draws(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = splitmix64(s);
            s
        }
    }

    #[test]
    fn zipf_rank_stays_in_range() {
        let mut next = draws(7);
        for n in [1u64, 2, 3, 5, 1_000, (1 << 20) - 3, 1 << 20] {
            for _ in 0..2_000 {
                assert!(zipf_rank(next(), next(), n) < n);
                assert!(zipf_rank_sharp(next(), next(), n) < n);
            }
        }
    }

    #[test]
    fn zipf_rank_head_is_heavy() {
        let mut next = draws(1);
        let n = 1_000u64;
        let mut low = 0u64;
        for _ in 0..10_000 {
            if zipf_rank(next(), next(), n) < 8 {
                low += 1;
            }
        }
        // Eight of a thousand keys carry far more than their uniform share
        // (0.8%) of the traffic.
        assert!(low > 2_000, "zipf head too light: {low}");
    }

    #[test]
    fn zipf_rank_has_no_spike_at_n_minus_1() {
        // n = 1000 is not a power of two: the top octave (512 elements,
        // ranks 511..1022) overflows [0, n) by 23 ranks. The old clamp
        // piled all 24 overflowing outcomes onto rank 999 (~24x its fair
        // share); the fold spreads them over the head instead.
        let n = 1_000u64;
        let samples = 200_000u64;
        let mut hist = vec![0u64; n as usize];
        let mut next = draws(0xC0FFEE);
        for _ in 0..samples {
            hist[zipf_rank(next(), next(), n) as usize] += 1;
        }
        // A tail rank's natural mass: octave 9 spreads 1/10 of all samples
        // over 512 elements, ~39 hits here. Allow generous noise but stay
        // far below the ~900 hits the clamp used to put on rank 999.
        let natural = samples / 10 / 512;
        assert!(
            hist[(n - 1) as usize] < natural * 4,
            "spurious spike at n-1: {} hits vs ~{natural} natural",
            hist[(n - 1) as usize]
        );
        // Neighboring tail ranks look the same as the last one.
        let tail_mean = (hist[990..999].iter().sum::<u64>()) / 9;
        assert!(
            hist[999] <= tail_mean * 3 + 16,
            "rank 999 ({}) out of family with tail mean {tail_mean}",
            hist[999]
        );
        // Head is still heavy: the first 8 ranks carry >20% of the mass.
        let head: u64 = hist[..8].iter().sum();
        assert!(head * 5 > samples, "head too light after fold: {head}");
    }

    #[test]
    fn sharp_sampler_concentrates_more_than_flat() {
        let n = 1_000_000u64;
        let mut next = draws(0xABCD);
        let mut flat_head = 0u64;
        let mut sharp_head = 0u64;
        for _ in 0..20_000 {
            if zipf_rank(next(), next(), n) < 32 {
                flat_head += 1;
            }
            if zipf_rank_sharp(next(), next(), n) < 32 {
                sharp_head += 1;
            }
        }
        assert!(
            sharp_head > flat_head * 3 / 2,
            "sharp head {sharp_head} not heavier than flat head {flat_head}"
        );
    }

    fn kv_small() -> KvServingConfig {
        KvServingConfig {
            tenants: 64,
            regions_per_tenant: 16,
            blocks_per_region: 128,
            hot_blocks_per_region: 8,
            events: 4_096,
            write_permille: 600,
            churn_period: 0,
            seed: 0x5EED,
        }
    }

    #[test]
    fn scenario_streams_are_deterministic() {
        for scenario in [
            Scenario::KvServing(kv_small()),
            Scenario::PhaseChange(PhaseChangeConfig {
                regions: 512,
                blocks_per_region: 128,
                hot_regions: 16,
                phase_len: 512,
                events: 4_096,
                write_permille: 300,
                seed: 0x5EED,
            }),
            Scenario::AdversarialLocality(AdversarialLocalityConfig {
                regions: 384,
                blocks_per_region: 128,
                burst: 2,
                events: 4_096,
                write_permille: 300,
                seed: 0x5EED,
            }),
        ] {
            let a: Vec<TraceEvent> = scenario.events().collect();
            let b: Vec<TraceEvent> = scenario.events().collect();
            assert_eq!(a, b, "{} not deterministic", scenario.name());
            assert_eq!(a.len() as u64, scenario.event_count());
            let mut counts = CountingSink::default();
            let mut src = scenario;
            src.stream(&mut counts);
            assert_eq!(counts.reads + counts.writes, scenario.event_count());
            assert!(counts.writes > 0, "{} emitted no writes", scenario.name());
            assert!(counts.reads > 0, "{} emitted no reads", scenario.name());
        }
    }

    #[test]
    fn kv_addresses_stay_in_keyspace() {
        let cfg = kv_small();
        let span = cfg.tenants * cfg.regions_per_tenant * cfg.blocks_per_region * BLOCK_BYTES;
        for ev in Scenario::KvServing(cfg).events() {
            assert!(ev.addr < span);
            assert_eq!(ev.addr % BLOCK_BYTES, 0);
            assert_eq!(ev.work, 0);
            assert!(!ev.dep_on_prev_load);
        }
    }

    #[test]
    fn kv_churn_rotates_the_hot_set() {
        let still = Scenario::KvServing(kv_small());
        let mut churned_cfg = kv_small();
        churned_cfg.churn_period = 1_024;
        let churned = Scenario::KvServing(churned_cfg);
        let a: Vec<u64> = still.events().map(|e| e.addr).collect();
        let b: Vec<u64> = churned.events().map(|e| e.addr).collect();
        // First churn epoch is identity; later epochs shift the hot keys.
        assert_eq!(a[..1_024], b[..1_024]);
        assert_ne!(a[1_024..], b[1_024..]);
    }

    #[test]
    fn phase_change_moves_the_hot_window() {
        let cfg = PhaseChangeConfig {
            regions: 512,
            blocks_per_region: 128,
            hot_regions: 16,
            phase_len: 1_024,
            events: 2_048,
            write_permille: 0,
            seed: 9,
        };
        let events: Vec<TraceEvent> = Scenario::PhaseChange(cfg).events().collect();
        let region_of = |e: &TraceEvent| e.addr / BLOCK_BYTES / cfg.blocks_per_region;
        let in_window = |r: u64, base: u64| r >= base && r < base + cfg.hot_regions;
        let phase0_hot = events[..1_024]
            .iter()
            .filter(|e| in_window(region_of(e), 0))
            .count();
        let phase1_hot = events[1_024..]
            .iter()
            .filter(|e| in_window(region_of(e), cfg.hot_regions))
            .count();
        assert!(phase0_hot > 700, "phase 0 window cold: {phase0_hot}");
        assert!(phase1_hot > 700, "phase 1 window cold: {phase1_hot}");
        let phase1_stale = events[1_024..]
            .iter()
            .filter(|e| in_window(region_of(e), 0))
            .count();
        assert!(
            phase1_stale < 100,
            "phase 1 still hitting phase 0's window: {phase1_stale}"
        );
    }

    #[test]
    fn adversarial_sweep_cycles_every_region() {
        let cfg = AdversarialLocalityConfig {
            regions: 96,
            blocks_per_region: 128,
            burst: 2,
            events: 96 * 2,
            write_permille: 500,
            seed: 3,
        };
        let mut seen = vec![0u32; cfg.regions as usize];
        for ev in Scenario::AdversarialLocality(cfg).events() {
            seen[(ev.addr / BLOCK_BYTES / cfg.blocks_per_region) as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == cfg.burst as u32),
            "sweep not uniform: {seen:?}"
        );
    }
}
