//! RMCC — *Self-Reinforcing Memoization for Cryptography Calculations* —
//! the core contribution of the MICRO 2022 paper, reproduced as a library.
//!
//! Secure memories hide AES latency by caching write counters in the memory
//! controller, but irregular workloads miss that cache constantly. RMCC's
//! insight: unboundedly many counters can share one *value*, so memoize the
//! counter-only AES contribution per **value** — and steer counters toward
//! memoized values on every write so the table's coverage reinforces
//! itself.
//!
//! * [`table`] — the memoization table: 16 groups × 8 consecutive values,
//!   LFU replacement with shadow-tracked evicted groups, and 16 MRU single
//!   values (Figure 9).
//! * [`candidates`] — the high-counter-value monitor that inserts new
//!   groups above Max-Counter-in-Table (§IV-C3).
//! * [`budget`] — the 1%-per-epoch traffic-overhead budget with carry-over
//!   (§IV-C1).
//! * [`rmcc`] — the engine tying it together: read-path lookups and the
//!   memoization-aware counter update (§IV-B).
//! * [`area`] — the §IV-E hardware area model.
//! * [`security`] — the §IV-D birthday-bound and equation-counting
//!   analysis.
//!
//! # Example
//!
//! ```
//! use rmcc_core::rmcc::{Rmcc, RmccConfig};
//! use rmcc_secmem::counters::{CounterBlock, CounterOrg};
//!
//! let mut rmcc = Rmcc::new(RmccConfig::paper());
//! rmcc.seed_group(0, 20_000_000); // Figure 6's example value
//!
//! // A writeback conforms the block's counter to the memoized value…
//! let mut cb = CounterBlock::new(CounterOrg::Morphable128);
//! let out = rmcc.update_counter(0, &mut cb, 0, false).unwrap();
//! assert_eq!(out.new_value, 20_000_000);
//!
//! // …so the next read of that block hits the memoization table.
//! assert!(rmcc.lookup(0, 20_000_000).is_hit());
//! ```

#![forbid(unsafe_code)]
// Test code may use lossy casts freely; clippy.toml has no in-tests knob for them.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![deny(missing_docs)]

pub mod area;
pub mod budget;
pub mod candidates;
pub mod rmcc;
pub mod security;
pub mod shard;
pub mod table;

pub use area::AreaModel;
pub use budget::{TrafficBudget, EPOCH_ACCESSES};
pub use candidates::{HighValueMonitor, COVERAGE_REQUIREMENT, HIGH_READ_TRIGGER};
pub use rmcc::{Rmcc, RmccConfig, UpdateOutcome, DEFAULT_LEVELS};
pub use shard::{
    aggregate_stats, memo_policy, memo_service, MemoHandle, MemoPolicy, ShardMemoConfig,
    ShardMemoStats,
};
pub use table::{Group, LookupResult, MemoizationTable, TableConfig, TableStats};
