//! Service-backed sustained-load dynamics: a serving-corpus traffic stream
//! driven through the sharded [`SecureMemoryService`] in batches, with
//! shard-labeled telemetry folded into one deterministic registry.
//!
//! This is [`crate::dynamics`]'s sibling for the concurrent stack: where
//! `run_dynamics` drives a single-owner [`crate::meta_engine::MetaEngine`],
//! `run_service` builds an N-shard service whose shards each own a memo
//! table and budget ledger (`rmcc_core::shard`), routes a
//! [`rmcc_workloads::corpus`] scenario stream through the batched `submit`
//! API, and snapshots both global and per-shard counters into one
//! `MetricsRegistry` — shard order = registration order = export column
//! order, so the JSONL schema is stable.
//!
//! The traffic itself comes from the workload corpus: the run's
//! [`ServingScenario`] selects key-value serving (the default), a
//! phase-change stream, or the adversarial-locality sweep, and
//! [`ServiceRunConfig::corpus_scenario`] maps the run config onto the
//! corpus generator. Because the generator is a plain
//! [`TraceSource`], the same run can be driven from a *recorded* trace
//! instead via [`run_service_from`] — replaying a file recorded with
//! [`rmcc_workloads::codec::TraceWriter`] produces byte-identical
//! telemetry and checksums to the live stream.
//!
//! Everything is a pure function of [`ServiceRunConfig`]. In particular the
//! worker-pool width is **not** part of the function: the service's
//! determinism contract makes the results — and therefore the telemetry and
//! checksum — byte-identical at any `jobs`, which the tests pin down.

use rmcc_core::shard::{
    aggregate_stats, memo_service, MemoHandle, ShardMemoConfig, ShardMemoStats,
};
use rmcc_crypto::splitmix64;
use rmcc_secmem::service::{
    digest_results, Access, AccessResult, HealthConfig, SecureMemoryService, ServiceConfig,
    ServiceSnapshot,
};
use rmcc_telemetry::{CounterId, MetricsRegistry, Telemetry};
use rmcc_workloads::corpus::{
    AdversarialLocalityConfig, KvServingConfig, PhaseChangeConfig, Scenario, BLOCK_BYTES,
};
use rmcc_workloads::trace::{TraceEvent, TraceSink, TraceSource};

/// Which corpus generator drives a service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingScenario {
    /// Multi-tenant key-value serving: zipfian tenant/key popularity with
    /// optional tenant churn. The sustained-load default.
    KvServing,
    /// A hot working set that relocates to a disjoint window every phase —
    /// the re-learning case for memoization.
    PhaseChange,
    /// A locality-hostile round-robin sweep sized to defeat the memo table.
    AdversarialLocality,
}

/// Parameters of a service run. Two equal configs yield byte-identical
/// output at any worker width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRunConfig {
    /// Which corpus scenario generates the traffic.
    pub scenario: ServingScenario,
    /// Shard count for the service.
    pub shards: usize,
    /// Worker-pool width for `submit` (affects wall clock only, never
    /// results).
    pub jobs: usize,
    /// Seed for the scenario's deterministic access-stream generator.
    pub seed: u64,
    /// Distinct tenants; tenant/key popularity is zipfian (octave-sampled),
    /// so a handful of tenants carry most of the traffic.
    pub tenants: u64,
    /// Keyed regions per tenant; each region is one counter-coverage group.
    pub regions_per_tenant: u64,
    /// Batches to submit.
    pub batches: u64,
    /// Accesses per batch.
    pub batch_size: usize,
    /// Probability, in per-mille, that an access is a write.
    pub write_permille: u32,
    /// Events per tenant-churn epoch for the key-value scenario (`0`
    /// disables churn; ignored by the other scenarios).
    pub churn_period: u64,
    /// Protected-region capacity in bytes (must cover every tenant region).
    pub data_bytes: u64,
    /// Telemetry epoch length, in batches.
    pub epoch_batches: u64,
    /// Per-shard memo/budget epoch length, in that shard's accesses.
    pub memo_epoch_accesses: u64,
    /// Per-shard overhead-traffic budget fraction.
    pub budget_fraction: f64,
    /// Ladder seed: each shard's table starts with one group at this value
    /// (0 = cold start, no seeding).
    pub ladder_seed: u64,
    /// Per-shard health lifecycle thresholds. `None` (the default) leaves
    /// the lifecycle off and the telemetry schema exactly as before; `Some`
    /// adds `shard{i}_health` gauges plus global lifecycle counters.
    pub health: Option<HealthConfig>,
}

impl ServiceRunConfig {
    /// A small key-value serving run — a few thousand accesses over a
    /// 4-shard service — sized for tests and CI smoke.
    pub fn small() -> Self {
        ServiceRunConfig {
            scenario: ServingScenario::KvServing,
            shards: 4,
            jobs: 1,
            seed: 0x00D1_5EA5_ED00_0006,
            tenants: 64,
            regions_per_tenant: 16,
            batches: 24,
            batch_size: 512,
            write_permille: 600,
            churn_period: 4_096,
            data_bytes: 1 << 28,
            epoch_batches: 6,
            memo_epoch_accesses: 512,
            budget_fraction: 0.25,
            ladder_seed: 4,
            health: None,
        }
    }

    /// The small run driven by the phase-change stream.
    pub fn phase_small() -> Self {
        ServiceRunConfig {
            scenario: ServingScenario::PhaseChange,
            ..Self::small()
        }
    }

    /// The small run driven by the adversarial-locality sweep.
    pub fn adversarial_small() -> Self {
        ServiceRunConfig {
            scenario: ServingScenario::AdversarialLocality,
            ..Self::small()
        }
    }

    /// Total events one run submits.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.batches.saturating_mul(self.batch_size as u64)
    }

    /// The corpus generator this config selects, sized so each keyed region
    /// is exactly one counter-coverage group of the service the run builds.
    ///
    /// This is the run's live traffic: recording this scenario with
    /// [`rmcc_workloads::codec::TraceWriter`] and replaying the file through
    /// [`run_service_from`] reproduces [`run_service`] byte for byte.
    #[must_use]
    pub fn corpus_scenario(&self) -> Scenario {
        // The service always uses the paper's Morphable counter org, so the
        // coverage (blocks per L0 region) is a pure function of the config.
        let blocks_per_region = self.service_config().org.coverage() as u64;
        let regions = self.tenants.max(1) * self.regions_per_tenant.max(1);
        let events = self.events();
        match self.scenario {
            ServingScenario::KvServing => Scenario::KvServing(KvServingConfig {
                tenants: self.tenants,
                regions_per_tenant: self.regions_per_tenant,
                blocks_per_region,
                hot_blocks_per_region: 8,
                events,
                write_permille: self.write_permille,
                churn_period: self.churn_period,
                seed: self.seed,
            }),
            ServingScenario::PhaseChange => Scenario::PhaseChange(PhaseChangeConfig {
                regions,
                blocks_per_region,
                hot_regions: (regions / 32).max(1),
                phase_len: (events / 6).max(1),
                events,
                write_permille: self.write_permille,
                seed: self.seed,
            }),
            ServingScenario::AdversarialLocality => {
                Scenario::AdversarialLocality(AdversarialLocalityConfig {
                    // Size the cycle past the per-shard memo tables so
                    // entries age out between revisits, but keep it inside
                    // the configured keyspace.
                    regions: regions.min(self.shards.max(1) as u64 * 192),
                    blocks_per_region,
                    burst: 2,
                    events,
                    write_permille: self.write_permille,
                    seed: self.seed,
                })
            }
        }
    }

    /// The service geometry this config builds.
    fn service_config(&self) -> ServiceConfig {
        let svc_cfg = ServiceConfig::new(self.shards, self.data_bytes).with_jobs(self.jobs.max(1));
        match self.health {
            Some(h) => svc_cfg.with_health(h),
            None => svc_cfg,
        }
    }

    /// A fresh memoizing service for this config, plus its per-shard memo
    /// handles in shard order — the service [`run_service_from`] drives.
    #[must_use]
    pub fn build_service(&self) -> (SecureMemoryService, Vec<MemoHandle>) {
        let memo_cfg = ShardMemoConfig::paper()
            .with_epoch(self.memo_epoch_accesses)
            .with_budget(self.budget_fraction);
        memo_service(&self.service_config(), &memo_cfg, self.ladder_seed)
    }

    /// `events` mapped through [`access_for_event`] and cut into
    /// `batch_size` batches: exactly the batches [`run_service_from`]
    /// submits for that stream, generated up front so a timed loop measures
    /// the service alone.
    #[must_use]
    pub fn batches(&self, events: &[TraceEvent]) -> Vec<Vec<Access>> {
        let size = self.batch_size.max(1);
        events
            .chunks(size)
            .zip((0u64..).step_by(size))
            .map(|(chunk, base)| {
                chunk
                    .iter()
                    .zip(base..)
                    .map(|(ev, seq)| access_for_event(ev, seq))
                    .collect()
            })
            .collect()
    }
}

/// What a service run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRunResult {
    /// Epoch-resolved telemetry (global + `shard{i}_*` columns), as JSONL.
    pub jsonl: String,
    /// Order-sensitive checksum over every batch's results.
    pub checksum: u64,
    /// Total accesses submitted.
    pub accesses: u64,
    /// Accesses routed to each shard, in shard order.
    pub shard_accesses: Vec<u64>,
    /// Service-wide memoization tallies, folded in shard order.
    pub aggregate: ShardMemoStats,
}

/// Maps one trace event onto a service access. The write fill byte is a
/// pure function of `(addr, seq)`, so a replayed trace produces exactly the
/// payloads the live stream produced without the fill having to be encoded.
#[must_use]
pub fn access_for_event(ev: &TraceEvent, seq: u64) -> Access {
    let block = ev.addr / BLOCK_BYTES;
    if ev.is_write {
        let fill = (splitmix64(ev.addr ^ seq) & 0xFF) as u8;
        Access::Write {
            block,
            data: [fill; 64],
        }
    } else {
        Access::Read { block }
    }
}

/// Per-shard telemetry handles, registered in shard order.
struct ShardIds {
    accesses: Vec<CounterId>,
    conformed: Vec<CounterId>,
    budget_spent: Vec<CounterId>,
    table_hits: Vec<CounterId>,
    fallbacks: Vec<CounterId>,
}

/// Lifecycle telemetry handles, registered only for health-enabled runs.
struct HealthIds {
    degraded_accesses: CounterId,
    rejected_writes: CounterId,
    quarantines: CounterId,
    rebuilds: CounterId,
    per_shard: Vec<CounterId>,
}

/// Global telemetry handles shared by every run.
struct GlobalIds {
    reads: CounterId,
    writes: CounterId,
    read_errors: CounterId,
    write_errors: CounterId,
    shard_faults: CounterId,
    conformed: CounterId,
    baseline: CounterId,
    budget: CounterId,
}

/// The push-based run driver: a [`TraceSink`] that folds events into
/// batches, submits each full batch, and mirrors the results into the
/// telemetry registry — so live generators and recorded traces drive the
/// identical accounting path.
struct ServiceDriver<'a> {
    service: &'a SecureMemoryService,
    snap: &'a ServiceSnapshot,
    handles: &'a [MemoHandle],
    tele: &'a mut Telemetry,
    ids: &'a ShardIds,
    health_ids: Option<&'a HealthIds>,
    global: GlobalIds,
    batch_size: usize,
    epoch_batches: u64,
    batch: Vec<Access>,
    seq: u64,
    batches_done: u64,
    epoch: u64,
    checksum: u64,
    accesses: u64,
    shard_accesses: Vec<u64>,
}

impl ServiceDriver<'_> {
    /// Submits the pending batch (if any) and folds its results into the
    /// checksum and telemetry. Epoch boundaries are counted in batches, so
    /// a trailing partial batch still resolves into the run's last epoch.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let results = self.service.submit(&self.batch);
        self.checksum = self.checksum.rotate_left(9) ^ digest_results(&results);
        self.accesses += results.len() as u64;
        self.batches_done += 1;
        if let Some(active) = self.tele.active_mut() {
            let reg = &mut active.registry;
            for (access, result) in self.batch.iter().zip(results.iter()) {
                let shard = self.snap.shard_of(access.block());
                if let Some(n) = self.shard_accesses.get_mut(shard) {
                    *n += 1;
                }
                if let Some(&id) = self.ids.accesses.get(shard) {
                    reg.incr(id, 1);
                }
                match result {
                    AccessResult::Data(_) => reg.incr(self.global.reads, 1),
                    AccessResult::Written { .. } => reg.incr(self.global.writes, 1),
                    AccessResult::ReadFailed(_) => {
                        reg.incr(self.global.reads, 1);
                        reg.incr(self.global.read_errors, 1);
                    }
                    AccessResult::WriteFailed(_) => {
                        reg.incr(self.global.writes, 1);
                        reg.incr(self.global.write_errors, 1);
                    }
                    AccessResult::ShardFault { .. } => reg.incr(self.global.shard_faults, 1),
                }
            }
            // Mirror per-shard policy tallies absolutely (cumulative
            // counters, like MetaEngine's epoch snapshot).
            for (shard, handle) in self.handles.iter().enumerate() {
                let s = handle.stats();
                if let Some(&id) = self.ids.conformed.get(shard) {
                    reg.set_counter(id, s.conformed_writes);
                }
                if let Some(&id) = self.ids.budget_spent.get(shard) {
                    reg.set_counter(id, s.budget_spent);
                }
                if let Some(&id) = self.ids.table_hits.get(shard) {
                    reg.set_counter(id, s.table.group_hits + s.table.mru_hits);
                }
                if let Some(&id) = self.ids.fallbacks.get(shard) {
                    reg.set_counter(id, s.table.fallbacks);
                }
            }
            let agg = aggregate_stats(self.handles);
            reg.set_counter(self.global.conformed, agg.conformed_writes);
            reg.set_counter(self.global.baseline, agg.baseline_writes);
            reg.set_counter(self.global.budget, agg.budget_spent);
            if let Some(hids) = self.health_ids {
                let mut degraded = 0u64;
                let mut rejected = 0u64;
                let mut quarantines = 0u64;
                let mut rebuilds = 0u64;
                for shard in 0..self.snap.shards() {
                    let Some(hs) = self.service.health_stats(shard) else {
                        continue;
                    };
                    degraded = degraded.saturating_add(hs.degraded_accesses);
                    rejected = rejected.saturating_add(hs.rejected_writes);
                    quarantines = quarantines.saturating_add(hs.quarantines);
                    rebuilds = rebuilds.saturating_add(hs.rebuilds);
                    if let Some(&id) = hids.per_shard.get(shard) {
                        reg.set_counter(id, hs.health.code());
                    }
                }
                reg.set_counter(hids.degraded_accesses, degraded);
                reg.set_counter(hids.rejected_writes, rejected);
                reg.set_counter(hids.quarantines, quarantines);
                reg.set_counter(hids.rebuilds, rebuilds);
            }
            if self.batches_done.is_multiple_of(self.epoch_batches) {
                active.snapshot(self.epoch, self.accesses);
                self.epoch += 1;
            }
        }
        self.batch.clear();
    }
}

impl TraceSink for ServiceDriver<'_> {
    fn emit(&mut self, event: TraceEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.batch.push(access_for_event(&event, seq));
        if self.batch.len() >= self.batch_size {
            self.flush();
        }
    }
}

/// Runs the configured corpus scenario through the service and returns
/// telemetry plus tallies.
pub fn run_service(cfg: &ServiceRunConfig) -> ServiceRunResult {
    let mut scenario = cfg.corpus_scenario();
    run_service_from(cfg, &mut scenario)
}

/// Runs the sustained-load stream from an arbitrary [`TraceSource`] —
/// the live generator or a recorded trace file — and returns telemetry
/// plus tallies. Replaying a trace recorded from
/// [`ServiceRunConfig::corpus_scenario`] reproduces [`run_service`]'s
/// result byte for byte.
pub fn run_service_from(cfg: &ServiceRunConfig, source: &mut dyn TraceSource) -> ServiceRunResult {
    let (service, handles) = cfg.build_service();
    let snap = service.snapshot();
    let shards = snap.shards();

    // The exporter renders `epoch` and `accesses` as built-in leading
    // columns of every snapshot, so the registry holds only the columns
    // beyond those two.
    let mut registry = MetricsRegistry::new();
    let global = GlobalIds {
        reads: registry.counter("reads"),
        writes: registry.counter("writes"),
        read_errors: registry.counter("read_errors"),
        write_errors: registry.counter("write_errors"),
        shard_faults: registry.counter("shard_faults"),
        conformed: registry.counter("conformed_writes"),
        baseline: registry.counter("baseline_writes"),
        budget: registry.counter("budget_spent"),
    };
    let ids = ShardIds {
        accesses: registry.shard_counters("accesses", shards),
        conformed: registry.shard_counters("conformed", shards),
        budget_spent: registry.shard_counters("budget_spent", shards),
        table_hits: registry.shard_counters("table_hits", shards),
        fallbacks: registry.shard_counters("fallbacks", shards),
    };
    // Lifecycle columns exist only when the lifecycle itself does, so a
    // health-disabled run exports the exact pre-lifecycle schema.
    let health_ids = cfg.health.map(|_| HealthIds {
        degraded_accesses: registry.counter("degraded_accesses"),
        rejected_writes: registry.counter("rejected_writes"),
        quarantines: registry.counter("quarantines"),
        rebuilds: registry.counter("rebuilds"),
        per_shard: registry.shard_counters("health", shards),
    });
    let mut tele = Telemetry::on(registry);

    let mut driver = ServiceDriver {
        service: &service,
        snap: snap.as_ref(),
        handles: &handles,
        tele: &mut tele,
        ids: &ids,
        health_ids: health_ids.as_ref(),
        global,
        batch_size: cfg.batch_size.max(1),
        epoch_batches: cfg.epoch_batches.max(1),
        batch: Vec::with_capacity(cfg.batch_size.max(1)),
        seq: 0,
        batches_done: 0,
        epoch: 0,
        checksum: 0,
        accesses: 0,
        shard_accesses: vec![0u64; shards],
    };
    source.stream(&mut driver);
    driver.flush();
    let checksum = driver.checksum;
    let accesses = driver.accesses;
    let shard_accesses = std::mem::take(&mut driver.shard_accesses);
    drop(driver);

    ServiceRunResult {
        jsonl: tele.to_jsonl().unwrap_or_default(),
        checksum,
        accesses,
        shard_accesses,
        aggregate: aggregate_stats(&handles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_workloads::codec::{TraceReader, TraceWriter};
    use std::io::Cursor;

    #[test]
    fn pure_function_of_config() {
        let cfg = ServiceRunConfig::small();
        let a = run_service(&cfg);
        let b = run_service(&cfg);
        assert_eq!(a, b);
        assert!(!a.jsonl.is_empty());
    }

    #[test]
    fn worker_width_never_changes_results() {
        let mut cfg = ServiceRunConfig::small();
        let serial = run_service(&cfg);
        cfg.jobs = 4;
        let pooled = run_service(&cfg);
        assert_eq!(serial.checksum, pooled.checksum);
        assert_eq!(serial.jsonl, pooled.jsonl, "telemetry is width-invariant");
        assert_eq!(serial.aggregate, pooled.aggregate);
    }

    #[test]
    fn every_scenario_runs_deterministically() {
        for cfg in [
            ServiceRunConfig::small(),
            ServiceRunConfig::phase_small(),
            ServiceRunConfig::adversarial_small(),
        ] {
            let a = run_service(&cfg);
            let b = run_service(&cfg);
            assert_eq!(a, b, "{} not deterministic", cfg.corpus_scenario().name());
            assert_eq!(a.accesses, cfg.events());
            assert!(!a.jsonl.is_empty());
        }
    }

    #[test]
    fn scenarios_produce_distinct_streams() {
        let kv = run_service(&ServiceRunConfig::small());
        let phase = run_service(&ServiceRunConfig::phase_small());
        let adv = run_service(&ServiceRunConfig::adversarial_small());
        assert_ne!(kv.checksum, phase.checksum);
        assert_ne!(kv.checksum, adv.checksum);
        assert_ne!(phase.checksum, adv.checksum);
    }

    #[test]
    fn recorded_trace_replays_byte_identically() {
        for cfg in [
            ServiceRunConfig::small(),
            ServiceRunConfig::phase_small(),
            ServiceRunConfig::adversarial_small(),
        ] {
            let live = run_service(&cfg);
            let mut writer = TraceWriter::new(Cursor::new(Vec::new())).expect("writer");
            cfg.corpus_scenario().stream(&mut writer);
            let (summary, cursor) = writer.finish_into_inner().expect("finish");
            assert_eq!(summary.events, cfg.events());
            let mut reader = TraceReader::new(Cursor::new(cursor.into_inner())).expect("reader");
            let replayed = run_service_from(&cfg, &mut reader);
            assert!(reader.error().is_none(), "replay hit a codec error");
            assert_eq!(
                live,
                replayed,
                "{}: replay diverged from live stream",
                cfg.corpus_scenario().name()
            );
        }
    }

    #[test]
    fn shard_columns_partition_the_traffic() {
        let r = run_service(&ServiceRunConfig::small());
        assert_eq!(r.shard_accesses.iter().sum::<u64>(), r.accesses);
        assert!(
            r.shard_accesses.iter().filter(|&&n| n > 0).count() > 1,
            "zipfian tenants still spread across shards: {:?}",
            r.shard_accesses
        );
        let rows = rmcc_telemetry::parse_jsonl(&r.jsonl).expect("valid JSONL");
        assert!(rows.len() >= 3, "several epochs resolved");
        let last = rows.last().expect("nonempty");
        let col = |k: &str| {
            last.get(k)
                .and_then(rmcc_telemetry::JsonValue::as_f64)
                .unwrap_or(-1.0)
        };
        // Shard-labeled columns exist and sum to the global access count.
        let shard_sum: f64 = (0..4).map(|i| col(&format!("shard{i}_accesses"))).sum();
        assert!((shard_sum - col("accesses")).abs() < 0.5);
        assert!(col("shard_faults") == 0.0);
    }

    #[test]
    fn health_columns_export_only_when_enabled() {
        let base = run_service(&ServiceRunConfig::small());
        assert!(
            !base.jsonl.contains("shard0_health") && !base.jsonl.contains("\"quarantines\""),
            "health-disabled schema must stay pre-lifecycle"
        );

        let mut cfg = ServiceRunConfig::small();
        cfg.health = Some(HealthConfig::new());
        let r = run_service(&cfg);
        assert_eq!(r, run_service(&cfg), "health telemetry is deterministic");
        let rows = rmcc_telemetry::parse_jsonl(&r.jsonl).expect("valid JSONL");
        let last = rows.last().expect("nonempty");
        let col = |k: &str| {
            last.get(k)
                .and_then(rmcc_telemetry::JsonValue::as_f64)
                .unwrap_or(-1.0)
        };
        for i in 0..4 {
            assert_eq!(
                col(&format!("shard{i}_health")),
                0.0,
                "clean load keeps shard {i} Healthy"
            );
        }
        assert_eq!(col("quarantines"), 0.0);
        assert_eq!(col("rebuilds"), 0.0);
        assert_eq!(col("degraded_accesses"), 0.0);
        assert_eq!(col("rejected_writes"), 0.0);
        assert_eq!(
            r.checksum, base.checksum,
            "enabling the lifecycle never changes clean-load results"
        );
    }

    #[test]
    fn memoization_conforms_under_sustained_load() {
        let r = run_service(&ServiceRunConfig::small());
        assert!(
            r.aggregate.conformed_writes > 0,
            "seeded ladders steer some writes: {:?}",
            r.aggregate
        );
        assert!(r.aggregate.budget_ok, "every shard ledger invariant holds");
        assert!(r.aggregate.budget_epochs > 0, "per-shard epochs ticked");
    }

    #[test]
    fn kv_addresses_fit_the_configured_keyspace() {
        let cfg = ServiceRunConfig::small();
        let scenario = cfg.corpus_scenario();
        let Scenario::KvServing(kv) = scenario else {
            panic!("small preset is key-value serving");
        };
        let span = kv.tenants * kv.regions_per_tenant * kv.blocks_per_region * BLOCK_BYTES;
        assert!(
            span <= cfg.data_bytes,
            "keyspace {span} exceeds data_bytes {}",
            cfg.data_bytes
        );
    }
}
