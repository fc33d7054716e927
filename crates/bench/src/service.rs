//! Sustained-load service benchmark: the serving corpus's key-value mix
//! driven through the sharded
//! [`SecureMemoryService`](rmcc_secmem::service::SecureMemoryService)'s
//! batched `submit` API.
//!
//! Where [`crate::throughput`] measures the single-engine hot path, this
//! harness measures the serving-scale question: aggregate accesses/s when
//! many tenants' traffic — skewed the way real tenant populations are —
//! lands on one service as batches. The stream is
//! [`rmcc_workloads::corpus`]'s key-value serving scenario (zipfian tenant
//! and key popularity, pure integer arithmetic, bit-identical on every
//! host), sized in *keyed regions* — one counter-coverage group per region,
//! ~1 M at small scale and up.
//!
//! The bench owns no driver of its own: each scale is a
//! [`ServiceRunConfig`], whose [`ServiceRunConfig::corpus_scenario`],
//! [`ServiceRunConfig::batches`] and [`ServiceRunConfig::build_service`]
//! supply the stream, its batches and every pass's service — the same ones
//! [`rmcc_sim::service_run::run_service`] drives. What stays here is timing:
//! warm-then-timed loops, the recovery probe, the trace round trip and the
//! JSON report.
//!
//! Two passes run over the identical pre-generated workload: `submit` at
//! width 1 (the serial reference) and at the requested `RMCC_JOBS` width.
//! The deterministic line carries access counts, the order-sensitive
//! result checksum, the AES backend name, the trace-codec footprint, and
//! the memoization tallies — all byte-identical across runs, hosts, and
//! pool widths — so CI diffs it between a serial and a pooled invocation
//! exactly as it does for `BENCH_hotpath.json`. Timing lives only in the
//! JSON (`BENCH_service.json`).
//!
//! Two lifecycle rows ride in the timing section: a **degraded-mode** pass
//! (every shard forced `Degraded`, so writes take the counted full-AES
//! fail-safe path and bypass the memo table — the floor a faulted tenant
//! pays while the breaker decides) and a **recovery-cost** row (one shard
//! quarantined and rebuilt, timing the integrity-tree + MAC re-verification
//! pass). Neither touches the deterministic line.
//!
//! A **record-once / replay-many** stage exercises the compact on-disk
//! trace codec: the scenario is encoded to a temp file once (timed), then
//! decoded back several times (timed), with the first replay checked
//! event-for-event against the live stream. The encoded bytes/event lands
//! in the deterministic line, so CI pins the codec's footprint too.

use std::time::Instant;

use rmcc_core::shard::{aggregate_stats, ShardMemoStats};
use rmcc_crypto::aes::Backend;
use rmcc_secmem::service::{digest_results, Access, HealthConfig};
use rmcc_sim::service_run::{ServiceRunConfig, ServingScenario};
use rmcc_workloads::codec::{reader_from_path, record_to_path};
use rmcc_workloads::trace::{TraceEvent, TraceSource, VecSink};
use rmcc_workloads::workload::Scale;

use crate::throughput::ComponentResult;

/// The service run behind each scale: key-value serving over a keyspace of
/// `tenants × regions_per_tenant` keyed regions, no tenant churn. `tiny` is
/// the CI smoke (a few thousand accesses); `small` covers ~1 M keyed
/// regions in a few seconds; `full` pushes ~2 M accesses over the same
/// keyspace. `jobs` is left at 1: each pass picks its own width.
pub fn scale_config(scale: Scale) -> ServiceRunConfig {
    let tiny = ServiceRunConfig {
        scenario: ServingScenario::KvServing,
        shards: 4,
        jobs: 1,
        seed: 0x5EC5_7AFF_0000_0001,
        tenants: 64,
        regions_per_tenant: 16,
        batches: 12,
        batch_size: 256,
        write_permille: 250,
        churn_period: 0,
        data_bytes: 1 << 26,
        epoch_batches: 1,
        memo_epoch_accesses: 4_096,
        budget_fraction: 0.05,
        ladder_seed: 4,
        health: None,
    };
    match scale {
        Scale::Tiny => tiny,
        Scale::Small => ServiceRunConfig {
            shards: 8,
            seed: 0x5EC5_7AFF_0000_0002,
            tenants: 4_096,
            regions_per_tenant: 256,
            batches: 48,
            batch_size: 4_096,
            data_bytes: 1 << 33,
            ..tiny
        },
        Scale::Full => ServiceRunConfig {
            shards: 16,
            seed: 0x5EC5_7AFF_0000_0003,
            tenants: 8_192,
            regions_per_tenant: 128,
            batches: 256,
            batch_size: 8_192,
            data_bytes: 1 << 33,
            ..tiny
        },
    }
}

/// The benchmark's output: serial-reference and pooled passes over the
/// identical workload, plus the pooled pass's memoization tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBenchReport {
    /// Scale name the run was configured from.
    pub scale: String,
    /// Worker-pool width of the pooled pass.
    pub jobs: usize,
    /// Shards in the service under test.
    pub shards: usize,
    /// Keyed regions in the keyspace.
    pub regions: u64,
    /// Distinct tenants in the mix.
    pub tenants: u64,
    /// `submit` at width 1 over the workload.
    pub serial: ComponentResult,
    /// `submit` at the requested width over the same workload.
    pub pooled: ComponentResult,
    /// `submit` at the requested width with every shard forced `Degraded`
    /// (memo bypassed, counted full-AES fail-safe writes).
    pub degraded: ComponentResult,
    /// Wall-clock cost of one shard's quarantine → rebuild → readmit pass.
    pub recovery: RecoveryCost,
    /// Memoization tallies of the pooled pass, folded across shards.
    pub memo: ShardMemoStats,
    /// AES backend name every shard's key schedules used (`RMCC_BACKEND`).
    pub backend: &'static str,
    /// Record-once / replay-many results for the compact trace codec.
    pub trace: TraceRoundtrip,
}

/// Outcome of encoding the bench stream to the compact on-disk format once
/// and decoding it back several times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRoundtrip {
    /// Events in the recorded trace.
    pub events: u64,
    /// Total encoded file size, header included.
    pub total_bytes: u64,
    /// Seconds the single recording pass took.
    pub record_seconds: f64,
    /// Seconds all replay passes took together.
    pub replay_seconds: f64,
    /// Decode passes over the recorded file.
    pub replay_passes: u64,
    /// Whether the first replay reproduced the live stream event-for-event.
    pub matches_live: bool,
}

impl TraceRoundtrip {
    /// Average encoded bytes per event, header included (0 for an empty
    /// trace). Deterministic: a pure function of the stream.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.events as f64
        }
    }

    /// Events encoded per second (0 when the pass was too fast to time).
    pub fn record_events_per_s(&self) -> f64 {
        if self.record_seconds > 0.0 {
            self.events as f64 / self.record_seconds
        } else {
            0.0
        }
    }

    /// Events decoded per second across all replay passes (0 when too fast
    /// to time).
    pub fn replay_events_per_s(&self) -> f64 {
        if self.replay_seconds > 0.0 {
            (self.events * self.replay_passes) as f64 / self.replay_seconds
        } else {
            0.0
        }
    }
}

/// Timing of one shard's full rebuild (integrity-tree node refresh plus a
/// MAC re-verification sweep over every stored data block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCost {
    /// Seconds the rebuild pass took.
    pub seconds: f64,
    /// Tree nodes whose images were re-derived from trusted counters.
    pub nodes_rebuilt: u64,
    /// Data blocks whose MACs re-verified against trusted state.
    pub data_verified: u64,
}

impl RecoveryCost {
    /// Re-verified data blocks per second (0 when the pass was too fast to
    /// time).
    pub fn blocks_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            // Lossless for any plausible block count.
            self.data_verified as f64 / self.seconds
        } else {
            0.0
        }
    }
}

impl ServiceBenchReport {
    /// The deterministic results as one canonical JSON line —
    /// byte-identical across runs, hosts, and pool widths.
    pub fn deterministic_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"rmcc-bench-service-v2\",",
                "\"backend\":\"{}\",",
                "\"shards\":{},\"regions\":{},\"tenants\":{},",
                "\"accesses\":{},\"result_checksum\":\"{:#018x}\",",
                "\"conformed_writes\":{},\"budget_ok\":{},",
                "\"pooled_matches_serial\":{},",
                "\"trace_events\":{},\"trace_bytes_per_event\":\"{:.2}\",",
                "\"replay_matches_live\":{}}}"
            ),
            self.backend,
            self.shards,
            self.regions,
            self.tenants,
            self.serial.ops,
            self.serial.checksum,
            self.memo.conformed_writes,
            self.memo.budget_ok,
            self.pooled_matches_serial(),
            self.trace.events,
            self.trace.bytes_per_event(),
            self.trace.matches_live,
        )
    }

    /// Whether the pooled pass reproduced the serial reference exactly.
    pub fn pooled_matches_serial(&self) -> bool {
        self.serial.checksum == self.pooled.checksum && self.serial.ops == self.pooled.ops
    }

    /// The full report (deterministic results + timing), the content of
    /// `BENCH_service.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rmcc-bench-service-v2\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"deterministic\": ");
        out.push_str(&self.deterministic_json());
        out.push_str(",\n  \"timing\": {\n");
        out.push_str(&format!(
            "    \"serial_accesses_per_s\": {:.1},\n",
            self.serial.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"sustained_accesses_per_s\": {:.1},\n",
            self.pooled.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"degraded_accesses_per_s\": {:.1},\n",
            self.degraded.ops_per_s()
        ));
        out.push_str(&format!(
            "    \"rebuild_seconds\": {:.6},\n",
            self.recovery.seconds
        ));
        out.push_str(&format!(
            "    \"rebuild_nodes\": {},\n",
            self.recovery.nodes_rebuilt
        ));
        out.push_str(&format!(
            "    \"rebuild_blocks_verified\": {},\n",
            self.recovery.data_verified
        ));
        out.push_str(&format!(
            "    \"rebuild_blocks_per_s\": {:.1},\n",
            self.recovery.blocks_per_s()
        ));
        out.push_str(&format!(
            "    \"trace_record_events_per_s\": {:.1},\n",
            self.trace.record_events_per_s()
        ));
        out.push_str(&format!(
            "    \"trace_replay_events_per_s\": {:.1}\n",
            self.trace.replay_events_per_s()
        ));
        out.push_str("  }\n}\n");
        out
    }
}

/// Records the bench stream to a temp file once, replays it several times,
/// and checks the first replay event-for-event against the live stream.
fn run_trace_roundtrip(
    cfg: &ServiceRunConfig,
    live: &[TraceEvent],
    scale: Scale,
) -> TraceRoundtrip {
    const REPLAY_PASSES: u64 = 3;
    let path = std::env::temp_dir().join(format!("rmcc_bench_service_{scale}.trc"));
    let start = Instant::now();
    let summary = match record_to_path(&path, &mut cfg.corpus_scenario()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("service bench: trace recording failed: {e}");
            return TraceRoundtrip {
                events: 0,
                total_bytes: 0,
                record_seconds: 0.0,
                replay_seconds: 0.0,
                replay_passes: 0,
                matches_live: false,
            };
        }
    };
    let record_seconds = start.elapsed().as_secs_f64();
    let mut matches_live = false;
    let start = Instant::now();
    for pass in 0..REPLAY_PASSES {
        let Ok(mut reader) = reader_from_path(&path) else {
            break;
        };
        if pass == 0 {
            // First replay decodes into memory and is checked exactly.
            let mut sink = VecSink::default();
            reader.stream(&mut sink);
            matches_live = reader.error().is_none() && sink.events == live;
        } else {
            let mut sink = rmcc_workloads::trace::CountingSink::default();
            reader.stream(&mut sink);
        }
    }
    let replay_seconds = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    TraceRoundtrip {
        events: summary.events,
        total_bytes: summary.total_bytes(),
        record_seconds,
        replay_seconds,
        replay_passes: REPLAY_PASSES,
        matches_live,
    }
}

/// `cfg` with health thresholds that never trip and never roll a window:
/// shards keep whatever state the bench forces on them for an entire timed
/// pass.
fn frozen_health(cfg: &ServiceRunConfig) -> ServiceRunConfig {
    ServiceRunConfig {
        health: Some(HealthConfig {
            epoch_accesses: u64::MAX,
            degrade_faults: u64::MAX,
            quarantine_faults: u64::MAX,
            recover_epochs: u64::MAX,
            quarantine_epochs: u64::MAX,
        }),
        ..*cfg
    }
}

/// One pass: a fresh service, then the workload twice — an *untimed* warm
/// traversal that materializes every touched region's counters and tree
/// path (first-touch cost, not sustained cost), then the identical
/// workload timed. `ops` counts the timed traversal; the checksum folds
/// both traversals so the warm phase is pinned by CI too. The warm
/// traversal always runs at full shard width — the service's determinism
/// contract makes results width-invariant, so this only affects wall
/// clock.
///
/// With `degraded`, the service is health-enabled and every shard is forced
/// `Degraded` (frozen there — see [`frozen_health`]) between the two
/// traversals: writes take the counted full-AES fail-safe path and the memo
/// table is bypassed, so the timed traversal is the floor a faulted tenant
/// pays while the circuit breaker decides.
fn run_pass(
    cfg: &ServiceRunConfig,
    batches: &[Vec<Access>],
    jobs: usize,
    degraded: bool,
) -> (ComponentResult, ShardMemoStats) {
    let (service, handles) = if degraded { frozen_health(cfg) } else { *cfg }.build_service();
    let mut checksum = 0u64;
    for batch in batches {
        let results = service.submit_with_jobs(batch, cfg.shards);
        checksum = checksum.rotate_left(9) ^ digest_results(&results);
    }
    if degraded {
        for shard in 0..cfg.shards {
            service.force_degraded(shard);
        }
    }
    let start = Instant::now();
    let mut ops = 0u64;
    for batch in batches {
        let results = service.submit_with_jobs(batch, jobs);
        checksum = checksum.rotate_left(9) ^ digest_results(&results);
        ops += results.len() as u64;
    }
    (
        ComponentResult {
            ops,
            seconds: start.elapsed().as_secs_f64(),
            checksum,
        },
        aggregate_stats(&handles),
    )
}

/// Times one shard's quarantine → rebuild pass after the full workload has
/// materialized its state: integrity-tree images re-derived from trusted
/// counters, every stored data block's MAC re-verified.
fn run_recovery_pass(cfg: &ServiceRunConfig, batches: &[Vec<Access>]) -> RecoveryCost {
    let (service, _handles) = frozen_health(cfg).build_service();
    for batch in batches {
        service.submit_with_jobs(batch, cfg.shards);
    }
    service.force_quarantine(0);
    let start = Instant::now();
    let report = service.try_rebuild(0).unwrap_or_default();
    RecoveryCost {
        seconds: start.elapsed().as_secs_f64(),
        nodes_rebuilt: report.nodes_rebuilt,
        data_verified: report.data_verified,
    }
}

/// Runs the sustained-load benchmark: serial reference, pooled pass,
/// degraded-mode pass, and recovery-cost probe over the identical
/// workload.
pub fn run(scale: Scale, jobs: usize) -> ServiceBenchReport {
    let cfg = scale_config(scale);
    let jobs = jobs.max(1);
    let events: Vec<TraceEvent> = cfg.corpus_scenario().events().collect();
    let batches = cfg.batches(&events);
    let (serial, _) = run_pass(&cfg, &batches, 1, false);
    let (pooled, memo) = run_pass(&cfg, &batches, jobs, false);
    let (degraded, _) = run_pass(&cfg, &batches, jobs, true);
    let recovery = run_recovery_pass(&cfg, &batches);
    let trace = run_trace_roundtrip(&cfg, &events, scale);
    ServiceBenchReport {
        scale: scale.to_string(),
        jobs,
        shards: cfg.shards,
        regions: cfg.tenants * cfg.regions_per_tenant,
        tenants: cfg.tenants,
        serial,
        pooled,
        degraded,
        recovery,
        memo,
        backend: Backend::from_env().name(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_deterministic_and_width_invariant() {
        let a = run(Scale::Tiny, 1);
        let b = run(Scale::Tiny, 4);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert!(a.pooled_matches_serial());
        assert!(b.pooled_matches_serial());
        assert_eq!(a.serial.ops, scale_config(Scale::Tiny).events());
        // Golden pin: the serial/pooled diff above cannot see a change that
        // shifts the stream on both sides. The backend name is masked so
        // the pin holds under any `RMCC_BACKEND`.
        let masked = a.deterministic_json().replace(
            &format!("\"backend\":\"{}\"", a.backend),
            "\"backend\":\"X\"",
        );
        assert_eq!(
            masked,
            concat!(
                "{\"schema\":\"rmcc-bench-service-v2\",\"backend\":\"X\",",
                "\"shards\":4,\"regions\":1024,\"tenants\":64,",
                "\"accesses\":3072,\"result_checksum\":\"0x3abb3560ae868753\",",
                "\"conformed_writes\":1142,\"budget_ok\":true,",
                "\"pooled_matches_serial\":true,",
                "\"trace_events\":3072,\"trace_bytes_per_event\":\"2.58\",",
                "\"replay_matches_live\":true}"
            )
        );
    }

    #[test]
    fn tiny_run_memoizes_and_respects_budget() {
        let r = run(Scale::Tiny, 2);
        assert!(r.memo.conformed_writes > 0, "{:?}", r.memo);
        assert!(r.memo.budget_ok);
    }

    #[test]
    fn emitted_json_parses_with_repo_reader() {
        let r = run(Scale::Tiny, 2);
        let parsed = rmcc_telemetry::export::parse_json_line(&r.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("rmcc-bench-service-v2")
        );
        let det = rmcc_telemetry::export::parse_json_line(&r.deterministic_json())
            .expect("valid deterministic line");
        assert!(det.get("pooled_matches_serial").is_some());
        assert_eq!(
            det.get("backend").and_then(|v| v.as_str()),
            Some(Backend::from_env().name())
        );
        assert!(det.get("trace_bytes_per_event").is_some());
    }

    #[test]
    fn trace_roundtrip_matches_live_and_stays_compact() {
        let r = run(Scale::Tiny, 1);
        assert!(
            r.trace.matches_live,
            "replayed stream diverged: {:?}",
            r.trace
        );
        assert_eq!(r.trace.events, scale_config(Scale::Tiny).events());
        assert!(
            r.trace.bytes_per_event() <= 4.0,
            "encoding regressed past 4 bytes/event: {:.2}",
            r.trace.bytes_per_event()
        );
        let json = r.to_json();
        assert!(json.contains("trace_record_events_per_s"));
        assert!(json.contains("trace_replay_events_per_s"));
    }

    #[test]
    fn lifecycle_rows_are_populated() {
        let r = run(Scale::Tiny, 2);
        assert_eq!(
            r.degraded.ops,
            scale_config(Scale::Tiny).events(),
            "degraded pass serves the whole workload"
        );
        assert!(r.recovery.nodes_rebuilt > 0, "{:?}", r.recovery);
        assert!(r.recovery.data_verified > 0, "{:?}", r.recovery);
        let json = r.to_json();
        for key in [
            "degraded_accesses_per_s",
            "rebuild_seconds",
            "rebuild_nodes",
            "rebuild_blocks_verified",
            "rebuild_blocks_per_s",
        ] {
            assert!(json.contains(key), "timing row {key} missing");
        }
        assert!(
            !r.deterministic_json().contains("degraded"),
            "lifecycle rows are timing-only"
        );
    }
}
