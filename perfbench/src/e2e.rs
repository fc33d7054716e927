//! The end-to-end run (`--trace 0`): what a client of the service sees.
//!
//! One client submits the workload's stream in batches through
//! `SecureMemoryService::submit` as a closed loop (each batch is sent when
//! the previous one has returned) for the requested number of seconds,
//! split over [`ROUNDS`] freshly set-up services; a round during which the
//! host withheld CPU time from this machine (steal above [`STEAL_LIMIT`]) is
//! run again, at most [`MAX_REPEATS`] times. Then the results are
//! checked: one more service, set up the same way, replays the batches of
//! the longest round with `submit_with_jobs(_, 1)`; every batch's
//! `digest_results` must match the pooled pass, and every serial result
//! must agree with a plain oracle.
//! Workloads with a twin backend also replay the set-up and the first
//! timed batches there, and the digests must match across backends.

use std::time::{Duration, Instant};

use crate::stats::{cpu_ticks, median, peak_rss_mib, percentile};
use crate::workloads::{fold_digest, set_up, Inputs, Oracle, Workload, JOBS, SHARDS};
use crate::Report;

/// Timed batches the twin backend replays after its set-up.
const TWIN_BATCHES: usize = 8;
/// Timed rounds per run, each on a freshly set-up service, so no single
/// service's memory layout decides the figures, and every round's set-up
/// is one more `setup_s` sample.
const ROUNDS: usize = 3;
/// Submits per run, at least: enough for ten samples beyond p90.
const MIN_SUBMITS: usize = 100;
/// A round whose timed pass lost more than this share of the machine's CPU
/// time to the host (the `steal` column of `/proc/stat`) measured the host,
/// not the program: it is discarded and run again, at most
/// [`MAX_REPEATS`] times per run.
const STEAL_LIMIT: f64 = 0.05;
/// Rounds a run may discard for steal.
const MAX_REPEATS: usize = 3;

/// The timed pass: per-batch digests and per-submit latencies.
pub struct TimedPass {
    /// `digest_results` of each batch, in submission order.
    pub digests: Vec<u64>,
    /// Wall time of each `submit` call, in seconds.
    pub latencies: Vec<f64>,
    /// Accesses submitted.
    pub attempted: u64,
    /// Accesses whose result is not `is_ok()`.
    pub failed: u64,
}

impl TimedPass {
    /// Wall seconds spent inside `submit`.
    pub fn busy_seconds(&self) -> f64 {
        self.latencies.iter().sum()
    }
}

/// Submits timed batches `0, 1, …` until `budget` has elapsed, sending at
/// least `min_batches`.
pub fn timed_pass(
    service: &rmcc_secmem::service::SecureMemoryService,
    inputs: &Inputs,
    budget: Duration,
    min_batches: usize,
) -> TimedPass {
    let mut pass = TimedPass {
        digests: Vec::new(),
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    for k in 0.. {
        if k >= min_batches && start.elapsed() >= budget {
            break;
        }
        let batch = inputs.timed_batch(k);
        let t = Instant::now();
        let results = service.submit(batch);
        pass.latencies.push(t.elapsed().as_secs_f64());
        pass.digests.push(fold_digest(0, &results));
        pass.attempted += results.len() as u64;
        pass.failed += results.iter().filter(|r| !r.is_ok()).count() as u64;
    }
    pass
}

/// Replays the timed batches on a fresh serial reference and checks them
/// against the pooled pass and an oracle. Returns the reference's set-up
/// seconds.
fn check_serial(
    w: &Workload,
    inputs: &Inputs,
    setup_digest: u64,
    pooled: &[u64],
) -> Result<f64, String> {
    let mut oracle = Oracle::default();
    let reference = set_up(inputs, w.backend, Some(&mut oracle))
        .map_err(|e| format!("serial reference set-up: {e}"))?;
    if reference.digest != setup_digest {
        return Err(format!(
            "set-up digest {:#018x} differs from the serial reference's {:#018x}",
            setup_digest, reference.digest
        ));
    }
    for (k, &want) in pooled.iter().enumerate() {
        let batch = inputs.timed_batch(k);
        let results = reference.service.submit_with_jobs(batch, 1);
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
    Ok(reference.seconds)
}

/// Replays the set-up and the first timed batches on the twin backend and
/// checks that the digests match this backend's.
fn check_twin(
    w: &Workload,
    inputs: &Inputs,
    setup_digest: u64,
    pooled: &[u64],
) -> Result<(), String> {
    let Some(twin) = w.twin else {
        return Ok(());
    };
    let other = set_up(inputs, twin, None)?;
    if other.digest != setup_digest {
        return Err(format!(
            "set-up digest on {} ({:#018x}) != on {} ({:#018x})",
            w.backend.name(),
            setup_digest,
            twin.name(),
            other.digest
        ));
    }
    for (k, &want) in pooled.iter().take(TWIN_BATCHES).enumerate() {
        let got = fold_digest(0, &other.service.submit(inputs.timed_batch(k)));
        if got != want {
            return Err(format!(
                "timed batch {k}: digest on {} ({want:#018x}) != on {} ({got:#018x})",
                w.backend.name(),
                twin.name()
            ));
        }
    }
    Ok(())
}

/// Runs the end-to-end measurement and its checks.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    match measure(w, seed, seconds, &mut report) {
        Ok(()) => report,
        Err(e) => report.fail(e),
    }
}

fn measure(w: &Workload, seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::generate(w, seed);
    let mut setups = Vec::with_capacity(ROUNDS + 1);
    let (mut timed, mut busy) = (0u64, 0.0);
    let mut latencies = Vec::new();
    // Every round starts from the same set-up and sends the same batches,
    // so their digests agree on the batches they share; the longest round
    // is the one the serial reference replays.
    let mut setup_digest = None;
    let mut longest: Vec<u64> = Vec::new();
    let mut rss = None;
    let (mut kept_steal, mut repeated) = (Vec::with_capacity(ROUNDS), 0);
    for round in 0..ROUNDS + MAX_REPEATS {
        if kept_steal.len() == ROUNDS {
            break;
        }
        let ready = set_up(&inputs, w.backend, None)?;
        if *setup_digest.get_or_insert(ready.digest) != ready.digest {
            return Err(format!("round {round}: set-up digest differs from round 0"));
        }
        report.attempted += ready.attempted;
        report.failed += ready.failed;
        let ticks = cpu_ticks();
        let pass = timed_pass(
            &ready.service,
            &inputs,
            Duration::from_secs(seconds) / ROUNDS as u32,
            MIN_SUBMITS.div_ceil(ROUNDS),
        );
        let steal = match (ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        if rss.is_none() {
            // Peak RSS of a process that has so far generated the inputs,
            // set up one service and timed it; later rounds only add
            // allocator noise.
            rss = Some(peak_rss_mib()?);
        }
        if let Some(k) = pass.digests.iter().zip(&longest).position(|(a, b)| a != b) {
            return Err(format!(
                "round {round}: timed batch {k} digest differs from an earlier round"
            ));
        }
        if pass.digests.len() > longest.len() {
            longest.clone_from(&pass.digests);
        }
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        if steal > STEAL_LIMIT && repeated < MAX_REPEATS {
            repeated += 1;
            continue;
        }
        kept_steal.push(format!("{:.1}%", 100.0 * steal));
        setups.push(ready.seconds);
        timed += pass.attempted;
        busy += pass.busy_seconds();
        latencies.extend(pass.latencies.iter().map(|s| s * 1e3));
    }
    let setup_digest = setup_digest.unwrap_or_default();
    setups.push(check_serial(w, &inputs, setup_digest, &longest)?);
    check_twin(w, &inputs, setup_digest, &longest)?;

    let n = latencies.len();
    println!(
        "{}: {ROUNDS} rounds, {n} submits of {} accesses at pool width {JOBS}, {SHARDS} shards, backend {}",
        w.name,
        w.batch,
        w.backend.name()
    );
    println!(
        "{}: failed_share {} ({} of {} accesses, set-up included); digest gate passed{}",
        w.name,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        match w.twin {
            Some(t) => format!(", {} twin matches", t.name()),
            None => String::new(),
        }
    );
    println!(
        "{}: submit latency from {n} samples ({} beyond p90); setup_s is the median of {} set-ups",
        w.name,
        n - (0.9 * n as f64).ceil() as usize,
        setups.len()
    );
    println!(
        "{}: CPU time taken by the host (steal) in the kept rounds: {}; rounds repeated for steal above {}%: {repeated}",
        w.name,
        kept_steal.join(", "),
        100.0 * STEAL_LIMIT
    );
    report.metrics = vec![
        ("accesses_per_s", timed as f64 / busy, "1/s"),
        ("submit_p50_ms", percentile(&latencies, 0.5), "ms"),
        ("submit_p90_ms", percentile(&latencies, 0.9), "ms"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", rss.unwrap_or_default(), "MiB"),
    ];
    report.correct = report.failed == 0;
    if !report.correct {
        report.error = Some(format!("{} accesses failed", report.failed));
    }
    Ok(())
}
