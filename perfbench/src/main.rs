//! Service benchmark for the RMCC secure-memory stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures what a client of `SecureMemoryService` sees (see
//! [`e2e`]); `--trace 1` replays the same stream down the per-layer ladder
//! (see [`ladder`]). Either way the results are checked, and the last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The process exits 1 when a check fails, naming the mismatch on standard
//! error, and 2 on bad arguments.

mod e2e;
mod ladder;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Every end-to-end metric and its unit, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("accesses_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    error: Option<String>,
}

impl Report {
    fn fail(mut self, error: String) -> Report {
        self.correct = false;
        self.error = Some(error);
        self
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.unwrap_or(5),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let mut report = if args.trace {
        ladder::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    if report.correct {
        let expected: Vec<(&str, &str)> = if args.trace {
            ladder::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let got: Vec<(&str, &str)> = report.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
        if got != expected {
            report = report.fail("the run did not produce its metric list".into());
        } else if let Some(&(name, value, _)) =
            report.metrics.iter().find(|(_, v, _)| !v.is_finite())
        {
            report = report.fail(format!("{name} is {value}"));
        }
    }
    if let Some(e) = &report.error {
        eprintln!("perfbench: {}: {e}", w.name);
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
