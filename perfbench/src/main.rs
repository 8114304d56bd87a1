//! End-to-end benchmark of the smallworld pipeline, one workload per
//! process:
//!
//! ```text
//! perfbench --workload <pipeline_1m|route_ram_1m|traffic_20k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured by the wrappers in [`wrap`]. The process exits
//! non-zero when an output check fails. See README.md for the workloads
//! and the metric definitions.

mod report;
mod route;
mod traffic;
mod workloads;
mod wrap;

use std::process::ExitCode;

use report::Report;

/// Fixed parallelism: pool threads of the sampler and the components
/// pass, taken from `SMALLWORLD_THREADS`, which the launcher pins.
const POOL_THREADS_ENV: &str = "SMALLWORLD_THREADS";

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args);
    let pool_threads = std::env::var(POOL_THREADS_ENV).ok();
    let pool_threads = pool_threads.and_then(|t| t.parse::<usize>().ok());
    report.info(
        "pool_threads",
        pool_threads.map_or("null".into(), |t| t.to_string()),
    );
    report.info(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match args.workload.as_str() {
        "pipeline_1m" => workloads::pipeline_1m(&args, &mut report),
        "route_ram_1m" => workloads::route_ram_1m(&args, &mut report),
        "traffic_20k" => traffic::traffic_20k(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    report.finish()
}
