//! Metric collection, the coverage account of a traced run, and the
//! result line.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::Args;

/// Runs `f` and returns its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The end-to-end metrics and their units: every untraced run prints all
/// of them (README.md defines each per workload).
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("first_route_ms", "ms"),
    ("routes_per_s", "1/s"),
    ("route_p50_us", "us"),
    ("route_p99_us", "us"),
    ("route_success_frac", "fraction"),
    ("packets_per_s", "1/s"),
    ("delivered_frac", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics and their units: every traced run prints all of
/// them, zero for a layer the workload does not run.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("models.sample_s", "s"),
    ("models.edges", "count"),
    ("models.sample_ns_per_edge", "ns"),
    ("graph.relabel_s", "s"),
    ("graph.components_s", "s"),
    ("store.write_s", "s"),
    ("store.file_bytes", "bytes"),
    ("store.bytes_per_edge", "bytes"),
    ("store.write_ns_per_byte", "ns"),
    ("store.open_s", "s"),
    ("store.open_ns_per_byte", "ns"),
    ("store.decode_s", "s"),
    ("store.decode_ns_per_slot", "ns"),
    ("store.lru_hits", "count"),
    ("store.lru_misses", "count"),
    ("store.lru_hit_rate", "fraction"),
    ("core.slots", "count"),
    ("core.slots_per_route", "count"),
    ("core.hops_per_route", "count"),
    ("core.score_s", "s"),
    ("core.score_ns_per_slot", "ns"),
    ("core.route_self_s", "s"),
    ("core.route_ns_per_slot", "ns"),
    ("net.sim_s", "s"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.score_calls", "count"),
    ("net.retries", "count"),
    ("net.overflow", "count"),
    ("net.dropped", "count"),
    ("net.in_flight_peak", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Collects metrics, checks and informational fields for one run.
pub struct Report {
    trace: bool,
    metrics: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        let mut report = Report {
            trace: args.trace,
            metrics: Vec::new(),
            info: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        report.info("workload", format!("{:?}", args.workload));
        report.info("seed", args.seed);
        report
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Records an informational field of the run (printed, not a metric).
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Records an end-to-end metric; dropped from a traced run's output.
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        if !self.trace {
            self.metrics.push((name, value));
        }
    }

    /// Records a per-layer metric; dropped from an untraced run's output.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.trace {
            self.metrics.push((name, value));
        }
    }

    /// Records zero for every per-layer metric whose name starts with one
    /// of `prefixes`: layers the workload does not run.
    pub fn layers_not_run(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.layer(name, 0.0);
            }
        }
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Prints the informational line and the result line; exits non-zero
    /// when a check failed.
    pub fn finish(mut self) -> ExitCode {
        self.info(
            "peak_rss_mib",
            peak_rss_mib().map_or("null".into(), |v| v.to_string()),
        );
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let info = format!("{{\"info\": {{{}}}}}", info.join(", "));
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite"));
            }
        }
        let mut printed: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        let mut expected: Vec<&str> = table.iter().map(|m| m.0).collect();
        printed.sort_unstable();
        expected.sort_unstable();
        if printed != expected {
            self.failures.push(format!(
                "metrics {printed:?} are not the table {expected:?}"
            ));
        }
        if !self.failures.is_empty() {
            eprintln!("{info}");
            eprintln!(
                "perfbench: {} check(s) failed; no result",
                self.failures.len()
            );
            return ExitCode::FAILURE;
        }
        println!("{info}");
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .map_or(0.0, |m| m.1);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        ExitCode::SUCCESS
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The coverage account of a traced run: each interval of the traced
/// workload with its wall (thread) time and the part of it spent inside
/// a measured layer call.
#[derive(Default)]
pub struct Coverage {
    intervals: Vec<(&'static str, Duration, Duration)>,
}

impl Coverage {
    /// An interval fully spent inside one layer call.
    pub fn layer(&mut self, name: &'static str, wall: Duration) {
        self.intervals.push((name, wall, wall));
    }

    /// An interval of which only `covered` was inside layer calls.
    pub fn partial(&mut self, name: &'static str, wall: Duration, covered: Duration) {
        self.intervals.push((name, wall, covered.min(wall)));
    }

    /// Σ layer self time ÷ workload wall. Below 95% it names the
    /// intervals with the largest uncovered time on stderr.
    pub fn report(&self, report: &mut Report) {
        let wall: Duration = self.intervals.iter().map(|i| i.1).sum();
        let covered: Duration = self.intervals.iter().map(|i| i.2).sum();
        let coverage = covered.as_secs_f64() / wall.as_secs_f64();
        report.layer("trace.coverage", coverage);
        if coverage < 0.95 {
            let mut gaps: Vec<_> = self
                .intervals
                .iter()
                .map(|(n, w, c)| (*n, *w - *c))
                .collect();
            gaps.sort_by_key(|g| std::cmp::Reverse(g.1));
            let named: Vec<String> = gaps
                .iter()
                .take(3)
                .map(|(n, g)| format!("{n} {:.1} ms", g.as_secs_f64() * 1e3))
                .collect();
            eprintln!(
                "perfbench: trace coverage {:.1}% is below the 95% closure target; uncovered: {}",
                coverage * 100.0,
                named.join(", ")
            );
            report.info("uncovered", format!("{:?}", gaps[0].0));
        }
    }
}
