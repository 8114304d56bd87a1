//! `traffic_20k`: greedy packets through the sharded event loop on a
//! 2·10⁴-vertex GIRG under link loss and transient node failures, at a
//! load below the measured service capacity.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_core::{GirgObjective, PreparedObjective};
use smallworld_graph::NodeId;
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_net::{
    nodes_from_mask, FaultPlan, FaultSpec, GreedyPolicy, HopScore, SimBuilder, SimConfig,
    SimSummary, Time, UniformPairs,
};
use smallworld_par::split_seed;

use crate::report::{peak_rss_mib, timed, Coverage, Report};
use crate::route::{median, CLIENTS};
use crate::workloads::{model_layers, ns};
use crate::wrap::{CountingScore, ScoreCounter};
use crate::Args;

const N: u64 = 20_000;
/// bench_traffic's graph: the same seed, size and parameters. Fixed, like
/// the routing workloads' graph; `--seed` draws the faults and traffic.
const GRAPH_SEED: u64 = 2;
/// Packets of one simulation; the injection horizon is `PACKETS / LOAD`
/// ticks.
const PACKETS: usize = 2_000;
/// Packets of the cold start behind `first_route_ms`.
const FIRST_PACKETS: usize = 200;
/// Packets injected per tick.
const LOAD: f64 = 1.0;
/// One shard per simulation, and one simulation per client thread.
/// Results are identical at any shard count, but on a 2-vCPU virtual
/// machine the 2-shard engine's lockstep barriers stall whenever either
/// vCPU is descheduled (±20% packets/s from run to run), and a lone
/// single-threaded simulation runs at the speed of whichever vCPU it lands
/// on, which other tenants slow by up to 1.6× (±17–34%). Two concurrent
/// simulations keep both vCPUs busy, like the routing workloads' two
/// clients.
const SHARDS: usize = 1;
/// Fewest measuring rounds of an untraced run.
const MIN_ROUNDS: usize = 3;
const TIMELINE_INTERVAL: Time = 20;
/// The overload guard's tolerance: the in-flight peak of the second half
/// of the injection horizon may exceed `PEAK_GROWTH` × the first half's
/// plus `PEAK_SLACK` packets before the run counts as a growing backlog.
/// Below capacity the peak is a handful of packets in either half, and
/// differs between halves by a few; a backlog grows without bound.
const PEAK_GROWTH: f64 = 1.5;
const PEAK_SLACK: f64 = 4.0;

fn horizon() -> Time {
    (PACKETS as f64 / LOAD).ceil() as Time
}

/// 5% link loss; 10% of nodes fail once at a uniform time in the
/// injection horizon and come back 50 ticks later.
fn faults() -> FaultSpec {
    FaultSpec {
        loss_rate: 0.05,
        node_fail_rate: 0.1,
        fail_window: horizon(),
        repair_after: Some(50),
        ..FaultSpec::none()
    }
}

fn config() -> SimConfig {
    SimConfig {
        queue_capacity: Some(8),
        max_retries: 3,
        timeline_interval: Some(TIMELINE_INTERVAL),
        ..SimConfig::default()
    }
}

struct Setup {
    girg: Girg<2>,
    plan: FaultPlan,
    eligible: Vec<NodeId>,
}

fn setup(seed: u64) -> (Setup, Duration, Duration) {
    let (girg, sample_t) = timed(|| {
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        GirgBuilder::<2>::new(N)
            .beta(2.5)
            .alpha(2.0)
            .sample(&mut rng)
            .expect("valid benchmark parameters")
    });
    let ((plan, eligible), plan_t) = timed(|| {
        let plan = FaultPlan::new(faults(), split_seed(seed, 2));
        let eligible = nodes_from_mask(&plan.survivor_mask(girg.graph()));
        (plan, eligible)
    });
    (
        Setup {
            girg,
            plan,
            eligible,
        },
        sample_t,
        plan_t,
    )
}

/// Builds the simulator and runs the first `packets` packets of the
/// workload.
fn simulate_first<S: HopScore + Sync>(
    s: &Setup,
    score: S,
    seed: u64,
    packets: usize,
) -> (SimSummary, Duration) {
    timed(|| {
        SimBuilder::new(s.girg.graph(), GreedyPolicy::new(score))
            .faults(s.plan)
            .config(config())
            .shards(SHARDS)
            .horizon(horizon())
            .build()
            .expect("valid benchmark simulation")
            .run_summary(UniformPairs::new(packets, LOAD, split_seed(seed, 1)).over(&s.eligible))
    })
}

fn simulate<S: HopScore + Sync>(s: &Setup, score: S, seed: u64) -> (SimSummary, Duration) {
    simulate_first(s, score, seed, PACKETS)
}

/// Runs `f` once on each of `CLIENTS` threads at once.
fn on_clients<T: Send>(f: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// In-flight peaks of the first and second half of the injection horizon.
fn half_peaks(summary: &SimSummary) -> (u64, u64) {
    let half = horizon() / 2;
    let peak = |range: std::ops::Range<Time>| {
        summary
            .timeline
            .iter()
            .filter(|t| range.contains(&t.at))
            .map(|t| t.in_flight)
            .max()
            .unwrap_or(0)
    };
    (peak(0..half), peak(half..horizon()))
}

/// Repeats the reference simulation until `seconds` have elapsed (at
/// least once); returns each run's wall time and the number that did not
/// reproduce the reference summary.
fn repeat<S: HopScore + Sync>(
    s: &Setup,
    seed: u64,
    seconds: f64,
    reference: &SimSummary,
    score: impl Fn() -> S,
) -> (Vec<f64>, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut mismatches = 0;
    while walls.is_empty() || Instant::now() < deadline {
        let (summary, wall) = simulate(s, score(), seed);
        walls.push(wall.as_secs_f64());
        mismatches += u64::from(summary != *reference);
    }
    (walls, mismatches)
}

pub fn traffic_20k(args: &Args, report: &mut Report) {
    let seed = args.seed;
    // Untraced, the run measures in rounds until `--seconds` of
    // simulation have passed: set-up, then the simulation and a cold start
    // on every client thread at once, so every metric samples the whole
    // run alike. Traced, one round gives the reference.
    let (mut setups, mut pipelines, mut sims, mut firsts) = (vec![], vec![], vec![], vec![]);
    let mut reference: Option<SimSummary> = None;
    let mut simulated = 0.0;
    let (s, sample_t, plan_t) = loop {
        let (s, sample_t, plan_t) = setup(seed);
        let objective = GirgObjective::new(&s.girg);
        let score = || PreparedObjective::new(&objective);
        let (runs, sim_t) = timed(|| on_clients(|| simulate(&s, score(), seed)));
        let (_, first) = timed(|| on_clients(|| simulate_first(&s, score(), seed, FIRST_PACKETS)));
        for (summary, wall) in runs {
            let same = reference.get_or_insert_with(|| summary.clone()) == &summary;
            report.check(same, || "simulations differ from the first".into());
            report.attempted += PACKETS as u64;
            report.failed += if same { 0 } else { PACKETS as u64 };
            sims.push(wall.as_secs_f64());
        }
        setups.push((sample_t + plan_t).as_secs_f64());
        pipelines.push((sample_t + plan_t + sim_t).as_secs_f64());
        firsts.push(first.as_secs_f64());
        simulated += sim_t.as_secs_f64();
        if report.trace() || (setups.len() >= MIN_ROUNDS && simulated >= args.seconds) {
            break (s, sample_t, plan_t);
        }
    };
    let reference = reference.expect("at least one round");
    let objective = GirgObjective::new(&s.girg);
    let plain = || PreparedObjective::new(&objective);

    let (first_half, second_half) = half_peaks(&reference);
    report.info("packets", PACKETS);
    report.info("shards", SHARDS);
    report.info(
        "in_flight_peak_halves",
        format!("[{first_half}, {second_half}]"),
    );
    report.check(reference.injected == PACKETS as u64, || {
        format!("injected {} of {PACKETS} packets", reference.injected)
    });
    report.check(reference.overflow == 0, || {
        format!(
            "{} packets overflowed: the load is above capacity",
            reference.overflow
        )
    });
    let limit = first_half as f64 * PEAK_GROWTH + PEAK_SLACK;
    report.check(second_half as f64 <= limit, || {
        format!("in-flight peak grew from {first_half} to {second_half}: a growing backlog")
    });

    report.info("rounds", setups.len());
    report.end_to_end("setup_s", median(setups));
    report.end_to_end("pipeline_s", median(pipelines));
    // a freshly built simulator's first packets, end to end
    report.end_to_end("first_route_ms", median(firsts) * 1e3);
    report.info("clients", CLIENTS);
    // each client's own simulation rate, summed over the clients
    let wall = median(sims);
    let tick_us = wall / reference.final_time as f64 * 1e6;
    let ticks = |q| reference.latency_hdr.quantile(q).unwrap_or(0) as f64;
    let delivered = reference.delivery_rate();
    let clients = CLIENTS as f64;
    report.end_to_end("routes_per_s", clients * reference.delivered as f64 / wall);
    report.end_to_end("route_p50_us", ticks(0.50) * tick_us);
    report.end_to_end("route_p99_us", ticks(0.99) * tick_us);
    report.end_to_end("route_success_frac", delivered);
    report.end_to_end("packets_per_s", clients * PACKETS as f64 / wall);
    report.end_to_end("delivered_frac", delivered);
    if report.trace() {
        let counter = ScoreCounter::default();
        let (traced, traced_t) = simulate(&s, CountingScore::new(plain(), &counter), seed);
        report.check(traced == reference, || {
            "traced and untraced simulations differ".into()
        });
        let mut coverage = Coverage::default();
        coverage.layer("sample", sample_t);
        coverage.partial("fault plan and survivor mask", plan_t, Duration::ZERO);
        coverage.layer("simulate", traced_t);
        model_layers(report, s.girg.graph().edge_count(), sample_t);
        report.layers_not_run(&["graph.", "store.", "core."]);
        let peak = traced
            .timeline
            .iter()
            .map(|t| t.in_flight)
            .max()
            .unwrap_or(0);
        report.layer("net.sim_s", traced_t.as_secs_f64());
        report.layer("net.events", traced.events as f64);
        report.layer("net.ns_per_event", ns(traced_t) / traced.events as f64);
        report.layer("net.score_calls", counter.total() as f64);
        report.layer("net.retries", traced.retries as f64);
        report.layer("net.overflow", traced.overflow as f64);
        report.layer("net.dropped", traced.dropped() as f64);
        report.layer("net.in_flight_peak", peak as f64);

        // alternate untraced and traced quarters so drift hits both alike
        let quarter = args.seconds / 4.0;
        let (mut plain_walls, mut traced_walls, mut mismatches) = (Vec::new(), Vec::new(), 0);
        for _ in 0..2 {
            let (walls, m) = repeat(&s, seed, quarter, &reference, plain);
            plain_walls.extend(walls);
            mismatches += m;
            let (walls, m) = repeat(&s, seed, quarter, &reference, || {
                CountingScore::new(plain(), &counter)
            });
            traced_walls.extend(walls);
            mismatches += m;
        }
        let sims = (plain_walls.len() + traced_walls.len() + 1) as u64;
        report.attempted += PACKETS as u64 * sims;
        report.failed += PACKETS as u64 * mismatches;
        report.check(mismatches == 0, || {
            "simulations differ from the reference".into()
        });
        report.layer(
            "trace.overhead_frac",
            median(traced_walls) / median(plain_walls) - 1.0,
        );
        coverage.report(report);
    }
    report.end_to_end("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
}
