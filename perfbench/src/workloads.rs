//! The two routing workloads on the 10⁶-vertex GIRG: `pipeline_1m`
//! (sample → relabel → write → components → drop → open → decode-free
//! routing) and `route_ram_1m` (the same graph and pairs, routed in RAM).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld_core::{
    GirgObjective, GreedyRouter, Objective, PackedGirgObjective, RouteOutcome, Router, ViewRouter,
};
use smallworld_graph::{Components, NodeId};
use smallworld_models::girg::{Girg, GirgBuilder};
use smallworld_par::split_seed;
use smallworld_store::{GraphStore, MappedCursor, MappedGraph};

use crate::report::{peak_rss_mib, timed, Coverage, Report};
use crate::route::{
    self, digest, draw_pairs, median, outcomes, reference_pass, Client, MappedClient, PairOutcome,
    Pass, RamClient, Tally, CLIENTS,
};
use crate::wrap::TimedView;
use crate::Args;

/// Expected vertex count of the routing graph.
const N: u64 = 1_000_000;
/// Kernel constant λ: average degree ≈ 10 at β = 2.5, α = 2.
const LAMBDA: f64 = 0.02;
/// Seed of the graph. The graph is one fixed instance, like a deployed
/// network: `--seed` draws the workload on it (pairs, faults, traffic),
/// so run-to-run spread measures the program, not the graph lottery —
/// across graph seeds the hub degrees, and with them the slots a route
/// scans, vary by a factor of two and more.
pub const GRAPH_SEED: u64 = 0x5EED_1A2B;
/// Source/target pairs of one pass.
pub const PAIRS: usize = 2_000;
/// Rounds of an untraced run: each round sets up (and, for `pipeline_1m`,
/// writes and opens the store) anew, times its cold starts and a slice of
/// the closed-loop phase, so every metric samples the whole run alike.
const ROUNDS: usize = 2;
/// Cold starts per round; `first_route_ms` is the median over all rounds.
const COLD_STARTS: usize = 6;

fn sample() -> Girg<2> {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    GirgBuilder::<2>::new(N)
        .beta(2.5)
        .alpha(2.0)
        .lambda(LAMBDA)
        .sample(&mut rng)
        .expect("valid benchmark parameters")
}

fn relabel(girg: Girg<2>) -> Girg<2> {
    girg.relabel(&girg.morton_permutation())
}

fn pairs_seed(seed: u64) -> u64 {
    split_seed(seed, 1)
}

/// The store file of one run, inside the checkout's scratch directory.
fn store_path(seed: u64) -> PathBuf {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).expect("create .bench_work");
    dir.join(format!("pipeline-{seed}-{}.swg", std::process::id()))
}

/// Routes the reference pass traced and untraced, checks that they agree
/// on every count, and reports the per-layer routing metrics.
fn trace_pass(
    report: &mut Report,
    pairs: &[(NodeId, NodeId)],
    untraced: Tally,
    untraced_outcomes: &[PairOutcome],
    traced: Pass,
    degree: impl FnMut(NodeId) -> usize,
    coverage: &mut Coverage,
) {
    let traced_outcomes = outcomes(&traced.records, degree);
    report.check(traced_outcomes == untraced_outcomes, || {
        "traced and untraced passes route differently".into()
    });
    let tally = traced.tally;
    let path_slots: u64 = untraced_outcomes.iter().map(|o| o.slots).sum();
    report.check(tally.slots == path_slots, || {
        format!(
            "wrapper counted {} slots, paths imply {path_slots}",
            tally.slots
        )
    });
    report.check(
        (tally.lru_hits, tally.lru_misses) == (untraced.lru_hits, untraced.lru_misses),
        || "traced and untraced LRU counts differ".into(),
    );
    let routes = pairs.len() as f64;
    let slots = path_slots as f64;
    let hops: usize = untraced_outcomes.iter().map(|o| o.hops).sum();
    let route_self = traced.route_time.saturating_sub(tally.decode + tally.score);
    report.layer("store.decode_s", tally.decode.as_secs_f64());
    report.layer("store.decode_ns_per_slot", ns(tally.decode) / slots);
    report.layer("store.lru_hits", tally.lru_hits as f64);
    report.layer("store.lru_misses", tally.lru_misses as f64);
    let lookups = (tally.lru_hits + tally.lru_misses).max(1) as f64;
    report.layer("store.lru_hit_rate", tally.lru_hits as f64 / lookups);
    report.layer("core.slots", slots);
    report.layer("core.slots_per_route", slots / routes);
    report.layer("core.hops_per_route", hops as f64 / routes);
    report.layer("core.score_s", tally.score.as_secs_f64());
    report.layer("core.score_ns_per_slot", ns(tally.score) / slots);
    report.layer("core.route_self_s", route_self.as_secs_f64());
    report.layer("core.route_ns_per_slot", ns(route_self) / slots);
    coverage.partial(
        "route pass (client threads)",
        traced.thread_time,
        traced.route_time,
    );
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The end-to-end routing metrics of the timed phase and the pass.
fn route_metrics(report: &mut Report, reference: &[PairOutcome], timed: &route::Timed) {
    let delivered = reference
        .iter()
        .filter(|o| o.outcome == RouteOutcome::Delivered)
        .count() as f64
        / reference.len() as f64;
    let rps = timed.routes_per_s();
    report.info("routes_timed", timed.routes);
    report.info("passes_timed", timed.pass_count());
    report.info("latency_samples_per_pass", PAIRS / CLIENTS);
    report.end_to_end("routes_per_s", rps);
    report.end_to_end("route_p50_us", timed.latency_us(|p| p.p50_ns));
    report.end_to_end("route_p99_us", timed.latency_us(|p| p.p99_ns));
    report.end_to_end("route_success_frac", delivered);
    // every route is one packet: the traffic metrics read the same here
    report.end_to_end("packets_per_s", rps);
    report.end_to_end("delivered_frac", delivered);
    report.attempted += timed.routes + reference.len() as u64;
    report.failed += timed.mismatches;
    report.check(timed.mismatches == 0, || {
        format!(
            "{} timed routes differ from the reference pass",
            timed.mismatches
        )
    });
}

/// The tracing overhead: untraced and traced timed phases alternate in
/// quarters of the run, so drift hits both alike.
fn overhead<U: Client, T: Client>(
    args: &Args,
    report: &mut Report,
    pairs: &[(NodeId, NodeId)],
    reference: &[PairOutcome],
    untraced: impl Fn() -> U + Sync,
    traced: impl Fn() -> T + Sync,
) {
    let quarter = args.seconds / 4.0;
    let (mut plain, mut wrapped) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (rates, t) in [
            (
                &mut plain,
                route::timed_phase(pairs, reference, quarter, &untraced),
            ),
            (
                &mut wrapped,
                route::timed_phase(pairs, reference, quarter, &traced),
            ),
        ] {
            report.attempted += t.routes;
            report.failed += t.mismatches;
            report.check(t.mismatches == 0, || {
                "timed routes differ from the reference pass".into()
            });
            rates.push(t.routes_per_s());
        }
    }
    report.layer("trace.overhead_frac", median(plain) / median(wrapped) - 1.0);
}

pub fn model_layers(report: &mut Report, edges: usize, sample_t: Duration) {
    report.layer("models.sample_s", sample_t.as_secs_f64());
    report.layer("models.edges", edges as f64);
    report.layer("models.sample_ns_per_edge", ns(sample_t) / edges as f64);
}

/// Opens and verifies the store, builds the decode-free view and the
/// packed objective, and calls `f` with them and the time that took.
fn with_store<R>(
    path: &Path,
    f: impl FnOnce(&MappedGraph<'_>, &PackedGirgObjective<'_, 2>, Duration) -> R,
) -> R {
    let start = Instant::now();
    let store = GraphStore::open(path).expect("store opens");
    let mapped = store.mapped_graph().expect("mapped adjacency");
    let positions = store.packed_positions().expect("POS section");
    let weights = store.packed_weights().expect("WEIGHT section");
    let (params, _) = store.params().expect("META section");
    let objective =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    f(&mapped, &objective, start.elapsed())
}

/// A vertex's degree, decoded from the mapped store.
fn decoded_degree<'a>(mapped: &'a MappedGraph<'_>) -> impl FnMut(NodeId) -> usize + 'a {
    let mut buf = Vec::new();
    move |v| {
        buf.clear();
        mapped
            .decode_into(v.index(), &mut buf)
            .expect("stream decodes");
        buf.len()
    }
}

/// One pass of `pipeline_1m` through every stage, with its timings.
struct PipelineRun {
    sample_t: Duration,
    relabel_t: Duration,
    write_t: Duration,
    components_t: Duration,
    pairs_t: Duration,
    drop_t: Duration,
    open_t: Duration,
    setup: Duration,
    pipeline: Duration,
    edges: usize,
    file_bytes: u64,
    pairs: Vec<(NodeId, NodeId)>,
    /// The reference pass over the mapped store.
    outcomes: Vec<PairOutcome>,
    tally: Tally,
    /// The same pairs routed in RAM, when asked for.
    ram_outcomes: Option<Vec<PairOutcome>>,
}

/// sample → relabel → write → components → drop → open → route every
/// pair once. With `check_ram`, also routes the pairs in RAM before the
/// drop, outside every timed interval.
fn run_pipeline(seed: u64, path: &Path, check_ram: bool) -> PipelineRun {
    let (girg, sample_t) = timed(sample);
    let edges = girg.graph().edge_count();
    let (girg, relabel_t) = timed(|| relabel(girg));
    let (stats, write_t) = timed(|| {
        smallworld_store::save_girg(&girg, path, 1)
            .expect("store written")
            .expect(".swg path writes the binary store")
    });
    let (comps, components_t) = timed(|| Components::compute(girg.graph()));
    let n = girg.node_count();
    let (pairs, pairs_t) = timed(|| draw_pairs(&comps, n, PAIRS, pairs_seed(seed)));
    let setup = sample_t + relabel_t + write_t + components_t + pairs_t;
    let ram_outcomes = check_ram.then(|| {
        let graph = girg.graph();
        let ram = reference_pass(&pairs, || {
            RamClient::new(graph, GirgObjective::new(&girg), false)
        });
        outcomes(&ram.records, |v| graph.degree(v))
    });
    let ((), drop_t) = timed(|| drop((girg, comps)));
    let open_start = Instant::now();
    let (open_t, tally, routed, outcomes) = with_store(path, |mapped, objective, open_t| {
        let pass = reference_pass(&pairs, || {
            MappedClient::<MappedCursor>::new(mapped, objective)
        });
        let routed = open_start.elapsed();
        (
            open_t,
            pass.tally,
            routed,
            outcomes(&pass.records, decoded_degree(mapped)),
        )
    });
    PipelineRun {
        sample_t,
        relabel_t,
        write_t,
        components_t,
        pairs_t,
        drop_t,
        open_t,
        setup,
        pipeline: setup + drop_t + routed,
        edges,
        file_bytes: stats.file_bytes,
        pairs,
        outcomes,
        tally,
        ram_outcomes,
    }
}

/// Median seconds of `pick` over the runs.
fn median_secs<T>(runs: &[T], pick: impl Fn(&T) -> Duration) -> f64 {
    median(runs.iter().map(|r| pick(r).as_secs_f64()).collect())
}

/// Opens the store and routes one pair decode-free from a fresh cursor:
/// what a process serving routes from the store pays before its first
/// answer.
fn cold_start_mapped(path: &Path, (s, t): (NodeId, NodeId)) -> Duration {
    let start = Instant::now();
    with_store(path, |mapped, objective, _| {
        let kernel = objective.prepare(t);
        let record = ViewRouter::new().route_view_quiet(&mut mapped.cursor(), &kernel, s);
        std::hint::black_box(record);
    });
    start.elapsed()
}

pub fn pipeline_1m(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let path = store_path(seed);
    let rounds = if report.trace() { 1 } else { ROUNDS };
    let slice = args.seconds / rounds as f64;
    let (mut times, mut cold, mut timed) = (Vec::new(), Vec::new(), route::Timed::default());
    let mut first: Option<PipelineRun> = None;
    for round in 0..rounds {
        let run = run_pipeline(seed, &path, round == 0);
        times.push((run.setup, run.pipeline));
        if let Some(first) = &first {
            report.check(run.outcomes == first.outcomes, || {
                "pipeline rounds route differently".into()
            });
        }
        let run = &*first.get_or_insert(run);
        let pairs = &run.pairs;
        cold.extend((0..COLD_STARTS).map(|_| cold_start_mapped(&path, pairs[0])));
        with_store(&path, |mapped, objective, _| {
            let plain = || MappedClient::<MappedCursor>::new(mapped, objective);
            let traced = || MappedClient::<TimedView<MappedCursor>>::new(mapped, objective);
            if !report.trace() {
                timed.absorb(route::timed_phase(pairs, &run.outcomes, slice, plain));
                return;
            }
            let file_bytes = run.file_bytes as f64;
            model_layers(report, run.edges, run.sample_t);
            report.layer("graph.relabel_s", run.relabel_t.as_secs_f64());
            report.layer("graph.components_s", run.components_t.as_secs_f64());
            report.layer("store.write_s", run.write_t.as_secs_f64());
            report.layer("store.file_bytes", file_bytes);
            report.layer("store.bytes_per_edge", file_bytes / run.edges as f64);
            report.layer("store.write_ns_per_byte", ns(run.write_t) / file_bytes);
            report.layer("store.open_s", run.open_t.as_secs_f64());
            report.layer("store.open_ns_per_byte", ns(run.open_t) / file_bytes);
            report.layers_not_run(&["net."]);
            let mut coverage = Coverage::default();
            coverage.layer("sample", run.sample_t);
            coverage.layer("relabel", run.relabel_t);
            coverage.layer("write", run.write_t);
            coverage.layer("components", run.components_t);
            coverage.partial("draw pairs", run.pairs_t, Duration::ZERO);
            coverage.partial("drop graph", run.drop_t, Duration::ZERO);
            coverage.layer("open", run.open_t);
            let pass = reference_pass(pairs, traced);
            let degree = decoded_degree(mapped);
            trace_pass(
                report,
                pairs,
                run.tally,
                &run.outcomes,
                pass,
                degree,
                &mut coverage,
            );
            overhead(args, report, pairs, &run.outcomes, plain, traced);
            coverage.report(report);
        });
        if round == 0 {
            // the peak of one pipeline and its timed slice
            report.end_to_end("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        }
    }
    let run = first.expect("at least one round");
    let ram_outcomes = run
        .ram_outcomes
        .as_ref()
        .expect("the first round checks RAM");
    report.info("pairs", run.pairs.len());
    report.info("clients", CLIENTS);
    report.info("rounds", rounds);
    report.info("digest", format!("\"{:016x}\"", digest(&run.outcomes)));
    report.info("ram_digest", format!("\"{:016x}\"", digest(ram_outcomes)));
    report.check(run.outcomes == *ram_outcomes, || {
        "pipeline_1m (mapped) and route_ram_1m (in RAM) routes differ".into()
    });
    report.end_to_end("setup_s", median_secs(&times, |t| t.0));
    report.end_to_end("pipeline_s", median_secs(&times, |t| t.1));
    report.end_to_end("first_route_ms", median_secs(&cold, |d| *d) * 1e3);
    if !report.trace() {
        route_metrics(report, &run.outcomes, &timed);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(".bench_work").ok();
}

/// One set-up and reference pass of `route_ram_1m`, with its timings.
struct RamRun {
    girg: Girg<2>,
    sample_t: Duration,
    relabel_t: Duration,
    components_t: Duration,
    pairs_t: Duration,
    setup: Duration,
    pipeline: Duration,
    pairs: Vec<(NodeId, NodeId)>,
    outcomes: Vec<PairOutcome>,
}

/// sample → relabel (the set-up) → components → route every pair once.
fn run_ram(seed: u64) -> RamRun {
    let (girg, sample_t) = timed(sample);
    let (girg, relabel_t) = timed(|| relabel(girg));
    let setup = sample_t + relabel_t;
    let ready = Instant::now();
    let (comps, components_t) = timed(|| Components::compute(girg.graph()));
    let (pairs, pairs_t) = timed(|| draw_pairs(&comps, girg.node_count(), PAIRS, pairs_seed(seed)));
    let graph = girg.graph();
    let pass = reference_pass(&pairs, || {
        RamClient::new(graph, GirgObjective::new(&girg), false)
    });
    let pipeline = setup + ready.elapsed();
    let outcomes = outcomes(&pass.records, |v| graph.degree(v));
    RamRun {
        sample_t,
        relabel_t,
        components_t,
        pairs_t,
        setup,
        pipeline,
        pairs,
        outcomes,
        girg,
    }
}

pub fn route_ram_1m(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let rounds = if report.trace() { 1 } else { ROUNDS };
    let slice = args.seconds / rounds as f64;
    let (mut times, mut cold, mut timed) = (Vec::new(), Vec::new(), route::Timed::default());
    let mut first: Option<Vec<PairOutcome>> = None;
    for round in 0..rounds {
        // one graph in memory at a time: the previous round's is dropped
        let run = run_ram(seed);
        times.push((run.setup, run.pipeline));
        let reference = &*first.get_or_insert_with(|| run.outcomes.clone());
        report.check(run.outcomes == *reference, || {
            "route_ram_1m rounds route differently".into()
        });
        let graph = run.girg.graph();
        let objective = GirgObjective::new(&run.girg);
        let n = run.girg.node_count();
        // from the set-up to the first answer: components (to pick
        // connected pairs), the pairs, and the first route
        cold.extend((0..COLD_STARTS).map(|_| {
            let start = Instant::now();
            let comps = Components::compute(graph);
            let (s, t) = draw_pairs(&comps, n, PAIRS, pairs_seed(seed))[0];
            let record = GreedyRouter::new().route_quiet(graph, &objective, s, t);
            std::hint::black_box(record);
            start.elapsed()
        }));
        let plain = || RamClient::new(graph, objective, false);
        let traced = || RamClient::new(graph, objective, true);
        if report.trace() {
            model_layers(report, run.girg.graph().edge_count(), run.sample_t);
            report.layer("graph.relabel_s", run.relabel_t.as_secs_f64());
            report.layer("graph.components_s", run.components_t.as_secs_f64());
            let not_run = [
                "store.write",
                "store.file",
                "store.bytes",
                "store.open",
                "net.",
            ];
            report.layers_not_run(&not_run);
            let mut coverage = Coverage::default();
            coverage.layer("sample", run.sample_t);
            coverage.layer("relabel", run.relabel_t);
            coverage.layer("components", run.components_t);
            coverage.partial("draw pairs", run.pairs_t, Duration::ZERO);
            let pass = reference_pass(&run.pairs, traced);
            let degree = |v: NodeId| graph.degree(v);
            // in RAM there is no decode cache: the untraced LRU tally is zero
            let untraced = Tally::default();
            trace_pass(
                report,
                &run.pairs,
                untraced,
                &run.outcomes,
                pass,
                degree,
                &mut coverage,
            );
            overhead(args, report, &run.pairs, &run.outcomes, plain, traced);
            coverage.report(report);
        } else {
            timed.absorb(route::timed_phase(&run.pairs, &run.outcomes, slice, plain));
        }
        if round == 0 {
            // the peak of one set-up and its timed slice
            report.end_to_end("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
            report.info("pairs", run.pairs.len());
            report.info("clients", CLIENTS);
            report.info("rounds", rounds);
            report.info("digest", format!("\"{:016x}\"", digest(&run.outcomes)));
        }
    }
    report.end_to_end("setup_s", median_secs(&times, |t| t.0));
    report.end_to_end("pipeline_s", median_secs(&times, |t| t.1));
    report.end_to_end("first_route_ms", median_secs(&cold, |d| *d) * 1e3);
    if !report.trace() {
        let reference = first.expect("at least one round");
        route_metrics(report, &reference, &timed);
    }
}
