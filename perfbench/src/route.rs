//! Closed-loop routing clients: the reference pass over a fixed pair set
//! and the timed phase that loops over it until a deadline.
//!
//! The pairs are split statically: client `k` of `CLIENTS` routes pairs
//! `k, k + CLIENTS, …` in order, and starts every pass with a fresh decode
//! cache. So each pass performs exactly the same work, and every count
//! (slots, hops, LRU hits and misses) repeats exactly from pass to pass,
//! run to run and between traced and untraced runs.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld_core::{
    GirgObjective, GreedyRouter, NoopObserver, Objective, PackedGirgObjective, RouteOutcome,
    RouteRecord, RouteScratch, Router, ViewRouter,
};
use smallworld_graph::{Components, Graph, NodeId};
use smallworld_store::{MappedCursor, MappedGraph};

use crate::wrap::{KernelStats, TimedObjective, TimedView, ViewStats};

/// Closed-loop client threads of both routing workloads.
pub const CLIENTS: usize = 2;

/// Draws `count` source/target pairs with `s != t` in one component.
pub fn draw_pairs(comps: &Components, n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(
        comps.largest_size() >= 2,
        "no two vertices share a component"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let s = NodeId::from_index(rng.gen_range(0..n));
            let t = NodeId::from_index(rng.gen_range(0..n));
            if s != t && comps.same_component(s, t) {
                break (s, t);
            }
        })
        .collect()
}

/// The vertices whose neighbor lists the greedy loop fetched: every path
/// vertex, except the last one of a delivered or step-capped route.
pub fn scanned(record: &RouteRecord) -> &[NodeId] {
    match record.outcome {
        RouteOutcome::DeadEnd => &record.path,
        RouteOutcome::Delivered | RouteOutcome::MaxStepsExceeded => {
            &record.path[..record.path.len() - 1]
        }
    }
}

/// One pair's result: what the cross-workload digest compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairOutcome {
    pub outcome: RouteOutcome,
    pub hops: usize,
    /// Neighbor slots scanned, derived from the path as the sum of the
    /// scanned vertices' degrees.
    pub slots: u64,
}

/// FNV-1a over every pair's (outcome, hops, slots), for logs.
pub fn digest(outcomes: &[PairOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        let code = match o.outcome {
            RouteOutcome::Delivered => 0u64,
            RouteOutcome::DeadEnd => 1,
            RouteOutcome::MaxStepsExceeded => 2,
        };
        for word in [code, o.hops as u64, o.slots] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Layer tallies a client accumulates: zero for untraced clients, except
/// the LRU counters, which the cursor keeps itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub slots: u64,
    pub decode: Duration,
    pub score: Duration,
    pub lru_hits: u64,
    pub lru_misses: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.slots += o.slots;
        self.decode += o.decode;
        self.score += o.score;
        self.lru_hits += o.lru_hits;
        self.lru_misses += o.lru_misses;
    }
}

/// One routing client: owns whatever per-thread state its router needs.
pub trait Client {
    /// Starts a pass over the client's pairs.
    fn begin_pass(&mut self);
    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord;
    /// Tallies since the client was created.
    fn tally(&self) -> Tally;
}

/// `GreedyRouter::route_with` + `GirgObjective` over the in-RAM graph.
pub struct RamClient<'g> {
    graph: &'g Graph,
    objective: GirgObjective<'g, 2>,
    /// Present when traced: the kernel wrapper's per-thread stats.
    stats: Option<KernelStats>,
}

impl<'g> RamClient<'g> {
    pub fn new(graph: &'g Graph, objective: GirgObjective<'g, 2>, traced: bool) -> Self {
        RamClient {
            graph,
            objective,
            stats: traced.then(KernelStats::default),
        }
    }
}

impl Client for RamClient<'_> {
    fn begin_pass(&mut self) {}

    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let router = GreedyRouter::new();
        match &self.stats {
            None => router.route_with(
                self.graph,
                &self.objective,
                s,
                t,
                &mut NoopObserver,
                scratch,
            ),
            Some(stats) => {
                let timed = TimedObjective::new(self.objective, stats);
                router.route_with(self.graph, &timed, s, t, &mut NoopObserver, scratch)
            }
        }
    }

    fn tally(&self) -> Tally {
        self.stats.as_ref().map_or_else(Tally::default, |s| Tally {
            slots: s.slots.get(),
            score: s.score.get(),
            ..Tally::default()
        })
    }
}

/// A cursor the mapped client can route over, plain or wrapped.
pub trait MappedView<'m>: smallworld_graph::AdjacencyView {
    fn wrap(cursor: MappedCursor<'m>) -> Self;
    fn lru(&self) -> (u64, u64);
    fn view_stats(&self) -> ViewStats;
}

impl<'m> MappedView<'m> for MappedCursor<'m> {
    fn wrap(cursor: MappedCursor<'m>) -> Self {
        cursor
    }
    fn lru(&self) -> (u64, u64) {
        (self.hits(), self.misses())
    }
    fn view_stats(&self) -> ViewStats {
        ViewStats::default()
    }
}

impl<'m> MappedView<'m> for TimedView<MappedCursor<'m>> {
    fn wrap(cursor: MappedCursor<'m>) -> Self {
        TimedView::new(cursor)
    }
    fn lru(&self) -> (u64, u64) {
        (self.inner().hits(), self.inner().misses())
    }
    fn view_stats(&self) -> ViewStats {
        self.stats()
    }
}

/// `ViewRouter::route_view` + `PackedGirgObjective` over
/// `MappedGraph::cursor()`, decode-free.
pub struct MappedClient<'m, V> {
    mapped: &'m MappedGraph<'m>,
    objective: &'m PackedGirgObjective<'m, 2>,
    view: V,
    /// Tallies of the cursors of finished passes.
    done: Tally,
}

impl<'m, V: MappedView<'m>> MappedClient<'m, V> {
    pub fn new(mapped: &'m MappedGraph<'m>, objective: &'m PackedGirgObjective<'m, 2>) -> Self {
        MappedClient {
            mapped,
            objective,
            view: V::wrap(mapped.cursor()),
            done: Tally::default(),
        }
    }

    fn view_tally(&self) -> Tally {
        let (lru_hits, lru_misses) = self.view.lru();
        let stats = self.view.view_stats();
        Tally {
            slots: stats.slots,
            decode: stats.decode,
            score: stats.score,
            lru_hits,
            lru_misses,
        }
    }
}

impl<'m, V: MappedView<'m>> Client for MappedClient<'m, V> {
    fn begin_pass(&mut self) {
        let finished = self.view_tally();
        self.done.add(&finished);
        self.view = V::wrap(self.mapped.cursor());
    }

    fn route(&mut self, s: NodeId, t: NodeId, scratch: &mut RouteScratch) -> RouteRecord {
        let kernel = self.objective.prepare(t);
        ViewRouter::new().route_view(&mut self.view, &kernel, s, &mut NoopObserver, scratch)
    }

    fn tally(&self) -> Tally {
        let mut t = self.done;
        t.add(&self.view_tally());
        t
    }
}

/// The result of one reference pass over all pairs.
pub struct Pass {
    /// Route records in pair order.
    pub records: Vec<RouteRecord>,
    /// Σ over clients of the time spent inside route calls.
    pub route_time: Duration,
    /// Σ over clients of each client thread's wall time.
    pub thread_time: Duration,
    pub tally: Tally,
}

/// Routes every pair once with `CLIENTS` closed-loop client threads.
pub fn reference_pass<C: Client>(pairs: &[(NodeId, NodeId)], make: impl Fn() -> C + Sync) -> Pass {
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let make = &make;
                scope.spawn(move || {
                    let began = Instant::now();
                    let mut client = make();
                    client.begin_pass();
                    let mut scratch = RouteScratch::with_path_capacity(32);
                    let mut records = Vec::new();
                    let mut route_time = Duration::ZERO;
                    for i in (k..pairs.len()).step_by(CLIENTS) {
                        let (s, t) = pairs[i];
                        let t0 = Instant::now();
                        let record = client.route(s, t, &mut scratch);
                        route_time += t0.elapsed();
                        records.push((i, record));
                    }
                    (records, route_time, began.elapsed(), client.tally())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<RouteRecord>> = vec![None; pairs.len()];
    let mut pass = Pass {
        records: Vec::new(),
        route_time: Duration::ZERO,
        thread_time: Duration::ZERO,
        tally: Tally::default(),
    };
    for (records, route_time, thread_time, tally) in per_client {
        for (i, r) in records {
            slots[i] = Some(r);
        }
        pass.route_time += route_time;
        pass.thread_time += thread_time;
        pass.tally.add(&tally);
    }
    pass.records = slots
        .into_iter()
        .map(|r| r.expect("every pair routed"))
        .collect();
    pass
}

/// Summarizes records into per-pair outcomes, deriving each route's slot
/// count from its path and `degree`.
pub fn outcomes(
    records: &[RouteRecord],
    mut degree: impl FnMut(NodeId) -> usize,
) -> Vec<PairOutcome> {
    records
        .iter()
        .map(|r| PairOutcome {
            outcome: r.outcome,
            hops: r.hops(),
            slots: scanned(r).iter().map(|&v| degree(v) as u64).sum(),
        })
        .collect()
}

/// One client's complete pass of a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct PassStat {
    pub routes_per_s: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The result of a timed phase.
#[derive(Default)]
pub struct Timed {
    pub routes: u64,
    /// Routes whose outcome or hop count differs from the reference pass.
    pub mismatches: u64,
    /// Every client's complete passes (a client with none contributes its
    /// partial one), one list per client.
    pub passes: Vec<Vec<PassStat>>,
}

impl Timed {
    /// Pools another phase's passes into this one, client by client.
    pub fn absorb(&mut self, other: Timed) {
        self.routes += other.routes;
        self.mismatches += other.mismatches;
        for (k, passes) in other.passes.into_iter().enumerate() {
            if self.passes.len() <= k {
                self.passes.push(Vec::new());
            }
            self.passes[k].extend(passes);
        }
    }

    /// Σ over clients of the client's median pass rate.
    pub fn routes_per_s(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| median(p.iter().map(|s| s.routes_per_s).collect()))
            .sum()
    }

    /// Median over all passes of each pass's `pick` latency, in µs.
    pub fn latency_us(&self, pick: impl Fn(&PassStat) -> u64) -> f64 {
        median(
            self.passes
                .iter()
                .flatten()
                .map(|s| pick(s) as f64 / 1e3)
                .collect(),
        )
    }

    pub fn pass_count(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn pass_stat(latencies: &mut [u64], secs: f64) -> PassStat {
    PassStat {
        routes_per_s: latencies.len() as f64 / secs,
        p50_ns: quantile(latencies, 0.50),
        p99_ns: quantile(latencies, 0.99),
    }
}

/// Loops every client over its share of the pairs, pass after pass,
/// until `seconds` have elapsed, timing each route call and each pass.
pub fn timed_phase<C: Client>(
    pairs: &[(NodeId, NodeId)],
    reference: &[PairOutcome],
    seconds: f64,
    make: impl Fn() -> C + Sync,
) -> Timed {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<PassStat>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let make = &make;
                scope.spawn(move || {
                    let mut client = make();
                    let mut scratch = RouteScratch::with_path_capacity(32);
                    let mut latencies = Vec::new();
                    let mut passes = Vec::new();
                    let (mut routes, mut mismatches) = (0u64, 0u64);
                    loop {
                        let began = Instant::now();
                        client.begin_pass();
                        latencies.clear();
                        let mut finished = true;
                        for i in (k..pairs.len()).step_by(CLIENTS) {
                            let (s, t) = pairs[i];
                            let t0 = Instant::now();
                            let record = client.route(s, t, &mut scratch);
                            let t1 = Instant::now();
                            latencies.push((t1 - t0).as_nanos() as u64);
                            let want = &reference[i];
                            if record.outcome != want.outcome || record.hops() != want.hops {
                                mismatches += 1;
                            }
                            scratch.recycle(record.path);
                            if t1 >= deadline {
                                finished = i + CLIENTS >= pairs.len();
                                break;
                            }
                        }
                        routes += latencies.len() as u64;
                        if finished || passes.is_empty() {
                            passes.push(pass_stat(&mut latencies, began.elapsed().as_secs_f64()));
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (passes, routes, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timed = Timed {
        routes: 0,
        mismatches: 0,
        passes: Vec::new(),
    };
    for (passes, routes, mismatches) in per_client {
        timed.routes += routes;
        timed.mismatches += mismatches;
        timed.passes.push(passes);
    }
    timed
}

/// The `q`-quantile (nearest rank) of unsorted samples; sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}
