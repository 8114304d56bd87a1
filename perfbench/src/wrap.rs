//! Timing and counting wrappers around the library's public traits.
//!
//! The benchmark measures each layer from outside: it wraps the
//! [`AdjacencyView`] a router walks, the [`Objective`]/[`ScoreKernel`] a
//! router scores with, and the [`HopScore`] a simulator's policy scores
//! with. Every wrapper forwards to the wrapped value unchanged, so routes
//! and simulation summaries through a wrapper are bitwise those of the
//! unwrapped call (the tests below pin this).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smallworld_core::{Objective, ScoreKernel};
use smallworld_graph::{AdjacencyView, Graph, NodeId};
use smallworld_net::HopScore;

/// What a [`TimedView`] saw: neighbor-list fetches, the slots they
/// returned, the time from the call to the list being handed over
/// (decode, LRU lookup included) and the time spent inside the callback
/// (scoring).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    pub fetches: u64,
    pub slots: u64,
    pub decode: Duration,
    pub score: Duration,
}

/// An [`AdjacencyView`] that times `with_neighbors` up to the callback
/// (decode) and inside it (score), and counts the slots handed over.
#[derive(Debug)]
pub struct TimedView<V> {
    inner: V,
    stats: ViewStats,
}

impl<V: AdjacencyView> TimedView<V> {
    pub fn new(inner: V) -> Self {
        TimedView {
            inner,
            stats: ViewStats::default(),
        }
    }

    pub fn stats(&self) -> ViewStats {
        self.stats
    }

    pub fn inner(&self) -> &V {
        &self.inner
    }
}

impl<V: AdjacencyView> AdjacencyView for TimedView<V> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        let called = Instant::now();
        let (result, entered, scored, slots) = self.inner.with_neighbors(v, |ns| {
            let entered = Instant::now();
            let result = f(ns);
            (result, entered, Instant::now(), ns.len())
        });
        self.stats.fetches += 1;
        self.stats.slots += slots as u64;
        self.stats.decode += entered - called;
        self.stats.score += scored - entered;
        result
    }
}

/// Per-thread tallies of a [`TimedObjective`]'s kernels: `best_neighbor`
/// calls, the neighbor slots they scanned and the time they took.
#[derive(Debug, Default)]
pub struct KernelStats {
    pub calls: Cell<u64>,
    pub slots: Cell<u64>,
    pub score: Cell<Duration>,
}

/// An [`Objective`] whose kernels time and count every
/// [`ScoreKernel::best_neighbor`] call of the wrapped objective's kernel.
/// Not `Sync`: each client thread wraps the objective with its own stats.
#[derive(Debug)]
pub struct TimedObjective<'s, O> {
    inner: O,
    stats: &'s KernelStats,
}

impl<'s, O: Objective> TimedObjective<'s, O> {
    pub fn new(inner: O, stats: &'s KernelStats) -> Self {
        TimedObjective { inner, stats }
    }
}

impl<O: Objective> Objective for TimedObjective<'_, O> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.inner.score(v, target)
    }

    type Kernel<'k>
        = TimedKernel<'k, O::Kernel<'k>>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        TimedKernel {
            inner: self.inner.prepare(target),
            stats: self.stats,
        }
    }
}

/// Kernel of a [`TimedObjective`].
#[derive(Debug)]
pub struct TimedKernel<'s, K> {
    inner: K,
    stats: &'s KernelStats,
}

impl<K: ScoreKernel> ScoreKernel for TimedKernel<'_, K> {
    fn target(&self) -> NodeId {
        self.inner.target()
    }

    #[inline]
    fn score(&self, v: NodeId) -> f64 {
        self.inner.score(v)
    }

    #[inline]
    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.inner.score_block(vs, out);
    }

    fn best_neighbor(&self, graph: &Graph, v: NodeId) -> Option<(f64, NodeId)> {
        let start = Instant::now();
        let best = self.inner.best_neighbor(graph, v);
        let s = &self.stats;
        s.score.set(s.score.get() + start.elapsed());
        s.calls.set(s.calls.get() + 1);
        s.slots.set(s.slots.get() + graph.degree(v) as u64);
        best
    }
}

/// Padded counter lanes so simulator shards on different threads never
/// share a cache line while counting.
const LANES: usize = 16;

#[repr(align(128))]
#[derive(Debug, Default)]
struct Lane(AtomicU64);

static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LANE: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES;
}

/// Candidate scores counted by [`CountingScore`]s, summed over threads.
#[derive(Debug, Default)]
pub struct ScoreCounter {
    lanes: [Lane; LANES],
}

impl ScoreCounter {
    pub fn total(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }

    #[inline]
    fn add(&self, n: usize) {
        let lane = LANE.with(|l| *l);
        self.lanes[lane].0.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// A [`HopScore`] that counts the candidate scores it computes into a
/// [`ScoreCounter`]: one per `score` call or prepared-closure call, one
/// per candidate of a `score_block` call.
#[derive(Debug)]
pub struct CountingScore<'c, S> {
    inner: S,
    counter: &'c ScoreCounter,
}

impl<'c, S: HopScore> CountingScore<'c, S> {
    pub fn new(inner: S, counter: &'c ScoreCounter) -> Self {
        CountingScore { inner, counter }
    }
}

impl<S: HopScore> HopScore for CountingScore<'_, S> {
    fn score(&self, candidate: NodeId, target: NodeId) -> f64 {
        self.counter.add(1);
        self.inner.score(candidate, target)
    }

    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        let prepared = self.inner.prepare(target);
        move |v| {
            self.counter.add(1);
            prepared(v)
        }
    }

    #[inline]
    fn score_block(&self, target: NodeId, candidates: &[NodeId], out: &mut [f64]) {
        self.counter.add(candidates.len());
        self.inner.score_block(target, candidates, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use smallworld_core::{
        GirgObjective, GreedyRouter, NoopObserver, PackedGirgObjective, PreparedObjective,
        RouteRecord, RouteScratch, Router, ViewRouter,
    };
    use smallworld_models::girg::{Girg, GirgBuilder};
    use smallworld_net::{
        nodes_from_mask, FaultPlan, FaultSpec, GreedyPolicy, SimBuilder, SimConfig, UniformPairs,
    };
    use smallworld_store::GraphStore;

    fn small_girg(seed: u64) -> Girg<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(3_000)
            .sample(&mut rng)
            .expect("valid parameters");
        girg.relabel(&girg.morton_permutation())
    }

    fn pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (
                    NodeId::from_index(rng.gen_range(0..n)),
                    NodeId::from_index(rng.gen_range(0..n)),
                )
            })
            .collect()
    }

    /// Slots a greedy route scans: the degree of every vertex whose
    /// neighbor list the loop fetched.
    fn path_slots(record: &RouteRecord, degree: impl Fn(NodeId) -> usize) -> u64 {
        crate::route::scanned(record)
            .iter()
            .map(|&v| degree(v) as u64)
            .sum()
    }

    #[test]
    fn timed_objective_routes_bitwise_like_the_plain_objective() {
        let girg = small_girg(7);
        let graph = girg.graph();
        let router = GreedyRouter::new();
        let plain = GirgObjective::new(&girg);
        let stats = KernelStats::default();
        let timed = TimedObjective::new(GirgObjective::new(&girg), &stats);
        let mut expected_slots = 0;
        let mut scratch = RouteScratch::new();
        for (s, t) in pairs(girg.node_count(), 200, 3) {
            let want = router.route_with(graph, &plain, s, t, &mut NoopObserver, &mut scratch);
            let got = router.route_with(graph, &timed, s, t, &mut NoopObserver, &mut scratch);
            assert_eq!(got, want);
            expected_slots += path_slots(&want, |v| graph.degree(v));
        }
        assert_eq!(stats.slots.get(), expected_slots);
        assert!(stats.calls.get() > 0);
    }

    #[test]
    fn timed_view_routes_bitwise_like_the_bare_cursor() {
        let girg = small_girg(11);
        let path = std::env::temp_dir().join(format!("perfbench-wrap-{}.swg", std::process::id()));
        smallworld_store::save_girg(&girg, &path, 1).expect("store written");
        let store = GraphStore::open(&path).expect("store opens");
        let mapped = store.mapped_graph().expect("mapped view");
        let positions = store.packed_positions().expect("positions");
        let weights = store.packed_weights().expect("weights");
        let (params, _) = store.params().expect("params");
        let objective =
            PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
        let router = ViewRouter::new();
        let mut bare = mapped.cursor();
        let mut timed = TimedView::new(mapped.cursor());
        let mut expected_slots = 0;
        let mut scratch = RouteScratch::new();
        for (s, t) in pairs(girg.node_count(), 200, 5) {
            let kernel = objective.prepare(t);
            let want = router.route_view(&mut bare, &kernel, s, &mut NoopObserver, &mut scratch);
            let got = router.route_view(&mut timed, &kernel, s, &mut NoopObserver, &mut scratch);
            assert_eq!(got, want);
            expected_slots += path_slots(&want, |v| girg.graph().degree(v));
        }
        let stats = timed.stats();
        assert_eq!(stats.slots, expected_slots);
        assert_eq!(timed.inner().hits(), bare.hits());
        assert_eq!(timed.inner().misses(), bare.misses());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_score_leaves_sim_summaries_unchanged() {
        let girg = small_girg(13);
        let spec = FaultSpec {
            loss_rate: 0.05,
            node_fail_rate: 0.1,
            fail_window: 100,
            repair_after: Some(50),
            ..FaultSpec::none()
        };
        let config = SimConfig {
            queue_capacity: Some(8),
            max_retries: 3,
            timeline_interval: Some(50),
            ..SimConfig::default()
        };
        let objective = GirgObjective::new(&girg);
        let plan = FaultPlan::new(spec, 21);
        let eligible = nodes_from_mask(&plan.survivor_mask(girg.graph()));
        let workload = UniformPairs::new(600, 1.0, 22);
        let run = |shards| {
            let plain = SimBuilder::new(
                girg.graph(),
                GreedyPolicy::new(PreparedObjective::new(&objective)),
            )
            .faults(plan)
            .config(config)
            .shards(shards)
            .build()
            .expect("valid sim")
            .run_summary(workload.over(&eligible));
            let counter = ScoreCounter::default();
            let counting = CountingScore::new(PreparedObjective::new(&objective), &counter);
            let counted = SimBuilder::new(girg.graph(), GreedyPolicy::new(counting))
                .faults(plan)
                .config(config)
                .shards(shards)
                .build()
                .expect("valid sim")
                .run_summary(workload.over(&eligible));
            assert_eq!(counted, plain, "shards={shards}");
            counter.total()
        };
        let serial = run(1);
        assert!(serial > 0);
        assert_eq!(run(2), serial, "score count is shard-count invariant");
    }
}
