//! The simulator takes its argmax from core's pruned fold and changes no
//! packet's fate: on a Morton-relabeled GIRG with hubs, under transient
//! node and link outages, link loss, retries and bounded queues, greedy
//! and patching traffic reports are bitwise the same whether each hop's
//! argmax skips hub blocks (`PreparedObjective` over `GirgObjective`),
//! folds every slot (`PreparedObjective` over `NaiveObjective`) or comes
//! from the simulator's own default fold (a plain closure), at one and
//! two shards. The pruned runs score fewer slots than the full ones.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use smallworld::core::{GirgObjective, NaiveObjective, Objective, PreparedObjective, ScoreKernel};
use smallworld::graph::{Graph, NodeId};
use smallworld::models::girg::{GirgBuilder, HUB_MIN_DEGREE};
use smallworld::net::{
    nodes_from_mask, FaultPlan, FaultSpec, GreedyPolicy, HopPolicy, HopScore, PacketOutcome,
    PatchingPolicy, SimBuilder, SimConfig, SimReport, UniformPairs,
};

/// An objective whose kernels forward every call to `inner`'s and sum
/// the slots `score_block` scores.
struct Counted<'c, O> {
    inner: O,
    scored: &'c AtomicUsize,
}

impl<O: Objective> Objective for Counted<'_, O> {
    fn score(&self, v: NodeId, target: NodeId) -> f64 {
        self.inner.score(v, target)
    }

    type Kernel<'k>
        = Counting<'k, O::Kernel<'k>>
    where
        Self: 'k;

    fn prepare(&self, target: NodeId) -> Self::Kernel<'_> {
        Counting {
            inner: self.inner.prepare(target),
            scored: self.scored,
        }
    }
}

struct Counting<'c, K> {
    inner: K,
    scored: &'c AtomicUsize,
}

impl<K: ScoreKernel> ScoreKernel for Counting<'_, K> {
    fn target(&self) -> NodeId {
        self.inner.target()
    }

    fn score(&self, v: NodeId) -> f64 {
        self.inner.score(v)
    }

    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.scored.fetch_add(vs.len(), Ordering::Relaxed);
        self.inner.score_block(vs, out);
    }

    fn block_bound(&self, row: &[f64]) -> f64 {
        self.inner.block_bound(row)
    }

    fn hub_rows(&self, v: NodeId, list: &[NodeId]) -> Option<&[f64]> {
        self.inner.hub_rows(v, list)
    }
}

/// One traffic scenario: the graph, its faults, the node knobs and the
/// packets.
struct Scenario<'g> {
    graph: &'g Graph,
    plan: FaultPlan,
    config: SimConfig,
    workload: UniformPairs,
    eligible: Vec<NodeId>,
}

impl Scenario<'_> {
    fn run<S: HopScore + Sync>(&self, score: S, patching: bool, shards: usize) -> SimReport {
        if patching {
            self.simulate(PatchingPolicy::new(score), shards)
        } else {
            self.simulate(GreedyPolicy::new(score), shards)
        }
    }

    fn simulate<P>(&self, policy: P, shards: usize) -> SimReport
    where
        P: HopPolicy + Sync,
        P::State: Send,
    {
        SimBuilder::new(self.graph, policy)
            .faults(self.plan)
            .config(self.config)
            .shards(shards)
            .build()
            .expect("valid simulation")
            .run(self.workload.over(&self.eligible))
    }
}

#[test]
fn pruned_simulator_argmax_reports_like_the_full_fold() {
    let mut rng = StdRng::seed_from_u64(5);
    let girg = GirgBuilder::<2>::new(10_000)
        .sample(&mut rng)
        .expect("valid parameters");
    let girg = girg.relabel(&girg.morton_permutation());
    let graph = girg.graph();
    let hubs = girg.hub_blocks().hubs();
    assert!(hubs.len() >= 10, "only {} hubs", hubs.len());
    assert!(hubs.iter().all(|&h| graph.degree(h) >= HUB_MIN_DEGREE));

    let plan = FaultPlan::new(
        FaultSpec {
            loss_rate: 0.05,
            node_fail_rate: 0.1,
            edge_fail_rate: 0.05,
            fail_window: 300,
            repair_after: Some(40),
        },
        3,
    );
    let scenario = Scenario {
        graph,
        plan,
        config: SimConfig {
            queue_capacity: Some(3),
            max_retries: 2,
            timeline_interval: Some(25),
            ..SimConfig::default()
        },
        workload: UniformPairs::new(600, 6.0, 4),
        eligible: nodes_from_mask(&plan.survivor_mask(graph)),
    };

    let pruned = GirgObjective::new(&girg);
    let naive = NaiveObjective(pruned);
    let closure = |v: NodeId, t: NodeId| pruned.score(v, t);
    let (pruned_slots, full_slots) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let counted_pruned = Counted {
        inner: pruned,
        scored: &pruned_slots,
    };
    let counted_full = Counted {
        inner: naive,
        scored: &full_slots,
    };
    for patching in [false, true] {
        for shards in [1, 2] {
            let case = format!("patching={patching} shards={shards}");
            let report = scenario.run(PreparedObjective::new(&pruned), patching, shards);
            assert!(
                report.delivery_rate() > 0.5,
                "{case}: {}",
                report.delivery_rate()
            );
            assert!(
                report.packets.iter().any(|p| p.retries > 0),
                "{case}: no retries"
            );
            assert!(
                report.count(PacketOutcome::Overflow) > 0,
                "{case}: no queue filled"
            );
            let full = scenario.run(PreparedObjective::new(&naive), patching, shards);
            assert!(report == full, "{case}: pruned and full folds differ");
            assert!(
                report == scenario.run(closure, patching, shards),
                "{case}: closure differs"
            );
            let counted = scenario.run(PreparedObjective::new(&counted_pruned), patching, shards);
            assert!(report == counted, "{case}: counted pruned run differs");
            let counted = scenario.run(PreparedObjective::new(&counted_full), patching, shards);
            assert!(report == counted, "{case}: counted full run differs");
        }
    }
    let (pruned_slots, full_slots) = (pruned_slots.into_inner(), full_slots.into_inner());
    assert!(
        pruned_slots < full_slots,
        "pruning scored {pruned_slots} of {full_slots} slots"
    );
}
