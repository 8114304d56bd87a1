//! Cross-cutting equivalence suite for the routing hot path.
//!
//! The prepared score kernels, hub block pruning, and Morton-order
//! relabeling are all *mechanism*, never policy: each must produce
//! `RouteRecord`s bitwise-identical to the naive per-candidate
//! [`Objective::score`] path. These properties hold by construction —
//! kernels hoist exactly the target-dependent factors, and pruning skips
//! only blocks whose bound cannot strictly beat the running best — and
//! this suite enforces them over randomized graphs, objectives, routers,
//! and source/target pairs.

use proptest::prelude::ProptestConfig;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smallworld_core::{
    DistanceObjective, GirgObjective, GravityPressureRouter, GreedyRouter, HistoryRouter,
    HyperbolicObjective, KleinbergObjective, LookaheadRouter, NaiveObjective, Objective,
    PhiDfsRouter, Router, RouterKind, ScoreKernel,
};
use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::{Girg, GirgBuilder, GirgParams, HUB_MIN_DEGREE};
use smallworld_models::{Alpha, HrgBuilder, KleinbergLattice};

fn routers() -> [RouterKind; 5] {
    [
        RouterKind::Greedy(GreedyRouter::new()),
        RouterKind::Lookahead(LookaheadRouter::new()),
        RouterKind::PhiDfs(PhiDfsRouter::new()),
        RouterKind::History(HistoryRouter::new()),
        RouterKind::GravityPressure(GravityPressureRouter::new()),
    ]
}

fn random_pairs(n: u32, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                break (NodeId::new(s), NodeId::new(t));
            }
        })
        .collect()
}

/// Routes the same random pairs under `fast` and `slow` with every router
/// and demands record-for-record equality (outcome *and* full path).
fn assert_identical_records<A, B>(graph: &Graph, fast: &A, slow: &B, pairs: usize, seed: u64)
where
    A: Objective,
    B: Objective,
{
    for router in routers() {
        for &(s, t) in &random_pairs(graph.node_count() as u32, pairs, seed) {
            let a = router.route_quiet(graph, fast, s, t);
            let b = router.route_quiet(graph, slow, s, t);
            assert_eq!(a, b, "router {} diverged on {s} -> {t}", router.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Specialized GIRG and distance kernels vs the naive score path on
    /// randomized GIRGs.
    #[test]
    fn prop_girg_kernels_match_naive(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(400).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            assert_identical_records(
                girg.graph(),
                &GirgObjective::new(&girg),
                &NaiveObjective(GirgObjective::new(&girg)),
                6,
                seed ^ 0xA5A5,
            );
            assert_identical_records(
                girg.graph(),
                &DistanceObjective::for_girg(&girg),
                &NaiveObjective(DistanceObjective::for_girg(&girg)),
                6,
                seed ^ 0x5A5A,
            );
        }
    }

    /// Hyperbolic and Kleinberg kernels vs the naive score path.
    #[test]
    fn prop_hrg_and_kleinberg_kernels_match_naive(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hrg = HrgBuilder::new(200).sample(&mut rng).unwrap();
        assert_identical_records(
            hrg.graph(),
            &HyperbolicObjective::new(&hrg),
            &NaiveObjective(HyperbolicObjective::new(&hrg)),
            6,
            seed ^ 0xC3C3,
        );
        let kl = KleinbergLattice::sample(10, 2.0, 1, &mut rng).unwrap();
        assert_identical_records(
            kl.graph(),
            &KleinbergObjective::new(&kl),
            &NaiveObjective(KleinbergObjective::new(&kl)),
            6,
            seed ^ 0x3C3C,
        );
    }

    /// Morton relabeling is invisible through the permutation: routing the
    /// relabeled graph between forward-mapped endpoints and mapping the
    /// path back yields the original-id route exactly. (Argmax routers on
    /// a sampled GIRG — continuous positions make score ties measure-zero,
    /// so neighbor-order changes cannot redirect the packet.)
    #[test]
    fn prop_morton_relabeled_paths_map_back(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let girg = GirgBuilder::<2>::new(400).beta(2.5).sample(&mut rng).unwrap();
        if girg.node_count() >= 2 {
            let perm = girg.morton_permutation();
            let relabeled = girg.relabel(&perm);
            let obj = GirgObjective::new(&girg);
            let obj_re = GirgObjective::new(&relabeled);
            let argmax_routers = [
                RouterKind::Greedy(GreedyRouter::new()),
                RouterKind::Lookahead(LookaheadRouter::new()),
            ];
            for router in argmax_routers {
                for &(s, t) in &random_pairs(girg.node_count() as u32, 6, seed ^ 0x4444) {
                    let original = router.route_quiet(girg.graph(), &obj, s, t);
                    let mapped = router.route_quiet(
                        relabeled.graph(),
                        &obj_re,
                        perm.forward(s),
                        perm.forward(t),
                    );
                    assert_eq!(original.outcome, mapped.outcome);
                    assert_eq!(original.path, perm.path_to_original(&mapped.path));
                }
            }
        }
    }
}

/// A Morton-relabeled GIRG dense enough that dozens of vertices have
/// hub-summarized lists (degree at least `HUB_MIN_DEGREE`).
fn hub_heavy_girg(seed: u64) -> Girg<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let girg = GirgBuilder::<2>::new(2_000)
        .beta(2.3)
        .sample(&mut rng)
        .unwrap();
    girg.relabel(&girg.morton_permutation())
}

/// The hubs of `graph`: the vertices whose lists are block-summarized.
fn hubs(graph: &Graph) -> Vec<NodeId> {
    graph
        .nodes()
        .filter(|&v| graph.degree(v) >= HUB_MIN_DEGREE)
        .collect()
}

/// Pins the pruned argmax of `girg`'s own objective at `v` towards `t`
/// bitwise to the full first-best scan of the naive objective over
/// `graph`, and returns it with the number of slots the pruned scan
/// scored.
fn pruned_argmax(
    girg: &Girg<2>,
    graph: &Graph,
    v: NodeId,
    t: NodeId,
) -> (Option<(f64, NodeId)>, usize) {
    let objective = GirgObjective::new(girg);
    let (pruned, scored) = objective.prepare(t).best_neighbor_counted(graph, v);
    let full = NaiveObjective(objective).prepare(t).best_neighbor(graph, v);
    assert_eq!(
        pruned.map(|(s, u)| (s.to_bits(), u)),
        full.map(|(s, u)| (s.to_bits(), u)),
        "argmax at {v} towards {t}: pruned {pruned:?} vs full {full:?}"
    );
    assert!(scored <= graph.degree(v));
    (pruned, scored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Hub block pruning is pure mechanism: on Morton-relabeled GIRGs the
    /// pruned argmax of every hub equals the full first-best scan, routes
    /// equal the naive objective's, and blocks really are skipped.
    #[test]
    fn prop_pruned_hub_scan_matches_full_scan(seed in 0u64..1 << 32) {
        let girg = hub_heavy_girg(seed);
        let graph = girg.graph();
        let hubs = hubs(graph);
        assert!(hubs.len() >= 10, "only {} hubs", hubs.len());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
        let (mut scored, mut slots) = (0, 0);
        for &v in &hubs {
            for _ in 0..8 {
                let t = NodeId::from_index(rng.gen_range(0..girg.node_count()));
                scored += pruned_argmax(&girg, graph, v, t).1;
                slots += graph.degree(v);
            }
        }
        // at this size about half the hub slots are skipped
        assert!(
            4 * scored < 3 * slots,
            "pruning skipped too little: {scored} of {slots} slots scored"
        );
        for &(s, t) in &random_pairs(girg.node_count() as u32, 100, seed ^ 0x7777) {
            let router = GreedyRouter::new();
            assert_eq!(
                router.route_quiet(graph, &GirgObjective::new(&girg), s, t),
                router.route_quiet(graph, &NaiveObjective(GirgObjective::new(&girg)), s, t),
            );
        }
    }
}

/// The summaries describe the slots of the GIRG's own graph only. Routing
/// the GIRG's objective over another graph with the same vertex count —
/// here every hub has lost the first half of its list — must scan in full
/// and agree with the naive objective.
#[test]
fn pruning_is_off_over_a_foreign_graph() {
    let girg = hub_heavy_girg(21);
    let graph = girg.graph();
    let hubs = hubs(graph);
    let dropped: std::collections::HashSet<(NodeId, NodeId)> = hubs
        .iter()
        .flat_map(|&h| {
            let ns = graph.neighbors(h);
            ns[..ns.len() / 2]
                .iter()
                .map(move |&u| (h.min(u), h.max(u)))
        })
        .collect();
    let foreign = Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .filter(|&(u, v)| !dropped.contains(&(u.min(v), u.max(v))))
            .map(|(u, v)| (u.raw(), v.raw())),
    )
    .unwrap();
    assert_eq!(foreign.node_count(), graph.node_count());
    let mut rng = StdRng::seed_from_u64(22);
    for &v in hubs
        .iter()
        .filter(|&&h| foreign.degree(h) >= HUB_MIN_DEGREE)
    {
        for _ in 0..8 {
            let t = NodeId::from_index(rng.gen_range(0..girg.node_count()));
            assert_eq!(pruned_argmax(&girg, &foreign, v, t).1, foreign.degree(v));
        }
    }
    let router = GreedyRouter::new();
    for &(s, t) in &random_pairs(girg.node_count() as u32, 200, 23) {
        assert_eq!(
            router.route_quiet(&foreign, &GirgObjective::new(&girg), s, t),
            router.route_quiet(&foreign, &NaiveObjective(GirgObjective::new(&girg)), s, t),
        );
    }
}

/// Target of every star fixture unless a test picks a neighbor.
const STAR_TARGET: [f64; 2] = [0.5, 0.5];

/// A star: hub `0` adjacent to vertices `1..=slots.len()` (slot order =
/// id order), plus an isolated last vertex at `target`. Slot `i` has the
/// position and weight `slots[i]`.
fn star(slots: &[([f64; 2], f64)], target: [f64; 2]) -> Girg<2> {
    let n = slots.len() + 2;
    let edges: Vec<(u32, u32)> = (1..=slots.len() as u32).map(|u| (0, u)).collect();
    let graph = Graph::from_edges(n, edges).unwrap();
    let mut positions = vec![Point::new([0.0, 0.0])];
    let mut weights = vec![1.0];
    for &(p, w) in slots {
        positions.push(Point::new(p));
        weights.push(w);
    }
    positions.push(Point::new(target));
    weights.push(1.0);
    let params = GirgParams {
        intensity: n as f64,
        beta: 2.5,
        wmin: 1.0,
        alpha: Alpha::Finite(2.0),
        lambda: 1.0,
    };
    Girg::from_parts(graph, positions, weights, params, 0)
}

/// `count` weight-1 slots near the corner `(0.05, 0.05)`, at max-norm
/// distance at least 0.4 from [`STAR_TARGET`]: their blocks bound φ far
/// below every fixture's best and are skipped.
fn far(count: usize) -> Vec<([f64; 2], f64)> {
    (0..count)
        .map(|i| ([0.05 + 0.0005 * i as f64, 0.05], 1.0))
        .collect()
}

/// `count` weight-1 slots whose box contains [`STAR_TARGET`] (bound `+∞`,
/// never skipped against a finite best) and whose φ stays below 160/n.
fn around_target(count: usize) -> Vec<([f64; 2], f64)> {
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                ([0.4, 0.4], 1.0)
            } else {
                ([0.6, 0.6], 1.0)
            }
        })
        .collect()
}

/// The star's hub argmax towards `t`, checked against the full scan,
/// with the number of slots scored.
fn star_argmax(girg: &Girg<2>, t: NodeId) -> (Option<(f64, NodeId)>, usize) {
    pruned_argmax(girg, girg.graph(), NodeId::new(0), t)
}

fn star_target(girg: &Girg<2>) -> NodeId {
    NodeId::from_index(girg.node_count() - 1)
}

#[test]
fn star_equal_phi_in_a_later_block_keeps_the_first() {
    // A (slot 0) and B (slot 64) mirror each other around the target: same
    // weight, same distance 0.25, bitwise-equal φ; B's block holds the
    // target in its box, so it is scored, and the tie keeps A
    let mut slots = vec![([0.25, 0.5], 10.0)];
    slots.extend(far(63));
    slots.push(([0.75, 0.5], 10.0));
    slots.extend(around_target(63));
    slots.extend(far(128));
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = star_argmax(&girg, star_target(&girg));
    assert_eq!(best.unwrap().1, NodeId::new(1));
    assert_eq!(scored, 128, "the two far blocks must be skipped");
}

#[test]
fn star_block_bound_equal_to_best_is_skipped() {
    // block 1 is 64 copies of A's mirror image: its box is one point, so
    // its bound is bitwise A's φ — equal, not better, so it is skipped
    let mut slots = vec![([0.25, 0.5], 10.0)];
    slots.extend(far(63));
    slots.extend(vec![([0.75, 0.5], 10.0); 64]);
    slots.extend(around_target(128));
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = star_argmax(&girg, star_target(&girg));
    assert_eq!(best.unwrap().1, NodeId::new(1));
    assert_eq!(scored, 192);
}

#[test]
fn star_target_inside_a_block_wins_with_infinity() {
    let mut slots = far(64);
    slots.extend(around_target(64));
    slots.extend(far(128));
    // the target is slot 100 (vertex 101), in the second block
    slots[100] = ([0.5, 0.45], 1.0);
    let girg = star(&slots, STAR_TARGET);
    let t = NodeId::new(101);
    let (best, scored) = star_argmax(&girg, t);
    assert_eq!(best, Some((f64::INFINITY, t)));
    assert_eq!(scored, 128, "no block beats +∞ once the target is found");
}

#[test]
fn star_infinite_weight_keeps_the_first_and_ends_the_scan() {
    let mut slots = far(64);
    slots.extend(far(64));
    slots[70] = ([0.8, 0.8], f64::INFINITY);
    slots.extend(far(64));
    slots[140] = ([0.2, 0.2], f64::INFINITY);
    slots.extend(around_target(64));
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = star_argmax(&girg, star_target(&girg));
    assert_eq!(best, Some((f64::INFINITY, NodeId::new(71))));
    assert_eq!(scored, 128);
}

#[test]
fn star_block_across_the_torus_seam_is_bounded_on_the_torus() {
    // target at x = 0.001: block 1 spans x in [0.02, 0.99], whose nearest
    // point to the target is x = 0.99 at torus distance 0.011 across the
    // seam (not 0.019 at x = 0.02); the slot there beats block 0's best
    let target = [0.001, 0.5];
    let mut slots: Vec<([f64; 2], f64)> = vec![([0.016, 0.5], 1.0)];
    slots.extend((1..64).map(|i| ([0.3 + 0.001 * i as f64, 0.5], 1.0)));
    slots.extend((0..64).map(|i| {
        if i == 40 {
            ([0.99, 0.5], 1.0)
        } else {
            ([0.02, 0.5], 1.0)
        }
    }));
    slots.extend((0..128).map(|i| ([0.5 + 0.001 * i as f64, 0.5], 1.0)));
    let girg = star(&slots, target);
    let (best, scored) = star_argmax(&girg, star_target(&girg));
    assert_eq!(best.unwrap().1, NodeId::new(105));
    assert_eq!(scored, 128);
}
