//! Hub block pruning over a saved store: the adversarial star fixtures of
//! `crates/core/tests/kernel_equivalence.rs`, written to `.swg` and routed
//! decode-free. Over the store's HUBS section the hop at the hub must pick
//! the same neighbor and score the same slots as the in-RAM pruned kernel.
//!
//! The infinite-weight star of that suite is not ported: a store's
//! WEIGHT section holds finite weights only (`packed_weights` rejects
//! `+∞` as corrupt), so no packed objective can be built over it.

use std::cell::Cell;

use smallworld_core::{GirgObjective, GreedyRouter, Objective, PackedGirgObjective, ScoreKernel};
use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};
use smallworld_models::girg::{Girg, GirgParams};
use smallworld_models::Alpha;
use smallworld_store::{write_girg_swg, GraphStore};

/// Forwards every kernel call to `inner` and sums the slots
/// `score_block` scores.
struct Counting<'c, K> {
    inner: K,
    scored: &'c Cell<usize>,
}

impl<K: ScoreKernel> ScoreKernel for Counting<'_, K> {
    fn target(&self) -> NodeId {
        self.inner.target()
    }

    fn score(&self, v: NodeId) -> f64 {
        self.inner.score(v)
    }

    fn score_block(&self, vs: &[NodeId], out: &mut [f64]) {
        self.scored.set(self.scored.get() + vs.len());
        self.inner.score_block(vs, out);
    }

    fn block_bound(&self, row: &[f64]) -> f64 {
        self.inner.block_bound(row)
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
/// distance at least 0.4 from [`STAR_TARGET`].
fn far(count: usize) -> Vec<([f64; 2], f64)> {
    (0..count)
        .map(|i| ([0.05 + 0.0005 * i as f64, 0.05], 1.0))
        .collect()
}

/// `count` weight-1 slots whose box contains [`STAR_TARGET`].
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

fn star_target(girg: &Girg<2>) -> NodeId {
    NodeId::from_index(girg.node_count() - 1)
}

/// Saves `girg`, takes one greedy hop from the hub towards `t` over the
/// mapped store, and checks it against the in-RAM pruned argmax: the same
/// neighbor, and the same number of slots scored. Returns both.
fn mapped_hub_hop(girg: &Girg<2>, t: NodeId, name: &str) -> (NodeId, usize) {
    let path = std::env::temp_dir().join(format!(
        "smallworld-mapped-pruning-{}-{name}.swg",
        std::process::id()
    ));
    write_girg_swg(girg, &path, 1).unwrap();
    let store = GraphStore::open(&path).unwrap();
    let mapped = store.mapped_graph().unwrap();
    assert_eq!(mapped.hub_count(), 1);
    let positions = store.packed_positions().unwrap();
    let weights = store.packed_weights().unwrap();
    let (params, _) = store.params().unwrap();
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    let scored = Cell::new(0);
    let kernel = Counting {
        inner: packed.prepare(t),
        scored: &scored,
    };
    let hub = NodeId::new(0);
    let record =
        GreedyRouter::with_max_steps(1).route_view_quiet(&mut mapped.cursor(), &kernel, hub);
    drop(store);
    std::fs::remove_file(&path).ok();

    let (ram, ram_scored) = GirgObjective::new(girg)
        .prepare(t)
        .best_neighbor_counted(girg.graph(), hub);
    let (_, best) = ram.expect("the hub has neighbors");
    assert_eq!(record.path, [hub, best], "{name}: the hop over the store");
    assert_eq!(
        scored.get(),
        ram_scored,
        "{name}: slots scored over the store"
    );
    (best, scored.get())
}

#[test]
fn equal_phi_in_a_later_block_keeps_the_first() {
    let mut slots = vec![([0.25, 0.5], 10.0)];
    slots.extend(far(63));
    slots.push(([0.75, 0.5], 10.0));
    slots.extend(around_target(63));
    slots.extend(far(128));
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = mapped_hub_hop(&girg, star_target(&girg), "tie");
    assert_eq!(best, NodeId::new(1));
    assert_eq!(scored, 128, "the two far blocks must be skipped");
}

#[test]
fn block_bound_equal_to_best_is_skipped() {
    let mut slots = vec![([0.25, 0.5], 10.0)];
    slots.extend(far(63));
    slots.extend(vec![([0.75, 0.5], 10.0); 64]);
    slots.extend(around_target(128));
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = mapped_hub_hop(&girg, star_target(&girg), "equal-bound");
    assert_eq!(best, NodeId::new(1));
    assert_eq!(scored, 192);
}

#[test]
fn target_inside_a_block_wins_with_infinity() {
    let mut slots = far(64);
    slots.extend(around_target(64));
    slots.extend(far(128));
    // the target is slot 100 (vertex 101), in the second block
    slots[100] = ([0.5, 0.45], 1.0);
    let girg = star(&slots, STAR_TARGET);
    let (best, scored) = mapped_hub_hop(&girg, NodeId::new(101), "target-inside");
    assert_eq!(best, NodeId::new(101));
    assert_eq!(scored, 128, "no block beats +∞ once the target is found");
}

#[test]
fn block_across_the_torus_seam_is_bounded_on_the_torus() {
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
    let (best, scored) = mapped_hub_hop(&girg, star_target(&girg), "seam");
    assert_eq!(best, NodeId::new(105));
    assert_eq!(scored, 128);
}
