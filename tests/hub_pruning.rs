//! Hub block pruning changes no route: on a Morton-relabeled GIRG the
//! pruned in-RAM greedy router, the full-scan naive objective, the
//! decode-free router over the saved `.swg` store and the shard-local
//! router over the store's four shards walk the same paths. The store's
//! HUBS section makes the decode-free router skip exactly the blocks the
//! in-RAM kernel skips.

use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld::core::greedy::DEFAULT_MAX_STEPS;
use smallworld::core::{
    route_sharded, GirgObjective, GreedyRouter, NaiveObjective, Objective, PackedGirgObjective,
    RouteOutcome, Router, ScoreKernel, ShardSlice, ViewRouter,
};
use smallworld::graph::{Graph, NodeId};
use smallworld::models::girg::GirgBuilder;
use smallworld::store::GraphStore;

/// Forwards every kernel call to `inner` and sums the slots
/// `score_block` scores: the slots a view route scored.
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

#[test]
fn pruned_routes_equal_full_scan_and_mapped_store_routes() {
    let mut rng = StdRng::seed_from_u64(12);
    let girg = GirgBuilder::<2>::new(10_000)
        .sample(&mut rng)
        .expect("valid parameters");
    let girg = girg.relabel(&girg.morton_permutation());
    let graph = girg.graph();
    let n = girg.node_count();

    let path =
        std::env::temp_dir().join(format!("smallworld-hub-pruning-{}.swg", std::process::id()));
    smallworld::store::save_girg(&girg, &path, 4)
        .expect("temp dir is writable")
        .expect(".swg path writes the binary store");
    let store = GraphStore::open(&path).expect("own file reopens");
    let mapped = store.mapped_graph().expect("own file maps");
    let positions = store.packed_positions().expect("positions stored");
    let weights = store.packed_weights().expect("weights stored");
    let (params, _) = store.params().expect("params stored");
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    assert_eq!(mapped.hub_count(), girg.hub_blocks().hub_count());
    assert!(mapped.hub_count() > 0, "the graph has no hubs");
    let mut cursor = mapped.cursor();
    let sharded = store.load_shards().expect("own shards load");
    let locals: Vec<Graph> = sharded
        .shards()
        .iter()
        .map(|shard| shard.local_graph().expect("local CSR decodes"))
        .collect();
    let mut slices: Vec<ShardSlice<'_, &Graph>> = sharded
        .shards()
        .iter()
        .zip(&locals)
        .map(|(shard, local)| ShardSlice {
            start: shard.spec().nodes.start,
            end: shard.spec().nodes.end,
            local,
            boundary: shard.boundary(),
        })
        .collect();
    assert_eq!(slices.len(), 4);
    let owner = |v: NodeId| {
        sharded
            .shards()
            .iter()
            .position(|shard| shard.spec().nodes.contains(&v.raw()))
            .expect("the shards tile the vertex range")
    };

    let pruned = GirgObjective::new(&girg);
    let naive = NaiveObjective(GirgObjective::new(&girg));
    let router = GreedyRouter::new();
    let (mut scored, mut slots, mut delivered, mut handoffs) = (0, 0, 0, 0);
    let mapped_scored = Cell::new(0);
    for _ in 0..500 {
        let (s, t) = (
            NodeId::from_index(rng.gen_range(0..n)),
            NodeId::from_index(rng.gen_range(0..n)),
        );
        let record = router.route_quiet(graph, &pruned, s, t);
        assert_eq!(
            record,
            router.route_quiet(graph, &naive, s, t),
            "{s} -> {t}"
        );
        let counting = Counting {
            inner: packed.prepare(t),
            scored: &mapped_scored,
        };
        assert_eq!(
            record,
            ViewRouter::new().route_view_quiet(&mut cursor, &counting, s),
            "{s} -> {t} over the store"
        );
        let sharded_route = route_sharded(&mut slices, &packed.prepare(t), s, DEFAULT_MAX_STEPS);
        assert_eq!(sharded_route.record, record, "{s} -> {t} over 4 shards");
        let owner_changes = record
            .path
            .windows(2)
            .filter(|hop| owner(hop[0]) != owner(hop[1]))
            .count() as u64;
        assert_eq!(sharded_route.handoffs, owner_changes, "{s} -> {t} handoffs");
        handoffs += sharded_route.handoffs;
        delivered += usize::from(record.is_success());
        // every vertex the route left, and a dead end's last vertex,
        // had its list scanned
        let scanned = match record.outcome {
            RouteOutcome::DeadEnd => &record.path[..],
            _ => &record.path[..record.path.len() - 1],
        };
        let kernel = pruned.prepare(t);
        for &v in scanned {
            scored += kernel.best_neighbor_counted(graph, v).1;
            slots += graph.degree(v);
        }
        assert_eq!(
            mapped_scored.get(),
            scored,
            "{s} -> {t}: the store scored other slots than RAM"
        );
    }
    std::fs::remove_file(&path).ok();
    assert!(delivered > 100, "only {delivered} of 500 routes delivered");
    assert!(handoffs > 0, "no route crossed a shard boundary");
    assert!(
        5 * scored < slots,
        "pruning scored {scored} of {slots} slots"
    );
    assert!(
        5 * mapped_scored.get() < slots,
        "pruning over the store scored {} of {slots} slots",
        mapped_scored.get()
    );
}
