//! Hub block pruning changes no route: on a Morton-relabeled GIRG the
//! pruned in-RAM greedy router, the full-scan naive objective and the
//! decode-free router over the saved `.swg` store walk the same paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smallworld::core::{
    GirgObjective, GreedyRouter, NaiveObjective, Objective, PackedGirgObjective, Router, ViewRouter,
};
use smallworld::graph::NodeId;
use smallworld::models::girg::GirgBuilder;
use smallworld::store::GraphStore;

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
    smallworld::store::save_girg(&girg, &path, 1)
        .expect("temp dir is writable")
        .expect(".swg path writes the binary store");
    let store = GraphStore::open(&path).expect("own file reopens");
    let mapped = store.mapped_graph().expect("own file maps");
    let positions = store.packed_positions().expect("positions stored");
    let weights = store.packed_weights().expect("weights stored");
    let (params, _) = store.params().expect("params stored");
    let packed =
        PackedGirgObjective::<2>::new(&positions, &weights, params.wmin * params.intensity);
    let mut cursor = mapped.cursor();

    let pruned = GirgObjective::new(&girg);
    let naive = NaiveObjective(GirgObjective::new(&girg));
    let router = GreedyRouter::new();
    let (mut scored, mut slots, mut delivered) = (0, 0, 0);
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
        assert_eq!(
            record,
            ViewRouter::new().route_view_quiet(&mut cursor, &packed.prepare(t), s),
            "{s} -> {t} over the store"
        );
        delivered += usize::from(record.is_success());
        let kernel = pruned.prepare(t);
        for &v in &record.path[..record.path.len() - 1] {
            scored += kernel.best_neighbor_counted(graph, v).1;
            slots += graph.degree(v);
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(delivered > 100, "only {delivered} of 500 routes delivered");
    assert!(
        5 * scored < slots,
        "pruning scored {scored} of {slots} slots"
    );
}
