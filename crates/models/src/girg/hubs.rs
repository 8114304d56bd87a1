//! Per-block summaries of hub adjacency lists.
//!
//! Greedy routing scans the whole neighbor list of every vertex it visits,
//! and the paper's trajectory (§2.2, Figure 1) climbs through a hub of
//! degree `Θ(n^{1/(β−1)})` on almost every route. Under a Morton relabeling
//! ([`Girg::morton_permutation`](super::Girg::morton_permutation)) a hub's
//! id-sorted list is spatially clustered, so a fixed-size block of it
//! occupies a small box of the torus. [`HubBlocks`] records, for every
//! block of every hub, the block's largest weight and the per-axis range
//! of its coordinates: enough for a router to bound any objective that is
//! increasing in weight and decreasing in distance over the whole block
//! without reading it.

use smallworld_geometry::Point;
use smallworld_graph::{Graph, NodeId};

/// Vertices with at least this many neighbors get block summaries.
pub const HUB_MIN_DEGREE: usize = 256;

/// Adjacency slots per summarized block; the last block of a list may be
/// shorter.
pub const HUB_BLOCK_SLOTS: usize = 64;

/// Block summaries of every hub's adjacency list: hub `v`'s list
/// `graph.neighbors(v)` is cut into [`HUB_BLOCK_SLOTS`]-slot blocks in
/// slot order, and block `i` is summarized by row `i` of
/// [`HubBlocks::rows`]`(v)`.
///
/// A row is [`HubBlocks::ROW_WIDTH`] flat `f64`s: the block's largest
/// weight, then per axis its smallest coordinate (`lo[0..D]`), then per
/// axis its largest (`hi[0..D]`). A block holding a NaN weight or
/// coordinate gets the row `+∞, 0…0, 1…1`, which bounds nothing. The
/// `.swg` store writes these arrays as they are and routes off them in
/// place, so this is also the on-disk row layout.
#[derive(Clone, Debug)]
pub struct HubBlocks<const D: usize> {
    /// Vertices of degree at least [`HUB_MIN_DEGREE`], ascending.
    hubs: Vec<NodeId>,
    /// Rows `starts[i]..starts[i + 1]` summarize `hubs[i]`'s list.
    starts: Vec<u64>,
    /// `ROW_WIDTH` values per block, blocks in hub then slot order.
    rows: Vec<f64>,
}

impl<const D: usize> Default for HubBlocks<D> {
    fn default() -> Self {
        HubBlocks {
            hubs: Vec::new(),
            starts: vec![0],
            rows: Vec::new(),
        }
    }
}

impl<const D: usize> HubBlocks<D> {
    /// Values per summary row: the max weight, `D` lower and `D` upper
    /// coordinates.
    pub const ROW_WIDTH: usize = 1 + 2 * D;

    /// Summarizes the lists of every vertex of `graph` with at least
    /// [`HUB_MIN_DEGREE`] neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `positions` or `weights` do not cover every vertex.
    pub fn build(graph: &Graph, positions: &[Point<D>], weights: &[f64]) -> Self {
        assert_eq!(
            graph.node_count(),
            positions.len(),
            "positions length mismatch"
        );
        assert_eq!(graph.node_count(), weights.len(), "weights length mismatch");
        let mut summaries = HubBlocks::default();
        for v in graph.nodes() {
            summaries.push(v, graph.neighbors(v), positions, weights);
        }
        summaries
    }

    /// Summarizes `list`, the sorted neighbor list of `v`, if it has at
    /// least [`HUB_MIN_DEGREE`] entries; shorter lists are ignored. Lists
    /// must arrive in ascending vertex order. This is the one summary
    /// builder: [`HubBlocks::build`] and the streamed store writer both
    /// feed every list through it.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not exceed every hub pushed before, or if a
    /// neighbor is out of range of `positions` or `weights`.
    pub fn push<T: Copy + Into<NodeId>>(
        &mut self,
        v: NodeId,
        list: &[T],
        positions: &[Point<D>],
        weights: &[f64],
    ) {
        if list.len() < HUB_MIN_DEGREE {
            return;
        }
        assert!(
            self.hubs.last().is_none_or(|&h| h < v),
            "hub lists must be pushed in ascending vertex order"
        );
        self.hubs.push(v);
        for block in list.chunks(HUB_BLOCK_SLOTS) {
            self.push_row(block, positions, weights);
        }
        self.starts.push(self.block_count() as u64);
    }

    /// Appends the summary row of one block.
    fn push_row<T: Copy + Into<NodeId>>(
        &mut self,
        block: &[T],
        positions: &[Point<D>],
        weights: &[f64],
    ) {
        let mut max_weight = f64::NEG_INFINITY;
        let (mut lo, mut hi) = ([f64::INFINITY; D], [f64::NEG_INFINITY; D]);
        let mut nan = false;
        for &u in block {
            let u = u.into().index();
            let w = weights[u];
            nan |= w.is_nan();
            max_weight = max_weight.max(w);
            for (k, &c) in positions[u].coords().iter().enumerate() {
                nan |= c.is_nan();
                lo[k] = lo[k].min(c);
                hi[k] = hi[k].max(c);
            }
        }
        if nan {
            (max_weight, lo, hi) = (f64::INFINITY, [0.0; D], [1.0; D]);
        }
        self.rows.push(max_weight);
        self.rows.extend_from_slice(&lo);
        self.rows.extend_from_slice(&hi);
    }

    /// The summary rows of `v`'s list, one [`HubBlocks::ROW_WIDTH`] row
    /// per block in slot order, or `None` if `v` is not a hub.
    #[inline]
    pub fn rows(&self, v: NodeId) -> Option<&[f64]> {
        let i = self.hubs.binary_search(&v).ok()?;
        let (from, to) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        Some(&self.rows[from * Self::ROW_WIDTH..to * Self::ROW_WIDTH])
    }

    /// The summarized hubs, ascending.
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// Row offsets per hub: hub `hubs()[i]`'s rows are
    /// `starts()[i]..starts()[i + 1]`, and `starts()[0] == 0`.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// Every summary row, hubs in ascending order.
    pub fn all_rows(&self) -> &[f64] {
        &self.rows
    }

    /// Number of summarized hubs.
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// Number of summarized blocks over all hubs.
    pub fn block_count(&self) -> usize {
        self.rows.len() / Self::ROW_WIDTH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_each_block_of_each_hub() {
        // vertex 0 is a hub of degree 300: blocks of 64, 64, 64, 64, 44
        let n = 301;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|u| (0, u)).collect();
        let graph = Graph::from_edges(n, edges).unwrap();
        let positions: Vec<Point<2>> = (0..n)
            .map(|i| Point::new([i as f64 / n as f64, 0.5]))
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let hubs = HubBlocks::build(&graph, &positions, &weights);
        assert_eq!(hubs.hub_count(), 1);
        assert_eq!(hubs.hubs(), [NodeId::new(0)]);
        assert_eq!(hubs.starts(), [0, 5]);
        assert!(hubs.rows(NodeId::new(1)).is_none());
        let rows = hubs.rows(NodeId::new(0)).unwrap();
        assert_eq!(rows.len(), 5 * HubBlocks::<2>::ROW_WIDTH);
        assert_eq!(hubs.block_count(), 5);
        assert_eq!(hubs.all_rows(), rows);
        for (block, row) in graph
            .neighbors(NodeId::new(0))
            .chunks(HUB_BLOCK_SLOTS)
            .zip(rows.chunks_exact(HubBlocks::<2>::ROW_WIDTH))
        {
            let (first, last) = (block[0].index(), block[block.len() - 1].index());
            assert_eq!(row[0], last as f64);
            assert_eq!(row[1..3], *positions[first].coords());
            assert_eq!(row[3..5], *positions[last].coords());
        }
    }

    #[test]
    fn nan_blocks_bound_nothing() {
        let n = 257;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|u| (0, u)).collect();
        let graph = Graph::from_edges(n, edges).unwrap();
        let positions = vec![Point::new([0.25]); n];
        let mut weights = vec![1.0; n];
        weights[70] = f64::NAN;
        let hubs = HubBlocks::build(&graph, &positions, &weights);
        let rows = hubs.rows(NodeId::new(0)).unwrap();
        assert_eq!(rows[..3], [1.0, 0.25, 0.25]);
        assert_eq!(rows[3..6], [f64::INFINITY, 0.0, 1.0]);
    }

    #[test]
    fn pushing_raw_ids_matches_building_from_the_graph() {
        let n = 600;
        let edges: Vec<(u32, u32)> = (1..n as u32)
            .flat_map(|u| [(0, u), (1, u)])
            .filter(|&(a, b)| a != b)
            .collect();
        let graph = Graph::from_edges(n, edges).unwrap();
        let positions: Vec<Point<1>> = (0..n).map(|i| Point::new([i as f64 / n as f64])).collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let built = HubBlocks::build(&graph, &positions, &weights);
        let mut pushed = HubBlocks::default();
        for v in graph.nodes() {
            let raw: Vec<u32> = graph.neighbors(v).iter().map(|u| u.raw()).collect();
            pushed.push(v, &raw, &positions, &weights);
        }
        assert_eq!(built.hub_count(), 2);
        assert_eq!(pushed.hubs(), built.hubs());
        assert_eq!(pushed.starts(), built.starts());
        assert_eq!(pushed.all_rows(), built.all_rows());
    }

    #[test]
    #[should_panic(expected = "ascending vertex order")]
    fn hubs_out_of_order_panic() {
        let positions = vec![Point::new([0.5]); 300];
        let weights = vec![1.0; 300];
        let list: Vec<u32> = (2..300).collect();
        let mut hubs = HubBlocks::<1>::default();
        hubs.push(NodeId::new(1), &list, &positions, &weights);
        hubs.push(NodeId::new(0), &list, &positions, &weights);
    }
}
