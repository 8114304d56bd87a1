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

/// What one block of a hub's adjacency list holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSummary<const D: usize> {
    /// The largest weight in the block, or `+∞` when a weight or a
    /// coordinate of the block is NaN (the summary then bounds nothing).
    pub max_weight: f64,
    /// Per axis, the smallest coordinate in the block.
    pub lo: [f64; D],
    /// Per axis, the largest coordinate in the block.
    pub hi: [f64; D],
}

impl<const D: usize> BlockSummary<D> {
    /// Summarizes the vertices `block` of a list.
    fn of(block: &[NodeId], positions: &[Point<D>], weights: &[f64]) -> Self {
        let mut summary = BlockSummary {
            max_weight: f64::NEG_INFINITY,
            lo: [f64::INFINITY; D],
            hi: [f64::NEG_INFINITY; D],
        };
        let mut nan = false;
        for &u in block {
            let w = weights[u.index()];
            nan |= w.is_nan();
            summary.max_weight = summary.max_weight.max(w);
            for (k, &c) in positions[u.index()].coords().iter().enumerate() {
                nan |= c.is_nan();
                summary.lo[k] = summary.lo[k].min(c);
                summary.hi[k] = summary.hi[k].max(c);
            }
        }
        if nan {
            summary.max_weight = f64::INFINITY;
        }
        summary
    }
}

/// Block summaries of every hub's adjacency list: hub `v`'s list
/// `graph.neighbors(v)` is cut into [`HUB_BLOCK_SLOTS`]-slot blocks in
/// slot order, and block `i` is summarized by `blocks(v)[i]`.
#[derive(Clone, Debug, Default)]
pub struct HubBlocks<const D: usize> {
    /// Vertices of degree at least [`HUB_MIN_DEGREE`], ascending.
    hubs: Vec<NodeId>,
    /// `blocks[starts[i]..starts[i + 1]]` summarize `hubs[i]`'s list.
    starts: Vec<usize>,
    blocks: Vec<BlockSummary<D>>,
}

impl<const D: usize> HubBlocks<D> {
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
        let mut summaries = HubBlocks {
            starts: vec![0],
            ..HubBlocks::default()
        };
        for v in graph.nodes().filter(|&v| graph.degree(v) >= HUB_MIN_DEGREE) {
            summaries.hubs.push(v);
            summaries.blocks.extend(
                graph
                    .neighbors(v)
                    .chunks(HUB_BLOCK_SLOTS)
                    .map(|block| BlockSummary::of(block, positions, weights)),
            );
            summaries.starts.push(summaries.blocks.len());
        }
        summaries
    }

    /// The block summaries of `v`'s list, or `None` if `v` is not a hub.
    #[inline]
    pub fn blocks(&self, v: NodeId) -> Option<&[BlockSummary<D>]> {
        let i = self.hubs.binary_search(&v).ok()?;
        Some(&self.blocks[self.starts[i]..self.starts[i + 1]])
    }

    /// Number of summarized hubs.
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// Number of summarized blocks over all hubs.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
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
        assert!(hubs.blocks(NodeId::new(1)).is_none());
        let blocks = hubs.blocks(NodeId::new(0)).unwrap();
        assert_eq!(blocks.len(), 5);
        assert_eq!(hubs.block_count(), 5);
        for (block, summary) in graph
            .neighbors(NodeId::new(0))
            .chunks(HUB_BLOCK_SLOTS)
            .zip(blocks)
        {
            let (first, last) = (block[0].index(), block[block.len() - 1].index());
            assert_eq!(summary.max_weight, last as f64);
            assert_eq!(summary.lo, *positions[first].coords());
            assert_eq!(summary.hi, *positions[last].coords());
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
        let blocks = hubs.blocks(NodeId::new(0)).unwrap();
        assert_eq!(blocks[0].max_weight, 1.0);
        assert_eq!(blocks[1].max_weight, f64::INFINITY);
    }
}
