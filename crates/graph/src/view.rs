//! Adjacency access abstracted over the storage substrate.
//!
//! A routing loop only ever needs two things from a graph: the vertex count
//! and, for one vertex at a time, a borrowed view of its sorted neighbor
//! list. [`AdjacencyView`] captures exactly that, so the same loop can run
//! over an in-memory [`Graph`] *or* over a cursor that decodes neighbor
//! lists on demand from a memory-mapped compressed store (and therefore
//! needs `&mut self` to manage its decode cache).
//!
//! The callback shape (`with_neighbors` instead of returning a slice)
//! exists for those caching cursors: the decoded list lives in a buffer the
//! cursor owns and may recycle on the next call, so the borrow cannot
//! outlive the call.

use crate::csr::{Graph, NodeId};

/// Read access to a graph's adjacency, one vertex at a time.
///
/// Implementations must present each vertex's neighbor list **sorted
/// ascending by node id**, exactly as [`Graph::neighbors`] does —
/// protocols compare routes bitwise across substrates, and the argmax
/// tie-breaking of greedy routing depends on the iteration order.
pub trait AdjacencyView {
    /// Number of vertices; valid ids are `0..node_count`.
    fn node_count(&self) -> usize;

    /// Calls `f` with the sorted neighbor list of `v` and returns `f`'s
    /// result.
    ///
    /// Takes `&mut self` so implementations may decode into (and cache in)
    /// owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R;

    /// Calls `f` with the sorted neighbor list of `v` and, when the view
    /// carries them, the block summary rows of that list, and returns
    /// `f`'s result.
    ///
    /// The rows are the hub block summaries of `smallworld-models`'
    /// `HubBlocks`: one row of flat `f64`s per `HUB_BLOCK_SLOTS`-slot
    /// block of the list, in slot order, each bounding the weights and
    /// coordinates of its block. A greedy hop may skip a block whose row
    /// proves it cannot hold the argmax, so rows must describe exactly the
    /// list handed over. The default carries none: `f(list, None)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn with_summarized_neighbors<R>(
        &mut self,
        v: NodeId,
        f: impl FnOnce(&[NodeId], Option<&[f64]>) -> R,
    ) -> R {
        self.with_neighbors(v, |ns| f(ns, None))
    }
}

impl AdjacencyView for &Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn with_neighbors<R>(&mut self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_view_matches_neighbors() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (0, 3)]).unwrap();
        let mut view = &g;
        assert_eq!(AdjacencyView::node_count(&view), 4);
        for v in g.nodes() {
            let from_view = view.with_neighbors(v, |ns| ns.to_vec());
            assert_eq!(from_view, g.neighbors(v));
        }
    }
}
