//! The blocked argmax fold behind every greedy hop.
//!
//! A hop scores every neighbor slot of the current vertex against a fixed
//! target and keeps the first strictly best one: `fold_pruned`, for the
//! routers and the simulator alike, scores the slots [`BLOCK_WIDTH`] at a
//! time through [`ScoreKernel::score_block`] (whose overrides are short f64
//! chains LLVM vectorizes across slots) and [`fold_first_best`] folds each
//! chunk into the running argmax, bitwise the scalar first-best fold of
//! [`ScoreKernel::best_neighbor`].
//!
//! A hub's list may come with block summary rows (see
//! [`HubBlocks`](smallworld_models::girg::HubBlocks)); the fold then skips
//! every [`HUB_BLOCK_SLOTS`]-slot block whose [`ScoreKernel::block_bound`]
//! cannot beat the running best.

use smallworld_graph::NodeId;
use smallworld_models::girg::HUB_BLOCK_SLOTS;

use crate::objective::ScoreKernel;

/// Number of neighbor slots scored per blocked-kernel call.
///
/// Eight f64 lanes fill one AVX-512 register (two SSE2 / one AVX2 pass on
/// narrower machines) and keep the remainder loop short.
pub const BLOCK_WIDTH: usize = 8;

// a hub block is a whole number of scoring chunks, so scoring block by
// block chunks the list exactly as one pass over it would
const _: () = assert!(HUB_BLOCK_SLOTS.is_multiple_of(BLOCK_WIDTH));

/// Folds a scored block into the running first-best-in-slot-order argmax
/// of the slots `live` accepts.
///
/// Bitwise-preserves the scalar sweep's tie-breaking: a slot replaces the
/// running best only under strict `>`, scanned in slot order, and only if
/// `live` (asked about nothing else) accepts it. A vectorizable
/// `any(s > best)` pass runs first as a branch-light fast path — when no
/// slot beats the running best, the in-order scan is skipped entirely. The
/// rejection is semantics-preserving even for NaN scores: a NaN fails the
/// strict `>` in both the any-pass and the per-slot scan, so a rejected
/// block could never have updated `best` anyway.
#[inline(always)]
pub fn fold_first_best(
    best: &mut Option<(f64, NodeId)>,
    scores: &[f64],
    nodes: &[NodeId],
    live: &impl Fn(NodeId) -> bool,
) {
    debug_assert!(nodes.len() >= scores.len());
    if let Some((b, _)) = *best {
        let mut any = false;
        for &s in scores {
            any |= s > b;
        }
        if !any {
            return;
        }
    }
    for (&s, &v) in scores.iter().zip(nodes) {
        if best.is_none_or(|(b, _)| s > b) && live(v) {
            *best = Some((s, v));
        }
    }
}

/// The first-best slot of `nodes` among those `live` accepts, and the
/// number of slots scored. `nodes` is visited in [`HUB_BLOCK_SLOTS`]-slot
/// blocks in slot order; with one summary row per block, a block whose
/// [`ScoreKernel::block_bound`] is at most the running best is skipped
/// unscored.
///
/// The result is bitwise the full fold's over the slots a pure `live`
/// accepts (DESIGN.md §4k): no slot of a skipped block, live or not, can
/// *strictly* beat the best, and only a live slot sets the best, so no
/// block is skipped before one is found. Without rows, or with rows that
/// do not cut into one equal-width row per block, every block is scored.
#[inline]
pub(crate) fn fold_pruned<K: ScoreKernel>(
    kernel: &K,
    nodes: &[NodeId],
    rows: Option<&[f64]>,
    live: &impl Fn(NodeId) -> bool,
) -> (Option<(f64, NodeId)>, usize) {
    let blocks = nodes.len().div_ceil(HUB_BLOCK_SLOTS);
    let width = rows.map_or(0, |rows| rows.len() / blocks.max(1));
    let mut rows = rows
        .filter(|rows| width > 0 && width * blocks == rows.len())
        .map(|rows| rows.chunks_exact(width));
    let (mut best, mut scored) = (None, 0);
    let mut scores = [0.0f64; BLOCK_WIDTH];
    for block in nodes.chunks(HUB_BLOCK_SLOTS) {
        let row = rows.as_mut().and_then(Iterator::next);
        if row
            .zip(best)
            .is_some_and(|(row, (b, _))| kernel.block_bound(row) <= b)
        {
            continue;
        }
        for chunk in block.chunks(BLOCK_WIDTH) {
            kernel.score_block(chunk, &mut scores);
            fold_first_best(&mut best, &scores[..chunk.len()], chunk, live);
        }
        scored += block.len();
    }
    (best, scored)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_first_best_keeps_first_winner() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let scores = [1.0, 3.0, 3.0, 2.0, 3.0, 0.5];
        let mut best = None;
        fold_first_best(&mut best, &scores[..3], &nodes[..3], &|_| true);
        fold_first_best(&mut best, &scores[3..], &nodes[3..], &|_| true);
        assert_eq!(best, Some((3.0, NodeId::new(1))));
    }

    #[test]
    fn fold_first_best_rejects_unbeatable_blocks() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut best = Some((5.0, NodeId::new(9)));
        fold_first_best(&mut best, &[4.0, 5.0, f64::NAN, 1.0], &nodes, &|_| true);
        assert_eq!(best, Some((5.0, NodeId::new(9))));
        // beatable block: the in-order scan runs and lands on the last
        // strict improvement, just like the scalar sweep would
        fold_first_best(&mut best, &[4.0, 5.5, 6.0, 1.0], &nodes, &|_| true);
        assert_eq!(best, Some((6.0, NodeId::new(2))));
    }

    /// Scores vertex `v` as `-v`; a row's first value bounds its block.
    struct Descending;

    impl ScoreKernel for Descending {
        fn target(&self) -> NodeId {
            NodeId::new(0)
        }

        fn score(&self, v: NodeId) -> f64 {
            -f64::from(v.raw())
        }

        fn block_bound(&self, row: &[f64]) -> f64 {
            row[0]
        }
    }

    #[test]
    fn fold_pruned_skips_blocks_that_cannot_beat_the_best() {
        // 200 slots: blocks of 64, 64, 64 and 8
        let nodes: Vec<NodeId> = (0..200).map(NodeId::new).collect();
        let fold = |rows: Option<&[f64]>| fold_pruned(&Descending, &nodes, rows, &|_| true);
        let full = fold(None);
        assert_eq!(full, (Some((-0.0, NodeId::new(0))), 200));
        // the first block is always scored; a bound equal to the best
        // (-0.0 vs -0.0) is skipped like a lower one
        assert_eq!(fold(Some(&[0.0, -0.0, -128.0, -192.0])), (full.0, 64));
        let two_wide = [0.0, 9.0, -1.0, 9.0, -1.0, 9.0, -1.0, 9.0];
        assert_eq!(fold(Some(&two_wide)), (full.0, 64));
        // a bound above the best scores the block
        assert_eq!(fold(Some(&[0.0, 1.0, -1.0, -1.0])), (full.0, 128));
        // rows that do not cut into one per block bound nothing
        assert_eq!(fold(Some(&[-1.0, -1.0, -1.0])), full);
        assert_eq!(fold(Some(&[])), full);
    }

    /// Scores vertex `v` by the table; vertex ids index it.
    struct Table<'a>(&'a [f64]);

    impl ScoreKernel for Table<'_> {
        fn target(&self) -> NodeId {
            NodeId::new(0)
        }

        fn score(&self, v: NodeId) -> f64 {
            self.0[v.index()]
        }

        fn block_bound(&self, row: &[f64]) -> f64 {
            row[0]
        }
    }

    #[test]
    fn fold_pruned_skips_a_dead_best_and_keeps_the_first_live_best() {
        let scores = [1.0, 9.0, 4.0, 9.0, 4.0, 2.0];
        let nodes: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let fold = |live: &dyn Fn(NodeId) -> bool| {
            fold_pruned(&Table(&scores), &nodes, None, &|v| live(v)).0
        };
        assert_eq!(fold(&|_| true), Some((9.0, NodeId::new(1))));
        // both 9s dead: the first 4 wins over the later one
        let dead = |v: NodeId| v.raw() != 1 && v.raw() != 3;
        assert_eq!(fold(&dead), Some((4.0, NodeId::new(2))));
        // the same as filtering first and folding the survivors
        let live: Vec<NodeId> = nodes.iter().copied().filter(|&v| dead(v)).collect();
        let filtered = fold_pruned(&Table(&scores), &live, None, &|_| true).0;
        assert_eq!(fold(&dead), filtered);
        assert_eq!(fold(&|_| false), None);
    }

    #[test]
    fn fold_pruned_resolves_a_dead_live_tie_to_the_live_slot() {
        // slot 1 ties slot 3 at the top; slot 1 is dead
        let scores = [0.0, 5.0, 1.0, 5.0];
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let best = fold_pruned(&Table(&scores), &nodes, None, &|v| v.raw() != 1).0;
        assert_eq!(best, Some((5.0, NodeId::new(3))));
    }

    #[test]
    fn fold_pruned_prunes_nothing_before_the_first_live_slot() {
        // 192 slots in three blocks; every bound is -inf, so any block
        // visited after a best exists is skipped
        let scores: Vec<f64> = (0..192).map(f64::from).collect();
        let nodes: Vec<NodeId> = (0..192).map(NodeId::new).collect();
        let rows = [f64::NEG_INFINITY; 3];
        let fold = |live: &dyn Fn(NodeId) -> bool| {
            fold_pruned(&Table(&scores), &nodes, Some(&rows), &|v| live(v))
        };
        assert_eq!(fold(&|_| true), (Some((63.0, NodeId::new(63))), 64));
        // the first two blocks are dead: both are scored, and the third
        // block's first live slot sets the best
        let late = |v: NodeId| v.raw() >= 128;
        assert_eq!(fold(&late), (Some((191.0, NodeId::new(191))), 192));
        // a live slot in the second block stops the scan after it
        let one = |v: NodeId| v.raw() == 70;
        assert_eq!(fold(&one), (Some((70.0, NodeId::new(70))), 128));
    }
}
