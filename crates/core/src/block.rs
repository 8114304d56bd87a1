//! The blocked argmax fold behind every greedy hop.
//!
//! A hop scores every neighbor slot of the current vertex against a fixed
//! target and keeps the first strictly best one. `fold_scored` scores the
//! slots [`BLOCK_WIDTH`] at a time through [`ScoreKernel::score_block`]
//! (whose overrides are short f64 chains LLVM vectorizes across slots) and
//! [`fold_first_best`] folds each block into the running argmax, bitwise the
//! scalar first-best fold of [`ScoreKernel::best_neighbor`].
//!
//! A hub's list may come with block summary rows (see
//! [`HubBlocks`](smallworld_models::girg::HubBlocks)); `fold_pruned`
//! then skips every [`HUB_BLOCK_SLOTS`]-slot block whose
//! [`ScoreKernel::block_bound`] cannot beat the running best. The in-RAM
//! kernel and the decode-free view router both prune through it.

use smallworld_graph::NodeId;
use smallworld_models::girg::HUB_BLOCK_SLOTS;

use crate::objective::ScoreKernel;

/// Number of neighbor slots scored per blocked-kernel call.
///
/// Eight f64 lanes fill one AVX-512 register (two SSE2 / one AVX2 pass on
/// narrower machines) and keep the remainder loop short.
pub const BLOCK_WIDTH: usize = 8;

/// Folds a scored block into the running first-best-in-slot-order argmax.
///
/// Bitwise-preserves the scalar sweep's tie-breaking: a slot replaces the
/// running best only under strict `>`, scanned in slot order. A
/// vectorizable `any(s > best)` pass runs first as a branch-light fast
/// path — when no slot beats the running best, the in-order scan is
/// skipped entirely. The rejection is semantics-preserving even for NaN
/// scores: a NaN fails the strict `>` in both the any-pass and the
/// per-slot scan, so a rejected block could never have updated `best`
/// anyway.
#[inline(always)]
pub fn fold_first_best(best: &mut Option<(f64, NodeId)>, scores: &[f64], nodes: &[NodeId]) {
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
        if best.is_none_or(|(b, _)| s > b) {
            *best = Some((s, v));
        }
    }
}

/// Scores `nodes` through `kernel` in [`BLOCK_WIDTH`] chunks and folds
/// them into the running first-best argmax, bitwise the scalar fold of
/// [`ScoreKernel::best_neighbor`] over the same slots.
#[inline]
pub(crate) fn fold_scored<K: ScoreKernel>(
    kernel: &K,
    nodes: &[NodeId],
    best: &mut Option<(f64, NodeId)>,
) {
    let mut scores = [0.0f64; BLOCK_WIDTH];
    for chunk in nodes.chunks(BLOCK_WIDTH) {
        kernel.score_block(chunk, &mut scores);
        fold_first_best(best, &scores[..chunk.len()], chunk);
    }
}

/// [`fold_scored`] over a list that may come with one summary row per
/// [`HUB_BLOCK_SLOTS`]-slot block: blocks are visited in slot order, and a
/// block whose [`ScoreKernel::block_bound`] is at most the running best is
/// skipped unscored. Returns the number of slots scored.
///
/// The result is bitwise the full fold's: no slot of a skipped block can
/// *strictly* beat the best, so first-best tie order is kept. Without
/// rows, or with rows that do not cut into one equal-width row per block,
/// the whole list is scored.
#[inline]
pub(crate) fn fold_pruned<K: ScoreKernel>(
    kernel: &K,
    nodes: &[NodeId],
    rows: Option<&[f64]>,
    best: &mut Option<(f64, NodeId)>,
) -> usize {
    let blocks = nodes.len().div_ceil(HUB_BLOCK_SLOTS);
    let width = rows.map_or(0, |rows| rows.len() / blocks.max(1));
    let Some(rows) = rows.filter(|rows| width > 0 && width * blocks == rows.len()) else {
        fold_scored(kernel, nodes, best);
        return nodes.len();
    };
    let mut scored = 0;
    for (block, row) in nodes.chunks(HUB_BLOCK_SLOTS).zip(rows.chunks_exact(width)) {
        if best.is_some_and(|(b, _)| kernel.block_bound(row) <= b) {
            continue;
        }
        fold_scored(kernel, block, best);
        scored += block.len();
    }
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_first_best_keeps_first_winner() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let scores = [1.0, 3.0, 3.0, 2.0, 3.0, 0.5];
        let mut best = None;
        fold_first_best(&mut best, &scores[..3], &nodes[..3]);
        fold_first_best(&mut best, &scores[3..], &nodes[3..]);
        assert_eq!(best, Some((3.0, NodeId::new(1))));
    }

    #[test]
    fn fold_first_best_rejects_unbeatable_blocks() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut best = Some((5.0, NodeId::new(9)));
        fold_first_best(&mut best, &[4.0, 5.0, f64::NAN, 1.0], &nodes);
        assert_eq!(best, Some((5.0, NodeId::new(9))));
        // beatable block: the in-order scan runs and lands on the last
        // strict improvement, just like the scalar sweep would
        fold_first_best(&mut best, &[4.0, 5.5, 6.0, 1.0], &nodes);
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
        let fold = |rows: Option<&[f64]>| {
            let mut best = None;
            let scored = fold_pruned(&Descending, &nodes, rows, &mut best);
            (best, scored)
        };
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
}
