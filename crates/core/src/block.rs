//! The blocked argmax fold behind every greedy hop.
//!
//! A hop scores every neighbor slot of the current vertex against a fixed
//! target and keeps the first strictly best one. `fold_scored` scores the
//! slots [`BLOCK_WIDTH`] at a time through [`ScoreKernel::score_block`]
//! (whose overrides are short f64 chains LLVM vectorizes across slots) and
//! [`fold_first_best`] folds each block into the running argmax, bitwise the
//! scalar first-best fold of [`ScoreKernel::best_neighbor`].

use smallworld_graph::NodeId;

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
}
