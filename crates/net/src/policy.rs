//! Per-hop forwarding policies.
//!
//! A [`HopPolicy`] is the protocol a node runs when a packet reaches it:
//! given only the local [`HopView`] (the node, the packet's target, and
//! its neighbors, of which only the *currently live* may be chosen) it
//! forwards or drops. Policies carry per-packet state of type
//! [`HopPolicy::State`] — the simulator creates one fresh `State` per
//! packet, so policies stay shareable across the whole run and across
//! threads.
//!
//! Scoring goes through the [`HopScore`] trait: `(candidate, target)` to a
//! comparable score (larger = closer), plus [`HopScore::best_live`], the
//! hop's argmax over the live neighbors. Any plain closure
//! `Fn(NodeId, NodeId) -> f64` is a `HopScore` via the blanket impl, so the
//! crate does not depend on any particular objective type; callers pass
//! e.g. `|v, t| objective.score(v, t)` from `smallworld-core`, or that
//! crate's `PreparedObjective`, whose `best_live` is the routers' fold.

use std::collections::HashSet;

use smallworld_graph::NodeId;

use crate::event::Time;
use crate::fault::FaultPlan;

/// A routing score over `(candidate, target)` pairs, and the hop argmax
/// [`HopScore::best_live`] built on it.
///
/// A kernel-backed implementation (e.g. `smallworld-core`'s
/// `PreparedObjective`) overrides `best_live` to prepare the target once
/// and skip what its kernel rules out. Every method must agree
/// **bitwise** with [`HopScore::score`]: simulations must be unable to
/// tell the paths apart.
///
/// Every `Fn(NodeId, NodeId) -> f64` closure is a `HopScore` whose
/// prepared form simply captures the target.
pub trait HopScore {
    /// Score of `candidate` when routing towards `target`; larger is
    /// closer.
    fn score(&self, candidate: NodeId, target: NodeId) -> f64;

    /// The single-target view of [`HopScore::score`].
    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_;

    /// Scores a block of candidates against one target:
    /// `out[j] = self.score(candidates[j], target)` for every
    /// `j < candidates.len()`, **bitwise-identical** to the scalar calls.
    ///
    /// The default prepares once and loops. Implementations backed by a
    /// batched kernel forward to their `ScoreKernel::score_block`. `out`
    /// must be at least as long as `candidates`.
    #[inline]
    fn score_block(&self, target: NodeId, candidates: &[NodeId], out: &mut [f64]) {
        debug_assert!(out.len() >= candidates.len());
        let score = self.prepare(target);
        for (o, &v) in out.iter_mut().zip(candidates) {
            *o = score(v);
        }
    }

    /// The hop argmax at `current`, whose neighbor list is `list`: the
    /// first slot with the strictly largest score towards `target` among
    /// those the pure predicate `live` accepts, or `None`. `live` is asked
    /// only about a slot that would strictly beat the best so far.
    ///
    /// The default scores the whole list through
    /// [`HopScore::score_block`], eight slots at a time.
    #[inline]
    fn best_live(
        &self,
        target: NodeId,
        current: NodeId,
        list: &[NodeId],
        live: impl Fn(NodeId) -> bool,
    ) -> Option<(f64, NodeId)> {
        let _ = current;
        const BLOCK: usize = 8;
        let mut best: Option<(f64, NodeId)> = None;
        let mut scores = [0.0f64; BLOCK];
        for chunk in list.chunks(BLOCK) {
            self.score_block(target, chunk, &mut scores[..chunk.len()]);
            for (&s, &v) in scores.iter().zip(chunk) {
                if best.is_none_or(|(b, _)| s > b) && live(v) {
                    best = Some((s, v));
                }
            }
        }
        best
    }
}

impl<S: Fn(NodeId, NodeId) -> f64> HopScore for S {
    #[inline]
    fn score(&self, candidate: NodeId, target: NodeId) -> f64 {
        self(candidate, target)
    }

    #[inline]
    fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
        move |v| self(v, target)
    }
}

/// Everything a node is allowed to see when forwarding a packet: itself,
/// the packet's target, its neighbors and which of them are live, the
/// virtual clock, and the hop count so far. Deliberately *no* graph
/// handle — locality is structural: a policy cannot reach beyond one hop.
#[derive(Clone, Copy, Debug)]
pub struct HopView<'a> {
    /// The node holding the packet.
    pub current: NodeId,
    /// The packet's destination.
    pub target: NodeId,
    /// The sorted neighbor list of `current`, live or not.
    pub neighbors: &'a [NodeId],
    /// The virtual clock.
    pub now: Time,
    /// Hops the packet has taken so far.
    pub hops: u32,
    /// The run's fault schedule, read through [`HopView::is_live`].
    pub(crate) faults: &'a FaultPlan,
}

impl HopView<'_> {
    /// Whether a packet sent from `current` to `v` now could arrive: `v`
    /// is up at `now` and so is the link `{current, v}`.
    #[inline]
    pub fn is_live(&self, v: NodeId) -> bool {
        self.faults.node_up(v, self.now) && self.faults.edge_up(self.current, v, self.now)
    }

    /// Whether `v` is a neighbor of `current` and [live](Self::is_live):
    /// the simulator's locality check on every forwarded packet.
    #[inline]
    pub fn is_live_neighbor(&self, v: NodeId) -> bool {
        self.neighbors.binary_search(&v).is_ok() && self.is_live(v)
    }
}

/// A policy's verdict for one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopChoice {
    /// Forward to this neighbor (must be a live one).
    Forward(NodeId),
    /// Give up; the simulator records a dead end.
    Drop,
}

/// A per-hop forwarding protocol. Implementations must choose using only
/// the [`HopView`] and their own per-packet `State`; the simulator
/// asserts the chosen next hop is a [live
/// neighbor](HopView::is_live_neighbor) ("locality violation" otherwise).
pub trait HopPolicy {
    /// Per-packet scratch state, default-initialized at injection.
    type State: Default;

    /// Short stable name for artifacts and metrics labels.
    fn name(&self) -> &'static str;

    /// Decides the next hop for one packet at one node.
    fn next_hop(&self, view: &HopView<'_>, state: &mut Self::State) -> HopChoice;
}

impl<P: HopPolicy + ?Sized> HopPolicy for &P {
    type State = P::State;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_hop(&self, view: &HopView<'_>, state: &mut Self::State) -> HopChoice {
        (**self).next_hop(view, state)
    }
}

/// Plain greedy forwarding: send to the first-best live neighbor strictly
/// closer to the target than the current node, else drop. Matches
/// `smallworld-core`'s `GreedyRouter` tie-breaking (first best in
/// adjacency order, strict improvement required).
pub struct GreedyPolicy<S> {
    score: S,
}

impl<S> std::fmt::Debug for GreedyPolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyPolicy").finish_non_exhaustive()
    }
}

impl<S: HopScore> GreedyPolicy<S> {
    /// A greedy policy under `score(candidate, target)`; larger is closer.
    pub fn new(score: S) -> Self {
        GreedyPolicy { score }
    }
}

impl<S: HopScore> HopPolicy for GreedyPolicy<S> {
    type State = ();

    fn name(&self) -> &'static str {
        "greedy"
    }

    fn next_hop(&self, view: &HopView<'_>, _state: &mut ()) -> HopChoice {
        // deliberately no special case for a neighbor equal to the
        // target: like `GreedyRouter`, we rely on the score function
        // ranking the target itself maximally, so the two stay hop-for-hop
        // identical under the same objective
        let live = |v| view.is_live(v);
        let best = self
            .score
            .best_live(view.target, view.current, view.neighbors, live);
        let here = self.score.score(view.current, view.target);
        match best {
            Some((s, v)) if s > here => HopChoice::Forward(v),
            _ => HopChoice::Drop,
        }
    }
}

/// Per-packet state of a [`PatchingPolicy`]: the set of nodes the packet
/// has visited and the trail it followed, enabling depth-first
/// backtracking around failed regions.
#[derive(Clone, Debug, Default)]
pub struct PatchState {
    visited: HashSet<NodeId>,
    trail: Vec<NodeId>,
}

impl PatchState {
    /// Nodes visited so far (diagnostics).
    pub fn visited_count(&self) -> usize {
        self.visited.len()
    }
}

/// Greedy forwarding with Algorithm-2-style patching *at simulation
/// time*: prefer the best strictly-improving unvisited neighbor; when
/// greedy is stuck (all improving neighbors dead, visited, or absent),
/// detour to the best unvisited neighbor even if it does not improve;
/// when the node is fully explored, backtrack along the packet's own
/// trail. Only drops when the trail is exhausted or the backtrack link is
/// itself down.
pub struct PatchingPolicy<S> {
    score: S,
}

impl<S> std::fmt::Debug for PatchingPolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchingPolicy").finish_non_exhaustive()
    }
}

impl<S: HopScore> PatchingPolicy<S> {
    /// A patching policy under `score(candidate, target)`; larger is
    /// closer.
    pub fn new(score: S) -> Self {
        PatchingPolicy { score }
    }
}

impl<S: HopScore> HopPolicy for PatchingPolicy<S> {
    type State = PatchState;

    fn name(&self) -> &'static str {
        "patching"
    }

    fn next_hop(&self, view: &HopView<'_>, state: &mut PatchState) -> HopChoice {
        let u = view.current;
        if state.trail.last() != Some(&u) {
            // first visit (or re-entry after the trail was cut): extend
            state.visited.insert(u);
            state.trail.push(u);
        }
        if view.is_live_neighbor(view.target) {
            return HopChoice::Forward(view.target);
        }
        // the best unvisited live neighbor — improving if possible, else
        // the detour that stays closest to the target
        let unvisited = |v| view.is_live(v) && !state.visited.contains(&v);
        let best = self
            .score
            .best_live(view.target, u, view.neighbors, unvisited);
        if let Some((_, v)) = best {
            return HopChoice::Forward(v);
        }
        // fully explored: backtrack along the trail
        state.trail.pop();
        match state.trail.last() {
            Some(&prev) if view.is_live_neighbor(prev) => HopChoice::Forward(prev),
            _ => HopChoice::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::LazyLock;

    use super::*;

    static NO_FAULTS: LazyLock<FaultPlan> = LazyLock::new(FaultPlan::none);

    fn view<'a>(current: u32, target: u32, neighbors: &'a [NodeId]) -> HopView<'a> {
        HopView {
            current: NodeId::new(current),
            target: NodeId::new(target),
            neighbors,
            now: 0,
            hops: 0,
            faults: &NO_FAULTS,
        }
    }

    /// Score: closer node ids are closer to the target.
    fn id_score(v: NodeId, t: NodeId) -> f64 {
        -((v.raw() as f64) - (t.raw() as f64)).abs()
    }

    #[test]
    fn greedy_forwards_to_strict_improvement() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(3), NodeId::new(7)];
        // current 2, target 10: 7 is the improvement
        assert_eq!(
            p.next_hop(&view(2, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(7))
        );
    }

    #[test]
    fn greedy_drops_without_improvement() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(0), NodeId::new(1)];
        // current 5, target 10: both candidates are farther
        assert_eq!(p.next_hop(&view(5, 10, &cands), &mut ()), HopChoice::Drop);
    }

    #[test]
    fn greedy_delivers_to_adjacent_target() {
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(0), NodeId::new(10)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(10))
        );
    }

    #[test]
    fn greedy_breaks_ties_first_best() {
        // candidates 8 and 12 score equally for target 10: first wins
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(8), NodeId::new(12)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(8))
        );
        let cands = [NodeId::new(12), NodeId::new(8)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut ()),
            HopChoice::Forward(NodeId::new(12))
        );
    }

    /// A plan under which exactly the nodes in `dead` (among ids below
    /// 12) are down, permanently, from tick 0.
    fn plan_killing(dead: &[u32]) -> FaultPlan {
        let spec = crate::fault::FaultSpec {
            node_fail_rate: 0.5,
            ..crate::fault::FaultSpec::none()
        };
        (0..)
            .map(|seed| FaultPlan::new(spec, seed))
            .find(|plan| (0..12).all(|v| plan.node_up(NodeId::new(v), 0) != dead.contains(&v)))
            .expect("some seed kills exactly these nodes")
    }

    #[test]
    fn policies_only_forward_to_live_neighbors() {
        let faults = plan_killing(&[7, 10, 11]);
        let at = |current, target, neighbors| HopView {
            faults: &faults,
            ..view(current, target, neighbors)
        };
        // the best neighbor 7 is dead: greedy takes the best live one
        let ns = [NodeId::new(1), NodeId::new(3), NodeId::new(7)];
        let greedy = GreedyPolicy::new(id_score);
        assert_eq!(
            greedy.next_hop(&at(2, 10, &ns), &mut ()),
            HopChoice::Forward(NodeId::new(3))
        );
        // a dead target is no delivery; patching takes the best live
        // neighbor instead
        let ns = [NodeId::new(3), NodeId::new(7), NodeId::new(10)];
        let patching = PatchingPolicy::new(id_score);
        let mut st = PatchState::default();
        assert_eq!(
            patching.next_hop(&at(2, 10, &ns), &mut st),
            HopChoice::Forward(NodeId::new(3))
        );
        // at 3 everything but 2 is dead and 2 is visited: the backtrack
        // goes to 2, which is live
        let ns = [NodeId::new(2), NodeId::new(11)];
        assert_eq!(
            patching.next_hop(&at(3, 10, &ns), &mut st),
            HopChoice::Forward(NodeId::new(2))
        );
        // back at 2 with nothing left: the trail is exhausted
        let ns = [NodeId::new(3), NodeId::new(7), NodeId::new(10)];
        assert_eq!(patching.next_hop(&at(2, 10, &ns), &mut st), HopChoice::Drop);
        assert_eq!(st.visited_count(), 2);
    }

    #[test]
    fn patching_detours_when_greedy_is_stuck() {
        let p = PatchingPolicy::new(id_score);
        let mut st = PatchState::default();
        // current 5, target 10, only candidate is 4 (worse): greedy would
        // drop, patching detours
        let cands = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(5, 10, &cands), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
    }

    #[test]
    fn patching_never_revisits_and_backtracks() {
        let p = PatchingPolicy::new(id_score);
        let mut st = PatchState::default();
        // hop 1: at 5, forward to 4 (only option)
        let c5 = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(5, 10, &c5), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
        // hop 2: at 4, neighbors are 3 and 5 (visited)
        let c4 = [NodeId::new(3), NodeId::new(5)];
        assert_eq!(
            p.next_hop(&view(4, 10, &c4), &mut st),
            HopChoice::Forward(NodeId::new(3))
        );
        // hop 3: at 3, only neighbor is 4 (visited) => backtrack to 4
        let c3 = [NodeId::new(4)];
        assert_eq!(
            p.next_hop(&view(3, 10, &c3), &mut st),
            HopChoice::Forward(NodeId::new(4))
        );
        // hop 4: back at 4, everything visited, backtrack to 5
        assert_eq!(
            p.next_hop(&view(4, 10, &c4), &mut st),
            HopChoice::Forward(NodeId::new(5))
        );
        // hop 5: back at 5, everything visited, trail exhausted => drop
        assert_eq!(p.next_hop(&view(5, 10, &c5), &mut st), HopChoice::Drop);
    }

    /// A hand-rolled `HopScore` with a cheap prepared form must be
    /// indistinguishable from the equivalent closure.
    #[test]
    fn manual_hop_score_matches_closure() {
        struct IdScore;
        impl HopScore for IdScore {
            fn score(&self, v: NodeId, t: NodeId) -> f64 {
                id_score(v, t)
            }
            fn prepare(&self, target: NodeId) -> impl Fn(NodeId) -> f64 + '_ {
                move |v| id_score(v, target)
            }
        }
        let manual = GreedyPolicy::new(IdScore);
        let closure = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(3), NodeId::new(7), NodeId::new(12)];
        for target in 0..15u32 {
            let v = view(2, target, &cands);
            assert_eq!(manual.next_hop(&v, &mut ()), closure.next_hop(&v, &mut ()));
        }
        let manual = PatchingPolicy::new(IdScore);
        let closure = PatchingPolicy::new(id_score);
        let mut st_m = PatchState::default();
        let mut st_c = PatchState::default();
        let v = view(5, 10, &cands);
        assert_eq!(manual.next_hop(&v, &mut st_m), closure.next_hop(&v, &mut st_c));
    }

    #[test]
    fn policy_is_usable_by_reference() {
        fn takes_policy<P: HopPolicy>(p: P, v: &HopView<'_>) -> HopChoice {
            let mut st = P::State::default();
            p.next_hop(v, &mut st)
        }
        let p = GreedyPolicy::new(id_score);
        let cands = [NodeId::new(10)];
        let v = view(5, 10, &cands);
        assert_eq!(takes_policy(&p, &v), HopChoice::Forward(NodeId::new(10)));
        assert_eq!(p.name(), "greedy");
        let by_ref: &GreedyPolicy<_> = &p;
        assert_eq!(HopPolicy::name(&by_ref), "greedy");
    }
}
