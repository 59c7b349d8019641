//! Indexed contender structures for live dispatch.
//!
//! The event-heap loop's exact scan scores every node per arrival: O(1)
//! work each, but O(nodes) of it, which becomes the wall at hundreds of
//! nodes. This module gives the three live-dispatch policies an ordered
//! index over lower bounds on those scores, so each arrival examines
//! O(log nodes) candidates — and, by construction, still picks the
//! byte-identical node. The loop builds it only when it never steps
//! between arrivals (no stealing, no migration).
//!
//! # Absolute and exact keys
//!
//! A quiet node's state is frozen between its own advances: every mutation
//! (due advance, inject, salvage, shed, fault edge) flows through the
//! loop's `reschedule` hook, which refreshes this index. What changes
//! between refreshes is the *query instant* `t`, not the node: until its
//! next-event certificate, only the runner progresses, at one cycle per
//! cycle. A work signal the runner counts toward *drains*: paused at `now`
//! with value `v`, it scores at least `v - (t - now)` saturated at zero.
//! Rewriting that as `max(0, (v + now) - t)` makes the node-side part a
//! constant — the **absolute key** `K = v + now` — so the index can store
//! plain integers and decode any future query's lower bound as
//! `K.saturating_sub(t)`. Zero signals are stored as the literal key `0`
//! (a drained component is exactly zero at every future `t`, not merely
//! bounded by it).
//!
//! A signal the runner does not count toward is *frozen* until the node's
//! next event, and is stored as the **exact key** `v`. For
//! `predictive-live`'s blocking work at arrival priority `p` that is every
//! level above the running task's priority, every level of an idle node,
//! and every level once the runner's estimate is used up (the engine's
//! [`DispatchSignals::runner_priority`] names the levels that drain,
//! matching `SimSession::predicted_blocking_work_at`). Decoding `K - t`
//! there would undershoot a value that never moved, and the walk would
//! have to bring up nodes that cannot win. The remaining-work secondary
//! and `least-work-live`'s primary stay absolute; `jsq-live`'s queue depth
//! is exact for a paused node.
//!
//! # The saturation window, and why the staleness heap exists
//!
//! `saturating_sub` is strictly increasing on `{0} ∪ (t, ∞)` but collapses
//! `(0, t]` onto `0` — and a collapsed component can reorder *lexicographic*
//! comparisons against the tuple order the structures were built with. The
//! index therefore maintains the invariant that **at query time every
//! stored absolute component is either exactly `0` or exceeds `t`** (exact
//! components are never decoded, so they never enter the window): each
//! refresh pushes the node's smallest nonzero absolute component onto a
//! min-heap — the rest are at least as large, so they cannot enter the
//! window first — and each query drains the heap up to `t`, bringing up
//! any node whose stored components actually fell inside the window (the
//! node advances to `t`, its refresh re-anchors the key above `t`, or the
//! signal drained to an exact zero). Under the invariant, decoded lower
//! bounds order exactly like stored keys, so each structure's minimum *is*
//! its best remaining lower bound: a walk that brings each minimum up
//! (re-anchoring its key to the exact score) stops once its best exact key
//! beats the next minimum.
//!
//! # Fault-penalty tiers as the major key
//!
//! The reference prefixes every score with the failure-aware penalty tier
//! (down > cooling > healthy). Tiers only *rise* at fault-drain instants —
//! which already refresh the index — and *decay* at instants the driver can
//! name in advance ([`crate::faults::FaultDriver`]`::penalty_with_expiry`),
//! so the index stores the tier as the leading key component and keeps a
//! second min-heap of decay instants; queries drain it and re-key the
//! affected nodes before reading the minimum.
//!
//! # The unindexed side set
//!
//! A stalled node (crash/freeze window) parks its clock while `t` advances,
//! and a degraded node's signals shrink slower than its wall clock — for
//! both, advancing does *not* push the absolute key past `t`, so they
//! cannot satisfy the window invariant and would pin the staleness drain.
//! Refresh instead diverts them to a small `unindexed` set whose exact
//! scores the query folds in linearly; fault-window edges go through
//! `reschedule`, so the node rejoins the ordered structures at its next
//! refresh once healthy. The set is bounded by the
//! number of concurrently open fault windows, which is what keeps the
//! common case at O(log nodes).
//!
//! # Structures
//!
//! Every policy keeps its contenders in [`TournamentTree`]s:
//!
//! * `jsq-live` ([`OnlineDispatchPolicy::ShortestQueue`]): one tree keyed
//!   (penalty, queue depth, absolute remaining work, node) — depth is exact
//!   for a paused node, never lower-bounded.
//! * `least-work-live` ([`OnlineDispatchPolicy::LeastWork`]): one tree
//!   keyed (penalty, absolute remaining, node).
//! * `predictive-live` ([`OnlineDispatchPolicy::Predictive`]): two trees
//!   per arrival priority, each keyed (penalty, blocking work at that
//!   priority, absolute remaining, node). The draining tree holds the
//!   nodes whose runner counts toward the level, with absolute blocking
//!   keys; the frozen tree holds the rest, with exact ones. A query
//!   decodes both minima and takes the smaller, node index last.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use npu_sim::Cycles;
use prema_core::{DispatchSignals, Priority};

use crate::online::OnlineDispatchPolicy;

/// A stored contender key: (penalty tier, primary, secondary), ordered
/// lexicographically with the node index as the final tiebreak. The
/// secondary is always the absolute remaining work. The primary is exact
/// for `jsq-live` (queue depth) and in `predictive-live`'s frozen trees;
/// everywhere else it is absolute.
type StoredKey = (u8, u64, u64);

/// The number of arrival priorities, hence of `predictive-live`'s tree
/// pairs.
const LEVELS: usize = Priority::ALL.len();

/// The sentinel a [`TournamentTree`] leaf holds when its node is absent
/// (diverted to the unindexed side set). Orders after every real key.
const ABSENT: (u8, u64, u64, u32) = (u8::MAX, u64::MAX, u64::MAX, u32::MAX);

/// Encodes one work signal read at node-local `now` as an absolute key:
/// `0` stays the exact `0`, anything else anchors to the node's clock.
fn absolute(value: Cycles, now: Cycles) -> u64 {
    if value.is_zero() {
        0
    } else {
        value.get() + now.get()
    }
}

/// Decodes an absolute component back to the lower bound it proves at `t`.
/// Exact under the window invariant (component is `0` or exceeds `t`).
fn decode(component: u64, t: u64) -> u64 {
    component.saturating_sub(t)
}

/// A flat min-tournament (segment) tree over node indices: O(log n)
/// re-key, O(1) minimum. Leaves hold (key, node); internal slots the
/// minimum of their children.
#[derive(Debug, Clone)]
pub(crate) struct TournamentTree {
    /// Leaf count, padded to a power of two.
    width: usize,
    /// 1-based heap layout: `slots[1]` is the root, `slots[width + i]` the
    /// leaf of node `i`; absent leaves hold [`ABSENT`].
    slots: Vec<(u8, u64, u64, u32)>,
}

impl TournamentTree {
    fn new(nodes: usize) -> Self {
        let width = nodes.next_power_of_two().max(1);
        TournamentTree {
            width,
            slots: vec![ABSENT; width * 2],
        }
    }

    /// Re-keys `node` (`None` removes it) and repairs the path to the root,
    /// stopping early once an ancestor's minimum is unaffected.
    fn set(&mut self, node: usize, key: Option<StoredKey>) {
        let mut slot = self.width + node;
        let leaf = match key {
            Some((penalty, a, b)) => (penalty, a, b, node as u32),
            None => ABSENT,
        };
        if self.slots[slot] == leaf {
            return;
        }
        self.slots[slot] = leaf;
        while slot > 1 {
            slot /= 2;
            let merged = self.slots[2 * slot].min(self.slots[2 * slot + 1]);
            if self.slots[slot] == merged {
                break;
            }
            self.slots[slot] = merged;
        }
    }

    /// The minimum (penalty, primary, secondary, node), if any node is
    /// present.
    fn min(&self) -> Option<(u8, u64, u64, usize)> {
        let (penalty, a, b, node) = self.slots[1];
        (node != u32::MAX).then_some((penalty, a, b, node as usize))
    }
}

/// One node's cached refresh: everything needed to re-derive its stored
/// keys without touching the session again.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    penalty: u8,
    /// `false` while the node sits in the unindexed side set.
    indexed: bool,
    depth: u64,
    /// Absolute.
    remaining: u64,
    /// Absolute at the levels below `draining`, exact at the rest.
    blocking: [u64; LEVELS],
    /// How many levels, from the lowest priority up, the runner counts
    /// toward: its priority's index plus one, or zero when nothing drains.
    draining: usize,
}

/// The per-policy contender index. See the module docs for the invariants;
/// the owning loop guarantees every session mutation is followed by
/// [`ContenderIndex::refresh`] and every query is preceded by the penalty
/// and staleness drains.
#[derive(Debug)]
pub(crate) struct ContenderIndex {
    policy: OnlineDispatchPolicy,
    /// One tree, or for `predictive-live` a (draining, frozen) pair per
    /// arrival priority, at `2 * level` and `2 * level + 1`.
    trees: Vec<TournamentTree>,
    entries: Vec<Entry>,
    /// Min-heap of (smallest nonzero absolute key component, node): a due
    /// entry flags a node whose stored components may have entered the
    /// saturation window. Lazily invalidated — refreshes push, queries
    /// validate at pop.
    staleness: BinaryHeap<Reverse<(u64, u32)>>,
    /// Min-heap of (penalty-decay instant, node); see
    /// [`crate::faults::FaultDriver::penalty_with_expiry`].
    promotions: BinaryHeap<Reverse<(Cycles, u32)>>,
    /// Stalled / degraded nodes, excluded from the ordered structures and
    /// scanned linearly by the query (ascending, like the reference).
    unindexed: BTreeSet<u32>,
}

impl ContenderIndex {
    pub(crate) fn new(policy: OnlineDispatchPolicy, nodes: usize) -> Self {
        let trees = match policy {
            OnlineDispatchPolicy::Predictive => 2 * LEVELS,
            _ => 1,
        };
        ContenderIndex {
            policy,
            trees: vec![TournamentTree::new(nodes); trees],
            entries: vec![Entry::default(); nodes],
            staleness: BinaryHeap::new(),
            promotions: BinaryHeap::new(),
            unindexed: BTreeSet::new(),
        }
    }

    /// The stored key of `node` in the tree of priority level `level`,
    /// from the cached entry.
    fn stored_key(&self, node: usize, level: usize) -> StoredKey {
        let entry = &self.entries[node];
        match self.policy {
            OnlineDispatchPolicy::ShortestQueue => (entry.penalty, entry.depth, entry.remaining),
            OnlineDispatchPolicy::LeastWork => (entry.penalty, entry.remaining, entry.remaining),
            OnlineDispatchPolicy::Predictive => {
                (entry.penalty, entry.blocking[level], entry.remaining)
            }
        }
    }

    /// Writes `node`'s current keys into the trees, or removes it when
    /// diverted to the side set. Under `predictive-live` each level's key
    /// goes to the draining or the frozen tree of the level and leaves the
    /// other.
    fn apply(&mut self, node: usize) {
        let entry = self.entries[node];
        match self.policy {
            OnlineDispatchPolicy::ShortestQueue | OnlineDispatchPolicy::LeastWork => {
                let key = entry.indexed.then(|| self.stored_key(node, 0));
                self.trees[0].set(node, key);
            }
            OnlineDispatchPolicy::Predictive => {
                for level in 0..LEVELS {
                    let key = entry.indexed.then(|| self.stored_key(node, level));
                    let drains = level < entry.draining;
                    self.trees[2 * level].set(node, key.filter(|_| drains));
                    self.trees[2 * level + 1].set(node, key.filter(|_| !drains));
                }
            }
        }
    }

    /// The smallest nonzero absolute component `node`'s keys hold — the
    /// first to enter the saturation window — or `None` if all are zero
    /// or exact.
    fn watched(&self, node: usize) -> Option<u64> {
        let entry = &self.entries[node];
        let draining = match self.policy {
            OnlineDispatchPolicy::Predictive => &entry.blocking[..entry.draining],
            _ => &[],
        };
        std::iter::once(entry.remaining)
            .chain(draining.iter().copied())
            .filter(|&component| component > 0)
            .min()
    }

    /// Re-keys `node` from a fresh signal read. Returns the stored
    /// (penalty, key pair, indexed) triple for tracing.
    pub(crate) fn refresh(
        &mut self,
        node: usize,
        signals: &DispatchSignals,
    ) -> (u8, (u64, u64), bool) {
        let indexed = !signals.stalled && !signals.scaled;
        let entry = &mut self.entries[node];
        entry.depth = signals.queue_depth as u64;
        entry.remaining = absolute(signals.remaining_work, signals.now);
        entry.draining = signals
            .runner_priority
            .map_or(0, |runner| runner.index() + 1);
        for (level, slot) in entry.blocking.iter_mut().enumerate() {
            let value = signals.blocking_work[level];
            *slot = if level < entry.draining {
                absolute(value, signals.now)
            } else {
                value.get()
            };
        }
        entry.indexed = indexed;
        let traced = {
            let (_, a, b) = self.stored_key(node, 0);
            (self.entries[node].penalty, (a, b), indexed)
        };
        if indexed {
            self.unindexed.remove(&(node as u32));
        } else {
            self.unindexed.insert(node as u32);
        }
        self.apply(node);
        if indexed {
            // Arm the saturation-window watch on the component that enters
            // the window first.
            if let Some(component) = self.watched(node) {
                self.staleness.push(Reverse((component, node as u32)));
            }
        }
        traced
    }

    /// Stores `node`'s penalty tier (and arms its decay instant). The
    /// caller reads the tier from the fault driver at fault instants and at
    /// due promotions.
    pub(crate) fn set_penalty(&mut self, node: usize, tier: u8, expiry: Option<Cycles>) {
        self.entries[node].penalty = tier;
        if let Some(expiry) = expiry {
            self.promotions.push(Reverse((expiry, node as u32)));
        }
        if self.entries[node].indexed {
            self.apply(node);
        }
    }

    /// Pops the next node whose stored penalty tier may have decayed by
    /// `t`. The caller re-reads the driver and calls
    /// [`ContenderIndex::set_penalty`]; duplicates are harmless.
    pub(crate) fn next_due_promotion(&mut self, t: Cycles) -> Option<usize> {
        let &Reverse((expiry, node)) = self.promotions.peek()?;
        if expiry > t {
            return None;
        }
        self.promotions.pop();
        Some(node as usize)
    }

    /// Pops the next indexed node with a stored absolute component inside
    /// the saturation window `(0, t]`. The caller advances it to `t`
    /// (whose refresh re-anchors the key) and calls again; `None` means the
    /// window invariant holds for every indexed node.
    pub(crate) fn pop_stale(&mut self, t: Cycles) -> Option<usize> {
        let t = t.get();
        while let Some(&Reverse((component, node))) = self.staleness.peek() {
            if component > t {
                return None;
            }
            self.staleness.pop();
            let node = node as usize;
            if self.entries[node].indexed && self.watched(node).is_some_and(|c| c <= t) {
                return Some(node);
            }
        }
        None
    }

    /// The minimum stored key under `priority`, decoded to the lower bound
    /// it proves at `t`: (penalty, score pair, node). Under the window
    /// invariant this is the best lower bound over every indexed node, so a
    /// best-so-far that beats it (with the index tiebreak) ends the query.
    /// `predictive-live` decodes the minima of the level's draining and
    /// frozen trees and returns the smaller.
    pub(crate) fn min_lower(
        &self,
        priority: Priority,
        t: Cycles,
    ) -> Option<(u8, (u64, u64), usize)> {
        let t = t.get();
        let decoded = |tree: usize, exact_primary: bool| {
            let (penalty, a, b, node) = self.trees[tree].min()?;
            let primary = if exact_primary { a } else { decode(a, t) };
            Some(((penalty, (primary, decode(b, t))), node))
        };
        let best = match self.policy {
            OnlineDispatchPolicy::ShortestQueue => decoded(0, true),
            OnlineDispatchPolicy::LeastWork => decoded(0, false),
            OnlineDispatchPolicy::Predictive => {
                let level = priority.index();
                decoded(2 * level, false)
                    .into_iter()
                    .chain(decoded(2 * level + 1, true))
                    .min()
            }
        };
        best.map(|((penalty, pair), node)| (penalty, pair, node))
    }

    /// The unindexed (stalled / degraded) nodes, ascending — the query's
    /// linear side set.
    pub(crate) fn copy_unindexed_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.unindexed.iter().map(|&node| node as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tournament_tree_tracks_the_argmin_under_random_rekeys() {
        let mut rng = StdRng::seed_from_u64(9);
        for nodes in [1usize, 2, 5, 8, 33] {
            let mut tree = TournamentTree::new(nodes);
            let mut shadow: Vec<Option<StoredKey>> = vec![None; nodes];
            for _ in 0..400 {
                let node = rng.gen_range(0..nodes);
                let key = rng.gen_bool(0.8).then(|| {
                    (
                        rng.gen_range(0u8..3),
                        rng.gen_range(0u64..50),
                        rng.gen::<u64>(),
                    )
                });
                tree.set(node, key);
                shadow[node] = key;
                let expect = shadow
                    .iter()
                    .enumerate()
                    .filter_map(|(i, key)| key.map(|(p, a, b)| (p, a, b, i)))
                    .min();
                assert_eq!(tree.min(), expect);
            }
        }
    }

    #[test]
    fn absolute_keys_decode_to_the_scan_lower_bound() {
        // K = v + now decoded at t is exactly v - (t - now) saturated —
        // the lower bound on the score of a node paused at `now`.
        for (v, now, t) in [(40u64, 10u64, 30u64), (5, 0, 30), (0, 25, 30), (7, 30, 30)] {
            let key = absolute(Cycles::new(v), Cycles::new(now));
            assert_eq!(decode(key, t), v.saturating_sub(t - now));
        }
    }

    #[test]
    fn window_invariant_makes_stored_order_match_decoded_order() {
        // For components that are 0 or exceed t, decoding preserves strict
        // lexicographic order — the soundness core of the stop rule.
        let mut rng = StdRng::seed_from_u64(23);
        let t = 1000u64;
        let draw = |rng: &mut StdRng| -> u64 {
            if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(t + 1..t + 500)
            }
        };
        for _ in 0..2000 {
            let x = (draw(&mut rng), draw(&mut rng));
            let y = (draw(&mut rng), draw(&mut rng));
            let decoded = |k: (u64, u64)| (decode(k.0, t), decode(k.1, t));
            assert_eq!(
                x.cmp(&y),
                decoded(x).cmp(&decoded(y)),
                "{x:?} vs {y:?} at {t}"
            );
        }
    }

    #[test]
    fn staleness_pops_exactly_the_in_window_nodes() {
        let mut index = ContenderIndex::new(OnlineDispatchPolicy::LeastWork, 3);
        let signals = |now: u64, remaining: u64| DispatchSignals {
            now: Cycles::new(now),
            queue_depth: 1,
            remaining_work: Cycles::new(remaining),
            blocking_work: [Cycles::new(remaining); LEVELS],
            runner_priority: None,
            stalled: false,
            scaled: false,
        };
        index.refresh(0, &signals(0, 50)); // K = 50: inside the window at t=100
        index.refresh(1, &signals(0, 500)); // K = 500: beyond t
        index.refresh(2, &signals(0, 0)); // exact zero: never stale
        assert_eq!(index.pop_stale(Cycles::new(100)), Some(0));
        // Advancing would re-anchor node 0; simulate that refresh.
        index.refresh(0, &signals(100, 30)); // K = 130 > 100
        assert_eq!(index.pop_stale(Cycles::new(100)), None);
        let min = index.min_lower(Priority::ALL[0], Cycles::new(100));
        // Node 2 is drained (exact zero) and wins outright.
        assert_eq!(min, Some((0, (0, 0), 2)));
    }

    #[test]
    fn stalled_nodes_divert_to_the_side_set_and_rejoin() {
        let mut index = ContenderIndex::new(OnlineDispatchPolicy::ShortestQueue, 2);
        let mut signals = DispatchSignals {
            now: Cycles::new(10),
            queue_depth: 3,
            remaining_work: Cycles::new(70),
            blocking_work: [Cycles::new(70); LEVELS],
            runner_priority: Some(Priority::Low),
            stalled: true,
            scaled: false,
        };
        index.refresh(0, &signals);
        index.refresh(
            1,
            &DispatchSignals {
                queue_depth: 0,
                remaining_work: Cycles::ZERO,
                blocking_work: [Cycles::ZERO; LEVELS],
                runner_priority: None,
                stalled: false,
                ..signals
            },
        );
        let mut side = Vec::new();
        index.copy_unindexed_into(&mut side);
        assert_eq!(side, vec![0]);
        // Only idle node 1 remains in the ordered structures.
        assert_eq!(
            index.min_lower(Priority::ALL[0], Cycles::new(10)),
            Some((0, (0, 0), 1))
        );
        signals.stalled = false;
        index.refresh(0, &signals);
        index.copy_unindexed_into(&mut side);
        assert!(side.is_empty());
    }

    /// Signals of a node paused at `now` on the predictive policy's view:
    /// blocking work per level (`[low, medium, high]`), the remaining work
    /// being the lowest level's, and the runner that drains.
    fn predictive(now: u64, blocking: [u64; LEVELS], runner: Option<Priority>) -> DispatchSignals {
        DispatchSignals {
            now: Cycles::new(now),
            queue_depth: 2,
            remaining_work: Cycles::new(blocking[0]),
            blocking_work: blocking.map(Cycles::new),
            runner_priority: runner,
            stalled: false,
            scaled: false,
        }
    }

    #[test]
    fn blocking_work_above_the_runner_is_keyed_exact() {
        let mut index = ContenderIndex::new(OnlineDispatchPolicy::Predictive, 2);
        // Node 0 runs a Low task (40 cycles left) with 60 cycles of High
        // work queued behind it: a High arrival waits for exactly 60
        // however long the Low runner runs.
        index.refresh(0, &predictive(0, [100, 60, 60], Some(Priority::Low)));
        for t in [30, 99] {
            // The frozen level reads 60, not the absolute 60 - t; only
            // the remaining-work secondary lower-bounds.
            assert_eq!(
                index.min_lower(Priority::High, Cycles::new(t)),
                Some((0, (60, 100 - t), 0))
            );
            assert_eq!(
                index.min_lower(Priority::Low, Cycles::new(t)),
                Some((0, (100 - t, 100 - t), 0))
            );
            // The frozen 60 never enters the saturation window.
            assert_eq!(index.pop_stale(Cycles::new(t)), None);
        }
        // Node 1 runs 80 cycles of High work, which drains every level.
        index.refresh(1, &predictive(0, [80, 80, 80], Some(Priority::High)));
        let high = |index: &ContenderIndex, t: u64| index.min_lower(Priority::High, Cycles::new(t));
        // Early on node 0's frozen 60 beats node 1's 80 - t; at t = 20
        // the primaries tie and node 1's smaller remaining work wins.
        assert_eq!(high(&index, 10), Some((0, (60, 90), 0)));
        assert_eq!(high(&index, 19), Some((0, (60, 81), 0)));
        assert_eq!(high(&index, 20), Some((0, (60, 60), 1)));
        assert_eq!(high(&index, 30), Some((0, (50, 50), 1)));
        // With the secondaries tied too, the node index decides.
        index.refresh(1, &predictive(0, [100, 80, 80], Some(Priority::High)));
        assert_eq!(high(&index, 20), Some((0, (60, 80), 0)));
    }

    #[test]
    fn a_used_up_estimate_keys_every_level_frozen() {
        let mut index = ContenderIndex::new(OnlineDispatchPolicy::Predictive, 1);
        // The runner has outlived its estimate: nothing drains, so every
        // level's blocking work reads the same at any later instant.
        let blocking = [50, 20, 0];
        index.refresh(0, &predictive(100, blocking, None));
        for level in Priority::ALL {
            let expect = blocking[level.index()];
            assert_eq!(
                index.min_lower(level, Cycles::new(140)),
                Some((0, (expect, 10), 0)),
                "{level:?}"
            );
        }
        // Only the absolute remaining work (150) is watched.
        assert_eq!(index.staleness.len(), 1);
        assert_eq!(index.pop_stale(Cycles::new(149)), None);
        assert_eq!(index.pop_stale(Cycles::new(150)), Some(0));
    }

    #[test]
    fn one_watch_per_refresh_fires_at_the_smallest_absolute_component() {
        let mut index = ContenderIndex::new(OnlineDispatchPolicy::Predictive, 1);
        // A Medium runner drains the Low and Medium levels (absolute 100
        // and 70); the High level's 30 is frozen and never watched.
        index.refresh(0, &predictive(0, [100, 70, 30], Some(Priority::Medium)));
        assert_eq!(index.staleness.len(), 1);
        assert_eq!(index.pop_stale(Cycles::new(69)), None);
        assert_eq!(index.pop_stale(Cycles::new(70)), Some(0));
        // The caller brings the node up to t = 70; its refresh re-anchors
        // every absolute component above t, and the drain ends.
        index.refresh(0, &predictive(70, [30, 0, 0], Some(Priority::Low)));
        assert_eq!(index.pop_stale(Cycles::new(70)), None);
        assert_eq!(index.pop_stale(Cycles::new(99)), None);
        assert_eq!(index.pop_stale(Cycles::new(100)), Some(0));
    }
}
