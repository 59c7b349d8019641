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
//! # Absolute keys
//!
//! A quiet node's state is frozen between its own advances: every mutation
//! (due advance, inject, salvage, shed, fault edge) flows through the
//! loop's `reschedule` hook, which refreshes this index. What changes
//! between refreshes is the *query instant* `t`, not the node: until its
//! next-event certificate, only the runner progresses, at one cycle per
//! cycle, so a node paused at `now` with work-signal `v` scores at least
//! `v - (t - now)` saturated at zero. Rewriting it as
//! `max(0, (v + now) - t)` makes the node-side part a constant — the
//! **absolute key** `K = v + now` — so the index can store plain integers
//! and decode any future query's lower bound as `K.saturating_sub(t)`.
//! Zero signals are stored as the literal key `0` (a drained component is
//! exactly zero at every future `t`, not merely bounded by it).
//!
//! # The saturation window, and why the staleness heap exists
//!
//! `saturating_sub` is strictly increasing on `{0} ∪ (t, ∞)` but collapses
//! `(0, t]` onto `0` — and a collapsed component can reorder *lexicographic*
//! comparisons against the tuple order the structures were built with. The
//! index therefore maintains the invariant that **at query time every
//! stored absolute component is either exactly `0` or exceeds `t`**: each
//! refresh pushes its nonzero components onto a min-heap, and each query
//! first drains the heap up to `t`, bringing up any node whose stored
//! components actually fell inside the window (the node advances to `t`,
//! its refresh re-anchors the key above `t`, or the signal drained to an
//! exact zero). Under the invariant, decoded lower bounds order exactly
//! like stored keys, so the structure minimum *is* the best remaining lower
//! bound: a walk that brings each minimum up (re-anchoring its key to the
//! exact score) stops once its best exact key beats the next minimum.
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
//! Every policy keeps its contenders in a [`TournamentTree`]:
//!
//! * `jsq-live` ([`OnlineDispatchPolicy::ShortestQueue`]): one tree keyed
//!   (penalty, queue depth, absolute remaining work, node) — depth is exact
//!   for a paused node, never lower-bounded.
//! * `least-work-live` ([`OnlineDispatchPolicy::LeastWork`]): one tree
//!   keyed (penalty, absolute remaining, node).
//! * `predictive-live` ([`OnlineDispatchPolicy::Predictive`]): one tree per
//!   arrival priority, keyed (penalty, absolute blocking work at that
//!   priority, absolute remaining, node).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use npu_sim::Cycles;
use prema_core::{DispatchSignals, Priority};

use crate::online::OnlineDispatchPolicy;

/// A stored contender key: (penalty tier, primary, secondary), ordered
/// lexicographically with the node index as the final tiebreak. For
/// `jsq-live` the primary is the exact queue depth; everywhere else both
/// components are absolute (clock-anchored) work signals.
type StoredKey = (u8, u64, u64);

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
    remaining: u64,
    blocking: [u64; Priority::ALL.len()],
}

/// The per-policy contender index. See the module docs for the invariants;
/// the owning loop guarantees every session mutation is followed by
/// [`ContenderIndex::refresh`] and every query is preceded by the penalty
/// and staleness drains.
#[derive(Debug)]
pub(crate) struct ContenderIndex {
    policy: OnlineDispatchPolicy,
    /// One tree, or one per arrival priority for `predictive-live`.
    trees: Vec<TournamentTree>,
    entries: Vec<Entry>,
    /// Min-heap of (absolute key component, node): a due entry flags a node
    /// whose stored components may have entered the saturation window.
    /// Lazily invalidated — refreshes push, queries validate at pop.
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
            OnlineDispatchPolicy::Predictive => Priority::ALL.len(),
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
    /// diverted to the side set.
    fn apply(&mut self, node: usize) {
        let present = self.entries[node].indexed;
        for level in 0..self.trees.len() {
            let key = present.then(|| self.stored_key(node, level));
            self.trees[level].set(node, key);
        }
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
        for (level, slot) in entry.blocking.iter_mut().enumerate() {
            *slot = absolute(signals.blocking_work[level], signals.now);
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
            // Arm the saturation-window watch for every nonzero absolute
            // component this policy keys on.
            let entry = self.entries[node];
            let mut watch = |component: u64| {
                if component > 0 {
                    self.staleness.push(Reverse((component, node as u32)));
                }
            };
            match self.policy {
                OnlineDispatchPolicy::ShortestQueue | OnlineDispatchPolicy::LeastWork => {
                    watch(entry.remaining);
                }
                OnlineDispatchPolicy::Predictive => {
                    for level in 0..Priority::ALL.len() {
                        watch(entry.blocking[level]);
                    }
                }
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
            let entry = &self.entries[node as usize];
            if !entry.indexed {
                continue;
            }
            let in_window = |c: u64| c > 0 && c <= t;
            let stale = match self.policy {
                OnlineDispatchPolicy::ShortestQueue | OnlineDispatchPolicy::LeastWork => {
                    in_window(entry.remaining)
                }
                OnlineDispatchPolicy::Predictive => entry.blocking.iter().any(|&c| in_window(c)),
            };
            if stale {
                return Some(node as usize);
            }
        }
        None
    }

    /// The minimum stored key under `priority`, decoded to the lower bound
    /// it proves at `t`: (penalty, score pair, node). Under the window
    /// invariant this is the best lower bound over every indexed node, so a
    /// best-so-far that beats it (with the index tiebreak) ends the query.
    pub(crate) fn min_lower(
        &self,
        priority: Priority,
        t: Cycles,
    ) -> Option<(u8, (u64, u64), usize)> {
        let t = t.get();
        let level = match self.policy {
            OnlineDispatchPolicy::Predictive => priority.index(),
            _ => 0,
        };
        let (penalty, a, b, node) = self.trees[level].min()?;
        let primary = match self.policy {
            // Depth is stored exact, not clock-anchored.
            OnlineDispatchPolicy::ShortestQueue => a,
            _ => decode(a, t),
        };
        Some((penalty, (primary, decode(b, t)), node))
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
            blocking_work: [Cycles::new(remaining); Priority::ALL.len()],
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
            blocking_work: [Cycles::new(70); Priority::ALL.len()],
            stalled: true,
            scaled: false,
        };
        index.refresh(0, &signals);
        index.refresh(
            1,
            &DispatchSignals {
                queue_depth: 0,
                remaining_work: Cycles::ZERO,
                blocking_work: [Cycles::ZERO; Priority::ALL.len()],
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
}
