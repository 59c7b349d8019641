//! Front-end dispatch policies: which NPU node serves an incoming request.
//!
//! The dispatcher sees each request once, at its arrival, and must commit it
//! to a node immediately (no work stealing, no migration — a request's
//! context lives in its node's memory once dispatched, Section IV-A). Its
//! only information is what a real front-end would have: the predictor's
//! isolated-time estimate for the request and its own book-keeping of what
//! it previously sent to each node. It never looks inside the node
//! simulators.
//!
//! The book-keeping is a single-server FCFS approximation per node (a
//! `NodeLedger`): each admitted request is predicted to start when the
//! node's predicted backlog drains and to run for its estimated isolated
//! time. The per-node schedulers (NP-FCFS, PREMA, ...) reorder and preempt
//! in reality, so these are *estimates* — exactly the imprecision a real
//! cluster front-end operates under.
//!
//! The closed-loop (`-live`) counterparts of the queue-depth and
//! work-based policies read real node state instead of ledgers; at scale
//! their per-arrival node choice is served by the crate-private
//! `contender` index (tournament trees over the same scores, O(log nodes))
//! rather than a linear scan — see the `event_heap` module.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use npu_sim::Cycles;
use prema_core::{Priority, TaskId};

use crate::trace::{ClusterTraceEvent, ClusterTraceSink, NodeKey, NodeKeySet, NullClusterSink};

/// Which node an arriving request is sent to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Uniformly random node (seeded; the canonical "no information"
    /// baseline).
    Random,
    /// Cycle through the nodes in order, ignoring load.
    RoundRobin,
    /// Join-shortest-queue: the node with the fewest requests predicted to
    /// still be in service at the arrival instant.
    ShortestQueue,
    /// Least-work-left: the node with the smallest summed predicted
    /// remaining cycles at the arrival instant, priority-blind.
    LeastWork,
    /// Predictive: the node on which this request's *estimated completion*
    /// is earliest, accounting for what the node's preemptive scheduler
    /// will actually run first — the request is predicted to wait only for
    /// remaining work of equal-or-higher priority (it preempts or outranks
    /// the rest), then run for its own predicted isolated time. This is
    /// PREMA's predictor-plus-priority reasoning (Algorithm 2's token
    /// ordering, Section V-C) lifted to cluster scope.
    Predictive,
}

impl DispatchPolicy {
    /// Every dispatch policy, in the order the cluster sweep reports them.
    pub const ALL: [DispatchPolicy; 5] = [
        DispatchPolicy::Random,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::ShortestQueue,
        DispatchPolicy::LeastWork,
        DispatchPolicy::Predictive,
    ];

    /// A short stable label for reports and baselines.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::Random => "random",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::ShortestQueue => "jsq",
            DispatchPolicy::LeastWork => "least-work",
            DispatchPolicy::Predictive => "predictive",
        }
    }

    /// Whether the policy consumes the predictor's isolated-time estimates
    /// (queue counts alone do not need them).
    pub fn uses_predictor(self) -> bool {
        matches!(self, DispatchPolicy::LeastWork | DispatchPolicy::Predictive)
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One admitted request in a node's front-end ledger.
#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    /// Predicted completion under the FCFS single-server approximation.
    completion: Cycles,
    /// The request's predicted isolated execution time.
    estimate: Cycles,
    /// The request's priority.
    priority: Priority,
}

/// The front-end's single-server FCFS approximation of one node's state.
#[derive(Debug, Clone, Default)]
struct NodeLedger {
    /// Every admitted request that may still be in service; drained entries
    /// are pruned as arrivals advance.
    entries: Vec<LedgerEntry>,
    /// Predicted time at which the node's backlog drains.
    free_at: Cycles,
}

impl NodeLedger {
    /// Drops entries predicted to have completed by `now`.
    ///
    /// Every read below assumes this ran with the same `now` first (the
    /// dispatcher prunes all ledgers at each arrival), so the remaining
    /// entries all satisfy `completion > now` and the reads need no
    /// liveness re-filtering of their own.
    fn prune(&mut self, now: Cycles) {
        self.entries.retain(|entry| entry.completion > now);
    }

    /// Requests predicted to still be queued or in service at `now`.
    fn queued_at(&self) -> usize {
        self.entries.len()
    }

    /// Summed predicted remaining cycles at `now`: a not-yet-started request
    /// contributes its full estimate, an in-service one its remaining part.
    fn work_left_at(&self, now: Cycles) -> Cycles {
        self.entries
            .iter()
            .map(|entry| (entry.completion - now).min(entry.estimate))
            .sum()
    }

    /// Predicted remaining cycles of work an arriving request of `priority`
    /// is expected to wait for on a preemptive node: only entries of
    /// equal-or-higher priority — the request preempts or outranks the
    /// lower-priority rest.
    fn blocking_work_at(&self, now: Cycles, priority: Priority) -> Cycles {
        self.entries
            .iter()
            .filter(|entry| entry.priority >= priority)
            .map(|entry| (entry.completion - now).min(entry.estimate))
            .sum()
    }

    /// Predicted completion of a request arriving at `arrival` under the
    /// priority-aware model: wait out the blocking (equal-or-higher
    /// priority) work, then run for `estimate`.
    fn predicted_completion(
        &self,
        arrival: Cycles,
        estimate: Cycles,
        priority: Priority,
    ) -> Cycles {
        arrival + self.blocking_work_at(arrival, priority) + estimate
    }

    /// Records an admitted request in the ledger.
    fn admit(&mut self, arrival: Cycles, estimate: Cycles, priority: Priority) {
        let completion = self.free_at.max(arrival) + estimate;
        self.free_at = completion;
        self.entries.push(LedgerEntry {
            completion,
            estimate,
            priority,
        });
    }
}

/// The cluster front-end: assigns arriving requests to nodes under one
/// [`DispatchPolicy`], maintaining its per-node prediction ledgers.
///
/// Fully deterministic: the only randomness is the seeded RNG behind
/// [`DispatchPolicy::Random`].
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    ledgers: Vec<NodeLedger>,
    rr_cursor: usize,
    rng: StdRng,
}

impl Dispatcher {
    /// Creates a dispatcher over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: DispatchPolicy, nodes: usize, seed: u64) -> Self {
        assert!(nodes > 0, "at least one node is required");
        Dispatcher {
            policy,
            ledgers: vec![NodeLedger::default(); nodes],
            rr_cursor: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ledgers.len()
    }

    /// Picks the node for a request arriving at `arrival` with predicted
    /// isolated time `estimate` and the given `priority`, and records the
    /// assignment in the front-end ledger. Requests must be offered in
    /// non-decreasing arrival order. Load-based policies break ties toward
    /// the lowest node index.
    pub fn assign(&mut self, arrival: Cycles, estimate: Cycles, priority: Priority) -> usize {
        self.assign_with(
            TaskId(u64::MAX),
            arrival,
            estimate,
            priority,
            &RefCell::new(NullClusterSink),
        )
    }

    /// [`Dispatcher::assign`] with a [`ClusterTraceSink`] attached: the
    /// decision is recorded as a [`ClusterTraceEvent::DispatchDecision`]
    /// carrying `task` and, for the load-based policies, the per-node
    /// front-end ledger scores actually compared (the stateless policies —
    /// random, round-robin — record an empty key set). The sink only
    /// observes: the chosen node is identical to [`Dispatcher::assign`]'s.
    pub fn assign_with<C: ClusterTraceSink>(
        &mut self,
        task: TaskId,
        arrival: Cycles,
        estimate: Cycles,
        priority: Priority,
        trace: &RefCell<C>,
    ) -> usize {
        for ledger in &mut self.ledgers {
            ledger.prune(arrival);
        }
        let score = |ledger: &NodeLedger| -> Option<(u64, u64)> {
            let work = ledger.work_left_at(arrival).get();
            match self.policy {
                DispatchPolicy::Random | DispatchPolicy::RoundRobin => None,
                DispatchPolicy::ShortestQueue => Some((ledger.queued_at() as u64, work)),
                DispatchPolicy::LeastWork => Some((work, work)),
                DispatchPolicy::Predictive => Some((
                    ledger
                        .predicted_completion(arrival, estimate, priority)
                        .get(),
                    work,
                )),
            }
        };
        let node = match self.policy {
            DispatchPolicy::Random => self.rng.gen_range(0..self.ledgers.len()),
            DispatchPolicy::RoundRobin => {
                let node = self.rr_cursor % self.ledgers.len();
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                node
            }
            DispatchPolicy::ShortestQueue => self.argmin(|ledger| ledger.queued_at() as u64),
            DispatchPolicy::LeastWork => self.argmin(|ledger| ledger.work_left_at(arrival).get()),
            DispatchPolicy::Predictive => self.argmin(|ledger| {
                ledger
                    .predicted_completion(arrival, estimate, priority)
                    .get()
            }),
        };
        if C::ENABLED {
            let mut keys = NodeKeySet::default();
            for (index, ledger) in self.ledgers.iter().enumerate() {
                if let Some(key) = score(ledger) {
                    keys.push(NodeKey {
                        node: index,
                        penalty: 0,
                        key,
                    });
                }
            }
            trace.borrow_mut().cluster_event(
                arrival,
                ClusterTraceEvent::DispatchDecision {
                    task,
                    chosen: node,
                    keys,
                },
            );
        }
        self.ledgers[node].admit(arrival, estimate, priority);
        node
    }

    fn argmin(&self, score: impl Fn(&NodeLedger) -> u64) -> usize {
        self.ledgers
            .iter()
            .enumerate()
            .min_by_key(|(index, ledger)| (score(ledger), *index))
            .expect("at least one node")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles(v: u64) -> Cycles {
        Cycles::new(v)
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let mut labels: Vec<_> = DispatchPolicy::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DispatchPolicy::ALL.len());
        assert_eq!(DispatchPolicy::Predictive.to_string(), "predictive");
        assert!(DispatchPolicy::Predictive.uses_predictor());
        assert!(!DispatchPolicy::ShortestQueue.uses_predictor());
    }

    #[test]
    fn round_robin_cycles_through_nodes() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 0);
        let picks: Vec<usize> = (0..7)
            .map(|i| dispatcher.assign(cycles(i), cycles(100), Priority::Medium))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn shortest_queue_prefers_the_empty_node() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::ShortestQueue, 2, 0);
        let assign = |d: &mut Dispatcher, t: u64, est: u64| {
            d.assign(cycles(t), cycles(est), Priority::Medium)
        };
        // Two long requests land on nodes 0 and 1; the third goes wherever
        // fewer are queued (tie -> node 0), the fourth to the other.
        assert_eq!(assign(&mut dispatcher, 0, 1_000_000), 0);
        assert_eq!(assign(&mut dispatcher, 0, 1_000_000), 1);
        assert_eq!(assign(&mut dispatcher, 10, 1_000_000), 0);
        assert_eq!(assign(&mut dispatcher, 10, 1_000_000), 1);
        // Once node 0's backlog is predicted drained, it is empty again.
        assert_eq!(assign(&mut dispatcher, 3_000_000, 10), 0);
    }

    #[test]
    fn least_work_accounts_for_request_sizes() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::LeastWork, 2, 0);
        let assign =
            |d: &mut Dispatcher, est: u64| d.assign(cycles(0), cycles(est), Priority::Medium);
        // One huge request on node 0; three small ones should all pick node 1
        // even though its queue is longer.
        assert_eq!(assign(&mut dispatcher, 9_000_000), 0);
        assert_eq!(assign(&mut dispatcher, 1_000_000), 1);
        assert_eq!(assign(&mut dispatcher, 1_000_000), 1);
        assert_eq!(assign(&mut dispatcher, 1_000_000), 1);
    }

    #[test]
    fn predictive_minimizes_estimated_completion() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::Predictive, 2, 0);
        let assign = |d: &mut Dispatcher, t: u64, est: u64| {
            d.assign(cycles(t), cycles(est), Priority::Medium)
        };
        assert_eq!(assign(&mut dispatcher, 0, 500), 0);
        // Node 0 is predicted busy until 500; node 1 finishes this one sooner.
        assert_eq!(assign(&mut dispatcher, 100, 500), 1);
        // Both predicted free before 2000: tie on completion -> node 0.
        assert_eq!(assign(&mut dispatcher, 2_000, 500), 0);
    }

    #[test]
    fn predictive_lets_high_priority_requests_ignore_low_priority_backlog() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::Predictive, 2, 0);
        // A big low-priority job lands on node 0.
        assert_eq!(
            dispatcher.assign(cycles(0), cycles(10_000), Priority::Low),
            0
        );
        // A high-priority request preempts low-priority work, so busy node 0
        // is predicted no worse than idle node 1 — the tie-break keeps it
        // on node 0 (least-work would flee to node 1, see below).
        assert_eq!(
            dispatcher.assign(cycles(0), cycles(2_000), Priority::High),
            0
        );
        // The next high-priority request does wait behind its high-priority
        // peer on node 0, so idle node 1 wins.
        assert_eq!(
            dispatcher.assign(cycles(10), cycles(500), Priority::High),
            1
        );
        // A low-priority request waits behind everything; node 1's short
        // backlog beats node 0's.
        assert_eq!(dispatcher.assign(cycles(20), cycles(500), Priority::Low), 1);

        // Priority-blind least-work flees the big low-priority job
        // immediately — the behavioural difference the predictive policy
        // exists for.
        let mut blind = Dispatcher::new(DispatchPolicy::LeastWork, 2, 0);
        assert_eq!(blind.assign(cycles(0), cycles(10_000), Priority::Low), 0);
        assert_eq!(blind.assign(cycles(0), cycles(2_000), Priority::High), 1);
    }

    #[test]
    fn work_left_counts_remaining_not_total_cycles() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::LeastWork, 2, 0);
        let assign = |d: &mut Dispatcher, t: u64, est: u64| {
            d.assign(cycles(t), cycles(est), Priority::Medium)
        };
        // Node 0 gets a 1000-cycle request at t=0; by t=900 only ~100 cycles
        // remain, so it beats node 1 holding a fresh 200-cycle request.
        assert_eq!(assign(&mut dispatcher, 0, 1_000), 0);
        assert_eq!(assign(&mut dispatcher, 890, 200), 1);
        assert_eq!(assign(&mut dispatcher, 900, 50), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers_nodes() {
        let picks = |seed: u64| -> Vec<usize> {
            let mut dispatcher = Dispatcher::new(DispatchPolicy::Random, 4, seed);
            (0..64)
                .map(|i| dispatcher.assign(cycles(i), cycles(100), Priority::Medium))
                .collect()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
        let seen = picks(42);
        for node in 0..4 {
            assert!(seen.contains(&node), "node {node} never picked");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Dispatcher::new(DispatchPolicy::Random, 0, 0);
    }
}
