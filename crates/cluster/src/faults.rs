//! Node fault injection and checkpoint-priced recovery for the closed-loop
//! cluster.
//!
//! A [`prema_workload::FaultSchedule`] says *when* nodes crash, freeze or
//! degrade; this module says what the cluster *does* about it.
//! [`ClusterFaultPlan`] pairs a schedule with a [`RecoveryConfig`] — the
//! retry budget, the exponential re-dispatch backoff base, and whether
//! recovery resumes from the last checkpoint commit or restarts from zero
//! (the baseline the checkpoint pricing is compared against). The
//! post-recovery dispatch cooldown is the fixed [`RECOVERY_COOLDOWN_MS`].
//! Crash recovery and the migration layer's transfer custody share one
//! retry rule: failed attempt `k` within the budget holds the task for
//! `backoff_base_ms · 2^(k−1)`, and attempt `budget + 1` abandons it.
//!
//! The crate-private `FaultDriver` is the fault state machine of the one
//! closed-loop timeline in [`crate::online`], which runs under both node
//! strategies. It owns everything about faults that is a *decision* rather
//! than a session mutation: the merged event timeline (fault starts
//! interleaved with degrade-window ends and due re-dispatches; ties process
//! degrade ends first, then fault starts, then recoveries), per-task
//! attempt counts, the failure-aware dispatch penalty, and the recovery
//! log. The timeline's one fault drain applies every event to the
//! sessions; the two strategies differ only in how they advance sessions
//! to an event instant and how a recovery's dispatch pick reads them.
//! Every fault-policy decision comes from this one implementation, so the
//! heap-vs-reference bit-identity contract extends over faulty drivings by
//! construction (and is pinned by the chaos property tests).
//!
//! A *degrade* window ([`prema_workload::FaultKind::Degrade`]) is the
//! straggler fault: the node keeps serving but its clock runs at
//! `speed_num / speed_den` of full speed
//! ([`prema_core::SimSession::set_clock_scale`]). Unlike crash and freeze
//! it contributes no downtime — the node is *up*, just slow — so it is
//! tracked separately (`degrades`, `node_degraded_time`) and earns the
//! middle dispatch-penalty tier rather than the down tier. Both the window
//! start and its end are global synchronization points (the timeline steps
//! there, and the degraded node is advanced to the window edge before its
//! clock scale flips), which is what keeps the bit-identity contract intact
//! over scaled clocks.
//!
//! The recovery cost model follows the engine's commit-point salvage
//! ([`prema_core::SimSession::fail`]): a crash loses in-flight progress
//! back to the last `GEMM_OP` interval boundary, and a checkpoint-priced
//! re-dispatch pays the restore DMA for exactly the context bytes that
//! were live at that boundary. Restart-from-zero recovery discards the
//! cursor (and pays no restore) but repeats all the work.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use serde::{Deserialize, Serialize};

use npu_sim::{Cycles, NpuConfig};
use prema_core::{SalvagedTask, TaskId, TaskRequest};
use prema_workload::{FaultKind, FaultSchedule, LinkFaultKind, NodeFault};

use crate::interconnect::LinkTopology;
use crate::trace::{ClusterTraceEvent, ClusterTraceSink, LinkTraceKind};

/// How long after a node's fault window ends its dispatches stay
/// deprioritized (the failure-aware dispatch cooldown), in milliseconds.
pub const RECOVERY_COOLDOWN_MS: f64 = 2.0;

/// The retry rule crash recovery and transfer custody share: failed
/// attempt `attempt` (1-based) within `budget` holds the task for
/// `backoff_base_ms · 2^(attempt−1)` before its next try; attempt
/// `budget + 1` abandons it (`None`).
pub(crate) fn retry_hold(
    npu: &NpuConfig,
    budget: u32,
    backoff_base_ms: f64,
    attempt: u32,
) -> Option<Cycles> {
    (attempt <= budget)
        .then(|| npu.millis_to_cycles(backoff_base_ms * f64::powi(2.0, attempt as i32 - 1)))
}

/// Validates a retry budget and backoff base, for crash recovery and
/// transfer custody alike.
pub(crate) fn validate_retry(budget: u32, backoff_base_ms: f64) -> Result<(), String> {
    if !backoff_base_ms.is_finite() || backoff_base_ms < 0.0 {
        return Err("retry backoff base must be non-negative and finite".into());
    }
    if budget > 32 {
        return Err("retry budget above 32 overflows the exponential backoff".into());
    }
    Ok(())
}

/// How salvaged work is re-dispatched after a node crash.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Maximum number of re-dispatch attempts per task across its lifetime.
    /// A task salvaged more than this many times is *abandoned* (reported
    /// separately from admission sheds). Zero abandons on first crash.
    pub retry_budget: u32,
    /// Base of the exponential re-dispatch backoff, in milliseconds:
    /// attempt `k` re-enters dispatch `base * 2^(k-1)` after the crash.
    pub backoff_base_ms: f64,
    /// Whether recovery resumes from the last checkpoint commit point
    /// (paying the restore DMA) or restarts the task from zero.
    pub checkpoint_recovery: bool,
}

impl RecoveryConfig {
    /// The checkpoint-priced recovery policy: resume from the last commit
    /// point, three attempts, 0.5 ms backoff base.
    pub fn checkpointed() -> Self {
        RecoveryConfig {
            retry_budget: 3,
            backoff_base_ms: 0.5,
            checkpoint_recovery: true,
        }
    }

    /// The restart-from-zero baseline: identical retry/backoff, but every
    /// recovery discards all execution progress.
    pub fn restart_from_zero() -> Self {
        RecoveryConfig {
            checkpoint_recovery: false,
            ..RecoveryConfig::checkpointed()
        }
    }
}

/// A fault schedule plus the recovery policy that answers it — the
/// fault-injection configuration of one closed-loop cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterFaultPlan {
    /// When nodes crash and freeze.
    pub schedule: FaultSchedule,
    /// How salvaged work is re-dispatched.
    pub recovery: RecoveryConfig,
}

impl ClusterFaultPlan {
    /// A plan answering `schedule` with checkpoint-priced recovery.
    pub fn new(schedule: FaultSchedule) -> Self {
        ClusterFaultPlan {
            schedule,
            recovery: RecoveryConfig::checkpointed(),
        }
    }

    /// Replaces the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Validates schedule invariants and the recovery policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.schedule
            .validate()
            .map_err(|error| error.to_string())?;
        validate_retry(self.recovery.retry_budget, self.recovery.backoff_base_ms)
    }
}

/// One completed re-dispatch of a salvaged task — a hop in its recovery
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// The recovered task.
    pub task: TaskId,
    /// The node whose crash salvaged it.
    pub from_node: usize,
    /// The node it was re-dispatched to.
    pub to_node: usize,
    /// Which lifetime attempt this was (1 = first recovery).
    pub attempt: u32,
    /// The checkpoint cursor it re-entered with (zero under
    /// restart-from-zero recovery). Monotonically non-decreasing across one
    /// task's hops — a later crash can never salvage less committed
    /// progress than an earlier recovery resumed from.
    pub resume_executed: Cycles,
    /// When the re-dispatch happened (global cycles).
    pub at: Cycles,
}

/// A salvaged task waiting out its re-dispatch backoff.
#[derive(Debug, Clone)]
pub(crate) struct PendingRecovery {
    pub(crate) salvage: SalvagedTask,
    pub(crate) attempt: u32,
    pub(crate) from_node: usize,
}

/// One edge of a directed-link fault window: a synchronization (and trace)
/// instant of the closed-loop timeline. Link state itself lives in the
/// [`LinkTopology`] — the edge mutates no session, but stepping there
/// keeps migration rounds and transfer decisions bit-identical across the
/// two node strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkEdge {
    /// When the edge fires.
    pub(crate) at: Cycles,
    /// The sending side of the directed link.
    pub(crate) from: usize,
    /// The receiving side of the directed link.
    pub(crate) to: usize,
    /// What the edge does to the link.
    pub(crate) kind: LinkTraceKind,
    /// The end of the window the edge belongs to (the instant itself for
    /// `Restored` edges).
    pub(crate) until: Cycles,
}

/// One due fault-timeline event, in processing order.
#[derive(Debug)]
pub(crate) enum FaultEvent {
    /// A directed-link fault window opens or closes (the loop traces it;
    /// link state is read from the topology at decision time).
    LinkEdge(LinkEdge),
    /// A fault window begins (the loop fails/stalls the session, or scales
    /// its clock for a degrade window).
    Fault(NodeFault),
    /// A degrade window ends (the loop restores the node's full clock).
    DegradeEnd {
        /// The node whose clock returns to full speed.
        node: usize,
    },
    /// A salvaged task's backoff expired (the loop re-dispatches it).
    Recovery(PendingRecovery),
}

/// Everything the fault machinery contributes to an [`crate::OnlineOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultTally {
    pub(crate) abandoned: Vec<TaskRequest>,
    pub(crate) crashes: u64,
    pub(crate) freezes: u64,
    pub(crate) degrades: u64,
    pub(crate) recoveries: u64,
    pub(crate) recovery_log: Vec<RecoveryRecord>,
    pub(crate) node_downtime: Vec<Cycles>,
    pub(crate) node_degraded_time: Vec<Cycles>,
}

impl FaultTally {
    /// The fault-free tally (the degenerate driving).
    pub(crate) fn empty(nodes: usize) -> Self {
        FaultTally {
            abandoned: Vec::new(),
            crashes: 0,
            freezes: 0,
            degrades: 0,
            recoveries: 0,
            recovery_log: Vec::new(),
            node_downtime: vec![Cycles::ZERO; nodes],
            node_degraded_time: vec![Cycles::ZERO; nodes],
        }
    }
}

/// The fault/recovery state machine of the shared closed-loop timeline
/// (see the module docs): a cursor over the fault schedule, the salvaged
/// tasks waiting out their backoff, per-task attempt counts, per-node
/// failure history for the dispatch penalty, and the outcome tallies.
#[derive(Debug)]
pub(crate) struct FaultDriver<'a> {
    plan: &'a ClusterFaultPlan,
    npu: &'a NpuConfig,
    next_fault: usize,
    /// Salvaged tasks keyed (due, scheduling order).
    pending: BTreeMap<(Cycles, u64), PendingRecovery>,
    /// Open degrade windows, keyed by their end instant: the clock-restore
    /// events still to come. (node index second for deterministic ties.)
    degrade_ends: BinaryHeap<Reverse<(Cycles, usize)>>,
    seq: u64,
    attempts: HashMap<TaskId, u32>,
    /// Per node: the end of its latest crash/freeze window seen so far
    /// (`ZERO` until the node first faults). Degrade windows do not count —
    /// a degraded node is up.
    down_until: Vec<Cycles>,
    /// Per node: the end of its latest degrade window seen so far (`ZERO`
    /// until the node first degrades).
    degraded_until: Vec<Cycles>,
    cooldown: Cycles,
    /// The run's per-directed-link fault windows, read at decision time for
    /// reachability.
    links: &'a LinkTopology,
    /// Both edges of every link window, in firing order — the
    /// synchronization instants the link schedule adds to the timeline.
    link_edges: Vec<LinkEdge>,
    next_link: usize,
    tally: FaultTally,
}

impl<'a> FaultDriver<'a> {
    pub(crate) fn new(
        plan: &'a ClusterFaultPlan,
        npu: &'a NpuConfig,
        nodes: usize,
        links: &'a LinkTopology,
    ) -> Self {
        let mut link_edges: Vec<LinkEdge> = Vec::with_capacity(plan.schedule.links.len() * 2);
        for window in &plan.schedule.links {
            let kind = match window.kind {
                LinkFaultKind::Down => LinkTraceKind::Down,
                LinkFaultKind::Degraded {
                    bandwidth_num,
                    bandwidth_den,
                } => LinkTraceKind::Degraded {
                    num: bandwidth_num,
                    den: bandwidth_den,
                },
            };
            link_edges.push(LinkEdge {
                at: window.start,
                from: window.from,
                to: window.to,
                kind,
                until: window.end,
            });
            link_edges.push(LinkEdge {
                at: window.end,
                from: window.from,
                to: window.to,
                kind: LinkTraceKind::Restored,
                until: window.end,
            });
        }
        // Restores first on ties: a window touching its successor on the
        // same link closes before the successor opens.
        link_edges.sort_by_key(|edge| {
            (
                edge.at,
                !matches!(edge.kind, LinkTraceKind::Restored),
                edge.from,
                edge.to,
            )
        });
        FaultDriver {
            plan,
            npu,
            next_fault: 0,
            pending: BTreeMap::new(),
            degrade_ends: BinaryHeap::new(),
            seq: 0,
            attempts: HashMap::new(),
            down_until: vec![Cycles::ZERO; nodes],
            degraded_until: vec![Cycles::ZERO; nodes],
            cooldown: npu.millis_to_cycles(RECOVERY_COOLDOWN_MS),
            links,
            link_edges,
            next_link: 0,
            tally: FaultTally::empty(nodes),
        }
    }

    /// Whether `node` is inside a crash/freeze window at instant `t` — a
    /// landing transfer finds nobody home there.
    pub(crate) fn is_down(&self, node: usize, t: Cycles) -> bool {
        let until = self.down_until[node];
        !until.is_zero() && t < until
    }

    /// The instant of the next fault-timeline event (link edge, fault
    /// start, degrade end or due re-dispatch), if any remain.
    pub(crate) fn next_event_time(&self) -> Option<Cycles> {
        let link = self.link_edges.get(self.next_link).map(|edge| edge.at);
        let fault = self
            .plan
            .schedule
            .events
            .get(self.next_fault)
            .map(|event| event.start);
        let degrade_end = self.degrade_ends.peek().map(|&Reverse((end, _))| end);
        let recovery = self.pending.first_key_value().map(|(&(due, _), _)| due);
        [link, fault, degrade_end, recovery]
            .into_iter()
            .flatten()
            .min()
    }

    /// Pops the next event due at or before `t`. Ties at one instant
    /// process link edges first (they mutate no session — the state they
    /// announce is already visible through the topology), then
    /// degrade-window ends, then fault starts, then recoveries: windows
    /// are half-open, so a degrade window ending exactly when the node's
    /// next one begins hands the clock straight to the new scale (the
    /// restore must not clobber it); a crash at the very instant a task
    /// would re-enter dispatch is observed by that re-dispatch as a down
    /// node.
    pub(crate) fn pop_due(&mut self, t: Cycles) -> Option<FaultEvent> {
        let fault_start = self
            .plan
            .schedule
            .events
            .get(self.next_fault)
            .map(|event| event.start);
        let degrade_end = self.degrade_ends.peek().map(|&Reverse((end, _))| end);
        let recovery_due = self.pending.first_key_value().map(|(&(due, _), _)| due);
        if let Some(edge) = self.link_edges.get(self.next_link).copied() {
            if edge.at <= t
                && degrade_end.is_none_or(|end| edge.at <= end)
                && fault_start.is_none_or(|start| edge.at <= start)
                && recovery_due.is_none_or(|due| edge.at <= due)
            {
                self.next_link += 1;
                return Some(FaultEvent::LinkEdge(edge));
            }
        }
        if let Some(end) = degrade_end {
            if end <= t
                && fault_start.is_none_or(|start| end <= start)
                && recovery_due.is_none_or(|due| end <= due)
            {
                let Reverse((_, node)) = self.degrade_ends.pop().expect("peeked entry");
                return Some(FaultEvent::DegradeEnd { node });
            }
        }
        if let Some(start) = fault_start {
            if start <= t && recovery_due.is_none_or(|due| start <= due) {
                let fault = self.plan.schedule.events[self.next_fault];
                self.next_fault += 1;
                match fault.kind {
                    FaultKind::Crash => self.tally.crashes += 1,
                    FaultKind::Freeze => self.tally.freezes += 1,
                    FaultKind::Degrade { .. } => {
                        // A degraded node is up: no downtime, a separate
                        // tally, and a pending clock-restore event.
                        self.tally.degrades += 1;
                        self.tally.node_degraded_time[fault.node] += fault.duration();
                        self.degraded_until[fault.node] =
                            self.degraded_until[fault.node].max(fault.end);
                        self.degrade_ends.push(Reverse((fault.end, fault.node)));
                        return Some(FaultEvent::Fault(fault));
                    }
                }
                self.down_until[fault.node] = self.down_until[fault.node].max(fault.end);
                self.tally.node_downtime[fault.node] += fault.duration();
                return Some(FaultEvent::Fault(fault));
            }
        }
        if recovery_due.is_some_and(|due| due <= t) {
            let (_, pending) = self.pending.pop_first().expect("peeked entry");
            return Some(FaultEvent::Recovery(pending));
        }
        None
    }

    /// Accepts a crash's salvage manifests (taken at `at` off `node`):
    /// each counts as its task's next lifetime attempt under the retry rule.
    pub(crate) fn on_salvaged<C: ClusterTraceSink>(
        &mut self,
        node: usize,
        at: Cycles,
        salvaged: Vec<SalvagedTask>,
        trace: &RefCell<C>,
    ) {
        for salvage in salvaged {
            let attempt = self
                .attempts
                .get(&salvage.prepared.request.id)
                .copied()
                .unwrap_or(0)
                + 1;
            self.hold_or_abandon(salvage, attempt, node, at, trace);
        }
    }

    /// Applies the shared retry rule ([`retry_hold`]) to attempt `attempt`
    /// of a salvage held by `from_node`: within the budget it waits out its
    /// backoff, past it the task is abandoned (and reported to the trace
    /// sink).
    fn hold_or_abandon<C: ClusterTraceSink>(
        &mut self,
        salvage: SalvagedTask,
        attempt: u32,
        from_node: usize,
        at: Cycles,
        trace: &RefCell<C>,
    ) {
        let id = salvage.prepared.request.id;
        let recovery = &self.plan.recovery;
        let Some(hold) = retry_hold(
            self.npu,
            recovery.retry_budget,
            recovery.backoff_base_ms,
            attempt,
        ) else {
            if C::ENABLED {
                trace.borrow_mut().cluster_event(
                    at,
                    ClusterTraceEvent::Abandon {
                        task: id,
                        node: from_node,
                        attempts: attempt,
                    },
                );
            }
            self.tally.abandoned.push(salvage.prepared.request);
            return;
        };
        self.attempts.insert(id, attempt);
        let pending = PendingRecovery {
            salvage,
            attempt,
            from_node,
        };
        self.pending.insert((at + hold, self.seq), pending);
        self.seq += 1;
    }

    /// The failure-aware dispatch penalty of `node` at instant `t`: 2 while
    /// the node is inside a crash/freeze window, 1 inside the post-recovery
    /// cooldown *or* inside a degrade window (the straggler tier — up, but
    /// slow), 0 for a healthy node. Dispatch minimizes `(penalty,
    /// live-state score, index)`, so faulty nodes only win when every
    /// healthier node loses on the penalty tier.
    pub(crate) fn penalty(&self, node: usize, t: Cycles) -> u8 {
        let until = self.down_until[node];
        if !until.is_zero() {
            if t < until {
                return 2;
            }
            if t < until + self.cooldown {
                return 1;
            }
        }
        if t < self.degraded_until[node] {
            return 1;
        }
        0
    }

    /// Like [`FaultDriver::penalty`], also returning the instant the tier
    /// next *decays* (2 → 1 at the downtime end, 1 → 0 at the later of the
    /// cooldown end and the degrade end), or `None` for a healthy node. Tier
    /// *increases* only happen inside [`FaultDriver::pop_due`] processing —
    /// the fault instants the timeline already steps at — so a dispatch
    /// index holding `(tier, expiry)` per node stays exact by
    /// re-reading at fault instants plus the returned expiries.
    pub(crate) fn penalty_with_expiry(&self, node: usize, t: Cycles) -> (u8, Option<Cycles>) {
        let tier = self.penalty(node, t);
        match tier {
            2 => (2, Some(self.down_until[node])),
            1 => {
                let until = self.down_until[node];
                let mut expiry = Cycles::ZERO;
                if !until.is_zero() && t < until + self.cooldown {
                    expiry = until + self.cooldown;
                }
                let degraded = self.degraded_until[node];
                if t < degraded {
                    expiry = expiry.max(degraded);
                }
                (1, Some(expiry))
            }
            _ => (0, None),
        }
    }

    /// The dispatch penalty of `node` for work routed *from* `source`: an
    /// unreachable destination (the `source → node` link down — a
    /// partition seen from `source`) earns tier 3, above every node-health
    /// tier, so dispatch never routes across a partition while any
    /// reachable node exists. `None` models front-end traffic that does
    /// not cross the inter-node fabric and falls back to
    /// [`FaultDriver::penalty`].
    pub(crate) fn route_penalty(&self, source: Option<usize>, node: usize, t: Cycles) -> u8 {
        if source.is_some_and(|s| !self.links.reachable(s, node, t)) {
            return 3;
        }
        self.penalty(node, t)
    }

    /// The due re-dispatch found no reachable destination (every node is
    /// across the partition from the salvage's custodian): the attempt is
    /// spent, and the retry rule holds the salvage for another backoff or
    /// abandons it.
    pub(crate) fn on_unreachable<C: ClusterTraceSink>(
        &mut self,
        pending: PendingRecovery,
        at: Cycles,
        trace: &RefCell<C>,
    ) {
        let attempt = pending.attempt + 1;
        self.hold_or_abandon(pending.salvage, attempt, pending.from_node, at, trace);
    }

    /// Commits a due re-dispatch onto `to_node` at `at`: applies the
    /// recovery policy (restart-from-zero discards the cursor), logs the
    /// hop, and returns the manifest for the loop to inject.
    pub(crate) fn redispatch(
        &mut self,
        pending: PendingRecovery,
        to_node: usize,
        at: Cycles,
    ) -> SalvagedTask {
        let salvage = if self.plan.recovery.checkpoint_recovery {
            pending.salvage
        } else {
            pending.salvage.restarted_from_zero()
        };
        self.tally.recoveries += 1;
        self.tally.recovery_log.push(RecoveryRecord {
            task: salvage.prepared.request.id,
            from_node: pending.from_node,
            to_node,
            attempt: pending.attempt,
            resume_executed: salvage.resume_executed,
            at,
        });
        salvage
    }

    /// Consumes the driver into its outcome tally.
    ///
    /// # Panics
    ///
    /// Debug-asserts the timeline was fully drained (no unprocessed faults
    /// or pending re-dispatches).
    pub(crate) fn finish(self) -> FaultTally {
        debug_assert_eq!(
            self.next_fault,
            self.plan.schedule.len(),
            "fault schedule fully processed"
        );
        debug_assert!(self.pending.is_empty(), "no re-dispatch left pending");
        debug_assert!(
            self.degrade_ends.is_empty(),
            "every degrade window was closed"
        );
        debug_assert_eq!(
            self.next_link,
            self.link_edges.len(),
            "every link edge was processed"
        );
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::ModelKind;
    use prema_core::PreparedTask;

    fn null_trace() -> RefCell<crate::trace::NullClusterSink> {
        RefCell::new(crate::trace::NullClusterSink)
    }

    fn salvage_of(id: u64) -> SalvagedTask {
        let prepared = PreparedTask::prepare(
            TaskRequest::new(TaskId(id), ModelKind::CnnAlexNet),
            &NpuConfig::paper_default(),
        );
        SalvagedTask {
            prepared,
            resume_executed: Cycles::ZERO,
            checkpoint_bytes: 0,
            first_start: None,
            preemption_count: 0,
            kill_restarts: 0,
            checkpoint_overhead: Cycles::ZERO,
            restore_overhead: Cycles::ZERO,
            max_checkpoint_bytes: 0,
        }
    }

    fn crash(node: usize, start: u64, end: u64) -> NodeFault {
        NodeFault {
            node,
            start: Cycles::new(start),
            end: Cycles::new(end),
            kind: FaultKind::Crash,
        }
    }

    #[test]
    fn timeline_merges_faults_before_recoveries_on_ties() {
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::from_events(vec![
            crash(0, 1_000, 2_000),
            crash(1, 5_000, 6_000),
        ]))
        .with_recovery(RecoveryConfig {
            backoff_base_ms: 0.0,
            ..RecoveryConfig::checkpointed()
        });
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 2, &links);
        assert_eq!(driver.next_event_time(), Some(Cycles::new(1_000)));
        // Nothing due before the first fault.
        assert!(driver.pop_due(Cycles::new(999)).is_none());
        let Some(FaultEvent::Fault(fault)) = driver.pop_due(Cycles::new(1_000)) else {
            panic!("fault due at its start");
        };
        assert_eq!(fault.node, 0);
        // Zero backoff: the salvage is due immediately, and a fault at the
        // same instant would still pop first.
        driver.on_salvaged(0, Cycles::new(1_000), vec![salvage_of(7)], &null_trace());
        assert_eq!(driver.next_event_time(), Some(Cycles::new(1_000)));
        let Some(FaultEvent::Recovery(pending)) = driver.pop_due(Cycles::new(1_000)) else {
            panic!("recovery due at its backoff expiry");
        };
        assert_eq!(pending.attempt, 1);
        assert_eq!(pending.from_node, 0);
        let salvage = driver.redispatch(pending, 1, Cycles::new(1_000));
        assert_eq!(salvage.prepared.request.id, TaskId(7));
        let Some(FaultEvent::Fault(fault)) = driver.pop_due(Cycles::MAX) else {
            panic!("second fault still queued");
        };
        assert_eq!(fault.node, 1);
        let tally = driver.finish();
        assert_eq!(tally.crashes, 2);
        assert_eq!(tally.recoveries, 1);
        assert_eq!(tally.recovery_log.len(), 1);
        assert_eq!(tally.recovery_log[0].to_node, 1);
        assert!(tally.abandoned.is_empty());
    }

    #[test]
    fn retry_budget_abandons_and_backoff_doubles() {
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::none()).with_recovery(RecoveryConfig {
            retry_budget: 2,
            backoff_base_ms: 1.0,
            ..RecoveryConfig::checkpointed()
        });
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 1, &links);
        let base = npu.millis_to_cycles(1.0);
        driver.on_salvaged(0, Cycles::ZERO, vec![salvage_of(1)], &null_trace());
        assert_eq!(driver.next_event_time(), Some(base));
        let Some(FaultEvent::Recovery(first)) = driver.pop_due(base) else {
            panic!("first attempt due after one backoff base");
        };
        let _ = driver.redispatch(first, 0, base);
        // Second salvage: the backoff doubles.
        driver.on_salvaged(0, base, vec![salvage_of(1)], &null_trace());
        assert_eq!(driver.next_event_time(), Some(base + base + base));
        let Some(FaultEvent::Recovery(second)) = driver.pop_due(Cycles::MAX) else {
            panic!("second attempt queued");
        };
        assert_eq!(second.attempt, 2);
        let _ = driver.redispatch(second, 0, base + base + base);
        // Third salvage exhausts the budget of 2.
        driver.on_salvaged(0, base, vec![salvage_of(1)], &null_trace());
        assert!(driver.pending.is_empty());
        let tally = driver.finish();
        assert_eq!(tally.abandoned.len(), 1);
        assert_eq!(tally.abandoned[0].id, TaskId(1));
        assert_eq!(tally.recoveries, 2);
    }

    #[test]
    fn penalty_tiers_track_down_and_cooldown_windows() {
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::from_events(vec![crash(1, 100, 200)]));
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 2, &links);
        // Never-faulted nodes are always healthy.
        assert_eq!(driver.penalty(0, Cycles::new(150)), 0);
        assert_eq!(driver.penalty(1, Cycles::new(50)), 0);
        let _ = driver.pop_due(Cycles::new(100));
        assert_eq!(driver.penalty(1, Cycles::new(150)), 2);
        assert_eq!(driver.penalty(1, Cycles::new(200)), 1);
        let cooldown_end = Cycles::new(200) + npu.millis_to_cycles(RECOVERY_COOLDOWN_MS);
        assert_eq!(driver.penalty(1, cooldown_end - Cycles::new(1)), 1);
        assert_eq!(driver.penalty(1, cooldown_end), 0);
        let _ = driver.finish();
    }

    #[test]
    fn penalty_expiries_name_the_next_tier_decay_instant() {
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::from_events(vec![
            crash(1, 100, 200),
            degrade(2, 100, 5_000_000, 1, 4),
        ]));
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 3, &links);
        assert_eq!(driver.penalty_with_expiry(1, Cycles::new(50)), (0, None));
        while driver.pop_due(Cycles::new(100)).is_some() {}
        // Down: the expiry is the downtime end (tier 2 -> 1 there).
        assert_eq!(
            driver.penalty_with_expiry(1, Cycles::new(150)),
            (2, Some(Cycles::new(200)))
        );
        // Cooling: the expiry is the cooldown end (tier 1 -> 0 there).
        let cooldown_end = Cycles::new(200) + npu.millis_to_cycles(RECOVERY_COOLDOWN_MS);
        assert_eq!(
            driver.penalty_with_expiry(1, Cycles::new(200)),
            (1, Some(cooldown_end))
        );
        assert_eq!(driver.penalty_with_expiry(1, cooldown_end), (0, None));
        // Degraded: tier 1 until the degrade window ends.
        assert_eq!(
            driver.penalty_with_expiry(2, Cycles::new(150)),
            (1, Some(Cycles::new(5_000_000)))
        );
        // Every expiry agrees with re-reading `penalty` just before/after.
        for (node, expiry) in [(1, Cycles::new(200)), (1, cooldown_end)] {
            assert!(driver.penalty(node, expiry - Cycles::new(1)) > driver.penalty(node, expiry));
        }
        // Close the degrade window so the drained-timeline debug assert in
        // `finish` holds.
        while driver.pop_due(Cycles::new(5_000_000)).is_some() {}
        let _ = driver.finish();
    }

    fn degrade(node: usize, start: u64, end: u64, num: u32, den: u32) -> NodeFault {
        NodeFault {
            node,
            start: Cycles::new(start),
            end: Cycles::new(end),
            kind: FaultKind::Degrade {
                speed_num: num,
                speed_den: den,
            },
        }
    }

    #[test]
    fn degrade_windows_tally_separately_and_emit_end_events() {
        let npu = NpuConfig::paper_default();
        let plan =
            ClusterFaultPlan::new(FaultSchedule::from_events(vec![degrade(0, 100, 300, 1, 4)]));
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 2, &links);
        let Some(FaultEvent::Fault(fault)) = driver.pop_due(Cycles::new(100)) else {
            panic!("degrade window due at its start");
        };
        assert!(matches!(fault.kind, FaultKind::Degrade { .. }));
        // Straggler tier inside the window, healthy at and past its end —
        // a degrade never reaches the down tier or the cooldown.
        assert_eq!(driver.penalty(0, Cycles::new(200)), 1);
        assert_eq!(driver.penalty(0, Cycles::new(300)), 0);
        assert_eq!(driver.penalty(1, Cycles::new(200)), 0);
        // The clock-restore event closes the window.
        assert_eq!(driver.next_event_time(), Some(Cycles::new(300)));
        let Some(FaultEvent::DegradeEnd { node }) = driver.pop_due(Cycles::new(300)) else {
            panic!("degrade end due at the window end");
        };
        assert_eq!(node, 0);
        let tally = driver.finish();
        assert_eq!(tally.degrades, 1);
        assert_eq!(tally.crashes + tally.freezes, 0);
        assert_eq!(tally.node_degraded_time[0], Cycles::new(200));
        assert_eq!(tally.node_downtime[0], Cycles::ZERO);
    }

    #[test]
    fn touching_degrade_windows_restore_before_the_next_scale_applies() {
        // Half-open windows [100,200) at 1/2 and [200,300) at 1/4: at 200
        // the first window's restore must pop before the second window's
        // start, or the restore would clobber the fresh scale.
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::from_events(vec![
            degrade(0, 100, 200, 1, 2),
            degrade(0, 200, 300, 1, 4),
        ]));
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 1, &links);
        let Some(FaultEvent::Fault(first)) = driver.pop_due(Cycles::MAX) else {
            panic!("first degrade start");
        };
        assert_eq!(first.start, Cycles::new(100));
        let Some(FaultEvent::DegradeEnd { node: 0 }) = driver.pop_due(Cycles::MAX) else {
            panic!("restore of the first window pops before the second start");
        };
        let Some(FaultEvent::Fault(second)) = driver.pop_due(Cycles::MAX) else {
            panic!("second degrade start");
        };
        assert_eq!(second.start, Cycles::new(200));
        let Some(FaultEvent::DegradeEnd { node: 0 }) = driver.pop_due(Cycles::MAX) else {
            panic!("restore of the second window");
        };
        let tally = driver.finish();
        assert_eq!(tally.degrades, 2);
        assert_eq!(tally.node_degraded_time[0], Cycles::new(200));
    }

    #[test]
    fn restart_from_zero_discards_the_cursor_in_log_and_manifest() {
        let npu = NpuConfig::paper_default();
        let plan = ClusterFaultPlan::new(FaultSchedule::none())
            .with_recovery(RecoveryConfig::restart_from_zero());
        let links = LinkTopology::default();
        let mut driver = FaultDriver::new(&plan, &npu, 1, &links);
        let mut salvage = salvage_of(3);
        salvage.resume_executed = Cycles::new(4_096);
        salvage.checkpoint_bytes = 64;
        driver.on_salvaged(0, Cycles::ZERO, vec![salvage], &null_trace());
        let Some(FaultEvent::Recovery(pending)) = driver.pop_due(Cycles::MAX) else {
            panic!("recovery queued");
        };
        let restarted = driver.redispatch(pending, 0, Cycles::new(9_999));
        assert!(!restarted.resumes_from_checkpoint());
        assert_eq!(restarted.checkpoint_bytes, 0);
        let tally = driver.finish();
        assert_eq!(tally.recovery_log[0].resume_executed, Cycles::ZERO);
    }

    #[test]
    fn validation_covers_recovery_fields() {
        let plan = ClusterFaultPlan::new(FaultSchedule::none());
        assert!(plan.validate().is_ok());
        assert!(plan
            .clone()
            .with_recovery(RecoveryConfig::restart_from_zero())
            .validate()
            .is_ok());
        let bad = [
            RecoveryConfig {
                backoff_base_ms: f64::NAN,
                ..RecoveryConfig::checkpointed()
            },
            RecoveryConfig {
                backoff_base_ms: -0.5,
                ..RecoveryConfig::checkpointed()
            },
            RecoveryConfig {
                retry_budget: 64,
                ..RecoveryConfig::checkpointed()
            },
        ];
        for recovery in bad {
            let plan = plan.clone().with_recovery(recovery);
            assert!(plan.validate().is_err(), "{recovery:?}");
        }
    }
}
