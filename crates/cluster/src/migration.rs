//! Deadline-triggered checkpoint migration: evacuating started tasks off
//! straggler nodes over the priced interconnect — and the *custody layer*
//! that makes those transfers survive a faulty fabric.
//!
//! PR 6's fault tolerance reacts to nodes that *die*; this module reacts to
//! nodes that merely *slow down* (the degrade windows of
//! [`prema_workload::FaultKind::Degrade`]). Work stealing cannot help a
//! straggler's started tasks — stealing moves only never-started work — but
//! the engine's checkpoint machinery can:
//! [`prema_core::SimSession::checkpoint_out`] extracts a started resident
//! at its last `GEMM_OP` commit point, the voluntary twin of crash salvage,
//! and [`prema_core::SimSession::inject_salvaged`] restores it elsewhere
//! for exactly the restore-DMA price the paper's CHECKPOINT mechanism
//! defines.
//!
//! The crate-private `MigrationDriver` is — like the fault driver — one
//! decision machine of the shared closed-loop timeline in
//! [`crate::online`], which runs under both node strategies, so the
//! heap-vs-reference bit-identity contract extends over migration by
//! construction. (With migration enabled the timeline steps to every
//! completion bound and delivery between arrivals, so the event-heap
//! strategy builds no `contender` dispatch index; it reads quiet nodes
//! through their projections and advances only a move's source and landing
//! target.) At every step it runs a *migration round*:
//!
//! 1. **Deadline check.** Per source node (`Nodes::migration_sources`:
//!    every node under the reference, only the nodes whose deadline can
//!    have slipped under the event heap), residents are walked in the
//!    preemptive scheduler's drain order (priority, then arrival, then id);
//!    each task's predicted completion is the node clock plus the
//!    *clock-scaled* wall time of the backlog at or ahead of it. The first
//!    started task whose prediction slips past `arrival + sla +`
//!    [`MIGRATION_MARGIN_MS`] is the evacuation candidate.
//! 2. **Stay-vs-move pricing.** Staying costs the scaled wall time of the
//!    candidate's backlog on the straggler. Moving to a target costs the
//!    interconnect transfer of its `live_checkpoint_bytes` — priced from
//!    the fabric constants of [`crate::interconnect`] over the *current
//!    link state* by [`crate::LinkTopology::transfer_cycles`], so a
//!    degraded link stretches the serialization term and a downed or
//!    partitioned link removes the target from consideration entirely —
//!    plus the restore DMA ([`npu_sim::CheckpointModel`]), plus the scaled
//!    wall time of the target's blocking work ahead of the newcomer. The
//!    cheapest reachable healthy target wins, ties to the lowest index.
//! 3. **Hysteresis and budget.** The move must beat staying by the
//!    configured hysteresis factor, and each source node may initiate at
//!    most [`MIGRATION_NODE_BUDGET`] evacuations per run — together these
//!    prevent migration thrash when every node is slow.
//!
//! A decided migration extracts the task immediately and schedules its
//! *delivery* (`decision instant + transfer time`) on an in-flight queue;
//! the loops treat deliveries as arrival events at the destination, global
//! synchronization points exactly like fault instants.
//!
//! # Custody: lossy transfers, timeouts, redirects
//!
//! With a [`CustodyConfig`] attached, a transfer is no longer assumed to
//! land. Each attempt carries a delivery deadline; its *fate* is resolved
//! against the offline link schedule at launch:
//!
//! * the carrying link drops mid-flight → the attempt **fails** at the
//!   drop instant ([`crate::trace::TransferFailReason::LinkDown`]);
//! * the landing would slip past `launch + delivery_timeout_ms` → the
//!   attempt **fails** at the deadline (`Timeout`);
//! * the destination is down when the payload arrives → the attempt
//!   **fails** at the landing instant (`DestinationDown`).
//!
//! The source node retains custody of the checkpoint between attempts.
//! Failed attempts follow the retry rule crash recovery uses (see
//! [`crate::faults`]): attempt `k` within the custody retry budget
//! schedules a *redirect* after `backoff_base_ms * 2^(k-1)`, at which the
//! task is re-priced and re-routed to the cheapest reachable healthy node
//! (the custodian itself is a zero-transfer candidate); attempt `budget +
//! 1` abandons the task with full accounting. A crate-private
//! `CustodyLedger` asserts exactly-once ownership — every task the
//! migration layer ever took custody of is exactly one of resident,
//! in-flight, or abandoned — at every synchronization instant, and
//! end-of-run reconciliation (`MigrationDriver::finish`) surfaces any
//! still-in-flight task as a typed [`CustodyError`] instead of silently
//! dropping it.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use npu_sim::{CheckpointModel, Cycles, NpuConfig};
use prema_core::{ResidentTask, SalvagedTask, SimSession, TaskId, TaskRequest, TraceSink};

use crate::faults::{retry_hold, validate_retry, FaultDriver, RecoveryConfig};
use crate::interconnect::LinkTopology;
use crate::online::Nodes;
use crate::trace::{ClusterTraceEvent, ClusterTraceSink, TransferFailReason};

/// Configuration of the transfer-custody layer: delivery deadlines and the
/// retry budget and backoff base applied when an in-flight transfer fails,
/// under the retry rule crash recovery uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CustodyConfig {
    /// Delivery deadline of one transfer attempt, in milliseconds past its
    /// launch: an attempt whose landing would slip past this times out.
    pub delivery_timeout_ms: f64,
    /// Failed attempts beyond this many abandon the task.
    pub retry_budget: u32,
    /// Base of the exponential redirect backoff, in milliseconds: failed
    /// attempt `k` holds the checkpoint `base * 2^(k-1)` before redirecting.
    pub backoff_base_ms: f64,
}

impl CustodyConfig {
    /// The redirect-with-backoff policy: a 4 ms delivery deadline and the
    /// checkpointed recovery defaults (three retries, 0.5 ms backoff base).
    pub fn redirect() -> Self {
        let recovery = RecoveryConfig::checkpointed();
        CustodyConfig {
            delivery_timeout_ms: 4.0,
            retry_budget: recovery.retry_budget,
            backoff_base_ms: recovery.backoff_base_ms,
        }
    }

    /// The abandon-on-failure baseline: identical deadline, zero retries —
    /// the first failed attempt abandons the task.
    pub fn abandon_on_failure() -> Self {
        CustodyConfig {
            retry_budget: 0,
            ..CustodyConfig::redirect()
        }
    }

    /// Replaces the delivery deadline.
    pub fn with_timeout_ms(mut self, delivery_timeout_ms: f64) -> Self {
        self.delivery_timeout_ms = delivery_timeout_ms;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.delivery_timeout_ms.is_finite() || self.delivery_timeout_ms <= 0.0 {
            return Err("custody delivery timeout must be positive and finite".into());
        }
        validate_retry(self.retry_budget, self.backoff_base_ms)
    }
}

/// The typed end-of-run custody reconciliation failure: tasks the
/// migration layer still held in flight when the run ended. Surfaced in
/// [`crate::OnlineOutcome::custody_error`] — a run that loses a task
/// reports it instead of silently dropping it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CustodyError {
    /// The tasks still in flight (or holding a backoff) at end of run,
    /// sorted by id.
    pub undelivered: Vec<TaskId>,
}

impl fmt::Display for CustodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "custody reconciliation failed: {} task(s) still in flight at end of run:",
            self.undelivered.len()
        )?;
        for task in &self.undelivered {
            write!(f, " #{}", task.0)?;
        }
        Ok(())
    }
}

impl std::error::Error for CustodyError {}

/// Slack past the SLA before the migration arbiter reacts, in milliseconds
/// — a prediction has to slip *this far* beyond the target to trigger the
/// stay-vs-move comparison.
pub const MIGRATION_MARGIN_MS: f64 = 0.5;

/// Maximum number of evacuations each source node may initiate per run —
/// the thrash bound.
pub const MIGRATION_NODE_BUDGET: u32 = 8;

/// Configuration of deadline-triggered checkpoint migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// The per-task turnaround SLA, in milliseconds: each task's deadline is
    /// its arrival plus this (plus [`MIGRATION_MARGIN_MS`]).
    pub sla_ms: f64,
    /// The move must beat staying by this factor
    /// (`move_cost * hysteresis < stay_cost`) before the task is evacuated.
    /// 1.0 migrates on any predicted win; higher values demand a clearer
    /// one.
    pub hysteresis: f64,
    /// The transfer-custody layer. `None` models a reliable fabric: link
    /// state still prices transfers and gates destinations at decision
    /// time, but a launched transfer always lands.
    pub custody: Option<CustodyConfig>,
}

impl MigrationConfig {
    /// A migration policy answering the given SLA: 1.25x hysteresis, no
    /// custody layer (reliable fabric).
    pub fn new(sla_ms: f64) -> Self {
        MigrationConfig {
            sla_ms,
            hysteresis: 1.25,
            custody: None,
        }
    }

    /// Replaces the hysteresis factor.
    pub fn with_hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis;
        self
    }

    /// Attaches a transfer-custody layer.
    pub fn with_custody(mut self, custody: CustodyConfig) -> Self {
        self.custody = Some(custody);
        self
    }

    /// `sla + margin`, in cycles: each task's deadline is its arrival plus
    /// this.
    pub(crate) fn deadline_offset(&self, npu: &NpuConfig) -> Cycles {
        npu.millis_to_cycles(self.sla_ms + MIGRATION_MARGIN_MS)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.sla_ms.is_finite() || self.sla_ms <= 0.0 {
            return Err("migration SLA must be positive and finite".into());
        }
        if !self.hysteresis.is_finite() || self.hysteresis < 1.0 {
            return Err("migration hysteresis must be at least 1.0 and finite".into());
        }
        self.custody
            .as_ref()
            .map_or(Ok(()), CustodyConfig::validate)
    }
}

/// One completed evacuation decision — a hop in a task's migration history.
/// Logged at the *decision* instant; the task reaches its destination at
/// [`MigrationRecord::arrive_at`] (custody permitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The evacuated task.
    pub task: TaskId,
    /// The straggler it was extracted from.
    pub from_node: usize,
    /// The node it was shipped to.
    pub to_node: usize,
    /// The live checkpoint context that travelled, in bytes.
    pub bytes: u64,
    /// When the arbiter decided (and the checkpoint was taken).
    pub at: Cycles,
    /// When the task lands at the destination (`at` plus the interconnect
    /// transfer time).
    pub arrive_at: Cycles,
}

/// One committed transfer redirect — a failed attempt re-routed after
/// backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedirectRecord {
    /// The re-routed task.
    pub task: TaskId,
    /// The custodian the checkpoint never left.
    pub from_node: usize,
    /// The newly chosen destination.
    pub to_node: usize,
    /// The attempt number of the relaunch (2 = first redirect).
    pub attempt: u32,
    /// When the redirect was committed.
    pub at: Cycles,
}

/// What happens when an in-flight entry comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransferEvent {
    /// The payload lands at `to_node` (custody may still fail it there if
    /// the destination is down).
    Land,
    /// The attempt fails before landing — a mid-flight link drop or a
    /// delivery timeout, resolved against the offline schedule at launch.
    Fail(TransferFailReason),
    /// A failed attempt's backoff expires: re-price and re-route now.
    Redirect,
}

/// A checkpointed task in flight over the interconnect (or held by its
/// custodian between attempts).
#[derive(Debug)]
pub(crate) struct PendingMigration {
    pub(crate) salvage: SalvagedTask,
    pub(crate) to_node: usize,
    /// The custodian: the node the checkpoint was extracted from. Custody
    /// stays here until the payload lands.
    pub(crate) from_node: usize,
    /// Which transfer attempt this entry belongs to (1 = the original
    /// launch).
    pub(crate) attempt: u32,
    /// What happens at `due`.
    pub(crate) event: TransferEvent,
}

/// Everything the migration machinery contributes to an
/// [`crate::OnlineOutcome`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MigrationTally {
    pub(crate) migrations: u64,
    pub(crate) migration_bytes: u64,
    pub(crate) migration_log: Vec<MigrationRecord>,
    pub(crate) transfer_failures: u64,
    pub(crate) redirects: u64,
    pub(crate) redirect_log: Vec<RedirectRecord>,
    /// Tasks abandoned after the transfer retry budget was exhausted.
    pub(crate) abandoned: Vec<TaskRequest>,
    /// Tasks still in flight at end of run — the custody reconciliation
    /// failure [`MigrationDriver::finish`] reports instead of asserting.
    pub(crate) undelivered: Vec<TaskId>,
}

/// Which exactly-one state a task under migration custody is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CustodyState {
    /// Extracted from its source; the custodian holds the checkpoint while
    /// the payload is in flight or waiting out a backoff.
    InFlight,
    /// Delivered: resident at the given node.
    Resident(usize),
    /// Given up after budget exhaustion; may never reappear.
    Abandoned,
}

/// The exactly-once ownership ledger over every task the migration layer
/// ever took custody of. Transitions are hard-asserted — a task observed
/// in two places at once (the orphan/duplicate bug class this layer
/// exists to rule out) panics rather than corrupting accounting.
#[derive(Debug, Default)]
struct CustodyLedger {
    state: HashMap<TaskId, CustodyState>,
    in_flight: u32,
    landed: u64,
    abandoned: u64,
}

impl CustodyLedger {
    /// A task leaves a node's custody into flight. Legal from fresh
    /// (first evacuation) or `Resident` (a later re-evacuation); a task
    /// already in flight or abandoned can never depart again.
    fn depart(&mut self, task: TaskId) {
        let prior = self.state.insert(task, CustodyState::InFlight);
        assert!(
            !matches!(
                prior,
                Some(CustodyState::InFlight) | Some(CustodyState::Abandoned)
            ),
            "custody violation: task #{} departed while {:?}",
            task.0,
            prior
        );
        self.in_flight += 1;
    }

    /// The payload lands: exactly one in-flight entry becomes resident.
    fn land(&mut self, task: TaskId, node: usize) {
        let prior = self.state.insert(task, CustodyState::Resident(node));
        assert_eq!(
            prior,
            Some(CustodyState::InFlight),
            "custody violation: task #{} landed while not in flight",
            task.0
        );
        self.in_flight -= 1;
        self.landed += 1;
    }

    /// The retry budget ran out: the in-flight entry is abandoned.
    fn abandon(&mut self, task: TaskId) {
        let prior = self.state.insert(task, CustodyState::Abandoned);
        assert_eq!(
            prior,
            Some(CustodyState::InFlight),
            "custody violation: task #{} abandoned while not in flight",
            task.0
        );
        self.in_flight -= 1;
        self.abandoned += 1;
    }

    /// The in-flight tasks, sorted by id — non-empty at end of run means
    /// custody reconciliation failed.
    fn undelivered(&self) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = self
            .state
            .iter()
            .filter(|(_, state)| **state == CustodyState::InFlight)
            .map(|(task, _)| *task)
            .collect();
        tasks.sort();
        tasks
    }

    /// Cross-checks the ledger against the in-flight queue: every task in
    /// flight has exactly one pending entry, and vice versa.
    fn check(&self, pending: usize) {
        assert_eq!(
            self.in_flight as usize, pending,
            "custody violation: {} task(s) in flight but {} pending transfer entries",
            self.in_flight, pending
        );
    }
}

#[cfg(test)]
thread_local! {
    /// How many source nodes this thread's migration rounds walked: a
    /// test-only work tally, read by no outcome, digest or trace.
    pub(crate) static WALKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The migration decision machine of the shared closed-loop timeline (see
/// the module docs): the deadline monitor, the stay-vs-move arbiter, the
/// in-flight transfer queue, the custody ledger and the outcome tally. Every
/// method must be called at a step of the timeline, reading each node at
/// its [`Nodes::horizon`].
#[derive(Debug)]
pub(crate) struct MigrationDriver<'a> {
    config: &'a MigrationConfig,
    npu: &'a NpuConfig,
    checkpoint: CheckpointModel,
    /// Each task's deadline is its arrival plus this
    /// ([`MigrationConfig::deadline_offset`]).
    deadline_offset: Cycles,
    /// The run's per-directed-link fault windows, shared with the fault
    /// driver; empty means a perfect fabric (uniform pricing, everything
    /// reachable).
    links: &'a LinkTopology,
    /// The per-attempt delivery deadline, when custody is configured.
    timeout: Option<Cycles>,
    /// Transfer events keyed (due, decision order).
    pending: BTreeMap<(Cycles, u64), PendingMigration>,
    seq: u64,
    budget_used: Vec<u32>,
    /// Scratch for one round's source nodes ([`Nodes::migration_sources`]).
    sources: Vec<usize>,
    /// Scratch for one source node's resident scan.
    residents: Vec<ResidentTask>,
    ledger: CustodyLedger,
    tally: MigrationTally,
}

impl<'a> MigrationDriver<'a> {
    pub(crate) fn new(
        config: &'a MigrationConfig,
        npu: &'a NpuConfig,
        nodes: usize,
        links: &'a LinkTopology,
    ) -> Self {
        MigrationDriver {
            config,
            npu,
            checkpoint: CheckpointModel::new(npu),
            deadline_offset: config.deadline_offset(npu),
            links,
            timeout: config
                .custody
                .map(|custody| npu.millis_to_cycles(custody.delivery_timeout_ms)),
            pending: BTreeMap::new(),
            seq: 0,
            budget_used: vec![0; nodes],
            sources: Vec::new(),
            residents: Vec::new(),
            ledger: CustodyLedger::default(),
            tally: MigrationTally::default(),
        }
    }

    /// Whether the custody layer (timeouts, redirects, landing checks) is
    /// active. Off, link state still prices and gates transfer decisions,
    /// but a launched transfer always lands.
    pub(crate) fn custody_enabled(&self) -> bool {
        self.timeout.is_some()
    }

    /// The due instant of the earliest in-flight transfer event, if any.
    pub(crate) fn next_due(&self) -> Option<Cycles> {
        self.pending.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Pops the next transfer event due at or before `t` (the loop routes
    /// it through `deliver_due_migrations`).
    pub(crate) fn pop_due(&mut self, t: Cycles) -> Option<PendingMigration> {
        if self.next_due().is_some_and(|due| due <= t) {
            return self.pending.pop_first().map(|(_, pending)| pending);
        }
        None
    }

    /// One migration round at global instant `t` over the nodes as seen at
    /// `t` (see [`Nodes`]): per source node in index order, find the first
    /// deadline-blown started task in drain order, price stay-vs-move over
    /// the live link state, and (budget and hysteresis permitting) extract
    /// it and put it in flight. At most one evacuation per source per
    /// round. The sources are the nodes [`Nodes::migration_sources`] yields:
    /// every node under the reference, only the nodes whose deadline can
    /// have slipped under the event heap. Closes with the custody
    /// reconciliation check.
    ///
    /// The trace sink is borrowed only *between* session calls — the
    /// sessions' own taps borrow the same cell from inside `checkpoint_out`.
    pub(crate) fn round<S: TraceSink, C: ClusterTraceSink, N: Nodes<S> + ?Sized>(
        &mut self,
        nodes: &mut N,
        t: Cycles,
        trace: &RefCell<C>,
    ) {
        let mut sources = std::mem::take(&mut self.sources);
        nodes.migration_sources(t, &mut sources);
        // The oracle of the sources: a node left out is stalled, over
        // budget or holds no deadline candidate. The reference leaves no
        // node out, so heap ≡ reference checks every node left out.
        #[cfg(debug_assertions)]
        {
            let mut listed = sources.iter().peekable();
            for from in 0..nodes.sessions().len() {
                if listed.next_if_eq(&&from).is_some() || self.skips(nodes.sessions(), from) {
                    continue;
                }
                debug_assert!(
                    self.deadline_candidate(&nodes.sessions()[from], nodes.horizon(from))
                        .is_none(),
                    "node {from} left out of the migration round with a slipped deadline at {t:?}"
                );
            }
        }
        for &from in &sources {
            if self.skips(nodes.sessions(), from) {
                continue;
            }
            #[cfg(test)]
            WALKED.with(|walked| walked.set(walked.get() + 1));
            let Some((id, priority, remaining, stay)) =
                self.deadline_candidate(&nodes.sessions()[from], nodes.horizon(from))
            else {
                continue;
            };
            // The preview reads the runner's commit point, so the source is
            // brought up to its horizon first (it is about to be mutated
            // anyway).
            let (_, bytes) = nodes
                .session_mut(from)
                .checkpoint_preview(id)
                .expect("a started resident is checkpointable");
            let restore = self.checkpoint.restore_cycles(bytes);
            // The cheapest reachable healthy target: link-state-priced
            // transfer + restore + the scaled wall time of the work that
            // outranks the newcomer there. Downed or partitioned links
            // reject the destination up front. Ties break to the lowest
            // index.
            let mut best: Option<(Cycles, usize, Cycles)> = None;
            for (to, target) in nodes.sessions().iter().enumerate() {
                if to == from || target.stalled_until().is_some() {
                    continue;
                }
                let Some(transfer) = self.links.transfer_cycles(from, to, bytes, t) else {
                    continue;
                };
                let at = nodes.horizon(to);
                let queue = target.predicted_blocking_work_at(priority, at) + remaining;
                let move_cost = transfer + restore + target.scaled_wall_for_work_at(at, queue);
                if best.is_none_or(|(cost, _, _)| move_cost < cost) {
                    best = Some((move_cost, to, transfer));
                }
            }
            let Some((move_cost, to, transfer)) = best else {
                continue;
            };
            if move_cost.get() as f64 * self.config.hysteresis >= stay.get() as f64 {
                continue;
            }
            let salvage = nodes
                .session_mut(from)
                .checkpoint_out(id)
                .expect("the previewed task is still checkpointable");
            self.budget_used[from] += 1;
            if self.budget_used[from] == MIGRATION_NODE_BUDGET {
                nodes.retire_source(from);
            }
            let due = t + transfer;
            self.tally.migrations += 1;
            self.tally.migration_bytes += bytes;
            self.tally.migration_log.push(MigrationRecord {
                task: id,
                from_node: from,
                to_node: to,
                bytes,
                at: t,
                arrive_at: due,
            });
            if C::ENABLED {
                trace.borrow_mut().cluster_event(
                    t,
                    ClusterTraceEvent::MigrationOut {
                        task: id,
                        from,
                        to,
                        bytes,
                        stay_cost: stay,
                        move_cost,
                        arrive_at: due,
                    },
                );
            }
            self.ledger.depart(id);
            self.launch(salvage, from, to, 1, transfer, t);
        }
        self.sources = sources;
        self.ledger.check(self.pending.len());
        if C::ENABLED && self.custody_enabled() {
            trace.borrow_mut().cluster_event(
                t,
                ClusterTraceEvent::CustodyCheck {
                    in_flight: self.ledger.in_flight,
                    landed: self.ledger.landed,
                    abandoned: self.ledger.abandoned,
                },
            );
        }
    }

    /// Whether a round passes over source `from`: it is stalled, or it has
    /// spent its evacuation budget.
    fn skips<S: TraceSink>(&self, sessions: &[SimSession<S>], from: usize) -> bool {
        sessions[from].stalled_until().is_some() || self.budget_used[from] >= MIGRATION_NODE_BUDGET
    }

    /// The deadline monitor over one source node: walks residents in drain
    /// order accumulating the backlog; the first *started* task whose
    /// clock-scaled predicted completion slips past `arrival + sla + margin`
    /// is the candidate. Returns `(id, priority, estimated remaining, stay
    /// cost)` — the stay cost is the scaled wall time of everything at or
    /// ahead of the candidate. The session is read as a `run_until(at)`
    /// would leave it.
    fn deadline_candidate<S: TraceSink>(
        &mut self,
        session: &SimSession<S>,
        at: Cycles,
    ) -> Option<(TaskId, prema_core::Priority, Cycles, Cycles)> {
        self.residents.clear();
        session.resident_tasks_at_into(at, &mut self.residents);
        self.residents
            .sort_by_key(|r| (Reverse(r.priority), r.arrival, r.id));
        let now = session.now_at(at);
        let mut backlog = Cycles::ZERO;
        for resident in &self.residents {
            backlog += resident.estimated_remaining();
            if !resident.started {
                continue;
            }
            let stay = session.scaled_wall_for_work_at(at, backlog);
            if now + stay > resident.arrival + self.deadline_offset {
                return Some((
                    resident.id,
                    resident.priority,
                    resident.estimated_remaining(),
                    stay,
                ));
            }
        }
        None
    }

    /// Puts one attempt in flight, resolving its fate against the offline
    /// link schedule: a mid-flight link drop fails it at the drop instant,
    /// a landing past the delivery deadline fails it at the deadline,
    /// otherwise it lands at `t + transfer`. Without custody the fabric is
    /// reliable and every launch lands.
    fn launch(
        &mut self,
        salvage: SalvagedTask,
        from: usize,
        to: usize,
        attempt: u32,
        transfer: Cycles,
        t: Cycles,
    ) {
        let arrive = t + transfer;
        let (due, event) = match self.timeout {
            Some(timeout) => {
                let deadline = t + timeout;
                let horizon = arrive.min(deadline);
                if let Some(drop_at) = self.links.first_down_within(from, to, t, horizon) {
                    (drop_at, TransferEvent::Fail(TransferFailReason::LinkDown))
                } else if arrive > deadline {
                    (deadline, TransferEvent::Fail(TransferFailReason::Timeout))
                } else {
                    (arrive, TransferEvent::Land)
                }
            }
            None => (arrive, TransferEvent::Land),
        };
        let pending = PendingMigration {
            salvage,
            to_node: to,
            from_node: from,
            attempt,
            event,
        };
        self.pending.insert((due, self.seq), pending);
        self.seq += 1;
    }

    /// Books a successful delivery: the ledger's in-flight entry becomes
    /// resident at `node`.
    pub(crate) fn on_landed(&mut self, task: TaskId, node: usize) {
        self.ledger.land(task, node);
    }

    /// Handles one failed attempt at `t`: accounts the failure, then, under
    /// the retry rule crash recovery shares ([`retry_hold`]), either holds
    /// the checkpoint for its backoff and schedules a redirect or abandons
    /// the task with full accounting.
    pub(crate) fn on_transfer_failed<C: ClusterTraceSink>(
        &mut self,
        pending: PendingMigration,
        reason: TransferFailReason,
        t: Cycles,
        trace: &RefCell<C>,
    ) {
        self.tally.transfer_failures += 1;
        let task = pending.salvage.prepared.request.id;
        if C::ENABLED {
            trace.borrow_mut().cluster_event(
                t,
                ClusterTraceEvent::TransferTimeout {
                    task,
                    from: pending.from_node,
                    to: pending.to_node,
                    attempt: pending.attempt,
                    reason,
                },
            );
        }
        let custody = self
            .config
            .custody
            .expect("only the custody layer fails transfers");
        let Some(hold) = retry_hold(
            self.npu,
            custody.retry_budget,
            custody.backoff_base_ms,
            pending.attempt,
        ) else {
            self.ledger.abandon(task);
            if C::ENABLED {
                trace.borrow_mut().cluster_event(
                    t,
                    ClusterTraceEvent::Abandon {
                        task,
                        node: pending.from_node,
                        attempts: pending.attempt,
                    },
                );
            }
            self.tally.abandoned.push(pending.salvage.prepared.request);
            return;
        };
        let held = PendingMigration {
            event: TransferEvent::Redirect,
            ..pending
        };
        self.pending.insert((t + hold, self.seq), held);
        self.seq += 1;
    }

    /// A due redirect: re-price the held checkpoint against the live link
    /// and node state and relaunch it toward the cheapest reachable
    /// healthy destination (the custodian itself is a zero-transfer
    /// candidate). If nothing is reachable the attempt is spent waiting
    /// out another backoff.
    pub(crate) fn redirect<S: TraceSink, C: ClusterTraceSink, N: Nodes<S> + ?Sized>(
        &mut self,
        pending: PendingMigration,
        nodes: &N,
        faults: Option<&FaultDriver<'_>>,
        t: Cycles,
        trace: &RefCell<C>,
    ) {
        let from = pending.from_node;
        let task = pending.salvage.prepared.request.id;
        let priority = pending.salvage.prepared.request.priority;
        let bytes = pending.salvage.checkpoint_bytes;
        let restore = self.checkpoint.restore_cycles(bytes);
        let mut best: Option<(Cycles, usize, Cycles)> = None;
        for (to, target) in nodes.sessions().iter().enumerate() {
            if target.stalled_until().is_some() || faults.is_some_and(|f| f.is_down(to, t)) {
                continue;
            }
            let Some(transfer) = self.links.transfer_cycles(from, to, bytes, t) else {
                continue;
            };
            let at = nodes.horizon(to);
            let cost = transfer
                + restore
                + target
                    .scaled_wall_for_work_at(at, target.predicted_blocking_work_at(priority, at));
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, to, transfer));
            }
        }
        match best {
            Some((_, to, transfer)) => {
                let attempt = pending.attempt + 1;
                self.tally.redirects += 1;
                self.tally.redirect_log.push(RedirectRecord {
                    task,
                    from_node: from,
                    to_node: to,
                    attempt,
                    at: t,
                });
                if C::ENABLED {
                    trace.borrow_mut().cluster_event(
                        t,
                        ClusterTraceEvent::Redirect {
                            task,
                            from,
                            to,
                            attempt,
                        },
                    );
                }
                self.launch(pending.salvage, from, to, attempt, transfer, t);
            }
            None => {
                let spent = PendingMigration {
                    attempt: pending.attempt + 1,
                    ..pending
                };
                self.on_transfer_failed(spent, TransferFailReason::NoRoute, t, trace);
            }
        }
    }

    /// Consumes the driver into its outcome tally, reconciling custody:
    /// any task still in flight is reported as `undelivered` (surfaced as
    /// [`CustodyError`] in the outcome) instead of silently dropped.
    pub(crate) fn finish(mut self) -> MigrationTally {
        let mut undelivered: Vec<TaskId> = self
            .pending
            .into_values()
            .map(|p| p.salvage.prepared.request.id)
            .collect();
        undelivered.sort();
        assert_eq!(
            undelivered,
            self.ledger.undelivered(),
            "custody violation: the in-flight queue and ledger disagree at end of run"
        );
        self.tally.undelivered = undelivered;
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ClusterFaultPlan, FaultEvent};
    use crate::trace::NullClusterSink;
    use prema_workload::{FaultSchedule, LinkFault};

    fn salvage_for(npu: &NpuConfig, id: u64) -> SalvagedTask {
        use dnn_models::ModelKind;
        use prema_core::{PreparedTask, TaskRequest};
        SalvagedTask {
            prepared: PreparedTask::prepare(
                TaskRequest::new(TaskId(id), ModelKind::CnnAlexNet),
                npu,
            ),
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

    #[test]
    fn validation_covers_every_field() {
        assert!(MigrationConfig::new(8.0).validate().is_ok());
        let bad = [
            MigrationConfig {
                sla_ms: 0.0,
                ..MigrationConfig::new(8.0)
            },
            MigrationConfig {
                sla_ms: f64::NAN,
                ..MigrationConfig::new(8.0)
            },
            MigrationConfig {
                hysteresis: 0.9,
                ..MigrationConfig::new(8.0)
            },
            MigrationConfig {
                hysteresis: f64::INFINITY,
                ..MigrationConfig::new(8.0)
            },
            MigrationConfig::new(8.0).with_custody(CustodyConfig::redirect().with_timeout_ms(0.0)),
            MigrationConfig::new(8.0).with_custody(CustodyConfig {
                backoff_base_ms: f64::NAN,
                ..CustodyConfig::redirect()
            }),
            MigrationConfig::new(8.0).with_custody(CustodyConfig {
                retry_budget: 64,
                ..CustodyConfig::redirect()
            }),
        ];
        for config in bad {
            assert!(config.validate().is_err(), "{config:?}");
        }
    }

    #[test]
    fn in_flight_heap_orders_by_due_then_decision_order() {
        let npu = NpuConfig::paper_default();
        let config = MigrationConfig::new(8.0);
        let links = LinkTopology::default();
        let mut driver = MigrationDriver::new(&config, &npu, 2, &links);
        for (due, id) in [(500u64, 1u64), (300, 2), (500, 3)] {
            driver.ledger.depart(TaskId(id));
            driver.launch(
                salvage_for(&npu, id),
                1,
                0,
                1,
                Cycles::new(due),
                Cycles::ZERO,
            );
        }
        assert_eq!(driver.next_due(), Some(Cycles::new(300)));
        assert!(driver.pop_due(Cycles::new(299)).is_none());
        let mut order: Vec<u64> = Vec::new();
        while let Some(p) = driver.pop_due(Cycles::MAX) {
            let id = p.salvage.prepared.request.id;
            driver.ledger.land(id, p.to_node);
            order.push(id.0);
        }
        assert_eq!(order, vec![2, 1, 3]);
        let tally = driver.finish();
        assert_eq!(tally.migrations, 0);
        assert!(tally.undelivered.is_empty());
    }

    #[test]
    fn launch_resolves_fate_against_the_link_schedule() {
        use prema_workload::LinkFaultKind;
        let npu = NpuConfig::paper_default();
        // Paper fabric: 2000 cycles latency + bytes/16 serialization.
        let links = LinkTopology::new(&[LinkFault {
            from: 0,
            to: 1,
            start: Cycles::new(2_500),
            end: Cycles::new(3_000),
            kind: LinkFaultKind::Down,
        }]);
        let config = MigrationConfig::new(8.0).with_custody(CustodyConfig::redirect());
        let mut driver = MigrationDriver::new(&config, &npu, 2, &links);

        // Attempt over the doomed link: drops mid-flight at the window
        // start (launch at 1000, arrival would be 1000 + 2000 + 64 = 3064).
        driver.ledger.depart(TaskId(1));
        driver.launch(
            salvage_for(&npu, 1),
            0,
            1,
            1,
            Cycles::new(2_064),
            Cycles::new(1_000),
        );
        assert_eq!(driver.next_due(), Some(Cycles::new(2_500)));
        let dropped = driver.pop_due(Cycles::MAX).expect("one entry");
        assert_eq!(
            dropped.event,
            TransferEvent::Fail(TransferFailReason::LinkDown)
        );

        // The reverse direction is unaffected: lands on schedule.
        driver.ledger.depart(TaskId(2));
        driver.launch(
            salvage_for(&npu, 2),
            1,
            0,
            1,
            Cycles::new(2_064),
            Cycles::new(1_000),
        );
        assert_eq!(driver.next_due(), Some(Cycles::new(3_064)));
        let landed = driver.pop_due(Cycles::MAX).expect("one entry");
        assert_eq!(landed.event, TransferEvent::Land);

        // A transfer slower than the delivery deadline times out at the
        // deadline instant.
        let deadline = npu.millis_to_cycles(4.0);
        driver.ledger.depart(TaskId(3));
        driver.launch(
            salvage_for(&npu, 3),
            1,
            0,
            1,
            deadline + Cycles::new(1_000),
            Cycles::new(10_000),
        );
        assert_eq!(driver.next_due(), Some(Cycles::new(10_000) + deadline));
        let timed_out = driver.pop_due(Cycles::MAX).expect("one entry");
        assert_eq!(
            timed_out.event,
            TransferEvent::Fail(TransferFailReason::Timeout)
        );
        driver.ledger = CustodyLedger::default();
        let _ = driver.finish();
    }

    #[test]
    fn exhausted_retry_budget_abandons_with_accounting() {
        let npu = NpuConfig::paper_default();
        let config = MigrationConfig::new(8.0).with_custody(CustodyConfig::abandon_on_failure());
        let links = LinkTopology::default();
        let mut driver = MigrationDriver::new(&config, &npu, 2, &links);
        driver.ledger.depart(TaskId(7));
        driver.launch(
            salvage_for(&npu, 7),
            0,
            1,
            1,
            Cycles::new(100),
            Cycles::ZERO,
        );
        let pending = driver.pop_due(Cycles::MAX).expect("one entry");
        let trace = RefCell::new(NullClusterSink);
        driver.on_transfer_failed(
            pending,
            TransferFailReason::LinkDown,
            Cycles::new(100),
            &trace,
        );
        let tally = driver.finish();
        assert_eq!(tally.transfer_failures, 1);
        assert_eq!(tally.redirects, 0);
        assert_eq!(tally.abandoned.len(), 1);
        assert_eq!(tally.abandoned[0].id, TaskId(7));
        assert!(tally.undelivered.is_empty());
    }

    #[test]
    fn recovery_and_custody_share_one_retry_rule() {
        // One (budget, base) for both layers: attempt k <= budget holds
        // exactly base * 2^(k-1), attempt budget + 1 abandons.
        const BUDGET: u32 = 3;
        const BASE_MS: f64 = 0.75;
        let npu = NpuConfig::paper_default();
        let hold = |k: u32| npu.millis_to_cycles(BASE_MS * f64::from(1u32 << (k - 1)));
        let trace = RefCell::new(NullClusterSink);
        let links = LinkTopology::default();

        // Crash recovery: the salvage is attempt 1, each unreachable
        // re-dispatch spends one more.
        let plan = ClusterFaultPlan::new(FaultSchedule::none()).with_recovery(RecoveryConfig {
            retry_budget: BUDGET,
            backoff_base_ms: BASE_MS,
            ..RecoveryConfig::checkpointed()
        });
        let mut faults = FaultDriver::new(&plan, &npu, 2, &links);
        let mut t = Cycles::new(1_000);
        faults.on_salvaged(0, t, vec![salvage_for(&npu, 1)], &trace);
        for k in 1..=BUDGET {
            assert_eq!(
                faults.next_event_time(),
                Some(t + hold(k)),
                "recovery attempt {k}"
            );
            t += hold(k);
            let Some(FaultEvent::Recovery(pending)) = faults.pop_due(t) else {
                panic!("recovery attempt {k} due after its hold");
            };
            assert_eq!(pending.attempt, k);
            faults.on_unreachable(pending, t, &trace);
        }
        assert_eq!(faults.next_event_time(), None);
        let tally = faults.finish();
        assert_eq!(tally.abandoned.len(), 1);
        assert_eq!(tally.recoveries, 0);

        // Custody: each failed transfer attempt holds, and the redirect
        // relaunches as the next attempt.
        let custody = CustodyConfig {
            retry_budget: BUDGET,
            backoff_base_ms: BASE_MS,
            ..CustodyConfig::redirect()
        };
        let config = MigrationConfig::new(8.0).with_custody(custody);
        let mut migration = MigrationDriver::new(&config, &npu, 2, &links);
        let mut t = Cycles::new(1_000);
        migration.ledger.depart(TaskId(1));
        migration.launch(salvage_for(&npu, 1), 0, 1, 1, Cycles::new(10), t);
        for k in 1..=BUDGET + 1 {
            t += Cycles::new(10);
            let landing = migration.pop_due(t).expect("the attempt comes due");
            assert_eq!(landing.attempt, k);
            migration.on_transfer_failed(landing, TransferFailReason::LinkDown, t, &trace);
            if k > BUDGET {
                break;
            }
            assert_eq!(
                migration.next_due(),
                Some(t + hold(k)),
                "custody attempt {k}"
            );
            t += hold(k);
            let held = migration.pop_due(t).expect("the redirect comes due");
            assert_eq!(held.event, TransferEvent::Redirect);
            migration.launch(held.salvage, 0, 1, k + 1, Cycles::new(10), t);
        }
        assert_eq!(migration.next_due(), None);
        let tally = migration.finish();
        assert_eq!(tally.transfer_failures, u64::from(BUDGET) + 1);
        assert_eq!(tally.abandoned.len(), 1);
        assert!(tally.undelivered.is_empty());
    }

    #[test]
    fn finish_reports_undelivered_tasks_instead_of_asserting() {
        let npu = NpuConfig::paper_default();
        let config = MigrationConfig::new(8.0).with_custody(CustodyConfig::redirect());
        let links = LinkTopology::default();
        let mut driver = MigrationDriver::new(&config, &npu, 2, &links);
        driver.ledger.depart(TaskId(9));
        driver.launch(
            salvage_for(&npu, 9),
            0,
            1,
            1,
            Cycles::new(2_064),
            Cycles::new(1_000),
        );
        let tally = driver.finish();
        assert_eq!(tally.undelivered, vec![TaskId(9)]);
    }

    #[test]
    fn custody_ledger_rejects_double_ownership() {
        let mut ledger = CustodyLedger::default();
        ledger.depart(TaskId(1));
        let boom =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ledger.depart(TaskId(1))));
        assert!(boom.is_err(), "departing an in-flight task must panic");
    }
}
