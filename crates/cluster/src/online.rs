//! Closed-loop (online) multi-NPU cluster simulation: dispatch on *observed*
//! node state.
//!
//! The open-loop path ([`crate::cluster`]) commits every request to a node
//! up front against front-end FCFS-approximation ledgers and only then
//! simulates the nodes; the dispatcher never sees a real queue. This module
//! closes that loop, which is PREMA's core architectural claim applied at
//! cluster scope: scheduling decisions should react to *observed* system
//! state (live queue depths, the predictor's remaining-work estimates over
//! each task's true progress) rather than static assignment.
//!
//! [`OnlineClusterSimulator`] runs a global event queue that interleaves
//! request arrivals with node execution. Every node is a paused
//! [`prema_core::SimSession`]; at each arrival the dispatcher inspects the
//! nodes' *actual* state through the session's closed-loop surface, commits
//! the request to the best node ([`SimSession::inject`]), and execution
//! resumes. That timeline is written once — arrivals in (arrival, id)
//! order, the fault and transfer-delivery instants, the steps between
//! them, and where each fault, steal and migration round runs — over one of
//! two *node strategies*. A strategy owns only which nodes a step advances
//! and how each decision reads them, so heap ≡ reference checks exactly
//! those. The two produce bit-identical results:
//!
//! * [`OnlineClusterSimulator::run`] — the production *event-heap*
//!   strategy (the crate-private `event_heap` module): one next-event
//!   certificate per node ([`SimSession::next_event_time`]) in a lazily
//!   invalidated min-heap, so a step advances only the nodes that are due
//!   or about to be mutated and reads every other node through its `*_at`
//!   projections. Its decisions read the engine's O(1) incremental
//!   aggregates; without stealing or migration each fresh arrival walks an
//!   indexed contender structure (the crate-private `contender` module:
//!   penalty-tiered tournament trees, O(log nodes) per arrival).
//! * [`OnlineClusterSimulator::run_reference`] — the *stepping* strategy,
//!   kept in this module as the semantic oracle (and the baseline of the
//!   `cluster-scale` bench): every step advances *all* sessions via
//!   [`SimSession::run_until`], and every decision rescans every node's
//!   residents.
//!
//! Two mechanisms that only a closed loop can express ride on the same
//! surface:
//!
//! * **Work stealing** ([`OnlineClusterConfig::work_stealing`]) — when a
//!   node drains while others hold never-started waiting work, the idle
//!   node takes over the largest such task ([`SimSession::revoke`] on the
//!   victim, inject on the thief). The global loop steps to every
//!   completion bound between arrivals, so idleness is detected at the
//!   completion that caused it, not at the next arrival. The reference
//!   advances every node at each such step; the event-heap strategy
//!   advances only the nodes whose certificate is due, plus the victim and
//!   thief of a steal, and reads the rest through their `*_at` projections.
//! * **SLA-aware admission** ([`OnlineClusterConfig::admission`]) — at each
//!   arrival the front-end predicts the p99 turnaround over all resident
//!   work plus the newcomer (per node: remaining work drained in
//!   priority-then-arrival order); while the prediction exceeds the target,
//!   the lowest-priority never-started task cluster-wide (possibly the
//!   newcomer itself) is shed instead of served.
//!
//! A third mechanism, **fault tolerance**
//! ([`OnlineClusterConfig::with_faults`]), injects a
//! [`prema_workload::FaultSchedule`] into the same global timeline: a
//! *crash* fails the node ([`SimSession::fail`]), salvaging every resident
//! task at its last checkpoint commit point, and a *freeze* stalls it
//! (a straggler that makes no progress until the window ends). Salvaged
//! work re-enters dispatch under the [`crate::RecoveryConfig`] policy —
//! exponential backoff, a per-task retry budget (exhaustion *abandons* the
//! task, reported separately from admission sheds), and checkpoint-priced
//! resume versus restart-from-zero. Dispatch becomes failure-aware (down
//! and cooling-down nodes are deprioritized) and admission degrades
//! gracefully (the p99 target tightens to the surviving-capacity
//! fraction). Recoveries bypass admission — the task was already admitted
//! once, and re-shedding it would double-count the decision.
//!
//! A fourth mechanism, **straggler tolerance**
//! ([`OnlineClusterConfig::with_migration`]), answers *degrade* windows —
//! nodes that stay up but run at a fractional clock
//! ([`prema_core::SimSession::set_clock_scale`]). A deadline monitor
//! re-checks per-task completion predictions at every global
//! synchronization point; when a started task's prediction slips past its
//! SLA-derived deadline, a stay-vs-move arbiter prices evacuation over the
//! [`crate::interconnect`] fabric (checkpoint transfer plus restore
//! DMA plus queueing at the target, against the scaled remaining time on
//! the straggler) and, hysteresis and budget permitting, extracts the task at
//! its last checkpoint commit point
//! ([`prema_core::SimSession::checkpoint_out`]) and ships it — in-flight
//! tasks land as arrival events at the destination. See [`crate::migration`]'s
//! module docs for the full decision pipeline.
//!
//! Both the open- and closed-loop paths produce a [`ClusterOutcome`], so
//! [`crate::metrics::ClusterMetrics`] and the deterministic
//! [`crate::metrics::outcome_hash`] apply to either; the closed-loop extras
//! (shed requests, steal count) live in [`OnlineOutcome`] and fold into
//! [`online_outcome_hash`]. Everything is a pure function of the inputs —
//! no RNG at all on the closed-loop path — pinned by `tests/determinism.rs`.
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use npu_sim::{Cycles, NpuConfig};
use prema_core::{
    NpuSimulator, PreparedTask, Priority, ResidentTask, SchedulerConfig, SimSession, TaskId,
    TaskRequest, TraceSink,
};
use prema_metrics::Percentiles;

use prema_workload::FaultKind;

use crate::cluster::{ClusterOutcome, NodeAssignment};
use crate::faults::{ClusterFaultPlan, FaultDriver, FaultEvent, FaultTally, RecoveryRecord};
use crate::interconnect::LinkTopology;
use crate::metrics::fold_hashes;
use crate::migration::{
    CustodyError, MigrationConfig, MigrationDriver, MigrationRecord, RedirectRecord, TransferEvent,
};
use crate::trace::{
    sample_nodes, ClusterTraceEvent, ClusterTraceSink, FaultTraceKind, NodeKey, NodeKeySet,
    NodeTap, NullClusterSink, TransferFailReason,
};

/// Which live-state signal the closed-loop dispatcher minimizes at each
/// arrival. These mirror the open-loop policies of
/// [`crate::dispatch::DispatchPolicy`], but read the nodes' *actual* state
/// instead of front-end ledger approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OnlineDispatchPolicy {
    /// Join-shortest-queue over the live queue depth (running + waiting).
    ShortestQueue,
    /// Least predicted remaining work over resident tasks, using each
    /// task's true progress.
    LeastWork,
    /// Priority-aware: least predicted remaining work of equal-or-higher
    /// priority (the work the node's preemptive scheduler will actually run
    /// before the newcomer).
    Predictive,
}

impl OnlineDispatchPolicy {
    /// A short stable label for reports and baselines.
    pub fn label(self) -> &'static str {
        match self {
            OnlineDispatchPolicy::ShortestQueue => "jsq-live",
            OnlineDispatchPolicy::LeastWork => "least-work-live",
            OnlineDispatchPolicy::Predictive => "predictive-live",
        }
    }
}

impl std::fmt::Display for OnlineDispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// SLA-aware admission control: shed lowest-priority work whenever the
/// predicted p99 turnaround exceeds the target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaAdmissionConfig {
    /// The p99 turnaround target, in milliseconds on the cluster NPU's
    /// clock. When an arrival pushes the *predicted* p99 over this value,
    /// never-started lowest-priority work is shed until the prediction
    /// recovers (or nothing sheddable remains).
    pub target_p99_ms: f64,
}

/// Configuration of a closed-loop cluster simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineClusterConfig {
    /// Number of NPU nodes behind the front-end.
    pub nodes: usize,
    /// The NPU configuration every node runs (homogeneous cluster).
    pub npu: NpuConfig,
    /// The scheduler every node runs (e.g. NP-FCFS or Dynamic-PREMA).
    pub scheduler: SchedulerConfig,
    /// The live-state signal the dispatcher minimizes.
    pub dispatch: OnlineDispatchPolicy,
    /// Whether idle nodes steal never-started waiting work from loaded
    /// peers.
    pub work_stealing: bool,
    /// Optional SLA-aware admission control.
    pub admission: Option<SlaAdmissionConfig>,
    /// Optional node fault injection and the recovery policy answering it.
    pub faults: Option<ClusterFaultPlan>,
    /// Optional deadline-triggered checkpoint migration (the straggler
    /// answer — see [`crate::MigrationConfig`]).
    pub migration: Option<MigrationConfig>,
}

impl OnlineClusterConfig {
    /// A closed-loop cluster of `nodes` paper-default NPUs: no stealing, no
    /// admission control.
    pub fn new(nodes: usize, scheduler: SchedulerConfig, dispatch: OnlineDispatchPolicy) -> Self {
        OnlineClusterConfig {
            nodes,
            npu: NpuConfig::paper_default(),
            scheduler,
            dispatch,
            work_stealing: false,
            admission: None,
            faults: None,
            migration: None,
        }
    }

    /// Enables work stealing on node idle.
    pub fn with_work_stealing(mut self) -> Self {
        self.work_stealing = true;
        self
    }

    /// Enables SLA-aware admission at the given p99 target.
    pub fn with_admission(mut self, target_p99_ms: f64) -> Self {
        self.admission = Some(SlaAdmissionConfig { target_p99_ms });
        self
    }

    /// Injects the given fault plan into the run's global timeline.
    pub fn with_faults(mut self, faults: ClusterFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables deadline-triggered checkpoint migration under the given
    /// policy.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = Some(migration);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        self.npu.validate()?;
        self.scheduler.validate()?;
        if let Some(admission) = &self.admission {
            if !admission.target_p99_ms.is_finite() || admission.target_p99_ms <= 0.0 {
                return Err("admission p99 target must be positive and finite".into());
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
            if let Some(event) = faults
                .schedule
                .events
                .iter()
                .find(|event| event.node >= self.nodes)
            {
                return Err(format!(
                    "fault schedule names node {} but the cluster has {} nodes",
                    event.node, self.nodes
                ));
            }
            if let Some(link) = faults
                .schedule
                .links
                .iter()
                .find(|link| link.from >= self.nodes || link.to >= self.nodes)
            {
                return Err(format!(
                    "link fault window names node {} but the cluster has {} nodes",
                    link.from.max(link.to),
                    self.nodes
                ));
            }
        }
        if let Some(migration) = &self.migration {
            migration.validate()?;
            if self.nodes < 2 {
                return Err("migration needs at least two nodes (there is nowhere to move)".into());
            }
        }
        Ok(())
    }
}

/// Results of one closed-loop cluster simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// The served work, in the same shape the open-loop path produces:
    /// per-node engine outcomes plus the assignments (each request's *final*
    /// serving node — a stolen task reports the thief). Shed requests appear
    /// in neither.
    pub cluster: ClusterOutcome,
    /// Requests shed by admission control, in shed order. Disjoint from
    /// [`OnlineOutcome::abandoned`]: shedding is a *policy* decision made
    /// before service, abandonment is a fault-tolerance failure after it.
    pub shed: Vec<TaskRequest>,
    /// Number of work-stealing migrations performed.
    pub steals: u64,
    /// Requests abandoned after exhausting the recovery retry budget, in
    /// abandonment order.
    pub abandoned: Vec<TaskRequest>,
    /// Number of node crash windows that began.
    pub crashes: u64,
    /// Number of node freeze windows that began.
    pub freezes: u64,
    /// Number of salvaged-task re-dispatches performed.
    pub recoveries: u64,
    /// Every recovery hop, in re-dispatch order.
    pub recovery_log: Vec<RecoveryRecord>,
    /// Per-node total fault-window downtime.
    pub node_downtime: Vec<Cycles>,
    /// Number of degrade windows that began (straggler intervals — the node
    /// stayed up at a fractional clock, so these contribute no downtime).
    pub degrades: u64,
    /// Per-node total time spent inside degrade windows.
    pub node_degraded_time: Vec<Cycles>,
    /// Number of deadline-triggered checkpoint migrations performed.
    pub migrations: u64,
    /// Total checkpoint context moved over the interconnect, in bytes.
    pub migration_bytes: u64,
    /// Every migration hop, in decision order.
    pub migration_log: Vec<MigrationRecord>,
    /// Number of failed in-flight transfer attempts (link drop mid-flight,
    /// delivery deadline expiry, destination down at landing, or no
    /// reachable redirect target). Tasks abandoned after the custody retry
    /// budget runs out join [`OnlineOutcome::abandoned`].
    pub transfer_failures: u64,
    /// Number of redirect relaunches performed after transfer failures.
    pub redirects: u64,
    /// Every redirect hop, in relaunch order.
    pub redirect_log: Vec<RedirectRecord>,
    /// The custody reconciliation verdict: `Some` when tasks were still in
    /// flight when the run ended — every task the cluster took custody of
    /// must land, be abandoned with accounting, or be reported here.
    pub custody_error: Option<CustodyError>,
}

impl OnlineOutcome {
    /// Number of served tasks.
    pub fn served(&self) -> usize {
        self.cluster.task_count()
    }

    /// Whether any fault-tolerance machinery actually fired in this run.
    /// False for fault-free runs *and* for runs configured with an empty
    /// (or never-triggering) schedule, keeping their digests identical.
    pub fn has_fault_activity(&self) -> bool {
        self.crashes > 0
            || self.freezes > 0
            || self.degrades > 0
            || self.recoveries > 0
            || !self.abandoned.is_empty()
    }
}

/// The deterministic digest of a closed-loop outcome: the open-loop
/// [`crate::metrics::outcome_hash`] over the served work, folded with the
/// shed request IDs and the steal count. When fault machinery fired
/// ([`OnlineOutcome::has_fault_activity`]) the fold extends over the
/// abandoned IDs, the fault counters, every recovery hop and the per-node
/// downtime; when degrade windows fired it further extends over the degrade
/// tally, when migrations fired over the migration tally and every
/// migration hop, and when in-flight transfers failed or redirected over
/// the custody tally, every redirect hop and any unreconciled custody
/// verdict. Each extension is gated on its own activity, so runs predating
/// a mechanism (and runs where it never triggers) keep their historical
/// digests byte-for-byte.
pub fn online_outcome_hash(outcome: &OnlineOutcome) -> u64 {
    let mut parts: Vec<u64> = vec![crate::metrics::outcome_hash(&outcome.cluster)];
    parts.extend(outcome.shed.iter().map(|request| request.id.0));
    parts.push(outcome.steals);
    if outcome.has_fault_activity() {
        parts.extend(outcome.abandoned.iter().map(|request| request.id.0));
        parts.extend([outcome.crashes, outcome.freezes, outcome.recoveries]);
        for record in &outcome.recovery_log {
            parts.extend([
                record.task.0,
                record.from_node as u64,
                record.to_node as u64,
                u64::from(record.attempt),
                record.resume_executed.get(),
                record.at.get(),
            ]);
        }
        parts.extend(outcome.node_downtime.iter().map(|downtime| downtime.get()));
    }
    if outcome.degrades > 0 {
        parts.push(outcome.degrades);
        parts.extend(outcome.node_degraded_time.iter().map(|time| time.get()));
    }
    if outcome.migrations > 0 {
        parts.extend([outcome.migrations, outcome.migration_bytes]);
        for record in &outcome.migration_log {
            parts.extend([
                record.task.0,
                record.from_node as u64,
                record.to_node as u64,
                record.bytes,
                record.at.get(),
                record.arrive_at.get(),
            ]);
        }
    }
    if outcome.transfer_failures > 0 || outcome.redirects > 0 {
        parts.extend([outcome.transfer_failures, outcome.redirects]);
        for record in &outcome.redirect_log {
            parts.extend([
                record.task.0,
                record.from_node as u64,
                record.to_node as u64,
                u64::from(record.attempt),
                record.at.get(),
            ]);
        }
    }
    if let Some(error) = &outcome.custody_error {
        parts.extend(error.undelivered.iter().map(|task| task.0));
    }
    fold_hashes(parts)
}

/// A closed-loop run's node sessions, each tapped into the cluster trace
/// sink.
type TappedSessions<C> = Vec<SimSession<NodeTap<C>>>;

/// The closed-loop multi-NPU cluster simulator.
#[derive(Debug, Clone)]
pub struct OnlineClusterSimulator {
    config: OnlineClusterConfig,
}

impl OnlineClusterSimulator {
    /// Creates a closed-loop cluster simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: OnlineClusterConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid OnlineClusterConfig: {msg}");
        }
        OnlineClusterSimulator { config }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &OnlineClusterConfig {
        &self.config
    }

    /// Runs the closed-loop simulation over the prepared tasks: arrivals
    /// interleaved with node execution, each arrival dispatched on the
    /// nodes' live state. An empty task list yields an empty outcome.
    ///
    /// This is the production *event-heap* strategy (see the `event_heap`
    /// module): node certificates live in a lazily invalidated binary
    /// min-heap, a step advances only the nodes whose events are due (or
    /// that a decision is about to mutate), and all dispatch / stealing /
    /// admission signals come from the engine's O(1) incremental
    /// aggregates. It is bit-identical to
    /// [`OnlineClusterSimulator::run_reference`] — same records, same
    /// assignments, same shed and steal sequences, same
    /// [`online_outcome_hash`] — pinned by a property test across random
    /// node counts, policies and arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if task IDs are not unique across the whole cluster workload.
    pub fn run(&self, tasks: &[PreparedTask]) -> OnlineOutcome {
        self.run_traced(tasks, NullClusterSink).0
    }

    /// Like [`OnlineClusterSimulator::run`] with a [`ClusterTraceSink`]
    /// attached: every dispatch decision (with the per-node keys actually
    /// compared), steal, shed, fault, recovery, migration and
    /// certificate-heap event is streamed to `sink`, which is returned
    /// alongside the outcome. Tracing never perturbs the simulation — the
    /// outcome is bit-identical to the untraced run (property-tested by
    /// `tests/trace.rs`).
    ///
    /// # Panics
    ///
    /// Panics if task IDs are not unique across the whole cluster workload.
    pub fn run_traced<C: ClusterTraceSink>(
        &self,
        tasks: &[PreparedTask],
        sink: C,
    ) -> (OnlineOutcome, C) {
        self.drive(tasks, sink, crate::event_heap::EventHeapLoop::new)
    }

    /// The naive stepping strategy, kept as the semantic oracle for
    /// [`OnlineClusterSimulator::run`] and as the baseline the
    /// `cluster-scale` bench measures the event-heap strategy against:
    /// every step (each arrival and fault instant, and with stealing or
    /// migration every completion bound) advances *all* node sessions, and
    /// every dispatch / admission / stealing decision rescans every node's
    /// residents — O(events x nodes) and worse. Deliberately computes its
    /// signals from resident scans rather than the engine's incremental
    /// aggregates, so the equivalence property test cross-checks the
    /// aggregates against an independent implementation.
    ///
    /// # Panics
    ///
    /// Panics if task IDs are not unique across the whole cluster workload.
    pub fn run_reference(&self, tasks: &[PreparedTask]) -> OnlineOutcome {
        self.run_reference_traced(tasks, NullClusterSink).0
    }

    /// Like [`OnlineClusterSimulator::run_reference`] with a
    /// [`ClusterTraceSink`] attached (the oracle counterpart of
    /// [`OnlineClusterSimulator::run_traced`]).
    ///
    /// # Panics
    ///
    /// Panics if task IDs are not unique across the whole cluster workload.
    pub fn run_reference_traced<C: ClusterTraceSink>(
        &self,
        tasks: &[PreparedTask],
        sink: C,
    ) -> (OnlineOutcome, C) {
        self.drive(tasks, sink, |config, sessions, trace| ReferenceNodes {
            config,
            sessions,
            trace,
        })
    }

    /// Runs the shared [`Timeline`] over the node strategy `strategy`
    /// builds, with `sink` shared between the timeline and every node
    /// session, and hands the sink back once every session has finished.
    fn drive<'a, C, N>(
        &'a self,
        tasks: &[PreparedTask],
        sink: C,
        strategy: fn(&'a OnlineClusterConfig, TappedSessions<C>, Rc<RefCell<C>>) -> N,
    ) -> (OnlineOutcome, C)
    where
        C: ClusterTraceSink,
        N: Nodes<NodeTap<C>>,
    {
        assert_unique_ids(tasks);
        let trace = Rc::new(RefCell::new(sink));
        let simulator = NpuSimulator::new(self.config.npu.clone(), self.config.scheduler.clone());
        let sessions = (0..self.config.nodes)
            .map(|node| simulator.session_with_sink(&[], NodeTap::new(node, Rc::clone(&trace))))
            .collect();
        let nodes = strategy(&self.config, sessions, Rc::clone(&trace));
        let links = LinkTopology::new(
            self.config
                .faults
                .as_ref()
                .map_or(&[], |plan| &plan.schedule.links),
        );
        let outcome =
            Timeline::new(&self.config, &links, nodes, Rc::clone(&trace), tasks.len()).run(tasks);
        let sink = Rc::try_unwrap(trace)
            .expect("every node tap is dropped with its finished session")
            .into_inner();
        (outcome, sink)
    }
}

/// The shed-preference ordering: lowest priority, then largest predicted
/// remaining work, then newest id. Smaller keys shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ShedKey(
    Priority,
    std::cmp::Reverse<Cycles>,
    std::cmp::Reverse<TaskId>,
);

impl ShedKey {
    pub(crate) fn of(priority: Priority, remaining: Cycles, id: TaskId) -> Self {
        ShedKey(
            priority,
            std::cmp::Reverse(remaining),
            std::cmp::Reverse(id),
        )
    }
}

/// Panics unless every task id is unique.
pub(crate) fn assert_unique_ids(tasks: &[PreparedTask]) {
    let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), tasks.len(), "task IDs must be unique");
}

/// The global arrival queue: task indices in the order a front-end sees
/// requests — (arrival, id)-sorted.
fn arrival_order(tasks: &[PreparedTask]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].request.arrival, tasks[i].request.id));
    order
}

/// The SLA admission target under graceful degradation: the configured p99
/// tightened to the fraction of nodes currently up (not inside a fault
/// window), so a degraded cluster sheds proportionally earlier instead of
/// queueing work the surviving capacity cannot absorb. Fault-free (and
/// fault-idle) instants leave the target exactly unchanged.
pub(crate) fn scaled_admission_target<S: TraceSink>(
    sessions: &[SimSession<S>],
    target_p99_ms: f64,
) -> f64 {
    let up = sessions
        .iter()
        .filter(|session| session.stalled_until().is_none())
        .count();
    target_p99_ms * (up.max(1) as f64 / sessions.len() as f64)
}

/// The run's books: each admitted request's serving node, the shed list and
/// the steal count.
#[derive(Debug)]
pub(crate) struct Books {
    assignments: Vec<NodeAssignment>,
    /// Index into `assignments` per task, so steals, recoveries and
    /// landings can rewrite the serving node (lookups only — never
    /// iterated).
    slots: HashMap<TaskId, usize>,
    shed: Vec<TaskRequest>,
    steals: u64,
}

impl Books {
    fn with_capacity(tasks: usize) -> Self {
        Books {
            assignments: Vec::with_capacity(tasks),
            slots: HashMap::with_capacity(tasks),
            shed: Vec::new(),
            steals: 0,
        }
    }

    /// Books a fresh arrival onto `node`.
    fn assign(&mut self, task: TaskId, node: usize) {
        self.slots.insert(task, self.assignments.len());
        self.assignments.push(NodeAssignment { task, node });
    }

    /// Rewrites `task`'s serving node.
    fn reassign(&mut self, task: TaskId, node: usize) {
        if let Some(&slot) = self.slots.get(&task) {
            self.assignments[slot].node = node;
        }
    }

    /// Books one steal: `task` now runs on `thief`.
    pub(crate) fn steal(&mut self, task: TaskId, thief: usize) {
        self.reassign(task, thief);
        self.steals += 1;
    }
}

/// A node strategy: how one closed-loop driver keeps the node sessions and
/// decides over them. The shared [`Timeline`] owns everything else, so
/// heap ≡ reference checks exactly what a strategy owns: which nodes a step
/// advances, and how each decision (dispatch, admission, stealing, which
/// nodes a migration round walks) reads them.
///
/// Reads of node `i` go through its `*_at(horizon(i))` projections. A
/// mutation goes through [`Nodes::session_mut`], which first brings the
/// node to that horizon, and each batch of mutations ends with
/// [`Nodes::settle`]. The reference advances every session at every step,
/// so its horizon is each node's own clock (where the projections are the
/// identity) and its hooks do nothing; the event-heap strategy leaves quiet
/// nodes unadvanced.
pub(crate) trait Nodes<S: TraceSink> {
    /// Every session, for reads.
    fn sessions(&self) -> &[SimSession<S>];
    /// The instant node `i` is read at.
    fn horizon(&self, i: usize) -> Cycles;
    /// Node `i`, advanced to its horizon, for a mutation.
    fn session_mut(&mut self, i: usize) -> &mut SimSession<S>;
    /// Ends a batch of mutations: refreshes whatever the strategy keeps
    /// per node for every node [`Nodes::session_mut`] handed out since the
    /// last call.
    fn settle(&mut self) {}
    /// A fault window edge at `t` moved node `node`'s dispatch penalty
    /// tier.
    fn retier(&mut self, _node: usize, _faults: &FaultDriver<'_>, _t: Cycles) {}
    /// The nodes a migration round at step instant `t` walks, ascending,
    /// into `sources`: at least every node, stalled and over-budget ones
    /// aside, whose deadline monitor finds a started resident past its
    /// deadline. The reference yields every node, so heap ≡ reference
    /// checks every node the event heap leaves out.
    fn migration_sources(&mut self, _t: Cycles, sources: &mut Vec<usize>) {
        sources.clear();
        sources.extend(0..self.sessions().len());
    }
    /// Node `i` spent its last evacuation: no later round walks it, so a
    /// strategy may stop yielding it from [`Nodes::migration_sources`].
    /// The reference walks every node anyway.
    fn retire_source(&mut self, _i: usize) {}
    /// The earliest `next_completion_time` over all nodes: where the next
    /// step between two timeline instants lands.
    fn next_bound(&mut self) -> Option<Cycles>;
    /// Opens a step at `t`: the reference advances every node to `t`, the
    /// event-heap strategy only the nodes whose certificate is due.
    fn begin_step(&mut self, t: Cycles);
    /// The dispatch decision at `t`: the node minimizing (penalty tier,
    /// live-state signal, remaining work, index). `source` is the node the
    /// task's bytes travel from: `Some` for a recovery, `None` for a fresh
    /// arrival.
    fn pick_node(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
    ) -> usize;
    /// SLA-aware admission of `task`, headed for `node`: sheds into `shed`
    /// while the predicted p99 exceeds the target, and returns whether the
    /// newcomer survived.
    fn admit(
        &mut self,
        task: &PreparedTask,
        node: usize,
        admission: SlaAdmissionConfig,
        shed: &mut Vec<TaskRequest>,
    ) -> bool;
    /// One block of work-stealing rounds over the fabric `links`, booking
    /// every steal.
    fn steal_round(&mut self, links: &LinkTopology, books: &mut Books);
    /// The sessions, to finish.
    fn into_sessions(self) -> Vec<SimSession<S>>
    where
        Self: Sized;
}

/// The closed-loop timeline, written once for both node strategies:
/// arrivals in (arrival, id) order, the fault-timeline and transfer
/// delivery instants, and the steps between them, driving the shared
/// [`FaultDriver`] and [`MigrationDriver`] and keeping the run's books.
#[derive(Debug)]
struct Timeline<'a, C: ClusterTraceSink, N> {
    config: &'a OnlineClusterConfig,
    nodes: N,
    /// The cluster trace sink (disabled sinks compile the emission sites
    /// away). Borrowed only *between* session calls: the sessions' node
    /// taps borrow the same cell from inside engine methods.
    trace: Rc<RefCell<C>>,
    /// The run's link-fault windows, shared by both drivers and the steal
    /// rounds (empty for a perfect fabric).
    links: &'a LinkTopology,
    faults: Option<FaultDriver<'a>>,
    migration: Option<MigrationDriver<'a>>,
    books: Books,
}

impl<'a, C: ClusterTraceSink, N: Nodes<NodeTap<C>>> Timeline<'a, C, N> {
    fn new(
        config: &'a OnlineClusterConfig,
        links: &'a LinkTopology,
        nodes: N,
        trace: Rc<RefCell<C>>,
        tasks: usize,
    ) -> Self {
        Timeline {
            config,
            nodes,
            trace,
            links,
            faults: config
                .faults
                .as_ref()
                .map(|plan| FaultDriver::new(plan, &config.npu, config.nodes, links)),
            migration: config
                .migration
                .as_ref()
                .map(|policy| MigrationDriver::new(policy, &config.npu, config.nodes, links)),
            books: Books::with_capacity(tasks),
        }
    }

    /// Dispatches every arrival on the nodes' live state at its instant,
    /// then plays out the rest of the timeline.
    fn run(mut self, tasks: &[PreparedTask]) -> OnlineOutcome {
        for i in arrival_order(tasks) {
            let task = &tasks[i];
            let now = task.request.arrival;
            self.drain_fault_events(now);
            self.advance_to(now);
            sample_nodes(self.nodes.sessions(), now, &self.trace);

            let node = self.nodes.pick_node(now, task, self.faults.as_ref(), None);
            if let Some(admission) = self.config.admission {
                if !self
                    .nodes
                    .admit(task, node, admission, &mut self.books.shed)
                {
                    continue;
                }
            }
            self.books.assign(task.request.id, node);
            self.nodes
                .session_mut(node)
                .inject(task.clone())
                .expect("arrival ids are unique");
            self.nodes.settle();
        }

        // Play out the remaining fault/migration timeline (crashes spawn
        // recoveries that re-enter it, migration rounds put new transfers
        // in flight), then drain every node (still stealing and migrating
        // at each completion bound).
        self.drain_fault_events(Cycles::MAX);
        self.advance_to(Cycles::MAX);
        self.finish()
    }

    /// Processes every fault- and migration-timeline event due at or before
    /// `limit`, in timeline order: advance the cluster to the event
    /// instant, then fail (crash), stall (freeze), scale (degrade start /
    /// end), re-dispatch (due recovery) or deliver (due migration). Each
    /// instant ends with a migration round over the advanced cluster.
    /// Crashes push their salvage manifests back into the fault driver and
    /// migration rounds put new transfers in flight, so the timeline grows
    /// while it drains; the retry and per-node migration budgets bound it.
    ///
    /// Every event instant closes a step of [`Timeline::advance_to`].
    /// After it, each mutation brings only its own node to its horizon
    /// ([`Nodes::session_mut`]), and the batch's dispatch picks advance
    /// nothing. This is load-bearing for same-instant recovery batches: a
    /// node receiving several salvages at one instant admits them
    /// atomically at its next wakeup, instead of dispatching a partial
    /// batch between two injections. Re-running `run_until(t)` on a node
    /// would not be a no-op after a mutation either: after a migration
    /// round evacuated a running task, the session would wake up and
    /// dispatch its next resident, a state transition the reference only
    /// performs at its next step.
    fn drain_fault_events(&mut self, limit: Cycles) {
        loop {
            let fault_next = self.faults.as_ref().and_then(FaultDriver::next_event_time);
            let migration_next = self.migration.as_ref().and_then(MigrationDriver::next_due);
            let Some(t) = [fault_next, migration_next]
                .into_iter()
                .flatten()
                .min()
                .filter(|&t| t <= limit)
            else {
                return;
            };
            self.advance_to(t);
            if let Some(driver) = self.faults.as_mut() {
                while let Some(event) = driver.pop_due(t) {
                    match event {
                        FaultEvent::Fault(fault) => {
                            if C::ENABLED {
                                let kind = match fault.kind {
                                    FaultKind::Crash => FaultTraceKind::Crash,
                                    FaultKind::Freeze => FaultTraceKind::Freeze,
                                    FaultKind::Degrade {
                                        speed_num,
                                        speed_den,
                                    } => FaultTraceKind::Degrade {
                                        num: speed_num,
                                        den: speed_den,
                                    },
                                };
                                self.trace.borrow_mut().cluster_event(
                                    t,
                                    ClusterTraceEvent::Fault {
                                        node: fault.node,
                                        kind,
                                        until: fault.end,
                                    },
                                );
                            }
                            let session = self.nodes.session_mut(fault.node);
                            match fault.kind {
                                FaultKind::Crash => {
                                    let salvaged = session.fail();
                                    driver.on_salvaged(fault.node, t, salvaged, &self.trace);
                                    session.stall(fault.end);
                                }
                                FaultKind::Freeze => session.stall(fault.end),
                                FaultKind::Degrade {
                                    speed_num,
                                    speed_den,
                                } => session.set_clock_scale(speed_num, speed_den),
                            }
                            self.nodes.settle();
                            self.nodes.retier(fault.node, driver, t);
                        }
                        FaultEvent::DegradeEnd { node } => {
                            if C::ENABLED {
                                self.trace.borrow_mut().cluster_event(
                                    t,
                                    ClusterTraceEvent::Fault {
                                        node,
                                        kind: FaultTraceKind::DegradeEnd,
                                        until: t,
                                    },
                                );
                            }
                            self.nodes.session_mut(node).set_clock_scale(1, 1);
                            self.nodes.settle();
                            self.nodes.retier(node, driver, t);
                        }
                        FaultEvent::Recovery(pending) => {
                            let node = self.nodes.pick_node(
                                t,
                                &pending.salvage.prepared,
                                Some(driver),
                                Some(pending.from_node),
                            );
                            // The pick minimizes the penalty tier, so an
                            // unreachable winner means *no* node is
                            // reachable from the custodian: the attempt is
                            // spent and the salvage re-queues (or is
                            // abandoned) instead of crossing the partition.
                            if self.links.reachable(pending.from_node, node, t) {
                                let origin = (pending.from_node, pending.attempt);
                                let salvage = driver.redispatch(pending, node, t);
                                let id = salvage.prepared.request.id;
                                if C::ENABLED {
                                    self.trace.borrow_mut().cluster_event(
                                        t,
                                        ClusterTraceEvent::Recovery {
                                            task: id,
                                            from: origin.0,
                                            to: node,
                                            attempt: origin.1,
                                        },
                                    );
                                }
                                self.nodes
                                    .session_mut(node)
                                    .inject_salvaged(salvage, t)
                                    .expect("salvaged task id is not live");
                                self.nodes.settle();
                                self.books.reassign(id, node);
                            } else {
                                driver.on_unreachable(pending, t, &self.trace);
                            }
                        }
                        FaultEvent::LinkEdge(edge) => {
                            // Link windows mutate no session: the topology
                            // answers state queries lazily. The edge exists
                            // so the timeline steps (and traces) at the
                            // instant routing decisions change.
                            if C::ENABLED {
                                self.trace.borrow_mut().cluster_event(
                                    t,
                                    ClusterTraceEvent::LinkFault {
                                        from: edge.from,
                                        to: edge.to,
                                        kind: edge.kind,
                                        until: edge.until,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            self.deliver_due_migrations(t);
            self.migration_round(t);
            sample_nodes(self.nodes.sessions(), t, &self.trace);
        }
    }

    /// Advances the cluster to `t`. With work stealing or migration
    /// enabled, execution is stepped to every completion bound (and every
    /// in-flight migration delivery) on the way, with steal and migration
    /// rounds at each, so a node that drains between arrivals steals at
    /// its drain moment — and a deadline that slips at a completion is
    /// caught there — rather than at the next arrival. Otherwise one step
    /// lands straight on `t`. Which nodes a step advances is the
    /// strategy's ([`Nodes::begin_step`]).
    fn advance_to(&mut self, t: Cycles) {
        let stepping = self.config.work_stealing || self.migration.is_some();
        loop {
            let mut step = t;
            if stepping {
                // The earliest moment any node's task set can shrink.
                if let Some(bound) = self.nodes.next_bound().filter(|&bound| bound < t) {
                    step = bound;
                }
                // In-flight deliveries strictly before `t` land mid-advance;
                // one due exactly at `t` belongs to the caller's event batch
                // (the fault drain processes it after the fault events there).
                if let Some(due) = self
                    .migration
                    .as_ref()
                    .and_then(MigrationDriver::next_due)
                    .filter(|&due| due < step)
                {
                    step = due;
                }
            }
            self.nodes.begin_step(step);
            if self.config.work_stealing {
                self.nodes.steal_round(self.links, &mut self.books);
            }
            if step < t {
                self.deliver_due_migrations(step);
            }
            self.migration_round(step);
            if step == t {
                return;
            }
        }
    }

    /// Processes every in-flight transfer event due at or before `t` — the
    /// single consumption point of the custody decision machine:
    ///
    /// * a **landing** injects the salvage at its destination (paying the
    ///   restore DMA there) and rewrites the task's assignment to the new
    ///   serving node — unless custody is enabled and the destination is
    ///   down at the landing instant, which converts it into a failed
    ///   attempt;
    /// * a **failure** (link drop mid-flight, delivery deadline expiry)
    ///   routes through the retry machinery — exponential backoff under the
    ///   custody retry budget, abandonment with accounting past it;
    /// * a **redirect** re-prices every reachable healthy node and
    ///   relaunches the transfer toward the cheapest one.
    ///
    /// The landings' nodes settle after the migration round that follows.
    fn deliver_due_migrations(&mut self, t: Cycles) {
        let Some(migration) = self.migration.as_mut() else {
            return;
        };
        while let Some(pending) = migration.pop_due(t) {
            match pending.event {
                TransferEvent::Land => {
                    let node = pending.to_node;
                    if migration.custody_enabled()
                        && self
                            .faults
                            .as_ref()
                            .is_some_and(|driver| driver.is_down(node, t))
                    {
                        migration.on_transfer_failed(
                            pending,
                            TransferFailReason::DestinationDown,
                            t,
                            &self.trace,
                        );
                        continue;
                    }
                    let id = pending.salvage.prepared.request.id;
                    migration.on_landed(id, node);
                    self.nodes
                        .session_mut(node)
                        .inject_salvaged(pending.salvage, t)
                        .expect("migrated task id is not live");
                    if C::ENABLED {
                        self.trace
                            .borrow_mut()
                            .cluster_event(t, ClusterTraceEvent::MigrationLand { task: id, node });
                    }
                    self.books.reassign(id, node);
                }
                TransferEvent::Fail(reason) => {
                    migration.on_transfer_failed(pending, reason, t, &self.trace);
                }
                TransferEvent::Redirect => {
                    migration.redirect(pending, &self.nodes, self.faults.as_ref(), t, &self.trace);
                }
            }
        }
    }

    /// One migration round at `t`, when migration is on, then the settle
    /// that closes its mutations (and the landings' before it).
    fn migration_round(&mut self, t: Cycles) {
        if let Some(migration) = self.migration.as_mut() {
            migration.round(&mut self.nodes, t, &self.trace);
            self.nodes.settle();
        }
    }

    /// Finishes every session and assembles the [`OnlineOutcome`], dropping
    /// shed, abandoned and undelivered tasks' assignment entries so
    /// assignments biject onto records. Custody abandonments (transfer
    /// retry budget exhausted) are appended after recovery abandonments, in
    /// abandonment order within each source; tasks the custody ledger still
    /// holds in flight surface as [`OnlineOutcome::custody_error`].
    fn finish(self) -> OnlineOutcome {
        let sessions = self.nodes.into_sessions();
        let tally = self
            .faults
            .map_or_else(|| FaultTally::empty(sessions.len()), FaultDriver::finish);
        let migration = self
            .migration
            .map(MigrationDriver::finish)
            .unwrap_or_default();
        let Books {
            mut assignments,
            shed,
            steals,
            ..
        } = self.books;
        let mut abandoned = tally.abandoned;
        abandoned.extend(migration.abandoned);
        let custody_error = if migration.undelivered.is_empty() {
            None
        } else {
            Some(CustodyError {
                undelivered: migration.undelivered,
            })
        };
        if !shed.is_empty() || !abandoned.is_empty() || custody_error.is_some() {
            let dropped: std::collections::HashSet<TaskId> = shed
                .iter()
                .chain(abandoned.iter())
                .map(|request| request.id)
                .chain(
                    custody_error
                        .iter()
                        .flat_map(|error| error.undelivered.iter().copied()),
                )
                .collect();
            assignments.retain(|assignment| !dropped.contains(&assignment.task));
        }
        let node_outcomes = sessions.into_iter().map(SimSession::finish).collect();
        OnlineOutcome {
            cluster: ClusterOutcome {
                node_outcomes,
                assignments,
            },
            shed,
            steals,
            abandoned,
            crashes: tally.crashes,
            freezes: tally.freezes,
            recoveries: tally.recoveries,
            recovery_log: tally.recovery_log,
            node_downtime: tally.node_downtime,
            degrades: tally.degrades,
            node_degraded_time: tally.node_degraded_time,
            migrations: migration.migrations,
            migration_bytes: migration.migration_bytes,
            migration_log: migration.migration_log,
            transfer_failures: migration.transfer_failures,
            redirects: migration.redirects,
            redirect_log: migration.redirect_log,
            custody_error,
        }
    }
}

/// The stepping oracle's node strategy (see
/// [`OnlineClusterSimulator::run_reference`]): every step advances every
/// session to the step instant, and every decision rescans every node's
/// residents.
#[derive(Debug)]
struct ReferenceNodes<'a, C: ClusterTraceSink> {
    config: &'a OnlineClusterConfig,
    sessions: Vec<SimSession<NodeTap<C>>>,
    trace: Rc<RefCell<C>>,
}

impl<C: ClusterTraceSink> Nodes<NodeTap<C>> for ReferenceNodes<'_, C> {
    fn sessions(&self) -> &[SimSession<NodeTap<C>>] {
        &self.sessions
    }

    fn horizon(&self, i: usize) -> Cycles {
        self.sessions[i].now()
    }

    fn session_mut(&mut self, i: usize) -> &mut SimSession<NodeTap<C>> {
        &mut self.sessions[i]
    }

    /// A scan over every session. Bounds are strictly in the future (a
    /// paused node is running or idle), so every step advances the clock.
    fn next_bound(&mut self) -> Option<Cycles> {
        self.sessions
            .iter()
            .filter_map(SimSession::next_completion_time)
            .min()
    }

    fn begin_step(&mut self, t: Cycles) {
        for session in &mut self.sessions {
            let _ = session.run_until(t);
        }
    }

    /// The node minimizing the configured live-state signal. Ties break
    /// toward the node with the least total remaining work, then the lowest
    /// index — without the load-aware tie-break, a high-priority arrival in
    /// a mostly-low-priority mix sees near-zero blocking work on *every*
    /// node and the whole high tier would pile onto node 0.
    ///
    /// Deliberately computes the work signals by scanning every node's
    /// residents rather than through the engine's incremental totals, so
    /// the equivalence property test cross-checks those totals against an
    /// independent computation.
    ///
    /// Under fault injection the live-state signal is preceded by the
    /// failure-aware penalty tier (down now, inside the post-fault
    /// cooldown, healthy): a down or cooling-down node only wins when every
    /// healthier node is worse *by tier*. Fault-free runs see a uniform
    /// zero tier, leaving the historical ordering untouched.
    ///
    /// A fresh arrival enters through the front-end control plane and
    /// reaches every node regardless of inter-node link state; a recovery's
    /// salvage lives on the crashed `source`. Nodes unreachable from
    /// `source` sit above every penalty tier, so they only win when the
    /// whole cluster is partitioned away.
    fn pick_node(
        &mut self,
        now: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
    ) -> usize {
        let priority = task.request.priority;
        let dispatch = self.config.dispatch;
        let score = |session: &SimSession<NodeTap<C>>| -> (u64, u64) {
            let residents = session.resident_tasks();
            let remaining: Cycles = residents
                .iter()
                .map(ResidentTask::estimated_remaining)
                .sum();
            let remaining = remaining.get();
            match dispatch {
                OnlineDispatchPolicy::ShortestQueue => (session.queue_depth() as u64, remaining),
                OnlineDispatchPolicy::LeastWork => (remaining, remaining),
                OnlineDispatchPolicy::Predictive => {
                    let blocking: Cycles = residents
                        .iter()
                        .filter(|resident| resident.priority >= priority)
                        .map(ResidentTask::estimated_remaining)
                        .sum();
                    (blocking.get(), remaining)
                }
            }
        };
        let penalty =
            |index: usize| faults.map_or(0u8, |driver| driver.route_penalty(source, index, now));
        let chosen = self
            .sessions
            .iter()
            .enumerate()
            .min_by_key(|(index, session)| (penalty(*index), score(session), *index))
            .expect("at least one node")
            .0;
        if C::ENABLED {
            // The reference path compares every node exactly; rebuild the
            // keys in a separate pass so the decision code stays untouched.
            let mut keys = NodeKeySet::default();
            for (index, session) in self.sessions.iter().enumerate() {
                keys.push(NodeKey {
                    node: index,
                    penalty: penalty(index),
                    key: score(session),
                });
            }
            self.trace.borrow_mut().cluster_event(
                now,
                ClusterTraceEvent::DispatchDecision {
                    task: task.request.id,
                    chosen,
                    keys,
                },
            );
        }
        chosen
    }

    /// Predicts the cluster-wide p99 turnaround over all resident tasks
    /// plus the newcomer (headed for `node`); while it exceeds the target,
    /// sheds the lowest-priority never-started task cluster-wide.
    fn admit(
        &mut self,
        task: &PreparedTask,
        node: usize,
        admission: SlaAdmissionConfig,
        shed: &mut Vec<TaskRequest>,
    ) -> bool {
        let npu = &self.config.npu;
        let sessions = &mut self.sessions;
        let incoming_priority = task.request.priority;
        let incoming_estimate = task.estimated_cycles();
        let target_p99_ms = scaled_admission_target(sessions, admission.target_p99_ms);
        loop {
            let mut predicted_ms: Vec<f64> = Vec::new();
            for session in sessions.iter() {
                predicted_turnarounds_ms(session, npu, &mut predicted_ms);
            }
            // The newcomer's own predicted turnaround, from a resident scan
            // like everything else on this reference path.
            let blocking: Cycles = sessions[node]
                .resident_tasks()
                .iter()
                .filter(|resident| resident.priority >= incoming_priority)
                .map(ResidentTask::estimated_remaining)
                .sum();
            let incoming_turnaround = blocking + incoming_estimate;
            predicted_ms.push(npu.cycles_to_millis(incoming_turnaround));
            let p99 = Percentiles::summarize(&predicted_ms)
                .expect("the newcomer is always present")
                .p99;
            if p99 <= target_p99_ms {
                return true;
            }

            // Shed candidate: lowest priority first, then the largest
            // predicted remaining work, then the highest (newest) id. The
            // newcomer competes with the same key.
            let mut candidate: Option<(ShedKey, usize, TaskId)> = None;
            for (index, session) in sessions.iter().enumerate() {
                for resident in session.resident_tasks() {
                    if !resident.revocable {
                        continue;
                    }
                    let key = ShedKey::of(
                        resident.priority,
                        resident.estimated_remaining(),
                        resident.id,
                    );
                    if candidate.as_ref().is_none_or(|(best, _, _)| key < *best) {
                        candidate = Some((key, index, resident.id));
                    }
                }
            }
            let incoming_key = ShedKey::of(incoming_priority, incoming_estimate, task.request.id);
            match candidate {
                Some((key, victim_node, victim_id)) if key < incoming_key => {
                    let revoked = sessions[victim_node]
                        .revoke(victim_id)
                        .expect("resident was reported revocable");
                    if C::ENABLED {
                        self.trace.borrow_mut().cluster_event(
                            sessions[victim_node].now(),
                            ClusterTraceEvent::Shed {
                                task: victim_id,
                                node: victim_node,
                            },
                        );
                    }
                    shed.push(revoked.request);
                }
                _ => {
                    // The newcomer is itself the lowest-priority work (or
                    // nothing else is sheddable): reject it.
                    if C::ENABLED {
                        self.trace.borrow_mut().cluster_event(
                            sessions[node].now(),
                            ClusterTraceEvent::Shed {
                                task: task.request.id,
                                node,
                            },
                        );
                    }
                    shed.push(task.request);
                    return false;
                }
            }
        }
    }

    /// Every idle node (live queue depth zero) takes the largest
    /// never-started waiting task from the peer holding the most such work,
    /// until no idle node or no stealable work remains. A steal moves the
    /// task's bytes victim-to-thief over the fabric, so victims the thief
    /// cannot currently reach (link down or partitioned away) are skipped.
    fn steal_round(&mut self, links: &LinkTopology, books: &mut Books) {
        let sessions = &mut self.sessions;
        loop {
            // A crashed node drains to queue depth zero the instant it fails
            // — the stall check keeps it from masquerading as an eager thief
            // (frozen nodes may still be *victims*: their waiting work is
            // exactly what is worth migrating off a straggler).
            let Some(thief) = sessions
                .iter()
                .position(|s| s.queue_depth() == 0 && s.stalled_until().is_none())
            else {
                return;
            };
            // Victim: the node with the most stealable (never-started)
            // predicted work, provided it keeps at least one task for
            // itself. One pass per node finds both the stealable sum and the
            // task to take — the revocable task with the largest remaining
            // work, ties to the lowest id.
            let now = sessions[thief].now();
            let mut victim: Option<(Cycles, usize, ResidentTask)> = None;
            for (index, session) in sessions.iter().enumerate() {
                if session.queue_depth() < 2 {
                    continue;
                }
                if !links.reachable(index, thief, now) {
                    continue;
                }
                let mut stealable = Cycles::ZERO;
                let mut best: Option<ResidentTask> = None;
                for resident in session.resident_tasks() {
                    if !resident.revocable {
                        continue;
                    }
                    stealable += resident.estimated_remaining();
                    let better = best.as_ref().is_none_or(|current| {
                        (
                            resident.estimated_remaining(),
                            std::cmp::Reverse(resident.id),
                        ) > (current.estimated_remaining(), std::cmp::Reverse(current.id))
                    });
                    if better {
                        best = Some(resident);
                    }
                }
                if stealable.is_zero() {
                    continue;
                }
                if victim.as_ref().is_none_or(|(most, _, _)| stealable > *most) {
                    victim = Some((
                        stealable,
                        index,
                        best.expect("nonzero stealable work has a best task"),
                    ));
                }
            }
            let Some((_, victim, stolen)) = victim else {
                return;
            };
            let prepared = sessions[victim]
                .revoke(stolen.id)
                .expect("stolen task was revocable");
            sessions[thief]
                .inject(prepared)
                .expect("revoked task re-injects cleanly");
            if C::ENABLED {
                self.trace.borrow_mut().cluster_event(
                    sessions[thief].now(),
                    ClusterTraceEvent::Steal {
                        task: stolen.id,
                        from: victim,
                        to: thief,
                    },
                );
            }
            books.steal(stolen.id, thief);
        }
    }

    fn into_sessions(self) -> Vec<SimSession<NodeTap<C>>> {
        self.sessions
    }
}

/// Appends the predicted turnaround (milliseconds) of every resident task of
/// one node: remaining work is drained in priority-then-arrival order (the
/// preemptive scheduler's effective order), so task `k`'s predicted
/// completion is the node clock plus the remaining work at or ahead of it.
fn predicted_turnarounds_ms<S: TraceSink>(
    session: &SimSession<S>,
    npu: &NpuConfig,
    out: &mut Vec<f64>,
) {
    let mut residents: Vec<ResidentTask> = session.resident_tasks();
    residents.sort_by_key(|resident| {
        (
            std::cmp::Reverse(resident.priority),
            resident.arrival,
            resident.id,
        )
    });
    let now = session.now();
    let mut backlog = Cycles::ZERO;
    for resident in residents {
        backlog += resident.estimated_remaining();
        let completion = now + backlog;
        out.push(npu.cycles_to_millis(completion - resident.arrival));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prema_workload::arrivals::{generate_open_loop, OpenLoopConfig};
    use prema_workload::prepare::prepare_requests;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prepared(rate: f64, duration: f64, seed: u64) -> Vec<PreparedTask> {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = generate_open_loop(&OpenLoopConfig::poisson(rate, duration), &mut rng);
        prepare_requests(&spec.requests, &NpuConfig::paper_default(), None)
    }

    fn simulator(dispatch: OnlineDispatchPolicy) -> OnlineClusterSimulator {
        OnlineClusterSimulator::new(OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            dispatch,
        ))
    }

    #[test]
    fn every_request_is_served_exactly_once_without_admission() {
        let tasks = prepared(0.6, 60.0, 0xA11);
        for dispatch in [
            OnlineDispatchPolicy::ShortestQueue,
            OnlineDispatchPolicy::LeastWork,
            OnlineDispatchPolicy::Predictive,
        ] {
            let outcome = simulator(dispatch).run(&tasks);
            assert!(outcome.shed.is_empty(), "{dispatch}");
            assert_eq!(outcome.served(), tasks.len(), "{dispatch}");
            let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
            expected.sort_unstable();
            let served: Vec<TaskId> = outcome
                .cluster
                .merged_records()
                .iter()
                .map(|r| r.id)
                .collect();
            assert_eq!(served, expected, "{dispatch}");
            // Each record lives on the node its assignment names.
            assert_eq!(outcome.cluster.assignments.len(), tasks.len());
            for assignment in &outcome.cluster.assignments {
                let node = &outcome.cluster.node_outcomes[assignment.node];
                assert!(node.record(assignment.task).is_some(), "{dispatch}");
            }
        }
    }

    #[test]
    fn closed_loop_runs_are_reproducible() {
        let tasks = prepared(0.8, 60.0, 0xB22);
        let config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_work_stealing();
        let a = OnlineClusterSimulator::new(config.clone()).run(&tasks);
        let b = OnlineClusterSimulator::new(config).run(&tasks);
        assert_eq!(a, b);
        assert_eq!(online_outcome_hash(&a), online_outcome_hash(&b));
    }

    #[test]
    fn work_stealing_rewrites_assignments_consistently() {
        // A two-node cluster with one long queue invites stealing: all
        // requests arrive nearly at once, so the live signals are near-equal
        // at dispatch and completions expose idleness later.
        let tasks = prepared(2.0, 20.0, 0xC33);
        let config = OnlineClusterConfig::new(
            2,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::ShortestQueue,
        )
        .with_work_stealing();
        let outcome = OnlineClusterSimulator::new(config).run(&tasks);
        assert_eq!(outcome.served(), tasks.len());
        // Every assignment matches the node that actually served the task,
        // steals included.
        for assignment in &outcome.cluster.assignments {
            let node = &outcome.cluster.node_outcomes[assignment.node];
            assert!(node.record(assignment.task).is_some());
        }
    }

    #[test]
    fn admission_stays_bit_identical_when_estimates_undershoot() {
        // Regression: with an underestimating predictor, a running task's
        // estimated remaining clamps at zero while it keeps executing, so a
        // node's predicted turnarounds *grow with the clock* between state
        // versions. The heap loop's admission cache froze the runner-pinned
        // entries as absolute constants and reused them across a shed-only
        // arrival (which changes no node's state version), disagreeing with
        // the reference's fresh recomputation inside exactly that overrun
        // window. Estimates at half the true plan length, a shed-prone p99
        // target and an arrival landing in the overrun window pin the fix.
        use dnn_models::ModelKind;
        let npu = NpuConfig::paper_default();
        let half = |model: ModelKind, id: u64, arrival: u64| {
            let exact =
                prema_core::PreparedTask::prepare(TaskRequest::new(TaskId(id), model), &npu)
                    .isolated_cycles();
            prema_core::PreparedTask::prepare(
                TaskRequest::new(TaskId(id), model)
                    .with_arrival(Cycles::new(arrival))
                    .with_estimate(exact / 2),
                &npu,
            )
        };
        let vgg = prema_core::PreparedTask::prepare(
            TaskRequest::new(TaskId(0), ModelKind::CnnVggNet),
            &npu,
        )
        .isolated_cycles()
        .get();
        // Arrival 1 lands before the VggNet runner exhausts its halved
        // estimate (and should be shed); arrival 2 lands in the overrun
        // window (estimate exhausted at vgg/2, true completion at vgg).
        let tasks = vec![
            half(ModelKind::CnnVggNet, 0, 0),
            half(ModelKind::CnnAlexNet, 1, vgg / 10),
            half(ModelKind::CnnAlexNet, 2, vgg / 2 + vgg / 4),
        ];
        for target_ms in [1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 8.0] {
            let config = OnlineClusterConfig::new(
                1,
                SchedulerConfig::np_fcfs(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_admission(target_ms);
            let simulator = OnlineClusterSimulator::new(config);
            let heap = simulator.run(&tasks);
            let reference = simulator.run_reference(&tasks);
            assert_eq!(heap, reference, "target {target_ms} ms");
        }
    }

    #[test]
    fn admission_sheds_under_an_impossible_target_and_serves_the_rest() {
        let tasks = prepared(0.8, 60.0, 0xD44);
        let config = OnlineClusterConfig::new(
            2,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_admission(1e-3);
        let outcome = OnlineClusterSimulator::new(config).run(&tasks);
        // A microsecond-scale p99 target is unattainable: work is shed.
        assert!(!outcome.shed.is_empty());
        assert_eq!(outcome.served() + outcome.shed.len(), tasks.len());
        // Serving and shedding partition the request ids.
        let mut all: Vec<TaskId> = outcome
            .cluster
            .merged_records()
            .iter()
            .map(|r| r.id)
            .chain(outcome.shed.iter().map(|r| r.id))
            .collect();
        all.sort_unstable();
        let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
        // Assignments cover exactly the served tasks.
        assert_eq!(outcome.cluster.assignments.len(), outcome.served());
    }

    #[test]
    fn generous_admission_target_sheds_nothing() {
        let tasks = prepared(0.4, 40.0, 0xE55);
        let config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_admission(1e9);
        let outcome = OnlineClusterSimulator::new(config).run(&tasks);
        assert!(outcome.shed.is_empty());
        assert_eq!(outcome.served(), tasks.len());
    }

    #[test]
    fn faulty_runs_stay_bit_identical_and_conserve_tasks() {
        use prema_workload::FaultProcess;
        let tasks = prepared(0.8, 60.0, 0xF66);
        let mut rng = StdRng::seed_from_u64(0xF77);
        let schedule = FaultProcess::crashes(3, 30.0, 2.0, 60.0)
            .with_freeze_fraction(0.3)
            .generate(&mut rng);
        assert!(!schedule.is_empty(), "the process must actually fault");
        for (stealing, admission) in [(false, None), (true, None), (false, Some(50.0))] {
            let mut config = OnlineClusterConfig::new(
                3,
                SchedulerConfig::paper_default(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_faults(ClusterFaultPlan::new(schedule.clone()));
            if stealing {
                config = config.with_work_stealing();
            }
            if let Some(target) = admission {
                config = config.with_admission(target);
            }
            let simulator = OnlineClusterSimulator::new(config);
            let heap = simulator.run(&tasks);
            let reference = simulator.run_reference(&tasks);
            assert_eq!(
                heap, reference,
                "stealing {stealing}, admission {admission:?}"
            );
            assert_eq!(online_outcome_hash(&heap), online_outcome_hash(&reference));
            // Exactly-once conservation: served, shed and abandoned
            // partition the generated ids.
            let mut all: Vec<TaskId> = heap
                .cluster
                .merged_records()
                .iter()
                .map(|r| r.id)
                .chain(heap.shed.iter().map(|r| r.id))
                .chain(heap.abandoned.iter().map(|r| r.id))
                .collect();
            all.sort_unstable();
            let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
            expected.sort_unstable();
            assert_eq!(
                all, expected,
                "stealing {stealing}, admission {admission:?}"
            );
            assert!(heap.has_fault_activity());
            assert_eq!(heap.crashes + heap.freezes, schedule.len() as u64);
        }
    }

    #[test]
    fn degraded_runs_stay_bit_identical_and_lose_no_work() {
        use prema_workload::FaultProcess;
        let tasks = prepared(0.8, 60.0, 0x2A1);
        let mut rng = StdRng::seed_from_u64(0x2B2);
        // degrade_fraction 1.0 turns every sampled fault into a straggler
        // window at quarter speed.
        let schedule = FaultProcess::crashes(3, 20.0, 4.0, 60.0)
            .with_degradation(1.0, 1, 4)
            .generate(&mut rng);
        assert!(!schedule.is_empty(), "the process must actually degrade");
        let plain = OnlineClusterSimulator::new(OnlineClusterConfig::new(
            3,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        ))
        .run(&tasks);
        for stealing in [false, true] {
            let mut config = OnlineClusterConfig::new(
                3,
                SchedulerConfig::paper_default(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_faults(ClusterFaultPlan::new(schedule.clone()));
            if stealing {
                config = config.with_work_stealing();
            }
            let simulator = OnlineClusterSimulator::new(config);
            let heap = simulator.run(&tasks);
            let reference = simulator.run_reference(&tasks);
            assert_eq!(heap, reference, "stealing {stealing}");
            assert_eq!(online_outcome_hash(&heap), online_outcome_hash(&reference));
            // Degradation slows nodes but kills nothing: every request is
            // still served, the windows are tallied as degrades (not
            // downtime), and the digest reflects the activity.
            assert_eq!(heap.served(), tasks.len(), "stealing {stealing}");
            assert!(heap.abandoned.is_empty());
            assert_eq!(heap.degrades, schedule.len() as u64);
            assert_eq!(heap.crashes + heap.freezes, 0);
            assert!(heap
                .node_degraded_time
                .iter()
                .any(|&time| time > Cycles::ZERO));
            assert_eq!(
                heap.node_downtime.iter().copied().sum::<Cycles>(),
                Cycles::ZERO
            );
            assert!(heap.has_fault_activity());
            if !stealing {
                assert_ne!(online_outcome_hash(&plain), online_outcome_hash(&heap));
            }
        }
    }

    #[test]
    fn migration_rescues_stragglers_bit_identically() {
        use prema_workload::{FaultKind, FaultSchedule, NodeFault};
        let tasks = prepared(1.5, 40.0, 0x3C1);
        let npu = NpuConfig::paper_default();
        // One node limps at an eighth of full speed for most of the run; a
        // tight SLA with no hysteresis invites the arbiter to evacuate.
        let schedule = FaultSchedule::from_events(vec![NodeFault {
            node: 0,
            start: npu.millis_to_cycles(2.0),
            end: npu.millis_to_cycles(38.0),
            kind: FaultKind::Degrade {
                speed_num: 1,
                speed_den: 8,
            },
        }]);
        let config = OnlineClusterConfig::new(
            2,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_faults(ClusterFaultPlan::new(schedule))
        .with_migration(MigrationConfig::new(4.0).with_hysteresis(1.0));
        let simulator = OnlineClusterSimulator::new(config);
        let heap = simulator.run(&tasks);
        let reference = simulator.run_reference(&tasks);
        assert_eq!(heap, reference);
        assert_eq!(online_outcome_hash(&heap), online_outcome_hash(&reference));
        assert!(
            heap.migrations > 0,
            "the straggler window must trigger evacuations"
        );
        assert_eq!(heap.migrations as usize, heap.migration_log.len());
        assert_eq!(
            heap.migration_bytes,
            heap.migration_log.iter().map(|r| r.bytes).sum::<u64>()
        );
        for record in &heap.migration_log {
            assert_ne!(record.from_node, record.to_node);
            assert!(record.arrive_at > record.at, "transfers take time");
        }
        // Migration moves work, it never duplicates or loses it: the served
        // ids are exactly the generated ids, once each, and every migrated
        // task's final assignment names the node that actually served it.
        assert_eq!(heap.served(), tasks.len());
        let mut served: Vec<TaskId> = heap.cluster.merged_records().iter().map(|r| r.id).collect();
        served.sort_unstable();
        let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
        expected.sort_unstable();
        assert_eq!(served, expected);
        for assignment in &heap.cluster.assignments {
            let node = &heap.cluster.node_outcomes[assignment.node];
            assert!(node.record(assignment.task).is_some());
        }
    }

    /// A migration round walks only the nodes whose deadline can slip: on
    /// a 32-node storm at load 1 with crash, freeze and straggler windows,
    /// the event-heap loop walks fewer than half the nodes the reference
    /// walks (every node that is neither stalled nor over budget, at every
    /// round), with the same outcome. Debug builds also check every node
    /// it leaves out.
    #[test]
    fn migration_rounds_walk_only_nodes_whose_deadline_can_slip() {
        use crate::migration::WALKED;
        use prema_workload::FaultProcess;
        let tasks = prepared(1.6, 40.0, 0x51B);
        let mut rng = StdRng::seed_from_u64(0x51C);
        let schedule = FaultProcess::crashes(8, 30.0, 3.0, 40.0)
            .with_freeze_fraction(0.2)
            .with_degradation(0.4, 1, 8)
            .generate(&mut rng);
        let config = OnlineClusterConfig::new(
            32,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_faults(ClusterFaultPlan::new(schedule))
        .with_migration(MigrationConfig::new(40.0));
        let simulator = OnlineClusterSimulator::new(config);
        let walked = |run: &dyn Fn() -> OnlineOutcome| {
            let before = WALKED.with(std::cell::Cell::get);
            let outcome = run();
            (outcome, WALKED.with(std::cell::Cell::get) - before)
        };
        let (heap, heap_walks) = walked(&|| simulator.run(&tasks));
        let (reference, reference_walks) = walked(&|| simulator.run_reference(&tasks));
        assert_eq!(heap, reference);
        assert!(heap.migrations > 0, "the storm must migrate");
        assert!(
            heap_walks * 2 < reference_walks,
            "the event heap walked {heap_walks} nodes, the reference {reference_walks}"
        );
    }

    #[test]
    fn idle_migration_config_is_digest_neutral() {
        // Enabling migration makes both loops step to every completion
        // bound; a policy that never fires must not perturb the
        // outcome or its digest (stepping purity), and the digest must not
        // grow speculative fields.
        let tasks = prepared(0.5, 40.0, 0x4D1);
        let plain = simulator(OnlineDispatchPolicy::Predictive).run(&tasks);
        let config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_migration(MigrationConfig::new(1e6));
        let idle = OnlineClusterSimulator::new(config).run(&tasks);
        assert_eq!(idle.migrations, 0);
        assert!(idle.migration_log.is_empty());
        assert_eq!(plain.cluster, idle.cluster);
        assert_eq!(online_outcome_hash(&plain), online_outcome_hash(&idle));
    }

    #[test]
    #[should_panic(expected = "nowhere to move")]
    fn migration_needs_a_destination() {
        let _ = OnlineClusterSimulator::new(
            OnlineClusterConfig::new(
                1,
                SchedulerConfig::paper_default(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_migration(MigrationConfig::new(8.0)),
        );
    }

    #[test]
    fn fault_activity_extends_the_digest_and_idle_schedules_do_not() {
        let tasks = prepared(0.5, 40.0, 0x1A2);
        let plain = simulator(OnlineDispatchPolicy::Predictive).run(&tasks);
        // A configured-but-empty schedule must not perturb the digest.
        let idle_config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_faults(ClusterFaultPlan::new(prema_workload::FaultSchedule::none()));
        let idle = OnlineClusterSimulator::new(idle_config).run(&tasks);
        assert!(!idle.has_fault_activity());
        assert_eq!(online_outcome_hash(&plain), online_outcome_hash(&idle));
        assert_eq!(plain.cluster, idle.cluster);
        // A firing schedule flips has_fault_activity and moves the digest.
        let mut rng = StdRng::seed_from_u64(0x1B3);
        let schedule = prema_workload::FaultProcess::crashes(4, 15.0, 1.0, 40.0).generate(&mut rng);
        assert!(!schedule.is_empty());
        let faulty_config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_faults(ClusterFaultPlan::new(schedule));
        let faulty = OnlineClusterSimulator::new(faulty_config).run(&tasks);
        assert!(faulty.has_fault_activity());
        assert_ne!(online_outcome_hash(&plain), online_outcome_hash(&faulty));
    }

    #[test]
    #[should_panic(expected = "names node 7")]
    fn fault_schedule_must_fit_the_cluster() {
        use prema_workload::{FaultKind, NodeFault};
        let schedule = prema_workload::FaultSchedule::from_events(vec![NodeFault {
            node: 7,
            start: Cycles::new(10),
            end: Cycles::new(20),
            kind: FaultKind::Crash,
        }]);
        let _ = OnlineClusterSimulator::new(
            OnlineClusterConfig::new(
                2,
                SchedulerConfig::paper_default(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_faults(ClusterFaultPlan::new(schedule)),
        );
    }

    #[test]
    fn empty_workload_yields_empty_outcome() {
        let outcome = simulator(OnlineDispatchPolicy::LeastWork).run(&[]);
        assert_eq!(outcome.served(), 0);
        assert!(outcome.shed.is_empty());
        assert_eq!(outcome.steals, 0);
        assert_eq!(outcome.cluster.makespan(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "task IDs must be unique")]
    fn duplicate_ids_rejected() {
        use dnn_models::ModelKind;
        let tasks = prepare_requests(
            &[
                TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet),
                TaskRequest::new(TaskId(1), ModelKind::CnnMobileNet),
            ],
            &NpuConfig::paper_default(),
            None,
        );
        let _ = simulator(OnlineDispatchPolicy::ShortestQueue).run(&tasks);
    }

    #[test]
    #[should_panic(expected = "invalid OnlineClusterConfig")]
    fn invalid_config_rejected() {
        let _ = OnlineClusterSimulator::new(OnlineClusterConfig::new(
            0,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        ));
    }
}
