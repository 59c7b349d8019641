//! The event-heap closed-loop cluster driver: O(events × log nodes)
//! co-simulation, bit-identical to the naive stepping loop.
//!
//! [`crate::online::OnlineClusterSimulator::run_reference`] advances
//! *every* node session at every step and rescans every node's residents
//! for every dispatch, admission and stealing decision: O(steps × nodes)
//! `run_until` calls plus O(steps × nodes × residents) scan work. This
//! module opens exactly the reference's steps and makes exactly its
//! decisions, and therefore reproduces its outcomes, while doing
//! asymptotically less work. Two pillars:
//!
//! **Pure suspension.** `SimSession::run_until` composed over *any*
//! ascending horizon sequence yields a bit-identical `SimOutcome` (the
//! resume-equivalence property). So a node that no decision needs to
//! observe can simply be left paused in the past; only the *decisions*
//! must see exactly what the reference saw.
//!
//! **One certificate per node.** [`SimSession::next_event_time`] is the
//! earliest instant at which `run_until` would do more than move the clock
//! and the runner's cursor (a completion, an admission, a contended policy
//! wakeup, a stall end; a degraded node is always due). Before it, the
//! node's `*_at` projections — the clock and the runner's linear progress
//! extrapolated — read exactly what an advanced node would report; queue
//! depths, stall status and the steal/shed candidates do not move while a
//! node is quiet. The loop keeps the certificates in a binary min-heap with
//! *lazy invalidation* (every session mutation pushes the fresh one; stale
//! entries are discarded at pop time).
//!
//! **Steps.** The loop opens a step at each arrival and each fault-timeline
//! instant. With stealing or migration it also steps, as the reference
//! does, to every completion bound and in-flight delivery in between,
//! taking each bound from a lazily invalidated heap of
//! `next_completion_time`s (which do not move before the certificate).
//! Without them it opens exactly one step per instant. Per step it
//! advances only the nodes whose certificates are due, plus any node about
//! to be mutated (an arrival's target, a steal's victim and thief, a shed
//! victim, a faulted node, a recovery or landing target, a migration
//! source), and reads every other node through its `*_at` projections:
//! dispatch scores, admission's prediction segments, the migration
//! deadline monitor and stay/move and redirect pricing.
//!
//! The reference's steps can revisit the past (a steal onto a parked
//! thief makes the next bound the thief's frozen clock), where nodes already
//! further ahead stay put; so a node this loop left alone is read, and
//! advanced when due, at its *reach* — the latest step instant since it was
//! last current — not at the step itself.
//!
//! **Dispatch.** Every pick is the reference's argmin over (penalty tier,
//! score, node index). The exact linear scan reads each node at its reach
//! and never advances one; it serves recovery picks, which route from a
//! source node. When the loop never steps between arrivals (no stealing, no
//! migration — the reference's own test), sourceless arrivals walk
//! [`crate::contender`] instead: queue-depth buckets for `jsq-live`,
//! tournament trees keyed on predicted work for `least-work-live` /
//! `predictive-live`, fault-penalty tiers as the major key, refreshed from
//! the one `reschedule` funnel every session mutation flows through. A walk
//! examines O(log nodes) candidates off the structure minimum and provably
//! picks the scan's node; `debug_assertions` builds replay the scan after
//! every indexed pick and assert the argmin agrees. The walk brings each
//! contender up with the same `sync` a mutation uses: without stepping,
//! every node holding work at an arrival pick is either current at the step
//! or quiet through it, so that advance is one the reference made too.
//!
//! The admission p99 over the projected segments is one in-place
//! selection, and each node's segment is cached by `state_version` (per
//! arrival only nodes whose state moved are re-sorted; within one shed loop
//! only the shedded node's segment is rebuilt); the migration deadline
//! monitor reads the same segments and walks a node's residents only once
//! one of its started residents has slipped. Stealing, shedding and
//! dispatch read O(1) engine aggregates (`revocable_work`,
//! `best_steal_candidate`, `best_shed_candidate`, the predicted-work
//! totals) rather than resident rescans.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use npu_sim::{Cycles, NpuConfig};
use prema_core::{
    NpuSimulator, PreparedTask, Priority, ResidentTask, SimSession, TaskId, TaskRequest, TraceSink,
};
use prema_metrics::percentile_in_place;

use prema_workload::FaultKind;

use crate::cluster::NodeAssignment;
use crate::contender::ContenderIndex;
use crate::faults::{FaultDriver, FaultEvent};
use crate::migration::MigrationDriver;
use crate::online::{
    arrival_order, deliver_due_migrations, finish_outcome, scaled_admission_target, Nodes,
    OnlineClusterConfig, OnlineDispatchPolicy, OnlineOutcome, ShedKey, SlaAdmissionConfig,
};
use crate::trace::{
    sample_nodes, ClusterTraceEvent, ClusterTraceSink, FaultTraceKind, NodeKey, NodeKeySet,
    NodeTap, NullClusterSink,
};

/// A dispatch key: (penalty tier, (signal, remaining work)).
type PenaltyScore = (u8, (u64, u64));

/// Runs the event-heap closed-loop simulation. Caller has validated the
/// config and checked id uniqueness.
pub(crate) fn run(config: &OnlineClusterConfig, tasks: &[PreparedTask]) -> OnlineOutcome {
    let trace = Rc::new(RefCell::new(NullClusterSink));
    run_impl(config, tasks, &trace)
}

/// [`run`] with a cluster trace sink shared between the loop and every node
/// session. The sink only observes — outcomes are bit-identical to the
/// untraced run.
pub(crate) fn run_impl<C: ClusterTraceSink>(
    config: &OnlineClusterConfig,
    tasks: &[PreparedTask],
    trace: &Rc<RefCell<C>>,
) -> OnlineOutcome {
    let simulator = NpuSimulator::new(config.npu.clone(), config.scheduler.clone());
    let sessions: Vec<SimSession<NodeTap<C>>> = (0..config.nodes)
        .map(|node| simulator.session_with_sink(&[], NodeTap::new(node, Rc::clone(trace))))
        .collect();
    let order = arrival_order(tasks);

    let mut driver = EventHeapLoop::new(config, sessions, Rc::clone(trace));
    let mut assignments: Vec<NodeAssignment> = Vec::with_capacity(tasks.len());
    let mut assignment_index: HashMap<TaskId, usize> = HashMap::with_capacity(tasks.len());
    let mut shed: Vec<TaskRequest> = Vec::new();
    let mut steals = 0u64;
    let mut faults = config
        .faults
        .as_ref()
        .map(|plan| FaultDriver::new(plan, &config.npu, config.nodes));
    let link_faults = config
        .faults
        .as_ref()
        .map(|plan| plan.schedule.links.as_slice())
        .unwrap_or(&[]);
    let mut migration = config
        .migration
        .as_ref()
        .map(|policy| MigrationDriver::new(policy, &config.npu, config.nodes, link_faults));

    for &i in &order {
        let task = &tasks[i];
        let now = task.request.arrival;
        driver.drain_fault_events(
            &mut faults,
            &mut migration,
            now,
            &mut steals,
            &mut assignments,
            &assignment_index,
        );
        driver.advance_to(
            faults.as_ref(),
            &mut migration,
            now,
            &mut steals,
            &mut assignments,
            &assignment_index,
        );
        sample_nodes(&driver.sessions, now, trace);

        let node = driver.pick_node(now, task, faults.as_ref(), None);
        if let Some(admission) = config.admission {
            if !driver.admit(task, node, admission, &mut shed) {
                continue;
            }
        }
        assignment_index.insert(task.request.id, assignments.len());
        assignments.push(NodeAssignment {
            task: task.request.id,
            node,
        });
        driver.inject(node, task.clone());
    }

    driver.drain_fault_events(
        &mut faults,
        &mut migration,
        Cycles::MAX,
        &mut steals,
        &mut assignments,
        &assignment_index,
    );
    driver.advance_to(
        faults.as_ref(),
        &mut migration,
        Cycles::MAX,
        &mut steals,
        &mut assignments,
        &assignment_index,
    );
    finish_outcome(
        driver.sessions,
        assignments,
        shed,
        steals,
        faults.map(FaultDriver::finish),
        migration.map(MigrationDriver::finish),
    )
}

/// Per-node cache of the predicted-completion segment that SLA admission
/// and the migration deadline monitor read.
///
/// Each entry is one resident, in drain (priority, arrival, id) order:
/// `(base, arrival, add_now)`. The resident's predicted completion is
/// `base` when `add_now` is false (it drains at or behind the running
/// task, whose absolute completion is time-invariant while the runner's
/// *estimated* remaining is still positive: the runner executes one cycle
/// per cycle with no stalls, so the clock's advance and the backlog's
/// shrinkage cancel), or `now + base` when true (its backlog is constant
/// but the clock still advances under it). The reference computes
/// `millis((now + backlog) - arrival)` with saturating integer cycle
/// arithmetic; these segments reproduce exactly those integers, then
/// convert once per query. At unit clock scale the same completions are
/// the deadline monitor's `now + scaled_wall(backlog)`, so the segment
/// also keeps the largest started turnaround per entry form: a deadline
/// can slip only once it passes the SLA offset.
///
/// One clamp makes the absolute entries *time-limited*: when the predictor
/// underestimated the runner, its estimated remaining saturates at zero
/// before the task actually completes, and from that instant the
/// cancellation stops — the reference's recomputed turnarounds grow with
/// the clock again, with no state-version change to signal it. The segment
/// therefore records `valid_until` (the instant the runner's estimate runs
/// out) and refuses reuse past it; a rebuild inside the overrun window
/// emits every entry in `add_now` form (the runner contributes a constant
/// zero), which is exact for the rest of the version.
///
/// A *stalled* node (inside a fault window) breaks the same cancellation
/// the opposite way: the clock advances but the runner makes no progress
/// at all, so the reference's recomputed turnarounds grow with the clock
/// over a *constant* backlog. A rebuild while stalled therefore also emits
/// every entry in `add_now` form — exact through the stall — with
/// `valid_until` at the stall's end (the injection of the stall itself
/// bumps the state version, forcing the rebuild onto this path).
#[derive(Debug, Clone)]
struct PredictionSegment {
    version: u64,
    valid: bool,
    valid_until: Cycles,
    entries: Vec<(Cycles, Cycles, bool)>,
    /// The largest predicted turnaround of a started resident, over the
    /// absolute entries (constant) and over the `add_now` entries at the
    /// rebuild clock `built` (growing one-for-one with the clock).
    started_turnaround: (Cycles, Option<Cycles>),
    built: Cycles,
}

impl Default for PredictionSegment {
    fn default() -> Self {
        PredictionSegment {
            version: 0,
            valid: false,
            valid_until: Cycles::MAX,
            entries: Vec::new(),
            started_turnaround: (Cycles::ZERO, None),
            built: Cycles::ZERO,
        }
    }
}

impl PredictionSegment {
    /// Rebuilds the segment if the session's state version moved, the
    /// session clock passed the runner's estimate-exhaustion instant, or
    /// the session clock is scaled. Under a degrade window neither entry
    /// form is time-invariant (the runner's backlog shrinks at `num/den`
    /// work per wall cycle, so neither the absolute completions nor the
    /// backlogs stay constant between queries); rebuilding at every query
    /// reproduces exactly the reference's fresh recomputation.
    ///
    /// The session is read as a `run_until(at)` would leave it (the
    /// sessions' `*_at` projections), so a quiet node need not be advanced.
    fn refresh<S: TraceSink>(
        &mut self,
        session: &SimSession<S>,
        at: Cycles,
        scratch: &mut Vec<ResidentTask>,
    ) {
        let now = session.now_at(at);
        if self.valid
            && self.version == session.state_version()
            && now <= self.valid_until
            && session.clock_scale() == (1, 1)
        {
            return;
        }
        scratch.clear();
        session.resident_tasks_at_into(at, scratch);
        scratch.sort_by_key(|resident| (Reverse(resident.priority), resident.arrival, resident.id));
        let stalled = session.stalled_until();
        let runner = session.running_task();
        self.entries.clear();
        self.entries.reserve(scratch.len());
        self.valid_until = stalled.unwrap_or(Cycles::MAX);
        let (mut fixed, mut moving) = (Cycles::ZERO, None::<Cycles>);
        let mut backlog = Cycles::ZERO;
        let mut runner_seen = false;
        for resident in scratch.iter() {
            let remaining = resident.estimated_remaining();
            backlog += remaining;
            if stalled.is_none() && Some(resident.id) == runner && !remaining.is_zero() {
                // The runner pins everything at or behind it to absolute
                // completions — but only until its estimate runs out. A
                // stalled runner pins nothing (no progress while the clock
                // advances), so the whole segment stays in add_now form.
                runner_seen = true;
                self.valid_until = now + remaining;
            }
            if runner_seen {
                self.entries.push((now + backlog, resident.arrival, false));
            } else {
                self.entries.push((backlog, resident.arrival, true));
            }
            if resident.started {
                let turnaround = (now + backlog) - resident.arrival;
                if runner_seen {
                    fixed = fixed.max(turnaround);
                } else {
                    moving = Some(moving.map_or(turnaround, |m| m.max(turnaround)));
                }
            }
        }
        self.started_turnaround = (fixed, moving);
        self.built = now;
        self.version = session.state_version();
        self.valid = true;
    }

    /// Appends the segment's predicted turnarounds (milliseconds) at the
    /// session clock `now`.
    fn append_ms(&self, now: Cycles, npu: &NpuConfig, out: &mut Vec<f64>) {
        for &(base, arrival, add_now) in &self.entries {
            let completion = if add_now { now + base } else { base };
            out.push(npu.cycles_to_millis(completion - arrival));
        }
    }

    /// The largest predicted turnaround of a started resident at the
    /// session clock `now` (zero with none). Exact when every started
    /// resident's completion is at or after its arrival at the rebuild;
    /// otherwise the saturated difference makes it an upper bound.
    fn max_started_turnaround(&self, now: Cycles) -> Cycles {
        let (fixed, moving) = self.started_turnaround;
        moving.map_or(fixed, |moving| fixed.max(moving + (now - self.built)))
    }
}

/// The event-heap loop state: sessions, the lazily invalidated certificate
/// heap, and the reused admission scratch buffers.
#[derive(Debug)]
struct EventHeapLoop<'a, C: ClusterTraceSink> {
    config: &'a OnlineClusterConfig,
    sessions: Vec<SimSession<NodeTap<C>>>,
    /// The shared cluster trace sink (disabled sinks compile the emission
    /// sites away). Borrowed only *between* session calls: the sessions'
    /// node taps borrow the same cell from inside engine methods.
    trace: Rc<RefCell<C>>,
    /// Min-heap of (`next_event_time`, node) candidates. An entry is
    /// current iff the session still reports exactly that certificate;
    /// every session mutation pushes the fresh one, stale entries are
    /// dropped at pop time.
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// Min-heap of (`next_completion_time`, node), kept only when the loop
    /// steps between arrivals (no contender index): the reference's
    /// stepping bound, lazily invalidated like `heap`. A quiet node's
    /// completion time does not move before its certificate, so its entry
    /// stays current while it lags.
    bounds: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// The current step's number.
    step: u64,
    /// The reference advances every node at every step, and its steps can
    /// revisit the past (after a steal onto a parked thief), where a node
    /// already further ahead stays put. So a node this loop left alone
    /// since step `fresh[i]` stands, in the reference, at the *latest*
    /// step instant since then — its `reach`. `peaks` answers that query:
    /// (step, instant) pairs with rising steps and strictly falling
    /// instants, each the maximum over every step from it to the present;
    /// the last is the current step.
    peaks: Vec<(u64, Cycles)>,
    /// The step at which this loop last advanced or mutated each node.
    fresh: Vec<u64>,
    /// Nodes mutated through [`Nodes::session_mut`] since the last
    /// [`Self::flush_touched`].
    touched: Vec<usize>,
    /// The ordered contender structures sourceless arrivals walk instead
    /// of scanning every node, built only when the loop never steps
    /// between arrivals (no stealing, no migration). Refreshed from
    /// [`Self::reschedule`], the single funnel every session mutation
    /// flows through.
    index: Option<ContenderIndex>,
    /// Scratch for one step's due nodes (deduplicated, marked in
    /// `due_mark`).
    due_scratch: Vec<usize>,
    due_mark: Vec<bool>,
    /// Scratch for the dispatch query's stalled/degraded side scan.
    side_scratch: Vec<usize>,
    predictions: Vec<PredictionSegment>,
    /// Reused across admission calls (the reference allocates this fresh
    /// per arrival).
    predicted_ms: Vec<f64>,
    residents_scratch: Vec<ResidentTask>,
}

impl<'a, C: ClusterTraceSink> EventHeapLoop<'a, C> {
    fn new(
        config: &'a OnlineClusterConfig,
        sessions: Vec<SimSession<NodeTap<C>>>,
        trace: Rc<RefCell<C>>,
    ) -> Self {
        let nodes = sessions.len();
        let stepping = config.work_stealing || config.migration.is_some();
        let mut index = (!stepping).then(|| ContenderIndex::new(config.dispatch, nodes));
        if let Some(index) = index.as_mut() {
            for (i, session) in sessions.iter().enumerate() {
                index.refresh(i, &session.dispatch_signals());
            }
        }
        EventHeapLoop {
            config,
            sessions,
            trace,
            heap: BinaryHeap::with_capacity(nodes * 2),
            bounds: BinaryHeap::with_capacity(if stepping { nodes * 2 } else { 0 }),
            step: 0,
            peaks: Vec::new(),
            fresh: vec![0; nodes],
            touched: Vec::new(),
            index,
            due_scratch: Vec::with_capacity(nodes),
            due_mark: vec![false; nodes],
            side_scratch: Vec::new(),
            predictions: vec![PredictionSegment::default(); nodes],
            predicted_ms: Vec::new(),
            residents_scratch: Vec::new(),
        }
    }

    /// Pushes node `i`'s current certificate, plus its contender-index keys
    /// (without stepping) or its completion time (with it). The heaps
    /// always hold each node's live entries plus stale leftovers that
    /// pop-time validation discards.
    fn reschedule(&mut self, i: usize) {
        if self.index.is_some() {
            self.refresh_index(i);
        } else if let Some(bound) = self.sessions[i].next_completion_time() {
            self.bounds.push(Reverse((bound, i)));
        }
        if let Some(bound) = self.sessions[i].next_event_time() {
            self.heap.push(Reverse((bound, i)));
            if C::ENABLED {
                // Sessions change only inside a step, so pushes are stamped
                // with its instant (the newest peak), keeping the cluster
                // stream in step order.
                let (_, stamp) = *self.peaks.last().expect("pushes happen inside a step");
                self.trace
                    .borrow_mut()
                    .cluster_event(stamp, ClusterTraceEvent::HeapPush { node: i, bound });
            }
        }
    }

    /// Re-keys node `i` in the contender index from a fresh signal read.
    /// Sits inside [`Self::reschedule`], so the index tracks every session
    /// mutation the certificate heap does: advances, injections, salvage
    /// re-entries, sheds, fault edges.
    fn refresh_index(&mut self, i: usize) {
        let signals = self.sessions[i].dispatch_signals();
        let (penalty, key, indexed) = self.index().refresh(i, &signals);
        if C::ENABLED {
            self.trace.borrow_mut().cluster_event(
                signals.now,
                ClusterTraceEvent::IndexUpdate {
                    node: i,
                    penalty,
                    key,
                    indexed,
                },
            );
        }
    }

    /// The contender index, for indexed picks and their refreshes.
    fn index(&mut self) -> &mut ContenderIndex {
        self.index
            .as_mut()
            .expect("indexed dispatch requires the index")
    }

    /// Brings node `i` to its reach (see [`Self::sync`]) and refreshes its
    /// heap and index entries.
    fn materialize(&mut self, i: usize) {
        self.sync(i);
        self.reschedule(i);
    }

    /// Where the reference's stepping has carried node `i` since this loop
    /// last advanced or mutated it (see `peaks`), or `None` if no step has
    /// opened since.
    fn reach(&self, i: usize) -> Option<Cycles> {
        let since = self.fresh[i];
        let k = self.peaks.partition_point(|&(step, _)| step <= since);
        self.peaks.get(k).map(|&(_, at)| at)
    }

    /// The instant node `i`'s decisions read it at: its reach — through
    /// which it is quiet, so its `*_at` projections there are exactly what
    /// the reference's advanced node reports — or, if the node is current,
    /// its own clock, where the projections are the identity.
    fn horizon(&self, i: usize) -> Cycles {
        self.reach(i).unwrap_or_else(|| self.sessions[i].now())
    }

    /// Brings node `i` to its reach before a mutation and marks it
    /// current. A node already current this step is left alone: a second
    /// `run_until` after a mutation is not inert — it would admit and
    /// dispatch work the reference leaves pending until its next step.
    fn sync(&mut self, i: usize) {
        if let Some(reach) = self.reach(i) {
            let _ = self.sessions[i].run_until(reach);
        }
        self.fresh[i] = self.step;
    }

    /// Refreshes the heap entries of every node mutated through
    /// [`Nodes::session_mut`].
    fn flush_touched(&mut self) {
        while let Some(i) = self.touched.pop() {
            self.reschedule(i);
        }
    }

    /// The earliest `next_completion_time` over all nodes: the reference's
    /// stepping bound, from the lazily invalidated `bounds` heap.
    fn next_bound(&mut self) -> Option<Cycles> {
        while let Some(&Reverse((bound, i))) = self.bounds.peek() {
            if self.sessions[i].next_completion_time() == Some(bound) {
                return Some(bound);
            }
            self.bounds.pop();
        }
        None
    }

    /// Opens one step at `t`: pops every node whose live certificate is due
    /// at or before `t` and advances it to its reach, which is at least
    /// `t`. Every other node is quiet through its reach — running its
    /// current task or idling — and decisions read it through its `*_at`
    /// projections there, which equal what the reference's `run_until`
    /// calls left.
    ///
    /// Invariant: a node left alone has a certificate beyond its reach. A
    /// step at `t` raises reaches to at most `t` (a node whose reach was
    /// already higher keeps it), so popping certificates up to `t` keeps
    /// the invariant. Each due node is advanced once: its post-advance
    /// certificate (pushed for *future* steps) is not re-examined, so the
    /// step terminates even in the degenerate corner where a certificate
    /// does not clear `t`.
    fn begin_step(&mut self, t: Cycles) {
        self.step += 1;
        while self.peaks.last().is_some_and(|&(_, at)| at <= t) {
            self.peaks.pop();
        }
        self.peaks.push((self.step, t));
        self.due_scratch.clear();
        while let Some(&Reverse((bound, i))) = self.heap.peek() {
            if bound > t {
                break;
            }
            self.heap.pop();
            if self.sessions[i].next_event_time() == Some(bound) && !self.due_mark[i] {
                if C::ENABLED {
                    self.trace
                        .borrow_mut()
                        .cluster_event(t, ClusterTraceEvent::HeapPop { node: i, bound });
                }
                self.due_mark[i] = true;
                self.due_scratch.push(i);
            } else if C::ENABLED {
                self.trace
                    .borrow_mut()
                    .cluster_event(t, ClusterTraceEvent::HeapStaleDrop { node: i, bound });
            }
        }
        for k in 0..self.due_scratch.len() {
            let i = self.due_scratch[k];
            self.due_mark[i] = false;
            self.materialize(i);
        }
    }

    /// Advances the cluster to `t`, replaying the reference's stepping
    /// instants: with stealing or migration, execution is stepped to every
    /// completion bound (and every in-flight migration delivery) on the way
    /// — the moments the task set can shrink or a deadline can slip —
    /// running steal and migration rounds at each; otherwise one step lands
    /// straight on `t`. Each step advances only the nodes whose certificates
    /// are due (see [`Self::begin_step`]).
    fn advance_to(
        &mut self,
        faults: Option<&FaultDriver<'_>>,
        migration: &mut Option<MigrationDriver<'_>>,
        t: Cycles,
        steals: &mut u64,
        assignments: &mut [NodeAssignment],
        assignment_index: &HashMap<TaskId, usize>,
    ) {
        let stepping = self.config.work_stealing || migration.is_some();
        let trace = Rc::clone(&self.trace);
        loop {
            let mut step = t;
            if stepping {
                if let Some(bound) = self.next_bound().filter(|&bound| bound < t) {
                    step = bound;
                }
                // Mirrors the reference: deliveries strictly before `t`
                // land mid-advance; one due exactly at `t` belongs to the
                // caller's event batch.
                if let Some(due) = migration
                    .as_ref()
                    .and_then(MigrationDriver::next_due)
                    .filter(|&due| due < step)
                {
                    step = due;
                }
            }
            self.begin_step(step);
            if self.config.work_stealing {
                *steals += self.steal_round(
                    faults.map(FaultDriver::topology),
                    assignments,
                    assignment_index,
                );
            }
            if let Some(migration) = migration.as_mut() {
                if step < t {
                    deliver_due_migrations(
                        migration,
                        faults,
                        self,
                        step,
                        assignments,
                        assignment_index,
                        &trace,
                    );
                }
                migration.round(self, step, &trace);
                self.flush_touched();
            }
            if step == t {
                return;
            }
        }
    }

    /// One block of work-stealing rounds, mirroring the reference's
    /// `steal_onto_idle_nodes`: while some node
    /// is idle and some peer holds stealable work, move the largest
    /// never-started task from the most-loaded peer to the first idle
    /// node (skipping victims the thief cannot currently reach over the
    /// fabric). All signals are O(1) engine aggregates instead of resident
    /// rescans, and none moves while a node is quiet (queue depth, stall
    /// status and stealable work change only at events, and a thief is
    /// drained, so its clock is frozen): they are read as-is, and only the
    /// victim and thief are advanced, right before the move.
    fn steal_round(
        &mut self,
        links: Option<&crate::interconnect::LinkTopology>,
        assignments: &mut [NodeAssignment],
        assignment_index: &HashMap<TaskId, usize>,
    ) -> u64 {
        let mut steals = 0u64;
        loop {
            // Mirrors the reference: a stalled node (crashed-and-drained or
            // frozen) cannot be a thief, but may still be a victim.
            let Some(thief) = self
                .sessions
                .iter()
                .position(|s| s.queue_depth() == 0 && s.stalled_until().is_none())
            else {
                return steals;
            };
            let now = self.sessions[thief].now();
            let mut victim: Option<(Cycles, usize)> = None;
            for (i, session) in self.sessions.iter().enumerate() {
                if session.queue_depth() < 2 {
                    continue;
                }
                if links.is_some_and(|links| !links.reachable(i, thief, now)) {
                    continue;
                }
                let stealable = session.revocable_work();
                if stealable.is_zero() {
                    continue;
                }
                if victim.is_none_or(|(most, _)| stealable > most) {
                    victim = Some((stealable, i));
                }
            }
            let Some((_, victim)) = victim else {
                return steals;
            };
            self.sync(victim);
            self.sync(thief);
            let stolen = self.sessions[victim]
                .best_steal_candidate()
                .expect("nonzero stealable work has a best task");
            let prepared = self.sessions[victim]
                .revoke(stolen.id)
                .expect("stolen task was revocable");
            self.sessions[thief]
                .inject(prepared)
                .expect("revoked task re-injects cleanly");
            self.reschedule(victim);
            self.reschedule(thief);
            if C::ENABLED {
                self.trace.borrow_mut().cluster_event(
                    self.sessions[thief].now(),
                    ClusterTraceEvent::Steal {
                        task: stolen.id,
                        from: victim,
                        to: thief,
                    },
                );
            }
            if let Some(&slot) = assignment_index.get(&stolen.id) {
                assignments[slot].node = thief;
            }
            steals += 1;
        }
    }

    /// The dispatch decision at `t`: identical to the reference's full
    /// scan — the node minimizing (penalty tier, signal, remaining, index).
    /// Under fault injection the tier is the failure-aware penalty (down /
    /// cooling-down / healthy, exactly the reference's), routed from
    /// `source`: `Some` for a recovery (the salvage travels from the
    /// crashed node), `None` for a fresh arrival, which enters through the
    /// front-end control plane that link faults never sever.
    ///
    /// Sourceless picks walk the contender index when the loop keeps one;
    /// every other pick is the exact scan.
    fn pick_node(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
    ) -> usize {
        let indexed = source.is_none() && self.index.is_some();
        let (chosen, keys) = if indexed {
            self.pick_node_indexed(t, task, faults)
        } else {
            self.pick_node_scan(t, task, faults, source)
        };
        // Debug cross-check: replay the exact scan over the post-query
        // state — the walk's advances are outcome-inert (pure suspension)
        // and the scan reads every node at its reach, so the two
        // procedures must name the same node.
        #[cfg(debug_assertions)]
        if indexed {
            let (check, _) = self.pick_node_scan(t, task, faults, source);
            debug_assert_eq!(
                chosen, check,
                "indexed dispatch diverged from the linear scan at {t:?}"
            );
        }
        if C::ENABLED {
            self.trace.borrow_mut().cluster_event(
                t,
                ClusterTraceEvent::DispatchDecision {
                    task: task.request.id,
                    chosen,
                    keys,
                },
            );
        }
        chosen
    }

    /// The exact dispatch score of node `i` for an arrival of `priority`,
    /// read at its horizon.
    fn score(&self, i: usize, priority: Priority) -> (u64, u64) {
        let session = &self.sessions[i];
        let at = self.horizon(i);
        let remaining = session.predicted_remaining_work_at(at).get();
        match self.config.dispatch {
            OnlineDispatchPolicy::ShortestQueue => (session.queue_depth() as u64, remaining),
            OnlineDispatchPolicy::LeastWork => (remaining, remaining),
            OnlineDispatchPolicy::Predictive => (
                session.predicted_blocking_work_at(priority, at).get(),
                remaining,
            ),
        }
    }

    /// The linear scan (the reference decision procedure): every node
    /// scored exactly at its horizon, in index order. Advances nothing.
    fn pick_node_scan(
        &self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
    ) -> (usize, NodeKeySet) {
        let priority = task.request.priority;
        let mut keys = NodeKeySet::default();
        let mut best = None;
        for i in 0..self.sessions.len() {
            let penalty = faults.map_or(0u8, |driver| driver.route_penalty(source, i, t));
            let exact = (penalty, self.score(i, priority));
            Self::fold(&mut best, &mut keys, i, exact);
        }
        (best.expect("at least one node").1, keys)
    }

    /// Folds node `node`'s exact key into a running argmin over (key, node
    /// index), recording it for the trace.
    fn fold(
        best: &mut Option<(PenaltyScore, usize)>,
        keys: &mut NodeKeySet,
        node: usize,
        exact: PenaltyScore,
    ) {
        if C::ENABLED {
            keys.push(NodeKey {
                node,
                penalty: exact.0,
                key: exact.1,
            });
        }
        if best.is_none_or(|best| (exact, node) < best) {
            *best = Some((exact, node));
        }
    }

    /// The indexed dispatch query: provably the same argmin as
    /// [`Self::pick_node_scan`], in O(contenders × log nodes). See
    /// [`crate::contender`] for the invariants; the shape here is
    ///
    /// 1. drain due penalty decays, re-keying the affected nodes;
    /// 2. drain the staleness heap, bringing up nodes whose stored keys
    ///    fell inside the saturation window (restores stored-order ==
    ///    lower-bound-order);
    /// 3. walk structure minima — each is the best remaining lower bound —
    ///    bringing up contenders and folding exact scores until the best
    ///    exact key (index tiebreak included) beats the minimum;
    /// 4. fold the stalled/degraded side set's exact scores.
    fn pick_node_indexed(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
    ) -> (usize, NodeKeySet) {
        if let Some(driver) = faults {
            while let Some(node) = self.index().next_due_promotion(t) {
                let (tier, expiry) = driver.penalty_with_expiry(node, t);
                self.index().set_penalty(node, tier, expiry);
            }
        }
        while let Some(node) = self.index().pop_stale(t) {
            self.materialize(node);
        }
        let priority = task.request.priority;
        let mut keys = NodeKeySet::default();
        let mut best = None;
        while let Some((penalty, lower, node)) = self.index().min_lower(priority, t) {
            if best.is_some_and(|best| ((penalty, lower), node) >= best) {
                break;
            }
            if self.fresh[node] != self.step {
                // A contender: bring it up (the refresh re-anchors its
                // stored key to an exact one, so a re-encounter at the
                // minimum ends the walk).
                self.materialize(node);
            }
            #[cfg(debug_assertions)]
            if let Some(driver) = faults {
                debug_assert_eq!(
                    penalty,
                    driver.penalty(node, t),
                    "stored penalty tier went stale at {t:?}"
                );
            }
            let exact = (penalty, self.score(node, priority));
            Self::fold(&mut best, &mut keys, node, exact);
        }
        self.index
            .as_ref()
            .expect("indexed dispatch requires the index")
            .copy_unindexed_into(&mut self.side_scratch);
        for &node in &self.side_scratch {
            let penalty = faults.map_or(0u8, |driver| driver.penalty(node, t));
            let exact = (penalty, self.score(node, priority));
            Self::fold(&mut best, &mut keys, node, exact);
        }
        (best.expect("at least one node").1, keys)
    }

    /// The event-heap half of the shared fault/migration timeline (see the
    /// reference's `drain_fault_events`): processes every due event through
    /// the *same* [`FaultDriver`] and [`MigrationDriver`]. A crash or
    /// freeze fails/stalls the faulted node at the fault instant; a
    /// degrade start/end rescales its clock; a due recovery runs the exact
    /// scan over penalty-tiered nodes and re-injects the salvage with its
    /// admission gated to the recovery instant; a due migration delivery
    /// lands at its destination, and each instant ends with a migration
    /// round.
    ///
    /// Every fault-event instant closes a step of `advance_to`, after which
    /// every node is advanced or quiet through its reach, and each mutation
    /// brings only its own node up first (`sync`). The batch's dispatch
    /// picks read exact scores without advancing anything. This is
    /// load-bearing for same-instant recovery batches: a node receiving
    /// several salvages at one instant admits them atomically at its next
    /// wakeup, like the reference, instead of dispatching a partial batch
    /// between two injections. Re-running `run_until(t)` on a node would
    /// not be a no-op after a mutation either (after a migration round
    /// evacuated a running task, the session would wake up and dispatch
    /// its next resident, a state transition the reference only performs
    /// at its next step).
    #[allow(clippy::too_many_arguments)]
    fn drain_fault_events(
        &mut self,
        faults: &mut Option<FaultDriver<'_>>,
        migration: &mut Option<MigrationDriver<'_>>,
        limit: Cycles,
        steals: &mut u64,
        assignments: &mut [NodeAssignment],
        assignment_index: &HashMap<TaskId, usize>,
    ) {
        loop {
            let fault_next = faults.as_ref().and_then(FaultDriver::next_event_time);
            let migration_next = migration.as_ref().and_then(MigrationDriver::next_due);
            let Some(t) = [fault_next, migration_next]
                .into_iter()
                .flatten()
                .min()
                .filter(|&t| t <= limit)
            else {
                return;
            };
            self.advance_to(
                faults.as_ref(),
                migration,
                t,
                steals,
                assignments,
                assignment_index,
            );
            if let Some(driver) = faults.as_mut() {
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
                            self.sync(fault.node);
                            match fault.kind {
                                FaultKind::Crash => {
                                    let salvaged = self.sessions[fault.node].fail();
                                    driver.on_salvaged(fault.node, t, salvaged, &self.trace);
                                    self.sessions[fault.node].stall(fault.end);
                                }
                                FaultKind::Freeze => self.sessions[fault.node].stall(fault.end),
                                FaultKind::Degrade {
                                    speed_num,
                                    speed_den,
                                } => {
                                    self.sessions[fault.node].set_clock_scale(speed_num, speed_den)
                                }
                            }
                            self.reschedule(fault.node);
                            // The fault window just opened moves the node's
                            // penalty tier: store the fresh (tier, decay
                            // instant) as the index's major key.
                            if let Some(index) = self.index.as_mut() {
                                let (tier, expiry) = driver.penalty_with_expiry(fault.node, t);
                                index.set_penalty(fault.node, tier, expiry);
                            }
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
                            self.sync(node);
                            self.sessions[node].set_clock_scale(1, 1);
                            self.reschedule(node);
                            if let Some(index) = self.index.as_mut() {
                                let (tier, expiry) = driver.penalty_with_expiry(node, t);
                                index.set_penalty(node, tier, expiry);
                            }
                        }
                        FaultEvent::Recovery(pending) => {
                            let node = self.pick_node(
                                t,
                                &pending.salvage.prepared,
                                Some(driver),
                                Some(pending.from_node),
                            );
                            // Mirrors the reference: the scan minimizes the
                            // penalty tier, so an unreachable winner means
                            // every node is partitioned away from the
                            // custodian — the attempt is spent instead of
                            // routed across the partition.
                            if driver.topology().reachable(pending.from_node, node, t) {
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
                                self.sync(node);
                                self.sessions[node]
                                    .inject_salvaged(salvage, t)
                                    .expect("salvaged task id is not live");
                                self.reschedule(node);
                                if let Some(&slot) = assignment_index.get(&id) {
                                    assignments[slot].node = node;
                                }
                            } else {
                                driver.on_unreachable(pending, t, &self.trace);
                            }
                        }
                        FaultEvent::LinkEdge(edge) => {
                            // Link windows mutate no session (and therefore
                            // no certificate): the topology answers state
                            // queries lazily. The edge synchronizes both
                            // loops at the instant routing changes.
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
            if let Some(migration) = migration.as_mut() {
                let trace = Rc::clone(&self.trace);
                deliver_due_migrations(
                    migration,
                    faults.as_ref(),
                    self,
                    t,
                    assignments,
                    assignment_index,
                    &trace,
                );
                migration.round(self, t, &trace);
                self.flush_touched();
            }
            sample_nodes(&self.sessions, t, &self.trace);
        }
    }

    /// SLA-aware admission, bit-identical to the reference's: predicts the
    /// cluster-wide p99 turnaround over all residents plus the newcomer,
    /// shedding the globally lowest-priority never-started task while the
    /// prediction exceeds the target. Every node is read at the arrival
    /// instant through its `*_at` projections (quiet nodes stay
    /// unadvanced), unchanged nodes reuse their cached prediction segments,
    /// the input vector reuses one scratch buffer, the p99 is one selection
    /// over it, and the shed scan is an O(1) peek per node.
    fn admit(
        &mut self,
        task: &PreparedTask,
        node: usize,
        admission: SlaAdmissionConfig,
        shed: &mut Vec<TaskRequest>,
    ) -> bool {
        let npu = &self.config.npu;
        let incoming_priority = task.request.priority;
        let incoming_estimate = task.estimated_cycles();
        let target_p99_ms = scaled_admission_target(&self.sessions, admission.target_p99_ms);
        loop {
            self.predicted_ms.clear();
            for i in 0..self.sessions.len() {
                let at = self.horizon(i);
                let session = &self.sessions[i];
                self.predictions[i].refresh(session, at, &mut self.residents_scratch);
                self.predictions[i].append_ms(session.now_at(at), npu, &mut self.predicted_ms);
            }
            let incoming_turnaround = self.sessions[node]
                .predicted_blocking_work_at(incoming_priority, self.horizon(node))
                + incoming_estimate;
            self.predicted_ms
                .push(npu.cycles_to_millis(incoming_turnaround));
            let p99 = percentile_in_place(&mut self.predicted_ms, 99.0)
                .expect("the newcomer is always present");
            if p99 <= target_p99_ms {
                return true;
            }

            let mut candidate: Option<(ShedKey, usize, TaskId)> = None;
            for (index, session) in self.sessions.iter().enumerate() {
                if let Some(resident) = session.best_shed_candidate() {
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
                    self.sync(victim_node);
                    let revoked = self.sessions[victim_node]
                        .revoke(victim_id)
                        .expect("resident was reported revocable");
                    self.reschedule(victim_node);
                    if C::ENABLED {
                        self.trace.borrow_mut().cluster_event(
                            self.sessions[victim_node].now(),
                            ClusterTraceEvent::Shed {
                                task: victim_id,
                                node: victim_node,
                            },
                        );
                    }
                    shed.push(revoked.request);
                }
                _ => {
                    if C::ENABLED {
                        self.trace.borrow_mut().cluster_event(
                            self.sessions[node].now_at(self.horizon(node)),
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

    /// Commits the newcomer to `node`, bringing the node up first.
    fn inject(&mut self, node: usize, task: PreparedTask) {
        self.sync(node);
        self.sessions[node]
            .inject(task)
            .expect("arrival ids are unique");
        self.reschedule(node);
    }
}

/// Shared decision machines (migration rounds, transfer deliveries) read
/// quiet nodes through their projections and advance a node only to mutate
/// it; the touched nodes' heap entries are refreshed by
/// [`EventHeapLoop::flush_touched`].
impl<C: ClusterTraceSink> Nodes<NodeTap<C>> for EventHeapLoop<'_, C> {
    fn sessions(&self) -> &[SimSession<NodeTap<C>>] {
        &self.sessions
    }

    fn horizon(&self, i: usize) -> Cycles {
        EventHeapLoop::horizon(self, i)
    }

    fn session_mut(&mut self, i: usize) -> &mut SimSession<NodeTap<C>> {
        self.sync(i);
        self.touched.push(i);
        &mut self.sessions[i]
    }

    /// Reads the node's cached prediction segment: at unit clock scale its
    /// completions are exactly the monitor's, and an overestimated
    /// turnaround only costs a walk. A scaled node is always walked.
    fn deadlines_quiet(&mut self, i: usize, deadline_offset: Cycles) -> bool {
        if self.sessions[i].clock_scale() != (1, 1) {
            return false;
        }
        let at = EventHeapLoop::horizon(self, i);
        let session = &self.sessions[i];
        let segment = &mut self.predictions[i];
        segment.refresh(session, at, &mut self.residents_scratch);
        segment.max_started_turnaround(session.now_at(at)) <= deadline_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::CNN_MODELS;
    use prema_core::{PolicyKind, PreemptionMechanism, PreemptionMode, SchedulerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The largest started turnaround as the migration deadline monitor's
    /// walk computes it at unit clock scale, from a fresh resident scan.
    fn walked_max_turnaround<S: TraceSink>(session: &SimSession<S>, at: Cycles) -> Cycles {
        let mut residents = Vec::new();
        session.resident_tasks_at_into(at, &mut residents);
        residents.sort_by_key(|r| (Reverse(r.priority), r.arrival, r.id));
        let now = session.now_at(at);
        let mut backlog = Cycles::ZERO;
        let mut max = Cycles::ZERO;
        for resident in &residents {
            backlog += resident.estimated_remaining();
            if resident.started {
                max = max.max((now + backlog) - resident.arrival);
            }
        }
        max
    }

    /// One segment, kept across a whole random session and queried at
    /// ascending instants inside each quiet interval the way the loop
    /// queries it, always reports the walk's largest started turnaround.
    /// Estimates from half to one and a half times the true length make
    /// runners overrun (their entries turn clock-relative mid-version), and
    /// the preemptive schedulers leave started residents ahead of the
    /// runner.
    #[test]
    fn segments_track_the_largest_started_turnaround_through_quiet_intervals() {
        let npu = NpuConfig::paper_default();
        let configs = [
            SchedulerConfig::paper_default(),
            SchedulerConfig::np_fcfs(),
            SchedulerConfig::named(
                PolicyKind::Hpf,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(0x5E67);
        let mut grown = 0usize;
        for case in 0..48 {
            let sim = NpuSimulator::new(npu.clone(), configs[case % configs.len()].clone());
            let mut session = sim.session(&[]);
            for id in 0..rng.gen_range(2u64..7) {
                let request =
                    TaskRequest::new(TaskId(id), CNN_MODELS[rng.gen_range(0..CNN_MODELS.len())])
                        .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                        .with_arrival(Cycles::new(rng.gen_range(0u64..4_000_000)));
                let exact = PreparedTask::prepare(request, &npu).isolated_cycles();
                let estimate = Cycles::new(exact.get() * rng.gen_range(5u64..16) / 10);
                session
                    .inject(PreparedTask::prepare(request.with_estimate(estimate), &npu))
                    .expect("ids are unique");
            }
            let mut segment = PredictionSegment::default();
            let mut scratch = Vec::new();
            // A preemptive session can take many wakeups to drain; a
            // bounded prefix of its events is enough here.
            for _ in 0..10_000 {
                let Some(event) = session.next_event_time() else {
                    break;
                };
                let mut at = session.now();
                while at < event {
                    segment.refresh(&session, at, &mut scratch);
                    let turnaround = segment.max_started_turnaround(session.now_at(at));
                    assert_eq!(
                        turnaround,
                        walked_max_turnaround(&session, at),
                        "case {case} at {at:?}"
                    );
                    grown +=
                        usize::from(at > segment.built && segment.started_turnaround.1.is_some());
                    at = Cycles::new(rng.gen_range(at.get() + 1..=event.get()));
                }
                let _ = session.run_until(event);
            }
        }
        assert!(
            grown > 100,
            "clock-relative turnarounds are read after their rebuild"
        );
    }
}
