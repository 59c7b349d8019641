//! The event-heap closed-loop cluster driver: lazy, O(events × log nodes)
//! co-simulation, bit-identical to the naive stepping loop.
//!
//! [`crate::online::OnlineClusterSimulator::run_reference`] — the loop PR 4
//! shipped — advances *every* node session at every global event and
//! rescans every node's residents for every dispatch, admission and
//! stealing decision: O(events × nodes) `run_until` calls plus
//! O(events × nodes × residents) scan work. This module reproduces its
//! decisions, and therefore its outcomes, exactly while doing asymptotically
//! less work. Two pillars:
//!
//! **Pure suspension.** `SimSession::run_until` composed over *any*
//! ascending horizon sequence yields a bit-identical `SimOutcome` (the PR 4
//! resume-equivalence property). So a node that no decision needs to
//! observe can simply be left paused in the past; only the *decisions* must
//! see exactly what the reference saw.
//!
//! **Completion certificates.** [`SimSession::completion_lower_bound`] is a
//! conservative bound: no resident of the node can complete strictly
//! before it, regardless of preemptive interleaving. While a node's
//! certificate exceeds the decision instant `t`:
//!
//! * its live queue depth is constant through `t` (depths change only at
//!   completions and at injections, which this driver performs itself);
//! * its predicted-work totals at `t` are at least `value_now - (t - now)`
//!   (only the running task progresses, at ≤ 1 cycle per cycle, and no
//!   completion can release an estimate-error remainder).
//!
//! The driver keeps the certificates in a binary min-heap with *lazy
//! invalidation* (every session mutation pushes the fresh bound; stale
//! entries are discarded at pop time). Per global event it advances only
//! the nodes whose certificates are due, then picks the dispatch target by
//! *branch and bound*: nodes whose lower-bounded score cannot strictly beat
//! the best exact score are skipped without being advanced; genuine
//! contenders are advanced and scored exactly, with ties breaking to the
//! lowest index exactly like the reference scan.
//!
//! At hundreds of nodes the scan itself becomes the wall — O(nodes) per
//! arrival even when every node is skipped. [`crate::contender`] therefore
//! keeps the *same* lower bounds in ordered structures (queue-depth buckets
//! for `jsq-live`, tournament trees keyed on predicted work for
//! `least-work-live` / `predictive-live`, fault-penalty tiers as the major
//! key), refreshed from the one `reschedule` funnel every lazy-mode
//! mutation already flows through. A dispatch then examines O(log nodes)
//! candidates off the structure minimum and provably picks the scan's
//! node; `debug_assertions` builds replay the linear scan after every
//! indexed pick and assert the argmin agrees.
//!
//! Work stealing, SLA admission and migration run *synchronized* instead:
//! their decisions must happen at the reference's own stepping instants
//! (with stealing or migration, every completion bound and in-flight
//! delivery between arrivals) and read every node's exact state there. The
//! reference gets that by advancing all nodes at every step; this loop
//! keys a second certificate, [`SimSession::next_event_time`] — the
//! earliest instant at which `run_until` would do more than move the clock
//! and the runner's cursor (a completion, an admission, a contended policy
//! wakeup, a stall end; a degraded node is always due) — and per step:
//!
//! * takes the step bound from a lazily invalidated heap of
//!   `next_completion_time`s, which do not move before the certificate;
//! * advances only the nodes whose certificates are due, plus any node
//!   about to be mutated (a steal's victim and thief, a shed victim, a
//!   faulted node, a recovery or landing target, a migration source);
//! * reads every other node through its `*_at` projections — the clock
//!   and the runner's linear progress extrapolated — for dispatch scores,
//!   admission's prediction segments, the migration deadline monitor and
//!   stay/move and redirect pricing. Queue depths, stall status and the
//!   steal/shed candidates do not move while a node is quiet.
//!
//! The reference's steps can revisit the past (a steal onto a parked
//! thief makes the next bound the thief's frozen clock), where nodes already
//! further ahead stay put; so a node this loop left alone is read, and
//! advanced when due, at its *reach* — the latest step instant since it was
//! last current — not at the step itself. The admission p99 over the
//! projected segments is one in-place selection, and each node's segment is
//! cached by `state_version` (per arrival only nodes whose state moved are
//! re-sorted; within one shed loop only the shedded node's segment is
//! rebuilt); the migration deadline monitor reads the same segments and
//! walks a node's residents only once one of its started residents has
//! slipped. Stealing, shedding and dispatch read
//! O(1) engine aggregates (`revocable_work`, `best_steal_candidate`,
//! `best_shed_candidate`, the predicted-work totals) rather than resident
//! rescans.

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

        let node = driver.pick_node(now, task, faults.as_ref());
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
    /// Whether decisions (work stealing, SLA admission, migration) read
    /// every node's exact state at the reference's own stepping instants,
    /// keyed on next-event certificates, rather than lazy completion
    /// certificates with branch-and-bound dispatch.
    synchronized: bool,
    sessions: Vec<SimSession<NodeTap<C>>>,
    /// The shared cluster trace sink (disabled sinks compile the emission
    /// sites away). Borrowed only *between* session calls: the sessions'
    /// node taps borrow the same cell from inside engine methods.
    trace: Rc<RefCell<C>>,
    /// Min-heap of (certificate, node) candidates: each node's
    /// `completion_lower_bound` in lazy mode, its `next_event_time` when
    /// synchronized. An entry is current iff the session still reports
    /// exactly that certificate; every session mutation pushes the fresh
    /// one, stale entries are dropped at pop time.
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// Min-heap of (`next_completion_time`, node), synchronized mode only:
    /// the reference's stepping bound, lazily invalidated like `heap`. A
    /// quiet node's completion time does not move before its certificate,
    /// so its entry stays current while it lags.
    bounds: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// The current synchronized step's number (zero throughout lazy mode).
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
    /// The ordered contender structures the per-arrival dispatch walks
    /// instead of scanning every node — lazy mode only (`None` when
    /// synchronized: with zero lag the exact linear scan is the decision
    /// procedure, and fault sync points must never materialize). Refreshed
    /// from [`Self::reschedule`], the single funnel every lazy-mode session
    /// mutation already flows through.
    index: Option<ContenderIndex>,
    /// Scratch for one `materialize_due` round (deduplicated due nodes,
    /// marked in `due_mark`).
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
        let synchronized =
            config.work_stealing || config.admission.is_some() || config.migration.is_some();
        let mut index = (!synchronized).then(|| ContenderIndex::new(config.dispatch, nodes));
        if let Some(index) = index.as_mut() {
            for (i, session) in sessions.iter().enumerate() {
                index.refresh(i, &session.dispatch_signals());
            }
        }
        EventHeapLoop {
            config,
            synchronized,
            sessions,
            trace,
            heap: BinaryHeap::with_capacity(nodes * 2),
            bounds: BinaryHeap::with_capacity(if synchronized { nodes * 2 } else { 0 }),
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

    /// Node `i`'s certificate in this loop's mode (see `heap`).
    fn certificate(&self, i: usize) -> Option<Cycles> {
        if self.synchronized {
            self.sessions[i].next_event_time()
        } else {
            self.sessions[i].completion_lower_bound()
        }
    }

    /// Pushes node `i`'s current certificate (and, synchronized, its
    /// completion time; lazy, its contender-index keys). The heaps always
    /// hold each node's live entries plus stale leftovers that pop-time
    /// validation discards.
    fn reschedule(&mut self, i: usize) {
        if self.synchronized {
            if let Some(bound) = self.sessions[i].next_completion_time() {
                self.bounds.push(Reverse((bound, i)));
            }
        } else {
            self.refresh_index(i);
        }
        if let Some(bound) = self.certificate(i) {
            self.heap.push(Reverse((bound, i)));
            if C::ENABLED {
                // Synchronized pushes happen inside a step, so they are
                // stamped with its instant (the newest peak), keeping the
                // cluster stream in step order. Lazy mode opens no steps.
                let stamp = self.peaks.last().map_or(bound, |&(_, at)| at);
                self.trace
                    .borrow_mut()
                    .cluster_event(stamp, ClusterTraceEvent::HeapPush { node: i, bound });
            }
        }
    }

    /// Re-keys node `i` in the contender index from a fresh signal read
    /// (lazy mode; no-op otherwise). Sits inside [`Self::reschedule`], so
    /// the index tracks every session mutation the certificate heap does:
    /// materializations, injections, salvage re-entries, fault edges.
    fn refresh_index(&mut self, i: usize) {
        let Some(index) = self.index.as_mut() else {
            return;
        };
        let signals = self.sessions[i].dispatch_signals();
        let (penalty, key, indexed) = index.refresh(i, &signals);
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

    /// Advances node `i` to `horizon` and refreshes its heap entries.
    fn materialize(&mut self, i: usize, horizon: Cycles) {
        let _ = self.sessions[i].run_until(horizon);
        self.fresh[i] = self.step;
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

    /// The instant node `i`'s decisions read it at (synchronized mode): its
    /// reach — through which it is quiet, so its `*_at` projections there
    /// are exactly what the reference's advanced node reports — or, if the
    /// node is current, its own clock, where the projections are the
    /// identity.
    fn horizon(&self, i: usize) -> Cycles {
        self.reach(i).unwrap_or_else(|| self.sessions[i].now())
    }

    /// Brings node `i` to its reach before a mutation and marks it
    /// current. A node already current this step is left alone: a second
    /// `run_until` after a mutation is not inert — it would admit and
    /// dispatch work the reference leaves pending until its next step.
    /// Lazy mode opens no steps, so there this only marks the node: its
    /// callers have materialized it already.
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

    /// The earliest `next_completion_time` over all nodes (synchronized
    /// mode): the reference's stepping bound, from the lazily invalidated
    /// `bounds` heap.
    fn next_bound(&mut self) -> Option<Cycles> {
        while let Some(&Reverse((bound, i))) = self.bounds.peek() {
            if self.sessions[i].next_completion_time() == Some(bound) {
                return Some(bound);
            }
            self.bounds.pop();
        }
        None
    }

    /// Opens one synchronized step at `t`: advances exactly the nodes whose
    /// next-event certificate is due, each to its reach. Every other node
    /// is quiet through its reach — running its current task or idling —
    /// and decisions read it through its `*_at` projections there, which
    /// equal what the reference's `run_until` calls left.
    ///
    /// Invariant: a node left alone has a certificate beyond its reach. A
    /// step at `t` raises reaches to at most `t` (a node whose reach was
    /// already higher keeps it), so popping certificates up to `t` keeps
    /// the invariant.
    fn begin_step(&mut self, t: Cycles) {
        self.step += 1;
        while self.peaks.last().is_some_and(|&(_, at)| at <= t) {
            self.peaks.pop();
        }
        self.peaks.push((self.step, t));
        self.materialize_due(t);
    }

    /// Pops every node whose live certificate is due at or before `t` and
    /// advances it to `t` (synchronized: to its reach, which is at least
    /// `t`). Each due node is materialized once:
    /// its post-advance certificate (pushed for *future* rounds) is not
    /// re-examined, so the loop terminates even in the degenerate corner
    /// where a certificate does not clear `t`.
    fn materialize_due(&mut self, t: Cycles) {
        self.due_scratch.clear();
        while let Some(&Reverse((bound, i))) = self.heap.peek() {
            if bound > t {
                break;
            }
            self.heap.pop();
            if self.certificate(i) == Some(bound) && !self.due_mark[i] {
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
            let horizon = if self.synchronized {
                self.reach(i)
                    .expect("a due node has stepped since it was current")
            } else {
                t
            };
            self.materialize(i, horizon);
        }
    }

    /// Advances the cluster to `t`.
    ///
    /// Lazy mode advances only nodes whose completion certificates are due.
    /// Synchronized mode replays the reference's stepping instants: with
    /// stealing or migration, execution is stepped to every completion
    /// bound (and every in-flight migration delivery) on the way — the
    /// moments the task set can shrink or a deadline can slip — running
    /// steal and migration rounds at each; with admission only, one step
    /// lands straight on `t`. Each step advances only the nodes whose
    /// next-event certificates are due (see [`Self::begin_step`]).
    fn advance_to(
        &mut self,
        faults: Option<&FaultDriver<'_>>,
        migration: &mut Option<MigrationDriver<'_>>,
        t: Cycles,
        steals: &mut u64,
        assignments: &mut [NodeAssignment],
        assignment_index: &HashMap<TaskId, usize>,
    ) {
        if !self.synchronized {
            self.materialize_due(t);
            return;
        }
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
    /// `steal_onto_idle_nodes` over synchronized sessions: while some node
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

    /// The dispatch decision at arrival time `t`: identical to the
    /// reference's full scan — the node minimizing (signal, remaining,
    /// index). In lazy mode only *contenders* are advanced: for a node
    /// whose completion certificate clears `t`, the work-based signals at
    /// `t` are lower-bounded by `value_now - (t - now)` and its queue
    /// depth is exact, so a node whose lower bound cannot strictly beat
    /// the best exact score cannot win the (score, index) minimum and is
    /// skipped unadvanced. In synchronized mode every score is read exactly,
    /// through the quiet nodes' `*_at(t)` projections, and this degenerates
    /// to the exact scan.
    ///
    /// Under fault injection the key gains the failure-aware penalty tier
    /// in front (down / cooling-down / healthy, exactly the reference's).
    /// The tier is *exact* regardless of lag — it reads the fault driver,
    /// not session state — so prefixing it preserves the branch-and-bound
    /// invariant: the lower-bounded key is still lexicographically ≤ the
    /// exact key, and the skip rule stays sound.
    fn pick_node(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
    ) -> usize {
        // Fresh arrivals have no source node: they enter through the
        // front-end control plane, which link faults never sever.
        //
        // In synchronized mode the arrival pick must never materialize,
        // like the fault drain's picks: a parked idle node can hold a
        // *pending* injected task (a steal or salvage landed after its
        // clock stopped), and materializing it here would dispatch that
        // task before the reference does — the advance loop's next bound
        // would then skip the pending-arrival instant the reference still
        // steps (and prices a migration round) at.
        self.pick_node_inner(t, task, faults, None, self.synchronized)
    }

    /// [`Self::pick_node`] for the fault drain's synchronization points,
    /// where every node has been advanced to `t` (lazy mode) or is quiet
    /// through it (synchronized mode). Scores are read exactly, and
    /// crucially no session is ever materialized: running a target engine
    /// between two same-instant salvage injections would admit a partial
    /// batch and diverge from the reference.
    fn pick_node_synchronized(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
    ) -> usize {
        self.pick_node_inner(t, task, faults, source, true)
    }

    fn pick_node_inner(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
        synchronized: bool,
    ) -> usize {
        let use_index = !synchronized && self.index.is_some();
        let (chosen, keys) = if use_index {
            // The contender index keys penalties without a source (lazy
            // modes only serve sourceless fresh arrivals).
            debug_assert!(source.is_none(), "indexed dispatch is sourceless");
            self.pick_node_indexed(t, task, faults)
        } else {
            self.pick_node_scan(t, task, faults, source, synchronized)
        };
        // Debug cross-check: replay the linear branch-and-bound scan over
        // the post-query state — extra materializations are outcome-inert
        // (pure suspension) and the scan's argmin is state-independent, so
        // the two procedures must name the same node.
        #[cfg(debug_assertions)]
        {
            if use_index {
                let (check, _) = self.pick_node_scan(t, task, faults, source, synchronized);
                debug_assert_eq!(
                    chosen, check,
                    "indexed dispatch diverged from the linear scan at {t:?}"
                );
            }
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

    /// The dispatch score of node `i` for an arrival of `priority` at `t`:
    /// with `lag > 0`, the signals as-is less `lag` wall cycles of
    /// conservative decay (a lower bound); with `lag == 0`, the exact score
    /// (synchronized mode reads it at the node's horizon).
    fn lag_score(&self, i: usize, priority: Priority, t: Cycles, lag: u64) -> (u64, u64) {
        let session = &self.sessions[i];
        let (remaining, blocking) = if lag == 0 {
            let at = if self.synchronized {
                self.horizon(i)
            } else {
                t
            };
            (
                session.predicted_remaining_work_at(at),
                session.predicted_blocking_work_at(priority, at),
            )
        } else {
            (
                session.predicted_remaining_work(),
                session.predicted_blocking_work(priority),
            )
        };
        let remaining = remaining.get().saturating_sub(lag);
        match self.config.dispatch {
            OnlineDispatchPolicy::ShortestQueue => (session.queue_depth() as u64, remaining),
            OnlineDispatchPolicy::LeastWork => (remaining, remaining),
            OnlineDispatchPolicy::Predictive => (blocking.get().saturating_sub(lag), remaining),
        }
    }

    /// The linear branch-and-bound scan (the reference decision procedure):
    /// every node visited in index order, lagging nodes compared by lower
    /// bound and materialized only when they might win.
    fn pick_node_scan(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
        source: Option<usize>,
        synchronized: bool,
    ) -> (usize, NodeKeySet) {
        let priority = task.request.priority;
        type PenaltyScore = (u8, (u64, u64));
        let mut keys = NodeKeySet::default();
        let mut best: Option<(PenaltyScore, usize)> = None;
        for i in 0..self.sessions.len() {
            let penalty = faults.map_or(0u8, |driver| driver.route_penalty(source, i, t));
            let lag = if synchronized {
                0
            } else {
                (t - self.sessions[i].now()).get()
            };
            let lower = (penalty, self.lag_score(i, priority, t, lag));
            if best.is_some_and(|(exact, _)| lower >= exact) {
                if C::ENABLED {
                    // Skipped unmaterialized: the trace records the lower
                    // bound the branch-and-bound rule actually compared.
                    keys.push(NodeKey {
                        node: i,
                        penalty,
                        key: lower.1,
                        lower_bounded: lag > 0,
                    });
                }
                continue;
            }
            if lag > 0 {
                self.materialize(i, t);
            }
            let exact = (penalty, self.lag_score(i, priority, t, 0));
            if C::ENABLED {
                keys.push(NodeKey {
                    node: i,
                    penalty,
                    key: exact.1,
                    lower_bounded: false,
                });
            }
            if best.is_none_or(|(score, _)| exact < score) {
                best = Some((exact, i));
            }
        }
        (best.expect("at least one node").1, keys)
    }

    /// The indexed dispatch query: provably the same argmin as
    /// [`Self::pick_node_scan`], in O(contenders × log nodes). See
    /// [`crate::contender`] for the invariants; the shape here is
    ///
    /// 1. drain due penalty decays, re-keying the affected nodes;
    /// 2. drain the staleness heap, materializing nodes whose stored keys
    ///    fell inside the saturation window (restores stored-order ==
    ///    lower-bound-order);
    /// 3. walk structure minima — each is the best remaining lower bound —
    ///    materializing and folding exact scores until the best exact key
    ///    (index tiebreak included) beats the minimum;
    /// 4. linearly fold the stalled/degraded side set with the scan's own
    ///    lag lower bounds.
    ///
    /// Unlike the scan — whose ascending visit order lets it compare bare
    /// scores — every comparison here carries the node index, because the
    /// walk examines nodes in key order.
    fn pick_node_indexed(
        &mut self,
        t: Cycles,
        task: &PreparedTask,
        faults: Option<&FaultDriver<'_>>,
    ) -> (usize, NodeKeySet) {
        if let Some(driver) = faults {
            while let Some(node) = self
                .index
                .as_mut()
                .expect("indexed pick requires the index")
                .next_due_promotion(t)
            {
                let (tier, expiry) = driver.penalty_with_expiry(node, t);
                self.index
                    .as_mut()
                    .expect("indexed pick requires the index")
                    .set_penalty(node, tier, expiry);
            }
        }
        while let Some(node) = self
            .index
            .as_mut()
            .expect("indexed pick requires the index")
            .pop_stale(t)
        {
            self.materialize(node, t);
        }
        let priority = task.request.priority;
        type PenaltyScore = (u8, (u64, u64));
        let mut keys = NodeKeySet::default();
        let mut best: Option<(PenaltyScore, usize)> = None;
        while let Some((penalty, lower_score, node)) = self
            .index
            .as_ref()
            .expect("indexed pick requires the index")
            .min_lower(priority, t)
        {
            let lower = (penalty, lower_score);
            if let Some((best_key, best_node)) = best {
                if (lower, node) >= (best_key, best_node) {
                    break;
                }
            }
            if self.sessions[node].now() < t {
                // A contender: materialize (the refresh re-anchors its
                // stored key to an exact one, so a re-encounter at the
                // minimum terminates the walk).
                self.materialize(node, t);
            }
            #[cfg(debug_assertions)]
            if let Some(driver) = faults {
                debug_assert_eq!(
                    penalty,
                    driver.penalty(node, t),
                    "stored penalty tier went stale at {t:?}"
                );
            }
            let exact = (penalty, self.lag_score(node, priority, t, 0));
            if C::ENABLED {
                keys.push(NodeKey {
                    node,
                    penalty,
                    key: exact.1,
                    lower_bounded: false,
                });
            }
            if best.is_none_or(|(best_key, best_node)| (exact, node) < (best_key, best_node)) {
                best = Some((exact, node));
            }
        }
        self.index
            .as_ref()
            .expect("indexed pick requires the index")
            .copy_unindexed_into(&mut self.side_scratch);
        for k in 0..self.side_scratch.len() {
            let node = self.side_scratch[k];
            let penalty = faults.map_or(0u8, |driver| driver.penalty(node, t));
            let lag = (t - self.sessions[node].now()).get();
            let lower = (penalty, self.lag_score(node, priority, t, lag));
            if best.is_some_and(|(best_key, best_node)| (lower, node) >= (best_key, best_node)) {
                if C::ENABLED {
                    keys.push(NodeKey {
                        node,
                        penalty,
                        key: lower.1,
                        lower_bounded: lag > 0,
                    });
                }
                continue;
            }
            if lag > 0 {
                self.materialize(node, t);
            }
            let exact = (penalty, self.lag_score(node, priority, t, 0));
            if C::ENABLED {
                keys.push(NodeKey {
                    node,
                    penalty,
                    key: exact.1,
                    lower_bounded: false,
                });
            }
            if best.is_none_or(|(best_key, best_node)| (exact, node) < (best_key, best_node)) {
                best = Some((exact, node));
            }
        }
        (best.expect("at least one node").1, keys)
    }

    /// The event-heap half of the shared fault/migration timeline (see the
    /// reference's `drain_fault_events`): processes every due event through
    /// the *same* [`FaultDriver`] and [`MigrationDriver`]. A crash or
    /// freeze fails/stalls the faulted node at the fault instant; a
    /// degrade start/end rescales its clock; a due recovery runs the
    /// branch-and-bound dispatch over penalty-tiered nodes and re-injects
    /// the salvage with its admission gated to the recovery instant; a due
    /// migration delivery lands at its destination, and each instant ends
    /// with a migration round over the synchronized cluster.
    ///
    /// Every fault-event instant is a *global* synchronization point. Lazy
    /// mode materializes all sessions to `t` before the batch due there is
    /// processed, exactly as the reference's advance-all stepping does
    /// (pure suspension makes each node's state at `t` bit-identical
    /// either way); synchronized mode closes a step at `t`, after which
    /// every node is advanced or quiet through its reach, and each mutation
    /// brings only its own node up first. Either way the batch's dispatch
    /// picks read exact scores without materializing anything. This is
    /// load-bearing for same-instant recovery batches: a node receiving
    /// several salvages at one instant admits them atomically at its next
    /// wakeup, like the reference, instead of dispatching a partial batch
    /// between two injections.
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
            if !self.synchronized {
                // Lazy mode: nodes may still lag `t`; pull them all up before
                // the batch. Synchronized mode's `advance_to` already closed
                // with a step at `t`, after which every node is advanced or
                // quiet through its reach, and each mutation below brings its
                // node up first (`sync`) — re-running `run_until(t)` on every
                // node would NOT be a no-op after a migration round evacuated
                // a running task (the session would wake up and dispatch its
                // next resident, a state transition the reference loop only
                // performs on its next advance).
                for i in 0..self.sessions.len() {
                    self.materialize(i, t);
                }
            }
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
                            let node = self.pick_node_synchronized(
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

    /// Commits the newcomer to `node` (which lazy mode's `pick_node`
    /// materialized; synchronized mode brings it up here).
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
