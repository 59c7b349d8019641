//! The event-heap node strategy: O(events × log nodes) co-simulation,
//! bit-identical to the stepping reference.
//!
//! Both closed-loop drivers run the one timeline in [`crate::online`]:
//! arrivals, fault and transfer-delivery instants, and the steps between
//! them. A node strategy ([`crate::online::Nodes`]) owns only which nodes a
//! step advances and how each decision reads them. The reference strategy
//! advances *every* node session at every step and rescans every node's
//! residents for every dispatch, admission and stealing decision:
//! O(steps × nodes) `run_until` calls plus O(steps × nodes × residents)
//! scan work. This strategy makes exactly the reference's decisions at
//! the same steps, and therefore reproduces its outcomes, while doing
//! asymptotically less work. Two pillars:
//!
//! **Pure suspension.** `SimSession::run_until` composed over *any*
//! ascending horizon sequence yields a bit-identical `SimOutcome` (the
//! resume-equivalence property). So a node that no decision needs to
//! observe can simply be left paused in the past; only the *decisions*
//! must see exactly what the reference saw.
//!
//! **One certificate per node.** [`SimSession::next_event_time`] is the
//! earliest instant at which `run_until` would do more than move the
//! clock, the runner's cursor, the waiting tasks' tokens and the
//! invocation count: a completion, an admission, a quantum wakeup the
//! policy's choice certificate does not rule out, a stall end. It is exact
//! on a degraded node too, and the session stores it, so a read is a field
//! load. Before it, the node's `*_at` projections — the clock and the
//! runner's progress extrapolated, through the clock's fractional carry on
//! a degraded node — read exactly what an advanced node would report;
//! queue depths, stall status and the steal/shed candidates do not move
//! while a node is quiet, and no cluster read sees tokens or invocation
//! counts. The loop keeps the certificates in a binary min-heap with
//! *lazy invalidation* (every session mutation pushes the fresh one; stale
//! entries are discarded at pop time).
//!
//! **Steps.** The timeline opens a step at each arrival and each
//! fault-timeline instant. With stealing or migration it also steps, as
//! the reference does, to every completion bound and in-flight delivery in
//! between; this strategy takes each bound from a lazily invalidated heap
//! of `next_completion_time`s (which do not move before the certificate).
//! Per step it advances only the nodes whose certificates are due, plus
//! any node about to be mutated (an arrival's target, a steal's victim and
//! thief, a shed victim, a faulted node, a recovery or landing target, a
//! migration source), and reads every other node through its `*_at`
//! projections: dispatch scores, admission's prediction segments, the
//! migration deadline monitor and stay/move and redirect pricing. Each
//! batch of mutations ends at `settle`, which re-keys the touched nodes
//! and re-arms the nodes the last migration round walked.
//!
//! The timeline's steps can revisit the past (a steal onto a parked thief
//! makes the next bound the thief's frozen clock), where nodes already
//! further ahead stay put; so a node this strategy left alone is read, and
//! advanced when due, at its *reach* — the latest step instant since it was
//! last current — not at the step itself.
//!
//! **Dispatch.** Every pick is the reference's argmin over (penalty tier,
//! score, node index). The exact linear scan reads each node at its reach
//! and never advances one; it serves recovery picks, which route from a
//! source node. When the timeline never steps between arrivals (no
//! stealing, no migration), sourceless arrivals walk [`crate::contender`]
//! instead: tournament trees keyed on queue depth for `jsq-live` and on
//! predicted work for `least-work-live` / `predictive-live`, fault-penalty
//! tiers as the major key (re-tiered at every fault window edge), refreshed
//! from the one `reschedule` funnel every session mutation flows through.
//! `predictive-live` splits each arrival priority into a draining and a
//! frozen tree, so blocking work the runner does not drain is keyed exact
//! rather than lower-bounded. A walk examines O(log nodes) candidates off
//! the structure minima and provably picks the scan's node;
//! `debug_assertions` builds replay the scan after every indexed pick and
//! assert the argmin agrees. The walk
//! brings each contender up with the same `sync` a mutation uses: without
//! stepping, every node holding work at an arrival pick is either current
//! at the step or quiet through it, so that advance is one the reference
//! made too.
//!
//! The admission p99 over the projected segments is one in-place
//! selection, and each node's segment is cached by `state_version` (per
//! arrival only nodes whose state moved are re-sorted; within one shed loop
//! only the shedded node's segment is rebuilt). Stealing, shedding and
//! dispatch read O(1) engine aggregates (`revocable_work`,
//! `best_steal_candidate`, `best_shed_candidate`, the predicted-work
//! totals) rather than resident rescans.
//!
//! **Migration.** The migration deadline monitor reads the same segments.
//! Each keeps its node's largest started turnaround as a constant part and
//! a part that grows one for one with the clock, so the first clock at
//! which a deadline can slip has a closed form
//! (`PredictionSegment::slip_due`). With migration on, the loop keeps each
//! node's slip instant in a lazily invalidated min-heap, armed from the
//! same `reschedule` funnel, and a migration round walks only the nodes
//! due by its step instant, plus the nodes mutated since the last
//! `settle` (the landings just injected). A degraded node is always due;
//! a stalled one is skipped by every round and not armed. The reference
//! walks every node, and debug builds check that every node a round
//! leaves out has no deadline candidate.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use npu_sim::{Cycles, NpuConfig};
use prema_core::{
    PreparedTask, Priority, ResidentTask, SimSession, TaskId, TaskRequest, TraceSink,
};
use prema_metrics::percentile_in_place;

use crate::contender::ContenderIndex;
use crate::faults::FaultDriver;
use crate::interconnect::LinkTopology;
use crate::online::{
    scaled_admission_target, Books, Nodes, OnlineClusterConfig, OnlineDispatchPolicy, ShedKey,
    SlaAdmissionConfig,
};
use crate::trace::{ClusterTraceEvent, ClusterTraceSink, NodeKey, NodeKeySet, NodeTap};

/// A dispatch key: (penalty tier, (signal, remaining work)).
type PenaltyScore = (u8, (u64, u64));

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
/// can slip only once it passes the SLA offset, and
/// [`PredictionSegment::slip_due`] says when that can first happen.
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

    /// The first session clock at which the migration deadline monitor
    /// can find a started resident whose predicted turnaround is past
    /// `offset`, read from this segment: zero when the fixed part, or the
    /// moving part at the rebuild, is already past it; otherwise the clock
    /// at which the moving part (growing one for one with the clock)
    /// passes it, capped at the first clock past `valid_until`, where the
    /// segment must rebuild. `None` when neither instant exists.
    fn slip_due(&self, offset: Cycles) -> Option<Cycles> {
        let (fixed, moving) = self.started_turnaround;
        if fixed > offset || moving.is_some_and(|moving| moving > offset) {
            return Some(Cycles::ZERO);
        }
        let one = Cycles::new(1);
        let slip = moving.map(|moving| self.built + (offset - moving) + one);
        let rebuild = (self.valid_until != Cycles::MAX).then(|| self.valid_until + one);
        slip.into_iter().chain(rebuild).min()
    }

    /// Appends the segment's predicted turnarounds (milliseconds) at the
    /// session clock `now`.
    fn append_ms(&self, now: Cycles, npu: &NpuConfig, out: &mut Vec<f64>) {
        for &(base, arrival, add_now) in &self.entries {
            let completion = if add_now { now + base } else { base };
            out.push(npu.cycles_to_millis(completion - arrival));
        }
    }
}

/// The migration deadline monitor's schedule: each node's earliest
/// deadline-slip instant ([`PredictionSegment::slip_due`]) in a lazily
/// invalidated min-heap, so a round walks only the nodes that are due.
#[derive(Debug)]
struct SlipHeap {
    /// Each task's deadline is its arrival plus this.
    offset: Cycles,
    /// Min-heap of (slip instant, node). An entry is live iff `live` still
    /// holds it; stale entries are dropped at pop time.
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// Each node's live slip instant: `None` while unarmed (stalled,
    /// retired, nothing can slip, or popped and awaiting its re-arm at
    /// `settle`).
    live: Vec<Option<Cycles>>,
    /// Nodes that spent their evacuation budget ([`Nodes::retire_source`]):
    /// rounds skip them for the rest of the run, so they stay unarmed.
    retired: Vec<bool>,
}

impl SlipHeap {
    /// Makes `due` node `i`'s live entry, pushing it unless it is live
    /// already.
    fn arm(&mut self, i: usize, due: Option<Cycles>) {
        if self.live[i] == due {
            return;
        }
        self.live[i] = due;
        if let Some(due) = due {
            self.heap.push(Reverse((due, i)));
        }
    }
}

/// The event-heap strategy's state: sessions, the lazily invalidated
/// certificate heap, and the reused admission scratch buffers.
#[derive(Debug)]
pub(crate) struct EventHeapLoop<'a, C: ClusterTraceSink> {
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
    /// Min-heap of (`next_completion_time`, node), kept only when the
    /// timeline steps between arrivals (no contender index): the stepping
    /// bound, lazily invalidated like `heap`. A quiet node's
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
    /// [`Nodes::settle`].
    touched: Vec<usize>,
    /// The ordered contender structures sourceless arrivals walk instead
    /// of scanning every node, built only when the timeline never steps
    /// between arrivals (no stealing, no migration). Refreshed from
    /// [`Self::reschedule`], the single funnel every session mutation
    /// flows through.
    index: Option<ContenderIndex>,
    /// With migration on, the deadline-slip schedule migration rounds
    /// take their sources from. Armed from [`Self::reschedule`] too.
    slips: Option<SlipHeap>,
    /// Nodes popped off `slips` since the last [`Nodes::settle`], which
    /// re-arms them.
    unarmed: Vec<usize>,
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
    pub(crate) fn new(
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
            slips: config.migration.as_ref().map(|migration| SlipHeap {
                offset: migration.deadline_offset(&config.npu),
                heap: BinaryHeap::with_capacity(nodes * 2),
                live: vec![None; nodes],
                retired: vec![false; nodes],
            }),
            unarmed: Vec::new(),
            due_scratch: Vec::with_capacity(nodes),
            due_mark: vec![false; nodes],
            side_scratch: Vec::new(),
            predictions: vec![PredictionSegment::default(); nodes],
            predicted_ms: Vec::new(),
            residents_scratch: Vec::new(),
        }
    }

    /// Pushes node `i`'s current certificate, plus its contender-index keys
    /// (without stepping) or its completion time (with it), and re-arms its
    /// deadline-slip entry (with migration). The heaps always hold each
    /// node's live entries plus stale leftovers that pop-time validation
    /// discards.
    fn reschedule(&mut self, i: usize) {
        if self.index.is_some() {
            self.refresh_index(i);
        } else if let Some(bound) = self.sessions[i].next_completion_time() {
            self.bounds.push(Reverse((bound, i)));
        }
        if self.slips.is_some() {
            self.arm(i);
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

    /// Arms node `i`'s deadline-slip entry from its prediction segment,
    /// read at its horizon. A stalled node is not armed: rounds skip it,
    /// and its stall status changes only through a call that reschedules
    /// it. Nor is a retired one: rounds skip it for good. A degraded
    /// (clock-scaled) node is always due. A slip instant at or before the
    /// read clock arms at zero, so the node stays due at every step until
    /// it is re-armed, including steps that revisit the past.
    fn arm(&mut self, i: usize) {
        let at = self.horizon(i);
        let slips = self.slips.as_mut().expect("arming needs migration");
        let session = &self.sessions[i];
        let due = if slips.retired[i] || session.stalled_until().is_some() {
            None
        } else if session.clock_scale() != (1, 1) {
            Some(Cycles::ZERO)
        } else {
            let segment = &mut self.predictions[i];
            segment.refresh(session, at, &mut self.residents_scratch);
            let read = session.now_at(at);
            segment
                .slip_due(slips.offset)
                .map(|due| if due > read { due } else { Cycles::ZERO })
        };
        slips.arm(i, due);
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
}

/// The event-heap strategy. Shared decision machines (migration rounds,
/// transfer deliveries) and the timeline's own mutations read quiet nodes
/// through their projections and advance a node only to mutate it; the
/// touched nodes' heap entries are refreshed at [`Nodes::settle`].
impl<C: ClusterTraceSink> Nodes<NodeTap<C>> for EventHeapLoop<'_, C> {
    fn sessions(&self) -> &[SimSession<NodeTap<C>>] {
        &self.sessions
    }

    /// Node `i`'s reach — through which it is quiet, so its `*_at`
    /// projections there are exactly what the reference's advanced node
    /// reports — or, if the node is current, its own clock, where the
    /// projections are the identity.
    fn horizon(&self, i: usize) -> Cycles {
        self.reach(i).unwrap_or_else(|| self.sessions[i].now())
    }

    fn session_mut(&mut self, i: usize) -> &mut SimSession<NodeTap<C>> {
        self.sync(i);
        self.touched.push(i);
        &mut self.sessions[i]
    }

    /// Refreshes the heap and index entries of every touched node, then
    /// re-arms every node the last migration round walked that no
    /// reschedule re-armed. Re-arming pushes no certificate entry.
    fn settle(&mut self) {
        while let Some(i) = self.touched.pop() {
            self.reschedule(i);
        }
        while let Some(i) = self.unarmed.pop() {
            if self
                .slips
                .as_ref()
                .is_some_and(|slips| slips.live[i].is_none())
            {
                self.arm(i);
            }
        }
    }

    /// Stores the node's fresh (tier, decay instant) as the contender
    /// index's major key.
    fn retier(&mut self, node: usize, faults: &FaultDriver<'_>, t: Cycles) {
        if let Some(index) = self.index.as_mut() {
            let (tier, expiry) = faults.penalty_with_expiry(node, t);
            index.set_penalty(node, tier, expiry);
        }
    }

    /// Pops every live slip entry due at or before `t`, adds the nodes
    /// touched since the last settle (their entries are stale: the
    /// landings injected just before the round), and sorts them.
    ///
    /// `t` is a sound threshold. A node is read at its reach, which rises
    /// only at a step whose instant it takes, and that step's round popped
    /// every entry due by then; a walk re-arms a quiet node past its read
    /// clock and a slipped one at zero. So a node left out is quiet at its
    /// read clock: its segment is still valid there, and the segment's
    /// turnarounds are exact, or upper bounds, of the monitor's.
    fn migration_sources(&mut self, t: Cycles, sources: &mut Vec<usize>) {
        let slips = self.slips.as_mut().expect("migration keeps the slip heap");
        sources.clear();
        while let Some(&Reverse((due, i))) = slips.heap.peek() {
            if due > t {
                break;
            }
            slips.heap.pop();
            if slips.live[i] == Some(due) {
                slips.live[i] = None;
                sources.push(i);
            }
        }
        self.unarmed.extend_from_slice(sources);
        sources.extend_from_slice(&self.touched);
        sources.sort_unstable();
        sources.dedup();
    }

    /// Retires node `i` from the slip schedule: its live entry goes stale
    /// (dropped at pop time) and [`Self::arm`] never arms it again.
    fn retire_source(&mut self, i: usize) {
        let slips = self.slips.as_mut().expect("migration keeps the slip heap");
        slips.retired[i] = true;
        slips.live[i] = None;
    }

    /// The lazily invalidated `bounds` heap's live minimum.
    fn next_bound(&mut self) -> Option<Cycles> {
        while let Some(&Reverse((bound, i))) = self.bounds.peek() {
            if self.sessions[i].next_completion_time() == Some(bound) {
                return Some(bound);
            }
            self.bounds.pop();
        }
        None
    }

    /// Pops every node whose live certificate is due at or before `t` and
    /// advances it to its reach, which is at least `t`. Every other node is
    /// quiet through its reach — running its current task or idling — and
    /// decisions read it through its `*_at` projections there, which equal
    /// what the reference's `run_until` calls left.
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

    /// Identical to the reference's full scan: the node minimizing (penalty
    /// tier, signal, remaining, index). Under fault injection the tier is
    /// the failure-aware penalty (down / cooling-down / healthy, exactly
    /// the reference's), routed from `source`: `Some` for a recovery (the
    /// salvage travels from the crashed node), `None` for a fresh arrival,
    /// which enters through the front-end control plane that link faults
    /// never sever.
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

    /// Bit-identical to the reference's admission. Every node is read at
    /// its horizon through its `*_at` projections (quiet nodes stay
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

    /// The reference's steal rounds: while some node is idle and some peer
    /// holds stealable work, move the largest never-started task from the
    /// most-loaded peer to the first idle node (skipping victims the thief
    /// cannot currently reach over the fabric). All signals are O(1) engine
    /// aggregates instead of resident rescans, and none moves while a node
    /// is quiet (queue depth, stall status and stealable work change only
    /// at events, and a thief is drained, so its clock is frozen): they are
    /// read as-is, and only the victim and thief are advanced, right before
    /// the move.
    fn steal_round(&mut self, links: &LinkTopology, books: &mut Books) {
        loop {
            // A stalled node (crashed-and-drained or frozen) cannot be a
            // thief, but may still be a victim.
            let Some(thief) = self
                .sessions
                .iter()
                .position(|s| s.queue_depth() == 0 && s.stalled_until().is_none())
            else {
                return;
            };
            let now = self.sessions[thief].now();
            let mut victim: Option<(Cycles, usize)> = None;
            for (i, session) in self.sessions.iter().enumerate() {
                if session.queue_depth() < 2 {
                    continue;
                }
                if !links.reachable(i, thief, now) {
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
                return;
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
            books.steal(stolen.id, thief);
        }
    }

    fn into_sessions(self) -> Vec<SimSession<NodeTap<C>>> {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::CNN_MODELS;
    use prema_core::{
        NpuSimulator, PolicyKind, PreemptionMechanism, PreemptionMode, SchedulerConfig,
    };
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

    /// Whether a segment certifies the session quiet at clock `now` for
    /// the deadline offset `offset`: `now` falls before its slip instant.
    fn quiet_at(segment: &PredictionSegment, offset: Cycles, now: Cycles) -> bool {
        segment.slip_due(offset).is_none_or(|due| now < due)
    }

    /// A random session on one NPU under one of three schedulers, with two
    /// to six CNN requests whose estimates are `estimate` tenths of their
    /// true length, drawn from the given range.
    fn random_session(
        rng: &mut StdRng,
        case: usize,
        estimate: std::ops::Range<u64>,
    ) -> SimSession<prema_core::NullSink> {
        let npu = NpuConfig::paper_default();
        let configs = [
            SchedulerConfig::paper_default(),
            SchedulerConfig::np_fcfs(),
            SchedulerConfig::named(
                PolicyKind::Hpf,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            ),
        ];
        let sim = NpuSimulator::new(npu.clone(), configs[case % configs.len()].clone());
        let mut session = sim.session(&[]);
        for id in 0..rng.gen_range(2u64..7) {
            let request =
                TaskRequest::new(TaskId(id), CNN_MODELS[rng.gen_range(0..CNN_MODELS.len())])
                    .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                    .with_arrival(Cycles::new(rng.gen_range(0u64..4_000_000)));
            let exact = PreparedTask::prepare(request, &npu).isolated_cycles();
            let estimate = Cycles::new(exact.get() * rng.gen_range(estimate.clone()) / 10);
            session
                .inject(PreparedTask::prepare(request.with_estimate(estimate), &npu))
                .expect("ids are unique");
        }
        session
    }

    /// One segment, kept across a whole random session and queried at
    /// ascending instants inside each quiet interval the way the loop
    /// queries it, certifies exactly the walk's largest started
    /// turnaround: quiet at that offset, slipped one cycle below it.
    /// Estimates from half to one and a half times the true length make
    /// runners overrun (their entries turn clock-relative mid-version), and
    /// the preemptive schedulers leave started residents ahead of the
    /// runner.
    #[test]
    fn segments_track_the_largest_started_turnaround_through_quiet_intervals() {
        let mut rng = StdRng::seed_from_u64(0x5E67);
        let mut grown = 0usize;
        for case in 0..48 {
            let mut session = random_session(&mut rng, case, 5..16);
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
                    let now = session.now_at(at);
                    let walked = walked_max_turnaround(&session, at);
                    assert!(quiet_at(&segment, walked, now), "case {case} at {at:?}");
                    assert!(
                        walked.is_zero() || !quiet_at(&segment, walked - Cycles::new(1), now),
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

    /// No deadline slips before the slip instant: with the segment
    /// refreshed at the session clock and any offset at or above the
    /// walk's largest started turnaround there, every instant of the
    /// quiet interval before `slip_due(offset)` walks a largest started
    /// turnaround at or below the offset. Estimates from 0.3 to 1.5 times
    /// the true length make runners overrun, so the slip instant's cap at
    /// the segment's rebuild matters.
    #[test]
    fn no_deadline_slips_before_the_slip_instant() {
        let mut rng = StdRng::seed_from_u64(0x511D);
        let (mut checked, mut capped) = (0usize, 0usize);
        for case in 0..48 {
            let mut session = random_session(&mut rng, case, 3..16);
            let mut segment = PredictionSegment::default();
            let mut scratch = Vec::new();
            for _ in 0..10_000 {
                let Some(event) = session.next_event_time() else {
                    break;
                };
                let now = session.now();
                segment.refresh(&session, now, &mut scratch);
                let span = (event - now).get();
                let offset =
                    walked_max_turnaround(&session, now) + Cycles::new(rng.gen_range(0..=span));
                let due = segment.slip_due(offset).unwrap_or(Cycles::MAX);
                capped += usize::from(due < event && due == segment.valid_until + Cycles::new(1));
                let end = due.min(event);
                if end > now {
                    let last = end - Cycles::new(1);
                    let drawn = Cycles::new(rng.gen_range(now.get()..=last.get()));
                    for at in [now, drawn, last] {
                        assert!(
                            walked_max_turnaround(&session, at) <= offset,
                            "case {case}: slipped at {at:?} before {due:?}"
                        );
                        checked += 1;
                    }
                }
                let _ = session.run_until(event);
            }
        }
        assert!(checked > 1_000, "quiet intervals are checked");
        assert!(capped > 10, "the rebuild instant caps some slip instants");
    }

    /// A degraded node gets an exact certificate: on a small
    /// Dynamic-PREMA cluster with one quarter-speed window on node 0, the
    /// loop pops the straggler far fewer times inside the window than the
    /// steps the window spans (one per arrival: nothing steps between
    /// arrivals without stealing or migration), with the reference's
    /// outcome. A degraded node that was always due would be popped at
    /// every one of those steps.
    #[test]
    fn a_degraded_node_is_popped_only_at_its_events() {
        use crate::faults::ClusterFaultPlan;
        use crate::online::OnlineClusterSimulator;
        use crate::trace::{FlightEntry, VecClusterSink};
        use prema_workload::arrivals::{generate_open_loop, OpenLoopConfig};
        use prema_workload::prepare::prepare_requests;
        use prema_workload::{FaultKind, FaultSchedule, NodeFault};

        let npu = NpuConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(0xDE6);
        let stream = generate_open_loop(&OpenLoopConfig::poisson(1.5, 40.0), &mut rng);
        let tasks = prepare_requests(&stream.requests, &npu, None);
        let (start, end) = (npu.millis_to_cycles(2.0), npu.millis_to_cycles(38.0));
        let schedule = FaultSchedule::from_events(vec![NodeFault {
            node: 0,
            start,
            end,
            kind: FaultKind::Degrade {
                speed_num: 1,
                speed_den: 4,
            },
        }]);
        let config = OnlineClusterConfig::new(
            4,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_faults(ClusterFaultPlan::new(schedule));
        let simulator = OnlineClusterSimulator::new(config);
        let (heap, sink) = simulator.run_traced(&tasks, VecClusterSink::default());
        assert_eq!(heap, simulator.run_reference(&tasks));
        assert_eq!(heap.degrades, 1);

        let (mut steps, mut pops) = (0usize, 0usize);
        for entry in &sink.entries {
            if let FlightEntry::Cluster { now, event } = entry {
                if *now <= start || *now >= end {
                    continue;
                }
                match event {
                    ClusterTraceEvent::DispatchDecision { .. } => steps += 1,
                    ClusterTraceEvent::HeapPop { node: 0, .. } => pops += 1,
                    _ => {}
                }
            }
        }
        assert!(steps > 40, "the window spans {steps} steps");
        assert!(
            pops * 2 < steps,
            "node 0 was popped at {pops} of the {steps} steps its degrade window spans"
        );
    }

    /// A migration source that spent its evacuation budget is never armed
    /// again: retiring it drops its live slip entry, and neither a
    /// reschedule nor a settle re-arms it, while its peer stays armed.
    #[test]
    fn a_retired_migration_source_is_never_armed_again() {
        use crate::migration::MigrationConfig;
        use crate::trace::NullClusterSink;
        use dnn_models::ModelKind;
        use prema_core::{NpuSimulator, SchedulerConfig};

        // A 1 µs SLA: every started task is past its deadline.
        let config = OnlineClusterConfig::new(
            2,
            SchedulerConfig::paper_default(),
            OnlineDispatchPolicy::Predictive,
        )
        .with_migration(MigrationConfig::new(0.001));
        let trace = Rc::new(RefCell::new(NullClusterSink));
        let simulator = NpuSimulator::new(config.npu.clone(), config.scheduler.clone());
        let sessions = (0..2)
            .map(|node| simulator.session_with_sink(&[], NodeTap::new(node, Rc::clone(&trace))))
            .collect();
        let mut nodes = EventHeapLoop::new(&config, sessions, trace);
        for node in 0..2 {
            let request = TaskRequest::new(TaskId(node as u64), ModelKind::CnnVggNet);
            let session = nodes.session_mut(node);
            session
                .inject(PreparedTask::prepare(request, &config.npu))
                .expect("ids are unique");
            let _ = session.run_until(Cycles::new(1_000));
        }
        nodes.settle();
        let live = |nodes: &EventHeapLoop<'_, NullClusterSink>| {
            nodes.slips.as_ref().expect("migration is on").live.clone()
        };
        assert!(live(&nodes).iter().all(Option::is_some), "both nodes armed");

        nodes.retire_source(0);
        for node in 0..2 {
            let _ = nodes.session_mut(node);
        }
        nodes.settle();
        nodes.arm(0);
        assert_eq!(live(&nodes)[0], None, "a reschedule leaves node 0 unarmed");
        let mut sources = Vec::new();
        nodes.migration_sources(Cycles::MAX, &mut sources);
        assert_eq!(sources, [1], "only node 1's entry is live");
        nodes.settle();
        let live = live(&nodes);
        assert_eq!(live[0], None, "a settle leaves node 0 unarmed");
        assert!(live[1].is_some(), "a settle re-arms node 1");
    }
}
