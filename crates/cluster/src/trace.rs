//! Cluster-level flight-recorder telemetry: per-node engine taps, cluster
//! decision events, and the recording sinks.
//!
//! The engine's [`prema_core::trace`] layer streams *per-node* scheduling
//! events; this module adds the *cluster* vocabulary on top — dispatch
//! decisions with the per-node keys actually compared,
//! steal / shed / fault / recovery hops, migration decisions with their
//! priced stay-vs-move alternatives, certificate-heap traffic, and per-node
//! queue-depth/remaining-work samples taken at global events.
//!
//! The wiring mirrors the engine's: every closed-loop driver is generic
//! over a [`ClusterTraceSink`] whose default [`NullClusterSink`] carries
//! `ENABLED = false`, so the untraced loops compile to exactly the
//! pre-tracing code and their outcome digests stay byte-identical. A traced
//! run shares one sink between the cluster loop and every node session: the
//! loop holds an `Rc<RefCell<C>>` and each session's [`NodeTap`] holds a
//! clone, stamping its node index onto the engine events it forwards.
//!
//! The same observe-never-perturb invariant applies: attaching any sink
//! must leave the [`crate::OnlineOutcome`] bit-identical to the untraced
//! run (property-tested by `tests/trace.rs` and the chaos harness, which
//! drives every mechanism at once with a [`FlightRecorder`] attached and
//! dumps it on divergence).
//!
//! Three recording sinks ship here:
//!
//! * [`FlightRecorder`] — a bounded ring of the last N events plus
//!   fixed-width per-node sample rings, allocation-free after
//!   construction; the chaos tests dump it when an assertion fails.
//! * [`JsonTraceSink`] — a full Chrome/Perfetto `trace_event` exporter
//!   (one pid per node, task executions as duration slices, cluster
//!   decisions as instant events, node samples as counter tracks) behind
//!   the `throughput trace` subcommand and the bench bins' `--trace-out`.
//! * [`CountingSink`] — one counter per kind of work (quanta skipped,
//!   heap pushes, index re-keys, ...), the exact `work` the `throughput`
//!   reports carry and gate.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use npu_sim::{Cycles, NpuConfig};
use prema_core::{SimSession, TaskId, TraceEvent, TraceSink};

/// How many per-node dispatch keys a [`NodeKeySet`] stores inline.
/// Decisions over larger clusters record the first four nodes in index
/// order plus the true total.
pub const MAX_TRACE_NODES: usize = 4;

/// One node's standing in a dispatch decision: the key the front-end
/// actually compared for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKey {
    /// The node this key scores.
    pub node: usize,
    /// The failure-aware penalty tier (0 healthy, 1 cooling-down or
    /// degraded, 2 down).
    pub penalty: u8,
    /// The live-state score under the configured dispatch policy
    /// (signal, total remaining work).
    pub key: (u64, u64),
}

/// A fixed-width capture of the per-node keys one dispatch decision
/// compared: the first [`MAX_TRACE_NODES`] in comparison order plus the
/// true total, so the event stays `Copy` at any cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeKeySet {
    keys: [Option<NodeKey>; MAX_TRACE_NODES],
    total: u32,
}

impl NodeKeySet {
    /// Appends one node's key (dropped, but still counted, once the inline
    /// slots are full).
    pub fn push(&mut self, key: NodeKey) {
        if let Some(slot) = self.keys.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(key);
        }
        self.total += 1;
    }

    /// The recorded leading keys, in comparison order.
    pub fn recorded(&self) -> impl Iterator<Item = &NodeKey> {
        self.keys.iter().flatten()
    }

    /// How many nodes the decision actually compared (may exceed the number
    /// recorded inline).
    pub fn total(&self) -> usize {
        self.total as usize
    }
}

/// The fault-window species a [`ClusterTraceEvent::Fault`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTraceKind {
    /// The node crashed: residents salvaged, downtime until the window end.
    Crash,
    /// The node froze: no progress until the window end.
    Freeze,
    /// A degrade window began: the node runs at `num / den` speed.
    Degrade {
        /// Plan-progress cycles per...
        num: u32,
        /// ...wall cycles.
        den: u32,
    },
    /// A degrade window ended: the node returns to full speed.
    DegradeEnd,
}

/// The link-window species a [`ClusterTraceEvent::LinkFault`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTraceKind {
    /// The directed link went down: unreachable until the window end.
    Down,
    /// A degraded-bandwidth window began: transfers launched on the link
    /// are priced at `num / den` of nominal bandwidth.
    Degraded {
        /// Numerator of the bandwidth fraction.
        num: u32,
        /// Denominator of the bandwidth fraction.
        den: u32,
    },
    /// A link window ended: the link returns to nominal service.
    Restored,
}

/// Why one transfer attempt failed (see
/// [`ClusterTraceEvent::TransferTimeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFailReason {
    /// The link carrying the transfer went down mid-flight.
    LinkDown,
    /// The attempt's landing would have slipped past its delivery
    /// deadline.
    Timeout,
    /// The destination node was down when the payload arrived.
    DestinationDown,
    /// A redirect instant found no reachable healthy destination at all;
    /// the attempt was spent waiting out another backoff.
    NoRoute,
}

impl TransferFailReason {
    /// A short stable label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            TransferFailReason::LinkDown => "link-down",
            TransferFailReason::Timeout => "timeout",
            TransferFailReason::DestinationDown => "destination-down",
            TransferFailReason::NoRoute => "no-route",
        }
    }
}

/// One cluster-level trace event. Compact and `Copy`, like the engine's
/// [`TraceEvent`], so a bounded ring of them is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterTraceEvent {
    /// The front-end dispatched (or re-dispatched) a task: the chosen node
    /// and the exact per-node keys compared (the contender index's walk
    /// records only the nodes it examined).
    DispatchDecision {
        /// The dispatched task.
        task: TaskId,
        /// The winning node.
        chosen: usize,
        /// The leading per-node keys compared.
        keys: NodeKeySet,
    },
    /// An idle node stole a never-started task from a loaded peer.
    Steal {
        /// The stolen task.
        task: TaskId,
        /// The victim node.
        from: usize,
        /// The thief node.
        to: usize,
    },
    /// Admission control shed a task (the victim of one shed step — possibly
    /// the newcomer itself).
    Shed {
        /// The shed task.
        task: TaskId,
        /// The node it was revoked from (the would-be target when the
        /// newcomer itself is rejected).
        node: usize,
    },
    /// A fault window event on one node.
    Fault {
        /// The faulted node.
        node: usize,
        /// What kind of window (crash / freeze / degrade edge).
        kind: FaultTraceKind,
        /// When the window ends (the instant itself for `DegradeEnd`).
        until: Cycles,
    },
    /// A salvaged task's backoff expired and it was re-dispatched.
    Recovery {
        /// The recovered task.
        task: TaskId,
        /// The node whose crash salvaged it.
        from: usize,
        /// The node it re-entered.
        to: usize,
        /// Which lifetime attempt this was (1 = first recovery).
        attempt: u32,
    },
    /// A salvaged task exhausted its retry budget and was abandoned.
    Abandon {
        /// The abandoned task.
        task: TaskId,
        /// The node whose crash orphaned it.
        node: usize,
        /// The attempt count that blew the budget.
        attempts: u32,
    },
    /// The migration arbiter evacuated a task off a straggler: the priced
    /// alternatives it compared.
    MigrationOut {
        /// The evacuated task.
        task: TaskId,
        /// The straggler it left.
        from: usize,
        /// The destination.
        to: usize,
        /// The checkpoint context in flight, in bytes.
        bytes: u64,
        /// The rejected alternative: scaled wall cycles to completion if the
        /// task had stayed.
        stay_cost: Cycles,
        /// The accepted alternative: transfer + restore + queueing at the
        /// destination.
        move_cost: Cycles,
        /// When the task lands at the destination.
        arrive_at: Cycles,
    },
    /// An in-flight migration landed at its destination.
    MigrationLand {
        /// The migrated task.
        task: TaskId,
        /// The destination node.
        node: usize,
    },
    /// A directed-link fault window opened or closed.
    LinkFault {
        /// The sending side of the directed link.
        from: usize,
        /// The receiving side of the directed link.
        to: usize,
        /// What happened to the link.
        kind: LinkTraceKind,
        /// When the current window ends (for `Restored`, the instant
        /// itself).
        until: Cycles,
    },
    /// One transfer attempt failed: the payload never landed.
    TransferTimeout {
        /// The task whose transfer failed.
        task: TaskId,
        /// The node that retains custody of the checkpoint.
        from: usize,
        /// The destination the attempt was routed to.
        to: usize,
        /// Which attempt failed (1 = the original launch).
        attempt: u32,
        /// Why the attempt failed.
        reason: TransferFailReason,
    },
    /// A failed transfer was re-routed to a new destination after
    /// backoff.
    Redirect {
        /// The re-routed task.
        task: TaskId,
        /// The node that retained custody between attempts.
        from: usize,
        /// The newly chosen destination.
        to: usize,
        /// The attempt number of the relaunch.
        attempt: u32,
    },
    /// Custody reconciliation at a synchronization instant: every task
    /// the migration layer ever took custody of is in exactly one state.
    CustodyCheck {
        /// Transfers currently in flight (including backoff holds).
        in_flight: u32,
        /// Cumulative payloads delivered to a destination.
        landed: u64,
        /// Cumulative transfers abandoned after budget exhaustion.
        abandoned: u64,
    },
    /// The event-heap loop pushed a node's next-event certificate, stamped
    /// with the step that changed the node.
    HeapPush {
        /// The node whose bound was pushed.
        node: usize,
        /// The certificate: the node's `next_event_time`.
        bound: Cycles,
    },
    /// The event-heap loop popped a due, still-current certificate.
    HeapPop {
        /// The node whose bound was due.
        node: usize,
        /// The popped bound.
        bound: Cycles,
    },
    /// The event-heap loop discarded a stale (lazily invalidated)
    /// certificate at pop time.
    HeapStaleDrop {
        /// The node the stale entry named.
        node: usize,
        /// The stale bound.
        bound: Cycles,
    },
    /// One node's state sampled at a global event (built only for sinks
    /// whose [`ClusterTraceSink::SAMPLES`] is true).
    NodeSample {
        /// The sampled node.
        node: usize,
        /// Its live queue depth (running + waiting).
        queue_depth: u32,
        /// Its predicted remaining work.
        remaining_work: Cycles,
    },
    /// The contender index re-keyed one node (only runs without stealing or
    /// migration build the index): emitted at every index refresh — due
    /// advances, fault instants, injections, sheds. The timestamp is the
    /// node-local clock at the refresh, which may trail the step instant.
    IndexUpdate {
        /// The re-keyed node.
        node: usize,
        /// The fault-penalty tier stored as the index's major key.
        penalty: u8,
        /// The stored policy key pair at the lowest arrival priority. Work
        /// signals the runner drains are in absolute (clock-anchored) form;
        /// queue depth and a frozen `predictive-live` level are exact.
        key: (u64, u64),
        /// Whether the node sits in the ordered structures (`true`) or in
        /// the linearly scanned stalled/degraded side set (`false`).
        indexed: bool,
    },
}

/// A destination for cluster telemetry. Mirrors the engine's
/// [`TraceSink`] contract: every emission site is guarded by `ENABLED`, a
/// disabled sink compiles to nothing, and implementations must only
/// *observe* — traced and untraced runs stay bit-identical.
pub trait ClusterTraceSink: std::fmt::Debug {
    /// Whether emission sites are compiled in for this sink.
    const ENABLED: bool = true;

    /// Whether the loops build [`ClusterTraceEvent::NodeSample`]s for this
    /// sink: every node, read at every global event. A sink that ignores
    /// them sets this to `false` and the O(nodes) reads are skipped.
    const SAMPLES: bool = true;

    /// Records one engine event from node `node`'s session at its local
    /// clock `now`.
    fn node_event(&mut self, node: usize, now: Cycles, event: TraceEvent);

    /// Records one cluster-level event at global instant `now`.
    fn cluster_event(&mut self, now: Cycles, event: ClusterTraceEvent);
}

/// The default cluster sink: telemetry disabled, every emission site
/// compiled away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullClusterSink;

impl ClusterTraceSink for NullClusterSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn node_event(&mut self, _node: usize, _now: Cycles, _event: TraceEvent) {}

    #[inline(always)]
    fn cluster_event(&mut self, _now: Cycles, _event: ClusterTraceEvent) {}
}

/// The per-node engine tap: a [`TraceSink`] that stamps its node index onto
/// every engine event and forwards it to the shared cluster sink. The
/// cluster loops give each [`SimSession`] one of these; its `ENABLED`
/// mirrors the cluster sink's, so untraced loops compile the engine's
/// emission sites away exactly as [`prema_core::NullSink`] does.
#[derive(Debug)]
pub struct NodeTap<C: ClusterTraceSink> {
    node: usize,
    sink: Rc<RefCell<C>>,
}

impl<C: ClusterTraceSink> NodeTap<C> {
    /// A tap forwarding node `node`'s engine events into the shared sink.
    pub fn new(node: usize, sink: Rc<RefCell<C>>) -> Self {
        NodeTap { node, sink }
    }
}

impl<C: ClusterTraceSink> TraceSink for NodeTap<C> {
    const ENABLED: bool = C::ENABLED;

    fn record(&mut self, now: Cycles, event: TraceEvent) {
        self.sink.borrow_mut().node_event(self.node, now, event);
    }
}

/// Samples every node's queue depth and predicted remaining work as of `now`
/// (a node left unadvanced through `now` reads its projection there) into
/// the cluster sink — called by the loops at global events (arrivals and
/// fault/migration synchronization instants). O(1) per node, compiled away
/// when the sink is disabled or declines samples.
pub(crate) fn sample_nodes<S: TraceSink, C: ClusterTraceSink>(
    sessions: &[SimSession<S>],
    now: Cycles,
    trace: &RefCell<C>,
) {
    if !C::ENABLED || !C::SAMPLES {
        return;
    }
    let mut sink = trace.borrow_mut();
    for (node, session) in sessions.iter().enumerate() {
        sink.cluster_event(
            now,
            ClusterTraceEvent::NodeSample {
                node,
                queue_depth: session.queue_depth() as u32,
                remaining_work: session.predicted_remaining_work_at(now),
            },
        );
    }
}

/// One entry of the [`FlightRecorder`] ring: an engine event stamped with
/// its node, or a cluster-level event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEntry {
    /// An engine event from one node's session.
    Node {
        /// The originating node.
        node: usize,
        /// The node's local clock at emission.
        now: Cycles,
        /// The engine event.
        event: TraceEvent,
    },
    /// A cluster-level event.
    Cluster {
        /// The global instant.
        now: Cycles,
        /// The cluster event.
        event: ClusterTraceEvent,
    },
}

impl FlightEntry {
    /// The entry's timestamp.
    pub fn at(&self) -> Cycles {
        match self {
            FlightEntry::Node { now, .. } | FlightEntry::Cluster { now, .. } => *now,
        }
    }
}

/// One point of a node's sampled time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct NodeSamplePoint {
    /// The global instant of the sample.
    at: Cycles,
    /// The node's live queue depth.
    queue_depth: u32,
    /// The node's predicted remaining work.
    remaining_work: Cycles,
}

/// A fixed-capacity overwrite-oldest ring.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Next write position once the ring is full.
    next: usize,
    /// Total entries ever recorded (≥ `buf.len()`).
    total: u64,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, value: T) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(value);
        } else {
            self.buf[self.next] = value;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Retained entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.buf.split_at(self.next.min(self.buf.len()));
        head.iter().chain(tail.iter())
    }
}

/// The bounded in-memory flight recorder: the last N events (engine and
/// cluster interleaved, in emission order) plus a fixed-width sample ring
/// per node. All buffers are preallocated at construction — recording never
/// allocates — so the recorder can ride along any run, however long, at
/// constant memory; the chaos tests attach one and dump it when an
/// assertion fails.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: Ring<FlightEntry>,
    samples: Vec<Ring<NodeSamplePoint>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `event_capacity` events and the last
    /// `samples_per_node` samples of each of `nodes` nodes.
    pub fn new(nodes: usize, event_capacity: usize, samples_per_node: usize) -> Self {
        FlightRecorder {
            events: Ring::new(event_capacity),
            samples: (0..nodes).map(|_| Ring::new(samples_per_node)).collect(),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEntry> {
        self.events.iter()
    }

    /// The human-readable dump the chaos harness prints on assertion
    /// failure: one line per retained event (oldest first), then each
    /// node's latest sample. Lines are `t=<cycles> [node <i>] <event>`;
    /// event payloads print in their `Debug` form.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {} of {} events retained ===",
            self.events.buf.len(),
            self.events.total
        );
        for entry in self.events() {
            match entry {
                FlightEntry::Node { node, now, event } => {
                    let _ = writeln!(out, "t={} [node {node}] {event:?}", now.get());
                }
                FlightEntry::Cluster { now, event } => {
                    let _ = writeln!(out, "t={} [cluster] {event:?}", now.get());
                }
            }
        }
        for (node, ring) in self.samples.iter().enumerate() {
            if let Some(last) = ring.iter().last() {
                let _ = writeln!(
                    out,
                    "node {node}: last sample t={} queue={} remaining={} ({} samples total)",
                    last.at.get(),
                    last.queue_depth,
                    last.remaining_work.get(),
                    ring.total
                );
            }
        }
        out
    }
}

impl ClusterTraceSink for FlightRecorder {
    fn node_event(&mut self, node: usize, now: Cycles, event: TraceEvent) {
        self.events.push(FlightEntry::Node { node, now, event });
    }

    fn cluster_event(&mut self, now: Cycles, event: ClusterTraceEvent) {
        if let ClusterTraceEvent::NodeSample {
            node,
            queue_depth,
            remaining_work,
        } = event
        {
            if let Some(ring) = self.samples.get_mut(node) {
                ring.push(NodeSamplePoint {
                    at: now,
                    queue_depth,
                    remaining_work,
                });
            }
            return;
        }
        self.events.push(FlightEntry::Cluster { now, event });
    }
}

/// Counts a [`JsonTraceSink`] keeps for reconciling its trace against the
/// run's [`crate::OnlineOutcome`]: every served task must own at least one
/// execution slice, and the instant-event counts must match the outcome's
/// steal / migration / recovery tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceReconciliation {
    /// Execution slices emitted (one per node occupancy span).
    pub slices: u64,
    /// Distinct tasks owning at least one slice.
    pub slice_tasks: usize,
    /// `Steal` instants emitted.
    pub steals: u64,
    /// `MigrationOut` instants emitted.
    pub migrations: u64,
    /// `Recovery` instants emitted.
    pub recoveries: u64,
    /// `Fault` instants emitted (crash / freeze / degrade edges).
    pub faults: u64,
    /// `Shed` instants emitted.
    pub sheds: u64,
    /// `DispatchDecision` instants emitted.
    pub dispatch_decisions: u64,
}

/// A full-fidelity Chrome/Perfetto `trace_event` exporter: every node is a
/// pid (named process), task executions are duration slices (`ph: "X"`),
/// cluster decisions are instant events on the node they concern, and node
/// samples become counter tracks. Load the written file at
/// <https://ui.perfetto.dev> or `chrome://tracing`.
///
/// Unlike [`FlightRecorder`] this sink allocates freely — it exists for
/// offline inspection, not for riding along hot runs.
#[derive(Debug)]
pub struct JsonTraceSink {
    us_per_cycle: f64,
    events: Vec<String>,
    /// Per node: the currently executing task and its dispatch instant.
    open: Vec<Option<(TaskId, Cycles)>>,
    slice_tasks: BTreeSet<TaskId>,
    counts: TraceReconciliation,
}

impl JsonTraceSink {
    /// An exporter for a cluster of `nodes` NPUs on `npu`'s clock (cycle
    /// timestamps convert to trace microseconds through it).
    pub fn new(nodes: usize, npu: &NpuConfig) -> Self {
        let us_per_cycle = npu.cycles_to_millis(Cycles::new(1_000_000)) / 1_000.0;
        let mut events = Vec::new();
        for node in 0..nodes {
            events.push(format!(
                r#"{{"name":"process_name","ph":"M","pid":{node},"tid":0,"args":{{"name":"node {node}"}}}}"#
            ));
        }
        JsonTraceSink {
            us_per_cycle,
            events,
            open: vec![None; nodes],
            slice_tasks: BTreeSet::new(),
            counts: TraceReconciliation::default(),
        }
    }

    fn us(&self, at: Cycles) -> f64 {
        at.get() as f64 * self.us_per_cycle
    }

    fn close_slice(&mut self, node: usize, task: TaskId, end: Cycles, reason: &str) {
        let Some((open_task, start)) = self.open[node] else {
            return;
        };
        if open_task != task {
            return;
        }
        self.open[node] = None;
        let ts = self.us(start);
        let dur = self.us(end) - ts;
        self.counts.slices += 1;
        self.slice_tasks.insert(task);
        self.events.push(format!(
            r#"{{"name":"task {}","cat":"exec","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":{node},"tid":0,"args":{{"end":"{reason}"}}}}"#,
            task.0
        ));
    }

    fn instant(&mut self, node: usize, now: Cycles, name: &str, cat: &str, args: String) {
        let ts = self.us(now);
        self.events.push(format!(
            r#"{{"name":"{name}","cat":"{cat}","ph":"i","s":"p","ts":{ts:.3},"pid":{node},"tid":0,"args":{{{args}}}}}"#
        ));
    }

    /// The reconciliation counters accumulated so far.
    pub fn reconciliation(&self) -> TraceReconciliation {
        TraceReconciliation {
            slice_tasks: self.slice_tasks.len(),
            ..self.counts
        }
    }

    /// Serializes the accumulated trace as Chrome `trace_event` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(event);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl ClusterTraceSink for JsonTraceSink {
    fn node_event(&mut self, node: usize, now: Cycles, event: TraceEvent) {
        match event {
            TraceEvent::Dispatch { task, .. } => {
                // A dangling open slice here would be an engine bug (the NPU
                // dispatches only when free); close it defensively so the
                // trace stays well-formed either way.
                if let Some((open_task, _)) = self.open[node] {
                    self.close_slice(node, open_task, now, "preempted");
                }
                self.open[node] = Some((task, now));
            }
            TraceEvent::PreemptEnd { task, .. } => self.close_slice(node, task, now, "preempted"),
            TraceEvent::Complete { task } => self.close_slice(node, task, now, "complete"),
            TraceEvent::Salvage { task, .. } => self.close_slice(node, task, now, "salvaged"),
            _ => {}
        }
    }

    fn cluster_event(&mut self, now: Cycles, event: ClusterTraceEvent) {
        match event {
            ClusterTraceEvent::DispatchDecision { task, chosen, keys } => {
                self.counts.dispatch_decisions += 1;
                self.instant(
                    chosen,
                    now,
                    "dispatch",
                    "dispatch",
                    format!(r#""task":{},"candidates":{}"#, task.0, keys.total()),
                );
            }
            ClusterTraceEvent::Steal { task, from, to } => {
                self.counts.steals += 1;
                self.instant(
                    to,
                    now,
                    "steal",
                    "steal",
                    format!(r#""task":{},"from":{from}"#, task.0),
                );
            }
            ClusterTraceEvent::Shed { task, node } => {
                self.counts.sheds += 1;
                self.instant(
                    node,
                    now,
                    "shed",
                    "admission",
                    format!(r#""task":{}"#, task.0),
                );
            }
            ClusterTraceEvent::Fault { node, kind, until } => {
                self.counts.faults += 1;
                let name = match kind {
                    FaultTraceKind::Crash => "crash",
                    FaultTraceKind::Freeze => "freeze",
                    FaultTraceKind::Degrade { .. } => "degrade",
                    FaultTraceKind::DegradeEnd => "degrade-end",
                };
                self.instant(
                    node,
                    now,
                    name,
                    "fault",
                    format!(r#""until_us":{:.3}"#, self.us(until)),
                );
            }
            ClusterTraceEvent::Recovery {
                task,
                from,
                to,
                attempt,
            } => {
                self.counts.recoveries += 1;
                self.instant(
                    to,
                    now,
                    "recovery",
                    "fault",
                    format!(r#""task":{},"from":{from},"attempt":{attempt}"#, task.0),
                );
            }
            ClusterTraceEvent::Abandon {
                task,
                node,
                attempts,
            } => {
                self.instant(
                    node,
                    now,
                    "abandon",
                    "fault",
                    format!(r#""task":{},"attempts":{attempts}"#, task.0),
                );
            }
            ClusterTraceEvent::MigrationOut {
                task,
                from,
                to,
                bytes,
                stay_cost,
                move_cost,
                ..
            } => {
                self.counts.migrations += 1;
                self.instant(
                    from,
                    now,
                    "migrate-out",
                    "migration",
                    format!(
                        r#""task":{},"to":{to},"bytes":{bytes},"stay_cycles":{},"move_cycles":{}"#,
                        task.0,
                        stay_cost.get(),
                        move_cost.get()
                    ),
                );
            }
            ClusterTraceEvent::MigrationLand { task, node } => {
                self.instant(
                    node,
                    now,
                    "migrate-land",
                    "migration",
                    format!(r#""task":{}"#, task.0),
                );
            }
            ClusterTraceEvent::LinkFault {
                from,
                to,
                kind,
                until,
            } => {
                let label = match kind {
                    LinkTraceKind::Down => "link-down",
                    LinkTraceKind::Degraded { .. } => "link-degraded",
                    LinkTraceKind::Restored => "link-restored",
                };
                self.instant(
                    from,
                    now,
                    label,
                    "interconnect",
                    format!(r#""to":{},"until_us":{}"#, to, self.us(until)),
                );
            }
            ClusterTraceEvent::TransferTimeout {
                task,
                from,
                to,
                attempt,
                reason,
            } => {
                self.instant(
                    from,
                    now,
                    "transfer-fail",
                    "custody",
                    format!(
                        r#""task":{},"to":{},"attempt":{},"reason":"{}""#,
                        task.0,
                        to,
                        attempt,
                        reason.label()
                    ),
                );
            }
            ClusterTraceEvent::Redirect {
                task,
                from,
                to,
                attempt,
            } => {
                self.instant(
                    from,
                    now,
                    "redirect",
                    "custody",
                    format!(r#""task":{},"to":{},"attempt":{}"#, task.0, to, attempt),
                );
            }
            // Custody reconciliation is a counter heartbeat: valuable in
            // the FlightRecorder's dump, noise on a visual timeline.
            ClusterTraceEvent::CustodyCheck { .. } => {}
            ClusterTraceEvent::NodeSample {
                node,
                queue_depth,
                remaining_work,
            } => {
                let ts = self.us(now);
                self.events.push(format!(
                    r#"{{"name":"queue depth","ph":"C","ts":{ts:.3},"pid":{node},"tid":0,"args":{{"depth":{queue_depth}}}}}"#
                ));
                self.events.push(format!(
                    r#"{{"name":"remaining work","ph":"C","ts":{ts:.3},"pid":{node},"tid":0,"args":{{"cycles":{}}}}}"#,
                    remaining_work.get()
                ));
            }
            // Heap and index traffic is interesting in the FlightRecorder's
            // dump but noise in a visual timeline.
            ClusterTraceEvent::HeapPush { .. }
            | ClusterTraceEvent::HeapPop { .. }
            | ClusterTraceEvent::HeapStaleDrop { .. }
            | ClusterTraceEvent::IndexUpdate { .. } => {}
        }
    }
}

/// An unbounded in-memory cluster event log, for tests.
#[derive(Debug, Clone, Default)]
pub struct VecClusterSink {
    /// Every recorded entry, in emission order.
    pub entries: Vec<FlightEntry>,
}

impl ClusterTraceSink for VecClusterSink {
    fn node_event(&mut self, node: usize, now: Cycles, event: TraceEvent) {
        self.entries.push(FlightEntry::Node { node, now, event });
    }

    fn cluster_event(&mut self, now: Cycles, event: ClusterTraceEvent) {
        self.entries.push(FlightEntry::Cluster { now, event });
    }
}

/// Declares [`CountingSink`] from one list of documented counters: the
/// struct, an `add` over every field and a `counts` naming every field, so
/// a new counter cannot be left out of either.
macro_rules! counting_sink {
    ($($(#[$doc:meta])+ $field:ident,)+) => {
        /// Event counts of one traced run (or the sum of several): the work
        /// the engine and the cluster loop did, one counter per kind of
        /// step. Every count is a pure function of the inputs, so it
        /// repeats exactly from run to run and on any host; the bench
        /// reports gate them exactly.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CountingSink {
            $($(#[$doc])+ pub $field: u64,)+
        }

        impl CountingSink {
            /// Adds `other`'s counts to these.
            pub fn add(&mut self, other: &CountingSink) {
                $(self.$field += other.$field;)+
            }

            /// Every count with its field name, in declaration order.
            pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }
        }
    };
}

counting_sink! {
    /// Quantum wakeups the event-horizon fast path elided.
    quanta_skipped,
    /// Preemptions begun (CHECKPOINT or KILL).
    preemptions,
    /// Front-end dispatch decisions, re-dispatches included.
    dispatch_decisions,
    /// Work-stealing migrations.
    steals,
    /// Admission-control sheds.
    sheds,
    /// Crash windows begun.
    crashes,
    /// Freeze windows begun.
    freezes,
    /// Degrade windows begun.
    degrades,
    /// Salvaged tasks re-dispatched.
    recoveries,
    /// Checkpoint evacuations launched.
    migrations,
    /// Checkpoint bytes those evacuations put in flight.
    migration_bytes,
    /// Evacuations that landed at a destination.
    migrations_landed,
    /// Failed transfer attempts.
    transfer_failures,
    /// Failed transfers relaunched to a new destination.
    redirects,
    /// Completion certificates pushed on the event heap.
    heap_pushes,
    /// Due, still-current certificates popped.
    heap_pops,
    /// Stale certificates discarded at pop time.
    heap_stale_drops,
    /// Contender-index re-keys.
    index_updates,
    /// Re-keys that put the node in the linearly scanned side set.
    index_side,
}

impl CountingSink {
    fn engine(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::QuantumSkip { quanta, .. } => self.quanta_skipped += quanta,
            TraceEvent::PreemptBegin { .. } => self.preemptions += 1,
            _ => {}
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _now: Cycles, event: TraceEvent) {
        self.engine(event);
    }
}

impl ClusterTraceSink for CountingSink {
    /// No count reads node samples.
    const SAMPLES: bool = false;

    fn node_event(&mut self, _node: usize, _now: Cycles, event: TraceEvent) {
        self.engine(event);
    }

    fn cluster_event(&mut self, _now: Cycles, event: ClusterTraceEvent) {
        match event {
            // Not built for this sink (`SAMPLES` is false); dropped if
            // one arrives anyway.
            ClusterTraceEvent::NodeSample { .. } => {}
            ClusterTraceEvent::IndexUpdate { indexed, .. } => {
                self.index_updates += 1;
                self.index_side += u64::from(!indexed);
            }
            ClusterTraceEvent::HeapPush { .. } => self.heap_pushes += 1,
            ClusterTraceEvent::HeapPop { .. } => self.heap_pops += 1,
            ClusterTraceEvent::HeapStaleDrop { .. } => self.heap_stale_drops += 1,
            ClusterTraceEvent::DispatchDecision { .. } => self.dispatch_decisions += 1,
            ClusterTraceEvent::Steal { .. } => self.steals += 1,
            ClusterTraceEvent::Shed { .. } => self.sheds += 1,
            ClusterTraceEvent::Fault { kind, .. } => match kind {
                FaultTraceKind::Crash => self.crashes += 1,
                FaultTraceKind::Freeze => self.freezes += 1,
                FaultTraceKind::Degrade { .. } => self.degrades += 1,
                FaultTraceKind::DegradeEnd => {}
            },
            ClusterTraceEvent::Recovery { .. } => self.recoveries += 1,
            ClusterTraceEvent::MigrationOut { bytes, .. } => {
                self.migrations += 1;
                self.migration_bytes += bytes;
            }
            ClusterTraceEvent::MigrationLand { .. } => self.migrations_landed += 1,
            ClusterTraceEvent::TransferTimeout { .. } => self.transfer_failures += 1,
            ClusterTraceEvent::Redirect { .. } => self.redirects += 1,
            ClusterTraceEvent::Abandon { .. }
            | ClusterTraceEvent::LinkFault { .. }
            | ClusterTraceEvent::CustodyCheck { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_key_set_truncates_but_keeps_the_true_total() {
        let mut set = NodeKeySet::default();
        for node in 0..6 {
            set.push(NodeKey {
                node,
                penalty: 0,
                key: (node as u64, 0),
            });
        }
        assert_eq!(set.total(), 6);
        let recorded: Vec<usize> = set.recorded().map(|k| k.node).collect();
        assert_eq!(recorded, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flight_recorder_ring_overwrites_oldest() {
        let mut recorder = FlightRecorder::new(1, 3, 2);
        for i in 0..5u64 {
            recorder.cluster_event(
                Cycles::new(i),
                ClusterTraceEvent::HeapPush {
                    node: 0,
                    bound: Cycles::new(i),
                },
            );
        }
        let times: Vec<u64> = recorder.events().map(|e| e.at().get()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        for i in 0..4u32 {
            recorder.cluster_event(
                Cycles::new(u64::from(i) * 10),
                ClusterTraceEvent::NodeSample {
                    node: 0,
                    queue_depth: i,
                    remaining_work: Cycles::ZERO,
                },
            );
        }
        // Samples live in their own rings, not the event ring; the dump
        // reports each ring's retained and total counts.
        assert_eq!(recorder.events().count(), 3);
        let dump = recorder.dump();
        assert!(dump.contains("flight recorder: 3 of 5 events retained"));
        assert!(dump.contains("node 0: last sample t=30 queue=3 remaining=0 (4 samples total)"));
    }

    #[test]
    fn json_sink_emits_slices_and_instants() {
        let npu = NpuConfig::paper_default();
        let mut sink = JsonTraceSink::new(2, &npu);
        sink.node_event(
            0,
            Cycles::new(100),
            TraceEvent::Dispatch {
                task: TaskId(7),
                restore: Cycles::ZERO,
            },
        );
        sink.node_event(
            0,
            Cycles::new(900),
            TraceEvent::Complete { task: TaskId(7) },
        );
        sink.cluster_event(
            Cycles::new(950),
            ClusterTraceEvent::Steal {
                task: TaskId(9),
                from: 0,
                to: 1,
            },
        );
        let counts = sink.reconciliation();
        assert_eq!(counts.slices, 1);
        assert_eq!(counts.slice_tasks, 1);
        assert_eq!(counts.steals, 1);
        let json = sink.to_json();
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""name":"task 7""#));
        assert!(json.contains(r#""name":"steal""#));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn counting_sink_counts_each_event_kind_and_drops_node_samples() {
        let mut counts = CountingSink::default();
        let now = Cycles::ZERO;
        counts.node_event(
            3,
            now,
            TraceEvent::QuantumSkip {
                from: now,
                to: now,
                quanta: 5,
                grants: 0,
            },
        );
        counts.record(now, TraceEvent::Complete { task: TaskId(1) });
        for _ in 0..1000 {
            counts.cluster_event(
                now,
                ClusterTraceEvent::NodeSample {
                    node: 0,
                    queue_depth: 1,
                    remaining_work: now,
                },
            );
        }
        counts.cluster_event(
            now,
            ClusterTraceEvent::IndexUpdate {
                node: 0,
                penalty: 1,
                key: (0, 0),
                indexed: false,
            },
        );
        counts.cluster_event(
            now,
            ClusterTraceEvent::Fault {
                node: 2,
                kind: FaultTraceKind::Degrade { num: 1, den: 8 },
                until: now,
            },
        );
        assert_eq!(
            counts,
            CountingSink {
                quanta_skipped: 5,
                index_updates: 1,
                index_side: 1,
                degrades: 1,
                ..CountingSink::default()
            }
        );
        let mut sum = counts;
        sum.add(&counts);
        assert_eq!(sum.quanta_skipped, 10);
        assert_eq!(sum.index_side, 2);
        // Every field is named, in declaration order.
        let named: Vec<(&str, u64)> = sum.counts().filter(|&(_, n)| n > 0).collect();
        assert_eq!(
            named,
            [
                ("quanta_skipped", 10),
                ("degrades", 2),
                ("index_updates", 2),
                ("index_side", 2)
            ]
        );
        assert_eq!(sum.counts().count(), 19);
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullClusterSink::ENABLED) };
        const { assert!(!<NodeTap<NullClusterSink> as TraceSink>::ENABLED) };
        const { assert!(<NodeTap<FlightRecorder> as TraceSink>::ENABLED) };
        // Counted runs skip the per-node samples; the flight recorder keeps
        // them in its per-node rings.
        const { assert!(<CountingSink as ClusterTraceSink>::ENABLED && !CountingSink::SAMPLES) };
        const { assert!(FlightRecorder::SAMPLES) };
    }
}
