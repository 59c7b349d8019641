//! Seeded node-fault processes for the fault-tolerant cluster layer.
//!
//! A serving cluster's reliability questions — what does a crash cost, how
//! much progress does checkpoint-priced recovery preserve, how far do
//! stragglers drag the tail — need fault *schedules* that are as
//! reproducible as the arrival streams they are driven against. This module
//! is the fault-side sibling of [`crate::arrivals`]: a [`FaultProcess`]
//! draws per-node alternating up-time / fault-window renewals from a seeded
//! RNG and materializes them as a [`FaultSchedule`] — a time-sorted stream
//! of node-scoped [`NodeFault`] events the cluster loops merge into their
//! global event timeline.
//!
//! Three fault kinds are modeled:
//!
//! * [`FaultKind::Crash`] — the node loses all non-checkpointed progress at
//!   the window's start and is down (no execution, no dispatch) until the
//!   window's end, when it recovers empty.
//! * [`FaultKind::Freeze`] — a straggler window: the node freezes in place
//!   (resident tasks keep their state but make no progress) and resumes
//!   where it left off at the window's end.
//! * [`FaultKind::Degrade`] — a soft straggler window: the node keeps
//!   running but its clock is stretched to the rational fraction
//!   `speed_num / speed_den` of nominal (thermal throttling, contention).
//!
//! Up-times are exponential with mean `mtbf_ms`; fault windows are
//! exponential with mean `mean_downtime_ms`; one uniform draw per window
//! picks the kind (freeze below `freeze_fraction`, degrade in the next
//! `degrade_fraction`, crash otherwise). All sampling is a pure function of
//! the seeded RNG — node `k`'s renewal chain is drawn before node `k+1`'s —
//! so a sweep replaying the same seed sees a bit-identical schedule.
//!
//! # Window composition and precedence
//!
//! Windows on one node must be pairwise disjoint **regardless of kind**: a
//! node is up, crashed, frozen, or degraded — never two at once. There is
//! deliberately no nesting (no "crash inside a degrade window"); a crash
//! that interrupts a degraded phase is expressed by *splitting* the degrade
//! window around the crash. [`FaultSchedule::validate`] rejects same-kind
//! overlap with [`FaultScheduleError::OverlappingWindows`] and mixed-kind
//! overlap with the dedicated
//! [`FaultScheduleError::MixedKindOverlap`], so the sequential-composition
//! rule is explicit rather than implicit.
//!
//! # Link faults
//!
//! The interconnect is its own fault domain: a [`LinkFault`] window takes
//! one *directed* link down ([`LinkFaultKind::Down`]) or throttles its
//! bandwidth ([`LinkFaultKind::Degraded`]) for the window. Link windows
//! ride in the same [`FaultSchedule`] as node windows (the `links` field)
//! and obey the same sequential-composition rule per directed link. A
//! [`LinkFaultProcess`] draws per-link renewal chains exactly like the node
//! process, and [`LinkFault::partition`] materializes a network partition —
//! every cross link between two node groups down, both directions, for one
//! window. [`FaultSchedule::validate`] reports a violation of either
//! domain as one typed [`FaultScheduleError`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use npu_sim::{Cycles, NpuConfig};

/// Floor on sampled exponential gaps, in milliseconds (see
/// [`crate::arrivals`]'s identically named constant).
const MIN_GAP_MS: f64 = 1e-9;

/// What a fault window does to the node it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node crashes: resident tasks are salvaged at their last
    /// checkpoint boundary (non-checkpointed progress is lost) and the node
    /// is down for the window.
    Crash,
    /// The node freezes (straggler window): resident tasks stay in place
    /// but make no progress until the window ends.
    Freeze,
    /// The node degrades (soft straggler window): it keeps executing, but
    /// its clock runs at `speed_num / speed_den` of nominal speed until the
    /// window ends. Slowdown only: `0 < speed_num <= speed_den`.
    Degrade {
        /// Numerator of the degraded speed fraction.
        speed_num: u32,
        /// Denominator of the degraded speed fraction.
        speed_den: u32,
    },
}

impl FaultKind {
    /// A short stable label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Freeze => "freeze",
            FaultKind::Degrade { .. } => "degrade",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One node-scoped fault window on the cluster's global timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFault {
    /// The node the fault strikes.
    pub node: usize,
    /// When the fault begins (global cycles).
    pub start: Cycles,
    /// When the node recovers (global cycles); strictly after `start`.
    pub end: Cycles,
    /// Crash or freeze.
    pub kind: FaultKind,
}

impl NodeFault {
    /// The window's length in cycles.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// What a link-fault window does to the directed link it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkFaultKind {
    /// The link is down: no transfer can start on it, and a transfer in
    /// flight when the window opens is lost (the custody layer redirects
    /// it).
    Down,
    /// The link's bandwidth is throttled to `bandwidth_num /
    /// bandwidth_den` of nominal for the window. Slowdown only:
    /// `0 < bandwidth_num <= bandwidth_den`. Transfers launched inside the
    /// window are priced at the throttled rate.
    Degraded {
        /// Numerator of the degraded bandwidth fraction.
        bandwidth_num: u32,
        /// Denominator of the degraded bandwidth fraction.
        bandwidth_den: u32,
    },
}

impl LinkFaultKind {
    /// A short stable label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            LinkFaultKind::Down => "link-down",
            LinkFaultKind::Degraded { .. } => "link-degraded",
        }
    }
}

impl std::fmt::Display for LinkFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One fault window on a *directed* interconnect link. A symmetric outage
/// is two windows, one per direction; a partition is the full cross
/// product (see [`LinkFault::partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// The sending side of the directed link.
    pub from: usize,
    /// The receiving side of the directed link.
    pub to: usize,
    /// When the window begins (global cycles).
    pub start: Cycles,
    /// When the link recovers (global cycles); strictly after `start`.
    pub end: Cycles,
    /// Down or degraded bandwidth.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    /// The window's length in cycles.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }

    /// A network partition: every directed link between the `left` and
    /// `right` node groups is down for `[start, end)`, both directions.
    /// Links *within* each group stay up.
    ///
    /// # Panics
    ///
    /// Panics if the groups share a node, either group is empty, or the
    /// window is empty.
    pub fn partition(
        left: &[usize],
        right: &[usize],
        start: Cycles,
        end: Cycles,
    ) -> Vec<LinkFault> {
        assert!(
            !left.is_empty() && !right.is_empty(),
            "a partition needs two non-empty groups"
        );
        assert!(end > start, "a partition window must have positive length");
        assert!(
            left.iter().all(|node| !right.contains(node)),
            "partition groups must be disjoint"
        );
        let mut links = Vec::with_capacity(left.len() * right.len() * 2);
        for &a in left {
            for &b in right {
                for (from, to) in [(a, b), (b, a)] {
                    links.push(LinkFault {
                        from,
                        to,
                        start,
                        end,
                        kind: LinkFaultKind::Down,
                    });
                }
            }
        }
        links.sort_by_key(|l| (l.start, l.from, l.to));
        links
    }
}

/// A violation of the [`FaultSchedule`] invariants.
///
/// Overlap on one node is split into two variants so that mixed-kind
/// composition mistakes (a crash window nested inside a degrade window,
/// say) surface with a message that names the rule being broken: windows
/// compose *sequentially*, never by nesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScheduleError {
    /// Events are not sorted by `(start, node)`.
    Unsorted,
    /// A window has `end <= start`.
    EmptyWindow {
        /// Index of the offending event in the schedule.
        index: usize,
        /// Node the window names.
        node: usize,
    },
    /// A degrade window names an invalid speed fraction (`speed_num` must
    /// satisfy `0 < speed_num <= speed_den`).
    InvalidDegradeSpeed {
        /// Index of the offending event in the schedule.
        index: usize,
        /// Node the window names.
        node: usize,
    },
    /// Two windows of the *same* kind overlap on one node.
    OverlappingWindows {
        /// Node with the overlapping pair.
        node: usize,
    },
    /// Two windows of *different* kinds overlap on one node — nesting (for
    /// example crash-inside-degrade) is not a supported composition; split
    /// the outer window instead.
    MixedKindOverlap {
        /// Node with the overlapping pair.
        node: usize,
    },
    /// Link windows are not sorted by `(start, from, to)`.
    LinksUnsorted,
    /// A link window has `end <= start`.
    EmptyLinkWindow {
        /// Index of the offending link window.
        index: usize,
        /// Sending side of the link it names.
        from: usize,
        /// Receiving side of the link it names.
        to: usize,
    },
    /// A link window names a node's link to itself — local handoffs never
    /// cross the fabric, so a self-link cannot fault.
    SelfLink {
        /// Index of the offending link window.
        index: usize,
        /// The node named on both sides.
        node: usize,
    },
    /// A degraded-bandwidth window names an invalid fraction
    /// (`bandwidth_num` must satisfy `0 < bandwidth_num <= bandwidth_den`).
    InvalidBandwidthScale {
        /// Index of the offending link window.
        index: usize,
        /// Sending side of the link it names.
        from: usize,
        /// Receiving side of the link it names.
        to: usize,
    },
    /// Two windows overlap on one directed link — like node windows, link
    /// windows compose sequentially, never by nesting.
    OverlappingLinkWindows {
        /// Sending side of the link with the overlapping pair.
        from: usize,
        /// Receiving side of the link with the overlapping pair.
        to: usize,
    },
}

impl std::fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultScheduleError::Unsorted => f.write_str("events must be sorted by (start, node)"),
            FaultScheduleError::EmptyWindow { index, node } => {
                write!(f, "event {index}: fault window on node {node} is empty")
            }
            FaultScheduleError::InvalidDegradeSpeed { index, node } => write!(
                f,
                "event {index}: degrade window on node {node} needs 0 < speed_num <= speed_den"
            ),
            FaultScheduleError::OverlappingWindows { node } => {
                write!(f, "node {node} has overlapping fault windows")
            }
            FaultScheduleError::MixedKindOverlap { node } => write!(
                f,
                "node {node} has overlapping fault windows of different kinds; \
                 windows compose sequentially — split the outer window instead of nesting"
            ),
            FaultScheduleError::LinksUnsorted => {
                f.write_str("link windows must be sorted by (start, from, to)")
            }
            FaultScheduleError::EmptyLinkWindow { index, from, to } => {
                write!(f, "link window {index}: window on {from}->{to} is empty")
            }
            FaultScheduleError::SelfLink { index, node } => {
                write!(f, "link window {index}: node {node} has no link to itself")
            }
            FaultScheduleError::InvalidBandwidthScale { index, from, to } => write!(
                f,
                "link window {index}: degraded window on {from}->{to} needs \
                 0 < bandwidth_num <= bandwidth_den"
            ),
            FaultScheduleError::OverlappingLinkWindows { from, to } => {
                write!(f, "link {from}->{to} has overlapping fault windows")
            }
        }
    }
}

impl std::error::Error for FaultScheduleError {}

/// A deterministic, time-sorted schedule of node fault windows.
///
/// Invariants (enforced by the generators and checked by
/// [`FaultSchedule::validate`]): events are sorted by `(start, node)`,
/// every window has positive length, degrade windows carry a valid speed
/// fraction, and windows on the *same* node do not overlap — a node is
/// either up, crashed, frozen, or degraded, never two at once. See the
/// module docs for the sequential-composition precedence rule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The node fault windows, sorted by `(start, node)`.
    pub events: Vec<NodeFault>,
    /// The directed-link fault windows, sorted by `(start, from, to)`.
    /// Empty for a perfect fabric — every pre-link schedule composes
    /// unchanged.
    pub links: Vec<LinkFault>,
}

impl FaultSchedule {
    /// A schedule with no faults (the degenerate fault-free driving).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit windows, sorting them into canonical
    /// `(start, node)` order. The link schedule is empty; compose link
    /// windows with [`FaultSchedule::with_links`].
    ///
    /// # Panics
    ///
    /// Panics if the windows violate the schedule invariants (empty
    /// windows, or overlapping windows on one node).
    pub fn from_events(mut events: Vec<NodeFault>) -> Self {
        events.sort_by_key(|e| (e.start, e.node));
        let schedule = FaultSchedule {
            events,
            links: Vec::new(),
        };
        if let Err(msg) = schedule.validate() {
            panic!("invalid FaultSchedule: {msg}");
        }
        schedule
    }

    /// Replaces the link-fault windows, sorting them into canonical
    /// `(start, from, to)` order. Node and link windows are independent
    /// fault domains, so any valid link set composes with any valid node
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the link windows violate the schedule invariants (empty
    /// or self-link windows, invalid bandwidth scales, or overlapping
    /// windows on one directed link).
    pub fn with_links(mut self, mut links: Vec<LinkFault>) -> Self {
        links.sort_by_key(|l| (l.start, l.from, l.to));
        self.links = links;
        if let Err(msg) = self.validate() {
            panic!("invalid FaultSchedule: {msg}");
        }
        self
    }

    /// Whether the schedule contains no fault windows of either domain.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.links.is_empty()
    }

    /// Number of node fault windows.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Validates the schedule invariants over both fault domains.
    ///
    /// # Errors
    ///
    /// Returns the first violation found. Mixed-kind overlap on one node
    /// reports [`FaultScheduleError::MixedKindOverlap`] so the no-nesting
    /// precedence rule (see the module docs) is named explicitly; link
    /// windows are checked per directed link with the same
    /// sequential-composition rule.
    pub fn validate(&self) -> Result<(), FaultScheduleError> {
        for pair in self.events.windows(2) {
            if (pair[0].start, pair[0].node) > (pair[1].start, pair[1].node) {
                return Err(FaultScheduleError::Unsorted);
            }
        }
        for (i, event) in self.events.iter().enumerate() {
            if event.end <= event.start {
                return Err(FaultScheduleError::EmptyWindow {
                    index: i,
                    node: event.node,
                });
            }
            if let FaultKind::Degrade {
                speed_num,
                speed_den,
            } = event.kind
            {
                if speed_num == 0 || speed_num > speed_den {
                    return Err(FaultScheduleError::InvalidDegradeSpeed {
                        index: i,
                        node: event.node,
                    });
                }
            }
            for later in &self.events[i + 1..] {
                if later.node == event.node && later.start < event.end {
                    return Err(if later.kind == event.kind {
                        FaultScheduleError::OverlappingWindows { node: event.node }
                    } else {
                        FaultScheduleError::MixedKindOverlap { node: event.node }
                    });
                }
            }
        }
        for pair in self.links.windows(2) {
            if (pair[0].start, pair[0].from, pair[0].to) > (pair[1].start, pair[1].from, pair[1].to)
            {
                return Err(FaultScheduleError::LinksUnsorted);
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if link.from == link.to {
                return Err(FaultScheduleError::SelfLink {
                    index: i,
                    node: link.from,
                });
            }
            if link.end <= link.start {
                return Err(FaultScheduleError::EmptyLinkWindow {
                    index: i,
                    from: link.from,
                    to: link.to,
                });
            }
            if let LinkFaultKind::Degraded {
                bandwidth_num,
                bandwidth_den,
            } = link.kind
            {
                if bandwidth_num == 0 || bandwidth_num > bandwidth_den {
                    return Err(FaultScheduleError::InvalidBandwidthScale {
                        index: i,
                        from: link.from,
                        to: link.to,
                    });
                }
            }
            for later in &self.links[i + 1..] {
                if later.from == link.from && later.to == link.to && later.start < link.end {
                    return Err(FaultScheduleError::OverlappingLinkWindows {
                        from: link.from,
                        to: link.to,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A seeded renewal fault process: the generator of [`FaultSchedule`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProcess {
    /// Number of nodes the process covers (faults strike nodes `0..nodes`).
    pub nodes: usize,
    /// Mean up-time between consecutive fault windows on one node, in
    /// milliseconds (the node-level MTBF).
    pub mtbf_ms: f64,
    /// Mean length of one fault window, in milliseconds.
    pub mean_downtime_ms: f64,
    /// Fraction of fault windows that are freezes instead of crashes, in
    /// `[0, 1]`.
    pub freeze_fraction: f64,
    /// Fraction of fault windows that are degrade (throttle) windows, in
    /// `[0, 1]`; `freeze_fraction + degrade_fraction` must not exceed 1.
    pub degrade_fraction: f64,
    /// Numerator of the degraded speed fraction drawn for degrade windows.
    pub degrade_speed_num: u32,
    /// Denominator of the degraded speed fraction drawn for degrade
    /// windows; `0 < degrade_speed_num <= degrade_speed_den`.
    pub degrade_speed_den: u32,
    /// Faults start inside `[0, duration_ms)`; a window that starts inside
    /// the horizon may end past it.
    pub duration_ms: f64,
}

impl FaultProcess {
    /// A crash-only process — the configuration the recovery-policy sweep
    /// drives.
    pub fn crashes(nodes: usize, mtbf_ms: f64, mean_downtime_ms: f64, duration_ms: f64) -> Self {
        FaultProcess {
            nodes,
            mtbf_ms,
            mean_downtime_ms,
            freeze_fraction: 0.0,
            degrade_fraction: 0.0,
            degrade_speed_num: 1,
            degrade_speed_den: 2,
            duration_ms,
        }
    }

    /// Sets the freeze fraction, keeping the rest of the process.
    pub fn with_freeze_fraction(mut self, freeze_fraction: f64) -> Self {
        self.freeze_fraction = freeze_fraction;
        self
    }

    /// Sets the degrade fraction and the degraded speed `num / den` drawn
    /// for those windows, keeping the rest of the process.
    pub fn with_degradation(mut self, degrade_fraction: f64, num: u32, den: u32) -> Self {
        self.degrade_fraction = degrade_fraction;
        self.degrade_speed_num = num;
        self.degrade_speed_den = den;
        self
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("at least one node is required".into());
        }
        let positive = |value: f64, what: &str| -> Result<(), String> {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{what} must be positive and finite"));
            }
            Ok(())
        };
        positive(self.mtbf_ms, "MTBF")?;
        positive(self.mean_downtime_ms, "mean downtime")?;
        positive(self.duration_ms, "duration")?;
        if !self.freeze_fraction.is_finite() || !(0.0..=1.0).contains(&self.freeze_fraction) {
            return Err("freeze fraction must be within [0, 1]".into());
        }
        if !self.degrade_fraction.is_finite() || !(0.0..=1.0).contains(&self.degrade_fraction) {
            return Err("degrade fraction must be within [0, 1]".into());
        }
        if self.freeze_fraction + self.degrade_fraction > 1.0 {
            return Err("freeze and degrade fractions must sum to at most 1".into());
        }
        if self.degrade_speed_num == 0 || self.degrade_speed_num > self.degrade_speed_den {
            return Err("degrade speed needs 0 < num <= den (slowdown only)".into());
        }
        Ok(())
    }

    /// Samples one fault schedule from the seeded RNG.
    ///
    /// Per node, in node order, one sequential renewal chain: up-time ~
    /// Exp(`mtbf_ms`), then a window ~ Exp(`mean_downtime_ms`) whose kind
    /// is picked by one uniform draw (freeze below `freeze_fraction`,
    /// degrade in the next `degrade_fraction`, crash otherwise — so streams
    /// with `degrade_fraction == 0` are bit-identical to pre-degrade ones),
    /// repeating until the next
    /// window would start at or past `duration_ms`. Times convert to cycles
    /// on the Table I timeline (like the arrival streams), so schedules are
    /// reproducible independent of the simulated NPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultSchedule {
        if let Err(msg) = self.validate() {
            panic!("invalid FaultProcess: {msg}");
        }
        let timeline = NpuConfig::paper_default();
        let mut events = Vec::new();
        for node in 0..self.nodes {
            let mut t_ms = 0.0;
            loop {
                t_ms += exp_sample(self.mtbf_ms, rng);
                if t_ms >= self.duration_ms {
                    break;
                }
                let window_ms = exp_sample(self.mean_downtime_ms, rng);
                let u: f64 = rng.gen();
                let kind = if u < self.freeze_fraction {
                    FaultKind::Freeze
                } else if u < self.freeze_fraction + self.degrade_fraction {
                    FaultKind::Degrade {
                        speed_num: self.degrade_speed_num,
                        speed_den: self.degrade_speed_den,
                    }
                } else {
                    FaultKind::Crash
                };
                let start = timeline.millis_to_cycles(t_ms);
                // A window shorter than one cycle still occupies one: the
                // schedule invariant requires strictly positive windows.
                let end = timeline.millis_to_cycles(t_ms + window_ms).max(start) + Cycles::new(1);
                events.push(NodeFault {
                    node,
                    start,
                    end,
                    kind,
                });
                t_ms += window_ms;
            }
        }
        FaultSchedule::from_events(events)
    }
}

/// A seeded renewal process over the *directed links* of a full-mesh
/// fabric: the generator of [`LinkFault`] windows, the link-side sibling of
/// [`FaultProcess`].
///
/// Each of the `nodes * (nodes - 1)` directed links draws one sequential
/// renewal chain — up-time ~ Exp(`link_mtbf_ms`), window ~
/// Exp(`mean_outage_ms`), one uniform draw picking the kind (degraded
/// below `degraded_fraction`, down otherwise) — links in `(from, to)`
/// lexicographic order, so a replayed seed sees a bit-identical schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultProcess {
    /// Number of nodes; windows strike every directed pair among them.
    pub nodes: usize,
    /// Mean up-time between consecutive fault windows on one directed
    /// link, in milliseconds (the link-level MTBF).
    pub link_mtbf_ms: f64,
    /// Mean length of one link fault window, in milliseconds.
    pub mean_outage_ms: f64,
    /// Fraction of windows that throttle bandwidth instead of taking the
    /// link down, in `[0, 1]`.
    pub degraded_fraction: f64,
    /// Numerator of the degraded bandwidth fraction drawn for degraded
    /// windows.
    pub bandwidth_num: u32,
    /// Denominator of the degraded bandwidth fraction;
    /// `0 < bandwidth_num <= bandwidth_den`.
    pub bandwidth_den: u32,
    /// Windows start inside `[0, duration_ms)`; one that starts inside the
    /// horizon may end past it.
    pub duration_ms: f64,
}

impl LinkFaultProcess {
    /// An outage-only process (every window takes its link down).
    pub fn outages(nodes: usize, link_mtbf_ms: f64, mean_outage_ms: f64, duration_ms: f64) -> Self {
        LinkFaultProcess {
            nodes,
            link_mtbf_ms,
            mean_outage_ms,
            degraded_fraction: 0.0,
            bandwidth_num: 1,
            bandwidth_den: 4,
            duration_ms,
        }
    }

    /// Sets the degraded fraction and the throttled bandwidth `num / den`
    /// drawn for those windows, keeping the rest of the process.
    pub fn with_degraded(mut self, degraded_fraction: f64, num: u32, den: u32) -> Self {
        self.degraded_fraction = degraded_fraction;
        self.bandwidth_num = num;
        self.bandwidth_den = den;
        self
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("a link process needs at least two nodes".into());
        }
        let positive = |value: f64, what: &str| -> Result<(), String> {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{what} must be positive and finite"));
            }
            Ok(())
        };
        positive(self.link_mtbf_ms, "link MTBF")?;
        positive(self.mean_outage_ms, "mean outage")?;
        positive(self.duration_ms, "duration")?;
        if !self.degraded_fraction.is_finite() || !(0.0..=1.0).contains(&self.degraded_fraction) {
            return Err("degraded fraction must be within [0, 1]".into());
        }
        if self.bandwidth_num == 0 || self.bandwidth_num > self.bandwidth_den {
            return Err("degraded bandwidth needs 0 < num <= den (slowdown only)".into());
        }
        Ok(())
    }

    /// Samples one link-fault window set from the seeded RNG, in canonical
    /// `(start, from, to)` order, ready for [`FaultSchedule::with_links`].
    /// Times convert to cycles on the Table I timeline like every other
    /// generator, so schedules are reproducible independent of the
    /// simulated NPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<LinkFault> {
        if let Err(msg) = self.validate() {
            panic!("invalid LinkFaultProcess: {msg}");
        }
        let timeline = NpuConfig::paper_default();
        let mut links = Vec::new();
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                if from == to {
                    continue;
                }
                let mut t_ms = 0.0;
                loop {
                    t_ms += exp_sample(self.link_mtbf_ms, rng);
                    if t_ms >= self.duration_ms {
                        break;
                    }
                    let window_ms = exp_sample(self.mean_outage_ms, rng);
                    let u: f64 = rng.gen();
                    let kind = if u < self.degraded_fraction {
                        LinkFaultKind::Degraded {
                            bandwidth_num: self.bandwidth_num,
                            bandwidth_den: self.bandwidth_den,
                        }
                    } else {
                        LinkFaultKind::Down
                    };
                    let start = timeline.millis_to_cycles(t_ms);
                    let end =
                        timeline.millis_to_cycles(t_ms + window_ms).max(start) + Cycles::new(1);
                    links.push(LinkFault {
                        from,
                        to,
                        start,
                        end,
                        kind,
                    });
                    t_ms += window_ms;
                }
            }
        }
        links.sort_by_key(|l| (l.start, l.from, l.to));
        links
    }
}

/// Draws one exponential gap with the given mean via inverse-CDF sampling.
fn exp_sample<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() * mean).max(MIN_GAP_MS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic_and_canonical() {
        let process = FaultProcess::crashes(4, 50.0, 10.0, 400.0).with_freeze_fraction(0.3);
        let a = process.generate(&mut StdRng::seed_from_u64(7));
        let b = process.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_ne!(a, process.generate(&mut StdRng::seed_from_u64(8)));
        assert!(!a.is_empty());
        assert!(a.validate().is_ok());
        // Both kinds appear at a 30% freeze fraction over ~20+ windows.
        assert!(a.events.iter().any(|e| e.kind == FaultKind::Crash));
        assert!(a.events.iter().any(|e| e.kind == FaultKind::Freeze));
        let horizon = NpuConfig::paper_default().millis_to_cycles(400.0);
        for event in &a.events {
            assert!(event.node < 4);
            assert!(event.start < horizon);
            assert!(event.end > event.start);
        }
    }

    #[test]
    fn fault_count_tracks_the_renewal_rate() {
        let process = FaultProcess::crashes(8, 40.0, 10.0, 2000.0);
        let mut total = 0usize;
        for seed in 0..4 {
            total += process.generate(&mut StdRng::seed_from_u64(seed)).len();
        }
        let mean = total as f64 / 4.0;
        // Each of the 8 nodes renews about every mtbf + downtime = 50 ms.
        let expected = 8.0 * 2000.0 / (40.0 + 10.0);
        assert!(
            (mean - expected).abs() < 0.25 * expected,
            "mean fault count {mean} vs expected {expected}"
        );
    }

    #[test]
    fn per_node_windows_never_overlap() {
        let process = FaultProcess::crashes(3, 5.0, 20.0, 500.0).with_freeze_fraction(0.5);
        let schedule = process.generate(&mut StdRng::seed_from_u64(42));
        assert!(schedule.validate().is_ok());
    }

    #[test]
    fn from_events_sorts_into_canonical_order() {
        let schedule = FaultSchedule::from_events(vec![
            NodeFault {
                node: 1,
                start: Cycles::new(500),
                end: Cycles::new(600),
                kind: FaultKind::Freeze,
            },
            NodeFault {
                node: 0,
                start: Cycles::new(100),
                end: Cycles::new(900),
                kind: FaultKind::Crash,
            },
        ]);
        assert_eq!(schedule.events[0].node, 0);
        assert_eq!(schedule.len(), 2);
        assert!(!schedule.is_empty());
        assert!(FaultSchedule::none().is_empty());
        assert_eq!(schedule.events[0].duration(), Cycles::new(800));
        assert_eq!(FaultKind::Crash.to_string(), "crash");
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_windows_on_one_node_are_rejected() {
        let _ = FaultSchedule::from_events(vec![
            NodeFault {
                node: 0,
                start: Cycles::new(100),
                end: Cycles::new(900),
                kind: FaultKind::Crash,
            },
            NodeFault {
                node: 0,
                start: Cycles::new(500),
                end: Cycles::new(600),
                kind: FaultKind::Freeze,
            },
        ]);
    }

    #[test]
    fn degrade_windows_are_drawn_and_validated() {
        let process = FaultProcess::crashes(4, 20.0, 8.0, 600.0).with_degradation(0.6, 1, 4);
        let schedule = process.generate(&mut StdRng::seed_from_u64(11));
        assert!(schedule.validate().is_ok());
        assert!(schedule.events.iter().any(|e| matches!(
            e.kind,
            FaultKind::Degrade {
                speed_num: 1,
                speed_den: 4
            }
        )));
        assert!(schedule.events.iter().any(|e| e.kind == FaultKind::Crash));
        assert_eq!(
            FaultKind::Degrade {
                speed_num: 1,
                speed_den: 4
            }
            .to_string(),
            "degrade"
        );
    }

    #[test]
    fn degrade_free_streams_are_bit_identical_to_pre_degrade_draws() {
        // degrade_fraction == 0 must consume the RNG exactly as before the
        // degrade kind existed: one uniform per window.
        let base = FaultProcess::crashes(3, 15.0, 5.0, 300.0).with_freeze_fraction(0.4);
        let with_zero_degrade = base.clone().with_degradation(0.0, 1, 8);
        assert_eq!(
            base.generate(&mut StdRng::seed_from_u64(99)),
            with_zero_degrade.generate(&mut StdRng::seed_from_u64(99)),
        );
    }

    #[test]
    fn mixed_kind_overlap_gets_its_dedicated_error() {
        let make = |kind0: FaultKind, kind1: FaultKind| FaultSchedule {
            events: vec![
                NodeFault {
                    node: 2,
                    start: Cycles::new(100),
                    end: Cycles::new(900),
                    kind: kind0,
                },
                NodeFault {
                    node: 2,
                    start: Cycles::new(500),
                    end: Cycles::new(600),
                    kind: kind1,
                },
            ],
            links: Vec::new(),
        };
        let degrade = FaultKind::Degrade {
            speed_num: 1,
            speed_den: 2,
        };
        assert_eq!(
            make(degrade, FaultKind::Crash).validate(),
            Err(FaultScheduleError::MixedKindOverlap { node: 2 })
        );
        assert_eq!(
            make(FaultKind::Crash, FaultKind::Crash).validate(),
            Err(FaultScheduleError::OverlappingWindows { node: 2 })
        );
        // Both overlap errors say "overlapping"; only the mixed one names
        // the no-nesting rule.
        let mixed = FaultScheduleError::MixedKindOverlap { node: 2 }.to_string();
        assert!(mixed.contains("overlapping") && mixed.contains("split"));
    }

    #[test]
    fn invalid_degrade_speeds_are_rejected() {
        let event = |num, den| NodeFault {
            node: 0,
            start: Cycles::new(10),
            end: Cycles::new(20),
            kind: FaultKind::Degrade {
                speed_num: num,
                speed_den: den,
            },
        };
        for (num, den) in [(0, 2), (3, 2)] {
            assert_eq!(
                FaultSchedule {
                    events: vec![event(num, den)],
                    links: Vec::new(),
                }
                .validate(),
                Err(FaultScheduleError::InvalidDegradeSpeed { index: 0, node: 0 })
            );
        }
        assert!(FaultSchedule {
            events: vec![event(2, 2)],
            links: Vec::new(),
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn link_generation_is_deterministic_and_canonical() {
        let process = LinkFaultProcess::outages(3, 40.0, 8.0, 400.0).with_degraded(0.3, 1, 4);
        let a = process.generate(&mut StdRng::seed_from_u64(5));
        let b = process.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_ne!(a, process.generate(&mut StdRng::seed_from_u64(6)));
        assert!(!a.is_empty());
        let schedule = FaultSchedule::none().with_links(a.clone());
        assert!(schedule.validate().is_ok());
        assert!(!schedule.is_empty());
        assert_eq!(
            schedule.len(),
            0,
            "link windows do not count as node windows"
        );
        assert!(a.iter().any(|l| l.kind == LinkFaultKind::Down));
        assert!(a
            .iter()
            .any(|l| matches!(l.kind, LinkFaultKind::Degraded { .. })));
        for link in &a {
            assert!(link.from < 3 && link.to < 3 && link.from != link.to);
            assert!(link.duration() > Cycles::ZERO);
        }
        assert_eq!(LinkFaultKind::Down.to_string(), "link-down");
    }

    #[test]
    fn link_count_tracks_the_renewal_rate() {
        let process = LinkFaultProcess::outages(4, 30.0, 6.0, 1500.0);
        let mut total = 0usize;
        for seed in 0..4 {
            total += process.generate(&mut StdRng::seed_from_u64(seed)).len();
        }
        let mean = total as f64 / 4.0;
        // Each of the 4 x 3 directed links renews about every
        // link_mtbf + outage = 36 ms.
        let expected = 12.0 * 1500.0 / (30.0 + 6.0);
        assert!(
            (mean - expected).abs() < 0.25 * expected,
            "mean link fault count {mean} vs expected {expected}"
        );
    }

    #[test]
    fn partition_downs_every_cross_link_both_directions() {
        let links = LinkFault::partition(&[0, 1], &[2], Cycles::new(100), Cycles::new(900));
        assert_eq!(links.len(), 4);
        for (a, b) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            assert!(
                links
                    .iter()
                    .any(|l| l.from == a && l.to == b && l.kind == LinkFaultKind::Down),
                "missing {a}->{b}"
            );
        }
        // Intra-group links are untouched.
        assert!(!links.iter().any(|l| l.from == 0 && l.to == 1));
        // Composes with node faults in one schedule.
        let schedule = FaultSchedule::from_events(vec![NodeFault {
            node: 2,
            start: Cycles::new(50),
            end: Cycles::new(60),
            kind: FaultKind::Crash,
        }])
        .with_links(links);
        assert!(schedule.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn partition_rejects_overlapping_groups() {
        let _ = LinkFault::partition(&[0, 1], &[1, 2], Cycles::new(0), Cycles::new(10));
    }

    #[test]
    fn link_schedule_invariants_are_enforced() {
        let link = |from, to, start: u64, end: u64, kind| LinkFault {
            from,
            to,
            start: Cycles::new(start),
            end: Cycles::new(end),
            kind,
        };
        let of = |links: Vec<LinkFault>| FaultSchedule {
            events: Vec::new(),
            links,
        };
        assert_eq!(
            of(vec![link(0, 0, 10, 20, LinkFaultKind::Down)]).validate(),
            Err(FaultScheduleError::SelfLink { index: 0, node: 0 })
        );
        assert_eq!(
            of(vec![link(0, 1, 20, 20, LinkFaultKind::Down)]).validate(),
            Err(FaultScheduleError::EmptyLinkWindow {
                index: 0,
                from: 0,
                to: 1
            })
        );
        assert_eq!(
            of(vec![link(
                0,
                1,
                10,
                20,
                LinkFaultKind::Degraded {
                    bandwidth_num: 3,
                    bandwidth_den: 2
                }
            )])
            .validate(),
            Err(FaultScheduleError::InvalidBandwidthScale {
                index: 0,
                from: 0,
                to: 1
            })
        );
        assert_eq!(
            of(vec![
                link(0, 1, 10, 50, LinkFaultKind::Down),
                link(0, 1, 30, 60, LinkFaultKind::Down)
            ])
            .validate(),
            Err(FaultScheduleError::OverlappingLinkWindows { from: 0, to: 1 })
        );
        assert_eq!(
            of(vec![
                link(0, 2, 30, 60, LinkFaultKind::Down),
                link(0, 1, 10, 50, LinkFaultKind::Down)
            ])
            .validate(),
            Err(FaultScheduleError::LinksUnsorted)
        );
        // Same window on two different links is fine.
        assert!(of(vec![
            link(0, 1, 10, 50, LinkFaultKind::Down),
            link(1, 0, 10, 50, LinkFaultKind::Down)
        ])
        .validate()
        .is_ok());
    }

    #[test]
    fn link_process_validation_errors_cover_each_field() {
        let base = LinkFaultProcess::outages(3, 10.0, 5.0, 100.0);
        assert!(base.validate().is_ok());
        let cases = [
            LinkFaultProcess {
                nodes: 1,
                ..base.clone()
            },
            LinkFaultProcess {
                link_mtbf_ms: 0.0,
                ..base.clone()
            },
            LinkFaultProcess {
                mean_outage_ms: -1.0,
                ..base.clone()
            },
            LinkFaultProcess {
                duration_ms: f64::NAN,
                ..base.clone()
            },
            LinkFaultProcess {
                degraded_fraction: 1.5,
                ..base.clone()
            },
            LinkFaultProcess {
                bandwidth_num: 0,
                ..base.clone()
            },
            LinkFaultProcess {
                bandwidth_num: 5,
                bandwidth_den: 4,
                ..base.clone()
            },
        ];
        for case in cases {
            assert!(case.validate().is_err(), "{case:?}");
        }
    }

    #[test]
    fn validation_errors_cover_each_field() {
        let base = FaultProcess::crashes(2, 10.0, 5.0, 100.0);
        assert!(base.validate().is_ok());
        let cases = [
            FaultProcess {
                nodes: 0,
                ..base.clone()
            },
            FaultProcess {
                mtbf_ms: 0.0,
                ..base.clone()
            },
            FaultProcess {
                mean_downtime_ms: -1.0,
                ..base.clone()
            },
            FaultProcess {
                duration_ms: f64::NAN,
                ..base.clone()
            },
            FaultProcess {
                freeze_fraction: 1.5,
                ..base.clone()
            },
            FaultProcess {
                degrade_fraction: -0.1,
                ..base.clone()
            },
            FaultProcess {
                freeze_fraction: 0.7,
                degrade_fraction: 0.7,
                ..base.clone()
            },
            FaultProcess {
                degrade_fraction: 0.5,
                degrade_speed_num: 0,
                ..base.clone()
            },
            FaultProcess {
                degrade_fraction: 0.5,
                degrade_speed_num: 3,
                degrade_speed_den: 2,
                ..base.clone()
            },
        ];
        for case in cases {
            assert!(case.validate().is_err(), "{case:?}");
        }
    }
}
