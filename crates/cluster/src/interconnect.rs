//! The priced cluster interconnect: what moving checkpointed context
//! between nodes costs, and which links can carry it at all.
//!
//! Crash recovery re-dispatches salvaged tasks for free — the crash
//! already paid the data loss, and the restore DMA is priced by the
//! engine's [`npu_sim::CheckpointModel`]. Proactive *migration* is
//! different: evacuating a live task off a straggler ships its checkpoint
//! context across the cluster fabric, and whether the move beats staying
//! depends directly on how expensive that shipment is. The fabric is the
//! deliberately simple deterministic model the migration arbiter prices
//! against: every ordered node pair is a link with the fixed propagation
//! latency [`LINK_LATENCY_CYCLES`] and the fixed bandwidth
//! [`LINK_BYTES_PER_CYCLE`], and a transfer of `bytes` over a healthy link
//! costs `latency + ceil(bytes / bytes_per_cycle)` cycles. Integer
//! arithmetic only, so the bit-identity contract extends over priced
//! transfers.
//!
//! The fabric is also a *fault domain*:
//! [`LinkTopology`] overlays the uniform cost model with the
//! [`prema_workload::LinkFault`] windows of the driving's fault schedule.
//! Each closed-loop run builds one topology, which the fault and migration
//! drivers both read. Transfer decisions query it at decision time — a
//! down link makes the destination unreachable (rejected up front, before
//! pricing), and a degraded-bandwidth window stretches the serialization
//! term by the window's `den / num` factor. Because the schedule is known
//! offline, a transfer's *fate* is also computable at launch:
//! [`LinkTopology::first_down_within`] reports the instant a mid-flight
//! link drop would lose the payload, which the custody layer turns into a
//! deterministic timeout event on the shared cluster timeline.

use std::collections::HashMap;

use npu_sim::Cycles;
use prema_workload::faults::{LinkFault, LinkFaultKind};

/// Fixed per-transfer propagation latency of every link, in cycles (about
/// 2.9 µs at the paper NPU's 700 MHz). Paid once per transfer regardless
/// of size — the term that makes tiny checkpoints not free to move.
pub const LINK_LATENCY_CYCLES: u64 = 2_000;

/// Nominal bandwidth of every link, in checkpoint bytes moved per cycle (a
/// PCIe-class fabric). The serialization term of a healthy transfer is
/// `ceil(bytes / LINK_BYTES_PER_CYCLE)`.
pub const LINK_BYTES_PER_CYCLE: u64 = 16;

// A zero bandwidth could never transfer, and a zero latency would deliver
// a transfer at its own decision instant (a same-instant event cycle).
const _: () = assert!(LINK_LATENCY_CYCLES > 0 && LINK_BYTES_PER_CYCLE > 0);

/// One directed link's state at a queried instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// The link is healthy: transfers launch at nominal bandwidth.
    Up,
    /// The link is down until the given instant: no transfer can launch,
    /// and the destination is unreachable over this link.
    Down {
        /// When the outage window ends.
        until: Cycles,
    },
    /// The link's bandwidth is throttled to `num / den` of nominal until
    /// the given instant.
    Degraded {
        /// Numerator of the bandwidth fraction.
        num: u32,
        /// Denominator of the bandwidth fraction.
        den: u32,
        /// When the degraded window ends.
        until: Cycles,
    },
}

/// The per-directed-link fault overlay the transfer decisions query: the
/// driving's [`LinkFault`] windows, indexed by link and binary-searchable
/// by time. An empty topology is the perfect fabric every pre-link
/// configuration implies, and costs nothing to consult.
///
/// Windows are half-open `[start, end)`, matching the node-fault
/// convention: a transfer landing exactly at a down window's start finds
/// the link already down.
#[derive(Debug, Clone, Default)]
pub struct LinkTopology {
    /// Per directed link, that link's windows sorted by start (the
    /// schedule invariant guarantees disjointness per link).
    windows: HashMap<(usize, usize), Vec<LinkFault>>,
}

impl LinkTopology {
    /// Indexes a validated link-fault window set (canonical schedule
    /// order) by directed link.
    pub fn new(links: &[LinkFault]) -> Self {
        let mut windows: HashMap<(usize, usize), Vec<LinkFault>> = HashMap::new();
        for link in links {
            windows.entry((link.from, link.to)).or_default().push(*link);
        }
        for per_link in windows.values_mut() {
            per_link.sort_by_key(|l| l.start);
        }
        LinkTopology { windows }
    }

    /// Whether the topology carries no fault windows at all (the perfect
    /// fabric).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The state of the directed link `from -> to` at instant `t`. A
    /// node's link to itself is always [`LinkState::Up`] — local handoffs
    /// never cross the fabric.
    pub fn status(&self, from: usize, to: usize, t: Cycles) -> LinkState {
        if from == to {
            return LinkState::Up;
        }
        let Some(per_link) = self.windows.get(&(from, to)) else {
            return LinkState::Up;
        };
        // Last window with start <= t; windows per link are disjoint.
        let idx = per_link.partition_point(|w| w.start <= t);
        if idx == 0 {
            return LinkState::Up;
        }
        let window = &per_link[idx - 1];
        if t >= window.end {
            return LinkState::Up;
        }
        match window.kind {
            LinkFaultKind::Down => LinkState::Down { until: window.end },
            LinkFaultKind::Degraded {
                bandwidth_num,
                bandwidth_den,
            } => LinkState::Degraded {
                num: bandwidth_num,
                den: bandwidth_den,
                until: window.end,
            },
        }
    }

    /// Whether a transfer can *launch* from `from` to `to` at instant `t`
    /// (the link is not down). Degraded links are reachable — just slower.
    pub fn reachable(&self, from: usize, to: usize, t: Cycles) -> bool {
        !matches!(self.status(from, to, t), LinkState::Down { .. })
    }

    /// The cost of moving `bytes` from `from` to `to` launching at `t`:
    /// `latency + ceil(bytes / bytes_per_cycle)` cycles, with the
    /// serialization term stretched by the link's degraded bandwidth if a
    /// throttle window is active at launch. Returns `None` if the link is
    /// down (the destination is unreachable — callers must reject it up
    /// front, not price it). A self-transfer costs zero: the payload never
    /// crosses the fabric.
    pub fn transfer_cycles(&self, from: usize, to: usize, bytes: u64, t: Cycles) -> Option<Cycles> {
        if from == to {
            return Some(Cycles::ZERO);
        }
        let (num, den) = match self.status(from, to, t) {
            LinkState::Down { .. } => return None,
            LinkState::Up => (1, 1),
            LinkState::Degraded { num, den, .. } => (num, den),
        };
        // Effective bandwidth is bytes_per_cycle * num / den; serialization
        // = ceil(bytes * den / (bpc * num)). Widened arithmetic so large
        // payloads cannot overflow.
        let numer = u128::from(bytes) * u128::from(den);
        let denom = u128::from(LINK_BYTES_PER_CYCLE) * u128::from(num.max(1));
        let serialization = u64::try_from(numer.div_ceil(denom)).unwrap_or(u64::MAX);
        Some(Cycles::new(
            LINK_LATENCY_CYCLES.saturating_add(serialization),
        ))
    }

    /// The first instant in `(after, until]` at which the directed link
    /// `from -> to` goes *down* — the moment a transfer launched at
    /// `after` and landing at `until` would lose its payload mid-flight.
    /// `None` if the link stays up (or merely degrades) for the whole
    /// flight.
    pub fn first_down_within(
        &self,
        from: usize,
        to: usize,
        after: Cycles,
        until: Cycles,
    ) -> Option<Cycles> {
        if from == to {
            return None;
        }
        let per_link = self.windows.get(&(from, to))?;
        per_link
            .iter()
            .filter(|w| w.kind == LinkFaultKind::Down)
            .map(|w| w.start)
            .find(|&start| start > after && start <= until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_latency_plus_ceil_serialization() {
        let fabric = LinkTopology::default();
        let cost = |bytes| fabric.transfer_cycles(0, 1, bytes, Cycles::ZERO);
        assert_eq!(cost(0), Some(Cycles::new(2_000)));
        assert_eq!(cost(1), Some(Cycles::new(2_001)));
        assert_eq!(cost(16), Some(Cycles::new(2_001)));
        assert_eq!(cost(17), Some(Cycles::new(2_002)));
        assert_eq!(cost(1_024), Some(Cycles::new(2_064)));
    }

    fn window(from: usize, to: usize, start: u64, end: u64, kind: LinkFaultKind) -> LinkFault {
        LinkFault {
            from,
            to,
            start: Cycles::new(start),
            end: Cycles::new(end),
            kind,
        }
    }

    #[test]
    fn status_windows_are_half_open_and_directed() {
        let topology = LinkTopology::new(&[
            window(0, 1, 100, 200, LinkFaultKind::Down),
            window(
                0,
                1,
                300,
                400,
                LinkFaultKind::Degraded {
                    bandwidth_num: 1,
                    bandwidth_den: 4,
                },
            ),
        ]);
        assert!(!topology.is_empty());
        assert_eq!(topology.status(0, 1, Cycles::new(99)), LinkState::Up);
        assert_eq!(
            topology.status(0, 1, Cycles::new(100)),
            LinkState::Down {
                until: Cycles::new(200)
            }
        );
        assert_eq!(
            topology.status(0, 1, Cycles::new(199)),
            LinkState::Down {
                until: Cycles::new(200)
            }
        );
        assert_eq!(topology.status(0, 1, Cycles::new(200)), LinkState::Up);
        assert_eq!(
            topology.status(0, 1, Cycles::new(350)),
            LinkState::Degraded {
                num: 1,
                den: 4,
                until: Cycles::new(400)
            }
        );
        // The reverse direction is an independent link.
        assert_eq!(topology.status(1, 0, Cycles::new(150)), LinkState::Up);
        assert!(topology.reachable(1, 0, Cycles::new(150)));
        assert!(!topology.reachable(0, 1, Cycles::new(150)));
        // Self links never fault.
        assert_eq!(topology.status(0, 0, Cycles::new(150)), LinkState::Up);
        assert!(LinkTopology::default().is_empty());
    }

    #[test]
    fn degraded_bandwidth_stretches_the_serialization_term() {
        let topology = LinkTopology::new(&[window(
            0,
            1,
            100,
            200,
            LinkFaultKind::Degraded {
                bandwidth_num: 1,
                bandwidth_den: 4,
            },
        )]);
        // Healthy launch: uniform price.
        assert_eq!(
            topology.transfer_cycles(0, 1, 1_024, Cycles::new(50)),
            Some(Cycles::new(2_000 + 64))
        );
        // Launch inside the throttle window: serialization x4.
        assert_eq!(
            topology.transfer_cycles(0, 1, 1_024, Cycles::new(150)),
            Some(Cycles::new(2_000 + 256))
        );
        // Self transfers never cross the fabric.
        assert_eq!(
            topology.transfer_cycles(1, 1, 1_024, Cycles::new(150)),
            Some(Cycles::ZERO)
        );
        // A down link prices as unreachable.
        let down = LinkTopology::new(&[window(0, 1, 100, 200, LinkFaultKind::Down)]);
        assert_eq!(down.transfer_cycles(0, 1, 1_024, Cycles::new(150)), None);
    }

    #[test]
    fn first_down_within_finds_mid_flight_drops() {
        let topology = LinkTopology::new(&[
            window(
                0,
                1,
                50,
                80,
                LinkFaultKind::Degraded {
                    bandwidth_num: 1,
                    bandwidth_den: 2,
                },
            ),
            window(0, 1, 100, 200, LinkFaultKind::Down),
        ]);
        // Degrade windows never kill a flight; the down window does.
        assert_eq!(
            topology.first_down_within(0, 1, Cycles::new(40), Cycles::new(150)),
            Some(Cycles::new(100))
        );
        // A drop exactly at the landing instant still kills it...
        assert_eq!(
            topology.first_down_within(0, 1, Cycles::new(40), Cycles::new(100)),
            Some(Cycles::new(100))
        );
        // ...but one strictly after the landing does not.
        assert_eq!(
            topology.first_down_within(0, 1, Cycles::new(40), Cycles::new(99)),
            None
        );
        // A window already open at launch is not a *mid-flight* drop (the
        // launch itself would have been rejected).
        assert_eq!(
            topology.first_down_within(0, 1, Cycles::new(100), Cycles::new(300)),
            None
        );
        assert_eq!(
            topology.first_down_within(2, 3, Cycles::new(0), Cycles::new(1_000)),
            None
        );
    }
}
