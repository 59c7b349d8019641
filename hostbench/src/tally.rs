//! The counting sink of the traced run: one tally per cell of the engine
//! and cluster trace events, attached through the public `run_traced`
//! entry points. Every count is a pure function of the inputs, so it
//! repeats exactly from run to run.

use npu_sim::Cycles;
use prema_cluster::{ClusterTraceEvent, ClusterTraceSink, FaultTraceKind};
use prema_core::{TraceEvent, TraceSink};

/// Event counts of one traced cell (or the sum of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Quantum wakeups the event-horizon fast path elided.
    pub quanta_skipped: u64,
    /// Preemptions begun (CHECKPOINT or KILL).
    pub preemptions: u64,
    /// Front-end dispatch decisions, re-dispatches included.
    pub dispatch_decisions: u64,
    /// Work-stealing migrations.
    pub steals: u64,
    /// Admission-control sheds.
    pub sheds: u64,
    /// Crash windows begun.
    pub crashes: u64,
    /// Freeze windows begun.
    pub freezes: u64,
    /// Degrade windows begun.
    pub degrades: u64,
    /// Salvaged tasks re-dispatched.
    pub recoveries: u64,
    /// Checkpoint evacuations launched.
    pub migrations: u64,
    /// Checkpoint bytes those evacuations put in flight.
    pub migration_bytes: u64,
    /// Evacuations that landed at a destination.
    pub migrations_landed: u64,
    /// Failed transfer attempts.
    pub transfer_failures: u64,
    /// Failed transfers relaunched to a new destination.
    pub redirects: u64,
    /// Completion certificates pushed on the event heap.
    pub heap_pushes: u64,
    /// Due, still-current certificates popped.
    pub heap_pops: u64,
    /// Stale certificates discarded at pop time.
    pub heap_stale_drops: u64,
    /// Contender-index re-keys.
    pub index_updates: u64,
    /// Re-keys that put the node in the linearly scanned side set.
    pub index_side: u64,
}

impl Tally {
    fn engine(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::QuantumSkip { quanta, .. } => self.quanta_skipped += quanta,
            TraceEvent::PreemptBegin { .. } => self.preemptions += 1,
            _ => {}
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: &Tally) {
        let Tally {
            quanta_skipped,
            preemptions,
            dispatch_decisions,
            steals,
            sheds,
            crashes,
            freezes,
            degrades,
            recoveries,
            migrations,
            migration_bytes,
            migrations_landed,
            transfer_failures,
            redirects,
            heap_pushes,
            heap_pops,
            heap_stale_drops,
            index_updates,
            index_side,
        } = *other;
        self.quanta_skipped += quanta_skipped;
        self.preemptions += preemptions;
        self.dispatch_decisions += dispatch_decisions;
        self.steals += steals;
        self.sheds += sheds;
        self.crashes += crashes;
        self.freezes += freezes;
        self.degrades += degrades;
        self.recoveries += recoveries;
        self.migrations += migrations;
        self.migration_bytes += migration_bytes;
        self.migrations_landed += migrations_landed;
        self.transfer_failures += transfer_failures;
        self.redirects += redirects;
        self.heap_pushes += heap_pushes;
        self.heap_pops += heap_pops;
        self.heap_stale_drops += heap_stale_drops;
        self.index_updates += index_updates;
        self.index_side += index_side;
    }
}

impl TraceSink for Tally {
    fn record(&mut self, _now: Cycles, event: TraceEvent) {
        self.engine(event);
    }
}

impl ClusterTraceSink for Tally {
    fn node_event(&mut self, _node: usize, _now: Cycles, event: TraceEvent) {
        self.engine(event);
    }

    fn cluster_event(&mut self, _now: Cycles, event: ClusterTraceEvent) {
        match event {
            // By far the most frequent event (every node at every global
            // instant); matched first and dropped.
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
    use prema_core::TaskId;

    #[test]
    fn counts_each_event_kind_and_drops_node_samples() {
        let mut tally = Tally::default();
        let now = Cycles::ZERO;
        ClusterTraceSink::node_event(
            &mut tally,
            3,
            now,
            TraceEvent::QuantumSkip {
                from: now,
                to: now,
                quanta: 5,
                grants: 0,
            },
        );
        TraceSink::record(&mut tally, now, TraceEvent::Complete { task: TaskId(1) });
        for _ in 0..1000 {
            tally.cluster_event(
                now,
                ClusterTraceEvent::NodeSample {
                    node: 0,
                    queue_depth: 1,
                    remaining_work: now,
                },
            );
        }
        tally.cluster_event(
            now,
            ClusterTraceEvent::IndexUpdate {
                node: 0,
                penalty: 1,
                key: (0, 0),
                indexed: false,
            },
        );
        tally.cluster_event(
            now,
            ClusterTraceEvent::Fault {
                node: 2,
                kind: FaultTraceKind::Degrade { num: 1, den: 8 },
                until: now,
            },
        );
        assert_eq!(
            tally,
            Tally {
                quanta_skipped: 5,
                index_updates: 1,
                index_side: 1,
                degrades: 1,
                ..Tally::default()
            }
        );
        let mut sum = tally;
        sum.add(&tally);
        assert_eq!(sum.quanta_skipped, 10);
        assert_eq!(sum.index_side, 2);
    }
}
