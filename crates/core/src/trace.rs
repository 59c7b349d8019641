//! Zero-cost-when-disabled engine tracing: the flight-recorder substrate.
//!
//! Every scheduling decision the engine makes — wakeups with the candidate
//! scores the policy compared, dispatches with their restore price,
//! preemptions with the checkpointed bytes, event-horizon skips, the whole
//! closed-loop surface (inject / revoke / salvage / stall / clock scale) —
//! can be streamed to a [`TraceSink`]. The sink is a *monomorphized* type
//! parameter of [`crate::SimSession`] whose default, [`NullSink`], carries
//! `ENABLED = false`: every emission site is guarded by the associated
//! constant, so with the default sink the compiler removes the tracing code
//! entirely and the engine is bit-identical (and byte-identical in its
//! outcome digests) to the pre-tracing build.
//!
//! The invariant tracing must uphold: **a sink observes, it never
//! perturbs**. Attaching any sink must produce a [`crate::SimOutcome`]
//! bit-identical to the untraced run — the emission sites only read state,
//! and the chaos/property suites pin this by running the same driving
//! traced and untraced.
//!
//! Events are `Copy` and allocation-free: per-candidate scores are captured
//! into a fixed-width [`CandidateSet`] (the first
//! [`MAX_TRACE_CANDIDATES`] candidates inline plus the true total), so a
//! bounded ring of events never chases heap pointers.

use npu_sim::Cycles;

use crate::policy::TaskView;
use crate::preemption::PreemptionMechanism;
use crate::task::{Priority, TaskId};

/// How many per-candidate scores a [`CandidateSet`] stores inline. Wakeups
/// with more candidates record the first four in view order (waiting set in
/// task-id order, then the running task) plus the true total.
pub const MAX_TRACE_CANDIDATES: usize = 4;

/// One candidate's standing at a scheduler wakeup: the inputs the token /
/// priority policies actually compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// The candidate task.
    pub id: TaskId,
    /// Its user priority.
    pub priority: Priority,
    /// Its accumulated scheduling tokens at the decision instant.
    pub tokens: f64,
    /// Whether it was the task already holding the NPU.
    pub is_running: bool,
}

impl CandidateScore {
    fn of(view: &TaskView) -> Self {
        CandidateScore {
            id: view.id,
            priority: view.priority,
            tokens: view.tokens,
            is_running: view.is_running,
        }
    }
}

/// A fixed-width capture of the candidate scores a wakeup compared: the
/// first [`MAX_TRACE_CANDIDATES`] in view order plus the true total, so the
/// event stays `Copy` no matter how deep the ready queue is.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CandidateSet {
    scores: [Option<CandidateScore>; MAX_TRACE_CANDIDATES],
    total: u32,
}

impl CandidateSet {
    /// Captures the leading candidates of a wakeup's view slice.
    pub fn capture(views: &[TaskView]) -> Self {
        let mut scores = [None; MAX_TRACE_CANDIDATES];
        for (slot, view) in scores.iter_mut().zip(views) {
            *slot = Some(CandidateScore::of(view));
        }
        CandidateSet {
            scores,
            total: views.len() as u32,
        }
    }

    /// The recorded leading candidates, in view order.
    pub fn recorded(&self) -> impl Iterator<Item = &CandidateScore> {
        self.scores.iter().flatten()
    }

    /// How many candidates the wakeup actually compared (may exceed the
    /// number recorded inline).
    pub fn total(&self) -> usize {
        self.total as usize
    }
}

/// One engine trace event. Compact and `Copy`: a bounded ring of these is
/// allocation-free after construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A scheduler wakeup that consulted the policy: the decision and the
    /// candidate scores it compared.
    Wakeup {
        /// The wakeup's ordinal (1-based scheduler invocation count).
        invocation: u64,
        /// The task the policy selected.
        chosen: TaskId,
        /// The leading candidate scores compared.
        candidates: CandidateSet,
    },
    /// A task started (or resumed) on the NPU.
    Dispatch {
        /// The dispatched task.
        task: TaskId,
        /// Restore-DMA cycles charged before useful execution (zero unless
        /// the task resumed from a checkpoint with restore charging on).
        restore: Cycles,
    },
    /// A preemption began: `task` is displaced in favour of `by`.
    PreemptBegin {
        /// The task losing the NPU.
        task: TaskId,
        /// The task displacing it.
        by: TaskId,
        /// The mechanism the engine chose (CHECKPOINT or KILL).
        mechanism: PreemptionMechanism,
    },
    /// The preemption completed; the displaced task is parked.
    PreemptEnd {
        /// The task that lost the NPU.
        task: TaskId,
        /// Context bytes checkpointed (zero for KILL — progress discarded).
        checkpoint_bytes: u64,
        /// Checkpoint-DMA cycles charged (zero for KILL).
        checkpoint_cycles: Cycles,
    },
    /// The dynamic mechanism selection chose DRAIN: the contender waits for
    /// the runner's preemption point instead of displacing it.
    DrainDecision {
        /// The task keeping the NPU.
        running: TaskId,
        /// The contender the policy preferred.
        contender: TaskId,
    },
    /// A task completed.
    Complete {
        /// The completed task.
        task: TaskId,
    },
    /// The event-horizon fast path elided a span of quantum wakeups that
    /// would each have re-picked the running task (no competitor waiting, a
    /// non-preemptive mode, or the policy's choice certificate), batching
    /// their token grants.
    QuantumSkip {
        /// The clock before the jump.
        from: Cycles,
        /// The last skipped quantum boundary the clock jumped to.
        to: Cycles,
        /// Quantum wakeups elided.
        quanta: u64,
        /// Per-task token grants replayed in the batch.
        grants: u64,
    },
    /// A task was injected into the paused session.
    Inject {
        /// The injected task.
        task: TaskId,
        /// Whether it resumed from a salvaged checkpoint manifest.
        salvaged: bool,
        /// The checkpoint cursor it re-entered with (zero for fresh work).
        resume_executed: Cycles,
    },
    /// A never-started task was handed back (stolen or shed).
    Revoke {
        /// The revoked task.
        task: TaskId,
    },
    /// A resident task was drained off the session as a salvage manifest
    /// (node crash, or a voluntary checkpoint-out for migration).
    Salvage {
        /// The salvaged task.
        task: TaskId,
        /// Its last commit point (executed cycles the manifest resumes from).
        resume_executed: Cycles,
        /// The live context bytes at that commit point.
        checkpoint_bytes: u64,
    },
    /// The node's clock scale changed (degrade window edge).
    ClockScale {
        /// Plan-progress cycles per...
        num: u32,
        /// ...wall cycles: the new `num / den` scale.
        den: u32,
    },
    /// The node was stalled (fault window): no progress before `until`.
    Stall {
        /// The instant the stall ends.
        until: Cycles,
    },
}

/// A destination for engine trace events.
///
/// The engine guards every emission with `S::ENABLED`, so a sink whose
/// constant is `false` (the default [`NullSink`]) compiles to nothing. A
/// sink must only *observe*: implementations must not feed anything back
/// into the engine, so traced and untraced runs stay bit-identical.
pub trait TraceSink: std::fmt::Debug {
    /// Whether emission sites are compiled in for this sink.
    const ENABLED: bool = true;

    /// Records one event at engine time `now`.
    fn record(&mut self, now: Cycles, event: TraceEvent);
}

/// The default sink: tracing disabled, every emission site compiled away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _now: Cycles, _event: TraceEvent) {}
}

/// The simplest real sink: an unbounded in-memory event log, for tests and
/// ad-hoc inspection.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The recorded `(time, event)` pairs, in emission order.
    pub events: Vec<(Cycles, TraceEvent)>,
}

impl TraceSink for VecSink {
    fn record(&mut self, now: Cycles, event: TraceEvent) {
        self.events.push((now, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u64, tokens: f64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority::Medium,
            arrival: Cycles::ZERO,
            tokens,
            estimated_total: Cycles::new(100),
            executed: Cycles::ZERO,
            last_scheduled: None,
            is_running: false,
        }
    }

    #[test]
    fn candidate_set_truncates_but_keeps_the_true_total() {
        let views: Vec<TaskView> = (0..7).map(|i| view(i, i as f64)).collect();
        let set = CandidateSet::capture(&views);
        assert_eq!(set.total(), 7);
        let recorded: Vec<u64> = set.recorded().map(|c| c.id.0).collect();
        assert_eq!(recorded, vec![0, 1, 2, 3]);
        let small = CandidateSet::capture(&views[..2]);
        assert_eq!(small.total(), 2);
        assert_eq!(small.recorded().count(), 2);
    }

    #[test]
    fn null_sink_is_disabled_and_vec_sink_records() {
        const { assert!(!NullSink::ENABLED) };
        let mut sink = VecSink::default();
        const { assert!(<VecSink as TraceSink>::ENABLED) };
        sink.record(Cycles::new(5), TraceEvent::Complete { task: TaskId(1) });
        assert_eq!(sink.events.len(), 1);
        let mut null = NullSink;
        null.record(Cycles::ZERO, TraceEvent::Revoke { task: TaskId(2) });
    }
}
