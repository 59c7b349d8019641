//! Preemption mechanisms (Section IV-C) and the dynamic mechanism selection
//! algorithm (Algorithm 3).
//!
//! Three mechanisms trade off checkpointed state size, preemption latency,
//! fairness and throughput:
//!
//! * **CHECKPOINT** — wait for the current `GEMM_OP` to commit, then DMA the
//!   live output activations to DRAM and switch. Moderate preemption latency
//!   (microseconds), no lost work.
//! * **KILL** — terminate the running task immediately without saving its
//!   context. Zero preemption latency, but everything executed so far is
//!   wasted (the task restarts from scratch), hurting system throughput.
//! * **DRAIN** — do not preempt at all; the candidate waits for the running
//!   task to finish its remaining network-wide computation. Zero preemption
//!   latency, potentially long waiting time.
//!
//! PREMA couples a preemptible NPU with a *dynamic* selection between
//! CHECKPOINT and DRAIN (Algorithm 3): when the running task is close to
//! finishing and the candidate is long, it is better for average turnaround
//! time to drain; otherwise checkpoint.

use serde::{Deserialize, Serialize};

use npu_sim::Cycles;

/// The three preemption mechanisms studied in Section IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PreemptionMechanism {
    /// Checkpoint the live context to DRAM, then switch.
    Checkpoint,
    /// Immediately terminate the running task; it restarts from scratch.
    Kill,
    /// Let the running task finish; the candidate waits.
    Drain,
}

impl PreemptionMechanism {
    /// All mechanisms, in the order the paper's figures present them.
    pub const ALL: [PreemptionMechanism; 3] = [
        PreemptionMechanism::Kill,
        PreemptionMechanism::Checkpoint,
        PreemptionMechanism::Drain,
    ];

    /// The name used in the paper's figures.
    pub fn paper_name(self) -> &'static str {
        match self {
            PreemptionMechanism::Checkpoint => "CHECKPOINT",
            PreemptionMechanism::Kill => "KILL",
            PreemptionMechanism::Drain => "DRAIN",
        }
    }
}

impl std::fmt::Display for PreemptionMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Inputs to the dynamic mechanism selection: the predictor's view of the
/// running task and of the candidate chosen by the scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MechanismDecisionInputs {
    /// Estimated total execution time of the currently running task.
    pub current_estimated: Cycles,
    /// Cycles the running task has already executed.
    pub current_executed: Cycles,
    /// Estimated total execution time of the preempting candidate.
    pub candidate_estimated: Cycles,
    /// Cycles the candidate has already executed (non-zero if it was
    /// previously preempted).
    pub candidate_executed: Cycles,
}

/// Algorithm 3: dynamic preemption mechanism selection.
///
/// Computes the relative degradation each task would suffer — the candidate's
/// remaining time scaled by the current task's estimated length, and vice
/// versa — and drains when interrupting the (nearly finished) current task
/// would hurt average turnaround more than making the candidate wait.
///
/// Under SJF the contender an arrival brings is the never-run arrival `N`
/// itself, with `N.est < R.rem <= R.est` for the running task `R`, so
/// `N.est / R.est < 1 < R.rem / N.est` and this always picks CHECKPOINT:
/// Dynamic-SJF schedules like Static-SJF unless a checkpointed task's run
/// to its commit point brings it back under its preemptor's remaining time.
pub fn select_mechanism(inputs: MechanismDecisionInputs) -> PreemptionMechanism {
    let current_remaining = inputs.current_estimated - inputs.current_executed;
    let candidate_remaining = inputs.candidate_estimated - inputs.candidate_executed;

    // Degradation the *current* task would experience if preempted: it must
    // wait for the candidate's remaining work, relative to its own length.
    let degradation_current =
        candidate_remaining.get() as f64 / inputs.current_estimated.get().max(1) as f64;
    // Degradation the *candidate* would experience if it waits for the
    // current task to drain, relative to its own length.
    let degradation_candidate =
        current_remaining.get() as f64 / inputs.candidate_estimated.get().max(1) as f64;

    if degradation_current > degradation_candidate {
        PreemptionMechanism::Drain
    } else {
        PreemptionMechanism::Checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(
        current_estimated: u64,
        current_executed: u64,
        candidate_estimated: u64,
        candidate_executed: u64,
    ) -> MechanismDecisionInputs {
        MechanismDecisionInputs {
            current_estimated: Cycles::new(current_estimated),
            current_executed: Cycles::new(current_executed),
            candidate_estimated: Cycles::new(candidate_estimated),
            candidate_executed: Cycles::new(candidate_executed),
        }
    }

    #[test]
    fn nearly_finished_current_task_is_drained() {
        // Current task is 95% done; candidate is long. Draining barely hurts
        // the candidate, while preempting would stall the current task for the
        // candidate's entire (long) execution.
        let decision = select_mechanism(inputs(1_000_000, 950_000, 2_000_000, 0));
        assert_eq!(decision, PreemptionMechanism::Drain);
    }

    #[test]
    fn long_remaining_current_task_is_checkpointed() {
        // Current task has barely started and the candidate is short: preempt.
        let decision = select_mechanism(inputs(2_000_000, 100_000, 300_000, 0));
        assert_eq!(decision, PreemptionMechanism::Checkpoint);
    }

    #[test]
    fn equal_degradation_prefers_checkpoint() {
        // Symmetric situation: identical tasks, same progress. The tie breaks
        // toward preemption (the candidate has waited, the policy chose it).
        let decision = select_mechanism(inputs(1_000_000, 500_000, 1_000_000, 500_000));
        assert_eq!(decision, PreemptionMechanism::Checkpoint);
    }

    #[test]
    fn partially_executed_candidate_counts_only_its_remaining_work() {
        // The candidate already did 90% of its work before being preempted, so
        // letting it in costs the current task very little.
        let decision = select_mechanism(inputs(1_000_000, 100_000, 1_000_000, 900_000));
        assert_eq!(decision, PreemptionMechanism::Checkpoint);
        // Conversely, a current task at 90% with a fresh equal-length candidate
        // should drain.
        let decision = select_mechanism(inputs(1_000_000, 900_000, 1_000_000, 0));
        assert_eq!(decision, PreemptionMechanism::Drain);
    }

    #[test]
    fn zero_estimates_do_not_panic() {
        let decision = select_mechanism(inputs(0, 0, 0, 0));
        assert_eq!(decision, PreemptionMechanism::Checkpoint);
    }

    #[test]
    fn mechanism_metadata() {
        assert_eq!(PreemptionMechanism::ALL.len(), 3);
        assert_eq!(PreemptionMechanism::Kill.to_string(), "KILL");
    }
}
