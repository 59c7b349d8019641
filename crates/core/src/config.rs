//! Scheduler configuration (Table II of the PREMA paper) and the
//! policy / preemption-mode taxonomy of the evaluation.

use serde::{Deserialize, Serialize};

use npu_sim::{Cycles, NpuConfig};

use crate::preemption::PreemptionMechanism;

/// Which scheduling policy picks the next task (Section VI-A/VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// First-come first-serve — the TensorRT-Inference-Server-style baseline.
    Fcfs,
    /// Round-robin among the co-scheduled tasks.
    RoundRobin,
    /// High-priority first.
    Hpf,
    /// Token-based candidate selection, FCFS among the candidates.
    Token,
    /// Shortest-estimated-job first (priority-unaware).
    Sjf,
    /// PREMA: token-based candidate selection plus shortest-estimated-job
    /// selection among the candidates (Algorithm 2).
    Prema,
}

impl PolicyKind {
    /// All policies evaluated in Figure 11.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Hpf,
        PolicyKind::Token,
        PolicyKind::Sjf,
        PolicyKind::Prema,
    ];

    /// The name used in the paper's figures.
    pub fn paper_name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::RoundRobin => "RRB",
            PolicyKind::Hpf => "HPF",
            PolicyKind::Token => "TOKEN",
            PolicyKind::Sjf => "SJF",
            PolicyKind::Prema => "PREMA",
        }
    }

    /// Whether the policy needs the task-length predictor (TOKEN, SJF and
    /// PREMA do; FCFS, RRB and HPF do not — Figure 11's caption).
    pub fn uses_predictor(self) -> bool {
        matches!(
            self,
            PolicyKind::Token | PolicyKind::Sjf | PolicyKind::Prema
        )
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// How the scheduler is allowed to take the NPU away from a running task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PreemptionMode {
    /// Never preempt: a selected candidate waits for the running task to
    /// finish (all "NP-" configurations).
    NonPreemptive,
    /// Always preempt with the given mechanism when the policy prefers a
    /// different task ("Static" configurations; the mechanism is
    /// CHECKPOINT or KILL).
    Static(PreemptionMechanism),
    /// Choose between CHECKPOINT and DRAIN per preemption using Algorithm 3
    /// ("Dynamic" configurations).
    Dynamic,
    /// Like [`PreemptionMode::Dynamic`] but uses KILL instead of CHECKPOINT
    /// when Algorithm 3 decides to preempt (the Figure 15 sensitivity study).
    DynamicKill,
}

impl PreemptionMode {
    /// Whether this mode ever preempts a running task.
    pub fn is_preemptive(self) -> bool {
        !matches!(self, PreemptionMode::NonPreemptive)
    }
}

/// Full scheduler configuration.
///
/// [`SchedulerConfig::paper_default`] reproduces Table II: a 0.25 ms
/// scheduling period and 1/3/9 tokens granted per low/medium/high priority
/// (the token grants themselves live on [`crate::task::Priority`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// The scheduling policy.
    pub policy: PolicyKind,
    /// The preemption mode.
    pub preemption: PreemptionMode,
    /// Scheduling period time-quota in milliseconds (Table II: 0.25 ms).
    pub quantum_ms: f64,
    /// Multiplier applied to the token grants of Table II (1.0 by default);
    /// exposed for the sensitivity study of Section VI-E.
    pub token_scale: f64,
}

impl SchedulerConfig {
    /// The PREMA configuration of Table II: dynamic preemption, 0.25 ms
    /// scheduling period, 1/3/9 token grants.
    pub fn paper_default() -> Self {
        SchedulerConfig {
            policy: PolicyKind::Prema,
            preemption: PreemptionMode::Dynamic,
            quantum_ms: 0.25,
            token_scale: 1.0,
        }
    }

    /// A named configuration in the paper's nomenclature: `NP-<policy>`,
    /// `Static-<policy>` (CHECKPOINT) or `Dynamic-<policy>`.
    pub fn named(policy: PolicyKind, preemption: PreemptionMode) -> Self {
        SchedulerConfig {
            policy,
            preemption,
            ..SchedulerConfig::paper_default()
        }
    }

    /// The baseline NP-FCFS configuration every figure normalizes against.
    pub fn np_fcfs() -> Self {
        SchedulerConfig::named(PolicyKind::Fcfs, PreemptionMode::NonPreemptive)
    }

    /// The scheduling quantum in cycles for a given NPU configuration.
    pub fn quantum_cycles(&self, npu: &NpuConfig) -> Cycles {
        npu.millis_to_cycles(self.quantum_ms)
    }

    /// The paper-style label of this configuration (e.g. "Dynamic-PREMA").
    pub fn label(&self) -> String {
        let prefix = match self.preemption {
            PreemptionMode::NonPreemptive => "NP",
            PreemptionMode::Static(PreemptionMechanism::Kill) => "Static(KILL)",
            PreemptionMode::Static(_) => "Static",
            PreemptionMode::Dynamic => "Dynamic",
            PreemptionMode::DynamicKill => "Dynamic(KILL)",
        };
        format!("{}-{}", prefix, self.policy.paper_name())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error string if the quantum or token scale is not positive,
    /// or if a static preemption mode names DRAIN (DRAIN is not a standalone
    /// preemption mechanism; use [`PreemptionMode::NonPreemptive`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.quantum_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("scheduling quantum must be positive".into());
        }
        if self.token_scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("token scale must be positive".into());
        }
        if self.preemption == PreemptionMode::Static(PreemptionMechanism::Drain) {
            return Err(
                "Static(DRAIN) is equivalent to non-preemptive scheduling; use NonPreemptive"
                    .into(),
            );
        }
        Ok(())
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_two() {
        let cfg = SchedulerConfig::paper_default();
        assert_eq!(cfg.policy, PolicyKind::Prema);
        assert_eq!(cfg.preemption, PreemptionMode::Dynamic);
        assert_eq!(cfg.quantum_ms, 0.25);
        assert!(cfg.validate().is_ok());
        assert_eq!(SchedulerConfig::default(), cfg);
    }

    #[test]
    fn quantum_is_quarter_millisecond_in_cycles() {
        let cfg = SchedulerConfig::paper_default();
        let npu = NpuConfig::paper_default();
        assert_eq!(cfg.quantum_cycles(&npu), Cycles::new(175_000));
    }

    #[test]
    fn all_policies_have_unique_names() {
        let mut names: Vec<_> = PolicyKind::ALL.iter().map(|p| p.paper_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn predictor_usage_matches_figure_eleven_caption() {
        assert!(!PolicyKind::Fcfs.uses_predictor());
        assert!(!PolicyKind::RoundRobin.uses_predictor());
        assert!(!PolicyKind::Hpf.uses_predictor());
        assert!(PolicyKind::Token.uses_predictor());
        assert!(PolicyKind::Sjf.uses_predictor());
        assert!(PolicyKind::Prema.uses_predictor());
    }

    #[test]
    fn labels_follow_paper_nomenclature() {
        assert_eq!(SchedulerConfig::np_fcfs().label(), "NP-FCFS");
        let static_prema = SchedulerConfig::named(
            PolicyKind::Prema,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
        );
        assert_eq!(static_prema.label(), "Static-PREMA");
        let dyn_sjf = SchedulerConfig::named(PolicyKind::Sjf, PreemptionMode::Dynamic);
        assert_eq!(dyn_sjf.label(), "Dynamic-SJF");
        let kill = SchedulerConfig::named(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Kill),
        );
        assert_eq!(kill.label(), "Static(KILL)-HPF");
    }

    #[test]
    fn preemptive_modes_are_classified() {
        assert!(!PreemptionMode::NonPreemptive.is_preemptive());
        assert!(PreemptionMode::Dynamic.is_preemptive());
        assert!(PreemptionMode::DynamicKill.is_preemptive());
        assert!(PreemptionMode::Static(PreemptionMechanism::Kill).is_preemptive());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SchedulerConfig::paper_default();
        cfg.quantum_ms = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SchedulerConfig::paper_default();
        cfg.token_scale = -1.0;
        assert!(cfg.validate().is_err());
        let cfg = SchedulerConfig::named(
            PolicyKind::Prema,
            PreemptionMode::Static(PreemptionMechanism::Drain),
        );
        assert!(cfg.validate().is_err());
    }
}
