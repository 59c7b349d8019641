//! Multi-program performance metrics for multi-tasked NPU scheduling.
//!
//! Implements the system-level metrics the PREMA paper adopts from Eyerman &
//! Eeckhout (Equations 1–2): normalized turnaround time (NTT) and its average
//! (ANTT), system throughput (STP), and priority-weighted fairness — plus the
//! quality-of-service metrics of Section VI-C: SLA violation rates and
//! percentile tail latencies.
//!
//! # Example
//!
//! ```
//! use prema_metrics::{TaskOutcome, MultiTaskMetrics};
//!
//! let outcomes = vec![
//!     TaskOutcome { isolated_time: 100.0, turnaround_time: 150.0, priority_weight: 1.0 },
//!     TaskOutcome { isolated_time: 50.0, turnaround_time: 200.0, priority_weight: 9.0 },
//! ];
//! let metrics = MultiTaskMetrics::from_outcomes(&outcomes);
//! assert!(metrics.antt > 1.0);
//! assert!(metrics.stp <= 2.0);
//! assert!(metrics.fairness <= 1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod percentile;
pub mod sla;
pub mod stats;
pub mod table;

pub use percentile::{percentile, percentile_in_place, Percentiles};
pub use sla::{SlaCurve, SlaPoint};
pub use stats::{correlation, geometric_mean, mean, std_dev};
pub use table::TableBuilder;

use serde::{Deserialize, Serialize};

/// The outcome of one inference task in a multi-tasked run, expressed in any
/// consistent time unit (the PREMA simulator uses cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// The task's uninterrupted, isolated execution time (`C_single`).
    pub isolated_time: f64,
    /// The task's turnaround time under multi-tasking, from dispatch to
    /// completion (`C_multi`).
    pub turnaround_time: f64,
    /// The task's priority weight (the paper grants 1/3/9 tokens for
    /// low/medium/high priority and uses the same weights in Equation 2).
    pub priority_weight: f64,
}

impl TaskOutcome {
    /// Normalized turnaround time: `C_multi / C_single` (Equation 1, ≥ 1 in
    /// practice; values below 1 can only appear from measurement noise).
    pub fn ntt(&self) -> f64 {
        if self.isolated_time <= 0.0 {
            return 1.0;
        }
        self.turnaround_time / self.isolated_time
    }

    /// Per-task progress: `C_single / C_multi` (the task's share of its
    /// isolated speed).
    pub fn progress(&self) -> f64 {
        if self.turnaround_time <= 0.0 {
            return 1.0;
        }
        self.isolated_time / self.turnaround_time
    }
}

/// Aggregate multi-program metrics (Equations 1–2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTaskMetrics {
    /// Average normalized turnaround time (lower is better, ≥ 1).
    pub antt: f64,
    /// System throughput: the sum of per-task progress (higher is better,
    /// bounded by the task count).
    pub stp: f64,
    /// Priority-weighted fairness: the minimum ratio of priority-normalized
    /// progress between any two tasks (higher is better, ≤ 1 for equal
    /// priorities).
    pub fairness: f64,
    /// Number of tasks aggregated.
    pub task_count: usize,
}

impl MultiTaskMetrics {
    /// Computes ANTT, STP and fairness from per-task outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty.
    pub fn from_outcomes(outcomes: &[TaskOutcome]) -> Self {
        assert!(
            !outcomes.is_empty(),
            "at least one task outcome is required"
        );
        let n = outcomes.len() as f64;
        let antt = outcomes.iter().map(TaskOutcome::ntt).sum::<f64>() / n;
        let stp = outcomes.iter().map(TaskOutcome::progress).sum::<f64>();

        // Equation 2: PP_i = progress_i / (priority_i / sum of priorities);
        // fairness is the minimum pairwise ratio, i.e. min(PP)/max(PP).
        let priority_sum: f64 = outcomes.iter().map(|o| o.priority_weight).sum();
        let pp: Vec<f64> = outcomes
            .iter()
            .map(|o| {
                let share = if priority_sum > 0.0 {
                    o.priority_weight / priority_sum
                } else {
                    1.0 / n
                };
                if share > 0.0 {
                    o.progress() / share
                } else {
                    o.progress()
                }
            })
            .collect();
        let max_pp = pp.iter().cloned().fold(f64::MIN, f64::max);
        let min_pp = pp.iter().cloned().fold(f64::MAX, f64::min);
        let fairness = if max_pp > 0.0 { min_pp / max_pp } else { 0.0 };

        MultiTaskMetrics {
            antt,
            stp,
            fairness,
            task_count: outcomes.len(),
        }
    }

    /// ANTT improvement of `self` relative to `baseline` (baseline ANTT over
    /// ours, so larger is better).
    pub fn antt_improvement_over(&self, baseline: &MultiTaskMetrics) -> f64 {
        if self.antt <= 0.0 {
            return 0.0;
        }
        baseline.antt / self.antt
    }

    /// STP improvement of `self` relative to `baseline`.
    pub fn stp_improvement_over(&self, baseline: &MultiTaskMetrics) -> f64 {
        if baseline.stp <= 0.0 {
            return 0.0;
        }
        self.stp / baseline.stp
    }

    /// Fairness improvement of `self` relative to `baseline`.
    pub fn fairness_improvement_over(&self, baseline: &MultiTaskMetrics) -> f64 {
        if baseline.fairness <= 0.0 {
            return 0.0;
        }
        self.fairness / baseline.fairness
    }
}

/// Averages a set of per-run metrics (used to aggregate the 25 simulation
/// runs per policy, Section VI).
pub fn average_metrics(runs: &[MultiTaskMetrics]) -> MultiTaskMetrics {
    assert!(!runs.is_empty(), "at least one run is required");
    let n = runs.len() as f64;
    MultiTaskMetrics {
        antt: runs.iter().map(|m| m.antt).sum::<f64>() / n,
        stp: runs.iter().map(|m| m.stp).sum::<f64>() / n,
        fairness: runs.iter().map(|m| m.fairness).sum::<f64>() / n,
        task_count: runs.iter().map(|m| m.task_count).sum::<usize>() / runs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(isolated: f64, turnaround: f64, priority: f64) -> TaskOutcome {
        TaskOutcome {
            isolated_time: isolated,
            turnaround_time: turnaround,
            priority_weight: priority,
        }
    }

    #[test]
    fn ntt_and_progress_are_reciprocal_views() {
        let o = outcome(100.0, 250.0, 1.0);
        assert!((o.ntt() - 2.5).abs() < 1e-12);
        assert!((o.progress() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_outcome_metrics_are_degenerate_but_exact() {
        let m = MultiTaskMetrics::from_outcomes(&[outcome(100.0, 250.0, 4.0)]);
        assert!((m.antt - 2.5).abs() < 1e-12);
        assert!((m.stp - 0.4).abs() < 1e-12);
        assert!((m.fairness - 1.0).abs() < 1e-12);
        assert_eq!(m.task_count, 1);
    }

    #[test]
    fn averaging_one_run_is_the_identity() {
        let m = MultiTaskMetrics::from_outcomes(&[
            outcome(100.0, 250.0, 1.0),
            outcome(10.0, 20.0, 3.0),
        ]);
        assert_eq!(average_metrics(&[m]), m);
    }

    #[test]
    fn degenerate_times_do_not_divide_by_zero() {
        assert_eq!(outcome(0.0, 10.0, 1.0).ntt(), 1.0);
        assert_eq!(outcome(10.0, 0.0, 1.0).progress(), 1.0);
    }

    #[test]
    fn isolated_execution_gives_ideal_metrics() {
        let outcomes = vec![outcome(100.0, 100.0, 1.0), outcome(50.0, 50.0, 1.0)];
        let m = MultiTaskMetrics::from_outcomes(&outcomes);
        assert!((m.antt - 1.0).abs() < 1e-12);
        assert!((m.stp - 2.0).abs() < 1e-12);
        assert!((m.fairness - 1.0).abs() < 1e-12);
        assert_eq!(m.task_count, 2);
    }

    #[test]
    fn slowdown_increases_antt_and_decreases_stp() {
        let outcomes = vec![outcome(100.0, 200.0, 1.0), outcome(100.0, 300.0, 1.0)];
        let m = MultiTaskMetrics::from_outcomes(&outcomes);
        assert!((m.antt - 2.5).abs() < 1e-12);
        assert!((m.stp - (0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert!(m.fairness < 1.0);
    }

    #[test]
    fn fairness_accounts_for_priority_weights() {
        // A high-priority task making the same progress as a low-priority task
        // is *unfair* to the high-priority task under Equation 2.
        let equal_progress = vec![outcome(100.0, 200.0, 1.0), outcome(100.0, 200.0, 9.0)];
        let m = MultiTaskMetrics::from_outcomes(&equal_progress);
        assert!(m.fairness < 0.2, "fairness {}", m.fairness);

        // Progress proportional to priority share is perfectly fair.
        let proportional = vec![
            outcome(100.0, 1000.0, 1.0),
            outcome(100.0, 1000.0 / 9.0, 9.0),
        ];
        let m = MultiTaskMetrics::from_outcomes(&proportional);
        assert!((m.fairness - 1.0).abs() < 1e-9, "fairness {}", m.fairness);
    }

    #[test]
    fn improvements_are_relative_to_baseline() {
        let baseline = MultiTaskMetrics {
            antt: 8.0,
            stp: 1.0,
            fairness: 0.1,
            task_count: 8,
        };
        let better = MultiTaskMetrics {
            antt: 1.0,
            stp: 1.4,
            fairness: 0.5,
            task_count: 8,
        };
        assert!((better.antt_improvement_over(&baseline) - 8.0).abs() < 1e-12);
        assert!((better.stp_improvement_over(&baseline) - 1.4).abs() < 1e-12);
        assert!((better.fairness_improvement_over(&baseline) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn average_metrics_averages_componentwise() {
        let a = MultiTaskMetrics {
            antt: 2.0,
            stp: 1.0,
            fairness: 0.5,
            task_count: 8,
        };
        let b = MultiTaskMetrics {
            antt: 4.0,
            stp: 3.0,
            fairness: 0.1,
            task_count: 8,
        };
        let avg = average_metrics(&[a, b]);
        assert!((avg.antt - 3.0).abs() < 1e-12);
        assert!((avg.stp - 2.0).abs() < 1e-12);
        assert!((avg.fairness - 0.3).abs() < 1e-12);
        assert_eq!(avg.task_count, 8);
    }

    #[test]
    #[should_panic(expected = "at least one task outcome")]
    fn empty_outcomes_rejected() {
        let _ = MultiTaskMetrics::from_outcomes(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_rejected() {
        let _ = average_metrics(&[]);
    }
}
