//! Service-level-agreement (SLA) violation metrics (Section VI-C, Figure 13).
//!
//! Vendor SLA targets are proprietary, so the paper defines the SLA target of
//! a task as `N × Time_isolated` and sweeps `N` from 2 to 20. A task violates
//! the SLA when its multi-tasked turnaround time exceeds that target.

use serde::{Deserialize, Serialize};

use crate::TaskOutcome;

/// One point of an SLA violation curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaPoint {
    /// The SLA target multiplier `N` (target = N × isolated time).
    pub target_multiplier: f64,
    /// Fraction of tasks (0.0–1.0) whose turnaround exceeded the target.
    pub violation_rate: f64,
}

/// An SLA violation curve: violation rate as a function of the target
/// multiplier (the x-axis of Figure 13).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SlaCurve {
    points: Vec<SlaPoint>,
}

/// Fraction of tasks whose turnaround time exceeds `multiplier ×` their
/// isolated time.
///
/// # Panics
///
/// Panics if `outcomes` is empty or `multiplier` is not positive.
pub fn violation_rate(outcomes: &[TaskOutcome], multiplier: f64) -> f64 {
    assert!(
        !outcomes.is_empty(),
        "at least one task outcome is required"
    );
    assert!(multiplier > 0.0, "SLA multiplier must be positive");
    let violations = outcomes
        .iter()
        .filter(|o| o.turnaround_time > multiplier * o.isolated_time)
        .count();
    violations as f64 / outcomes.len() as f64
}

impl SlaCurve {
    /// Sweeps the SLA target multiplier over `targets` (e.g. `2..=20`) and
    /// records the violation rate at each point.
    pub fn sweep<I>(outcomes: &[TaskOutcome], targets: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let points = targets
            .into_iter()
            .map(|target_multiplier| SlaPoint {
                target_multiplier,
                violation_rate: violation_rate(outcomes, target_multiplier),
            })
            .collect();
        SlaCurve { points }
    }

    /// The points of the curve in sweep order.
    pub fn points(&self) -> &[SlaPoint] {
        &self.points
    }

    /// The violation rate at the given multiplier, if it was swept.
    pub fn rate_at(&self, target_multiplier: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.target_multiplier - target_multiplier).abs() < 1e-9)
            .map(|p| p.violation_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes() -> Vec<TaskOutcome> {
        // Slowdowns of 1.5x, 3x, 5x and 10x.
        [1.5, 3.0, 5.0, 10.0]
            .into_iter()
            .map(|slowdown| TaskOutcome {
                isolated_time: 100.0,
                turnaround_time: 100.0 * slowdown,
                priority_weight: 1.0,
            })
            .collect()
    }

    #[test]
    fn violation_rate_counts_exceeding_tasks() {
        let o = outcomes();
        assert_eq!(violation_rate(&o, 1.0), 1.0);
        assert_eq!(violation_rate(&o, 2.0), 0.75);
        assert_eq!(violation_rate(&o, 4.0), 0.5);
        assert_eq!(violation_rate(&o, 20.0), 0.0);
    }

    #[test]
    fn curve_is_monotonically_non_increasing() {
        let o = outcomes();
        let curve = SlaCurve::sweep(&o, (2..=20).map(|n| n as f64));
        let rates: Vec<f64> = curve.points().iter().map(|p| p.violation_rate).collect();
        for pair in rates.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        assert_eq!(curve.points().len(), 19);
    }

    #[test]
    fn rate_at_reads_only_swept_multipliers() {
        let o = outcomes();
        let curve = SlaCurve::sweep(&o, (2..=20).map(|n| n as f64));
        assert_eq!(curve.rate_at(2.0), Some(0.75));
        assert_eq!(curve.rate_at(21.0), None);
    }

    #[test]
    fn empty_sweep_yields_an_empty_curve() {
        let o = outcomes();
        let curve = SlaCurve::sweep(&o, std::iter::empty());
        assert!(curve.points().is_empty());
        assert_eq!(curve.rate_at(2.0), None);
        assert_eq!(curve, SlaCurve::default());
    }

    #[test]
    fn single_outcome_curve_is_a_step() {
        let o = vec![TaskOutcome {
            isolated_time: 100.0,
            turnaround_time: 350.0,
            priority_weight: 1.0,
        }];
        let curve = SlaCurve::sweep(&o, (1..=5).map(|n| n as f64));
        assert_eq!(curve.rate_at(3.0), Some(1.0));
        assert_eq!(curve.rate_at(4.0), Some(0.0));
    }

    #[test]
    fn boundary_is_not_a_violation() {
        let o = vec![TaskOutcome {
            isolated_time: 100.0,
            turnaround_time: 200.0,
            priority_weight: 1.0,
        }];
        // Exactly meeting the target (2x) is not a violation.
        assert_eq!(violation_rate(&o, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one task outcome")]
    fn empty_outcomes_rejected() {
        let _ = violation_rate(&[], 2.0);
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn non_positive_multiplier_rejected() {
        let _ = violation_rate(&outcomes(), 0.0);
    }
}
