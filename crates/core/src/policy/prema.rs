//! The PREMA scheduling policy (Algorithm 2).
//!
//! PREMA combines the token machinery of [`super::TokenPolicy`] with the
//! latency-optimal candidate selection of [`super::ShortestJobFirst`]:
//!
//! 1. Every dispatched task is seeded with tokens equal to its priority grant
//!    (1/3/9, Table II).
//! 2. Each scheduling period, every waiting task earns additional tokens
//!    proportional to its priority and its normalized slowdown (handled by
//!    the engine, which owns the context table).
//! 3. The candidate group is the set of tasks whose tokens reach the dynamic
//!    threshold (the maximum token count rounded down to a grant level).
//! 4. Among the candidates, the task with the shortest *estimated remaining*
//!    execution time is selected (`FindShortestEstimatedJob`).

use npu_sim::Cycles;

use crate::task::TaskId;

use super::{candidate_group, grant_levels, ChoiceCertificate, SchedulingPolicy, TaskView};

/// The predictive, token-based PREMA policy.
#[derive(Debug, Clone, Copy)]
pub struct Prema {
    token_scale: f64,
}

impl Prema {
    /// Creates the policy with the given token grant scale (1.0 = Table II).
    pub fn new(token_scale: f64) -> Self {
        assert!(token_scale > 0.0, "token scale must be positive");
        Prema { token_scale }
    }
}

impl Default for Prema {
    fn default() -> Self {
        Prema::new(1.0)
    }
}

impl SchedulingPolicy for Prema {
    fn name(&self) -> &'static str {
        "PREMA"
    }

    fn select(&mut self, _now: Cycles, tasks: &[TaskView]) -> TaskId {
        candidate_group(tasks, self.token_scale)
            .min_by_key(|t| (t.estimated_remaining(), t.arrival, t.id))
            .expect("candidate group is never empty")
            .id
    }

    /// The candidate group moves only when a waiting task's tokens reach a
    /// grant level at or above the threshold; within it the running task's
    /// estimated remaining time only shrinks and everyone else's is fixed.
    fn certificate(&self) -> ChoiceCertificate {
        ChoiceCertificate::GrantLevels(grant_levels(self.token_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::view;
    use crate::task::Priority;

    #[test]
    fn shortest_job_among_candidates_wins() {
        let mut policy = Prema::new(1.0);
        let mut long_high = view(1, Priority::High, 0);
        long_high.tokens = 9.0;
        long_high.estimated_total = Cycles::new(10_000_000);
        let mut short_high = view(2, Priority::High, 100);
        short_high.tokens = 9.0;
        short_high.estimated_total = Cycles::new(500_000);
        assert_eq!(
            policy.select(Cycles::ZERO, &[long_high, short_high]),
            TaskId(2)
        );
    }

    #[test]
    fn short_job_outside_the_candidate_group_does_not_win() {
        let mut policy = Prema::new(1.0);
        // The shortest task has too few tokens to be a candidate; PREMA picks
        // the shortest job *within* the candidate group.
        let mut short_low = view(1, Priority::Low, 0);
        short_low.tokens = 1.0;
        short_low.estimated_total = Cycles::new(100_000);
        let mut long_high = view(2, Priority::High, 100);
        long_high.tokens = 9.0;
        long_high.estimated_total = Cycles::new(5_000_000);
        assert_eq!(
            policy.select(Cycles::ZERO, &[short_low, long_high]),
            TaskId(2)
        );
    }

    #[test]
    fn starved_low_priority_task_eventually_becomes_a_candidate() {
        let mut policy = Prema::new(1.0);
        // After waiting, the low-priority task accumulated 9.3 tokens: the
        // threshold stays at 9 and both tasks are candidates; the shorter
        // low-priority task now wins — the Figure 2(d) behaviour.
        let mut waited_low = view(1, Priority::Low, 0);
        waited_low.tokens = 9.3;
        waited_low.estimated_total = Cycles::new(200_000);
        let mut fresh_high = view(2, Priority::High, 50_000);
        fresh_high.tokens = 9.0;
        fresh_high.estimated_total = Cycles::new(3_000_000);
        assert_eq!(
            policy.select(Cycles::new(50_000), &[waited_low, fresh_high]),
            TaskId(1)
        );
    }

    #[test]
    fn remaining_not_total_length_is_compared() {
        let mut policy = Prema::new(1.0);
        let mut nearly_done_long = view(1, Priority::Medium, 0);
        nearly_done_long.tokens = 3.0;
        nearly_done_long.estimated_total = Cycles::new(2_000_000);
        nearly_done_long.executed = Cycles::new(1_950_000);
        let mut fresh_short = view(2, Priority::Medium, 100);
        fresh_short.tokens = 3.0;
        fresh_short.estimated_total = Cycles::new(400_000);
        assert_eq!(
            policy.select(Cycles::ZERO, &[nearly_done_long, fresh_short]),
            TaskId(1)
        );
    }

    #[test]
    #[should_panic(expected = "token scale must be positive")]
    fn non_positive_scale_rejected() {
        let _ = Prema::new(-1.0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(Prema::default().name(), "PREMA");
    }
}
