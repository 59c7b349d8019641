//! The TOKEN policy: token-based candidate selection with FCFS among the
//! candidates (Figure 11's TOKEN configuration).
//!
//! TOKEN exercises the first half of PREMA's machinery — priority-seeded
//! tokens that grow with each task's normalized slowdown — but, unlike full
//! PREMA, picks among the candidate group in plain arrival order rather than
//! shortest-estimated-job first.

use npu_sim::Cycles;

use crate::task::{Priority, TaskId};

use super::{
    candidate_group, earliest_arrival, grant_levels, ChoiceCertificate, SchedulingPolicy, TaskView,
};

/// The tokens granted to a waiting task for one scheduling period in which it
/// newly waited `newly_waited` cycles (Algorithm 2, line 7): the task's
/// priority grant, scaled by `token_scale` and by the normalized slowdown it
/// accumulated over the period.
///
/// This is *the* token-accrual formula — the engine charges it both when it
/// steps through a scheduling period and when its event-horizon fast path
/// replays a run of skipped periods in a batch
/// (`grant_tokens_batch`), so both paths produce bit-identical `f64` token
/// state: a batch grant over `n` periods performs the same `n` additions of
/// the same per-period values, in the same per-task order, as stepping.
pub fn period_token_grant(
    priority: Priority,
    token_scale: f64,
    newly_waited: Cycles,
    estimated: Cycles,
) -> f64 {
    let slowdown = newly_waited.get() as f64 / estimated.get().max(1) as f64;
    priority.token_grant() * token_scale * slowdown
}

/// Token-gated FCFS.
#[derive(Debug, Clone, Copy)]
pub struct TokenPolicy {
    token_scale: f64,
}

impl TokenPolicy {
    /// Creates the policy with the given token grant scale (1.0 = Table II).
    pub fn new(token_scale: f64) -> Self {
        assert!(token_scale > 0.0, "token scale must be positive");
        TokenPolicy { token_scale }
    }
}

impl Default for TokenPolicy {
    fn default() -> Self {
        TokenPolicy::new(1.0)
    }
}

impl SchedulingPolicy for TokenPolicy {
    fn name(&self) -> &'static str {
        "TOKEN"
    }

    fn select(&mut self, _now: Cycles, tasks: &[TaskView]) -> TaskId {
        earliest_arrival(candidate_group(tasks, self.token_scale))
    }

    /// The candidate group moves only when a waiting task's tokens reach a
    /// grant level at or above the threshold, and arrival order within it
    /// never moves.
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
    fn high_token_tasks_form_the_candidate_group() {
        let mut policy = TokenPolicy::new(1.0);
        // An early low-priority task with few tokens loses to a later
        // high-priority task whose tokens reach the threshold.
        let mut early_low = view(1, Priority::Low, 0);
        early_low.tokens = 1.0;
        let mut late_high = view(2, Priority::High, 100);
        late_high.tokens = 9.0;
        assert_eq!(
            policy.select(Cycles::ZERO, &[early_low, late_high]),
            TaskId(2)
        );
    }

    #[test]
    fn fcfs_among_candidates() {
        let mut policy = TokenPolicy::new(1.0);
        let mut a = view(1, Priority::Medium, 500);
        a.tokens = 9.5;
        let mut b = view(2, Priority::Medium, 100);
        b.tokens = 9.2;
        assert_eq!(policy.select(Cycles::ZERO, &[a, b]), TaskId(2));
    }

    #[test]
    fn low_priority_task_with_accumulated_tokens_can_win() {
        let mut policy = TokenPolicy::new(1.0);
        // The low-priority task waited long enough to accumulate more tokens
        // than a fresh high-priority task's initial grant; both are in the
        // candidate group and the low-priority task arrived earlier.
        let mut starved_low = view(1, Priority::Low, 0);
        starved_low.tokens = 10.0;
        let fresh_high = view(2, Priority::High, 10_000);
        assert_eq!(
            policy.select(Cycles::new(10_000), &[starved_low, fresh_high]),
            TaskId(1)
        );
    }

    #[test]
    #[should_panic(expected = "token scale must be positive")]
    fn zero_token_scale_rejected() {
        let _ = TokenPolicy::new(0.0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(TokenPolicy::default().name(), "TOKEN");
    }

    #[test]
    fn period_grant_scales_with_priority_slowdown_and_scale() {
        // One full period waited against an equal estimate: slowdown 1, so
        // the grant is exactly the priority grant times the scale.
        let quantum = Cycles::new(175_000);
        for priority in Priority::ALL {
            let grant = period_token_grant(priority, 1.0, quantum, quantum);
            assert_eq!(grant, priority.token_grant());
            let scaled = period_token_grant(priority, 2.0, quantum, quantum);
            assert_eq!(scaled, priority.token_grant() * 2.0);
        }
        // Longer estimates dilute the per-period grant.
        let diluted = period_token_grant(Priority::High, 1.0, quantum, quantum * 4);
        assert_eq!(diluted, Priority::High.token_grant() * 0.25);
        // A zero estimate is clamped rather than dividing by zero.
        let clamped = period_token_grant(Priority::Low, 1.0, quantum, Cycles::ZERO);
        assert!(clamped.is_finite());
    }
}
