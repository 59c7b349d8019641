//! Shortest-estimated-job first (the SJF configuration of Figure 11/12).
//!
//! SJF is the latency-optimal but priority-unaware extreme: it sorts jobs by
//! the predictor's estimate of their remaining length and always serves the
//! shortest. The paper uses it to show that PREMA reaches 92 % of SJF's ANTT
//! while, unlike SJF, not destroying the QoS of high-priority requests
//! (Figure 14).

use npu_sim::Cycles;

use crate::task::TaskId;

use super::{ChoiceCertificate, SchedulingPolicy, TaskView};

/// Serve the task with the smallest estimated remaining execution time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl ShortestJobFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        ShortestJobFirst
    }
}

impl SchedulingPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "SJF"
    }

    fn select(&mut self, _now: Cycles, tasks: &[TaskView]) -> TaskId {
        tasks
            .iter()
            .min_by_key(|t| (t.estimated_remaining(), t.arrival, t.id))
            .expect("policy select is never called with zero tasks")
            .id
    }

    /// The running task's estimated remaining time only shrinks, and a
    /// waiting task's does not move.
    fn certificate(&self) -> ChoiceCertificate {
        ChoiceCertificate::UntilEvent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::view;
    use crate::task::Priority;

    #[test]
    fn shortest_estimated_job_wins_regardless_of_priority() {
        let mut policy = ShortestJobFirst::new();
        let mut long_high = view(1, Priority::High, 0);
        long_high.estimated_total = Cycles::new(10_000_000);
        let mut short_low = view(2, Priority::Low, 100);
        short_low.estimated_total = Cycles::new(100_000);
        assert_eq!(
            policy.select(Cycles::ZERO, &[long_high, short_low]),
            TaskId(2)
        );
    }

    #[test]
    fn remaining_time_not_total_time_is_compared() {
        let mut policy = ShortestJobFirst::new();
        // A long task that is nearly done beats a short fresh task.
        let mut nearly_done = view(1, Priority::Low, 0);
        nearly_done.estimated_total = Cycles::new(1_000_000);
        nearly_done.executed = Cycles::new(950_000);
        let mut fresh_short = view(2, Priority::Low, 0);
        fresh_short.estimated_total = Cycles::new(200_000);
        assert_eq!(
            policy.select(Cycles::ZERO, &[nearly_done, fresh_short]),
            TaskId(1)
        );
    }

    #[test]
    fn arrival_breaks_ties() {
        let mut policy = ShortestJobFirst::new();
        let a = view(1, Priority::Low, 500);
        let b = view(2, Priority::Low, 100);
        assert_eq!(policy.select(Cycles::ZERO, &[a, b]), TaskId(2));
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(ShortestJobFirst::new().name(), "SJF");
    }
}
