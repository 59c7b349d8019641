//! High-priority first (the NP-HPF / P-HPF configurations of Figure 2 and
//! Section IV-D).

use npu_sim::Cycles;

use crate::task::TaskId;

use super::{ChoiceCertificate, SchedulingPolicy, TaskView};

/// Always serve the highest-priority schedulable task; arrival order breaks
/// ties. Priority-aware but length-unaware: short low-priority tasks can be
/// starved (Section V-A).
#[derive(Debug, Clone, Copy, Default)]
pub struct HighPriorityFirst;

impl HighPriorityFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        HighPriorityFirst
    }
}

impl SchedulingPolicy for HighPriorityFirst {
    fn name(&self) -> &'static str {
        "HPF"
    }

    fn select(&mut self, _now: Cycles, tasks: &[TaskView]) -> TaskId {
        tasks
            .iter()
            .min_by_key(|t| (std::cmp::Reverse(t.priority), t.arrival, t.id))
            .expect("policy select is never called with zero tasks")
            .id
    }

    /// Priority and arrival never change.
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
    fn highest_priority_wins() {
        let mut policy = HighPriorityFirst::new();
        let low = view(1, Priority::Low, 0);
        let medium = view(2, Priority::Medium, 100);
        let high = view(3, Priority::High, 200);
        assert_eq!(policy.select(Cycles::ZERO, &[low, medium, high]), TaskId(3));
    }

    #[test]
    fn arrival_breaks_priority_ties() {
        let mut policy = HighPriorityFirst::new();
        let a = view(1, Priority::Medium, 300);
        let b = view(2, Priority::Medium, 100);
        assert_eq!(policy.select(Cycles::ZERO, &[a, b]), TaskId(2));
    }

    #[test]
    fn a_running_low_priority_task_is_displaced_by_a_high_priority_arrival() {
        let mut policy = HighPriorityFirst::new();
        let mut running_low = view(1, Priority::Low, 0);
        running_low.is_running = true;
        let new_high = view(2, Priority::High, 1_000);
        assert_eq!(
            policy.select(Cycles::new(1_000), &[running_low, new_high]),
            TaskId(2)
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(HighPriorityFirst::new().name(), "HPF");
    }
}
