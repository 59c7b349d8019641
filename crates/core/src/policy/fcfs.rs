//! First-come first-serve: the baseline policy of TensorRT Inference Server
//! and TensorFlow Serving (Section I).

use npu_sim::Cycles;

use crate::task::TaskId;

use super::{earliest_arrival, ChoiceCertificate, SchedulingPolicy, TaskView};

/// Serve requests strictly in arrival order, ignoring priority and job
/// length.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs
    }
}

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn select(&mut self, _now: Cycles, tasks: &[TaskView]) -> TaskId {
        earliest_arrival(tasks)
    }

    /// Arrival order never changes.
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
    fn picks_earliest_arrival_regardless_of_priority_or_length() {
        let mut policy = Fcfs::new();
        let mut late_high = view(1, Priority::High, 500);
        late_high.estimated_total = Cycles::new(10);
        let early_low = view(2, Priority::Low, 100);
        let selected = policy.select(Cycles::ZERO, &[late_high, early_low]);
        assert_eq!(selected, TaskId(2));
    }

    #[test]
    fn running_task_arrived_first_so_it_is_never_displaced() {
        let mut policy = Fcfs::new();
        let mut running = view(1, Priority::Low, 0);
        running.is_running = true;
        let waiting = view(2, Priority::High, 10);
        assert_eq!(
            policy.select(Cycles::new(1000), &[running, waiting]),
            TaskId(1)
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(Fcfs::new().name(), "FCFS");
    }
}
