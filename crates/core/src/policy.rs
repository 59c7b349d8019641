//! Scheduling policies.
//!
//! The six policies of the paper's evaluation (Figure 11/12) are the six
//! [`PolicyKind`]s. Given the scheduler's view of every schedulable task
//! (the ready queue plus, in preemptive modes, the currently running task),
//! [`PolicyKind::select`] returns the task that should own the NPU next.
//! The engine is responsible for turning a "different task than the one
//! running" answer into an actual preemption via the configured preemption
//! mode.

use std::cmp::Reverse;

use npu_sim::Cycles;

use crate::config::PolicyKind;
use crate::task::{Priority, TaskId};

/// The scheduler's view of one schedulable task at a scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskView {
    /// Task identifier.
    pub id: TaskId,
    /// User-defined priority.
    pub priority: Priority,
    /// Dispatch time.
    pub arrival: Cycles,
    /// Accumulated scheduling tokens.
    pub tokens: f64,
    /// Predictor estimate of the task's total execution time.
    pub estimated_total: Cycles,
    /// Cycles executed so far.
    pub executed: Cycles,
    /// When the task last started running on the NPU, if ever.
    pub last_scheduled: Option<Cycles>,
    /// Whether the task is the one currently running.
    pub is_running: bool,
}

impl TaskView {
    /// The estimated remaining execution time (what `FindShortestEstimatedJob`
    /// in Algorithm 2 compares).
    pub fn estimated_remaining(&self) -> Cycles {
        self.estimated_total - self.executed
    }
}

/// The answer of [`PolicyKind::certificate`]: what, between one arrival or
/// completion and the next, can make the policy stop choosing the running
/// task it chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChoiceCertificate {
    /// Nothing can: the choice stands until the task set changes (HPF,
    /// SJF, FCFS).
    UntilEvent,
    /// A waiting task's tokens reaching one of these grant levels
    /// (ascending) at or above the current token threshold — the only way
    /// Algorithm 2's candidate group changes (TOKEN, PREMA).
    GrantLevels([f64; 3]),
    /// Any quantum wakeup can.
    EveryQuantum,
}

impl PolicyKind {
    /// Selects the next task among `tasks` (never empty). `token_scale`
    /// multiplies the Table II grant levels that TOKEN and PREMA use as
    /// candidate thresholds (Section VI-E sensitivity); the other policies
    /// ignore it.
    ///
    /// * FCFS: earliest arrival — the TensorRT Inference Server and
    ///   TensorFlow Serving baseline (Section I).
    /// * RRB: never-scheduled tasks first, in arrival order, then the least
    ///   recently scheduled; preemptive modes time-slice at the quantum.
    /// * HPF: highest priority, then earliest arrival; length-unaware, so
    ///   short low-priority tasks can starve (Section V-A).
    /// * TOKEN: earliest arrival within Algorithm 2's candidate group.
    /// * SJF: shortest estimated remaining time; latency-optimal but
    ///   priority-unaware (Figure 14).
    /// * PREMA: shortest estimated remaining time within the candidate
    ///   group (Algorithm 2's `FindShortestEstimatedJob`).
    ///
    /// Every key ends in the task id, so the answer does not depend on the
    /// order of `tasks`. `select` is a pure function of its arguments: the
    /// engine's event-horizon fast path skips every quantum wakeup whose
    /// answer [`PolicyKind::certificate`] already knows, which is
    /// bit-identical to stepping only because a skipped call could neither
    /// change state nor pick another task.
    pub fn select(self, tasks: &[TaskView], token_scale: f64) -> TaskId {
        fn first_by<'a, K: Ord>(
            tasks: impl Iterator<Item = &'a TaskView>,
            key: impl FnMut(&&'a TaskView) -> K,
        ) -> TaskId {
            tasks
                .min_by_key(key)
                .expect("policy select is never called with zero tasks")
                .id
        }
        match self {
            PolicyKind::Fcfs => first_by(tasks.iter(), |t| (t.arrival, t.id)),
            PolicyKind::RoundRobin => first_by(tasks.iter(), |t| {
                (
                    t.last_scheduled.is_some(),
                    t.last_scheduled.unwrap_or(t.arrival),
                    t.arrival,
                    t.id,
                )
            }),
            PolicyKind::Hpf => first_by(tasks.iter(), |t| (Reverse(t.priority), t.arrival, t.id)),
            PolicyKind::Token => {
                first_by(candidate_group(tasks, token_scale), |t| (t.arrival, t.id))
            }
            PolicyKind::Sjf => {
                first_by(tasks.iter(), |t| (t.estimated_remaining(), t.arrival, t.id))
            }
            PolicyKind::Prema => first_by(candidate_group(tasks, token_scale), |t| {
                (t.estimated_remaining(), t.arrival, t.id)
            }),
        }
    }

    /// What can make [`PolicyKind::select`] stop choosing a running task it
    /// chose, before the next arrival or completion — that is, while the
    /// waiting tasks only accrue waiting time and tokens and the running
    /// task only executes.
    pub fn certificate(self, token_scale: f64) -> ChoiceCertificate {
        match self {
            // Arrival order and priority never change; the running task's
            // estimated remaining time only shrinks, and a waiting task's
            // does not move.
            PolicyKind::Fcfs | PolicyKind::Hpf | PolicyKind::Sjf => ChoiceCertificate::UntilEvent,
            // The candidate group moves only when a waiting task's tokens
            // reach a grant level at or above the threshold; within it
            // TOKEN's arrival order never moves, and PREMA's key moves as
            // SJF's does.
            PolicyKind::Token | PolicyKind::Prema => {
                ChoiceCertificate::GrantLevels(grant_levels(token_scale))
            }
            PolicyKind::RoundRobin => ChoiceCertificate::EveryQuantum,
        }
    }
}

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

/// The Table II grant levels (1/3/9) scaled by `token_scale`, ascending:
/// the thresholds Algorithm 2's candidate group can take.
fn grant_levels(token_scale: f64) -> [f64; 3] {
    Priority::ALL.map(|p| p.token_grant() * token_scale)
}

/// `max_tokens` rounded *down* to the closest of `levels`, or the lowest
/// level when it is below all of them.
pub(crate) fn level_floor(levels: [f64; 3], max_tokens: f64) -> f64 {
    levels
        .into_iter()
        .rfind(|&level| max_tokens >= level)
        .unwrap_or(levels[0])
}

/// The token threshold of Algorithm 2: the largest token count held by any
/// schedulable task, rounded *down* to the closest priority grant level
/// (1/3/9 scaled by `token_scale`). Tasks holding at least this many tokens
/// form the candidate group.
fn token_threshold(tasks: &[TaskView], token_scale: f64) -> f64 {
    let max_tokens = tasks.iter().map(|t| t.tokens).fold(0.0, f64::max);
    level_floor(grant_levels(token_scale), max_tokens)
}

/// The candidate group: the tasks whose tokens reach the threshold, in
/// view order. It is all tasks when none does (which can only happen if
/// every token count is below the lowest grant level). Lazy, so a policy
/// picks its winner in one pass over the candidates.
fn candidate_group(tasks: &[TaskView], token_scale: f64) -> impl Iterator<Item = &TaskView> {
    let threshold = token_threshold(tasks, token_scale);
    let floor = if tasks.iter().any(|t| t.tokens >= threshold) {
        threshold
    } else {
        f64::NEG_INFINITY
    };
    tasks.iter().filter(move |t| t.tokens >= floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a task view with sensible defaults for policy unit tests.
    pub(super) fn view(id: u64, priority: Priority, arrival: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority,
            arrival: Cycles::new(arrival),
            tokens: priority.token_grant(),
            estimated_total: Cycles::new(1_000_000),
            executed: Cycles::ZERO,
            last_scheduled: None,
            is_running: false,
        }
    }

    #[test]
    fn estimated_remaining_subtracts_executed() {
        let mut v = view(1, Priority::Low, 0);
        v.estimated_total = Cycles::new(100);
        v.executed = Cycles::new(30);
        assert_eq!(v.estimated_remaining(), Cycles::new(70));
    }

    #[test]
    fn token_threshold_rounds_down_to_grant_levels() {
        // Paper example: the largest token count is 8, so the threshold is 3
        // (not 9).
        let mut a = view(1, Priority::Low, 0);
        a.tokens = 8.0;
        let b = view(2, Priority::Low, 10);
        assert_eq!(token_threshold(&[a, b], 1.0), 3.0);

        let mut c = view(3, Priority::High, 0);
        c.tokens = 9.0;
        assert_eq!(token_threshold(&[c], 1.0), 9.0);

        let mut d = view(4, Priority::Low, 0);
        d.tokens = 0.5;
        assert_eq!(token_threshold(&[d], 1.0), 1.0);
    }

    #[test]
    fn candidate_group_respects_threshold_and_never_empties() {
        let mut a = view(1, Priority::Low, 0);
        a.tokens = 8.0;
        let mut b = view(2, Priority::Low, 10);
        b.tokens = 2.0;
        let mut c = view(3, Priority::Low, 20);
        c.tokens = 4.0;
        // Threshold is 3: tasks with >= 3 tokens qualify.
        let tasks = [a, b, c];
        let ids: Vec<_> = candidate_group(&tasks, 1.0).map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 3]);

        // All tokens below the lowest level: fall back to everyone.
        let mut d = view(4, Priority::Low, 0);
        d.tokens = 0.2;
        assert_eq!(candidate_group(&[d], 1.0).count(), 1);
    }

    #[test]
    fn threshold_scales_with_token_scale() {
        let mut a = view(1, Priority::Low, 0);
        a.tokens = 8.0;
        // With doubled grant levels (2/6/18), 8 tokens round down to 6.
        assert_eq!(token_threshold(&[a], 2.0), 6.0);
    }

    #[test]
    fn earliest_arrival_breaks_ties_by_id() {
        let a = view(2, Priority::Low, 100);
        let b = view(1, Priority::Low, 100);
        let c = view(3, Priority::Low, 200);
        // FCFS, and TOKEN with every task a candidate.
        for policy in [PolicyKind::Fcfs, PolicyKind::Token] {
            assert_eq!(policy.select(&[a, b, c], 1.0), TaskId(1), "{policy}");
        }
    }

    #[test]
    fn certificates_are_decided_per_policy() {
        let scaled = [0.5, 1.5, 4.5];
        let table = [
            (PolicyKind::Fcfs, ChoiceCertificate::UntilEvent),
            (PolicyKind::RoundRobin, ChoiceCertificate::EveryQuantum),
            (PolicyKind::Hpf, ChoiceCertificate::UntilEvent),
            (PolicyKind::Token, ChoiceCertificate::GrantLevels(scaled)),
            (PolicyKind::Sjf, ChoiceCertificate::UntilEvent),
            (PolicyKind::Prema, ChoiceCertificate::GrantLevels(scaled)),
        ];
        assert_eq!(table.map(|(policy, _)| policy), PolicyKind::ALL);
        for (policy, certificate) in table {
            assert_eq!(policy.certificate(0.5), certificate, "{policy}");
        }
        assert_eq!(
            PolicyKind::Prema.certificate(1.0),
            ChoiceCertificate::GrantLevels([1.0, 3.0, 9.0])
        );
    }
}

// `select` tests, one module per policy, each at the
// `policy::<policy>::tests` path its tests are named by.

#[cfg(test)]
mod fcfs {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};
        use npu_sim::Cycles;

        #[test]
        fn picks_earliest_arrival_regardless_of_priority_or_length() {
            let mut late_high = view(1, Priority::High, 500);
            late_high.estimated_total = Cycles::new(10);
            let early_low = view(2, Priority::Low, 100);
            let selected = PolicyKind::Fcfs.select(&[late_high, early_low], 1.0);
            assert_eq!(selected, TaskId(2));
        }

        #[test]
        fn running_task_arrived_first_so_it_is_never_displaced() {
            let mut running = view(1, Priority::Low, 0);
            running.is_running = true;
            let waiting = view(2, Priority::High, 10);
            assert_eq!(PolicyKind::Fcfs.select(&[running, waiting], 1.0), TaskId(1));
        }
    }
}

#[cfg(test)]
mod round_robin {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};
        use npu_sim::Cycles;

        #[test]
        fn never_scheduled_tasks_go_before_recently_scheduled_ones() {
            let mut ran_recently = view(1, Priority::High, 0);
            ran_recently.last_scheduled = Some(Cycles::new(10_000));
            ran_recently.is_running = true;
            let fresh = view(2, Priority::Low, 500);
            assert_eq!(
                PolicyKind::RoundRobin.select(&[ran_recently, fresh], 1.0),
                TaskId(2)
            );
        }

        #[test]
        fn least_recently_scheduled_wins_among_previously_run_tasks() {
            let mut a = view(1, Priority::Low, 0);
            a.last_scheduled = Some(Cycles::new(5_000));
            let mut b = view(2, Priority::Low, 0);
            b.last_scheduled = Some(Cycles::new(1_000));
            assert_eq!(PolicyKind::RoundRobin.select(&[a, b], 1.0), TaskId(2));
        }

        #[test]
        fn fresh_tasks_are_ordered_by_arrival() {
            let a = view(1, Priority::Low, 300);
            let b = view(2, Priority::Low, 100);
            assert_eq!(PolicyKind::RoundRobin.select(&[a, b], 1.0), TaskId(2));
        }
    }
}

#[cfg(test)]
mod hpf {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};

        #[test]
        fn highest_priority_wins() {
            let low = view(1, Priority::Low, 0);
            let medium = view(2, Priority::Medium, 100);
            let high = view(3, Priority::High, 200);
            assert_eq!(PolicyKind::Hpf.select(&[low, medium, high], 1.0), TaskId(3));
        }

        #[test]
        fn arrival_breaks_priority_ties() {
            let a = view(1, Priority::Medium, 300);
            let b = view(2, Priority::Medium, 100);
            assert_eq!(PolicyKind::Hpf.select(&[a, b], 1.0), TaskId(2));
        }

        #[test]
        fn a_running_low_priority_task_is_displaced_by_a_high_priority_arrival() {
            let mut running_low = view(1, Priority::Low, 0);
            running_low.is_running = true;
            let new_high = view(2, Priority::High, 1_000);
            assert_eq!(
                PolicyKind::Hpf.select(&[running_low, new_high], 1.0),
                TaskId(2)
            );
        }
    }
}

#[cfg(test)]
mod token {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::period_token_grant;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};
        use npu_sim::Cycles;

        #[test]
        fn high_token_tasks_form_the_candidate_group() {
            // An early low-priority task with few tokens loses to a later
            // high-priority task whose tokens reach the threshold.
            let mut early_low = view(1, Priority::Low, 0);
            early_low.tokens = 1.0;
            let mut late_high = view(2, Priority::High, 100);
            late_high.tokens = 9.0;
            assert_eq!(
                PolicyKind::Token.select(&[early_low, late_high], 1.0),
                TaskId(2)
            );
        }

        #[test]
        fn fcfs_among_candidates() {
            let mut a = view(1, Priority::Medium, 500);
            a.tokens = 9.5;
            let mut b = view(2, Priority::Medium, 100);
            b.tokens = 9.2;
            assert_eq!(PolicyKind::Token.select(&[a, b], 1.0), TaskId(2));
        }

        #[test]
        fn low_priority_task_with_accumulated_tokens_can_win() {
            // The low-priority task waited long enough to accumulate more
            // tokens than a fresh high-priority task's initial grant; both
            // are in the candidate group and the low-priority task arrived
            // earlier.
            let mut starved_low = view(1, Priority::Low, 0);
            starved_low.tokens = 10.0;
            let fresh_high = view(2, Priority::High, 10_000);
            assert_eq!(
                PolicyKind::Token.select(&[starved_low, fresh_high], 1.0),
                TaskId(1)
            );
        }

        #[test]
        fn period_grant_scales_with_priority_slowdown_and_scale() {
            // One full period waited against an equal estimate: slowdown 1,
            // so the grant is exactly the priority grant times the scale.
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
}

#[cfg(test)]
mod sjf {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};
        use npu_sim::Cycles;

        #[test]
        fn shortest_estimated_job_wins_regardless_of_priority() {
            let mut long_high = view(1, Priority::High, 0);
            long_high.estimated_total = Cycles::new(10_000_000);
            let mut short_low = view(2, Priority::Low, 100);
            short_low.estimated_total = Cycles::new(100_000);
            assert_eq!(
                PolicyKind::Sjf.select(&[long_high, short_low], 1.0),
                TaskId(2)
            );
        }

        #[test]
        fn remaining_time_not_total_time_is_compared() {
            // A long task that is nearly done beats a short fresh task.
            let mut nearly_done = view(1, Priority::Low, 0);
            nearly_done.estimated_total = Cycles::new(1_000_000);
            nearly_done.executed = Cycles::new(950_000);
            let mut fresh_short = view(2, Priority::Low, 0);
            fresh_short.estimated_total = Cycles::new(200_000);
            assert_eq!(
                PolicyKind::Sjf.select(&[nearly_done, fresh_short], 1.0),
                TaskId(1)
            );
        }

        #[test]
        fn arrival_breaks_ties() {
            let a = view(1, Priority::Low, 500);
            let b = view(2, Priority::Low, 100);
            assert_eq!(PolicyKind::Sjf.select(&[a, b], 1.0), TaskId(2));
        }
    }
}

#[cfg(test)]
mod prema {
    mod tests {
        use crate::config::PolicyKind;
        use crate::policy::tests::view;
        use crate::task::{Priority, TaskId};
        use npu_sim::Cycles;

        #[test]
        fn shortest_job_among_candidates_wins() {
            let mut long_high = view(1, Priority::High, 0);
            long_high.tokens = 9.0;
            long_high.estimated_total = Cycles::new(10_000_000);
            let mut short_high = view(2, Priority::High, 100);
            short_high.tokens = 9.0;
            short_high.estimated_total = Cycles::new(500_000);
            assert_eq!(
                PolicyKind::Prema.select(&[long_high, short_high], 1.0),
                TaskId(2)
            );
        }

        #[test]
        fn short_job_outside_the_candidate_group_does_not_win() {
            // The shortest task has too few tokens to be a candidate; PREMA
            // picks the shortest job *within* the candidate group.
            let mut short_low = view(1, Priority::Low, 0);
            short_low.tokens = 1.0;
            short_low.estimated_total = Cycles::new(100_000);
            let mut long_high = view(2, Priority::High, 100);
            long_high.tokens = 9.0;
            long_high.estimated_total = Cycles::new(5_000_000);
            assert_eq!(
                PolicyKind::Prema.select(&[short_low, long_high], 1.0),
                TaskId(2)
            );
        }

        #[test]
        fn starved_low_priority_task_eventually_becomes_a_candidate() {
            // After waiting, the low-priority task accumulated 9.3 tokens:
            // the threshold stays at 9 and both tasks are candidates; the
            // shorter low-priority task now wins — the Figure 2(d)
            // behaviour.
            let mut waited_low = view(1, Priority::Low, 0);
            waited_low.tokens = 9.3;
            waited_low.estimated_total = Cycles::new(200_000);
            let mut fresh_high = view(2, Priority::High, 50_000);
            fresh_high.tokens = 9.0;
            fresh_high.estimated_total = Cycles::new(3_000_000);
            assert_eq!(
                PolicyKind::Prema.select(&[waited_low, fresh_high], 1.0),
                TaskId(1)
            );
        }

        #[test]
        fn remaining_not_total_length_is_compared() {
            let mut nearly_done_long = view(1, Priority::Medium, 0);
            nearly_done_long.tokens = 3.0;
            nearly_done_long.estimated_total = Cycles::new(2_000_000);
            nearly_done_long.executed = Cycles::new(1_950_000);
            let mut fresh_short = view(2, Priority::Medium, 100);
            fresh_short.tokens = 3.0;
            fresh_short.estimated_total = Cycles::new(400_000);
            assert_eq!(
                PolicyKind::Prema.select(&[nearly_done_long, fresh_short], 1.0),
                TaskId(1)
            );
        }
    }
}
