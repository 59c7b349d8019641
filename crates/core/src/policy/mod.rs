//! Scheduling policies.
//!
//! All six policies of the paper's evaluation (Figure 11/12) share one
//! interface: given the scheduler's view of every schedulable task (the ready
//! queue plus, in preemptive modes, the currently running task), return the
//! task that should own the NPU next. The engine is responsible for turning a
//! "different task than the one running" answer into an actual preemption via
//! the configured preemption mode.

mod fcfs;
mod hpf;
mod prema;
mod round_robin;
mod sjf;
mod token;

pub use fcfs::Fcfs;
pub use hpf::HighPriorityFirst;
pub use prema::Prema;
pub use round_robin::RoundRobin;
pub use sjf::ShortestJobFirst;
pub use token::{period_token_grant, TokenPolicy};

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
    /// Cycles spent waiting in the ready queue so far.
    pub waited: Cycles,
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

/// A scheduling policy: selects which task should own the NPU next.
pub trait SchedulingPolicy: std::fmt::Debug + Send {
    /// The policy's paper name.
    fn name(&self) -> &'static str;

    /// Selects the next task among `tasks` (never empty). `now` is the
    /// current simulation time.
    ///
    /// # Contract
    ///
    /// `select` must be a pure function of `(now, tasks)` — it must not
    /// carry observable state between invocations — and must honour
    /// [`SchedulingPolicy::certificate`]. The engine's event-horizon fast
    /// path relies on both: it skips every quantum wakeup (and therefore
    /// the `select` call) whose answer is already known — the only
    /// schedulable task is the one running, or the certificate rules out
    /// any other answer — which is only bit-identical to stepping if elided
    /// calls could not have mutated the policy and would have re-picked the
    /// running task. All six paper policies satisfy this; the determinism
    /// regression tests enforce it.
    fn select(&mut self, now: Cycles, tasks: &[TaskView]) -> TaskId;

    /// What can make [`SchedulingPolicy::select`] stop choosing a running
    /// task it chose, before the next arrival or completion — that is,
    /// while the waiting tasks only accrue waiting time and tokens and the
    /// running task only executes. The default rules nothing out: any
    /// quantum wakeup may change the answer (round-robin).
    fn certificate(&self) -> ChoiceCertificate {
        ChoiceCertificate::EveryQuantum
    }
}

/// The answer of [`SchedulingPolicy::certificate`]: what, between one
/// arrival or completion and the next, can make the policy stop choosing
/// the running task it chose.
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

/// Constructs the policy implementation for a [`PolicyKind`].
///
/// `token_scale` multiplies the Table II token grant levels used as candidate
/// thresholds by the TOKEN and PREMA policies (Section VI-E sensitivity).
pub fn make_policy(kind: PolicyKind, token_scale: f64) -> Box<dyn SchedulingPolicy> {
    match kind {
        PolicyKind::Fcfs => Box::new(Fcfs::new()),
        PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
        PolicyKind::Hpf => Box::new(HighPriorityFirst::new()),
        PolicyKind::Token => Box::new(TokenPolicy::new(token_scale)),
        PolicyKind::Sjf => Box::new(ShortestJobFirst::new()),
        PolicyKind::Prema => Box::new(Prema::new(token_scale)),
    }
}

/// The Table II grant levels (1/3/9) scaled by `token_scale`, ascending:
/// the thresholds Algorithm 2's candidate group can take.
pub(crate) fn grant_levels(token_scale: f64) -> [f64; 3] {
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
pub(crate) fn token_threshold(tasks: &[TaskView], token_scale: f64) -> f64 {
    let max_tokens = tasks.iter().map(|t| t.tokens).fold(0.0, f64::max);
    level_floor(grant_levels(token_scale), max_tokens)
}

/// The candidate group: the tasks whose tokens reach the threshold, in
/// view order. It is all tasks when none does (which can only happen if
/// every token count is below the lowest grant level). Lazy, so a policy
/// picks its winner in one pass over the candidates.
pub(crate) fn candidate_group(
    tasks: &[TaskView],
    token_scale: f64,
) -> impl Iterator<Item = &TaskView> {
    let threshold = token_threshold(tasks, token_scale);
    let floor = if tasks.iter().any(|t| t.tokens >= threshold) {
        threshold
    } else {
        f64::NEG_INFINITY
    };
    tasks.iter().filter(move |t| t.tokens >= floor)
}

/// Deterministic arrival-order tie break used by every policy: earliest
/// arrival first, then lowest task ID.
pub(crate) fn earliest_arrival<'a>(tasks: impl IntoIterator<Item = &'a TaskView>) -> TaskId {
    tasks
        .into_iter()
        .min_by_key(|t| (t.arrival, t.id))
        .expect("policy select is never called with zero tasks")
        .id
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Builds a task view with sensible defaults for policy unit tests.
    pub fn view(id: u64, priority: Priority, arrival: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority,
            arrival: Cycles::new(arrival),
            tokens: priority.token_grant(),
            estimated_total: Cycles::new(1_000_000),
            executed: Cycles::ZERO,
            waited: Cycles::ZERO,
            last_scheduled: None,
            is_running: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::view;
    use super::*;

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
        assert_eq!(earliest_arrival(&[a, b, c]), TaskId(1));
    }

    #[test]
    fn factory_builds_every_policy() {
        for kind in PolicyKind::ALL {
            let policy = make_policy(kind, 1.0);
            assert_eq!(policy.name(), kind.paper_name());
        }
    }
}
