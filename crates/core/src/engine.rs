//! The multi-task NPU simulation engine.
//!
//! [`NpuSimulator`] drives a set of prepared inference tasks through one NPU
//! under a [`SchedulerConfig`]: it admits arrivals, wakes the scheduler on
//! the three events of Section V-C (task arrival, task completion, expiry of
//! the scheduling period), asks the configured policy for the next task,
//! applies the configured preemption mode (including the Algorithm 3 dynamic
//! mechanism selection), and charges checkpoint / restore latencies through
//! the `npu-sim` DMA model.
//!
//! The engine works at preemption-interval granularity: a running task's
//! progress is tracked with a [`ProgressCursor`] over its [`ExecutionPlan`],
//! and CHECKPOINT preemptions take effect at the next interval boundary, as
//! on the real hardware (`GEMM_OP` commit points).
//!
//! # The event horizon
//!
//! Waking the scheduler at every expired quantum is faithful but wasteful:
//! almost every wakeup re-picks the task already running. [`NpuSimulator::run`]
//! therefore computes, at every execution step, the *event horizon* — the
//! running task's completion or the next task arrival, whichever comes
//! first — and jumps `now` over the leading run of quantum wakeups before
//! it whose answer is already known, stepping from the first one that could
//! choose differently. Skipped wakeups are fully accounted for: the
//! invocation counter advances by the number of elided quanta and their
//! token grants are replayed in one batched, bit-identical
//! `grant_tokens_batch` call, so the produced [`SimOutcome`] — per-task
//! records, makespan, even the scheduler-invocation count — is exactly what
//! stepping every quantum produces. A wakeup's answer is known when a task
//! is running and
//!
//! * the waiting set is empty, so there is no alternative candidate (a
//!   policy is a pure function of the task views — see
//!   [`PolicyKind::select`]); or
//! * the preemption mode is non-preemptive, so the scheduler is not
//!   consulted while a task runs; or
//! * the last wakeup left the policy's own choice running — it dispatched
//!   onto an idle NPU or re-picked the runner, not a DRAIN or a preemption —
//!   no state changed since (its `state_version` stamp holds), and the
//!   policy's [`PolicyKind::certificate`] rules this wakeup out. HPF,
//!   SJF and FCFS rule out every wakeup before the horizon; TOKEN and PREMA
//!   every wakeup before the first whose grant brings a waiting task's
//!   tokens to a grant level at or above the current threshold, found by
//!   replaying the same per-period `f64` grants; round-robin none.
//!
//! The fast path consults the certificate only when a quantum boundary
//! lies before both the event horizon and the pause horizon. The session's
//! next-event certificate ([`SimSession::next_event_time`]) reads it as
//! well: once per stamp, the session stores the first boundary before the
//! event horizon that the certificate does not rule out, so a cluster
//! driver leaves a node unadvanced across the wakeups the engine would
//! skip. The step-every-quantum loop stays
//! in-tree as [`NpuSimulator::run_reference`]; `tests/determinism.rs`
//! asserts the two paths are bit-identical across every policy and
//! preemption mode, under random quanta and token scales.
//!
//! # Suspend / resume
//!
//! The event loop is factored into a state machine, [`SimSession`], that can
//! be paused at an arbitrary *horizon* and resumed later:
//! [`SimSession::run_until`] simulates until the clock reaches the horizon
//! and returns [`StepOutcome::Paused`] (or [`StepOutcome::Drained`] once
//! every admitted task has completed). [`NpuSimulator::run`] is literally
//! `session(..) + run_until(Cycles::MAX) + finish()`, and pausing is pure
//! suspension: composing `run_until` over *any* ascending sequence of
//! horizons produces a [`SimOutcome`] bit-identical to the one-shot run —
//! per-task records, makespan, even the scheduler-invocation count
//! (`tests/property_tests.rs` pins this with random horizon sequences
//! across every policy and preemption mode).
//!
//! A paused session also exposes what a cluster front-end could observe on
//! a real accelerator node — the live queue depth, the predictor's remaining
//! work over resident tasks, the next completion bound — and accepts *new*
//! tasks mid-flight ([`SimSession::inject`]) or gives not-yet-started ones
//! back ([`SimSession::revoke`]). This is what turns N independent
//! simulators into a closed-loop cluster: see `prema_cluster::online`.
//!
//! [`PolicyKind::select`]: crate::config::PolicyKind::select
//! [`PolicyKind::certificate`]: crate::config::PolicyKind::certificate

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dnn_models::ModelKind;
use npu_sim::{CheckpointModel, Cycles, NpuConfig};

use crate::config::{PreemptionMode, SchedulerConfig};
use crate::plan::{ExecutionPlan, ProgressCursor};
use crate::policy::{level_floor, period_token_grant, ChoiceCertificate, TaskView};
use crate::preemption::{select_mechanism, MechanismDecisionInputs, PreemptionMechanism};
use crate::task::{Priority, TaskId, TaskRequest, TaskState};
use crate::trace::{CandidateSet, NullSink, TraceEvent, TraceSink};

/// A one-read bundle of the per-node signals a cluster dispatch index keys
/// on. Every field is O(1) to produce (the engine maintains the totals
/// incrementally — see [`SimSession::predicted_remaining_work`] and
/// [`SimSession::predicted_blocking_work`]), so an index refresh costs one
/// call instead of five accessor round-trips, and the bundle documents
/// exactly which session state a dispatch index is allowed to depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchSignals {
    /// The session clock at the read (the node-local "now").
    pub now: Cycles,
    /// Live queue depth: resident tasks not yet finished.
    pub queue_depth: usize,
    /// Total predicted remaining work over resident tasks.
    pub remaining_work: Cycles,
    /// Predicted blocking work per arrival priority, indexed by
    /// [`Priority::index`]: the work the node would run before a newcomer
    /// of that priority (suffix sums of the per-priority totals).
    pub blocking_work: [Cycles; Priority::ALL.len()],
    /// The running task's priority while its estimated remaining work is
    /// positive; `None` when nothing runs or the estimate is used up.
    /// Until the node's next event, blocking work at arrival priority `p`
    /// drains while this is some `r >= p` (see
    /// [`SimSession::predicted_blocking_work_at`]): one cycle per cycle on
    /// a node neither `stalled` nor `scaled`, slower on a scaled one and
    /// not at all on a stalled one. At every other level it stays frozen.
    pub runner_priority: Option<Priority>,
    /// The node is inside a fault stall (crash downtime or freeze): the
    /// clock is parked and nothing progresses until the window ends.
    pub stalled: bool,
    /// The node's clock is scaled below unit speed (degrade window).
    pub scaled: bool,
}

/// A request whose execution plan has been compiled for a specific NPU
/// configuration. Plans are shared via [`Arc`] so the same workload can be
/// replayed under many scheduler configurations without recompiling.
#[derive(Debug, Clone)]
pub struct PreparedTask {
    /// The original request.
    pub request: TaskRequest,
    /// The compiled execution plan (at the request's *actual* sequence
    /// lengths).
    pub plan: Arc<ExecutionPlan>,
}

impl PreparedTask {
    /// Compiles the request's plan for the given NPU configuration,
    /// sharing identical plans through the process-wide
    /// [`plan_cache`](crate::plan::plan_cache).
    pub fn prepare(request: TaskRequest, npu: &NpuConfig) -> Self {
        let plan = ExecutionPlan::compile_cached(request.model, request.batch, request.seq, npu);
        PreparedTask { request, plan }
    }

    /// Compiles the request's plan from scratch, bypassing the plan cache.
    /// The compiled timing is identical to [`PreparedTask::prepare`]; this
    /// exists for baseline measurements and cache-validation tests.
    pub fn prepare_uncached(request: TaskRequest, npu: &NpuConfig) -> Self {
        let plan = ExecutionPlan::compile_shared(request.model, request.batch, request.seq, npu);
        PreparedTask { request, plan }
    }

    /// The task's isolated (uninterrupted) execution time.
    pub fn isolated_cycles(&self) -> Cycles {
        self.plan.total_cycles()
    }

    /// The estimate the scheduler will use: the predictor-provided estimate
    /// if present, otherwise the exact plan length (oracle estimates).
    pub fn estimated_cycles(&self) -> Cycles {
        self.request
            .estimated_cycles
            .unwrap_or_else(|| self.plan.total_cycles())
    }
}

/// Per-task results of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task identifier.
    pub id: TaskId,
    /// The model the task ran.
    pub model: ModelKind,
    /// Batch size.
    pub batch: u64,
    /// Priority level.
    pub priority: Priority,
    /// Dispatch time.
    pub arrival: Cycles,
    /// When the task first started executing on the NPU.
    pub first_start: Cycles,
    /// When the task completed.
    pub completion: Cycles,
    /// The task's isolated execution time (`C_single`).
    pub isolated_cycles: Cycles,
    /// The estimate the scheduler used.
    pub estimated_cycles: Cycles,
    /// Number of times the task was preempted (CHECKPOINT or KILL).
    pub preemption_count: u64,
    /// Number of KILL restarts the task suffered.
    pub kill_restarts: u64,
    /// Total cycles spent checkpointing this task's context.
    pub checkpoint_overhead: Cycles,
    /// Total cycles spent restoring this task's context.
    pub restore_overhead: Cycles,
    /// The largest context state this task ever checkpointed, in bytes.
    pub max_checkpoint_bytes: u64,
}

impl TaskRecord {
    /// Turnaround time under multi-tasking (`C_multi`): dispatch to
    /// completion.
    pub fn turnaround(&self) -> Cycles {
        self.completion - self.arrival
    }

    /// Time the task waited before first receiving the NPU.
    pub fn waiting(&self) -> Cycles {
        self.first_start - self.arrival
    }

    /// Normalized turnaround time (Equation 1).
    pub fn ntt(&self) -> f64 {
        self.turnaround().ratio(self.isolated_cycles)
    }

    /// The task's progress relative to isolated execution (`C_single/C_multi`).
    pub fn progress(&self) -> f64 {
        self.isolated_cycles.ratio(self.turnaround())
    }
}

/// Aggregate results of one simulation.
///
/// # Equality
///
/// `PartialEq` compares the *semantic* outcome — records, makespan and the
/// decision counters — and deliberately excludes the engine-diagnostic
/// fields ([`SimOutcome::quanta_skipped`],
/// [`SimOutcome::replayed_token_grants`]): those describe *how* the
/// event-horizon fast path got there, and are the only fields on which the
/// fast engine legitimately differs from the step-every-quantum reference
/// it must otherwise match bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Per-task records, in task-ID order.
    pub records: Vec<TaskRecord>,
    /// Completion time of the last task.
    pub makespan: Cycles,
    /// Number of scheduler wakeups.
    pub scheduler_invocations: u64,
    /// Number of preemptions performed with CHECKPOINT.
    pub checkpoint_preemptions: u64,
    /// Number of preemptions performed with KILL.
    pub kill_preemptions: u64,
    /// Number of times the dynamic mechanism selection chose DRAIN.
    pub drain_decisions: u64,
    /// Quantum wakeups the event-horizon fast path elided (diagnostic;
    /// always zero on the reference engine, excluded from equality).
    pub quanta_skipped: u64,
    /// Per-task token grants replayed in fast-forward batches — each
    /// skipped period's grant to each then-waiting task (diagnostic;
    /// always zero on the reference engine, excluded from equality).
    pub replayed_token_grants: u64,
}

impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.makespan == other.makespan
            && self.scheduler_invocations == other.scheduler_invocations
            && self.checkpoint_preemptions == other.checkpoint_preemptions
            && self.kill_preemptions == other.kill_preemptions
            && self.drain_decisions == other.drain_decisions
    }
}

/// One-pass aggregate of a [`SimOutcome`]'s per-task records.
///
/// Computing [`SimOutcome::antt`] and [`SimOutcome::stp`] separately walks
/// `records` twice; callers that need more than one aggregate (the bench
/// figure modules, the suite, the throughput report) take a single
/// [`SimOutcome::summary`] pass instead.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OutcomeSummary {
    /// Number of per-task records aggregated.
    pub task_count: usize,
    /// Average normalized turnaround time (Equation 1 averaged over tasks).
    pub antt: f64,
    /// System throughput: sum of per-task progress.
    pub stp: f64,
    /// Total preemptions suffered across all tasks (CHECKPOINT or KILL).
    pub preemptions: u64,
    /// Total KILL restarts suffered across all tasks.
    pub kill_restarts: u64,
    /// Quantum wakeups the event-horizon fast path elided (zero on the
    /// reference engine).
    pub quanta_skipped: u64,
    /// Per-task token grants replayed in fast-forward batches (zero on the
    /// reference engine).
    pub replayed_token_grants: u64,
}

impl SimOutcome {
    /// The record for `id`, if the task was part of the run.
    ///
    /// Engine-produced outcomes keep `records` id-sorted, so the lookup is
    /// a binary search. `records` is a public field, though, so an
    /// externally assembled (or re-sorted) outcome falls back to a linear
    /// scan rather than silently missing the record.
    pub fn record(&self, id: TaskId) -> Option<&TaskRecord> {
        match self.records.binary_search_by_key(&id, |r| r.id) {
            Ok(i) => Some(&self.records[i]),
            Err(_) => self.records.iter().find(|r| r.id == id),
        }
    }

    /// Aggregates the per-task records in a single pass.
    ///
    /// `summary().antt` and `summary().stp` accumulate in the same
    /// per-record order as [`SimOutcome::antt`] / [`SimOutcome::stp`], so
    /// the values are bit-identical to the two-pass accessors.
    pub fn summary(&self) -> OutcomeSummary {
        let mut ntt_sum = 0.0f64;
        let mut stp = 0.0f64;
        let mut preemptions = 0u64;
        let mut kill_restarts = 0u64;
        for record in &self.records {
            ntt_sum += record.ntt();
            stp += record.progress();
            preemptions += record.preemption_count;
            kill_restarts += record.kill_restarts;
        }
        let antt = if self.records.is_empty() {
            0.0
        } else {
            ntt_sum / self.records.len() as f64
        };
        OutcomeSummary {
            task_count: self.records.len(),
            antt,
            stp,
            preemptions,
            kill_restarts,
            quanta_skipped: self.quanta_skipped,
            replayed_token_grants: self.replayed_token_grants,
        }
    }

    /// Average normalized turnaround time across all tasks.
    pub fn antt(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(TaskRecord::ntt).sum::<f64>() / self.records.len() as f64
    }

    /// System throughput: sum of per-task progress.
    pub fn stp(&self) -> f64 {
        self.records.iter().map(TaskRecord::progress).sum()
    }
}

/// The per-task state the engine tracks while simulating.
#[derive(Debug)]
struct Runtime {
    prepared: PreparedTask,
    cursor: ProgressCursor,
    state: TaskState,
    arrived: bool,
    /// When the session's admission loop hands the task to the scheduler.
    /// Equals the request's arrival for ordinary tasks; salvage re-injection
    /// sets it to the recovery instant so a node whose clock lags the
    /// cluster's cannot run the task before it was actually re-admitted
    /// (the record still carries the original arrival).
    admit_at: Cycles,
    tokens: f64,
    /// Waiting time materialized at the task's last transition *out of* the
    /// waiting set. While the task is waiting, its effective waiting time is
    /// `waited + (total_wait - wait_baseline)` — see [`EngineState`].
    waited: Cycles,
    /// The engine's `total_wait` at the moment this task last entered the
    /// waiting set.
    wait_baseline: Cycles,
    waited_at_last_grant: Cycles,
    estimated: Cycles,
    first_start: Option<Cycles>,
    completion: Option<Cycles>,
    last_scheduled: Option<Cycles>,
    checkpointed_bytes: u64,
    needs_restore: bool,
    preemption_count: u64,
    kill_restarts: u64,
    checkpoint_overhead: Cycles,
    restore_overhead: Cycles,
    max_checkpoint_bytes: u64,
    /// Whether the task was handed back via [`SimSession::revoke`] before it
    /// ever started. Revoked tasks count as finished for the loop condition
    /// but produce no [`TaskRecord`].
    revoked: bool,
}

impl Runtime {
    fn new(prepared: PreparedTask) -> Self {
        let estimated = prepared.estimated_cycles();
        let tokens = prepared.request.priority.token_grant();
        let admit_at = prepared.request.arrival;
        Runtime {
            prepared,
            cursor: ProgressCursor::start(),
            state: TaskState::Ready,
            arrived: false,
            admit_at,
            tokens,
            waited: Cycles::ZERO,
            wait_baseline: Cycles::ZERO,
            waited_at_last_grant: Cycles::ZERO,
            estimated,
            first_start: None,
            completion: None,
            last_scheduled: None,
            checkpointed_bytes: 0,
            needs_restore: false,
            preemption_count: 0,
            kill_restarts: 0,
            checkpoint_overhead: Cycles::ZERO,
            restore_overhead: Cycles::ZERO,
            max_checkpoint_bytes: 0,
            revoked: false,
        }
    }

    fn id(&self) -> TaskId {
        self.prepared.request.id
    }

    /// The predictor's estimate of this task's remaining execution time,
    /// saturating at zero when the estimate undershoots the true length.
    fn remaining_estimate(&self) -> Cycles {
        self.estimated - self.cursor.executed()
    }

    /// The last commit point as `(resume_executed, checkpoint_bytes)`: the
    /// start of the interval the cursor is in (everything before it
    /// committed at interval boundaries), with the checkpoint footprint
    /// live there. A cursor already at a boundary keeps all its progress;
    /// mid-interval progress is lost.
    fn last_commit_point(&self) -> (Cycles, u64) {
        let plan = &self.prepared.plan;
        let commit = self.cursor.last_commit(plan);
        (commit.executed(), commit.live_checkpoint_bytes(plan))
    }

    fn is_waiting(&self) -> bool {
        self.arrived
            && !self.revoked
            && matches!(self.state, TaskState::Ready | TaskState::Checkpointed)
            && self.completion.is_none()
    }

    /// The task's waiting time as of `total_wait` (see [`EngineState`]).
    fn effective_waited(&self, total_wait: Cycles) -> Cycles {
        if self.is_waiting() {
            self.waited + (total_wait - self.wait_baseline)
        } else {
            self.waited
        }
    }

    fn view(&self, is_running: bool) -> TaskView {
        TaskView {
            id: self.prepared.request.id,
            priority: self.prepared.request.priority,
            arrival: self.prepared.request.arrival,
            tokens: self.tokens,
            estimated_total: self.estimated,
            executed: self.cursor.executed(),
            last_scheduled: self.last_scheduled,
            is_running,
        }
    }
}

/// Incrementally maintained scheduler state.
///
/// The naive event loop recounted completions, re-probed for waiting tasks
/// and rebuilt + re-sorted the policy's `TaskView` vector on every wakeup —
/// all O(n) scans. This struct keeps that state up to date at each
/// transition instead:
///
/// * `finished` — counter of tasks that are done with the engine (completed
///   or revoked), so the loop condition is O(1);
/// * `waiting` — the indices of schedulable tasks, kept sorted by task id,
///   updated by O(log n) binary-search insert/remove at the (rare) state
///   transitions;
/// * `total_wait` — a global waiting-time accumulator. Charging `dt` of
///   waiting to every waiting task is a single add; a task's own waiting
///   time is reconstructed as `waited + (total_wait - wait_baseline)`,
///   making wait accrual O(1) instead of O(n) per event;
/// * `id_index` — id-sorted (id, index) pairs, so resolving the policy's
///   chosen [`TaskId`] back to a runtime is a binary search;
/// * `views` — a reusable scratch buffer for the policy's task views, so
///   steady-state scheduling events allocate nothing;
/// * `remaining_work` / `remaining_by_priority` — running totals of the
///   predictor's remaining-work estimate over every live (not completed,
///   not revoked) task, per-task saturating exactly like the former
///   resident scans, updated at every cursor advance / reset and at
///   completion, injection and revocation — so the closed-loop accessors
///   [`SimSession::predicted_remaining_work`] and
///   [`SimSession::predicted_blocking_work`] are O(1);
/// * `steal_order` / `shed_order` / `revocable_work` — the never-started
///   (revocable) tasks kept in the work-stealing and load-shedding
///   preference orders, with their summed estimates, so a cluster
///   front-end's victim searches are O(1) peeks instead of resident scans;
/// * `state_version` — a monotone counter bumped at every transition that
///   can move the closed-loop observation surface (waiting-set entry/exit,
///   completion, injection, revocation). Between equal versions a paused
///   session either idles or executes one task continuously with no
///   checkpoint/restore stalls, which is what lets cluster-side caches
///   reuse derived per-node state (see `prema_cluster`).
#[derive(Debug)]
struct EngineState {
    runtimes: Vec<Runtime>,
    waiting: Vec<usize>,
    finished: usize,
    total_wait: Cycles,
    id_index: Vec<(TaskId, usize)>,
    views: Vec<TaskView>,
    remaining_work: Cycles,
    remaining_by_priority: [Cycles; Priority::ALL.len()],
    revocable_work: Cycles,
    steal_order: Vec<usize>,
    shed_order: Vec<usize>,
    state_version: u64,
}

impl EngineState {
    fn new(tasks: &[PreparedTask]) -> Self {
        let runtimes: Vec<Runtime> = tasks.iter().cloned().map(Runtime::new).collect();
        let mut id_index: Vec<(TaskId, usize)> = runtimes
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id(), i))
            .collect();
        id_index.sort_unstable_by_key(|&(id, _)| id);
        let capacity = runtimes.len();
        let mut remaining_work = Cycles::ZERO;
        let mut remaining_by_priority = [Cycles::ZERO; Priority::ALL.len()];
        let mut revocable_work = Cycles::ZERO;
        for runtime in &runtimes {
            let priority = runtime.prepared.request.priority;
            remaining_work += runtime.estimated;
            remaining_by_priority[priority.index()] += runtime.estimated;
            revocable_work += runtime.estimated;
        }
        let mut state = EngineState {
            runtimes,
            waiting: Vec::with_capacity(capacity),
            finished: 0,
            total_wait: Cycles::ZERO,
            id_index,
            views: Vec::with_capacity(capacity),
            remaining_work,
            remaining_by_priority,
            revocable_work,
            steal_order: (0..capacity).collect(),
            shed_order: (0..capacity).collect(),
            state_version: 0,
        };
        // Keys are indexed by *runtime index*, matching the indices stored
        // in the order vectors (whatever their initial permutation).
        let steal_keys: Vec<_> = (0..capacity).map(|i| state.steal_key(i)).collect();
        state.steal_order.sort_by_key(|&i| steal_keys[i]);
        let shed_keys: Vec<_> = (0..capacity).map(|i| state.shed_key(i)).collect();
        state.shed_order.sort_by_key(|&i| shed_keys[i]);
        state
    }

    /// The work-stealing preference key: a thief takes the revocable task
    /// with the largest remaining estimate (never-started, so the estimate
    /// itself), ties to the lowest id — the *last* entry of `steal_order`.
    fn steal_key(&self, idx: usize) -> (Cycles, std::cmp::Reverse<TaskId>) {
        let runtime = &self.runtimes[idx];
        (runtime.estimated, std::cmp::Reverse(runtime.id()))
    }

    /// The load-shedding preference key: lowest priority first, then the
    /// largest estimate, then the newest id — the *first* entry of
    /// `shed_order` sheds first.
    fn shed_key(
        &self,
        idx: usize,
    ) -> (
        Priority,
        std::cmp::Reverse<Cycles>,
        std::cmp::Reverse<TaskId>,
    ) {
        let runtime = &self.runtimes[idx];
        (
            runtime.prepared.request.priority,
            std::cmp::Reverse(runtime.estimated),
            std::cmp::Reverse(runtime.id()),
        )
    }

    /// Adds a never-started task to the revocable indexes.
    fn track_revocable(&mut self, idx: usize) {
        debug_assert!(self.runtimes[idx].first_start.is_none());
        self.revocable_work += self.runtimes[idx].estimated;
        let steal = self.steal_key(idx);
        let pos = self
            .steal_order
            .binary_search_by(|&i| self.steal_key(i).cmp(&steal))
            .expect_err("task is not already steal-tracked");
        self.steal_order.insert(pos, idx);
        let shed = self.shed_key(idx);
        let pos = self
            .shed_order
            .binary_search_by(|&i| self.shed_key(i).cmp(&shed))
            .expect_err("task is not already shed-tracked");
        self.shed_order.insert(pos, idx);
    }

    /// Removes a task from the revocable indexes: it is starting for the
    /// first time, or being revoked.
    fn untrack_revocable(&mut self, idx: usize) {
        self.revocable_work -= self.runtimes[idx].estimated;
        let steal = self.steal_key(idx);
        let pos = self
            .steal_order
            .binary_search_by(|&i| self.steal_key(i).cmp(&steal))
            .expect("task is steal-tracked");
        self.steal_order.remove(pos);
        let shed = self.shed_key(idx);
        let pos = self
            .shed_order
            .binary_search_by(|&i| self.shed_key(i).cmp(&shed))
            .expect("task is shed-tracked");
        self.shed_order.remove(pos);
    }

    /// The plan-cursor remaining cycles of runtime `idx`.
    fn plan_remaining(&self, idx: usize) -> Cycles {
        let runtime = &self.runtimes[idx];
        runtime.cursor.remaining(&runtime.prepared.plan)
    }

    /// Advances `idx`'s progress cursor by at most `budget` cycles, keeping
    /// the predicted-work totals in sync with the task's live progress.
    /// Returns the cycles actually consumed.
    fn advance_cursor(&mut self, idx: usize, budget: Cycles) -> Cycles {
        let runtime = &mut self.runtimes[idx];
        // Split borrows: the cursor advances against the plan in place, no
        // Arc refcount round-trip on this per-event hot path.
        let Runtime {
            cursor,
            prepared,
            estimated,
            ..
        } = runtime;
        let before = *estimated - cursor.executed();
        let consumed = cursor.advance(&prepared.plan, budget);
        let freed = before - (*estimated - cursor.executed());
        let priority = prepared.request.priority;
        self.remaining_work -= freed;
        self.remaining_by_priority[priority.index()] -= freed;
        consumed
    }

    /// Resets `idx`'s progress cursor (KILL preemption), restoring the
    /// discarded progress to the predicted-work totals.
    fn reset_cursor(&mut self, idx: usize) {
        let runtime = &mut self.runtimes[idx];
        let regained = runtime.estimated - runtime.remaining_estimate();
        runtime.cursor.reset();
        let priority = runtime.prepared.request.priority;
        self.remaining_work += regained;
        self.remaining_by_priority[priority.index()] += regained;
    }

    fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Resolves a task id to its runtime index.
    fn index_of(&self, id: TaskId) -> usize {
        self.id_index
            .binary_search_by_key(&id, |&(id, _)| id)
            .map(|pos| self.id_index[pos].1)
            .expect("policy returned an unknown task id")
    }

    /// Charges `dt` of waiting time to every currently waiting task.
    fn accrue(&mut self, dt: Cycles) {
        self.total_wait += dt;
    }

    /// Adds `idx` to the waiting set. Must be called *after* the runtime's
    /// state satisfies `is_waiting`.
    fn enter_waiting(&mut self, idx: usize) {
        debug_assert!(self.runtimes[idx].is_waiting());
        self.state_version += 1;
        self.runtimes[idx].wait_baseline = self.total_wait;
        let id = self.runtimes[idx].id();
        let pos = self
            .waiting
            .binary_search_by_key(&id, |&i| self.runtimes[i].id())
            .expect_err("task is not already waiting");
        self.waiting.insert(pos, idx);
    }

    /// Removes `idx` from the waiting set, materializing its accrued
    /// waiting time. Must be called *before* the runtime's state changes.
    fn leave_waiting(&mut self, idx: usize) {
        debug_assert!(self.runtimes[idx].is_waiting());
        self.state_version += 1;
        let id = self.runtimes[idx].id();
        let pos = self
            .waiting
            .binary_search_by_key(&id, |&i| self.runtimes[i].id())
            .expect("task is in the waiting set");
        self.waiting.remove(pos);
        let runtime = &mut self.runtimes[idx];
        runtime.waited += self.total_wait - runtime.wait_baseline;
    }

    /// Marks the running task `idx` complete at `now`, dropping any leftover
    /// estimate (a predictor overestimate) from the predicted-work totals.
    fn complete(&mut self, idx: usize, now: Cycles) {
        self.state_version += 1;
        let runtime = &mut self.runtimes[idx];
        debug_assert!(runtime.completion.is_none());
        runtime.completion = Some(now);
        runtime.state = TaskState::Completed;
        self.drop_remaining(idx);
        self.finished += 1;
    }

    /// Drops `idx`'s remaining estimate from the predicted-work totals: the
    /// task completed or left the node.
    fn drop_remaining(&mut self, idx: usize) {
        let runtime = &self.runtimes[idx];
        let removed = runtime.remaining_estimate();
        let priority = runtime.prepared.request.priority;
        self.remaining_work -= removed;
        self.remaining_by_priority[priority.index()] -= removed;
    }

    /// Grants additional tokens to every waiting task, proportional to its
    /// priority and the normalized slowdown it accumulated since the last
    /// grant (Algorithm 2, line 7; the formula lives in
    /// [`crate::policy::period_token_grant`]).
    fn grant_tokens(&mut self, token_scale: f64) {
        let total_wait = self.total_wait;
        for &idx in &self.waiting {
            let runtime = &mut self.runtimes[idx];
            let effective = runtime.effective_waited(total_wait);
            let newly_waited = effective - runtime.waited_at_last_grant;
            if newly_waited.is_zero() {
                continue;
            }
            runtime.tokens += period_token_grant(
                runtime.prepared.request.priority,
                token_scale,
                newly_waited,
                runtime.estimated,
            );
            runtime.waited_at_last_grant = effective;
        }
    }

    /// Replays the token grants of `periods` consecutive scheduling-period
    /// wakeups in one call. The last `periods - 1` wakeups each grant a full
    /// `quantum` of newly-waited time; the first wakeup grants whatever each
    /// task accumulated since its previous grant (derived per task from its
    /// own `waited_at_last_grant`, so no alignment assumption is needed).
    ///
    /// Bit-identity with stepping: a task's token count depends only on the
    /// sequence of its *own* grant additions, and this performs the same
    /// per-period additions (same `f64` values, same order) per task as
    /// `periods` separate [`EngineState::grant_tokens`] calls would — it
    /// merely iterates per task instead of per period. Must be called
    /// *after* the skipped periods' waiting time has been accrued into
    /// `total_wait` (i.e. with `total_wait` as of the last skipped wakeup).
    fn grant_tokens_batch(&mut self, token_scale: f64, quantum: Cycles, periods: u64) {
        debug_assert!(periods >= 1);
        let total_wait = self.total_wait;
        let tail = quantum * (periods - 1);
        for &idx in &self.waiting {
            let runtime = &mut self.runtimes[idx];
            let priority = runtime.prepared.request.priority;
            let effective = runtime.effective_waited(total_wait);
            // What the first skipped wakeup would have seen as newly waited.
            let first_newly = effective - runtime.waited_at_last_grant - tail;
            if !first_newly.is_zero() {
                runtime.tokens +=
                    period_token_grant(priority, token_scale, first_newly, runtime.estimated);
            }
            if periods > 1 {
                let per_period =
                    period_token_grant(priority, token_scale, quantum, runtime.estimated);
                for _ in 1..periods {
                    runtime.tokens += per_period;
                }
            }
            runtime.waited_at_last_grant = effective;
        }
    }

    /// How many of the next `periods` scheduling-period wakeups leave
    /// Algorithm 2's candidate group as it is: the wakeups before the first
    /// whose grant brings a waiting task's tokens to a grant level (of
    /// `levels`) at or above the current threshold. The first wakeup is
    /// `lead` after the clock, each later one a `quantum` further; `running`
    /// is the running task, whose tokens count towards the threshold.
    ///
    /// Exact, not a bound: each task's grants are replayed with the same
    /// `f64` additions, in the same order, as stepping (and
    /// [`EngineState::grant_tokens_batch`]) performs them, so the wakeup the
    /// count stops at is the first whose grant reaches a level.
    fn periods_below_levels(
        &self,
        levels: [f64; 3],
        running: usize,
        token_scale: f64,
        quantum: Cycles,
        lead: Cycles,
        periods: u64,
    ) -> u64 {
        let max_tokens = self
            .waiting
            .iter()
            .map(|&idx| self.runtimes[idx].tokens)
            .fold(self.runtimes[running].tokens, f64::max);
        let threshold = level_floor(levels, max_tokens);
        let total_wait = self.total_wait;
        let mut quiet = periods;
        for &idx in &self.waiting {
            let runtime = &self.runtimes[idx];
            // The level this task reaches next that can move the group:
            // the threshold itself from below, a higher level from inside.
            let Some(level) = levels
                .into_iter()
                .find(|&level| level >= threshold && runtime.tokens < level)
            else {
                continue;
            };
            let priority = runtime.prepared.request.priority;
            let mut tokens = runtime.tokens;
            let first_newly =
                runtime.effective_waited(total_wait) + lead - runtime.waited_at_last_grant;
            if !first_newly.is_zero() {
                tokens += period_token_grant(priority, token_scale, first_newly, runtime.estimated);
            }
            let per_period = period_token_grant(priority, token_scale, quantum, runtime.estimated);
            // `tokens` holds the count after wakeup `period`'s grant.
            let mut period = 0;
            while period < quiet && tokens < level {
                tokens += per_period;
                period += 1;
            }
            quiet = period;
        }
        quiet
    }

    /// Rebuilds the policy's view buffer: every waiting task plus (if any)
    /// the running task, in ascending task-id order. Reuses the scratch
    /// buffer, so this allocates nothing in steady state.
    fn build_views(&mut self, running: Option<usize>) -> &[TaskView] {
        self.views.clear();
        let running_id = running.map(|idx| self.runtimes[idx].id());
        let mut running_placed = running.is_none();
        for &idx in &self.waiting {
            if let (false, Some(run_idx)) = (running_placed, running) {
                if self.runtimes[run_idx].id() < self.runtimes[idx].id() {
                    self.views.push(self.runtimes[run_idx].view(true));
                    running_placed = true;
                }
            }
            debug_assert_ne!(Some(self.runtimes[idx].id()), running_id);
            self.views.push(self.runtimes[idx].view(false));
        }
        if let (false, Some(run_idx)) = (running_placed, running) {
            self.views.push(self.runtimes[run_idx].view(true));
        }
        &self.views
    }
}

/// The first quantum boundary strictly after `now`.
///
/// Replaces the former `while next_quantum <= now { next_quantum += quantum }`
/// bump loops — O(quanta skipped) — with one arithmetic step that lands on
/// exactly the same boundary (the boundaries are the fixed lattice
/// `next_quantum + i * quantum`).
fn realign_quantum(next_quantum: Cycles, now: Cycles, quantum: Cycles) -> Cycles {
    if next_quantum > now {
        return next_quantum;
    }
    let behind = (now.get() - next_quantum.get()) / quantum.get();
    next_quantum + quantum * (behind + 1)
}

/// Result of one [`SimSession::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The horizon was reached with tasks still outstanding. Resume with a
    /// later horizon (or inject more work first).
    Paused,
    /// Every admitted task has completed (or been revoked). More tasks may
    /// still be injected, or the session can be [`SimSession::finish`]ed.
    Drained,
}

/// Typed misuse errors for the closed-loop session surface
/// ([`SimSession::inject`] / [`SimSession::revoke`] and the salvage path).
///
/// A cluster fault handler drives these calls from retry loops where a task
/// may race a node failure; a panic there would take the whole chaos run
/// down, so misuse is reported as a value. Internal invariants (index
/// consistency, tracked-set membership) remain debug assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// An `inject` id is still *live* (not revoked, not completed) in the
    /// session.
    DuplicateTaskId(TaskId),
    /// The session has never seen the task id.
    UnknownTask(TaskId),
    /// The task already started executing (it holds node-resident context),
    /// so it can no longer be revoked.
    TaskAlreadyStarted(TaskId),
    /// The task already ran to completion on this session.
    TaskCompleted(TaskId),
    /// The task was already revoked (or salvaged) from this session.
    TaskRevoked(TaskId),
    /// The task has not started executing, so it has no checkpoint to
    /// extract — revoke it instead ([`SimSession::checkpoint_out`]).
    TaskNotStarted(TaskId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateTaskId(id) => {
                write!(f, "task {id:?} is still live in the session")
            }
            EngineError::UnknownTask(id) => write!(f, "task {id:?} is unknown to the session"),
            EngineError::TaskAlreadyStarted(id) => {
                write!(f, "task {id:?} has already started executing")
            }
            EngineError::TaskCompleted(id) => write!(f, "task {id:?} has already completed"),
            EngineError::TaskRevoked(id) => write!(f, "task {id:?} was already revoked"),
            EngineError::TaskNotStarted(id) => {
                write!(
                    f,
                    "task {id:?} has not started executing (revoke it instead)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The salvage manifest of one resident task drained off a failed node by
/// [`SimSession::fail`].
///
/// Recovery re-injects the manifest into a surviving node via
/// [`SimSession::inject_salvaged`]: a never-started task verbatim, a started
/// task from its last checkpoint boundary (`resume_executed` /
/// `checkpoint_bytes` — the commit-point recovery model), carrying the
/// bookkeeping the final [`TaskRecord`] must not lose across hops.
#[derive(Debug, Clone)]
pub struct SalvagedTask {
    /// The task (original request + compiled plan).
    pub prepared: PreparedTask,
    /// Execution progress preserved across the failure: the cursor position
    /// of the task's last checkpoint (`GEMM_OP` commit) boundary. Zero for
    /// never-started tasks and KILL-reset tasks.
    pub resume_executed: Cycles,
    /// The context bytes the recovering node must restore to resume from
    /// `resume_executed` (prices the recovery restore DMA).
    pub checkpoint_bytes: u64,
    /// When the task first started executing, on any node, if ever.
    pub first_start: Option<Cycles>,
    /// Preemptions suffered so far (carried into the final record).
    pub preemption_count: u64,
    /// KILL restarts suffered so far.
    pub kill_restarts: u64,
    /// Checkpoint DMA cycles charged so far.
    pub checkpoint_overhead: Cycles,
    /// Restore DMA cycles charged so far.
    pub restore_overhead: Cycles,
    /// Largest context ever checkpointed, in bytes.
    pub max_checkpoint_bytes: u64,
}

impl SalvagedTask {
    /// A restart-from-zero copy of this manifest: all execution progress is
    /// discarded, the failure/preemption bookkeeping is kept. This is the
    /// recovery baseline the checkpoint-priced path is compared against.
    pub fn restarted_from_zero(&self) -> SalvagedTask {
        SalvagedTask {
            resume_executed: Cycles::ZERO,
            checkpoint_bytes: 0,
            ..self.clone()
        }
    }
}

/// A point-in-time view of one resident (incomplete) task of a paused
/// [`SimSession`] — what a cluster front-end could observe about a real
/// node's queue: identity, priority, the predictor's estimate and the true
/// progress made so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentTask {
    /// Task identifier.
    pub id: TaskId,
    /// User-defined priority.
    pub priority: Priority,
    /// The task's dispatch time.
    pub arrival: Cycles,
    /// The scheduler's estimate of the task's isolated execution time.
    pub estimated_total: Cycles,
    /// Cycles of real execution progress so far.
    pub executed: Cycles,
    /// Whether the task has ever started executing on the node.
    pub started: bool,
    /// Whether [`SimSession::revoke`] could still hand the task back (it has
    /// made no progress and holds no node-resident context).
    pub revocable: bool,
}

impl ResidentTask {
    /// The predictor's estimate of the task's remaining execution time.
    pub fn estimated_remaining(&self) -> Cycles {
        self.estimated_total - self.executed
    }
}

/// Exact integer-rational clock stretching: while a node is degraded to
/// speed `num / den` (`0 < num <= den`), every elapsed *wall* cycle yields
/// `num / den` cycles of plan progress (*work*), tracked without rounding
/// drift through a fractional-work accumulator.
///
/// The representation keeps `acc` (work numerator carry, `0 <= acc < den`):
/// advancing `t` wall cycles yields `(acc + t * num) / den` whole work
/// cycles with the remainder carried forward. The carry makes conversion
/// *additive-exact* — converting a wall span in any number of pieces yields
/// the same total work as converting it at once — which is what lets the
/// event-horizon fast-forward, the step-every-quantum reference and any
/// `run_until` horizon sequence stay bit-identical under degradation.
///
/// Dually, `wall_needed(w)` is the *minimal* wall span after which exactly
/// `w` more work cycles have accrued: running exactly that span consumes
/// exactly `w` work with no overshoot, so completion instants computed from
/// it are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClockScale {
    num: u32,
    den: u32,
    acc: u64,
}

impl ClockScale {
    /// Full speed: 1 work cycle per wall cycle, zero carry.
    fn unit() -> Self {
        ClockScale {
            num: 1,
            den: 1,
            acc: 0,
        }
    }

    fn new(num: u32, den: u32) -> Self {
        debug_assert!(num > 0 && num <= den, "validated by set_clock_scale");
        ClockScale { num, den, acc: 0 }
    }

    fn is_unit(&self) -> bool {
        self.num == self.den
    }

    /// Work cycles accrued over `wall` elapsed wall cycles, carrying the
    /// fractional remainder.
    fn work_in(&mut self, wall: Cycles) -> Cycles {
        if self.is_unit() {
            debug_assert_eq!(self.acc, 0, "unit scale never carries");
            return wall;
        }
        let total = self.acc as u128 + wall.get() as u128 * self.num as u128;
        let work = total / self.den as u128;
        self.acc = (total % self.den as u128) as u64;
        Cycles::new(u64::try_from(work).unwrap_or(u64::MAX))
    }

    /// The work `wall` more wall cycles yield and the clock they leave
    /// behind, without advancing this one (a projection peek).
    fn after(mut self, wall: Cycles) -> (Cycles, ClockScale) {
        let work = self.work_in(wall);
        (work, self)
    }

    /// Minimal wall span after which exactly `work` more work cycles have
    /// accrued from the current carry. Non-mutating (a completion-time
    /// peek).
    fn wall_needed(&self, work: Cycles) -> Cycles {
        if self.is_unit() || work.is_zero() {
            return work;
        }
        // Minimal t with acc + t*num >= work*den; acc < den <= work*den.
        let need = work.get() as u128 * self.den as u128 - self.acc as u128;
        let wall = need.div_ceil(self.num as u128);
        Cycles::new(u64::try_from(wall).unwrap_or(u64::MAX))
    }

    /// Advances the wall clock by exactly [`ClockScale::wall_needed`]`(work)`
    /// cycles, consuming exactly `work` work cycles; returns that wall span.
    fn consume_work(&mut self, work: Cycles) -> Cycles {
        let wall = self.wall_needed(work);
        // Minimal, so the span yields `work` and less than one more cycle:
        // the carry it leaves is below `num`.
        let consumed = self.work_in(wall);
        debug_assert_eq!(consumed, work, "wall_needed is minimal");
        wall
    }
}

/// Where a paused [`SimSession`] resumes.
///
/// `Execute` exists because a horizon can clamp an execution step short of
/// the next true event: resuming must *not* re-run the scheduler wakeup for
/// that step (the invocation was already counted), only keep executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Top of the event loop: admit due arrivals, then wake the scheduler.
    Wakeup,
    /// Mid execution step: keep executing the running task towards the next
    /// event without recounting the wakeup.
    Execute,
}

/// The multi-task NPU simulator.
#[derive(Debug, Clone)]
pub struct NpuSimulator {
    npu: NpuConfig,
    sched: SchedulerConfig,
}

impl NpuSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if either configuration fails validation.
    pub fn new(npu: NpuConfig, sched: SchedulerConfig) -> Self {
        if let Err(msg) = npu.validate() {
            panic!("invalid NpuConfig: {msg}");
        }
        if let Err(msg) = sched.validate() {
            panic!("invalid SchedulerConfig: {msg}");
        }
        NpuSimulator { npu, sched }
    }

    /// The scheduler configuration.
    pub fn scheduler_config(&self) -> &SchedulerConfig {
        &self.sched
    }

    /// Prepares (compiles) a set of requests for this simulator's NPU.
    pub fn prepare(&self, requests: &[TaskRequest]) -> Vec<PreparedTask> {
        requests
            .iter()
            .map(|r| PreparedTask::prepare(*r, &self.npu))
            .collect()
    }

    /// Runs the multi-task simulation to completion.
    ///
    /// Each scheduling event works against the incrementally maintained
    /// `EngineState` — completion counter, id-sorted waiting set, O(1)
    /// global wait accrual and a reused view buffer — so a wakeup costs
    /// O(w log n) in the number of waiting tasks instead of rescanning all
    /// tasks several times, and allocates nothing in steady state. On top
    /// of that, the event-horizon fast path (see the module docs) jumps
    /// over the quantum wakeups whose answer is already known, batching
    /// the skipped quanta's token grants and invocation counts so the
    /// outcome is bit-identical to [`NpuSimulator::run_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or contains duplicate task IDs.
    pub fn run(&self, tasks: &[PreparedTask]) -> SimOutcome {
        assert!(!tasks.is_empty(), "at least one task is required");
        self.run_impl(tasks, true)
    }

    /// The step-every-quantum reference engine: identical to
    /// [`NpuSimulator::run`] with the event-horizon fast-forward disabled,
    /// so the scheduler is actually woken at every expired quantum.
    ///
    /// This is the semantic oracle the determinism regression tests compare
    /// the fast path against (per-task records, makespan and invocation
    /// counts must match bit-for-bit); it is not used on any production
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or contains duplicate task IDs.
    pub fn run_reference(&self, tasks: &[PreparedTask]) -> SimOutcome {
        assert!(!tasks.is_empty(), "at least one task is required");
        self.run_impl(tasks, false)
    }

    fn run_impl(&self, tasks: &[PreparedTask], fast_forward: bool) -> SimOutcome {
        let mut session = self.session_impl(tasks, fast_forward, NullSink);
        match session.run_until(Cycles::MAX) {
            StepOutcome::Drained => session.finish(),
            StepOutcome::Paused => unreachable!("an unbounded horizon cannot pause"),
        }
    }

    /// Like [`NpuSimulator::run`] with a [`TraceSink`] attached: every
    /// scheduling decision is streamed to `sink`, which is returned
    /// alongside the outcome. Tracing never perturbs the simulation — the
    /// outcome is bit-identical to [`NpuSimulator::run`] (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or contains duplicate task IDs.
    pub fn run_traced<S: TraceSink>(&self, tasks: &[PreparedTask], sink: S) -> (SimOutcome, S) {
        assert!(!tasks.is_empty(), "at least one task is required");
        let mut session = self.session_impl(tasks, true, sink);
        match session.run_until(Cycles::MAX) {
            StepOutcome::Drained => session.finish_with_sink(),
            StepOutcome::Paused => unreachable!("an unbounded horizon cannot pause"),
        }
    }

    /// Opens a resumable simulation session over `tasks` (which may be
    /// empty: a closed-loop driver injects work as it arrives). Driving the
    /// session with [`SimSession::run_until`] over any ascending horizon
    /// sequence and then [`SimSession::finish`]ing it is bit-identical to
    /// [`NpuSimulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `tasks` contains duplicate task IDs.
    pub fn session(&self, tasks: &[PreparedTask]) -> SimSession {
        self.session_impl(tasks, true, NullSink)
    }

    /// Like [`NpuSimulator::session`] with the event-horizon fast-forward
    /// disabled (the step-every-quantum reference engine).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` contains duplicate task IDs.
    pub fn session_reference(&self, tasks: &[PreparedTask]) -> SimSession {
        self.session_impl(tasks, false, NullSink)
    }

    /// Like [`NpuSimulator::session`] with a [`TraceSink`] attached. The
    /// sink observes every decision and never perturbs the run; retrieve it
    /// with [`SimSession::finish_with_sink`] or [`SimSession::sink_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `tasks` contains duplicate task IDs.
    pub fn session_with_sink<S: TraceSink>(
        &self,
        tasks: &[PreparedTask],
        sink: S,
    ) -> SimSession<S> {
        self.session_impl(tasks, true, sink)
    }

    fn session_impl<S: TraceSink>(
        &self,
        tasks: &[PreparedTask],
        fast_forward: bool,
        sink: S,
    ) -> SimSession<S> {
        let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len(), "task IDs must be unique");

        let state = EngineState::new(tasks);
        // Arrival cursor: indices sorted by admission time, admitted in
        // order (admission time == arrival for every task built here).
        let mut arrival_order: Vec<usize> = (0..state.len()).collect();
        arrival_order.sort_by_key(|&i| (state.runtimes[i].admit_at, state.runtimes[i].id()));

        let quantum = self.sched.quantum_cycles(&self.npu);
        let mut session = SimSession {
            sched: self.sched.clone(),
            checkpoint_model: CheckpointModel::new(&self.npu),
            quantum,
            fast_forward,
            state,
            arrival_order,
            next_arrival_idx: 0,
            now: Cycles::ZERO,
            next_quantum: quantum,
            stall_until: Cycles::ZERO,
            clock: ClockScale::unit(),
            running: None,
            choice_version: None,
            choice_until: None,
            next_event: None,
            phase: Phase::Wakeup,
            scheduler_invocations: 0,
            checkpoint_preemptions: 0,
            kill_preemptions: 0,
            drain_decisions: 0,
            quanta_skipped: 0,
            replayed_token_grants: 0,
            sink,
        };
        session.refresh_next_event();
        session
    }
}

/// A suspended-and-resumable multi-task simulation: the
/// [`NpuSimulator::run`] event loop factored into an explicit state machine.
///
/// Created by [`NpuSimulator::session`]. Drive it with
/// [`SimSession::run_until`]; between calls the session is *paused* and
/// exposes the node state a cluster front-end could observe (queue depth,
/// predicted remaining work, next completion bound), accepts newly arrived
/// work via [`SimSession::inject`], and can hand never-started tasks back
/// via [`SimSession::revoke`] (work stealing, load shedding). Once drained,
/// [`SimSession::finish`] produces the [`SimOutcome`].
///
/// The `S` parameter is the session's [`TraceSink`]. The default
/// [`NullSink`] disables tracing and compiles every emission site away
/// (`S::ENABLED` is an associated constant, so the guard folds at
/// monomorphization); [`NpuSimulator::session_with_sink`] attaches a real
/// sink. A sink only observes — attaching one never changes the outcome.
#[derive(Debug)]
pub struct SimSession<S: TraceSink = NullSink> {
    sched: SchedulerConfig,
    checkpoint_model: CheckpointModel,
    quantum: Cycles,
    fast_forward: bool,
    state: EngineState,
    arrival_order: Vec<usize>,
    next_arrival_idx: usize,
    now: Cycles,
    next_quantum: Cycles,
    /// The node makes no forward progress before this instant (a fault
    /// window: crash downtime or a freeze/straggler stall). While stalled
    /// the scheduler is frozen — no wakeups, no dispatches, no execution —
    /// and resident tasks simply accrue waiting time. `ZERO` = not stalled.
    stall_until: Cycles,
    /// Degraded-node clock stretching (see [`ClockScale`]): wall cycles map
    /// to plan-progress cycles at `num / den`. Unit unless the cluster's
    /// fault driver put the node in a degrade window.
    clock: ClockScale,
    running: Option<usize>,
    /// The state version at the end of the last wakeup that left the
    /// policy's own choice running: it dispatched onto an idle NPU, or
    /// `select` re-picked the running task. `None` after a wakeup that
    /// preempted or drained. While the state version still equals it, the
    /// policy's [`ChoiceCertificate`] says which quantum wakeups would
    /// re-pick the runner.
    choice_version: Option<u64>,
    /// While `choice_version` holds and a competitor waits in a preemptive
    /// mode: the first quantum boundary the certificate does not rule out
    /// before the event horizon (or the first at or past it). Computed
    /// once per stamp by [`SimSession::refresh_next_event`] and cleared
    /// by every wakeup, which re-stamps.
    choice_until: Option<Cycles>,
    /// The next-event certificate [`SimSession::next_event_time`] reads,
    /// refreshed at the end of every `&mut self` entry point that can
    /// move it.
    next_event: Option<Cycles>,
    phase: Phase,
    scheduler_invocations: u64,
    checkpoint_preemptions: u64,
    kill_preemptions: u64,
    drain_decisions: u64,
    /// Quantum wakeups elided by the event-horizon fast path.
    quanta_skipped: u64,
    /// Per-task token grants replayed in fast-forward batches.
    replayed_token_grants: u64,
    sink: S,
}

impl<S: TraceSink> SimSession<S> {
    /// Safety valve against scheduler livelock. The one known pathological
    /// configuration is Static(KILL) combined with round-robin ordering:
    /// two tasks can keep discarding each other's progress forever. Real
    /// workloads finish with a few thousand wakeups, so this limit only
    /// trips on genuine livelock.
    const MAX_SCHEDULER_INVOCATIONS: u64 = 5_000_000;

    /// Advances the simulation until the clock reaches `horizon` (then
    /// [`StepOutcome::Paused`]) or every admitted task has finished
    /// ([`StepOutcome::Drained`]).
    ///
    /// Pausing is pure suspension: composing `run_until` over any ascending
    /// horizon sequence performs exactly the state transitions of the
    /// one-shot run, so the eventual [`SimOutcome`] is bit-identical —
    /// including the scheduler-invocation count. Scheduler events due
    /// exactly *at* the horizon are processed before pausing, so a paused
    /// session is always either executing a running task or idle — never
    /// holding an admitted task it has not reacted to — and the clock stops
    /// at the horizon, except that a wakeup's own side effects (restore /
    /// checkpoint DMA) may carry it slightly past.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler livelocks (see the engine docs).
    pub fn run_until(&mut self, horizon: Cycles) -> StepOutcome {
        let outcome = self.run_events(horizon);
        self.refresh_next_event();
        outcome
    }

    /// The event loop behind [`SimSession::run_until`].
    fn run_events(&mut self, horizon: Cycles) -> StepOutcome {
        loop {
            if self.state.finished == self.state.len() {
                return StepOutcome::Drained;
            }
            if self.now < self.stall_until {
                // The node is inside a fault window: jump the clock to the
                // stall's end (or the horizon), charging the dead time as
                // waiting to every waiting task. The scheduler is frozen —
                // no invocations are counted and the phase is preserved, so
                // a stall that interrupts an execution step resumes that
                // exact step. A horizon already behind the clock never
                // rewinds it (that would charge the span as waiting twice).
                let resume = self.stall_until.min(horizon).max(self.now);
                let dt = resume - self.now;
                self.state.accrue(dt);
                self.now = resume;
                self.next_quantum = realign_quantum(self.next_quantum, self.now, self.quantum);
                if self.stall_until > horizon {
                    return StepOutcome::Paused;
                }
            }
            match self.phase {
                Phase::Wakeup => {
                    if self.now > horizon {
                        return StepOutcome::Paused;
                    }
                    self.admit_due_arrivals();

                    if self.running.is_none() && self.state.waiting.is_empty() {
                        // Idle: jump to the next arrival (or the horizon,
                        // whichever comes first — the jump has no side
                        // effects, so clamping composes exactly).
                        let next = self
                            .next_admission()
                            .expect("tasks remain, so an arrival must be pending");
                        if next > horizon {
                            self.now = self.now.max(horizon);
                            self.next_quantum =
                                realign_quantum(self.next_quantum, self.now, self.quantum);
                            return StepOutcome::Paused;
                        }
                        self.now = self.now.max(next);
                        self.next_quantum =
                            realign_quantum(self.next_quantum, self.now, self.quantum);
                        continue;
                    }

                    self.wakeup();
                    self.phase = Phase::Execute;
                }
                Phase::Execute => {
                    let Some(run_idx) = self.running else {
                        self.phase = Phase::Wakeup;
                        continue;
                    };
                    if self.now >= horizon {
                        // Pause — unless the running task has zero remaining
                        // cycles (its plan ends in zero-cycle intervals the
                        // cursor has not walked yet). Such a task completes
                        // *at* `now`, so pausing would freeze the session
                        // with `next_completion_time() == now` forever — a
                        // livelock for completion-driven drivers like the
                        // cluster's work-stealing loop, which advance to
                        // exactly that bound and expect the task set to
                        // shrink. Falling through performs the same
                        // zero-budget completion step a later, larger
                        // horizon would perform, at the same simulated time.
                        let runtime = &self.state.runtimes[run_idx];
                        let zero_remaining =
                            runtime.cursor.remaining(&runtime.prepared.plan).is_zero();
                        if self.now > horizon || !zero_remaining {
                            return StepOutcome::Paused;
                        }
                    }
                    let reached_event = self.execute_step(run_idx, horizon);
                    if reached_event {
                        self.phase = Phase::Wakeup;
                    }
                    // Otherwise the horizon clamped the step; the loop pauses
                    // at the top of the next Execute iteration.
                }
            }
        }
    }

    /// Admits every pending arrival whose time has come.
    fn admit_due_arrivals(&mut self) {
        while self.next_arrival_idx < self.arrival_order.len()
            && self.state.runtimes[self.arrival_order[self.next_arrival_idx]].admit_at <= self.now
        {
            let idx = self.arrival_order[self.next_arrival_idx];
            self.state.runtimes[idx].arrived = true;
            self.state.enter_waiting(idx);
            self.next_arrival_idx += 1;
        }
    }

    /// Removes not-yet-admitted `idx` from the pending arrival queue.
    fn remove_pending_arrival(&mut self, idx: usize) {
        let offset = self.arrival_order[self.next_arrival_idx..]
            .iter()
            .position(|&i| i == idx)
            .expect("unadmitted task is in the pending arrival queue");
        self.arrival_order.remove(self.next_arrival_idx + offset);
    }

    /// The admission instant of the next pending arrival, if any.
    fn next_admission(&self) -> Option<Cycles> {
        self.arrival_order
            .get(self.next_arrival_idx)
            .map(|&i| self.state.runtimes[i].admit_at)
    }

    /// The wall instant at which the running task `run_idx`, executing
    /// from `from` without preemption, completes: its remaining plan
    /// progress (work) converted exactly under the clock scale and carry.
    fn completion_from(&self, run_idx: usize, from: Cycles) -> Cycles {
        from + self.clock.wall_needed(self.state.plan_remaining(run_idx))
    }

    /// One scheduler wakeup: grant tokens, then select / dispatch / preempt.
    fn wakeup(&mut self) {
        assert!(
            self.scheduler_invocations < Self::MAX_SCHEDULER_INVOCATIONS,
            "scheduler livelock detected after {} wakeups (policy {:?}, preemption {:?})",
            Self::MAX_SCHEDULER_INVOCATIONS,
            self.sched.policy,
            self.sched.preemption
        );
        self.scheduler_invocations += 1;
        self.state.grant_tokens(self.sched.token_scale);
        // Re-stamped below unless this wakeup preempts or drains: a DRAIN
        // keeps a task the policy did not choose, and a preemption moves
        // the displaced task's progress after `select` saw it (CHECKPOINT
        // runs it to its commit point), so the next wakeup is stepped.
        self.choice_version = None;
        self.choice_until = None;

        // An idle NPU consults the policy when something waits; a busy one
        // only in a preemptive mode.
        let consult = match self.running {
            None => !self.state.waiting.is_empty(),
            Some(_) => self.sched.preemption.is_preemptive(),
        };
        if !consult {
            return;
        }
        let chosen = self
            .sched
            .policy
            .select(self.state.build_views(self.running), self.sched.token_scale);
        if S::ENABLED {
            let candidates = CandidateSet::capture(&self.state.views);
            self.sink.record(
                self.now,
                TraceEvent::Wakeup {
                    invocation: self.scheduler_invocations,
                    chosen,
                    candidates,
                },
            );
        }
        let cand_idx = self.state.index_of(chosen);
        let idle = self.running.is_none();
        if let Some(run_idx) = self.running {
            if run_idx == cand_idx {
                self.choice_version = Some(self.state.state_version);
                return;
            }
            let running_id = self.state.runtimes[run_idx].id();
            let mechanism = self.pick_mechanism(run_idx, cand_idx);
            if mechanism == PreemptionMechanism::Drain {
                self.drain_decisions += 1;
                if S::ENABLED {
                    self.sink.record(
                        self.now,
                        TraceEvent::DrainDecision {
                            running: running_id,
                            contender: chosen,
                        },
                    );
                }
                return;
            }
            if S::ENABLED {
                self.sink.record(
                    self.now,
                    TraceEvent::PreemptBegin {
                        task: running_id,
                        by: chosen,
                        mechanism,
                    },
                );
            }
            let checkpoint = mechanism == PreemptionMechanism::Checkpoint;
            if checkpoint {
                self.checkpoint_preemptions += 1;
                self.now = self.preempt_checkpoint(run_idx);
            } else {
                self.kill_preemptions += 1;
                self.preempt_kill(run_idx);
            }
            if S::ENABLED {
                // KILL spills nothing (its checkpointed bytes are zero) and
                // charges no DMA.
                let bytes = self.state.runtimes[run_idx].checkpointed_bytes;
                let cycles = if checkpoint {
                    self.checkpoint_model.checkpoint_cycles(bytes)
                } else {
                    Cycles::ZERO
                };
                self.sink.record(
                    self.now,
                    TraceEvent::PreemptEnd {
                        task: running_id,
                        checkpoint_bytes: bytes,
                        checkpoint_cycles: cycles,
                    },
                );
            }
        }
        self.now = self.dispatch(cand_idx);
        self.running = Some(cand_idx);
        if idle {
            self.choice_version = Some(self.state.state_version);
        }
    }

    /// Whether a competitor waits in a preemptive mode, so a quantum
    /// wakeup consults the policy with more than one candidate.
    fn contended(&self) -> bool {
        !self.state.waiting.is_empty() && self.sched.preemption.is_preemptive()
    }

    /// Whether the last wakeup's choice stamp still holds (see
    /// `choice_version`).
    fn choice_stands(&self) -> bool {
        self.choice_version == Some(self.state.state_version)
    }

    /// How many of the next `periods` quantum wakeups (the first at the
    /// boundary `first`, all before the next arrival or completion) would
    /// re-pick the running task `run_idx` and change nothing but the
    /// invocation count and the waiting tasks' tokens. All of them when no
    /// competitor waits (a one-candidate `select` is a foregone conclusion)
    /// or the mode never preempts (`select` is not consulted while a task
    /// runs). Otherwise, while the last wakeup's stamp holds, as many as
    /// the policy's [`ChoiceCertificate`] rules out; none once a DRAIN, a
    /// preemption or any state change since has voided the stamp.
    fn quiet_periods(&self, run_idx: usize, first: Cycles, periods: u64) -> u64 {
        if !self.contended() {
            return periods;
        }
        if !self.choice_stands() {
            return 0;
        }
        match self.sched.policy.certificate(self.sched.token_scale) {
            ChoiceCertificate::UntilEvent => periods,
            ChoiceCertificate::GrantLevels(levels) => self.state.periods_below_levels(
                levels,
                run_idx,
                self.sched.token_scale,
                self.quantum,
                first - self.now,
                periods,
            ),
            ChoiceCertificate::EveryQuantum => 0,
        }
    }

    /// Executes the running task towards the next event, clamped at
    /// `horizon`. Returns whether the step reached a true event (so the
    /// next iteration is a wakeup) rather than being cut short.
    fn execute_step(&mut self, run_idx: usize, horizon: Cycles) -> bool {
        self.next_quantum = realign_quantum(self.next_quantum, self.now, self.quantum);
        let next_arrival = self.next_admission();
        let completion_time = self.completion_from(run_idx, self.now);

        // ---- Event-horizon fast-forward (see the module docs) -----------------
        //
        // The next true event is the running task's completion or the
        // next arrival, whichever comes first. Of the quantum wakeups
        // strictly before that horizon, jump over the leading run that
        // `quiet_periods` proves would re-pick the running task, crediting
        // their invocations and token grants in one batch; the first
        // wakeup that could choose differently is stepped. The pause
        // horizon clamps the jump; the remaining quiet wakeups are batched
        // on resume, with the same per-task grant sequence (the split
        // batches perform identical `f64` additions in identical order).
        if self.fast_forward {
            let event_horizon = match next_arrival {
                Some(arrival) => completion_time.min(arrival.max(self.now)),
                None => completion_time,
            };
            let ff_horizon = event_horizon.min(horizon);
            let periods = if self.next_quantum < ff_horizon {
                let span = ff_horizon - self.next_quantum;
                let boundaries = span.get().div_ceil(self.quantum.get());
                self.quiet_periods(run_idx, self.next_quantum, boundaries)
            } else {
                0
            };
            if periods > 0 {
                let last_boundary = self.next_quantum + self.quantum * (periods - 1);
                let skip_budget = last_boundary - self.now;
                // Wall budget → work: `work_in` carries the fractional
                // remainder, so fast-forwarding one long span performs
                // exactly the conversions of stepping every quantum.
                let skip_work = self.clock.work_in(skip_budget);
                let consumed = self.state.advance_cursor(run_idx, skip_work);
                debug_assert_eq!(consumed, skip_work, "horizon is before completion");
                self.state.accrue(skip_budget);
                let skipped_from = self.now;
                self.now = last_boundary;
                self.next_quantum = last_boundary + self.quantum;
                self.scheduler_invocations += periods;
                let grants = periods * self.state.waiting.len() as u64;
                self.quanta_skipped += periods;
                self.replayed_token_grants += grants;
                if S::ENABLED {
                    self.sink.record(
                        skipped_from,
                        TraceEvent::QuantumSkip {
                            from: skipped_from,
                            to: last_boundary,
                            quanta: periods,
                            grants,
                        },
                    );
                }
                self.state
                    .grant_tokens_batch(self.sched.token_scale, self.quantum, periods);
            }
        }

        let mut t_next = completion_time.min(self.next_quantum);
        if let Some(arrival) = next_arrival {
            t_next = t_next.min(arrival.max(self.now));
        }
        let t_exec = t_next.min(horizon);
        let budget = t_exec - self.now;

        // The wall budget never reaches past `completion_time`, so the
        // converted work budget never exceeds the cursor's remaining cycles
        // (`wall_needed` is minimal: strictly less wall yields strictly
        // less work).
        let work_budget = self.clock.work_in(budget);
        let consumed = self.state.advance_cursor(run_idx, work_budget);
        debug_assert_eq!(consumed, work_budget, "work budget is within the plan");
        self.state.accrue(budget);
        self.now += budget;

        let finished = {
            let runtime = &self.state.runtimes[run_idx];
            runtime.cursor.is_complete(&runtime.prepared.plan)
        };
        if finished {
            if S::ENABLED {
                let task = self.state.runtimes[run_idx].id();
                self.sink.record(self.now, TraceEvent::Complete { task });
            }
            self.state.complete(run_idx, self.now);
            self.running = None;
            return true;
        }
        if consumed.is_zero()
            && budget.is_zero()
            && t_exec == t_next
            && next_arrival.is_none_or(|arrival| arrival > self.now)
        {
            // Degenerate safety net: a task with zero remaining cycles (a
            // zero-length plan, or a plan whose trailing zero-cycle
            // intervals the cursor has not walked) completes instantly. A
            // *due* arrival (<= now) still takes precedence — it must be
            // admitted by the next wakeup before the completion is recorded
            // — but a strictly future arrival cannot: without this the
            // wakeup/execute cycle would spin without advancing the clock
            // until the livelock valve trips.
            if S::ENABLED {
                let task = self.state.runtimes[run_idx].id();
                self.sink.record(self.now, TraceEvent::Complete { task });
            }
            self.state.complete(run_idx, self.now);
            self.running = None;
            return true;
        }
        t_exec == t_next
    }

    /// Starts (or resumes) `idx` on the NPU, charging a restore latency if
    /// its context was previously checkpointed. Returns the time at which
    /// useful execution begins.
    fn dispatch(&mut self, idx: usize) -> Cycles {
        let state = &mut self.state;
        if state.runtimes[idx].first_start.is_none() {
            // The task is starting for the first time: it can no longer be
            // revoked (stolen or shed) by a cluster front-end.
            state.untrack_revocable(idx);
        }
        // Leave the waiting set first: the dispatched task does not wait
        // through its own restore DMA, but everyone else does.
        state.leave_waiting(idx);
        let mut start = self.now;
        let mut restore_charged = Cycles::ZERO;
        if state.runtimes[idx].needs_restore {
            let restore = self
                .checkpoint_model
                .restore_cycles(state.runtimes[idx].checkpointed_bytes);
            state.runtimes[idx].restore_overhead += restore;
            state.accrue(restore);
            start += restore;
            restore_charged = restore;
        }
        if S::ENABLED {
            let task = state.runtimes[idx].id();
            self.sink.record(
                start,
                TraceEvent::Dispatch {
                    task,
                    restore: restore_charged,
                },
            );
        }
        let state = &mut self.state;
        let runtime = &mut state.runtimes[idx];
        runtime.needs_restore = false;
        runtime.state = TaskState::Running;
        runtime.first_start = runtime.first_start.or(Some(start));
        runtime.last_scheduled = Some(start);
        start
    }

    /// Preempts the running task with CHECKPOINT: finishes the current
    /// `GEMM_OP` interval, spills the live context, and returns the new time.
    fn preempt_checkpoint(&mut self, run_idx: usize) -> Cycles {
        let state = &mut self.state;
        // Run to the next legal preemption point. The preempted task is
        // still Running here, so the boundary cycles charge waiting time to
        // everyone else only.
        let (boundary, live_bytes) = {
            let runtime = &state.runtimes[run_idx];
            let plan = Arc::clone(&runtime.prepared.plan);
            let boundary = runtime.cursor.cycles_to_boundary(&plan);
            state.advance_cursor(run_idx, boundary);
            let live_bytes = state.runtimes[run_idx].cursor.live_checkpoint_bytes(&plan);
            (boundary, live_bytes)
        };
        // The boundary drain is plan progress, so a degraded clock
        // stretches it; the checkpoint DMA below is *not* stretched — the
        // DMA engine runs at full speed even when the compute clock is
        // throttled.
        let wall_drain = self.clock.consume_work(boundary);
        state.accrue(wall_drain);
        let mut time = self.now + wall_drain;

        let checkpoint = self.checkpoint_model.checkpoint_cycles(live_bytes);
        {
            let runtime = &mut state.runtimes[run_idx];
            runtime.checkpoint_overhead += checkpoint;
            runtime.checkpointed_bytes = live_bytes;
            runtime.max_checkpoint_bytes = runtime.max_checkpoint_bytes.max(live_bytes);
            runtime.needs_restore = true;
            runtime.preemption_count += 1;
            runtime.state = TaskState::Checkpointed;
        }
        // During the checkpoint DMA nobody makes forward progress; everyone
        // waiting (including the just-preempted task) accrues wait time.
        state.enter_waiting(run_idx);
        state.accrue(checkpoint);
        time += checkpoint;
        time
    }

    /// Preempts the running task with KILL: all progress is discarded and the
    /// task restarts from scratch when it is next scheduled.
    fn preempt_kill(&mut self, run_idx: usize) {
        let state = &mut self.state;
        state.reset_cursor(run_idx);
        {
            let runtime = &mut state.runtimes[run_idx];
            runtime.preemption_count += 1;
            runtime.kill_restarts += 1;
            runtime.checkpointed_bytes = 0;
            runtime.needs_restore = false;
            runtime.state = TaskState::Ready;
        }
        state.enter_waiting(run_idx);
    }

    /// Chooses the preemption mechanism for displacing `run_idx` in favour of
    /// `cand_idx` under the configured preemption mode.
    fn pick_mechanism(&self, run_idx: usize, cand_idx: usize) -> PreemptionMechanism {
        let runtimes = &self.state.runtimes;
        match self.sched.preemption {
            PreemptionMode::NonPreemptive => PreemptionMechanism::Drain,
            PreemptionMode::Static(mechanism) => mechanism,
            PreemptionMode::Dynamic | PreemptionMode::DynamicKill => {
                let inputs = MechanismDecisionInputs {
                    current_estimated: runtimes[run_idx].estimated,
                    current_executed: runtimes[run_idx].cursor.executed(),
                    candidate_estimated: runtimes[cand_idx].estimated,
                    candidate_executed: runtimes[cand_idx].cursor.executed(),
                };
                match select_mechanism(inputs) {
                    PreemptionMechanism::Drain => PreemptionMechanism::Drain,
                    _ if self.sched.preemption == PreemptionMode::DynamicKill => {
                        PreemptionMechanism::Kill
                    }
                    other => other,
                }
            }
        }
    }

    // ---- Closed-loop surface ---------------------------------------------

    /// The session's current simulation clock.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Whether every admitted task has completed (or been revoked).
    pub fn is_drained(&self) -> bool {
        self.state.finished == self.state.len()
    }

    /// Number of resident (incomplete, not revoked) tasks: the node's live
    /// queue depth, counting the running task and not-yet-admitted
    /// injections.
    pub fn queue_depth(&self) -> usize {
        self.state.len() - self.state.finished
    }

    /// Scheduler wakeups performed so far.
    pub fn scheduler_invocations(&self) -> u64 {
        self.scheduler_invocations
    }

    /// Runtime indices of every resident (incomplete, not revoked) task:
    /// the waiting set, the running task, and the not-yet-admitted pending
    /// arrivals — disjoint by construction. Iterating these keeps the
    /// closed-loop observation surface proportional to the *live* queue,
    /// not to every task the session ever served.
    fn resident_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.state
            .waiting
            .iter()
            .copied()
            .chain(self.running)
            .chain(self.arrival_order[self.next_arrival_idx..].iter().copied())
    }

    /// Builds the [`ResidentTask`] snapshot of runtime `idx`.
    fn resident_view(&self, idx: usize) -> ResidentTask {
        let r = &self.state.runtimes[idx];
        ResidentTask {
            id: r.id(),
            priority: r.prepared.request.priority,
            arrival: r.prepared.request.arrival,
            estimated_total: r.estimated,
            executed: r.cursor.executed(),
            started: r.first_start.is_some(),
            revocable: r.first_start.is_none() && Some(idx) != self.running,
        }
    }

    /// A snapshot of every resident task (see [`ResidentTask`]): the
    /// waiting set (task-id order), then the running task, then pending
    /// arrivals (arrival order) — deterministic across calls.
    pub fn resident_tasks(&self) -> Vec<ResidentTask> {
        let mut out = Vec::new();
        self.resident_tasks_into(&mut out);
        out
    }

    /// Like [`SimSession::resident_tasks`], appending into a caller-owned
    /// buffer so tight observation loops can reuse their allocation.
    pub fn resident_tasks_into(&self, out: &mut Vec<ResidentTask>) {
        out.reserve(self.queue_depth());
        for idx in self.resident_indices() {
            out.push(self.resident_view(idx));
        }
    }

    /// The predictor's view of the node's total remaining work: summed
    /// estimated-remaining cycles over every resident task, using each
    /// task's *true* live progress. O(1): the engine maintains the total
    /// incrementally at every progress / membership transition.
    pub fn predicted_remaining_work(&self) -> Cycles {
        debug_assert_eq!(
            self.state.remaining_work,
            self.resident_indices()
                .map(|idx| self.state.runtimes[idx].remaining_estimate())
                .sum(),
            "incremental remaining-work total diverged from the resident scan"
        );
        self.state.remaining_work
    }

    /// Like [`SimSession::predicted_remaining_work`], restricted to resident
    /// tasks of equal-or-higher priority than `priority` — the work a
    /// preemptive node would actually run before an arriving request of that
    /// priority. O(1) via the per-priority running totals.
    pub fn predicted_blocking_work(&self, priority: Priority) -> Cycles {
        debug_assert_eq!(
            self.state
                .remaining_by_priority
                .iter()
                .copied()
                .sum::<Cycles>(),
            self.state.remaining_work,
            "per-priority totals diverged from the overall total"
        );
        self.state.remaining_by_priority[priority.index()..]
            .iter()
            .copied()
            .sum()
    }

    /// The id of the task currently executing on the NPU, if any.
    pub fn running_task(&self) -> Option<TaskId> {
        self.running.map(|idx| self.state.runtimes[idx].id())
    }

    /// Total predicted work of the revocable (never-started) resident
    /// tasks — what a cluster front-end could still steal or shed. O(1).
    pub fn revocable_work(&self) -> Cycles {
        self.state.revocable_work
    }

    /// The revocable task an idle peer would steal: largest remaining
    /// estimate, ties to the lowest id. O(1) peek of the maintained
    /// steal-preference order.
    pub fn best_steal_candidate(&self) -> Option<ResidentTask> {
        self.state
            .steal_order
            .last()
            .map(|&idx| self.resident_view(idx))
    }

    /// The revocable task SLA admission would shed first: lowest priority,
    /// then the largest remaining estimate, then the newest id. O(1) peek
    /// of the maintained shed-preference order.
    pub fn best_shed_candidate(&self) -> Option<ResidentTask> {
        self.state
            .shed_order
            .first()
            .map(|&idx| self.resident_view(idx))
    }

    /// A monotone counter that advances whenever the closed-loop
    /// observation surface can move: waiting-set entries/exits (dispatch,
    /// preemption, admission), completions, injections and revocations.
    /// Between two observations with equal versions a paused session has
    /// either idled or executed exactly one task continuously with no
    /// checkpoint/restore stalls — so derived per-node state (e.g. the
    /// cluster's predicted-turnaround segments) stays exactly reusable.
    pub fn state_version(&self) -> u64 {
        self.state.state_version
    }

    /// The signal bundle an external dispatch index refreshes from — see
    /// [`DispatchSignals`]. One O(1) read per [`SimSession::state_version`]
    /// bump covers everything the cluster's contender structures key on.
    pub fn dispatch_signals(&self) -> DispatchSignals {
        let mut blocking_work = [Cycles::ZERO; Priority::ALL.len()];
        let mut suffix = Cycles::ZERO;
        for level in (0..Priority::ALL.len()).rev() {
            suffix += self.state.remaining_by_priority[level];
            blocking_work[level] = suffix;
        }
        DispatchSignals {
            now: self.now,
            queue_depth: self.queue_depth(),
            remaining_work: self.state.remaining_work,
            blocking_work,
            runner_priority: self.running.and_then(|run_idx| {
                let runtime = &self.state.runtimes[run_idx];
                (!runtime.remaining_estimate().is_zero())
                    .then_some(runtime.prepared.request.priority)
            }),
            stalled: self.stalled_until().is_some(),
            scaled: self.clock.num != self.clock.den,
        }
    }

    /// A lower bound on the next time the node's task set can shrink: the
    /// running task's completion time (assuming no further preemption), the
    /// current clock if dispatching is imminent, or the next pending
    /// arrival. `None` once drained.
    pub fn next_completion_time(&self) -> Option<Cycles> {
        if self.is_drained() {
            return None;
        }
        // Nothing happens before a fault stall ends: every term shifts to
        // the resume instant, keeping completion-driven drivers progressing
        // monotonically through fault windows.
        let resume = self.now.max(self.stall_until);
        if let Some(run_idx) = self.running {
            return Some(self.completion_from(run_idx, resume));
        }
        if !self.state.waiting.is_empty() {
            return Some(resume);
        }
        self.next_admission().map(|admit| admit.max(resume))
    }

    /// The session's *next-event certificate*: the earliest instant at which
    /// [`SimSession::run_until`] would do more than move the clock, the
    /// runner's cursor, the waiting tasks' tokens and the invocation count.
    /// That is the first of
    ///
    /// * the running task's completion, exact under the clock scale and
    ///   its carry (a degraded session gets an exact certificate too);
    /// * the admission of a pending arrival;
    /// * a quantum wakeup that could drop the runner: with a competitor
    ///   waiting in a preemptive mode, the next quantum boundary, or, while
    ///   the last wakeup's choice stamp holds, the first boundary the
    ///   policy's [`ChoiceCertificate`] does not rule out (every other
    ///   wakeup re-picks the runner, granting tokens and nothing else);
    /// * the end of a fault stall.
    ///
    /// `None` once drained — a drained session's `run_until` does nothing
    /// at all. O(1): the certificate is stored, refreshed by every call
    /// that can move it.
    ///
    /// For every horizon strictly before the certificate, `run_until` leaves
    /// the whole closed-loop surface unchanged except [`SimSession::now`] and
    /// the runner's progress; the `*_at` reads ([`SimSession::now_at`],
    /// [`SimSession::predicted_remaining_work_at`],
    /// [`SimSession::predicted_blocking_work_at`],
    /// [`SimSession::resident_tasks_at_into`],
    /// [`SimSession::scaled_wall_for_work_at`]) extrapolate exactly that
    /// motion, so a cluster driver can leave a quiet node unadvanced and
    /// still read what an advanced one would report.
    pub fn next_event_time(&self) -> Option<Cycles> {
        debug_assert_eq!(
            self.next_event,
            self.certify(),
            "the stored next-event certificate went stale"
        );
        self.next_event
    }

    /// Recomputes the stored certificate at the end of a mutating call,
    /// computing `choice_until` first if the stamp holds and it is not
    /// known yet.
    fn refresh_next_event(&mut self) {
        if let Some(run_idx) = self.running {
            if self.choice_until.is_none() && self.contended() && self.choice_stands() {
                self.choice_until = Some(self.choice_bound(run_idx));
            }
        }
        self.next_event = self.certify();
    }

    /// The certificate from its inputs, taking `choice_until` as given.
    fn certify(&self) -> Option<Cycles> {
        if self.is_drained() {
            return None;
        }
        if self.now < self.stall_until {
            return Some(self.stall_until);
        }
        let arrival = self
            .next_admission()
            .map_or(Cycles::MAX, |admit| admit.max(self.now));
        let own = match self.running {
            Some(run_idx) => {
                let completion = self.completion_from(run_idx, self.now);
                if !self.contended() {
                    completion
                } else if let Some(until) = self.choice_until.filter(|_| self.choice_stands()) {
                    completion.min(until)
                } else {
                    completion.min(realign_quantum(self.next_quantum, self.now, self.quantum))
                }
            }
            None if !self.state.waiting.is_empty() => self.now,
            None => Cycles::MAX,
        };
        Some(own.min(arrival))
    }

    /// The first quantum boundary before the event horizon (the runner's
    /// completion or the next admission) whose wakeup the choice
    /// certificate does not rule out, or the first boundary at or past the
    /// horizon if it rules them all out. Replays the same grants as the
    /// fast path's [`SimSession::quiet_periods`].
    fn choice_bound(&self, run_idx: usize) -> Cycles {
        let first = realign_quantum(self.next_quantum, self.now, self.quantum);
        let mut horizon = self.completion_from(run_idx, self.now);
        if let Some(admit) = self.next_admission() {
            horizon = horizon.min(admit.max(self.now));
        }
        if first >= horizon {
            return first;
        }
        let periods = (horizon - first).get().div_ceil(self.quantum.get());
        first + self.quantum * self.quiet_periods(run_idx, first, periods)
    }

    /// The wall cycles the runner executes by `at` along the session's
    /// quiet interval, or `None` when `at` is not strictly inside it (at or
    /// before the clock, at or past [`SimSession::next_event_time`], or
    /// drained) — the session then reads as-is. A stalled node's runner
    /// executes nothing before the stall ends.
    fn quiet_wall(&self, at: Cycles) -> Option<Cycles> {
        if at <= self.now || self.next_event_time().is_none_or(|event| at >= event) {
            return None;
        }
        let stalled = self.now < self.stall_until;
        Some(match self.running {
            Some(_) if !stalled => at - self.now,
            _ => Cycles::ZERO,
        })
    }

    /// The running task's progress (work) gained by `at` along the quiet
    /// interval: the wall span it executes converted through a peek of the
    /// clock carry, `(acc + wall * num) / den`. `None` when the session
    /// reads as-is (see [`SimSession::quiet_wall`]).
    fn quiet_gain(&self, at: Cycles) -> Option<Cycles> {
        self.quiet_wall(at).map(|wall| self.clock.after(wall).0)
    }

    /// The running task's estimated-remaining decrease by `at` (zero when
    /// the session reads as-is).
    fn quiet_freed(&self, at: Cycles) -> (Cycles, Option<Priority>) {
        match (self.quiet_gain(at), self.running) {
            (Some(gain), Some(run_idx)) => {
                let runtime = &self.state.runtimes[run_idx];
                (
                    runtime.remaining_estimate().min(gain),
                    Some(runtime.prepared.request.priority),
                )
            }
            _ => (Cycles::ZERO, None),
        }
    }

    /// [`SimSession::now`] as a `run_until(at)` would leave it, for `at`
    /// before [`SimSession::next_event_time`]; otherwise the clock as-is.
    pub fn now_at(&self, at: Cycles) -> Cycles {
        if self.quiet_wall(at).is_some() {
            at
        } else {
            self.now
        }
    }

    /// [`SimSession::predicted_remaining_work`] as a `run_until(at)` would
    /// leave it (see [`SimSession::now_at`]).
    pub fn predicted_remaining_work_at(&self, at: Cycles) -> Cycles {
        self.predicted_remaining_work() - self.quiet_freed(at).0
    }

    /// [`SimSession::predicted_blocking_work`] as a `run_until(at)` would
    /// leave it (see [`SimSession::now_at`]).
    pub fn predicted_blocking_work_at(&self, priority: Priority, at: Cycles) -> Cycles {
        let blocking = self.predicted_blocking_work(priority);
        match self.quiet_freed(at) {
            (freed, Some(runner)) if runner >= priority => blocking - freed,
            _ => blocking,
        }
    }

    /// [`SimSession::resident_tasks_into`] as a `run_until(at)` would leave
    /// the residents (see [`SimSession::now_at`]): only the running task's
    /// `executed` moves.
    pub fn resident_tasks_at_into(&self, at: Cycles, out: &mut Vec<ResidentTask>) {
        let start = out.len();
        self.resident_tasks_into(out);
        if let (Some(gain), Some(run_idx)) = (self.quiet_gain(at), self.running) {
            let id = self.state.runtimes[run_idx].id();
            if let Some(runner) = out[start..].iter_mut().find(|resident| resident.id == id) {
                runner.executed += gain;
            }
        }
    }

    /// Injects a newly arrived task into the paused session. The task is
    /// admitted at the first wakeup at or after its arrival time; an arrival
    /// in the session's past is admitted immediately at the current clock
    /// (its record still carries the true arrival, so queueing-delay metrics
    /// see the dispatch latency).
    ///
    /// Re-injecting an id this session previously [`SimSession::revoke`]d
    /// is allowed and revives the task from scratch — multi-hop work
    /// stealing can route a request back through an earlier owner.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateTaskId`] if a task with the same ID is
    /// already *live* (not revoked) in the session; the session is
    /// unchanged.
    pub fn inject(&mut self, task: PreparedTask) -> Result<(), EngineError> {
        let id = task.request.id;
        let idx = self.admit_runtime(Runtime::new(task))?;
        // A freshly injected task is never-started: a cluster front-end can
        // still steal or shed it.
        self.state.track_revocable(idx);
        if S::ENABLED {
            self.sink.record(
                self.now,
                TraceEvent::Inject {
                    task: id,
                    salvaged: false,
                    resume_executed: Cycles::ZERO,
                },
            );
        }
        self.refresh_next_event();
        Ok(())
    }

    /// Re-injects a [`SalvagedTask`] recovered from a failed node, resuming
    /// from its checkpoint cursor. Admission is gated on `admit_at` — the
    /// cluster's recovery instant — so a node whose local clock lags cannot
    /// causally run the task before it was re-admitted; the task's record
    /// still carries its original arrival (recovery latency is turnaround,
    /// not a new arrival) and the bookkeeping accumulated on earlier hops.
    ///
    /// A manifest with progress re-enters in the checkpointed state: its
    /// first dispatch charges the restore DMA for `checkpoint_bytes` — the
    /// checkpoint-priced cost of recovery. Started tasks are *not*
    /// revocable on their new home (their context is node-resident, exactly
    /// as if they had started there).
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateTaskId`] if the task id is still live in the
    /// session; the session is unchanged.
    pub fn inject_salvaged(
        &mut self,
        salvage: SalvagedTask,
        admit_at: Cycles,
    ) -> Result<(), EngineError> {
        let mut runtime = Runtime::new(salvage.prepared);
        runtime.admit_at = admit_at.max(runtime.prepared.request.arrival);
        if !salvage.resume_executed.is_zero() {
            let consumed = runtime
                .cursor
                .advance(&runtime.prepared.plan, salvage.resume_executed);
            debug_assert_eq!(consumed, salvage.resume_executed, "resume point is in-plan");
            runtime.state = TaskState::Checkpointed;
            runtime.needs_restore = true;
            runtime.checkpointed_bytes = salvage.checkpoint_bytes;
        }
        runtime.first_start = salvage.first_start;
        runtime.preemption_count = salvage.preemption_count;
        runtime.kill_restarts = salvage.kill_restarts;
        runtime.checkpoint_overhead = salvage.checkpoint_overhead;
        runtime.restore_overhead = salvage.restore_overhead;
        runtime.max_checkpoint_bytes = salvage.max_checkpoint_bytes.max(salvage.checkpoint_bytes);
        let started = runtime.first_start.is_some();
        let id = runtime.id();
        let resume_executed = salvage.resume_executed;
        let idx = self.admit_runtime(runtime)?;
        if !started {
            self.state.track_revocable(idx);
        }
        if S::ENABLED {
            self.sink.record(
                self.now,
                TraceEvent::Inject {
                    task: id,
                    salvaged: true,
                    resume_executed,
                },
            );
        }
        self.refresh_next_event();
        Ok(())
    }

    /// Shared admission path of [`SimSession::inject`] /
    /// [`SimSession::inject_salvaged`]: places the runtime in the id index,
    /// the predicted-work totals and the pending-arrival queue. Does *not* touch the revocable indexes — the
    /// callers decide stealability.
    fn admit_runtime(&mut self, runtime: Runtime) -> Result<usize, EngineError> {
        let id = runtime.id();
        let admit_at = runtime.admit_at;
        let idx = match self.state.id_index.binary_search_by_key(&id, |&(id, _)| id) {
            Err(pos) => {
                let idx = self.state.runtimes.len();
                self.state.runtimes.push(runtime);
                self.state.id_index.insert(pos, (id, idx));
                idx
            }
            Ok(pos) => {
                // The id exists: only a previously revoked slot may be
                // revived (the task bounced back via work stealing, or is
                // being recovered after a node failure).
                let idx = self.state.id_index[pos].1;
                if !self.state.runtimes[idx].revoked {
                    return Err(EngineError::DuplicateTaskId(id));
                }
                self.state.runtimes[idx] = runtime;
                self.state.finished -= 1;
                idx
            }
        };
        self.state.state_version += 1;
        {
            let state = &mut self.state;
            let remaining = state.runtimes[idx].remaining_estimate();
            let priority = state.runtimes[idx].prepared.request.priority;
            state.remaining_work += remaining;
            state.remaining_by_priority[priority.index()] += remaining;
        }
        // Keep the unadmitted tail of the arrival queue (admit_at, id)-sorted
        // so admission order stays deterministic.
        let tail_start = self.next_arrival_idx;
        let insert_at = self.arrival_order[tail_start..].partition_point(|&i| {
            let runtime = &self.state.runtimes[i];
            (runtime.admit_at, runtime.id()) <= (admit_at, id)
        });
        self.arrival_order.insert(tail_start + insert_at, idx);
        Ok(idx)
    }

    /// Hands a task back, if it has not started executing: the task is
    /// removed from the node (no record will be produced) and returned for
    /// re-injection elsewhere — the primitive behind work stealing and load
    /// shedding.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTask`] / [`EngineError::TaskRevoked`] /
    /// [`EngineError::TaskCompleted`] / [`EngineError::TaskAlreadyStarted`]
    /// describe why the task cannot be handed back; the session is
    /// unchanged.
    pub fn revoke(&mut self, id: TaskId) -> Result<PreparedTask, EngineError> {
        let pos = self
            .state
            .id_index
            .binary_search_by_key(&id, |&(id, _)| id)
            .map_err(|_| EngineError::UnknownTask(id))?;
        let idx = self.state.id_index[pos].1;
        let runtime = &self.state.runtimes[idx];
        if runtime.revoked {
            return Err(EngineError::TaskRevoked(id));
        }
        if runtime.completion.is_some() {
            return Err(EngineError::TaskCompleted(id));
        }
        if runtime.first_start.is_some() || Some(idx) == self.running {
            return Err(EngineError::TaskAlreadyStarted(id));
        }
        debug_assert!(runtime.cursor.executed().is_zero(), "never started");
        if runtime.arrived {
            debug_assert!(runtime.is_waiting(), "never-started admitted task waits");
            self.state.leave_waiting(idx);
        } else {
            self.remove_pending_arrival(idx);
        }
        self.state.state_version += 1;
        self.state.untrack_revocable(idx);
        self.state.drop_remaining(idx);
        let runtime = &mut self.state.runtimes[idx];
        runtime.revoked = true;
        let prepared = runtime.prepared.clone();
        self.state.finished += 1;
        if S::ENABLED {
            self.sink.record(self.now, TraceEvent::Revoke { task: id });
        }
        self.refresh_next_event();
        Ok(prepared)
    }

    // ---- Fault injection -------------------------------------------------

    /// Freezes the node until `until`: no execution progress, no scheduler
    /// wakeups, no admissions before that instant. Models both a
    /// freeze/straggler window and the downtime after a crash. Stalls
    /// compose by taking the later end; a stall entirely in the past is a
    /// no-op.
    ///
    /// Bumps the state version even though no task state changes: a stall
    /// breaks the time-invariance that external predicted-turnaround caches
    /// (keyed on the version) rely on, so they must observe it.
    pub fn stall(&mut self, until: Cycles) {
        self.stall_until = self.stall_until.max(until);
        self.state.state_version += 1;
        self.refresh_next_event();
        if S::ENABLED {
            self.sink.record(
                self.now,
                TraceEvent::Stall {
                    until: self.stall_until,
                },
            );
        }
    }

    /// The instant the current fault stall ends, if the node is stalled.
    pub fn stalled_until(&self) -> Option<Cycles> {
        (self.now < self.stall_until).then_some(self.stall_until)
    }

    /// Sets the node's clock scale: from now on, every elapsed wall cycle
    /// yields `num / den` cycles of plan progress — the degraded-node
    /// (thermal throttle / contention straggler) model. `(1, 1)` restores
    /// full speed. The fractional-progress carry resets, so call this only
    /// at the globally synchronized instants the cluster's fault driver
    /// uses (degrade window edges), where both simulation loops observe the
    /// same session state.
    ///
    /// Scaling stretches *execution* only. Checkpoint and restore DMA, the
    /// scheduling-quantum lattice and fault stalls stay on the wall clock:
    /// the DMA engine and the scheduler's timer tick at full speed even
    /// when the compute clock is throttled.
    ///
    /// Bumps the state version: external predicted-turnaround caches rely
    /// on time-invariance that holds only at unit scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < num <= den` (slowdown only — a speed-up would
    /// break the conservative completion bounds the cluster loops rely on).
    pub fn set_clock_scale(&mut self, num: u32, den: u32) {
        assert!(
            num > 0 && num <= den,
            "clock scale must satisfy 0 < num <= den (slowdown only), got {num}/{den}"
        );
        self.clock = ClockScale::new(num, den);
        self.state.state_version += 1;
        self.refresh_next_event();
        if S::ENABLED {
            self.sink
                .record(self.now, TraceEvent::ClockScale { num, den });
        }
    }

    /// The current clock scale as `(num, den)`; `(1, 1)` when undegraded.
    pub fn clock_scale(&self) -> (u32, u32) {
        (self.clock.num, self.clock.den)
    }

    /// The exact wall cycles the node needs, from this instant, to make
    /// `work` cycles of plan progress under its current clock scale
    /// (including the fractional carry). Equals `work` at unit scale. A
    /// migration arbiter prices "stay on this straggler" with this.
    pub fn scaled_wall_for_work(&self, work: Cycles) -> Cycles {
        self.clock.wall_needed(work)
    }

    /// [`SimSession::scaled_wall_for_work`] as a `run_until(at)` would leave
    /// the clock's carry (see [`SimSession::now_at`]).
    pub fn scaled_wall_for_work_at(&self, at: Cycles, work: Cycles) -> Cycles {
        match self.quiet_wall(at) {
            Some(wall) => self.clock.after(wall).1.wall_needed(work),
            None => self.clock.wall_needed(work),
        }
    }

    /// Crashes the node: every resident task is drained off the session and
    /// returned as a [`SalvagedTask`] manifest, in ascending task-id order.
    ///
    /// Salvage follows the commit-point recovery model: a task that never
    /// started executing is salvaged verbatim; a task with execution
    /// progress (running, checkpointed, or awaiting restore) resumes from
    /// its last `GEMM_OP` interval boundary — the last commit point — with
    /// the checkpoint footprint that was live there, so in-window progress
    /// past the boundary is lost and recovery pays the restore DMA for
    /// exactly the committed context. A KILL-reset task salvages from zero.
    ///
    /// The session itself survives (its clock, records of already-completed
    /// tasks, and counters are intact); pair with [`SimSession::stall`] to
    /// model the crash's downtime window. Salvaged tasks produce no record
    /// here — recovery re-injects them elsewhere via
    /// [`SimSession::inject_salvaged`], or abandons them.
    pub fn fail(&mut self) -> Vec<SalvagedTask> {
        let mut indices: Vec<usize> = self.resident_indices().collect();
        indices.sort_unstable_by_key(|&idx| self.state.runtimes[idx].id());
        let mut salvaged = Vec::with_capacity(indices.len());
        for idx in indices {
            salvaged.push(self.salvage_runtime(idx));
        }
        self.state.state_version += 1;
        self.phase = Phase::Wakeup;
        self.refresh_next_event();
        salvaged
    }

    /// Voluntarily extracts one *started*, resident task at its last
    /// `GEMM_OP` commit point — the migration twin of [`SimSession::fail`]:
    /// same commit-point salvage semantics, but scoped to a single task on
    /// a node that keeps running. The manifest re-injects elsewhere via
    /// [`SimSession::inject_salvaged`] after the cluster has paid the
    /// interconnect transfer; in-window progress past the commit point is
    /// the migration's replay cost.
    ///
    /// Never-started tasks hold no node-resident context — move those with
    /// [`SimSession::revoke`], which is free.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTask`] / [`EngineError::TaskRevoked`] /
    /// [`EngineError::TaskCompleted`] if the task is not resident, and
    /// [`EngineError::TaskNotStarted`] if it has no checkpointable context;
    /// the session is unchanged on error.
    pub fn checkpoint_out(&mut self, id: TaskId) -> Result<SalvagedTask, EngineError> {
        let idx = self.checkpointable_index(id)?;
        let was_running = Some(idx) == self.running;
        let salvage = self.salvage_runtime(idx);
        self.state.state_version += 1;
        if was_running {
            // The NPU lost its running task; the next step must be a fresh
            // scheduler wakeup, exactly as after a crash.
            self.phase = Phase::Wakeup;
        }
        self.refresh_next_event();
        Ok(salvage)
    }

    /// A read-only preview of what [`SimSession::checkpoint_out`] would
    /// salvage for `id` right now: `(resume_executed, checkpoint_bytes)` at
    /// the task's last commit point. The migration arbiter prices the
    /// stay-vs-move comparison with this *before* deciding to extract —
    /// the returned bytes are exactly what the interconnect would carry.
    ///
    /// # Errors
    ///
    /// The same errors as [`SimSession::checkpoint_out`].
    pub fn checkpoint_preview(&self, id: TaskId) -> Result<(Cycles, u64), EngineError> {
        let idx = self.checkpointable_index(id)?;
        Ok(self.state.runtimes[idx].last_commit_point())
    }

    /// Validates that `id` names a started, resident task and returns its
    /// runtime index (the shared gate of [`SimSession::checkpoint_out`] and
    /// [`SimSession::checkpoint_preview`]).
    fn checkpointable_index(&self, id: TaskId) -> Result<usize, EngineError> {
        let pos = self
            .state
            .id_index
            .binary_search_by_key(&id, |&(id, _)| id)
            .map_err(|_| EngineError::UnknownTask(id))?;
        let idx = self.state.id_index[pos].1;
        let runtime = &self.state.runtimes[idx];
        if runtime.revoked {
            return Err(EngineError::TaskRevoked(id));
        }
        if runtime.completion.is_some() {
            return Err(EngineError::TaskCompleted(id));
        }
        if runtime.first_start.is_none() {
            return Err(EngineError::TaskNotStarted(id));
        }
        Ok(idx)
    }

    /// Drains resident runtime `idx` off the session as a [`SalvagedTask`]
    /// at its last commit point. Shared by [`SimSession::fail`] (all
    /// residents) and [`SimSession::checkpoint_out`] (one task); callers
    /// bump the state version.
    fn salvage_runtime(&mut self, idx: usize) -> SalvagedTask {
        let was_running = Some(idx) == self.running;
        if was_running {
            self.running = None;
        } else if self.state.runtimes[idx].arrived {
            self.state.leave_waiting(idx);
        } else {
            self.remove_pending_arrival(idx);
        }
        if self.state.runtimes[idx].first_start.is_none() {
            self.state.untrack_revocable(idx);
        }
        self.state.drop_remaining(idx);
        let runtime = &mut self.state.runtimes[idx];
        let (resume_executed, checkpoint_bytes) = runtime.last_commit_point();
        let salvage = SalvagedTask {
            prepared: runtime.prepared.clone(),
            resume_executed,
            checkpoint_bytes,
            first_start: runtime.first_start,
            preemption_count: runtime.preemption_count,
            kill_restarts: runtime.kill_restarts,
            checkpoint_overhead: runtime.checkpoint_overhead,
            restore_overhead: runtime.restore_overhead,
            max_checkpoint_bytes: runtime.max_checkpoint_bytes,
        };
        runtime.revoked = true;
        self.state.finished += 1;
        if S::ENABLED {
            self.sink.record(
                self.now,
                TraceEvent::Salvage {
                    task: salvage.prepared.request.id,
                    resume_executed: salvage.resume_executed,
                    checkpoint_bytes: salvage.checkpoint_bytes,
                },
            );
        }
        salvage
    }

    /// Consumes the drained session and builds the [`SimOutcome`]: the
    /// id-sorted records of every completed task (revoked tasks produce no
    /// record), deriving the makespan in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if tasks are still outstanding (not [`StepOutcome::Drained`]).
    pub fn finish(self) -> SimOutcome {
        self.finish_with_sink().0
    }

    /// [`SimSession::finish`], but also hands the trace sink back so a
    /// caller can inspect what it recorded.
    ///
    /// # Panics
    ///
    /// Panics if tasks are still outstanding (not [`StepOutcome::Drained`]).
    pub fn finish_with_sink(self) -> (SimOutcome, S) {
        assert!(
            self.is_drained(),
            "finish() called with tasks still outstanding"
        );
        let mut makespan = Cycles::ZERO;
        let mut records: Vec<TaskRecord> = self
            .state
            .runtimes
            .iter()
            .filter(|r| !r.revoked)
            .map(|r| {
                let completion = r.completion.expect("all tasks completed");
                makespan = makespan.max(completion);
                TaskRecord {
                    id: r.prepared.request.id,
                    model: r.prepared.request.model,
                    batch: r.prepared.request.batch,
                    priority: r.prepared.request.priority,
                    arrival: r.prepared.request.arrival,
                    first_start: r.first_start.unwrap_or(r.prepared.request.arrival),
                    completion,
                    isolated_cycles: r.prepared.isolated_cycles(),
                    estimated_cycles: r.estimated,
                    preemption_count: r.preemption_count,
                    kill_restarts: r.kill_restarts,
                    checkpoint_overhead: r.checkpoint_overhead,
                    restore_overhead: r.restore_overhead,
                    max_checkpoint_bytes: r.max_checkpoint_bytes,
                }
            })
            .collect();
        records.sort_by_key(|r| r.id);

        let outcome = SimOutcome {
            records,
            makespan,
            scheduler_invocations: self.scheduler_invocations,
            checkpoint_preemptions: self.checkpoint_preemptions,
            kill_preemptions: self.kill_preemptions,
            drain_decisions: self.drain_decisions,
            quanta_skipped: self.quanta_skipped,
            replayed_token_grants: self.replayed_token_grants,
        };
        (outcome, self.sink)
    }

    /// Mutable access to the attached trace sink (e.g. to drain a ring
    /// buffer mid-run).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::trace::VecSink;
    use dnn_models::SeqSpec;

    fn npu() -> NpuConfig {
        NpuConfig::paper_default()
    }

    fn prepare(requests: Vec<TaskRequest>) -> Vec<PreparedTask> {
        let cfg = npu();
        requests
            .into_iter()
            .map(|r| PreparedTask::prepare(r, &cfg))
            .collect()
    }

    fn simple_requests() -> Vec<TaskRequest> {
        vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnVggNet).with_priority(Priority::Low),
            TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet)
                .with_priority(Priority::High)
                .with_arrival(Cycles::new(200_000)),
            TaskRequest::new(TaskId(2), ModelKind::CnnGoogLeNet)
                .with_priority(Priority::Medium)
                .with_arrival(Cycles::new(400_000)),
        ]
    }

    fn run(
        policy: PolicyKind,
        preemption: PreemptionMode,
        requests: Vec<TaskRequest>,
    ) -> SimOutcome {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::named(policy, preemption));
        let prepared = prepare(requests);
        sim.run(&prepared)
    }

    #[test]
    fn single_task_runs_in_isolated_time() {
        let outcome = run(
            PolicyKind::Fcfs,
            PreemptionMode::NonPreemptive,
            vec![TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet)],
        );
        let record = &outcome.records[0];
        assert_eq!(record.turnaround(), record.isolated_cycles);
        assert!((record.ntt() - 1.0).abs() < 1e-9);
        assert_eq!(record.preemption_count, 0);
        assert_eq!(outcome.makespan, record.completion);
    }

    #[test]
    fn all_tasks_complete_under_every_policy_and_mode() {
        for policy in PolicyKind::ALL {
            for preemption in [
                PreemptionMode::NonPreemptive,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
                PreemptionMode::Static(PreemptionMechanism::Kill),
                PreemptionMode::Dynamic,
                PreemptionMode::DynamicKill,
            ] {
                // Static(KILL) + round-robin livelocks by construction (each
                // task keeps discarding the other's progress every quantum);
                // the paper never evaluates that combination and the engine
                // reports it via its livelock safety valve, so skip it here.
                if policy == PolicyKind::RoundRobin
                    && preemption == PreemptionMode::Static(PreemptionMechanism::Kill)
                {
                    continue;
                }
                let outcome = run(policy, preemption, simple_requests());
                assert_eq!(outcome.records.len(), 3, "{policy:?}/{preemption:?}");
                for record in &outcome.records {
                    assert!(record.completion >= record.arrival);
                    assert!(
                        record.ntt() >= 0.999,
                        "{policy:?}/{preemption:?}: NTT {}",
                        record.ntt()
                    );
                }
            }
        }
    }

    #[test]
    fn np_fcfs_makes_later_tasks_wait_for_earlier_ones() {
        let outcome = run(
            PolicyKind::Fcfs,
            PreemptionMode::NonPreemptive,
            simple_requests(),
        );
        // Task 1 (AlexNet, high priority) arrives while VGG runs; under
        // NP-FCFS it cannot start until VGG finishes.
        let vgg = outcome.record(TaskId(0)).unwrap();
        let alexnet = outcome.record(TaskId(1)).unwrap();
        assert!(alexnet.first_start >= vgg.completion);
        assert!(alexnet.ntt() > 2.0);
    }

    #[test]
    fn preemptive_hpf_lets_the_high_priority_task_jump_the_queue() {
        let np = run(
            PolicyKind::Hpf,
            PreemptionMode::NonPreemptive,
            simple_requests(),
        );
        let preemptive = run(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            simple_requests(),
        );
        let np_high = np.record(TaskId(1)).unwrap();
        let p_high = preemptive.record(TaskId(1)).unwrap();
        assert!(
            p_high.turnaround() < np_high.turnaround(),
            "preemption should shorten the high-priority task's turnaround ({} vs {})",
            p_high.turnaround(),
            np_high.turnaround()
        );
        assert!(preemptive.checkpoint_preemptions > 0);
        // The preempted VGG task records checkpoint overhead.
        let vgg = preemptive.record(TaskId(0)).unwrap();
        assert!(vgg.preemption_count > 0);
        assert!(vgg.checkpoint_overhead > Cycles::ZERO);
        assert!(vgg.max_checkpoint_bytes > 0);
    }

    #[test]
    fn kill_wastes_work_and_hurts_the_preempted_task() {
        let checkpoint = run(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            simple_requests(),
        );
        let kill = run(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Kill),
            simple_requests(),
        );
        let vgg_ckpt = checkpoint.record(TaskId(0)).unwrap();
        let vgg_kill = kill.record(TaskId(0)).unwrap();
        assert!(vgg_kill.kill_restarts > 0);
        assert_eq!(vgg_ckpt.kill_restarts, 0);
        assert!(
            vgg_kill.turnaround() > vgg_ckpt.turnaround(),
            "KILL should waste the preempted task's progress"
        );
        // KILL has no checkpoint latency.
        assert_eq!(vgg_kill.checkpoint_overhead, Cycles::ZERO);
    }

    #[test]
    fn checkpoint_overhead_is_microseconds_not_milliseconds() {
        let outcome = run(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            simple_requests(),
        );
        let cfg = npu();
        for record in outcome.records.iter().filter(|r| r.preemption_count > 0) {
            let latency = record.checkpoint_overhead / record.preemption_count;
            let us = cfg.cycles_to_micros(latency);
            assert!(us < 100.0, "preemption latency {us} us is too large");
        }
    }

    #[test]
    fn dynamic_mode_sometimes_drains() {
        // A long task that is nearly finished when a long candidate arrives
        // should be drained rather than preempted.
        let requests = vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet).with_priority(Priority::Low),
            TaskRequest::new(TaskId(1), ModelKind::CnnVggNet)
                .with_priority(Priority::High)
                // Arrives when AlexNet is ~90% done.
                .with_arrival(Cycles::new(1_400_000)),
        ];
        let outcome = run(PolicyKind::Hpf, PreemptionMode::Dynamic, requests);
        assert!(outcome.drain_decisions > 0);
        assert_eq!(outcome.checkpoint_preemptions, 0);
    }

    #[test]
    fn prema_improves_high_priority_latency_over_np_fcfs() {
        let baseline = run(
            PolicyKind::Fcfs,
            PreemptionMode::NonPreemptive,
            simple_requests(),
        );
        let prema = run(
            PolicyKind::Prema,
            PreemptionMode::Dynamic,
            simple_requests(),
        );
        let base_high = baseline.record(TaskId(1)).unwrap();
        let prema_high = prema.record(TaskId(1)).unwrap();
        assert!(
            prema_high.turnaround() < base_high.turnaround(),
            "PREMA should improve the high-priority task's turnaround"
        );
        assert!(prema.antt() <= baseline.antt() + 1e-9);
    }

    /// How many plan-position lookups `run` makes on this thread.
    fn position_lookups(run: impl FnOnce() -> SimOutcome) -> (SimOutcome, u64) {
        let lookups = || crate::plan::LOOKUPS.with(std::cell::Cell::get);
        let before = lookups();
        let outcome = run();
        (outcome, lookups() - before)
    }

    /// The engine's step path reads no plan table: a non-preemptive
    /// session advances every task to completion without once looking up
    /// where in its plan the task stands.
    #[test]
    fn an_np_fcfs_session_draining_a_batch_makes_no_lookup() {
        let (outcome, lookups) = position_lookups(|| {
            run(
                PolicyKind::Fcfs,
                PreemptionMode::NonPreemptive,
                simple_requests(),
            )
        });
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(lookups, 0);
    }

    /// A CHECKPOINT preemption looks the position up twice: once for the
    /// distance to the boundary it drains to, once for the bytes it spills
    /// there.
    #[test]
    fn one_checkpoint_preemption_makes_two_lookups() {
        let requests = simple_requests().into_iter().take(2).collect();
        let (outcome, lookups) = position_lookups(|| {
            run(
                PolicyKind::Hpf,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
                requests,
            )
        });
        assert_eq!(outcome.checkpoint_preemptions, 1);
        assert_eq!(lookups, 2);
    }

    #[test]
    fn restore_overhead_is_charged_when_a_checkpointed_task_resumes() {
        let outcome = run(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            simple_requests(),
        );
        let preempted: Vec<_> = outcome
            .records
            .iter()
            .filter(|r| r.preemption_count > 0)
            .collect();
        assert!(!preempted.is_empty());
        assert!(preempted.iter().any(|r| r.restore_overhead > Cycles::ZERO));
    }

    #[test]
    fn simulator_accessors_and_prepare() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        assert_eq!(sim.scheduler_config(), &SchedulerConfig::paper_default());
        let prepared = sim.prepare(&[TaskRequest::new(TaskId(0), ModelKind::CnnMobileNet)]);
        assert_eq!(prepared.len(), 1);
        assert!(prepared[0].isolated_cycles() > Cycles::ZERO);
        assert_eq!(
            prepared[0].estimated_cycles(),
            prepared[0].isolated_cycles()
        );
    }

    #[test]
    fn estimates_override_plan_length() {
        let cfg = npu();
        let request =
            TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet).with_estimate(Cycles::new(42));
        let prepared = PreparedTask::prepare(request, &cfg);
        assert_eq!(prepared.estimated_cycles(), Cycles::new(42));
        assert!(prepared.isolated_cycles() > Cycles::new(42));
    }

    #[test]
    fn rnn_tasks_also_run_to_completion() {
        let requests = vec![
            TaskRequest::new(TaskId(0), ModelKind::RnnSentiment)
                .with_seq(SeqSpec::new(20, 20))
                .with_priority(Priority::Low),
            TaskRequest::new(TaskId(1), ModelKind::RnnTranslation1)
                .with_seq(SeqSpec::new(15, 18))
                .with_priority(Priority::High)
                .with_arrival(Cycles::new(100_000)),
        ];
        let outcome = run(PolicyKind::Prema, PreemptionMode::Dynamic, requests);
        assert_eq!(outcome.records.len(), 2);
        for record in &outcome.records {
            assert!(record.ntt() >= 0.999);
        }
    }

    #[test]
    fn realign_quantum_matches_the_bump_loop() {
        for (next_quantum, now, quantum) in [
            (175_000u64, 0u64, 175_000u64),
            (175_000, 175_000, 175_000),
            (175_000, 175_001, 175_000),
            (175_000, 10_000_000, 175_000),
            (350_000, 349_999, 175_000),
            (1, 1_000_000_007, 3),
        ] {
            let mut looped = Cycles::new(next_quantum);
            let now = Cycles::new(now);
            let quantum = Cycles::new(quantum);
            while looped <= now {
                looped += quantum;
            }
            assert_eq!(
                realign_quantum(Cycles::new(next_quantum), now, quantum),
                looped,
                "next_quantum {next_quantum:?} now {now:?} quantum {quantum:?}"
            );
        }
    }

    #[test]
    fn summary_matches_the_two_pass_accessors() {
        let outcome = run(
            PolicyKind::Prema,
            PreemptionMode::Dynamic,
            simple_requests(),
        );
        let summary = outcome.summary();
        assert_eq!(summary.task_count, outcome.records.len());
        // Bit-identical: summary accumulates in the same record order.
        assert_eq!(summary.antt, outcome.antt());
        assert_eq!(summary.stp, outcome.stp());
        let preemptions: u64 = outcome.records.iter().map(|r| r.preemption_count).sum();
        let kills: u64 = outcome.records.iter().map(|r| r.kill_restarts).sum();
        assert_eq!(summary.preemptions, preemptions);
        assert_eq!(summary.kill_restarts, kills);

        let empty = SimOutcome {
            records: Vec::new(),
            makespan: Cycles::ZERO,
            scheduler_invocations: 0,
            checkpoint_preemptions: 0,
            kill_preemptions: 0,
            drain_decisions: 0,
            quanta_skipped: 0,
            replayed_token_grants: 0,
        };
        assert_eq!(empty.summary(), OutcomeSummary::default());
        assert_eq!(empty.antt(), 0.0);
    }

    #[test]
    fn fast_forward_is_bit_identical_to_the_stepped_reference() {
        for policy in [PolicyKind::Fcfs, PolicyKind::Prema, PolicyKind::RoundRobin] {
            for preemption in [
                PreemptionMode::NonPreemptive,
                PreemptionMode::Dynamic,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            ] {
                let sim = NpuSimulator::new(npu(), SchedulerConfig::named(policy, preemption));
                let prepared = prepare(simple_requests());
                let fast = sim.run(&prepared);
                let stepped = sim.run_reference(&prepared);
                assert_eq!(fast, stepped, "{policy:?}/{preemption:?}");
                // The skipped quanta are still accounted for: the single
                // isolated-task tail alone spans several quanta.
                assert!(fast.scheduler_invocations > 3);
            }
        }
    }

    #[test]
    fn a_grant_level_reached_exactly_at_a_boundary_gets_a_real_wakeup() {
        // The low-priority task's estimate is one quantum, so every full
        // period grants it exactly one token: from its seed of 1 it reaches
        // the high-priority runner's level 9 at the eighth boundary. There
        // TOKEN's candidate group gains it, and its lower id wins the
        // arrival tie.
        let sched = SchedulerConfig::named(
            PolicyKind::Token,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
        );
        let quantum = sched.quantum_cycles(&npu());
        let sim = NpuSimulator::new(npu(), sched);
        let prepared = prepare(vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet)
                .with_priority(Priority::Low)
                .with_estimate(quantum),
            TaskRequest::new(TaskId(1), ModelKind::CnnVggNet).with_priority(Priority::High),
        ]);
        let (outcome, sink) = sim.run_traced(&prepared, VecSink::default());
        assert_eq!(outcome, sim.run_reference(&prepared));
        // The seven boundaries before the crossing are skipped in one
        // batch...
        let skip = TraceEvent::QuantumSkip {
            from: Cycles::ZERO,
            to: quantum * 7,
            quanta: 7,
            grants: 7,
        };
        assert!(sink.events.iter().any(|&(_, event)| event == skip));
        // ...and the crossing itself is a real wakeup, which preempts.
        let first_pick = sink.events.iter().find_map(|&(at, event)| match event {
            TraceEvent::Wakeup {
                chosen: TaskId(0), ..
            } => Some(at),
            _ => None,
        });
        assert_eq!(first_pick, Some(quantum * 8));
    }

    #[test]
    fn a_dynamic_drain_keeps_stepping_every_quantum() {
        // `dynamic_mode_sometimes_drains` at a short quantum: every
        // boundary until the runner completes prefers the contender, and
        // Algorithm 3 drains each time. A DRAIN leaves a task the policy did
        // not choose running, so none of those wakeups may be skipped.
        for policy in [PolicyKind::Hpf, PolicyKind::Prema] {
            let sched = SchedulerConfig {
                quantum_ms: 0.02,
                ..SchedulerConfig::named(policy, PreemptionMode::Dynamic)
            };
            let sim = NpuSimulator::new(npu(), sched);
            let prepared = prepare(vec![
                TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet).with_priority(Priority::Low),
                TaskRequest::new(TaskId(1), ModelKind::CnnVggNet)
                    .with_priority(Priority::High)
                    .with_arrival(Cycles::new(1_400_000)),
            ]);
            let fast = sim.run(&prepared);
            assert_eq!(fast, sim.run_reference(&prepared), "{policy:?}");
            assert!(fast.drain_decisions > 2, "{policy:?}: {fast:?}");
            assert_eq!(fast.checkpoint_preemptions, 0);
        }
    }

    #[test]
    fn a_checkpointed_task_can_win_back_the_next_wakeup() {
        // Under SJF an arrival estimated one cycle shorter than the
        // runner's remaining time preempts it, but CHECKPOINT first runs
        // the runner to its commit point. When that drain outlasts the
        // arrival's progress before the next boundary, the runner is the
        // shorter job again there, so the wakeup after a preemption must
        // be stepped even under a policy whose choice otherwise stands.
        let sim = NpuSimulator::new(
            npu(),
            SchedulerConfig::named(
                PolicyKind::Sjf,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            ),
        );
        let runner = prepare(vec![TaskRequest::new(TaskId(0), ModelKind::CnnVggNet)]);
        let runner_estimate = runner[0].estimated_cycles();
        let mut won_back = 0;
        for k in 1..200u64 {
            let arrival = Cycles::new(k * 7_919);
            let remaining = runner_estimate - arrival;
            let mut tasks = runner.clone();
            tasks.extend(prepare(vec![TaskRequest::new(
                TaskId(1),
                ModelKind::CnnMobileNet,
            )
            .with_arrival(arrival)
            .with_estimate(remaining - Cycles::new(1))]));
            let reference = sim.run_reference(&tasks);
            assert_eq!(sim.run(&tasks), reference, "arrival {arrival:?}");
            let arrival_record = reference.record(TaskId(1)).expect("completes");
            won_back += usize::from(arrival_record.preemption_count > 0);
        }
        assert!(
            won_back > 0,
            "some drain must outlast the arrival's head start"
        );
    }

    #[test]
    fn dispatch_signals_name_the_levels_the_runner_drains() {
        // An NP-FCFS node runs a Low task whose estimate is half its plan,
        // with High work queued behind it.
        let low = TaskRequest::new(TaskId(0), ModelKind::CnnVggNet).with_priority(Priority::Low);
        let plan = prepare(vec![low])[0].isolated_cycles();
        let tasks = prepare(vec![
            low.with_estimate(Cycles::new(plan.get() / 2)),
            TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet)
                .with_priority(Priority::High)
                .with_arrival(Cycles::new(1)),
        ]);
        let sim = NpuSimulator::new(npu(), SchedulerConfig::np_fcfs());
        let mut session = sim.session(&tasks);
        let gap = Cycles::new(1_000);
        let mut check = |at: Cycles, runner: Option<Priority>| {
            let _ = session.run_until(at);
            assert_eq!(session.running_task(), Some(TaskId(0)));
            let signals = session.dispatch_signals();
            assert_eq!(signals.runner_priority, runner, "at {at:?}");
            let later = at + gap;
            assert!(session.next_event_time().is_some_and(|event| later < event));
            for priority in Priority::ALL {
                // A level the runner counts toward drains one cycle per
                // cycle; every other level reads the same later.
                let stored = signals.blocking_work[priority.index()];
                let drains = runner.is_some_and(|runner| runner >= priority);
                let expect = if drains { stored - gap } else { stored };
                assert_eq!(
                    session.predicted_blocking_work_at(priority, later),
                    expect,
                    "{priority:?} at {at:?}"
                );
            }
        };
        check(Cycles::new(10), Some(Priority::Low));
        // Past its estimate the runner frees nothing, at any level.
        check(Cycles::new(plan.get() * 3 / 4), None);
    }

    #[test]
    fn a_session_paused_inside_a_skipped_span_survives_revoke_and_inject() {
        let quantum = SchedulerConfig::paper_default().quantum_cycles(&npu());
        let pause = quantum * 10 + Cycles::new(quantum.get() / 2);
        let late = PreparedTask::prepare(
            TaskRequest::new(TaskId(2), ModelKind::CnnMobileNet)
                .with_priority(Priority::Medium)
                .with_arrival(pause + quantum * 3),
            &npu(),
        );
        for policy in [PolicyKind::Hpf, PolicyKind::Prema] {
            let sim = NpuSimulator::new(
                npu(),
                SchedulerConfig::named(policy, PreemptionMode::Dynamic),
            );
            let prepared = prepare(vec![
                TaskRequest::new(TaskId(0), ModelKind::CnnVggNet).with_priority(Priority::High),
                TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet).with_priority(Priority::Low),
            ]);
            for revoke in [true, false] {
                let context = format!("{policy:?}, revoke {revoke}");
                let mut fast = sim.session_with_sink(&prepared, VecSink::default());
                let mut reference = sim.session_reference(&prepared);
                assert_eq!(fast.run_until(pause), StepOutcome::Paused);
                assert_eq!(reference.run_until(pause), StepOutcome::Paused);
                // The fast session skipped wakeups with the low-priority
                // task waiting, and is paused with the runner mid-span.
                let skipped = fast.sink_mut().events.iter().any(|(_, event)| {
                    matches!(event, TraceEvent::QuantumSkip { grants, .. } if *grants > 0)
                });
                assert!(skipped, "{context}");
                assert_eq!(fast.running_task(), Some(TaskId(0)), "{context}");
                if revoke {
                    fast.revoke(TaskId(1)).expect("never started");
                    reference.revoke(TaskId(1)).expect("never started");
                } else {
                    fast.inject(late.clone()).expect("fresh id");
                    reference.inject(late.clone()).expect("fresh id");
                }
                assert_eq!(fast.run_until(Cycles::MAX), StepOutcome::Drained);
                assert_eq!(reference.run_until(Cycles::MAX), StepOutcome::Drained);
                assert_eq!(fast.finish(), reference.finish(), "{context}");
            }
        }
    }

    #[test]
    fn resident_tasks_cover_exactly_the_incomplete_tasks_while_paused() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());
        let mut session = sim.session(&prepared);
        let mut horizon = Cycles::ZERO;
        loop {
            let outcome = session.run_until(horizon);
            let residents = session.resident_tasks();
            // The index-set walk (waiting + running + pending arrivals) must
            // agree with the brute-force definition: every incomplete task,
            // exactly once.
            assert_eq!(residents.len(), session.queue_depth());
            let mut ids: Vec<TaskId> = residents.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), residents.len(), "no duplicates");
            for resident in &residents {
                assert!(
                    resident.estimated_remaining() <= resident.estimated_total,
                    "progress never exceeds the estimate's frame"
                );
            }
            if outcome == StepOutcome::Drained {
                assert!(residents.is_empty());
                break;
            }
            horizon += Cycles::new(250_000);
        }
    }

    #[test]
    fn revoked_task_can_be_reinjected_into_the_same_session() {
        // Multi-hop work stealing can hand a task back to a node that
        // previously revoked it; the session revives the slot.
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnVggNet),
            TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet).with_arrival(Cycles::new(500_000)),
        ]);
        let mut session = sim.session(&prepared);
        assert_eq!(session.run_until(Cycles::new(100_000)), StepOutcome::Paused);
        let handed_back = session.revoke(TaskId(1)).expect("never started");
        assert_eq!(session.queue_depth(), 1);
        session.inject(handed_back).expect("id was revoked");
        assert_eq!(session.queue_depth(), 2);
        assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
        let outcome = session.finish();
        assert_eq!(outcome.records.len(), 2, "revived task completes once");
        assert!(outcome.record(TaskId(1)).is_some());
    }

    #[test]
    fn session_misuse_returns_typed_errors_and_leaves_the_session_intact() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet),
            TaskRequest::new(TaskId(1), ModelKind::CnnMobileNet)
                .with_arrival(Cycles::new(10 * prepared_alexnet_cycles().get())),
        ]);
        let mut session = sim.session(&prepared);
        // Injecting a live duplicate is refused as a value.
        assert_eq!(
            session.inject(prepared[0].clone()),
            Err(EngineError::DuplicateTaskId(TaskId(0))),
        );
        let version = session.state_version();
        assert_eq!(
            session.revoke(TaskId(99)).unwrap_err(),
            EngineError::UnknownTask(TaskId(99))
        );
        assert_eq!(
            session.state_version(),
            version,
            "failed calls mutate nothing"
        );
        // Run task 0 to completion (task 1 arrives much later).
        let _ = session.run_until(Cycles::new(1));
        assert_eq!(
            session.revoke(TaskId(0)).unwrap_err(),
            EngineError::TaskAlreadyStarted(TaskId(0))
        );
        while session.running_task() == Some(TaskId(0)) {
            let bound = session.next_completion_time().unwrap();
            let _ = session.run_until(bound);
        }
        assert_eq!(
            session.revoke(TaskId(0)).unwrap_err(),
            EngineError::TaskCompleted(TaskId(0))
        );
        let handed = session.revoke(TaskId(1)).expect("never started");
        assert_eq!(
            session.revoke(TaskId(1)).unwrap_err(),
            EngineError::TaskRevoked(TaskId(1))
        );
        // Errors carry a human-readable description.
        let err = session.inject(prepared[0].clone()).unwrap_err();
        assert!(err.to_string().contains("TaskId(0)"), "{err}");
        session.inject(handed).expect("revoked slot revives");
        assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
        assert_eq!(session.finish().records.len(), 2);
    }

    fn prepared_alexnet_cycles() -> Cycles {
        PreparedTask::prepare(TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet), &npu())
            .isolated_cycles()
    }

    #[test]
    fn fail_salvages_residents_at_their_last_commit_point() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());
        let mut session = sim.session(&prepared);
        // Pause mid-flight: task 0 is running, the others are queued or
        // pending.
        assert_eq!(session.run_until(Cycles::new(500_000)), StepOutcome::Paused);
        let depth = session.queue_depth();
        assert!(depth > 0);
        let salvaged = session.fail();
        assert_eq!(salvaged.len(), depth);
        assert_eq!(session.queue_depth(), 0);
        assert!(session.is_drained());
        // Manifests come back in ascending id order, and a started task
        // resumes from an interval boundary with its progress floored, not
        // zeroed.
        for pair in salvaged.windows(2) {
            assert!(pair[0].prepared.request.id < pair[1].prepared.request.id);
        }
        for s in &salvaged {
            assert!(s.resume_executed <= s.prepared.isolated_cycles());
            if s.first_start.is_none() {
                assert!(
                    s.resume_executed.is_zero(),
                    "never started salvages verbatim"
                );
                assert_eq!(s.checkpoint_bytes, 0);
            }
            // The commit point sits exactly on an interval boundary.
            let mut floor = ProgressCursor::start();
            floor.advance(&s.prepared.plan, s.resume_executed);
            assert_eq!(floor.cycles_to_boundary(&s.prepared.plan), Cycles::ZERO);
            assert_eq!(floor.in_interval(&s.prepared.plan), Cycles::ZERO);
        }
        let started = salvaged.iter().find(|s| s.first_start.is_some());
        let started = started.expect("the running task had started");
        assert!(!started.resume_executed.is_zero(), "progress was preserved");
    }

    #[test]
    fn salvaged_task_resumes_on_a_new_session_and_pays_the_restore_dma() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![TaskRequest::new(TaskId(0), ModelKind::CnnVggNet)]);
        let mut session = sim.session(&prepared);
        assert_eq!(session.run_until(Cycles::new(600_000)), StepOutcome::Paused);
        let salvaged = session.fail().remove(0);
        assert!(!salvaged.resume_executed.is_zero(), "resumes mid-plan");
        assert!(salvaged.checkpoint_bytes > 0);

        // Checkpoint-priced recovery on a fresh node at t = 1_000_000.
        let recover_at = Cycles::new(1_000_000);
        let mut node = sim.session(&[]);
        node.inject_salvaged(salvaged.clone(), recover_at)
            .expect("fresh node");
        assert_eq!(node.run_until(Cycles::MAX), StepOutcome::Drained);
        let resumed = node.finish();
        let record = &resumed.records[0];
        assert!(
            record.restore_overhead > Cycles::ZERO,
            "recovery pays the restore DMA for the checkpointed context"
        );
        assert!(
            record.first_start < recover_at,
            "the original first start survives the hop"
        );
        // The resumed run only executes the remaining cycles: completion is
        // admission + restore + remaining, well short of a from-zero rerun.
        let remaining = record.isolated_cycles - salvaged.resume_executed;
        assert_eq!(
            record.completion,
            recover_at + record.restore_overhead + remaining
        );

        // Restart-from-zero recovery re-executes the whole plan.
        let mut zero_node = sim.session(&[]);
        zero_node
            .inject_salvaged(salvaged.restarted_from_zero(), recover_at)
            .expect("fresh node");
        assert_eq!(zero_node.run_until(Cycles::MAX), StepOutcome::Drained);
        let zero = zero_node.finish();
        assert!(
            zero.records[0].completion > record.completion,
            "checkpoint recovery beats restart-from-zero"
        );
    }

    #[test]
    fn stall_freezes_the_clock_and_shifts_completion_bounds() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet)]);
        let mut session = sim.session(&prepared);
        assert_eq!(session.run_until(Cycles::new(100_000)), StepOutcome::Paused);
        let before = session.next_completion_time().unwrap();
        let stall_end = Cycles::new(5_000_000);
        session.stall(stall_end);
        assert_eq!(session.stalled_until(), Some(stall_end));
        let shifted = session.next_completion_time().unwrap();
        assert_eq!(shifted, before - Cycles::new(100_000) + stall_end);
        assert_eq!(
            session.next_event_time(),
            Some(stall_end),
            "a stalled node is quiet until the stall ends"
        );
        // Pausing inside the stall makes clock progress but no execution.
        assert_eq!(session.run_until(Cycles::new(200_000)), StepOutcome::Paused);
        assert_eq!(session.now(), Cycles::new(200_000));
        assert_eq!(session.stalled_until(), Some(stall_end));
        assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
        let outcome = session.finish();
        assert_eq!(
            outcome.records[0].completion,
            stall_end + before - Cycles::new(100_000),
            "the frozen window pushes completion out one-for-one"
        );
    }

    #[test]
    fn a_past_horizon_inside_a_stall_never_rewinds_the_clock() {
        // Regression: with the clock already past `horizon`, the stall
        // branch used to set `now = min(stall_until, horizon)` — moving
        // the clock backwards and charging the rewound span as waiting a
        // second time on the next advance.
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());
        let drive = |past_call: bool| {
            let mut session = sim.session(&prepared);
            assert_eq!(session.run_until(Cycles::new(100_000)), StepOutcome::Paused);
            session.stall(Cycles::new(5_000_000));
            assert_eq!(session.run_until(Cycles::new(300_000)), StepOutcome::Paused);
            if past_call {
                assert_eq!(session.run_until(Cycles::new(200_000)), StepOutcome::Paused);
            }
            assert_eq!(session.now(), Cycles::new(300_000), "the clock never drops");
            assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
            session.finish()
        };
        assert_eq!(
            drive(true),
            drive(false),
            "a past horizon is a no-op, so waiting time is charged once"
        );
    }

    #[test]
    fn zero_remaining_running_task_completes_at_the_pause_horizon() {
        // Regression: a running task whose plan ends in zero-cycle
        // intervals can reach remaining == 0 exactly at a pause horizon
        // without being complete. `run_until(now)` must then finish it
        // rather than pausing forever — the cluster's completion-driven
        // loops advance sessions to exactly `next_completion_time()` and
        // rely on the task set shrinking there. Drive a session to every
        // reported completion bound and require global progress.
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());
        let mut session = sim.session(&prepared);
        let mut guard = 0u64;
        while let Some(bound) = session.next_completion_time() {
            let _ = session.run_until(bound);
            guard += 1;
            // Pre-fix, a zero-remaining runner paused at `now == bound`
            // repeats this state forever; post-fix the loop drains.
            assert!(guard < 100_000, "completion-bound driving livelocked");
        }
        assert!(session.is_drained());
        let outcome = session.finish();
        assert_eq!(outcome.records.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_task_list_rejected() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let _ = sim.run(&[]);
    }

    #[test]
    #[should_panic(expected = "task IDs must be unique")]
    fn duplicate_ids_rejected() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![
            TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet),
            TaskRequest::new(TaskId(0), ModelKind::CnnMobileNet),
        ]);
        let _ = sim.run(&prepared);
    }

    #[test]
    #[should_panic(expected = "invalid NpuConfig")]
    fn zero_width_array_rejected() {
        let zero_width = NpuConfig {
            systolic_width: 0,
            ..npu()
        };
        let _ = NpuSimulator::new(zero_width, SchedulerConfig::paper_default());
    }

    #[test]
    #[should_panic(expected = "invalid SchedulerConfig")]
    fn zero_token_scale_rejected() {
        let sched = SchedulerConfig {
            token_scale: 0.0,
            ..SchedulerConfig::named(PolicyKind::Token, PreemptionMode::Dynamic)
        };
        let _ = NpuSimulator::new(npu(), sched);
    }

    #[test]
    #[should_panic(expected = "invalid SchedulerConfig")]
    fn negative_token_scale_rejected() {
        let sched = SchedulerConfig {
            token_scale: -1.0,
            ..SchedulerConfig::paper_default()
        };
        let _ = NpuSimulator::new(npu(), sched);
    }

    #[test]
    fn clock_scale_conversions_are_exact_and_partition_invariant() {
        // work_in over any partition of a wall span equals work_in of the
        // whole span, and consume_work's wall span converts back to exactly
        // the requested work — the two invariants the bit-identity contract
        // under degradation stands on.
        for &(num, den) in &[(1u32, 2u32), (2, 3), (3, 7), (1, 1), (5, 5)] {
            let mut whole = ClockScale::new(num, den);
            let total_work = whole.work_in(Cycles::new(10_007));
            let mut split = ClockScale::new(num, den);
            let mut split_work = Cycles::ZERO;
            let mut left = 10_007u64;
            for piece in [1u64, 2, 3, 500, 4_999] {
                split_work += split.work_in(Cycles::new(piece));
                left -= piece;
            }
            split_work += split.work_in(Cycles::new(left));
            assert_eq!(split_work, total_work, "{num}/{den}");
            assert_eq!(split.acc, whole.acc, "{num}/{den}: carries agree");

            for work in [0u64, 1, 2, 97, 1_000] {
                let mut scale = ClockScale::new(num, den);
                scale.work_in(Cycles::new(13)); // arbitrary non-zero carry
                let peek = scale.wall_needed(Cycles::new(work));
                let mut consumer = scale;
                let wall = consumer.consume_work(Cycles::new(work));
                assert_eq!(wall, peek, "peek matches consumption");
                // Replaying that wall span yields exactly the work back.
                let mut replay = scale;
                assert_eq!(replay.work_in(wall), Cycles::new(work));
                assert_eq!(replay.acc, consumer.acc, "residues agree");
            }
        }
    }

    #[test]
    fn degraded_sessions_stay_bit_identical_across_engines_and_horizons() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());

        let run_scaled = |mut session: SimSession, chop: Option<u64>| {
            session.set_clock_scale(2, 7);
            if let Some(step) = chop {
                let mut horizon = Cycles::new(step);
                while session.run_until(horizon) == StepOutcome::Paused {
                    horizon += Cycles::new(step);
                }
            } else {
                assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
            }
            session.finish()
        };

        let fast = run_scaled(sim.session(&prepared), None);
        let reference = run_scaled(sim.session_reference(&prepared), None);
        let chopped = run_scaled(sim.session(&prepared), Some(77_773));
        assert_eq!(fast, reference, "fast-forward == step-every-quantum");
        assert_eq!(fast, chopped, "suspension is pure under scaling");

        // 2/7 speed stretches the makespan strictly (and roughly 7/2x).
        let unscaled = sim.run(&prepared);
        assert!(fast.makespan > unscaled.makespan * 3);
        assert!(fast.makespan < unscaled.makespan * 4);
    }

    #[test]
    fn scaled_completion_bounds_are_exact_for_a_lone_runner() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(vec![TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet)]);
        let mut session = sim.session(&prepared);
        session.set_clock_scale(1, 3);
        assert_eq!(session.clock_scale(), (1, 3));
        assert_eq!(session.run_until(Cycles::new(100_000)), StepOutcome::Paused);
        let bound = session.next_completion_time().expect("running");
        assert_eq!(
            session.next_event_time(),
            Some(bound),
            "a scaled lone runner's certificate is its exact completion"
        );
        let wall = session.scaled_wall_for_work(Cycles::new(100));
        assert!(
            wall >= Cycles::new(298) && wall <= Cycles::new(300),
            "100 work cycles at 1/3 speed cost 300 wall cycles minus the carry, got {wall:?}"
        );
        // Inside the certificate the projections read what a twin advanced
        // there reports, carry included.
        let last = bound - Cycles::new(1);
        let mut twin = sim.session(&prepared);
        twin.set_clock_scale(1, 3);
        assert_eq!(twin.run_until(Cycles::new(100_000)), StepOutcome::Paused);
        assert_eq!(twin.run_until(last), StepOutcome::Paused);
        assert_eq!(twin.now(), session.now_at(last));
        assert_eq!(
            twin.predicted_remaining_work(),
            session.predicted_remaining_work_at(last)
        );
        for work in [1u64, 2, 3, 100, 1_000] {
            assert_eq!(
                twin.scaled_wall_for_work(Cycles::new(work)),
                session.scaled_wall_for_work_at(last, Cycles::new(work)),
                "{work} work cycles"
            );
        }
        // The bound is exact: one cycle earlier the task is still live.
        assert_eq!(session.run_until(last), StepOutcome::Paused);
        assert!(!session.is_drained());
        assert_eq!(session.run_until(bound), StepOutcome::Drained);
        let record = session.finish();
        assert_eq!(record.records[0].completion, bound);
    }

    #[test]
    fn checkpoint_out_is_the_voluntary_twin_of_fail() {
        let sim = NpuSimulator::new(npu(), SchedulerConfig::paper_default());
        let prepared = prepare(simple_requests());
        let mut session = sim.session(&prepared);
        assert_eq!(session.run_until(Cycles::new(500_000)), StepOutcome::Paused);
        let running = session.running_task().expect("mid-flight");

        // Misuse surfaces as typed errors, mutating nothing.
        let version = session.state_version();
        assert_eq!(
            session.checkpoint_out(TaskId(99)).unwrap_err(),
            EngineError::UnknownTask(TaskId(99))
        );
        let never_started = session
            .resident_tasks()
            .iter()
            .find(|r| !r.started)
            .map(|r| r.id)
            .expect("a lower-priority resident has not started at 500k cycles");
        assert_eq!(
            session.checkpoint_out(never_started).unwrap_err(),
            EngineError::TaskNotStarted(never_started),
            "a never-started resident has no checkpoint"
        );
        assert_eq!(session.state_version(), version, "errors mutate nothing");

        // Extracting the runner salvages its last commit point, exactly
        // like fail() reports for the same task at the same instant on an
        // identically driven twin session.
        let mut twin = sim.session(&prepared);
        assert_eq!(twin.run_until(Cycles::new(500_000)), StepOutcome::Paused);
        let expected = twin
            .fail()
            .into_iter()
            .find(|s| s.prepared.request.id == running)
            .expect("runner is resident on the twin");
        let depth = session.queue_depth();
        let preview = session
            .checkpoint_preview(running)
            .expect("started resident");
        let salvage = session.checkpoint_out(running).expect("started resident");
        assert_eq!(
            preview,
            (salvage.resume_executed, salvage.checkpoint_bytes),
            "the preview prices exactly what extraction salvages"
        );
        assert_eq!(session.queue_depth(), depth - 1);
        assert!(session.running_task().is_none());
        assert_eq!(salvage.resume_executed, expected.resume_executed);
        assert_eq!(salvage.checkpoint_bytes, expected.checkpoint_bytes);
        assert!(salvage.resume_executed > Cycles::ZERO);
        assert!(salvage.checkpoint_bytes > 0);
        assert_eq!(
            session.checkpoint_out(running).unwrap_err(),
            EngineError::TaskRevoked(running)
        );

        // The manifest resumes elsewhere and the task completes exactly
        // once across the two sessions.
        let mut target = sim.session(&[]);
        target
            .inject_salvaged(salvage, Cycles::new(600_000))
            .expect("fresh session");
        assert_eq!(target.run_until(Cycles::MAX), StepOutcome::Drained);
        assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
        let moved = target.finish();
        let stayed = session.finish();
        assert_eq!(moved.records.len(), 1);
        assert_eq!(moved.records[0].id, running);
        assert!(moved.records[0].restore_overhead > Cycles::ZERO);
        assert_eq!(stayed.records.len(), 2);
        assert!(stayed.records.iter().all(|r| r.id != running));
    }
}
