//! The paired A/B sweep behind the fault, migration and partition benches.
//!
//! PREMA's evaluation replays the same seeded workloads under every
//! scheduler; these benches carry that design to the closed-loop cluster.
//! A [`PairedSweep`] names its levels (an MTBF, a straggler severity, a
//! link MTBF), the fault plan each level draws, and two [`Arm`]s — the
//! mechanism and its ablation. For each level [`run_paired`] draws one
//! seeded request stream and then, from the same per-level generator
//! ([`run_seed`](crate::suite::run_seed)`(seed, level)`), the level's fault
//! plan, and serves that identical driving under both arms. Every cell runs
//! through **both** closed-loop drivers: the event-heap loop must be
//! bit-identical to the stepping reference, and the outcome's books must
//! balance: conservation, no duplicate ids, interconnect byte accounting
//! and clean custody. Cells come back level-major, first arm first;
//! their digests fold into the sweep hash ([`sweep_hash`]) the `throughput`
//! baseline gates compare, and [`paired_wins`] counts the levels where the
//! first arm wins by the sweep's own rule.

use std::fmt;

use rand::rngs::StdRng;

use npu_sim::NpuConfig;
use prema_cluster::{
    online_outcome_hash, ClusterFaultPlan, MigrationConfig, OnlineClusterConfig,
    OnlineClusterSimulator, OnlineDispatchPolicy, OnlineOutcome, RecoveryConfig,
};
use prema_core::{PreparedTask, SchedulerConfig};
use prema_workload::FaultSchedule;

use crate::cluster::Streams;
use crate::suite::timed;

/// The options every paired sweep shares, borrowed from its own options.
#[derive(Debug, Clone, Copy)]
pub struct Base<'a> {
    /// Cluster size.
    pub nodes: usize,
    /// Offered load (fraction of cluster capacity).
    pub rho: f64,
    /// RNG seed; per-level request streams and fault plans derive from it.
    pub seed: u64,
    /// Length of each generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// The per-node scheduler.
    pub scheduler: &'a SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: &'a NpuConfig,
    /// Wall-clock repetitions per (cell, driver); the minimum is reported.
    pub repetitions: usize,
}

impl Base<'_> {
    /// Validates the shared options.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("at least one node is required".into());
        }
        if !self.rho.is_finite() || self.rho <= 0.0 {
            return Err("rho must be positive and finite".into());
        }
        if !self.duration_ms.is_finite() || self.duration_ms <= 0.0 {
            return Err("duration must be positive and finite".into());
        }
        if self.repetitions == 0 {
            return Err("at least one repetition is required".into());
        }
        self.npu.validate()?;
        self.scheduler.validate()
    }
}

/// One arm of a paired sweep: how the level's shared driving is served.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The report label (`checkpoint`, `migrate`, `redirect`, ...).
    pub label: &'static str,
    /// How work salvaged from a faulted node is re-dispatched.
    pub recovery: RecoveryConfig,
    /// Deadline-triggered checkpoint migration, when the arm migrates.
    pub migration: Option<MigrationConfig>,
}

/// A sweep of paired cells: everything but the driving loop.
pub trait PairedSweep {
    /// One level of the sweep.
    type Level: Copy + fmt::Debug;
    /// The sweep's own per-cell metrics.
    type Metrics;

    /// The shared options.
    fn base(&self) -> Base<'_>;

    /// Validates the options (including [`Base::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    fn validate(&self) -> Result<(), String>;

    /// The levels, given the stream mix's mean service time.
    fn levels(&self, service_ms: f64) -> Vec<Self::Level>;

    /// The two arms, given the stream mix's mean service time.
    fn arms(&self, service_ms: f64) -> [Arm; 2];

    /// Draws the level's fault plan from the level's generator, which has
    /// already drawn the arrivals.
    fn plan(&self, level: Self::Level, rng: &mut StdRng) -> FaultSchedule;

    /// The cell metrics of both arms of one level, given the level's plan.
    fn metrics(&self, plan: &FaultSchedule, pair: [&OnlineOutcome; 2]) -> [Self::Metrics; 2];

    /// Whether the first arm beat the second at one level.
    fn wins(first: &Self::Metrics, second: &Self::Metrics) -> bool;
}

/// One cell of a paired sweep: a (level, arm) pair measured under both
/// drivers on the level's driving.
#[derive(Debug, Clone)]
pub struct PairedCell<L, M> {
    /// The level.
    pub level: L,
    /// The arm's label.
    pub policy: &'static str,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Total scheduler wakeups (identical under both drivers).
    pub events: u64,
    /// Best event-heap wall clock, seconds.
    pub wall_s: f64,
    /// The deterministic outcome digest (identical under both drivers).
    pub hash: u64,
    /// The sweep's own metrics.
    pub metrics: M,
}

/// The cells a paired sweep produces.
pub type Cells<S> = Vec<PairedCell<<S as PairedSweep>::Level, <S as PairedSweep>::Metrics>>;

/// Runs a paired sweep (see the module docs).
///
/// # Panics
///
/// Panics if the options are invalid, if the two drivers ever diverge, or
/// if a cell's books do not balance.
pub fn run_paired<S: PairedSweep>(sweep: &S) -> Cells<S> {
    if let Err(msg) = sweep.validate() {
        panic!("invalid paired sweep options: {msg}");
    }
    let base = sweep.base();
    let streams = Streams::new(base.npu, base.seed, base.duration_ms);
    let rate = streams.rate(base.rho, base.nodes);
    let arms = sweep.arms(streams.service_ms);
    let mut cells = Vec::new();
    for (index, level) in sweep.levels(streams.service_ms).into_iter().enumerate() {
        let (prepared, mut rng) = streams.level(rate, index);
        let plan = sweep.plan(level, &mut rng);
        let runs = arms.clone().map(|arm| {
            let mut config = OnlineClusterConfig::new(
                base.nodes,
                base.scheduler.clone(),
                OnlineDispatchPolicy::Predictive,
            )
            .with_faults(ClusterFaultPlan::new(plan.clone()).with_recovery(arm.recovery));
            config.migration = arm.migration;
            let online = OnlineClusterSimulator::new(config);
            let (reference, _) = timed(base.repetitions, || online.run_reference(&prepared.tasks));
            let (heap, wall_s) = timed(base.repetitions, || online.run(&prepared.tasks));
            assert_eq!(
                heap, reference,
                "event-heap loop diverged from the stepping reference at {level:?} under {}",
                arm.label
            );
            if let Err(msg) = check_books(&heap, &prepared.tasks) {
                panic!("{msg} at {level:?} under {}", arm.label);
            }
            (heap, wall_s)
        });
        let metrics = sweep.metrics(&plan, [&runs[0].0, &runs[1].0]);
        for ((arm, (heap, wall_s)), metrics) in arms.iter().zip(runs).zip(metrics) {
            cells.push(PairedCell {
                level,
                policy: arm.label,
                requests: prepared.tasks.len(),
                served: heap.served(),
                events: heap.cluster.scheduler_invocations(),
                wall_s,
                hash: online_outcome_hash(&heap),
                metrics,
            });
        }
    }
    cells
}

/// Checks an outcome's books: every generated request is exactly one of
/// served, shed or abandoned (none lost, none counted twice), the custody
/// ledger closed clean, and the interconnect bytes equal the migration
/// log's sum.
///
/// # Errors
///
/// Returns a description of the first imbalance.
fn check_books(outcome: &OnlineOutcome, tasks: &[PreparedTask]) -> Result<(), String> {
    if let Some(error) = &outcome.custody_error {
        return Err(format!("custody reconciliation failed: {error}"));
    }
    let mut accounted: Vec<u64> = outcome
        .cluster
        .merged_records()
        .iter()
        .map(|r| r.id.0)
        .chain(outcome.shed.iter().map(|r| r.id.0))
        .chain(outcome.abandoned.iter().map(|r| r.id.0))
        .collect();
    accounted.sort_unstable();
    let total = accounted.len();
    accounted.dedup();
    if accounted.len() != total {
        return Err("a request was double-counted".into());
    }
    let mut expected: Vec<u64> = tasks.iter().map(|t| t.request.id.0).collect();
    expected.sort_unstable();
    if accounted != expected {
        return Err("task conservation violated".into());
    }
    let logged: u64 = outcome.migration_log.iter().map(|r| r.bytes).sum();
    if outcome.migration_bytes != logged {
        return Err("interconnect byte accounting diverged".into());
    }
    Ok(())
}

/// Folds every cell digest into the sweep-identity digest the baseline
/// gate compares.
pub fn sweep_hash<L, M>(cells: &[PairedCell<L, M>]) -> u64 {
    prema_cluster::fold_hashes(cells.iter().map(|cell| cell.hash))
}

/// Counts the levels where the first arm beats the second by
/// [`PairedSweep::wins`].
pub fn paired_wins<S: PairedSweep>(cells: &[PairedCell<S::Level, S::Metrics>]) -> usize {
    cells
        .chunks(2)
        .filter(|pair| pair.len() == 2 && S::wins(&pair[0].metrics, &pair[1].metrics))
        .count()
}
