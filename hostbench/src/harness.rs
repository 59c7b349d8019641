//! Set-up, measured passes and per-cell checks of each workload, driven
//! from one thread through the layers' public entry points.
//!
//! A *cell* is one call into the simulator plus its metrics summary:
//! `NpuSimulator::run` + `MultiTaskMetrics` for paper-grid,
//! `OnlineClusterSimulator::run` + `ClusterMetrics` for the cluster
//! workloads. A *pass* runs every cell of the workload once.

use std::time::Instant;

use dnn_models::RNN_MODELS;
use npu_sim::NpuConfig;
use prema_cluster::{
    online_outcome_hash, ClusterFaultPlan, ClusterMetrics, CustodyConfig, MigrationConfig,
    OnlineClusterConfig, OnlineClusterSimulator, OnlineDispatchPolicy, OnlineOutcome,
};
use prema_core::config::{PolicyKind, PreemptionMode};
use prema_core::plan::plan_cache;
use prema_core::{NpuSimulator, PreemptionMechanism, PreparedTask, SchedulerConfig, SimOutcome};
use prema_metrics::{MultiTaskMetrics, TaskOutcome};
use prema_predictor::AnalyticalPredictor;
use prema_workload::prepare::{outcomes_of, plan_keys};
use prema_workload::{prepare_workload, SeqLenCharacterization};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, Fnv, Workload};
use crate::spans::SpanLog;
use crate::stats;
use crate::tally::Tally;

/// The 14 scheduler configurations of Figs 11-12: the six policies
/// non-preemptive, then HPF, TOKEN, SJF and PREMA under static CHECKPOINT
/// and under Dynamic preemption.
pub fn grid_configs() -> Vec<SchedulerConfig> {
    let preemptive = [
        PolicyKind::Hpf,
        PolicyKind::Token,
        PolicyKind::Sjf,
        PolicyKind::Prema,
    ];
    let mut configs: Vec<SchedulerConfig> = PolicyKind::ALL
        .iter()
        .map(|&policy| SchedulerConfig::named(policy, PreemptionMode::NonPreemptive))
        .collect();
    for mode in [
        PreemptionMode::Static(PreemptionMechanism::Checkpoint),
        PreemptionMode::Dynamic,
    ] {
        configs.extend(
            preemptive
                .iter()
                .map(|&policy| SchedulerConfig::named(policy, mode)),
        );
    }
    configs
}

/// fleet-1024's dispatch policies, one cell each. Their labels suffix the
/// per-policy cluster metrics on every workload.
pub const FLEET_POLICIES: [OnlineDispatchPolicy; 3] = [
    OnlineDispatchPolicy::ShortestQueue,
    OnlineDispatchPolicy::LeastWork,
    OnlineDispatchPolicy::Predictive,
];

/// The simulators a pass calls into.
pub enum Cells {
    /// paper-grid: every prepared batch under every engine configuration.
    Grid {
        /// The prepared batches.
        batches: Vec<Vec<PreparedTask>>,
        /// One engine per configuration.
        engines: Vec<NpuSimulator>,
    },
    /// A cluster workload: each cell replays one prepared stream on one
    /// closed-loop cluster.
    Cluster {
        /// The prepared streams.
        streams: Vec<Vec<PreparedTask>>,
        /// Each cell's stream index and cluster.
        clusters: Vec<(usize, OnlineClusterSimulator)>,
    },
}

/// Host time and work of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupReport {
    /// Input generation, seconds.
    pub generate_s: f64,
    /// Predictor construction, seconds.
    pub predictor_s: f64,
    /// Plan warm-up, seconds.
    pub warm_s: f64,
    /// `prepare_workload` over every batch, seconds.
    pub prepare_s: f64,
    /// Plans the warm-up compiled.
    pub plans_compiled: usize,
    /// Resident-set growth across the warm-up, MiB.
    pub warm_rss_mib: f64,
    /// Estimate-cache hits during preparation.
    pub estimate_hits: u64,
    /// Estimate-cache misses during preparation.
    pub estimate_misses: u64,
}

/// A workload ready to run: its prepared cells and how it got there.
pub struct Setup {
    /// The NPU every node models.
    pub npu: NpuConfig,
    /// The seed's input digest.
    pub input_digest: u64,
    /// The cells a pass runs.
    pub cells: Cells,
    /// The set-up's host time and work.
    pub report: SetupReport,
}

/// One cell's result.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// An engine run and its summary.
    Engine(SimOutcome, MultiTaskMetrics),
    /// A closed-loop cluster run and its summary.
    Cluster(Box<OnlineOutcome>, Box<ClusterMetrics>),
}

/// The PREMA predictor: Algorithm 1 plus a profiled sequence-length table
/// for every RNN with a data-dependent output length.
fn build_predictor(npu: &NpuConfig, seed: u64) -> AnalyticalPredictor {
    let mut rng = StdRng::seed_from_u64(inputs::mix(seed, u64::MAX));
    let mut predictor = AnalyticalPredictor::new(npu.clone());
    for model in RNN_MODELS {
        if model.has_dynamic_output_len() {
            let table = SeqLenCharacterization::profile(model, 30, &mut rng).to_table();
            predictor = predictor.with_seq_table(model, table);
        }
    }
    predictor
}

/// Everything before the first timed cell: input generation, predictor
/// build, plan warm-up (one thread) and `prepare_workload`. Expects an
/// empty plan cache.
pub fn setup(workload: Workload, seed: u64, spans: &mut SpanLog) -> Result<Setup, String> {
    let npu = NpuConfig::paper_default();
    spans.enter("setup", 0);
    let (inputs, generate_s) =
        spans.time("workload.generate", 0, || inputs::generate(workload, seed));
    let (predictor, predictor_s) = spans.time("predictor.build", 0, || build_predictor(&npu, seed));
    let rss_before = stats::self_status_mib("VmRSS")?;
    let (plans_compiled, warm_s) = spans.time("plan.warm", 0, || {
        plan_cache::warm(&plan_keys(&inputs.specs), &npu, false)
    });
    let warm_rss_mib = stats::self_status_mib("VmRSS")? - rss_before;
    let (batches, prepare_s) = spans.time("workload.prepare", 0, || {
        inputs
            .specs
            .iter()
            .map(|spec| prepare_workload(spec, &npu, Some(&predictor)).tasks)
            .collect::<Vec<_>>()
    });
    let cells = match workload {
        Workload::PaperGrid => Cells::Grid {
            batches,
            engines: grid_configs()
                .into_iter()
                .map(|config| NpuSimulator::new(npu.clone(), config))
                .collect(),
        },
        Workload::Fleet => Cells::Cluster {
            streams: batches,
            clusters: FLEET_POLICIES
                .into_iter()
                .map(|dispatch| {
                    let config = OnlineClusterConfig::new(
                        inputs::FLEET_NODES,
                        SchedulerConfig::np_fcfs(),
                        dispatch,
                    );
                    (0, OnlineClusterSimulator::new(config))
                })
                .collect(),
        },
        Workload::Storm => Cells::Cluster {
            streams: batches,
            clusters: inputs
                .faults
                .iter()
                .enumerate()
                .map(|(stream, faults)| {
                    let custody = CustodyConfig::redirect()
                        .with_timeout_ms(inputs::STORM_DELIVERY_TIMEOUT_MS);
                    let config = OnlineClusterConfig::new(
                        inputs::STORM_NODES,
                        SchedulerConfig::paper_default(),
                        OnlineDispatchPolicy::Predictive,
                    )
                    .with_work_stealing()
                    .with_admission(inputs::STORM_ADMISSION_P99_MS)
                    .with_faults(ClusterFaultPlan::new(faults.clone()))
                    .with_migration(
                        MigrationConfig::new(inputs::STORM_MIGRATION_SLA_MS).with_custody(custody),
                    );
                    (stream, OnlineClusterSimulator::new(config))
                })
                .collect(),
        },
    };
    spans.exit();
    let estimates = predictor.cache_stats();
    Ok(Setup {
        npu,
        input_digest: inputs.digest(),
        cells,
        report: SetupReport {
            generate_s,
            predictor_s,
            warm_s,
            prepare_s,
            plans_compiled,
            warm_rss_mib,
            estimate_hits: estimates.hits,
            estimate_misses: estimates.misses,
        },
    })
}

impl Setup {
    /// Cells per pass.
    pub fn cell_count(&self) -> usize {
        match &self.cells {
            Cells::Grid { batches, engines } => batches.len() * engines.len(),
            Cells::Cluster { clusters, .. } => clusters.len(),
        }
    }

    /// Simulated requests one pass replays (requests x cells).
    pub fn tasks_per_pass(&self) -> usize {
        match &self.cells {
            Cells::Grid { batches, engines } => {
                batches.iter().map(Vec::len).sum::<usize>() * engines.len()
            }
            Cells::Cluster { streams, clusters } => clusters
                .iter()
                .map(|(stream, _)| streams[*stream].len())
                .sum(),
        }
    }

    /// Each cell's label, in pass order: the engine configuration for
    /// paper-grid, the dispatch policy for the cluster workloads.
    pub fn cell_labels(&self) -> Vec<String> {
        match &self.cells {
            Cells::Grid { batches, engines } => (0..batches.len())
                .flat_map(|_| engines.iter().map(|e| e.scheduler_config().label()))
                .collect(),
            Cells::Cluster { clusters, .. } => clusters
                .iter()
                .map(|(_, c)| c.config().dispatch.label().to_string())
                .collect(),
        }
    }

    /// Runs every cell once with tracing off and returns the pass's host
    /// time with the outcomes.
    pub fn run_pass(&self) -> (f64, Vec<CellOutcome>) {
        let mut outcomes = Vec::with_capacity(self.cell_count());
        let start = Instant::now();
        match &self.cells {
            Cells::Grid { batches, engines } => {
                for tasks in batches {
                    for engine in engines {
                        let outcome = engine.run(tasks);
                        let summary =
                            MultiTaskMetrics::from_outcomes(&outcomes_of(&outcome.records));
                        outcomes.push(CellOutcome::Engine(outcome, summary));
                    }
                }
            }
            Cells::Cluster { streams, clusters } => {
                for (stream, cluster) in clusters {
                    let outcome = cluster.run(&streams[*stream]);
                    let summary = ClusterMetrics::from_online(&outcome, &self.npu);
                    outcomes.push(CellOutcome::Cluster(Box::new(outcome), Box::new(summary)));
                }
            }
        }
        (start.elapsed().as_secs_f64(), outcomes)
    }

    /// Runs every cell once through the `run_traced` entry points with a
    /// counting sink, inside spans: `engine.run` / `cluster.run` around the
    /// simulation and `metrics.summarize` around the summary, all nested in
    /// one `pass` span. Returns the pass's host time, the outcomes, and
    /// each cell's tally.
    pub fn run_traced_pass(&self, spans: &mut SpanLog) -> (f64, Vec<CellOutcome>, Vec<Tally>) {
        let mut outcomes = Vec::with_capacity(self.cell_count());
        let mut tallies = Vec::with_capacity(self.cell_count());
        spans.enter("pass", 0);
        let mut cell = 0u64;
        match &self.cells {
            Cells::Grid { batches, engines } => {
                for tasks in batches {
                    for engine in engines {
                        let ((outcome, tally), _) = spans.time("engine.run", cell, || {
                            engine.run_traced(tasks, Tally::default())
                        });
                        let (summary, _) = spans.time("metrics.summarize", cell, || {
                            MultiTaskMetrics::from_outcomes(&outcomes_of(&outcome.records))
                        });
                        outcomes.push(CellOutcome::Engine(outcome, summary));
                        tallies.push(tally);
                        cell += 1;
                    }
                }
            }
            Cells::Cluster { streams, clusters } => {
                for (stream, cluster) in clusters {
                    let tasks = &streams[*stream];
                    let ((outcome, tally), _) = spans.time("cluster.run", cell, || {
                        cluster.run_traced(tasks, Tally::default())
                    });
                    let (summary, _) = spans.time("metrics.summarize", cell, || {
                        ClusterMetrics::from_online(&outcome, &self.npu)
                    });
                    outcomes.push(CellOutcome::Cluster(Box::new(outcome), Box::new(summary)));
                    tallies.push(tally);
                    cell += 1;
                }
            }
        }
        let wall = spans.exit();
        (wall, outcomes, tallies)
    }

    /// The tasks cell `cell` simulates.
    pub fn cell_tasks(&self, cell: usize) -> &[PreparedTask] {
        match &self.cells {
            Cells::Grid { batches, engines } => &batches[cell / engines.len()],
            Cells::Cluster { streams, clusters } => &streams[clusters[cell].0],
        }
    }

    /// Checks one cell's outcome: an engine run returns exactly one record
    /// per task; a cluster run accounts for every generated task exactly
    /// once as served, shed or abandoned, and closes its custody ledger.
    pub fn check_cell(&self, cell: usize, outcome: &CellOutcome) -> Result<(), String> {
        let mut expected: Vec<u64> = self
            .cell_tasks(cell)
            .iter()
            .map(|t| t.request.id.0)
            .collect();
        expected.sort_unstable();
        let mut seen: Vec<u64> = match outcome {
            CellOutcome::Engine(run, _) => run.records.iter().map(|r| r.id.0).collect(),
            CellOutcome::Cluster(run, _) => {
                if let Some(error) = &run.custody_error {
                    return Err(format!("cell {cell}: {error}"));
                }
                run.cluster
                    .merged_records()
                    .iter()
                    .map(|r| r.id.0)
                    .chain(run.shed.iter().map(|r| r.id.0))
                    .chain(run.abandoned.iter().map(|r| r.id.0))
                    .collect()
            }
        };
        seen.sort_unstable();
        if seen != expected {
            let unique = {
                let mut ids = seen.clone();
                ids.dedup();
                ids.len()
            };
            return Err(format!(
                "cell {cell}: {} outcome entries ({unique} distinct) for {} tasks",
                seen.len(),
                expected.len()
            ));
        }
        Ok(())
    }

    /// Replays every [`inputs::GRID_REFERENCE_EVERY`]-th paper-grid batch
    /// through the step-every-quantum reference engine and returns the
    /// cells whose outcome differs from `outcomes` (none for the cluster
    /// workloads).
    pub fn reference_mismatches(&self, outcomes: &[CellOutcome]) -> Vec<usize> {
        let Cells::Grid { batches, engines } = &self.cells else {
            return Vec::new();
        };
        let mut mismatches = Vec::new();
        for b in (0..batches.len()).step_by(inputs::GRID_REFERENCE_EVERY) {
            for (e, engine) in engines.iter().enumerate() {
                let cell = b * engines.len() + e;
                let reference = engine.run_reference(&batches[b]);
                match &outcomes[cell] {
                    CellOutcome::Engine(fast, _) if *fast == reference => {}
                    _ => mismatches.push(cell),
                }
            }
        }
        mismatches
    }
}

/// Differences between a cell's tally and its outcome's own counters:
/// engine preemptions and skipped quanta over every node; and for a
/// cluster, its steals, sheds, recoveries, fault windows, migrations,
/// transfer failures and redirects, with dispatch decisions = requests +
/// recovery re-dispatches.
pub fn reconcile(outcome: &CellOutcome, tally: &Tally, requests: usize) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut expect = |what: &str, counted: u64, booked: u64| {
        if counted != booked {
            diffs.push(format!(
                "{what}: sink counted {counted}, outcome says {booked}"
            ));
        }
    };
    let engine_runs: Vec<&SimOutcome> = match outcome {
        CellOutcome::Engine(run, _) => vec![run],
        CellOutcome::Cluster(run, _) => run.cluster.node_outcomes.iter().collect(),
    };
    let sum = |f: fn(&SimOutcome) -> u64| engine_runs.iter().map(|run| f(run)).sum::<u64>();
    expect(
        "preemptions",
        tally.preemptions,
        sum(|r| r.checkpoint_preemptions + r.kill_preemptions),
    );
    expect(
        "quanta skipped",
        tally.quanta_skipped,
        sum(|r| r.quanta_skipped),
    );
    if let CellOutcome::Cluster(run, _) = outcome {
        expect("steals", tally.steals, run.steals);
        expect("sheds", tally.sheds, run.shed.len() as u64);
        expect("recoveries", tally.recoveries, run.recoveries);
        expect("crashes", tally.crashes, run.crashes);
        expect("freezes", tally.freezes, run.freezes);
        expect("degrades", tally.degrades, run.degrades);
        expect("migrations", tally.migrations, run.migrations);
        expect(
            "migration bytes",
            tally.migration_bytes,
            run.migration_bytes,
        );
        expect(
            "transfer failures",
            tally.transfer_failures,
            run.transfer_failures,
        );
        expect("redirects", tally.redirects, run.redirects);
        expect(
            "dispatch decisions",
            tally.dispatch_decisions,
            requests as u64 + run.recoveries,
        );
    }
    diffs
}

/// A stable digest of one cell's simulated outcome: every engine record
/// for paper-grid, `online_outcome_hash` for a cluster.
pub fn outcome_digest(outcome: &CellOutcome) -> u64 {
    match outcome {
        CellOutcome::Engine(run, _) => {
            let mut digest = Fnv::default();
            digest.words(&[
                run.makespan.get(),
                run.scheduler_invocations,
                run.checkpoint_preemptions,
                run.kill_preemptions,
                run.drain_decisions,
            ]);
            for r in &run.records {
                digest.words(&[
                    r.id.0,
                    r.first_start.get(),
                    r.completion.get(),
                    r.preemption_count,
                    r.kill_restarts,
                    r.checkpoint_overhead.get(),
                    r.restore_overhead.get(),
                ]);
            }
            digest.finish()
        }
        CellOutcome::Cluster(run, _) => online_outcome_hash(run),
    }
}

/// The simulated results of one labelled group of cells. These are
/// outputs: a change that only speeds up the simulator leaves every one
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedSummary {
    /// The configuration or dispatch policy.
    pub label: String,
    /// Mean ANTT over the group's cells.
    pub antt: f64,
    /// Mean STP over the group's cells.
    pub stp: f64,
    /// 99th-percentile turnaround over every served task, ms.
    pub p99_ms: f64,
    /// Share of tasks (abandoned ones included) finishing within 10x their
    /// isolated time.
    pub sla_met: f64,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests abandoned after their retry budget.
    pub abandoned: usize,
}

/// Groups a pass's outcomes by cell label, in first-appearance order.
pub fn summarize(setup: &Setup, outcomes: &[CellOutcome]) -> Vec<SimulatedSummary> {
    let labels = setup.cell_labels();
    let mut order: Vec<&str> = Vec::new();
    for label in &labels {
        if !order.contains(&label.as_str()) {
            order.push(label);
        }
    }
    order
        .into_iter()
        .map(|label| {
            let group: Vec<&CellOutcome> = labels
                .iter()
                .zip(outcomes)
                .filter(|(l, _)| l.as_str() == label)
                .map(|(_, o)| o)
                .collect();
            let n = group.len() as f64;
            let mut antt = 0.0;
            let mut stp = 0.0;
            let mut turnaround_ms = Vec::new();
            let mut tasks: Vec<TaskOutcome> = Vec::new();
            let (mut shed, mut abandoned) = (0, 0);
            for outcome in group {
                let (records, summary_antt, summary_stp) = match outcome {
                    CellOutcome::Engine(run, m) => (run.records.clone(), m.antt, m.stp),
                    CellOutcome::Cluster(run, m) => {
                        shed += run.shed.len();
                        abandoned += run.abandoned.len();
                        (run.cluster.merged_records(), m.antt, m.stp)
                    }
                };
                antt += summary_antt;
                stp += summary_stp;
                turnaround_ms.extend(
                    records
                        .iter()
                        .map(|r| setup.npu.cycles_to_millis(r.turnaround())),
                );
                tasks.extend(outcomes_of(&records));
            }
            let met = tasks.iter().filter(|t| t.ntt() <= 10.0).count();
            SimulatedSummary {
                label: label.to_string(),
                antt: antt / n,
                stp: stp / n,
                p99_ms: stats::percentile_permille(&turnaround_ms, 990).unwrap_or(0.0),
                sla_met: met as f64 / (tasks.len() + abandoned).max(1) as f64,
                shed,
                abandoned,
            }
        })
        .collect()
}
