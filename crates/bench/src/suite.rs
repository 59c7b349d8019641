//! The shared multi-policy evaluation harness behind Figures 11, 12, 13 and
//! 15: generate the Section III workloads, replay each one under a set of
//! scheduler configurations, and aggregate the Eyerman metrics, SLA curves
//! and tail latencies relative to the NP-FCFS baseline.
//!
//! The (run × configuration) simulation grid is embarrassingly parallel:
//! every cell is a pure function of the run's workload (derived from a
//! per-run seed, see [`run_seed`]) and the scheduler configuration. The
//! grid fans out over `rayon`'s workers (`RAYON_NUM_THREADS=1` runs it on
//! one thread) and aggregates the cells in a fixed order, so its results
//! are bit-identical to the serial, uncached [`run_grid_reference`] — the
//! determinism regression test under `tests/` asserts exactly that.
//!
//! The multi-NPU cluster serving sweep builds on the same harness plumbing
//! (per-level [`run_seed`] derivation, [`build_predictor`]); see
//! [`crate::cluster`], re-exported here as [`run_cluster_sweep`].

pub use crate::cluster::{run_cluster_sweep, ClusterSweepOptions};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use dnn_models::RNN_MODELS;
use npu_sim::NpuConfig;
use prema_core::plan::plan_cache;
use prema_core::{NpuSimulator, Priority, SchedulerConfig, SimOutcome};
use prema_metrics::{average_metrics, MultiTaskMetrics, Percentiles, SlaCurve, TaskOutcome};
use prema_predictor::{AnalyticalPredictor, EstimateCacheStats};
use prema_workload::generator::{generate_workload, WorkloadConfig};
use prema_workload::prepare::{
    outcomes_of, plan_keys, prepare_workload, prepare_workload_uncached, PreparedWorkload,
};
use prema_workload::seqlen::SeqLenCharacterization;

/// Options controlling a policy-comparison run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Number of independent multi-tasked workloads (the paper averages 25).
    pub runs: usize,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// NPU configuration.
    pub npu: NpuConfig,
}

impl SuiteOptions {
    /// The paper's setup: 25 runs of 8-task workloads.
    pub fn paper() -> Self {
        SuiteOptions {
            runs: 25,
            seed: 2020,
            workload: WorkloadConfig::paper_default(),
            npu: NpuConfig::paper_default(),
        }
    }

    /// A reduced setup for quick runs and unit tests.
    pub fn quick() -> Self {
        SuiteOptions {
            runs: 3,
            ..SuiteOptions::paper()
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("at least one run is required".into());
        }
        self.workload.validate()?;
        self.npu.validate()
    }
}

/// Derives the workload seed for run index `run` from the suite seed.
///
/// Each run draws its workload from an independent SplitMix64-derived seed
/// instead of consuming a single sequential RNG stream, so runs can be
/// generated and simulated in any order — in particular concurrently —
/// while remaining bit-identical to the serial schedule.
pub fn run_seed(base: u64, run: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((run as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions::quick()
    }
}

/// Aggregated results of one scheduler configuration across all runs.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// The configuration's paper-style label (e.g. "Dynamic-PREMA").
    pub label: String,
    /// Average raw metrics across runs.
    pub metrics: MultiTaskMetrics,
    /// ANTT improvement over NP-FCFS (higher is better).
    pub antt_improvement: f64,
    /// STP improvement over NP-FCFS (higher is better).
    pub stp_improvement: f64,
    /// Fairness improvement over NP-FCFS (higher is better).
    pub fairness_improvement: f64,
    /// SLA violation curve pooled over all tasks of all runs (Figure 13).
    pub sla: SlaCurve,
    /// 95th-percentile turnaround of high-priority tasks in milliseconds
    /// (Figure 14's metric, pooled across runs).
    pub high_priority_p95_ms: Option<f64>,
    /// Mean number of preemptions per run.
    pub mean_preemptions: f64,
}

/// Builds the analytical predictor used by the predictor-driven policies,
/// including the profiled sequence-length regression tables for the seq2seq
/// models (Section V-B).
pub fn build_predictor(npu: &NpuConfig, seed: u64) -> AnalyticalPredictor {
    // Mix the seed so the profiling pass and the workload generator do not
    // share a random stream.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut predictor = AnalyticalPredictor::new(npu.clone());
    for model in RNN_MODELS {
        if model.has_dynamic_output_len() {
            let table = SeqLenCharacterization::profile(model, 30, &mut rng).to_table();
            predictor = predictor.with_seq_table(model, table);
        }
    }
    predictor
}

/// Runs the full (run × configuration) simulation grid — every cell is an
/// independent [`SimOutcome`] — over `rayon`'s workers. Cells are laid out
/// run-major with the given configuration order, so
/// `grid[run * configs.len() + c]` is run `run` under `configs[c]`.
pub fn run_grid(configs: &[SchedulerConfig], opts: &SuiteOptions) -> Vec<SimOutcome> {
    run_grid_instrumented(configs, opts).0
}

/// [`run_grid`], additionally returning the hit/miss counters of the
/// estimate cache the grid's prepare phase consulted — the throughput
/// report surfaces them next to the plan cache's.
pub fn run_grid_instrumented(
    configs: &[SchedulerConfig],
    opts: &SuiteOptions,
) -> (Vec<SimOutcome>, EstimateCacheStats) {
    assert!(
        !configs.is_empty(),
        "at least one configuration is required"
    );
    assert!(opts.runs > 0, "at least one run is required");
    let predictor = build_predictor(&opts.npu, opts.seed);

    // Phase 0: generate every run's workload spec (cheap, seeded RNG) and
    // warm the plan cache on the suite's unique (model, batch, seq) keys,
    // compiling each distinct plan exactly once — in parallel — before any
    // run touches the cache. Without this, the parallel prepare phase races
    // first touches of shared keys and compiles duplicates it then discards.
    let specs: Vec<_> = (0..opts.runs)
        .map(|run| {
            let mut rng = StdRng::seed_from_u64(run_seed(opts.seed, run));
            generate_workload(&opts.workload, &mut rng)
        })
        .collect();
    plan_cache::warm(&plan_keys(&specs), &opts.npu, true);

    // Phase 1: compile + estimate every run's workload. Plan compilation is
    // memoized process-wide (see `prema_core::plan::plan_cache`) and fully
    // warmed above, so every lookup here is a cache hit. Phase 2: simulate
    // every (run, config) cell. Each cell is a pure function of its
    // prepared workload and configuration, so execution order cannot affect
    // the results; cells come back run-major.
    let prepared: Vec<PreparedWorkload> = specs
        .par_iter()
        .map(|spec| prepare_workload(spec, &opts.npu, Some(&predictor)))
        .collect();
    let cells: Vec<(usize, usize)> = (0..opts.runs)
        .flat_map(|run| (0..configs.len()).map(move |c| (run, c)))
        .collect();
    let simulate = |&(run, c): &(usize, usize)| -> SimOutcome {
        NpuSimulator::new(opts.npu.clone(), configs[c].clone()).run(&prepared[run].tasks)
    };
    let outcomes = cells.par_iter().map(simulate).collect();
    let estimate_cache = predictor.cache_stats();
    (outcomes, estimate_cache)
}

/// The single-threaded, cache-free reference sweep over the same
/// (run × configuration) grid as [`run_grid`]: one thread, every plan
/// compiled from scratch per run, and the same per-run [`run_seed`]
/// derivation, so the two paths see identical workloads. (Note that
/// per-run derived seeds replaced the original single sequential RNG
/// stream, so generated workloads — and therefore absolute figure numbers —
/// differ from a pre-derivation sweep at the same `--seed`.) The throughput
/// bench and the determinism regression test assert that the fast path's
/// outcomes are bit-identical to this one's.
pub fn run_grid_reference(configs: &[SchedulerConfig], opts: &SuiteOptions) -> Vec<SimOutcome> {
    assert!(
        !configs.is_empty(),
        "at least one configuration is required"
    );
    assert!(opts.runs > 0, "at least one run is required");
    let predictor = build_predictor(&opts.npu, opts.seed);
    let mut outcomes = Vec::with_capacity(opts.runs * configs.len());
    for run in 0..opts.runs {
        let mut rng = StdRng::seed_from_u64(run_seed(opts.seed, run));
        let spec = generate_workload(&opts.workload, &mut rng);
        let prepared = prepare_workload_uncached(&spec, &opts.npu, Some(&predictor));
        for cfg in configs {
            outcomes.push(NpuSimulator::new(opts.npu.clone(), cfg.clone()).run(&prepared.tasks));
        }
    }
    outcomes
}

/// Runs every configuration in `configs` (plus the NP-FCFS baseline) over the
/// same sequence of generated workloads and aggregates the results.
pub fn run_configs(configs: &[SchedulerConfig], opts: &SuiteOptions) -> Vec<ConfigResult> {
    assert!(
        !configs.is_empty(),
        "at least one configuration is required"
    );
    assert!(opts.runs > 0, "at least one run is required");

    // Simulate the grid with the NP-FCFS baseline as column 0.
    let mut grid_configs = Vec::with_capacity(configs.len() + 1);
    grid_configs.push(SchedulerConfig::np_fcfs());
    grid_configs.extend(configs.iter().cloned());
    let grid = run_grid(&grid_configs, opts);
    let stride = grid_configs.len();

    // Aggregate in deterministic (run-outer, config-inner) order, whatever
    // the number of rayon workers.
    let mut per_config_metrics: Vec<Vec<MultiTaskMetrics>> = vec![Vec::new(); configs.len()];
    let mut per_config_outcomes: Vec<Vec<TaskOutcome>> = vec![Vec::new(); configs.len()];
    let mut per_config_hp_ms: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut per_config_preemptions: Vec<u64> = vec![0; configs.len()];
    let mut baseline_metrics: Vec<MultiTaskMetrics> = Vec::new();

    for run in 0..opts.runs {
        let baseline_outcome = &grid[run * stride];
        baseline_metrics.push(MultiTaskMetrics::from_outcomes(&outcomes_of(
            &baseline_outcome.records,
        )));

        for i in 0..configs.len() {
            let outcome = &grid[run * stride + 1 + i];
            collect(
                outcome,
                &opts.npu,
                &mut per_config_metrics[i],
                &mut per_config_outcomes[i],
                &mut per_config_hp_ms[i],
                &mut per_config_preemptions[i],
            );
        }
    }

    let baseline_avg = average_metrics(&baseline_metrics);
    configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let metrics = average_metrics(&per_config_metrics[i]);
            let sla = SlaCurve::sweep(&per_config_outcomes[i], (2..=20).map(|n| n as f64));
            let high_priority_p95_ms = Percentiles::summarize(&per_config_hp_ms[i]).map(|p| p.p95);
            ConfigResult {
                label: cfg.label(),
                antt_improvement: metrics.antt_improvement_over(&baseline_avg),
                stp_improvement: metrics.stp_improvement_over(&baseline_avg),
                fairness_improvement: metrics.fairness_improvement_over(&baseline_avg),
                metrics,
                sla,
                high_priority_p95_ms,
                mean_preemptions: per_config_preemptions[i] as f64 / opts.runs as f64,
            }
        })
        .collect()
}

fn collect(
    outcome: &SimOutcome,
    npu: &NpuConfig,
    metrics: &mut Vec<MultiTaskMetrics>,
    outcomes: &mut Vec<TaskOutcome>,
    hp_ms: &mut Vec<f64>,
    preemptions: &mut u64,
) {
    let run_outcomes = outcomes_of(&outcome.records);
    metrics.push(MultiTaskMetrics::from_outcomes(&run_outcomes));
    outcomes.extend(run_outcomes);
    hp_ms.extend(
        outcome
            .records
            .iter()
            .filter(|r| r.priority == Priority::High)
            .map(|r| npu.cycles_to_millis(r.turnaround())),
    );
    *preemptions += outcome.checkpoint_preemptions + outcome.kill_preemptions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use prema_core::config::{PolicyKind, PreemptionMode};

    #[test]
    fn suite_runs_and_reports_improvements() {
        let opts = SuiteOptions {
            runs: 2,
            seed: 7,
            workload: WorkloadConfig {
                task_count: 4,
                ..WorkloadConfig::paper_default()
            },
            ..SuiteOptions::paper()
        };
        let configs = vec![
            SchedulerConfig::np_fcfs(),
            SchedulerConfig::named(PolicyKind::Prema, PreemptionMode::Dynamic),
        ];
        let results = run_configs(&configs, &opts);
        assert_eq!(results.len(), 2);
        // The baseline compared against itself has improvement ~1.
        assert!((results[0].antt_improvement - 1.0).abs() < 1e-9);
        // PREMA should never be worse than NP-FCFS on ANTT.
        assert!(
            results[1].antt_improvement >= 0.99,
            "{}",
            results[1].antt_improvement
        );
        assert!(!results[1].sla.points().is_empty());
        assert_eq!(results[1].label, "Dynamic-PREMA");
    }

    #[test]
    fn options_presets() {
        assert_eq!(SuiteOptions::paper().runs, 25);
        assert_eq!(SuiteOptions::quick().runs, 3);
        assert_eq!(SuiteOptions::default().runs, 3);
        assert!(SuiteOptions::paper().validate().is_ok());
        assert!(SuiteOptions {
            runs: 0,
            ..SuiteOptions::paper()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn run_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..32).map(|run| run_seed(2020, run)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-run seeds must not collide");
        assert_eq!(run_seed(2020, 5), run_seed(2020, 5));
        assert_ne!(run_seed(2020, 5), run_seed(2021, 5));
    }

    #[test]
    fn parallel_and_serial_grids_are_bit_identical() {
        let opts = SuiteOptions {
            runs: 3,
            seed: 13,
            workload: WorkloadConfig {
                task_count: 4,
                ..WorkloadConfig::paper_default()
            },
            ..SuiteOptions::paper()
        };
        let configs = vec![
            SchedulerConfig::np_fcfs(),
            SchedulerConfig::named(PolicyKind::Prema, PreemptionMode::Dynamic),
        ];
        let parallel = run_grid(&configs, &opts);
        let serial = run_grid_reference(&configs, &opts);
        assert_eq!(parallel, serial);
        // The one-pass record aggregates agree cell-by-cell too (summary()
        // is bit-identical to the two-pass antt()/stp() accessors).
        for (a, b) in parallel.iter().zip(&serial) {
            let (sa, sb) = (a.summary(), b.summary());
            assert_eq!(sa, sb);
            assert_eq!(sa.antt, a.antt());
            assert_eq!(sa.stp, a.stp());
        }
    }
}
