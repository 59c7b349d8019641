//! Section VI-E sensitivity studies: scheduling quantum, token grant scale
//! and batch-size mix. These are the ablation benches called out in
//! DESIGN.md.

use npu_sim::NpuConfig;
use prema_core::SchedulerConfig;
use prema_metrics::TableBuilder;
use prema_workload::generator::WorkloadConfig;

use crate::suite::{run_configs, ConfigResult, SuiteOptions};

/// One sensitivity sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable description of the configuration variation.
    pub label: String,
    /// The PREMA result under that variation.
    pub result: ConfigResult,
}

/// Sweeps the scheduling quantum around the Table II default (0.25 ms).
pub fn quantum_sweep(opts: &SuiteOptions) -> Vec<SweepPoint> {
    [0.1, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|quantum_ms| {
            let mut cfg = SchedulerConfig::paper_default();
            cfg.quantum_ms = quantum_ms;
            let result = run_configs(&[cfg], opts).remove(0);
            SweepPoint {
                label: format!("quantum {quantum_ms} ms"),
                result,
            }
        })
        .collect()
}

/// Sweeps the token grant scale (1/3/9 times the scale factor).
pub fn token_sweep(opts: &SuiteOptions) -> Vec<SweepPoint> {
    [0.5, 1.0, 2.0]
        .into_iter()
        .map(|token_scale| {
            let mut cfg = SchedulerConfig::paper_default();
            cfg.token_scale = token_scale;
            let result = run_configs(&[cfg], opts).remove(0);
            SweepPoint {
                label: format!("token scale {token_scale}"),
                result,
            }
        })
        .collect()
}

/// Compares the single-batch default against mixed batch sizes (1/4/16).
pub fn batch_sweep(base: &SuiteOptions) -> Vec<SweepPoint> {
    [
        ("batch 1", WorkloadConfig::paper_default()),
        ("batch 1/4/16", WorkloadConfig::mixed_batch()),
    ]
    .into_iter()
    .map(|(label, workload)| {
        let opts = SuiteOptions {
            workload,
            ..base.clone()
        };
        let result = run_configs(&[SchedulerConfig::paper_default()], &opts).remove(0);
        SweepPoint {
            label: label.to_string(),
            result,
        }
    })
    .collect()
}

/// Runs all three sweeps and formats the combined report.
pub fn report(npu: &NpuConfig, runs: usize, seed: u64) -> String {
    let opts = SuiteOptions {
        runs,
        seed,
        workload: WorkloadConfig::paper_default(),
        npu: npu.clone(),
    };
    let mut table = TableBuilder::new(vec![
        "variation".into(),
        "ANTT imprv".into(),
        "fairness imprv".into(),
        "STP imprv".into(),
    ])
    .title("Section VI-E: PREMA sensitivity (improvements over NP-FCFS)");
    for point in quantum_sweep(&opts)
        .into_iter()
        .chain(token_sweep(&opts))
        .chain(batch_sweep(&opts))
    {
        table = table.row(vec![
            point.label,
            format!("{:.2}x", point.result.antt_improvement),
            format!("{:.2}x", point.result.fairness_improvement),
            format!("{:.2}x", point.result.stp_improvement),
        ]);
    }
    table.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_cover_their_parameter_ranges() {
        let opts = SuiteOptions {
            runs: 1,
            seed: 5,
            workload: WorkloadConfig {
                task_count: 3,
                ..WorkloadConfig::paper_default()
            },
            ..SuiteOptions::paper()
        };
        assert_eq!(quantum_sweep(&opts).len(), 4);
        assert_eq!(token_sweep(&opts).len(), 3);
        let batches = batch_sweep(&opts);
        assert_eq!(batches.len(), 2);
        for point in batches {
            assert!(point.result.antt_improvement > 0.0);
        }
    }
}
