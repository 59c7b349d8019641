//! Section VI-F: implementation overhead of the PREMA context table, and
//! Section VI-G: storage footprint of checkpointed state.

use dnn_models::{SeqSpec, ALL_EVAL_MODELS};
use npu_sim::{CheckpointModel, NpuConfig};
use prema_core::context_table;
use prema_core::plan::ExecutionPlan;
use prema_metrics::TableBuilder;

/// The Section VI-F / VI-G overhead summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadSummary {
    /// Context-table bits for 16 co-located tasks (the paper's example).
    pub context_table_bits: u64,
    /// Worst-case checkpoint latency in microseconds.
    pub worst_case_checkpoint_us: f64,
    /// Largest per-task checkpoint footprint across the model zoo at batch
    /// 16, in megabytes (Section VI-G talks about hundreds of MBs of
    /// accumulated state across many preemptions; the per-preemption live
    /// state is bounded by the on-chip SRAM).
    pub max_live_state_mib: f64,
}

/// Computes the overhead summary.
pub fn run(npu: &NpuConfig) -> OverheadSummary {
    let checkpoint = CheckpointModel::new(npu);
    let mut max_live_bytes = 0u64;
    for &model in &ALL_EVAL_MODELS {
        let seq = SeqSpec::for_model(model, 20);
        let plan = ExecutionPlan::compile(model, 16, seq, npu);
        let peak = plan
            .layers()
            .flat_map(|l| l.intervals.iter())
            .map(|i| i.live_output_bytes)
            .max()
            .unwrap_or(0);
        max_live_bytes = max_live_bytes.max(peak);
    }
    OverheadSummary {
        context_table_bits: context_table::sram_bits(16),
        worst_case_checkpoint_us: npu.cycles_to_micros(checkpoint.worst_case_checkpoint_cycles()),
        max_live_state_mib: max_live_bytes as f64 / (1024.0 * 1024.0),
    }
}

/// Formats the overhead report.
pub fn report(npu: &NpuConfig) -> (OverheadSummary, String) {
    let summary = run(npu);
    let table = TableBuilder::new(vec!["quantity".into(), "value".into(), "paper".into()])
        .title("Sections VI-F / VI-G: implementation and storage overhead")
        .row(vec![
            "context table SRAM (16 tasks)".into(),
            format!("{} bits", summary.context_table_bits),
            "448 x 16 = 7168 bits".into(),
        ])
        .row(vec![
            "worst-case checkpoint latency".into(),
            format!("{:.1} us", summary.worst_case_checkpoint_us),
            "59 us".into(),
        ])
        .row(vec![
            "largest per-preemption live state".into(),
            format!("{:.1} MiB", summary.max_live_state_mib),
            "bounded by 8 MB UBUF/ACCQ".into(),
        ])
        .build();
    (summary, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_the_paper_figures() {
        let npu = NpuConfig::paper_default();
        let (summary, text) = report(&npu);
        assert_eq!(summary.context_table_bits, 7168);
        assert!(
            summary.worst_case_checkpoint_us > 10.0 && summary.worst_case_checkpoint_us < 100.0
        );
        assert!(summary.max_live_state_mib > 0.1 && summary.max_live_state_mib <= 8.0);
        assert!(text.contains("7168"));
    }
}
