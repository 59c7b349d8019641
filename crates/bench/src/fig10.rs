//! Figure 10: per-layer MAC count versus execution time across every layer of
//! the eight evaluation DNNs — the evidence that a MAC-count proxy is a
//! misleading latency predictor on a systolic array.

use dnn_models::lowering::lower_layer;
use dnn_models::{ModelKind, SeqSpec, ALL_EVAL_MODELS};
use npu_sim::{LayerTiming, NpuConfig};
use prema_metrics::{correlation, TableBuilder};

/// One scatter point of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPoint {
    /// The model the layer belongs to.
    pub model: ModelKind,
    /// Layer name.
    pub layer: String,
    /// MAC operations of the layer (batch 1).
    pub macs: u64,
    /// Modelled execution time in microseconds.
    pub execution_us: f64,
    /// Effective MAC throughput (MACs per cycle) — low values are the
    /// red-circled underutilized layers.
    pub effective_macs_per_cycle: f64,
}

/// Computes the scatter points for every GEMM-bearing layer of the eight
/// evaluation models at batch 1.
pub fn run(npu: &NpuConfig) -> Vec<LayerPoint> {
    let mut points = Vec::new();
    for &model in &ALL_EVAL_MODELS {
        let seq = SeqSpec::for_model(model, 20);
        let network = model.build(1, seq);
        for layer in network.layers() {
            if layer.gemm_dims(1).is_none() {
                continue;
            }
            let work = lower_layer(layer, 1);
            let timing = LayerTiming::model(&work, npu);
            points.push(LayerPoint {
                model,
                layer: layer.name().to_string(),
                macs: layer.macs(1),
                execution_us: npu.cycles_to_micros(timing.total_cycles()),
                effective_macs_per_cycle: timing.effective_macs_per_cycle(),
            });
        }
    }
    points
}

/// Summary of the scatter: the MACs-vs-time correlation and the spread of
/// effective throughput (which is what makes the proxy misleading).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Summary {
    /// Pearson correlation between MAC count and execution time.
    pub macs_time_correlation: f64,
    /// Lowest observed effective throughput (MACs/cycle).
    pub min_effective_throughput: f64,
    /// Highest observed effective throughput (MACs/cycle).
    pub max_effective_throughput: f64,
    /// Number of layers measured.
    pub layer_count: usize,
}

/// Summarizes the scatter points.
pub fn summarize(points: &[LayerPoint]) -> Fig10Summary {
    let macs: Vec<f64> = points.iter().map(|p| p.macs as f64).collect();
    let times: Vec<f64> = points.iter().map(|p| p.execution_us).collect();
    Fig10Summary {
        macs_time_correlation: correlation(&macs, &times).unwrap_or(0.0),
        min_effective_throughput: points
            .iter()
            .map(|p| p.effective_macs_per_cycle)
            .fold(f64::INFINITY, f64::min),
        max_effective_throughput: points
            .iter()
            .map(|p| p.effective_macs_per_cycle)
            .fold(0.0, f64::max),
        layer_count: points.len(),
    }
}

/// Formats the Figure 10 report: the most and least efficient layers plus the
/// overall summary.
pub fn report(npu: &NpuConfig) -> (Vec<LayerPoint>, String) {
    let mut points = run(npu);
    let summary = summarize(&points);
    points.sort_by(|a, b| {
        a.effective_macs_per_cycle
            .partial_cmp(&b.effective_macs_per_cycle)
            .expect("throughput is never NaN")
    });
    let mut table = TableBuilder::new(vec![
        "model".into(),
        "layer".into(),
        "MACs".into(),
        "time (us)".into(),
        "MACs/cycle".into(),
    ])
    .title(format!(
        "Figure 10: {} layers, MACs-vs-time correlation {:.2}, effective throughput {:.0}..{:.0} MACs/cycle",
        summary.layer_count,
        summary.macs_time_correlation,
        summary.min_effective_throughput,
        summary.max_effective_throughput,
    ));
    let show: Vec<&LayerPoint> = points
        .iter()
        .take(5)
        .chain(points.iter().rev().take(5))
        .collect();
    for point in show {
        table = table.row(vec![
            point.model.paper_name().to_string(),
            point.layer.clone(),
            point.macs.to_string(),
            format!("{:.1}", point.execution_us),
            format!("{:.0}", point.effective_macs_per_cycle),
        ]);
    }
    (points, table.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_time_is_not_proportional_to_macs() {
        let npu = NpuConfig::paper_default();
        let points = run(&npu);
        assert!(
            points.len() > 100,
            "expected many layers, got {}",
            points.len()
        );
        let summary = summarize(&points);
        // The correlation is far from perfect (this is the point of the
        // figure): the spread in effective throughput spans more than an
        // order of magnitude, so MAC count alone badly mispredicts latency.
        assert!(summary.macs_time_correlation < 0.95);
        assert!(summary.max_effective_throughput > 10.0 * summary.min_effective_throughput);
    }

    #[test]
    fn depthwise_layers_are_among_the_least_efficient() {
        let npu = NpuConfig::paper_default();
        let (points, text) = report(&npu);
        assert!(text.contains("Figure 10"));
        let min_point = points
            .iter()
            .min_by(|a, b| {
                a.effective_macs_per_cycle
                    .partial_cmp(&b.effective_macs_per_cycle)
                    .unwrap()
            })
            .unwrap();
        // The least efficient layer is a MobileNet depthwise or an RNN step,
        // never a large VGG convolution.
        assert_ne!(min_point.model, ModelKind::CnnVggNet);
    }
}
