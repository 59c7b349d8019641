//! Profile-driven node-level latency prediction (Section V-B).
//!
//! The paper's first proposal for node-level prediction is to profile the
//! average latency of each layer configuration once and bookkeep it for
//! later network-wide predictions — an approach that works on black-box
//! hardware (GPUs, Cloud TPUs) as well as on simulators. [`ProfiledPredictor`]
//! implements that bookkeeping against the `npu-sim` timing model: the first
//! time a layer configuration is seen it is "profiled" (modelled once) and
//! the result is cached keyed by the layer's GEMM dimensions.

use std::cell::RefCell;
use std::collections::HashMap;

use dnn_models::layer::GemmDims;
use dnn_models::lowering::lower_layer;
use dnn_models::{ModelKind, SeqSpec};
use npu_sim::{Cycles, LayerTiming, NpuConfig};

use crate::seqlen::SeqLenTable;
use crate::InferenceTimePredictor;

/// Cache key: a layer is uniquely identified for profiling purposes by the
/// GEMM it lowers to (or `None` for vector-only layers) plus its output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileKey {
    dims: Option<GemmDims>,
    output_bytes: u64,
}

/// Node-level latency predictor that memoizes per-layer profiled latencies.
#[derive(Debug)]
pub struct ProfiledPredictor {
    cfg: NpuConfig,
    seq_tables: HashMap<ModelKind, SeqLenTable>,
    cache: RefCell<HashMap<ProfileKey, Cycles>>,
}

impl ProfiledPredictor {
    /// Creates a predictor for the given NPU configuration.
    pub fn new(cfg: NpuConfig) -> Self {
        ProfiledPredictor {
            cfg,
            seq_tables: HashMap::new(),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Registers the profiled sequence-length regression table for a model.
    pub fn with_seq_table(mut self, kind: ModelKind, table: SeqLenTable) -> Self {
        self.seq_tables.insert(kind, table);
        self
    }

    /// Number of distinct layer configurations profiled so far.
    pub fn profiled_layer_count(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Predicts the output sequence length used when planning RNN inference.
    pub fn predict_output_len(&self, kind: ModelKind, input_len: u64) -> u64 {
        if !kind.is_rnn() {
            return 0;
        }
        match self.seq_tables.get(&kind) {
            Some(table) if !table.is_empty() => table.predict(input_len),
            _ => kind.expected_output_len(input_len),
        }
    }

    fn profile_layer(&self, layer: &dnn_models::Layer, batch: u64) -> Cycles {
        let key = ProfileKey {
            dims: layer.gemm_dims(batch),
            output_bytes: layer.output_bytes(batch),
        };
        if let Some(&cached) = self.cache.borrow().get(&key) {
            return cached;
        }
        let work = lower_layer(layer, batch);
        let cycles = LayerTiming::model(&work, &self.cfg).total_cycles();
        self.cache.borrow_mut().insert(key, cycles);
        cycles
    }
}

impl InferenceTimePredictor for ProfiledPredictor {
    fn predict_cycles(&self, kind: ModelKind, batch: u64, input_len: u64) -> Cycles {
        let seq = if kind.is_rnn() {
            SeqSpec::new(
                input_len.max(1),
                self.predict_output_len(kind, input_len.max(1)),
            )
        } else {
            SeqSpec::none()
        };
        let network = kind.build(batch, seq);
        network
            .layers()
            .iter()
            .map(|layer| self.profile_layer(layer, batch))
            .sum()
    }

    fn name(&self) -> &'static str {
        "profiled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::AnalyticalPredictor;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    #[test]
    fn caches_repeated_layer_configurations() {
        let predictor = ProfiledPredictor::new(cfg());
        let _ = predictor.predict_cycles(ModelKind::CnnVggNet, 1, 0);
        let profiled_once = predictor.profiled_layer_count();
        // VGG-16 has 21 layers but many share configurations? Each conv differs,
        // so the cache holds roughly one entry per distinct layer.
        assert!(profiled_once > 10 && profiled_once <= 21);
        let _ = predictor.predict_cycles(ModelKind::CnnVggNet, 1, 0);
        assert_eq!(predictor.profiled_layer_count(), profiled_once);
    }

    #[test]
    fn rnn_unrolled_steps_share_profiles() {
        let predictor = ProfiledPredictor::new(cfg());
        let _ = predictor.predict_cycles(ModelKind::RnnSentiment, 1, 40);
        // 80 unrolled LSTM nodes collapse to two distinct configurations
        // (layer 0 and layer 1) plus the classifier.
        assert!(predictor.profiled_layer_count() <= 4);
    }

    #[test]
    fn profiled_prediction_is_close_to_but_above_analytical() {
        let c = cfg();
        let profiled = ProfiledPredictor::new(c.clone());
        let analytical = AnalyticalPredictor::new(c);
        for kind in [ModelKind::CnnAlexNet, ModelKind::CnnGoogLeNet] {
            let p = profiled.predict_cycles(kind, 4, 0).get() as f64;
            let a = analytical.predict_cycles(kind, 4, 0).get() as f64;
            // The profiled model includes vector-unit and lead-in effects the
            // analytical model ignores, so it is somewhat larger but stays in
            // the same regime.
            assert!(p >= a, "{kind}: profiled {p} < analytical {a}");
            assert!(p < 1.6 * a, "{kind}: profiled {p} vs analytical {a}");
        }
    }

    #[test]
    fn respects_registered_seq_tables() {
        let table = SeqLenTable::from_samples([(30, 60)]);
        let predictor = ProfiledPredictor::new(cfg()).with_seq_table(ModelKind::RnnSpeech, table);
        assert_eq!(predictor.predict_output_len(ModelKind::RnnSpeech, 30), 60);
        assert_eq!(predictor.predict_output_len(ModelKind::CnnAlexNet, 30), 0);
    }

    #[test]
    fn name_is_profiled() {
        assert_eq!(ProfiledPredictor::new(cfg()).name(), "profiled");
    }
}
