//! Oracle latency predictor (Section VI-D).
//!
//! The paper compares PREMA against an "oracular PREMA which utilizes each
//! DNN's exact execution time for scheduling". The oracle knows what no real
//! predictor can know: the *actual* time-unrolled output sequence length of
//! every RNN request. [`OraclePredictor`] therefore exposes two levels of
//! knowledge:
//!
//! * [`OraclePredictor::exact_cycles`] — the exact simulated execution time
//!   for a request whose true [`SeqSpec`] is known (what the scheduler uses
//!   in oracle mode).
//! * the [`InferenceTimePredictor`] impl — the best a predictor can do with
//!   only the input length: the exact node-level model evaluated at the mean
//!   output length. This is used for the VI-D correlation study.

use dnn_models::lowering::lower_network;
use dnn_models::{ModelKind, SeqSpec};
use npu_sim::{Cycles, LayerTiming, NpuConfig};

use crate::InferenceTimePredictor;

/// Predictor with perfect knowledge of the simulator's timing model.
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    cfg: NpuConfig,
}

impl OraclePredictor {
    /// Creates the oracle for the given NPU configuration.
    pub fn new(cfg: NpuConfig) -> Self {
        OraclePredictor { cfg }
    }

    /// The exact simulated isolated execution time for a request with a known
    /// sequence specification (the true output length included).
    pub fn exact_cycles(&self, kind: ModelKind, batch: u64, seq: SeqSpec) -> Cycles {
        let network = kind.build(batch, seq);
        lower_network(&network, batch)
            .iter()
            .map(|work| LayerTiming::model(work, &self.cfg).total_cycles())
            .sum()
    }
}

impl InferenceTimePredictor for OraclePredictor {
    fn predict_cycles(&self, kind: ModelKind, batch: u64, input_len: u64) -> Cycles {
        let seq = SeqSpec::for_model(kind, input_len.max(1));
        let seq = if kind.is_rnn() { seq } else { SeqSpec::none() };
        self.exact_cycles(kind, batch, seq)
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    #[test]
    fn exact_cycles_depend_on_the_true_output_length() {
        let oracle = OraclePredictor::new(cfg());
        let short = oracle.exact_cycles(ModelKind::RnnTranslation1, 1, SeqSpec::new(20, 10));
        let long = oracle.exact_cycles(ModelKind::RnnTranslation1, 1, SeqSpec::new(20, 40));
        assert!(long > short);
    }

    #[test]
    fn cnn_prediction_ignores_input_length() {
        let oracle = OraclePredictor::new(cfg());
        assert_eq!(
            oracle.predict_cycles(ModelKind::CnnGoogLeNet, 2, 0),
            oracle.predict_cycles(ModelKind::CnnGoogLeNet, 2, 35)
        );
    }

    #[test]
    fn oracle_is_at_least_as_large_as_the_analytical_estimate() {
        let oracle = OraclePredictor::new(cfg());
        let analytical = crate::AnalyticalPredictor::new(cfg());
        for kind in [ModelKind::CnnAlexNet, ModelKind::CnnMobileNet] {
            assert!(
                oracle.predict_cycles(kind, 1, 0) >= analytical.predict_cycles(kind, 1, 0),
                "{kind}"
            );
        }
    }

    #[test]
    fn name_is_oracle() {
        assert_eq!(OraclePredictor::new(cfg()).name(), "oracle");
    }
}
