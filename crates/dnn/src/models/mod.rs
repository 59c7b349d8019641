//! The model zoo: the eight DNNs of the PREMA evaluation (Section III) plus
//! ResNet-50 (used by the Figure 1 co-location experiment).
//!
//! | Paper name | [`ModelKind`] | Topology |
//! |---|---|---|
//! | CNN-AN | [`ModelKind::CnnAlexNet`] | AlexNet |
//! | CNN-GN | [`ModelKind::CnnGoogLeNet`] | GoogLeNet (Inception v1) |
//! | CNN-VN | [`ModelKind::CnnVggNet`] | VGG-16 |
//! | CNN-MN | [`ModelKind::CnnMobileNet`] | MobileNet v1 |
//! | RNN-SA | [`ModelKind::RnnSentiment`] | 2-layer LSTM sentiment analysis |
//! | RNN-MT1 | [`ModelKind::RnnTranslation1`] | 4+4-layer LSTM seq2seq (English→German) |
//! | RNN-MT2 | [`ModelKind::RnnTranslation2`] | 4+4-layer LSTM seq2seq (English→Korean) |
//! | RNN-ASR | [`ModelKind::RnnSpeech`] | Listen-Attend-Spell speech recognition |
//! | — | [`ModelKind::ResNet50`] | ResNet-50, used in Figure 1 only |
//!
//! CNN topologies are statically shaped; RNN topologies are time-unrolled at
//! build time according to a [`SeqSpec`] (Figure 8 of the paper).
//!
//! Each model has one builder, which pushes its layers into a [`LayerSink`]
//! with `format_args!` names. [`ModelKind::build`] runs it into a named
//! [`Network`]; [`ModelKind::shapes`] runs the same builder into a
//! [`LayerShapes`], which keeps each distinct layer shape once and formats
//! no name.

mod alexnet;
mod googlenet;
mod mobilenet;
mod resnet;
mod rnn_asr;
mod rnn_mt;
mod rnn_sa;
mod vggnet;

pub(crate) mod builders;

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::network::{LayerShapes, LayerSink, Network};

/// Sequence-length specification for time-unrolled RNN models.
///
/// CNNs ignore the specification entirely ([`SeqSpec::none`]). For RNNs the
/// input length is known statically before inference starts (it is the length
/// of the request's input sentence / audio clip), while the output length is
/// the dynamically determined number of unrolled decoder steps — the quantity
/// PREMA's regression model predicts (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SeqSpec {
    /// Input sequence length (tokens / audio frames), statically known.
    pub input_len: u64,
    /// Output sequence length (decoder steps), input-data dependent.
    pub output_len: u64,
}

impl SeqSpec {
    /// The empty specification used by CNNs.
    pub fn none() -> Self {
        SeqSpec {
            input_len: 0,
            output_len: 0,
        }
    }

    /// Creates a specification with explicit input and output lengths.
    pub fn new(input_len: u64, output_len: u64) -> Self {
        SeqSpec {
            input_len,
            output_len,
        }
    }

    /// Builds the specification a given model would *expect* for an input of
    /// `input_len`, using the deterministic mean input→output relationship of
    /// Figure 9 (no sampling noise). CNNs return [`SeqSpec::none`].
    pub fn for_model(kind: ModelKind, input_len: u64) -> Self {
        if !kind.is_rnn() {
            return SeqSpec::none();
        }
        SeqSpec {
            input_len,
            output_len: kind.expected_output_len(input_len),
        }
    }
}

impl Default for SeqSpec {
    fn default() -> Self {
        SeqSpec::none()
    }
}

/// The networks available in the model zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelKind {
    /// CNN-AN: AlexNet.
    CnnAlexNet,
    /// CNN-GN: GoogLeNet (Inception v1).
    CnnGoogLeNet,
    /// CNN-VN: VGG-16.
    CnnVggNet,
    /// CNN-MN: MobileNet v1.
    CnnMobileNet,
    /// RNN-SA: LSTM sentiment analysis (linear input→output relationship).
    RnnSentiment,
    /// RNN-MT1: LSTM seq2seq machine translation, English→German.
    RnnTranslation1,
    /// RNN-MT2: LSTM seq2seq machine translation, English→Korean.
    RnnTranslation2,
    /// RNN-ASR: Listen-Attend-Spell automatic speech recognition.
    RnnSpeech,
    /// ResNet-50, used by the Figure 1 co-location experiment.
    ResNet50,
}

/// The eight DNNs used throughout the paper's evaluation (Figures 5, 6, 10,
/// 11, 12, 13, 14, 15).
pub const ALL_EVAL_MODELS: [ModelKind; 8] = [
    ModelKind::CnnAlexNet,
    ModelKind::CnnGoogLeNet,
    ModelKind::CnnVggNet,
    ModelKind::CnnMobileNet,
    ModelKind::RnnSentiment,
    ModelKind::RnnTranslation1,
    ModelKind::RnnTranslation2,
    ModelKind::RnnSpeech,
];

/// The four CNN models of the evaluation.
pub const CNN_MODELS: [ModelKind; 4] = [
    ModelKind::CnnAlexNet,
    ModelKind::CnnGoogLeNet,
    ModelKind::CnnVggNet,
    ModelKind::CnnMobileNet,
];

/// The four RNN models of the evaluation.
pub const RNN_MODELS: [ModelKind; 4] = [
    ModelKind::RnnSentiment,
    ModelKind::RnnTranslation1,
    ModelKind::RnnTranslation2,
    ModelKind::RnnSpeech,
];

impl ModelKind {
    /// The short name the paper uses in figures ("CNN-AN", "RNN-MT1", ...).
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::CnnAlexNet => "CNN-AN",
            ModelKind::CnnGoogLeNet => "CNN-GN",
            ModelKind::CnnVggNet => "CNN-VN",
            ModelKind::CnnMobileNet => "CNN-MN",
            ModelKind::RnnSentiment => "RNN-SA",
            ModelKind::RnnTranslation1 => "RNN-MT1",
            ModelKind::RnnTranslation2 => "RNN-MT2",
            ModelKind::RnnSpeech => "RNN-ASR",
            ModelKind::ResNet50 => "ResNet",
        }
    }

    /// Whether the model is a time-unrolled recurrent network.
    pub fn is_rnn(self) -> bool {
        matches!(
            self,
            ModelKind::RnnSentiment
                | ModelKind::RnnTranslation1
                | ModelKind::RnnTranslation2
                | ModelKind::RnnSpeech
        )
    }

    /// Whether the output sequence length is a non-linear (input-data
    /// dependent) function of the input length, requiring the profile-driven
    /// regression model of Section V-B.
    pub fn has_dynamic_output_len(self) -> bool {
        matches!(
            self,
            ModelKind::RnnTranslation1 | ModelKind::RnnTranslation2 | ModelKind::RnnSpeech
        )
    }

    /// The range of input sequence lengths the application is profiled over
    /// (x-axes of Figure 9). CNNs return `(0, 0)`.
    pub fn input_len_range(self) -> (u64, u64) {
        match self {
            ModelKind::RnnSentiment => (5, 50),
            ModelKind::RnnTranslation1 | ModelKind::RnnTranslation2 => (5, 50),
            ModelKind::RnnSpeech => (20, 100),
            _ => (0, 0),
        }
    }

    /// The mean output sequence length for a given input length, i.e. the
    /// deterministic part of the characterization graphs of Figure 9.
    ///
    /// * RNN-SA: output length equals input length (linear, Figure 8(b)).
    /// * RNN-MT1 (English→German): German sentences are slightly longer.
    /// * RNN-MT2 (English→Korean): Korean sentences are shorter.
    /// * RNN-ASR: text output is much shorter than the audio-frame input.
    pub fn expected_output_len(self, input_len: u64) -> u64 {
        let out = match self {
            ModelKind::RnnSentiment => input_len as f64,
            ModelKind::RnnTranslation1 => 1.15 * input_len as f64,
            ModelKind::RnnTranslation2 => 0.80 * input_len as f64,
            ModelKind::RnnSpeech => 0.45 * input_len as f64,
            _ => 0.0,
        };
        (out.round() as u64).max(if self.is_rnn() { 1 } else { 0 })
    }

    /// Builds this model's network, its named layers in execution order,
    /// at the given batch size and (for RNNs) sequence specification.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, or if an RNN model is built with a zero
    /// input or output sequence length.
    pub fn build(self, batch: u64, seq: SeqSpec) -> Network {
        self.push_layers(batch, seq, Network::new)
    }

    /// The same layers as [`ModelKind::build`], as each distinct shape once
    /// plus the execution order, without naming any layer. This is what
    /// plan compilation and Algorithm 1 read.
    ///
    /// # Panics
    ///
    /// As [`ModelKind::build`].
    pub fn shapes(self, batch: u64, seq: SeqSpec) -> LayerShapes {
        self.push_layers(batch, seq, |_| LayerShapes::default())
    }

    /// Runs this model's builder into the sink `new_sink` makes from the
    /// network name.
    fn push_layers<S: LayerSink>(
        self,
        batch: u64,
        seq: SeqSpec,
        new_sink: impl FnOnce(&'static str) -> S,
    ) -> S {
        assert!(batch > 0, "batch size must be non-zero");
        if self.is_rnn() {
            assert!(
                seq.input_len > 0 && seq.output_len > 0,
                "RNN models require non-zero sequence lengths"
            );
        }
        match self {
            ModelKind::CnnAlexNet => alexnet::build(new_sink("alexnet")),
            ModelKind::CnnGoogLeNet => googlenet::build(new_sink("googlenet")),
            ModelKind::CnnVggNet => vggnet::build(new_sink("vgg16")),
            ModelKind::CnnMobileNet => mobilenet::build(new_sink("mobilenet_v1")),
            ModelKind::ResNet50 => resnet::build(new_sink("resnet50")),
            ModelKind::RnnSentiment => rnn_sa::build(new_sink("rnn_sa"), seq),
            ModelKind::RnnTranslation1 => rnn_mt::build(new_sink("rnn_mt1"), 32_000, seq),
            ModelKind::RnnTranslation2 => rnn_mt::build(new_sink("rnn_mt2"), 42_000, seq),
            ModelKind::RnnSpeech => rnn_asr::build(new_sink("rnn_asr"), seq),
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eval_models_has_four_cnns_and_four_rnns() {
        assert_eq!(ALL_EVAL_MODELS.len(), 8);
        assert_eq!(ALL_EVAL_MODELS.iter().filter(|m| m.is_rnn()).count(), 4);
        assert_eq!(CNN_MODELS.iter().filter(|m| !m.is_rnn()).count(), 4);
        assert_eq!(RNN_MODELS.iter().filter(|m| m.is_rnn()).count(), 4);
    }

    #[test]
    fn paper_names_are_unique_and_nonempty() {
        let mut names: Vec<_> = ALL_EVAL_MODELS.iter().map(|m| m.paper_name()).collect();
        names.push(ModelKind::ResNet50.paper_name());
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn display_matches_paper_name() {
        assert_eq!(ModelKind::CnnAlexNet.to_string(), "CNN-AN");
        assert_eq!(ModelKind::RnnSpeech.to_string(), "RNN-ASR");
    }

    #[test]
    fn seq_spec_for_cnn_is_none() {
        assert_eq!(
            SeqSpec::for_model(ModelKind::CnnVggNet, 30),
            SeqSpec::none()
        );
        assert_eq!(SeqSpec::default(), SeqSpec::none());
    }

    #[test]
    fn seq_spec_for_rnn_uses_expected_relation() {
        let spec = SeqSpec::for_model(ModelKind::RnnSentiment, 20);
        assert_eq!(spec, SeqSpec::new(20, 20));
        let mt = SeqSpec::for_model(ModelKind::RnnTranslation1, 20);
        assert_eq!(mt.output_len, 23);
        let asr = SeqSpec::for_model(ModelKind::RnnSpeech, 100);
        assert_eq!(asr.output_len, 45);
    }

    #[test]
    fn expected_output_len_is_at_least_one_for_rnns() {
        for kind in RNN_MODELS {
            assert!(kind.expected_output_len(1) >= 1);
        }
        assert_eq!(ModelKind::CnnAlexNet.expected_output_len(10), 0);
    }

    #[test]
    fn dynamic_output_len_only_for_seq2seq_models() {
        assert!(!ModelKind::RnnSentiment.has_dynamic_output_len());
        assert!(ModelKind::RnnTranslation1.has_dynamic_output_len());
        assert!(ModelKind::RnnTranslation2.has_dynamic_output_len());
        assert!(ModelKind::RnnSpeech.has_dynamic_output_len());
        assert!(!ModelKind::CnnMobileNet.has_dynamic_output_len());
    }

    #[test]
    fn input_ranges_are_sane() {
        for kind in RNN_MODELS {
            let (lo, hi) = kind.input_len_range();
            assert!(lo > 0 && hi > lo);
        }
        assert_eq!(ModelKind::CnnVggNet.input_len_range(), (0, 0));
    }

    #[test]
    fn every_model_builds_a_nonempty_network() {
        for kind in ALL_EVAL_MODELS.iter().chain([&ModelKind::ResNet50]) {
            let seq = SeqSpec::for_model(*kind, 20);
            let net = kind.build(1, seq);
            assert!(net.layer_count() > 3, "{kind} too small");
            assert!(net.total_macs() > 0, "{kind} has no compute");
        }
    }

    /// Replaying the shapes (`distinct[order[l]]`) gives the built
    /// network's kinds and fused activations in order, at the input lengths
    /// `tests/execution_order.rs` pins; each distinct shape is filed once,
    /// in order of first execution.
    #[test]
    fn shapes_replay_the_built_network() {
        for kind in ALL_EVAL_MODELS.into_iter().chain([ModelKind::ResNet50]) {
            for input_len in [5, 20, 50] {
                for batch in [1, 4] {
                    let seq = SeqSpec::for_model(kind, input_len);
                    let net = kind.build(batch, seq);
                    let shapes = kind.shapes(batch, seq);
                    let context = format!("{kind} at batch {batch}, input length {input_len}");
                    assert_eq!(shapes.order().len(), net.layer_count(), "{context}");
                    let replayed = shapes
                        .order()
                        .iter()
                        .map(|&slot| &shapes.distinct()[slot as usize]);
                    for (l, (shape, layer)) in replayed.zip(net.layers()).enumerate() {
                        assert_eq!(shape.kind(), layer.kind(), "{context}, layer {l}");
                        assert_eq!(
                            shape.fused_activation(),
                            layer.fused_activation(),
                            "{context}, layer {l}"
                        );
                    }
                    let mut next = 0;
                    for &slot in shapes.order() {
                        assert!(slot <= next, "{context}: slot {slot} skips slot {next}");
                        next += u32::from(slot == next);
                    }
                    assert_eq!(next as usize, shapes.distinct().len(), "{context}");
                    let distinct = shapes.distinct();
                    for (a, x) in distinct.iter().enumerate() {
                        for y in &distinct[a + 1..] {
                            let same = x.kind() == y.kind()
                                && x.fused_activation() == y.fused_activation();
                            assert!(!same, "{context}: a shape filed twice");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be non-zero")]
    fn zero_batch_rejected() {
        let _ = ModelKind::CnnAlexNet.build(0, SeqSpec::none());
    }

    #[test]
    #[should_panic(expected = "non-zero sequence lengths")]
    fn rnn_requires_sequence_lengths() {
        let _ = ModelKind::RnnTranslation1.build(1, SeqSpec::none());
    }

    #[test]
    fn translation_models_differ_in_vocabulary() {
        let seq = SeqSpec::new(20, 20);
        let mt1 = ModelKind::RnnTranslation1.build(1, seq);
        let mt2 = ModelKind::RnnTranslation2.build(1, seq);
        assert!(mt2.total_weights() > mt1.total_weights());
    }

    #[test]
    fn known_mac_counts_are_in_the_right_ballpark() {
        // Published single-image MAC counts: AlexNet ~0.7 G, VGG-16 ~15.5 G,
        // GoogLeNet ~1.5 G, MobileNet ~0.57 G, ResNet-50 ~4 G.
        let gmacs = |kind: ModelKind| kind.build(1, SeqSpec::none()).total_macs() as f64 / 1e9;
        let an = gmacs(ModelKind::CnnAlexNet);
        assert!(an > 0.4 && an < 1.2, "AlexNet {an} GMACs");
        let vn = gmacs(ModelKind::CnnVggNet);
        assert!(vn > 12.0 && vn < 18.0, "VGG {vn} GMACs");
        let gn = gmacs(ModelKind::CnnGoogLeNet);
        assert!(gn > 0.8 && gn < 2.5, "GoogLeNet {gn} GMACs");
        let mn = gmacs(ModelKind::CnnMobileNet);
        assert!(mn > 0.3 && mn < 1.0, "MobileNet {mn} GMACs");
        let rn = gmacs(ModelKind::ResNet50);
        assert!(rn > 2.5 && rn < 5.5, "ResNet-50 {rn} GMACs");
    }
}
