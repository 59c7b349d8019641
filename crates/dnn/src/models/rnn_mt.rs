//! RNN-MT1 / RNN-MT2: LSTM sequence-to-sequence machine translation
//! (GNMT-style encoder/decoder, Figure 8(c) of the PREMA paper).
//!
//! A four-layer LSTM encoder (hidden 1024) consumes the source sentence; a
//! four-layer LSTM decoder with an attention projection and a large
//! vocabulary projection emits the target sentence one token at a time. The
//! number of decoder steps (the time-unrolled recurrence length) is
//! input-data dependent — the *non-linear* relationship PREMA's regression
//! model predicts. RNN-MT1 and RNN-MT2 share the architecture but target
//! different languages, so they differ in output vocabulary size and in
//! their input→output length characteristics.

use crate::layer::ActivationKind;
use crate::network::LayerSink;

use super::builders::{fully_connected, lstm_step};
use super::SeqSpec;

/// Embedding dimension of source and target tokens.
const EMBED: u64 = 1024;
/// LSTM hidden state size.
const HIDDEN: u64 = 1024;
/// Encoder / decoder depth.
const LAYERS: u64 = 4;

/// Pushes the time-unrolled translation network into `net`.
///
/// `vocab` is the target-language vocabulary size used by the per-step output
/// projection; `seq.input_len` encoder steps and `seq.output_len` decoder
/// steps are unrolled.
pub fn build<S: LayerSink>(mut net: S, vocab: u64, seq: SeqSpec) -> S {
    // Encoder.
    for t in 0..seq.input_len.max(1) {
        for layer in 0..LAYERS {
            let input_size = if layer == 0 { EMBED } else { HIDDEN };
            net.push(
                format_args!("enc_l{layer}_t{t}"),
                lstm_step(input_size, HIDDEN),
            );
        }
    }

    // Decoder: LSTM stack + attention context projection + vocabulary
    // projection with softmax, per generated token.
    for t in 0..seq.output_len.max(1) {
        for layer in 0..LAYERS {
            let input_size = if layer == 0 { EMBED } else { HIDDEN };
            net.push(
                format_args!("dec_l{layer}_t{t}"),
                lstm_step(input_size, HIDDEN),
            );
        }
        net.push(
            format_args!("attention_t{t}"),
            fully_connected(2 * HIDDEN, HIDDEN, ActivationKind::Tanh),
        );
        net.push(
            format_args!("proj_t{t}"),
            fully_connected(HIDDEN, vocab, ActivationKind::Softmax),
        );
    }

    net
}

#[cfg(test)]
mod tests {
    use super::SeqSpec;
    use crate::network::Network;

    fn build(name: &str, vocab: u64, seq: SeqSpec) -> Network {
        super::build(Network::new(name), vocab, seq)
    }

    #[test]
    fn layer_count_scales_with_both_sequence_lengths() {
        let g = build("mt", 32_000, SeqSpec::new(10, 12));
        // 10*4 encoder + 12*(4 + 2) decoder layers.
        assert_eq!(g.layer_count(), 40 + 72);
    }

    #[test]
    fn decoder_steps_dominate_when_output_is_long() {
        let short_out = build("mt", 32_000, SeqSpec::new(20, 5)).total_macs();
        let long_out = build("mt", 32_000, SeqSpec::new(20, 40)).total_macs();
        assert!(long_out > 2 * short_out);
    }

    #[test]
    fn vocabulary_size_affects_weights_and_macs() {
        let small = build("mt", 32_000, SeqSpec::new(10, 10));
        let large = build("mt", 42_000, SeqSpec::new(10, 10));
        assert!(large.total_weights() > small.total_weights());
        assert!(large.total_macs() > small.total_macs());
    }
}
