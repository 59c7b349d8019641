//! RNN-ASR: automatic speech recognition based on the Listen, Attend and
//! Spell architecture (Chan et al., 2015).
//!
//! The *listener* is a three-layer pyramidal bidirectional LSTM over the
//! audio-frame sequence: each successive layer halves the number of time
//! steps, and each step runs a forward and a backward cell. The *speller* is
//! a two-layer LSTM decoder with an attention projection and a character
//! classifier, unrolled for the (input-data dependent) output text length.

use crate::layer::ActivationKind;
use crate::network::LayerSink;

use super::builders::{fully_connected, lstm_step};
use super::SeqSpec;

/// Acoustic feature dimension per frame.
const FEATURES: u64 = 256;
/// Listener / speller hidden size.
const HIDDEN: u64 = 512;
/// Number of pyramidal listener layers.
const LISTENER_LAYERS: u64 = 3;
/// Number of speller layers.
const SPELLER_LAYERS: u64 = 2;
/// Output character-set size.
const CHARSET: u64 = 30;

/// Pushes the time-unrolled Listen-Attend-Spell network into `net`.
pub fn build<S: LayerSink>(mut net: S, seq: SeqSpec) -> S {
    let frames = seq.input_len.max(1);

    // Listener: pyramidal BLSTM. Layer `l` processes frames / 2^l steps, two
    // directions per step.
    for layer in 0..LISTENER_LAYERS {
        let steps = (frames >> layer).max(1);
        // The first layer reads acoustic features; deeper layers read the
        // concatenated bidirectional outputs of the previous layer.
        let input_size = if layer == 0 { FEATURES } else { 2 * HIDDEN };
        for t in 0..steps {
            for direction in ["fwd", "bwd"] {
                net.push(
                    format_args!("listen_l{layer}_{direction}_t{t}"),
                    lstm_step(input_size, HIDDEN),
                );
            }
        }
    }

    // Speller: attention-equipped LSTM decoder emitting characters.
    for t in 0..seq.output_len.max(1) {
        for layer in 0..SPELLER_LAYERS {
            let input_size = if layer == 0 { 2 * HIDDEN } else { HIDDEN };
            net.push(
                format_args!("spell_l{layer}_t{t}"),
                lstm_step(input_size, HIDDEN),
            );
        }
        net.push(
            format_args!("attention_t{t}"),
            fully_connected(2 * HIDDEN, HIDDEN, ActivationKind::Tanh),
        );
        net.push(
            format_args!("char_t{t}"),
            fully_connected(HIDDEN, CHARSET, ActivationKind::Softmax),
        );
    }

    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn build(seq: SeqSpec) -> Network {
        super::build(Network::new("rnn_asr"), seq)
    }

    #[test]
    fn pyramidal_listener_halves_steps_per_layer() {
        let g = build(SeqSpec::new(40, 10));
        let count = |prefix: &str| {
            g.layers()
                .iter()
                .filter(|l| l.name().starts_with(prefix))
                .count()
        };
        assert_eq!(count("listen_l0_"), 40 * 2);
        assert_eq!(count("listen_l1_"), 20 * 2);
        assert_eq!(count("listen_l2_"), 10 * 2);
    }

    #[test]
    fn speller_layer_count_follows_output_length() {
        let g = build(SeqSpec::new(40, 10));
        let spell_layers = g
            .layers()
            .iter()
            .filter(|l| l.name().starts_with("spell_"))
            .count();
        assert_eq!(spell_layers, 10 * SPELLER_LAYERS as usize);
    }

    #[test]
    fn longer_audio_increases_compute() {
        let short = build(SeqSpec::new(20, 10)).total_macs();
        let long = build(SeqSpec::new(100, 10)).total_macs();
        assert!(long > 3 * short);
    }
}
