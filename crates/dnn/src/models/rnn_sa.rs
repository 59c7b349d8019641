//! RNN-SA: LSTM-based sentiment analysis (MLPerf cloud inference style).
//!
//! A two-layer LSTM (hidden size 512) consumes the input token sequence; the
//! final hidden state feeds a small classifier. The time-unrolled recurrence
//! length equals the input sequence length — the *linear* input/output
//! relationship of Figure 8(b) — so the output sequence length is statically
//! known as soon as the request arrives.

use crate::layer::ActivationKind;
use crate::network::LayerSink;

use super::builders::{fully_connected, lstm_step};
use super::SeqSpec;

/// Embedding / input feature dimension per token.
const INPUT_DIM: u64 = 256;
/// LSTM hidden state size.
const HIDDEN: u64 = 512;
/// Number of stacked LSTM layers.
const LAYERS: u64 = 2;
/// Number of sentiment classes.
const CLASSES: u64 = 2;

/// Pushes the time-unrolled sentiment-analysis network for the given
/// sequence specification into `net`. Only `seq.input_len` matters; the
/// recurrence is unrolled exactly that many steps.
pub fn build<S: LayerSink>(mut net: S, seq: SeqSpec) -> S {
    for t in 0..seq.input_len.max(1) {
        for layer in 0..LAYERS {
            let input_size = if layer == 0 { INPUT_DIM } else { HIDDEN };
            net.push(
                format_args!("lstm_l{layer}_t{t}"),
                lstm_step(input_size, HIDDEN),
            );
        }
    }
    net.push(
        format_args!("classifier"),
        fully_connected(HIDDEN, CLASSES, ActivationKind::Softmax),
    );
    net
}

#[cfg(test)]
mod tests {
    use super::SeqSpec;
    use crate::network::Network;

    fn build(seq: SeqSpec) -> Network {
        super::build(Network::new("rnn_sa"), seq)
    }

    #[test]
    fn unrolls_two_layers_per_step_plus_classifier() {
        let g = build(SeqSpec::new(10, 10));
        assert_eq!(g.layer_count(), 10 * 2 + 1);
    }

    #[test]
    fn longer_inputs_mean_proportionally_more_compute() {
        let short = build(SeqSpec::new(5, 5)).total_macs();
        let long = build(SeqSpec::new(50, 50)).total_macs();
        assert!(long > 9 * short && long < 11 * short);
    }

    #[test]
    fn output_length_is_irrelevant_for_sentiment_analysis() {
        let a = build(SeqSpec::new(10, 10)).total_macs();
        let b = build(SeqSpec::new(10, 37)).total_macs();
        assert_eq!(a, b);
    }
}
