//! Networks: a model's layers in the order they execute.
//!
//! The host compiles each DNN's layer dependencies once, ahead of inference
//! (Section II-A of the PREMA paper), and a temporally multi-tasked NPU then
//! runs one task's layers one at a time. Each model builder pushes its
//! layers into a [`LayerSink`] in the order they run, so a layer always
//! comes after every layer whose output it reads. The same builder fills
//! either sink:
//!
//! * [`Network`] keeps every layer under its name, plus MAC and parameter
//!   totals: the model as people read it, and the reference the compile
//!   and predictor paths are tested against.
//! * [`LayerShapes`] keeps each distinct layer shape once, in order of first
//!   execution, plus the `u32` index of each executed layer's shape. It
//!   never formats a name. An RNN time-unrolls the same cell at every step
//!   (Figure 8(a)), so its hundreds of layers take a handful of shapes;
//!   plan compilation and Algorithm 1 read only this form.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::layer::Layer;

/// Where a model builder puts its layers, in execution order.
pub trait LayerSink {
    /// Appends `layer` under `name`; it executes after every layer pushed
    /// before it. Builders pass unnamed layers ([`Layer::unnamed`]) and
    /// `format_args!` names, so only a sink that keeps names formats them.
    fn push(&mut self, name: fmt::Arguments<'_>, layer: Layer);
}

/// A DNN as the sequence of named layers it executes.
///
/// ```
/// use dnn_models::layer::{Layer, LayerKind};
/// use dnn_models::{LayerSink, Network};
///
/// let mut net = Network::new("tiny");
/// let fc = |inf, outf| {
///     Layer::unnamed(LayerKind::FullyConnected { in_features: inf, out_features: outf })
/// };
/// net.push(format_args!("fc1"), fc(8, 16));
/// net.push(format_args!("fc{}", 2), fc(16, 4));
/// assert_eq!(net.layer_count(), 2);
/// assert_eq!(net.layers()[1].name(), "fc2");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total MAC operations across all layers for a batch of `batch`.
    pub fn total_macs_for_batch(&self, batch: u64) -> u64 {
        self.layers.iter().map(|l| l.macs(batch)).sum()
    }

    /// Total MAC operations across all layers for batch 1.
    pub fn total_macs(&self) -> u64 {
        self.total_macs_for_batch(1)
    }

    /// Total number of weight parameters across all layers.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }
}

impl LayerSink for Network {
    fn push(&mut self, name: fmt::Arguments<'_>, layer: Layer) {
        self.layers.push(layer.named(fmt::format(name)));
    }
}

/// A DNN as its distinct layer shapes and the order it executes them in.
///
/// Two layers have the same shape when their kinds (with every shape
/// parameter) and fused activations are equal; names are never compared.
/// Replaying `distinct()[order()[l]]` for every `l` gives the kinds and
/// fused activations of [`Network::layers`], in order.
///
/// ```
/// use dnn_models::{LayerSink, LayerShapes};
/// use dnn_models::layer::{Layer, LayerKind, RecurrentKind};
///
/// let cell = Layer::unnamed(LayerKind::Recurrent {
///     kind: RecurrentKind::Lstm,
///     input_size: 512,
///     hidden_size: 512,
/// });
/// let mut shapes = LayerShapes::default();
/// for t in 0..3 {
///     shapes.push(format_args!("lstm_t{t}"), cell.clone());
/// }
/// assert_eq!(shapes.distinct().len(), 1);
/// assert_eq!(shapes.order(), [0, 0, 0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LayerShapes {
    /// Each distinct shape once, in order of first execution, unnamed.
    distinct: Vec<Layer>,
    /// `order[l]` is the index into `distinct` of layer `l`'s shape.
    order: Vec<u32>,
}

impl LayerShapes {
    /// Each distinct shape once, in order of first execution. The layers
    /// carry empty names.
    pub fn distinct(&self) -> &[Layer] {
        &self.distinct
    }

    /// Per executed layer, the index of its shape in [`Self::distinct`].
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The distinct shapes and the order, by value.
    pub fn into_parts(self) -> (Vec<Layer>, Vec<u32>) {
        (self.distinct, self.order)
    }
}

impl LayerSink for LayerShapes {
    fn push(&mut self, _name: fmt::Arguments<'_>, layer: Layer) {
        let same_shape = |d: &Layer| {
            d.kind() == layer.kind() && d.fused_activation() == layer.fused_activation()
        };
        let slot = self
            .distinct
            .iter()
            .position(same_shape)
            .unwrap_or_else(|| {
                self.distinct.push(layer);
                self.distinct.len() - 1
            });
        self.order.push(slot as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ActivationKind, Layer, LayerKind};

    fn fc(inf: u64, outf: u64) -> Layer {
        Layer::unnamed(LayerKind::FullyConnected {
            in_features: inf,
            out_features: outf,
        })
    }

    fn linear<S: LayerSink>(mut sink: S) -> S {
        sink.push(format_args!("a"), fc(4, 8));
        sink.push(format_args!("b"), fc(8, 16));
        sink.push(format_args!("c"), fc(16, 2));
        sink
    }

    #[test]
    fn counts_and_accessors() {
        let net = linear(Network::new("linear"));
        assert_eq!(net.layer_count(), 3);
        assert_eq!(net.name(), "linear");
        let names: Vec<_> = net.layers().iter().map(|l| l.name()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn mac_and_weight_totals_sum_over_layers() {
        let net = linear(Network::new("linear"));
        assert_eq!(net.total_macs(), 4 * 8 + 8 * 16 + 16 * 2);
        assert_eq!(net.total_macs_for_batch(4), 4 * net.total_macs());
        assert_eq!(net.total_weights(), 4 * 8 + 8 * 16 + 16 * 2);
    }

    #[test]
    fn shapes_dedupe_on_kind_and_activation_never_on_name() {
        let mut shapes = linear(LayerShapes::default());
        shapes.push(format_args!("a_again"), fc(4, 8));
        shapes.push(format_args!("a"), fc(4, 8).fused(ActivationKind::Relu));
        shapes.push(format_args!("b"), fc(4, 8).fused(ActivationKind::Relu));
        assert_eq!(shapes.order(), [0, 1, 2, 0, 3, 3]);
        let kinds: Vec<_> = shapes.distinct().iter().map(|l| *l.kind()).collect();
        assert_eq!(
            kinds,
            [
                *fc(4, 8).kind(),
                *fc(8, 16).kind(),
                *fc(16, 2).kind(),
                *fc(4, 8).kind()
            ]
        );
        assert_eq!(
            shapes.distinct()[3].fused_activation(),
            Some(ActivationKind::Relu)
        );
        assert!(shapes.distinct().iter().all(|l| l.name().is_empty()));
    }
}
