//! Networks: a model's layers in the order they execute.
//!
//! The host compiles each DNN's layer dependencies once, ahead of inference
//! (Section II-A of the PREMA paper), and a temporally multi-tasked NPU then
//! runs one task's layers one at a time. A [`Network`] stores exactly that
//! result: the layers in execution order, plus MAC and parameter totals.
//! Each model builder pushes its layers in the order they run, so a layer
//! always comes after every layer whose output it reads.

use serde::{Deserialize, Serialize};

use crate::layer::Layer;

/// A DNN as the sequence of layers it executes.
///
/// ```
/// use dnn_models::Network;
/// use dnn_models::layer::{Layer, LayerKind};
///
/// let mut net = Network::new("tiny");
/// net.push(Layer::new("fc1", LayerKind::FullyConnected { in_features: 8, out_features: 16 }));
/// net.push(Layer::new("fc2", LayerKind::FullyConnected { in_features: 16, out_features: 4 }));
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

    /// Appends a layer; it executes after every layer pushed before it.
    pub fn push(&mut self, layer: Layer) {
        self.layers.push(layer);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, LayerKind};

    fn fc(name: &str, inf: u64, outf: u64) -> Layer {
        Layer::new(
            name,
            LayerKind::FullyConnected {
                in_features: inf,
                out_features: outf,
            },
        )
    }

    fn linear_network() -> Network {
        let mut net = Network::new("linear");
        net.push(fc("a", 4, 8));
        net.push(fc("b", 8, 16));
        net.push(fc("c", 16, 2));
        net
    }

    #[test]
    fn counts_and_accessors() {
        let net = linear_network();
        assert_eq!(net.layer_count(), 3);
        assert_eq!(net.name(), "linear");
        let names: Vec<_> = net.layers().iter().map(|l| l.name()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn mac_and_weight_totals_sum_over_layers() {
        let net = linear_network();
        assert_eq!(net.total_macs(), 4 * 8 + 8 * 16 + 16 * 2);
        assert_eq!(net.total_macs_for_batch(4), 4 * net.total_macs());
        assert_eq!(net.total_weights(), 4 * 8 + 8 * 16 + 16 * 2);
    }
}
