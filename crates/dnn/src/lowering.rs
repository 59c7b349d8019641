//! Lowering of the architecture-agnostic [`Layer`] IR onto the systolic-array
//! NPU's [`npu_sim::LayerWork`] description.
//!
//! This is the "compiler" step the paper assumes happens on the CPU before a
//! layer's instructions are pushed to the NPU instruction buffer: the layer's
//! shapes are turned into the GEMM that the weight-stationary array executes
//! plus the vector-unit work fused with it.

use npu_sim::vector::{VectorOpKind, VectorWork};
use npu_sim::{GemmShape, LayerWork};

use crate::layer::{ActivationKind, Layer, LayerKind, PoolKind};
use crate::network::Network;

impl From<ActivationKind> for VectorOpKind {
    fn from(kind: ActivationKind) -> Self {
        match kind {
            ActivationKind::Relu => VectorOpKind::Relu,
            ActivationKind::Sigmoid => VectorOpKind::Sigmoid,
            ActivationKind::Tanh => VectorOpKind::Tanh,
            ActivationKind::Softmax => VectorOpKind::Softmax,
        }
    }
}

/// Lowers `layer` at the given batch size into the work description consumed
/// by the NPU timing model.
///
/// ```
/// use dnn_models::layer::{Layer, LayerKind};
/// use dnn_models::lowering::lower_layer;
///
/// let fc = Layer::new("fc", LayerKind::FullyConnected { in_features: 1024, out_features: 1024 });
/// let work = lower_layer(&fc, 8);
/// assert_eq!(work.gemm.unwrap().m, 1024);
/// assert_eq!(work.gemm.unwrap().n, 8);
/// ```
pub fn lower_layer(layer: &Layer, batch: u64) -> LayerWork {
    assert!(batch > 0, "batch size must be non-zero");
    match layer.kind() {
        LayerKind::Conv { .. }
        | LayerKind::DepthwiseConv { .. }
        | LayerKind::FullyConnected { .. }
        | LayerKind::Recurrent { .. } => {
            let dims = layer
                .gemm_dims(batch)
                .expect("CONV/FC/RECR layers lower to GEMM");
            let shape = GemmShape::new(dims.m, dims.k, dims.n);
            let mut work = LayerWork::gemm(shape, layer.output_bytes(batch));
            work.weight_bytes = layer.weight_bytes();
            work.input_bytes = layer.input_bytes(batch);
            // Recurrent cells run their gate non-linearities on the vector
            // unit even when no explicit activation was fused.
            let gates =
                matches!(layer.kind(), LayerKind::Recurrent { .. }).then_some(VectorOpKind::Tanh);
            if let Some(op) = layer.fused_activation().map(VectorOpKind::from).or(gates) {
                work = work.with_fused_vector(op, layer.output_elements(batch));
            }
            work
        }
        LayerKind::Activation { kind, .. } => LayerWork::vector_only(
            VectorWork::new((*kind).into(), layer.output_elements(batch)),
            layer.output_bytes(batch),
        ),
        LayerKind::Pool { kind, window, .. } => {
            let op = match kind {
                PoolKind::Max => VectorOpKind::MaxPool,
                PoolKind::Avg => VectorOpKind::AvgPool,
            };
            // Each output element reduces a window of inputs on the vector unit.
            let processed = layer.output_elements(batch) * window.0 * window.1;
            LayerWork::vector_only(VectorWork::new(op, processed), layer.output_bytes(batch))
        }
    }
}

/// Lowers every layer of a network in execution order.
///
/// Plan compilation no longer calls this: it lowers each distinct shape of
/// [`ModelKind::shapes`](crate::ModelKind::shapes) once. This per-layer
/// walk over the named [`Network`] stays as the oracle the compile path is
/// tested against.
pub fn lower_network(network: &Network, batch: u64) -> Vec<LayerWork> {
    network
        .layers()
        .iter()
        .map(|layer| lower_layer(layer, batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::RecurrentKind;
    use crate::network::LayerSink;

    #[test]
    fn conv_lowers_to_conv_work() {
        let conv = Layer::new(
            "c",
            LayerKind::Conv {
                in_channels: 64,
                out_channels: 128,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                input_hw: (28, 28),
            },
        )
        .fused(ActivationKind::Relu);
        let work = lower_layer(&conv, 2);
        let g = work.gemm.unwrap();
        assert_eq!(g.m, 128);
        assert_eq!(g.k, 64 * 9);
        assert_eq!(g.n, 2 * 28 * 28);
        assert!(work.vector.is_some());
        assert_eq!(work.weight_bytes, conv.weight_bytes());
        assert!(!work.in_place);
    }

    #[test]
    fn pooling_lowers_to_vector_only_in_place_work() {
        let pool = Layer::new(
            "p",
            LayerKind::Pool {
                kind: PoolKind::Max,
                window: (2, 2),
                stride: (2, 2),
                channels: 64,
                input_hw: (56, 56),
            },
        );
        let work = lower_layer(&pool, 1);
        assert!(work.gemm.is_none());
        assert!(work.in_place);
        let v = work.vector.unwrap();
        assert_eq!(v.kind, VectorOpKind::MaxPool);
        assert_eq!(v.elements, 64 * 28 * 28 * 4);
    }

    #[test]
    fn recurrent_layer_gets_gate_nonlinearity() {
        let lstm = Layer::new(
            "l",
            LayerKind::Recurrent {
                kind: RecurrentKind::Lstm,
                input_size: 512,
                hidden_size: 512,
            },
        );
        let work = lower_layer(&lstm, 1);
        assert_eq!(work.gemm.unwrap().m, 2048);
        assert_eq!(work.vector.unwrap().kind, VectorOpKind::Tanh);
    }

    #[test]
    fn activation_kind_conversion_is_total() {
        for (kind, expected) in [
            (ActivationKind::Relu, VectorOpKind::Relu),
            (ActivationKind::Sigmoid, VectorOpKind::Sigmoid),
            (ActivationKind::Tanh, VectorOpKind::Tanh),
            (ActivationKind::Softmax, VectorOpKind::Softmax),
        ] {
            assert_eq!(VectorOpKind::from(kind), expected);
        }
    }

    #[test]
    fn lower_network_preserves_layer_count() {
        let mut net = Network::new("net");
        net.push(
            format_args!("fc1"),
            Layer::unnamed(LayerKind::FullyConnected {
                in_features: 10,
                out_features: 20,
            }),
        );
        net.push(
            format_args!("relu"),
            Layer::unnamed(LayerKind::Activation {
                kind: ActivationKind::Relu,
                elements_per_sample: 20,
            }),
        );
        let works = lower_network(&net, 4);
        assert_eq!(works.len(), 2);
        assert!(works[0].gemm.is_some());
        assert!(works[1].gemm.is_none());
    }

    #[test]
    #[should_panic(expected = "batch size must be non-zero")]
    fn zero_batch_rejected() {
        let fc = Layer::new(
            "fc",
            LayerKind::FullyConnected {
                in_features: 1,
                out_features: 1,
            },
        );
        let _ = lower_layer(&fc, 0);
    }
}
