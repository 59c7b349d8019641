//! Shared layer constructors for the model-zoo builders.

use crate::layer::{ActivationKind, Layer, LayerKind, PoolKind, RecurrentKind};

/// A ReLU-fused square convolution.
pub fn conv_relu(
    name: &str,
    in_channels: u64,
    out_channels: u64,
    kernel: u64,
    stride: u64,
    padding: u64,
    input_hw: u64,
) -> Layer {
    Layer::new(
        name,
        LayerKind::Conv {
            in_channels,
            out_channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (padding, padding),
            input_hw: (input_hw, input_hw),
        },
    )
    .fused(ActivationKind::Relu)
}

/// A ReLU-fused square depthwise convolution.
pub fn depthwise_relu(
    name: &str,
    channels: u64,
    kernel: u64,
    stride: u64,
    padding: u64,
    input_hw: u64,
) -> Layer {
    Layer::new(
        name,
        LayerKind::DepthwiseConv {
            channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (padding, padding),
            input_hw: (input_hw, input_hw),
        },
    )
    .fused(ActivationKind::Relu)
}

/// A square pooling layer.
pub fn pool(
    name: &str,
    kind: PoolKind,
    window: u64,
    stride: u64,
    channels: u64,
    input_hw: u64,
) -> Layer {
    Layer::new(
        name,
        LayerKind::Pool {
            kind,
            window: (window, window),
            stride: (stride, stride),
            channels,
            input_hw: (input_hw, input_hw),
        },
    )
}

/// A fully-connected layer with a fused activation.
pub fn fully_connected(
    name: &str,
    in_features: u64,
    out_features: u64,
    activation: ActivationKind,
) -> Layer {
    Layer::new(
        name,
        LayerKind::FullyConnected {
            in_features,
            out_features,
        },
    )
    .fused(activation)
}

/// One time step of an LSTM layer.
pub fn lstm_step(name: &str, input_size: u64, hidden_size: u64) -> Layer {
    Layer::new(
        name,
        LayerKind::Recurrent {
            kind: RecurrentKind::Lstm,
            input_size,
            hidden_size,
        },
    )
}

/// An explicit element-wise layer (used for residual additions and branch
/// concatenations, which are cheap vector-unit copies/adds).
pub fn elementwise(name: &str, kind: ActivationKind, elements_per_sample: u64) -> Layer {
    Layer::new(
        name,
        LayerKind::Activation {
            kind,
            elements_per_sample,
        },
    )
}
