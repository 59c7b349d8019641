//! Shared layer constructors for the model-zoo builders. Each returns an
//! unnamed layer; the builder pushes it into its
//! [`LayerSink`](crate::LayerSink) with the name.

use crate::layer::{ActivationKind, Layer, LayerKind, PoolKind, RecurrentKind};

/// A ReLU-fused square convolution.
pub fn conv_relu(
    in_channels: u64,
    out_channels: u64,
    kernel: u64,
    stride: u64,
    padding: u64,
    input_hw: u64,
) -> Layer {
    Layer::unnamed(LayerKind::Conv {
        in_channels,
        out_channels,
        kernel: (kernel, kernel),
        stride: (stride, stride),
        padding: (padding, padding),
        input_hw: (input_hw, input_hw),
    })
    .fused(ActivationKind::Relu)
}

/// A ReLU-fused square depthwise convolution.
pub fn depthwise_relu(
    channels: u64,
    kernel: u64,
    stride: u64,
    padding: u64,
    input_hw: u64,
) -> Layer {
    Layer::unnamed(LayerKind::DepthwiseConv {
        channels,
        kernel: (kernel, kernel),
        stride: (stride, stride),
        padding: (padding, padding),
        input_hw: (input_hw, input_hw),
    })
    .fused(ActivationKind::Relu)
}

/// A square pooling layer.
pub fn pool(kind: PoolKind, window: u64, stride: u64, channels: u64, input_hw: u64) -> Layer {
    Layer::unnamed(LayerKind::Pool {
        kind,
        window: (window, window),
        stride: (stride, stride),
        channels,
        input_hw: (input_hw, input_hw),
    })
}

/// A fully-connected layer with a fused activation.
pub fn fully_connected(in_features: u64, out_features: u64, activation: ActivationKind) -> Layer {
    Layer::unnamed(LayerKind::FullyConnected {
        in_features,
        out_features,
    })
    .fused(activation)
}

/// One time step of an LSTM layer.
pub fn lstm_step(input_size: u64, hidden_size: u64) -> Layer {
    Layer::unnamed(LayerKind::Recurrent {
        kind: RecurrentKind::Lstm,
        input_size,
        hidden_size,
    })
}

/// An explicit element-wise layer (used for residual additions and branch
/// concatenations, which are cheap vector-unit copies/adds).
pub fn elementwise(kind: ActivationKind, elements_per_sample: u64) -> Layer {
    Layer::unnamed(LayerKind::Activation {
        kind,
        elements_per_sample,
    })
}
