//! Layer intermediate representation.
//!
//! A [`Layer`] describes one layer of a DNN: its type ([`LayerKind`]), its
//! shape parameters, and an optionally fused activation function. The IR is
//! deliberately architecture-agnostic: it exposes MAC
//! counts, element counts, and the `(m, k, n)` GEMM dimensions the layer
//! lowers to, and leaves the mapping onto a concrete NPU to
//! [`crate::lowering`].

use serde::{Deserialize, Serialize};

/// Bytes per 16-bit datum, matching the NPU's native precision.
pub const BYTES_PER_ELEMENT: u64 = 2;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the class/vocabulary dimension.
    Softmax,
}

/// Pooling reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Recurrent cell kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecurrentKind {
    /// Long short-term memory cell (4 gates).
    Lstm,
    /// Gated recurrent unit (3 gates).
    Gru,
}

impl RecurrentKind {
    /// Number of gate matrices the cell computes per time step.
    pub fn gate_count(self) -> u64 {
        match self {
            RecurrentKind::Lstm => 4,
            RecurrentKind::Gru => 3,
        }
    }
}

/// The GEMM dimensions a layer lowers to: an `(m × k)` weight matrix applied
/// to a `(k × n)` input-activation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmDims {
    /// Output features / weight rows.
    pub m: u64,
    /// Reduction dimension.
    pub k: u64,
    /// Activation columns (batch × spatial positions or batch × time).
    pub n: u64,
}

impl GemmDims {
    /// Total MAC operations of the GEMM.
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }
}

/// The type and shape parameters of one DNN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Standard convolution.
    Conv {
        /// Input channels.
        in_channels: u64,
        /// Output channels (number of filters).
        out_channels: u64,
        /// Kernel size (height, width).
        kernel: (u64, u64),
        /// Stride (height, width).
        stride: (u64, u64),
        /// Zero padding (height, width).
        padding: (u64, u64),
        /// Input spatial size (height, width).
        input_hw: (u64, u64),
    },
    /// Depthwise convolution (one filter per channel, no cross-channel
    /// reduction). Used by MobileNet's separable convolutions.
    DepthwiseConv {
        /// Number of channels (input == output).
        channels: u64,
        /// Kernel size (height, width).
        kernel: (u64, u64),
        /// Stride (height, width).
        stride: (u64, u64),
        /// Zero padding (height, width).
        padding: (u64, u64),
        /// Input spatial size (height, width).
        input_hw: (u64, u64),
    },
    /// Fully-connected (dense) layer.
    FullyConnected {
        /// Input features.
        in_features: u64,
        /// Output features.
        out_features: u64,
    },
    /// Stand-alone element-wise activation layer (in-place).
    Activation {
        /// Activation function.
        kind: ActivationKind,
        /// Elements processed per sample.
        elements_per_sample: u64,
    },
    /// Pooling layer (in-place reduction).
    Pool {
        /// Pooling kind.
        kind: PoolKind,
        /// Window size (height, width).
        window: (u64, u64),
        /// Stride (height, width).
        stride: (u64, u64),
        /// Number of channels.
        channels: u64,
        /// Input spatial size (height, width).
        input_hw: (u64, u64),
    },
    /// One time step of a recurrent layer (the model builders time-unroll
    /// recurrent layers into one `Recurrent` node per step, Figure 8(a)).
    Recurrent {
        /// Cell type.
        kind: RecurrentKind,
        /// Input feature size.
        input_size: u64,
        /// Hidden state size.
        hidden_size: u64,
    },
}

fn conv_out_dim(input: u64, kernel: u64, stride: u64, padding: u64) -> u64 {
    debug_assert!(stride > 0, "stride must be non-zero");
    (input + 2 * padding).saturating_sub(kernel) / stride + 1
}

/// A named layer with an optionally fused activation function.
///
/// ```
/// use dnn_models::layer::{Layer, LayerKind, ActivationKind};
///
/// let conv = Layer::new(
///     "conv1",
///     LayerKind::Conv {
///         in_channels: 3,
///         out_channels: 64,
///         kernel: (7, 7),
///         stride: (2, 2),
///         padding: (3, 3),
///         input_hw: (224, 224),
///     },
/// )
/// .fused(ActivationKind::Relu);
/// assert_eq!(conv.output_hw(), Some((112, 112)));
/// assert!(conv.macs(1) > 100_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    fused_activation: Option<ActivationKind>,
}

impl Layer {
    /// Creates a new layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
            fused_activation: None,
        }
    }

    /// Creates a layer with an empty name, the form a model builder hands
    /// to a [`LayerSink`](crate::LayerSink) along with the name.
    pub fn unnamed(kind: LayerKind) -> Self {
        Layer::new(String::new(), kind)
    }

    /// This layer under `name`.
    pub(crate) fn named(mut self, name: String) -> Self {
        self.name = name;
        self
    }

    /// Fuses an activation function with this layer (executed by the vector
    /// unit as part of the same `VECTOR_OP`, Section IV-B).
    pub fn fused(mut self, activation: ActivationKind) -> Self {
        self.fused_activation = Some(activation);
        self
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's kind and shape parameters.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// The fused activation, if any.
    pub fn fused_activation(&self) -> Option<ActivationKind> {
        self.fused_activation
    }

    /// Output spatial size for convolution / pooling layers.
    pub fn output_hw(&self) -> Option<(u64, u64)> {
        match self.kind {
            LayerKind::Conv {
                kernel,
                stride,
                padding,
                input_hw,
                ..
            }
            | LayerKind::DepthwiseConv {
                kernel,
                stride,
                padding,
                input_hw,
                ..
            } => Some((
                conv_out_dim(input_hw.0, kernel.0, stride.0, padding.0),
                conv_out_dim(input_hw.1, kernel.1, stride.1, padding.1),
            )),
            LayerKind::Pool {
                window,
                stride,
                input_hw,
                ..
            } => Some((
                conv_out_dim(input_hw.0, window.0, stride.0, 0),
                conv_out_dim(input_hw.1, window.1, stride.1, 0),
            )),
            _ => None,
        }
    }

    /// Number of output elements produced for a batch of `batch` samples.
    pub fn output_elements(&self, batch: u64) -> u64 {
        match self.kind {
            LayerKind::Conv { out_channels, .. } => {
                let (h, w) = self.output_hw().expect("conv has spatial output");
                batch * out_channels * h * w
            }
            LayerKind::DepthwiseConv { channels, .. } => {
                let (h, w) = self.output_hw().expect("depthwise conv has spatial output");
                batch * channels * h * w
            }
            LayerKind::FullyConnected { out_features, .. } => batch * out_features,
            LayerKind::Activation {
                elements_per_sample,
                ..
            } => batch * elements_per_sample,
            LayerKind::Pool { channels, .. } => {
                let (h, w) = self.output_hw().expect("pool has spatial output");
                batch * channels * h * w
            }
            LayerKind::Recurrent { hidden_size, .. } => batch * hidden_size,
        }
    }

    /// Number of input elements consumed for a batch of `batch` samples.
    pub fn input_elements(&self, batch: u64) -> u64 {
        match self.kind {
            LayerKind::Conv {
                in_channels,
                input_hw,
                ..
            } => batch * in_channels * input_hw.0 * input_hw.1,
            LayerKind::DepthwiseConv {
                channels, input_hw, ..
            } => batch * channels * input_hw.0 * input_hw.1,
            LayerKind::FullyConnected { in_features, .. } => batch * in_features,
            LayerKind::Activation {
                elements_per_sample,
                ..
            } => batch * elements_per_sample,
            LayerKind::Pool {
                channels, input_hw, ..
            } => batch * channels * input_hw.0 * input_hw.1,
            LayerKind::Recurrent {
                input_size,
                hidden_size,
                ..
            } => batch * (input_size + hidden_size),
        }
    }

    /// Number of trainable weight parameters of the layer.
    pub fn weight_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => out_channels * in_channels * kernel.0 * kernel.1,
            LayerKind::DepthwiseConv {
                channels, kernel, ..
            } => channels * kernel.0 * kernel.1,
            LayerKind::FullyConnected {
                in_features,
                out_features,
            } => in_features * out_features,
            LayerKind::Activation { .. } | LayerKind::Pool { .. } => 0,
            LayerKind::Recurrent {
                kind,
                input_size,
                hidden_size,
            } => kind.gate_count() * hidden_size * (input_size + hidden_size),
        }
    }

    /// Output bytes for a batch of `batch` samples at 16-bit precision.
    pub fn output_bytes(&self, batch: u64) -> u64 {
        self.output_elements(batch) * BYTES_PER_ELEMENT
    }

    /// Input bytes for a batch of `batch` samples at 16-bit precision.
    pub fn input_bytes(&self, batch: u64) -> u64 {
        self.input_elements(batch) * BYTES_PER_ELEMENT
    }

    /// Weight bytes at 16-bit precision.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_count() * BYTES_PER_ELEMENT
    }

    /// The `(m, k, n)` GEMM this layer lowers to on a weight-stationary
    /// accelerator, or `None` for layers executed on the vector unit only.
    ///
    /// * CONV: `m = out_channels`, `k = in_channels · kh · kw`,
    ///   `n = batch · out_h · out_w` (im2col lowering, Section II-B).
    /// * Depthwise CONV: `m = channels`, `k = kh · kw`,
    ///   `n = batch · out_h · out_w` (each channel reduces only over its own
    ///   window, which badly underutilizes the array — the red-circled points
    ///   of Figure 10).
    /// * FC: `m = out_features`, `k = in_features`, `n = batch`.
    /// * RECR: `m = gates · hidden`, `k = input + hidden`, `n = batch`.
    pub fn gemm_dims(&self, batch: u64) -> Option<GemmDims> {
        assert!(batch > 0, "batch size must be non-zero");
        match self.kind {
            LayerKind::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let (h, w) = self.output_hw().expect("conv has spatial output");
                Some(GemmDims {
                    m: out_channels,
                    k: in_channels * kernel.0 * kernel.1,
                    n: batch * h * w,
                })
            }
            LayerKind::DepthwiseConv {
                channels, kernel, ..
            } => {
                let (h, w) = self.output_hw().expect("depthwise conv has spatial output");
                Some(GemmDims {
                    m: channels,
                    k: kernel.0 * kernel.1,
                    n: batch * h * w,
                })
            }
            LayerKind::FullyConnected {
                in_features,
                out_features,
            } => Some(GemmDims {
                m: out_features,
                k: in_features,
                n: batch,
            }),
            LayerKind::Activation { .. } | LayerKind::Pool { .. } => None,
            LayerKind::Recurrent {
                kind,
                input_size,
                hidden_size,
            } => Some(GemmDims {
                m: kind.gate_count() * hidden_size,
                k: input_size + hidden_size,
                n: batch,
            }),
        }
    }

    /// Total MAC operations for a batch of `batch` samples.
    pub fn macs(&self, batch: u64) -> u64 {
        self.gemm_dims(batch).map(|g| g.macs()).unwrap_or(0)
    }

    /// Whether the layer carries layer-specific weights (CONV/FC/RECR).
    pub fn has_weights(&self) -> bool {
        self.weight_count() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv1() -> Layer {
        Layer::new(
            "conv1",
            LayerKind::Conv {
                in_channels: 3,
                out_channels: 96,
                kernel: (11, 11),
                stride: (4, 4),
                padding: (0, 0),
                input_hw: (227, 227),
            },
        )
    }

    #[test]
    fn conv_output_dims_match_formula() {
        assert_eq!(conv1().output_hw(), Some((55, 55)));
        let padded = Layer::new(
            "c",
            LayerKind::Conv {
                in_channels: 64,
                out_channels: 64,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                input_hw: (56, 56),
            },
        );
        assert_eq!(padded.output_hw(), Some((56, 56)));
    }

    #[test]
    fn alexnet_conv1_macs_match_reference() {
        // Reference: 96 * 3*11*11 * 55*55 ≈ 105 M MACs per image.
        assert_eq!(conv1().macs(1), 96 * 3 * 11 * 11 * 55 * 55);
        assert_eq!(conv1().macs(4), 4 * conv1().macs(1));
    }

    #[test]
    fn conv_gemm_dims_follow_im2col() {
        let g = conv1().gemm_dims(2).unwrap();
        assert_eq!(g.m, 96);
        assert_eq!(g.k, 3 * 11 * 11);
        assert_eq!(g.n, 2 * 55 * 55);
        assert_eq!(g.macs(), conv1().macs(2));
    }

    #[test]
    fn depthwise_conv_has_small_reduction() {
        let dw = Layer::new(
            "dw",
            LayerKind::DepthwiseConv {
                channels: 256,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                input_hw: (28, 28),
            },
        );
        let g = dw.gemm_dims(1).unwrap();
        assert_eq!(g.m, 256);
        assert_eq!(g.k, 9);
        assert_eq!(g.n, 28 * 28);
        assert_eq!(dw.macs(1), 256 * 9 * 28 * 28);
        assert_eq!(dw.weight_count(), 256 * 9);
    }

    #[test]
    fn fully_connected_dims() {
        let fc = Layer::new(
            "fc6",
            LayerKind::FullyConnected {
                in_features: 9216,
                out_features: 4096,
            },
        );
        let g = fc.gemm_dims(16).unwrap();
        assert_eq!((g.m, g.k, g.n), (4096, 9216, 16));
        assert_eq!(fc.weight_count(), 9216 * 4096);
        assert_eq!(fc.output_elements(16), 4096 * 16);
    }

    #[test]
    fn lstm_step_dims() {
        let lstm = Layer::new(
            "lstm",
            LayerKind::Recurrent {
                kind: RecurrentKind::Lstm,
                input_size: 1024,
                hidden_size: 1024,
            },
        );
        let g = lstm.gemm_dims(1).unwrap();
        assert_eq!((g.m, g.k, g.n), (4 * 1024, 2048, 1));
        assert_eq!(lstm.weight_count(), 4 * 1024 * 2048);
        let gru = Layer::new(
            "gru",
            LayerKind::Recurrent {
                kind: RecurrentKind::Gru,
                input_size: 512,
                hidden_size: 512,
            },
        );
        assert_eq!(gru.gemm_dims(1).unwrap().m, 3 * 512);
    }

    #[test]
    fn pool_and_activation_are_in_place_and_weightless() {
        let pool = Layer::new(
            "pool1",
            LayerKind::Pool {
                kind: PoolKind::Max,
                window: (3, 3),
                stride: (2, 2),
                channels: 96,
                input_hw: (55, 55),
            },
        );
        assert!(!pool.has_weights());
        assert_eq!(pool.gemm_dims(1), None);
        assert_eq!(pool.output_hw(), Some((27, 27)));
        assert_eq!(pool.macs(8), 0);

        let act = Layer::new(
            "relu",
            LayerKind::Activation {
                kind: ActivationKind::Relu,
                elements_per_sample: 1000,
            },
        );
        assert_eq!(act.output_elements(4), 4000);
    }

    #[test]
    fn byte_accounting_uses_two_byte_elements() {
        let fc = Layer::new(
            "fc",
            LayerKind::FullyConnected {
                in_features: 10,
                out_features: 20,
            },
        );
        assert_eq!(fc.output_bytes(3), 20 * 3 * 2);
        assert_eq!(fc.input_bytes(3), 10 * 3 * 2);
        assert_eq!(fc.weight_bytes(), 200 * 2);
    }

    #[test]
    fn fused_activation_is_recorded() {
        let layer = conv1().fused(ActivationKind::Relu);
        assert_eq!(layer.fused_activation(), Some(ActivationKind::Relu));
        assert_eq!(conv1().fused_activation(), None);
    }

    #[test]
    #[should_panic(expected = "batch size must be non-zero")]
    fn zero_batch_rejected() {
        let _ = conv1().gemm_dims(0);
    }

    #[test]
    fn recurrent_input_elements_include_hidden_state() {
        let lstm = Layer::new(
            "lstm",
            LayerKind::Recurrent {
                kind: RecurrentKind::Lstm,
                input_size: 100,
                hidden_size: 200,
            },
        );
        assert_eq!(lstm.input_elements(2), 2 * 300);
        assert_eq!(lstm.output_elements(2), 2 * 200);
    }
}
