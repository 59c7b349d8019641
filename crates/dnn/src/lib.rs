//! DNN layer intermediate representation, networks, and the model zoo used
//! by the PREMA reproduction (Section III of the paper).
//!
//! The crate provides:
//!
//! * [`Layer`] / [`LayerKind`] — a compact layer IR covering the layer types
//!   the paper enumerates (CONV, depthwise CONV, FC, ACTV, POOL, RECR) with
//!   shape arithmetic, MAC counts, and GEMM lowering dimensions.
//! * [`LayerSink`] — where a model builder pushes its layers, in the order
//!   the NPU executes them, fixed at compile time (Section II-A). Two sinks
//!   take them: [`Network`] keeps every layer under its name, and
//!   [`LayerShapes`] keeps each distinct layer shape once plus a `u32`
//!   execution order, formatting no name. Plan compilation and the
//!   predictor read [`LayerShapes`]: an unrolled RNN's hundreds of layers
//!   take a handful of shapes.
//! * [`ModelKind`] and the [`models`] module — builders for the eight
//!   evaluation DNNs (CNN-AN/GN/VN/MN and RNN-SA/MT1/MT2/ASR) plus ResNet-50
//!   used by the Figure 1 co-location experiment; [`ModelKind::build`]
//!   yields the [`Network`], [`ModelKind::shapes`] the [`LayerShapes`].
//! * [`lowering`] — the mapping of a layer onto the systolic-array NPU's
//!   [`npu_sim::LayerWork`] description.
//! * [`sparsity`] — the per-layer activation-density model used to reproduce
//!   Figure 7.
//!
//! # Example
//!
//! ```
//! use dnn_models::{ModelKind, SeqSpec};
//!
//! let net = ModelKind::CnnAlexNet.build(4, SeqSpec::none());
//! assert!(net.layer_count() > 10);
//! assert!(net.total_macs() > 1_000_000_000); // batch-4 AlexNet is ~ billions of MACs
//!
//! // 20 encoder and 24 decoder steps of the same few cells.
//! let shapes = ModelKind::RnnTranslation1.shapes(1, SeqSpec::new(20, 24));
//! assert_eq!(shapes.order().len(), 20 * 4 + 24 * 6);
//! assert_eq!(shapes.distinct().len(), 3);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layer;
pub mod lowering;
pub mod models;
pub mod network;
pub mod sparsity;

pub use layer::{ActivationKind, Layer, LayerKind, PoolKind, RecurrentKind};
pub use models::{ModelKind, SeqSpec, ALL_EVAL_MODELS, CNN_MODELS, RNN_MODELS};
pub use network::{LayerShapes, LayerSink, Network};
pub use sparsity::ActivationDensityModel;
