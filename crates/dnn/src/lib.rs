//! DNN layer intermediate representation, networks, and the model zoo used
//! by the PREMA reproduction (Section III of the paper).
//!
//! The crate provides:
//!
//! * [`Layer`] / [`LayerKind`] — a compact layer IR covering the layer types
//!   the paper enumerates (CONV, depthwise CONV, FC, ACTV, POOL, RECR) with
//!   shape arithmetic, MAC counts, and GEMM lowering dimensions.
//! * [`Network`] — a model's layers in the order the NPU executes them,
//!   fixed at compile time (Section II-A).
//! * [`ModelKind`] and the [`models`] module — builders for the eight
//!   evaluation DNNs (CNN-AN/GN/VN/MN and RNN-SA/MT1/MT2/ASR) plus ResNet-50
//!   used by the Figure 1 co-location experiment.
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
pub use network::Network;
pub use sparsity::ActivationDensityModel;
