//! Inference-time prediction for multi-tasked NPU scheduling (Section V-B
//! of the PREMA paper).
//!
//! PREMA's scheduling decisions — dynamic token assignment, shortest-job
//! candidate selection and dynamic preemption-mechanism selection — all rely
//! on an estimate of each inference task's end-to-end execution time. This
//! crate implements the paper's predictor:
//!
//! * [`analytical`] — the architecture-aware analytical node-level model
//!   (Algorithm 1) tailored to the weight-stationary systolic array.
//! * [`seqlen`] — the profile-driven regression (lookup table) that predicts
//!   the time-unrolled output sequence length of seq2seq RNNs from the
//!   statically known input sequence length (Figure 9).
//!
//! The Section VI-D oracle needs no predictor: preparing a workload without
//! one attaches each task's exact simulated execution time instead.
//!
//! # Example
//!
//! ```
//! use npu_sim::NpuConfig;
//! use dnn_models::ModelKind;
//! use prema_predictor::AnalyticalPredictor;
//!
//! let cfg = NpuConfig::paper_default();
//! let predictor = AnalyticalPredictor::new(cfg.clone());
//! let cycles = predictor.predict_cycles(ModelKind::CnnAlexNet, 1, 0);
//! // AlexNet inference is on the order of a millisecond on the modelled TPU.
//! assert!(cfg.cycles_to_millis(cycles) > 0.05);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytical;
pub mod seqlen;

pub use analytical::{AnalyticalPredictor, EstimateCacheStats};
pub use seqlen::SeqLenTable;
