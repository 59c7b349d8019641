//! Cycle-approximate performance model of a systolic-array neural processing
//! unit (NPU), modelled after the Google TPU as described in the PREMA paper
//! (Choi & Rhu, HPCA 2020, Section II-B and Table I).
//!
//! The crate provides:
//!
//! * [`NpuConfig`] — the architectural parameters of Table I (128×128
//!   weight-stationary systolic array, 700 MHz, 8 MB activation SRAM, 4 MB
//!   weight SRAM, 358 GB/s of DRAM bandwidth, 100-cycle access latency).
//! * [`Cycles`] — a strongly typed cycle counter with conversions to wall
//!   clock time for a given operating frequency.
//! * [`GemmShape`] and [`gemm::TilePlan`] — the inner/outer tiling of a GEMM
//!   onto the systolic array (Figure 3(c) of the paper).
//! * [`LayerWork`] and [`layer::LayerTiming`] — the double-buffered execution
//!   model of a single DNN layer, broken into *preemption intervals*
//!   (GEMM_OP boundaries) that carry the live output-activation footprint
//!   used for checkpointing (Section IV).
//! * [`memory::DmaModel`] and [`checkpoint`] — the fixed-bandwidth memory
//!   subsystem and the checkpoint/restore latency model.
//!
//! # Example
//!
//! ```
//! use npu_sim::{NpuConfig, GemmShape, LayerWork};
//!
//! let cfg = NpuConfig::paper_default();
//! // A fully-connected layer with 4096 outputs, 4096 inputs, batch 4.
//! let work = LayerWork::gemm(GemmShape::new(4096, 4096, 4), 4096 * 4 * 2);
//! let timing = npu_sim::layer::LayerTiming::model(&work, &cfg);
//! assert!(timing.total_cycles().get() > 0);
//! assert!(!timing.intervals().is_empty());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod cycles;
pub mod gemm;
pub mod layer;
pub mod memory;
pub mod vector;

pub use checkpoint::CheckpointModel;
pub use config::NpuConfig;
pub use cycles::Cycles;
pub use gemm::{GemmShape, TilePlan};
pub use layer::{LayerTiming, LayerWork, PreemptionInterval};
pub use memory::DmaModel;
pub use vector::VectorWork;
