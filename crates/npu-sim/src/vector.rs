//! Timing model for the vector (element-wise) unit.
//!
//! `VECTOR_OP` instructions apply activation functions, pooling reductions,
//! bias additions and residual additions to the output activations produced
//! by the GEMM unit. The unit processes `vector_lanes` elements per cycle and
//! its work is typically fused with the producing layer (Section IV-B), so
//! the model only needs the element count.

use serde::{Deserialize, Serialize};

use crate::config::NpuConfig;
use crate::cycles::Cycles;

/// Element-wise operations executed on the vector unit via `VECTOR_OP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorOpKind {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the innermost dimension.
    Softmax,
    /// Element-wise addition (residual connections, bias add).
    Add,
    /// Max pooling window reduction.
    MaxPool,
    /// Average pooling window reduction.
    AvgPool,
}

/// The element-wise work attached to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorWork {
    /// The kind of element-wise operation.
    pub kind: VectorOpKind,
    /// Number of elements processed.
    pub elements: u64,
}

impl VectorWork {
    /// Creates a new vector-unit work description.
    pub fn new(kind: VectorOpKind, elements: u64) -> Self {
        VectorWork { kind, elements }
    }

    /// Cycles needed to process this work on the vector unit.
    ///
    /// Transcendental activations (sigmoid, tanh, softmax) are modelled at a
    /// quarter of the lane throughput to reflect their multi-cycle pipelines;
    /// everything else runs at one element per lane per cycle.
    pub fn cycles(&self, cfg: &NpuConfig) -> Cycles {
        if self.elements == 0 {
            return Cycles::ZERO;
        }
        let lanes = cfg.vector_lanes.max(1);
        let throughput_divisor = match self.kind {
            VectorOpKind::Sigmoid | VectorOpKind::Tanh | VectorOpKind::Softmax => 4,
            VectorOpKind::Relu
            | VectorOpKind::Add
            | VectorOpKind::MaxPool
            | VectorOpKind::AvgPool => 1,
        };
        let effective_lanes = (lanes / throughput_divisor).max(1);
        Cycles::new(self.elements.div_ceil(effective_lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    #[test]
    fn zero_elements_take_zero_cycles() {
        let w = VectorWork::new(VectorOpKind::Relu, 0);
        assert_eq!(w.cycles(&cfg()), Cycles::ZERO);
    }

    #[test]
    fn relu_runs_at_full_lane_throughput() {
        let c = cfg();
        let w = VectorWork::new(VectorOpKind::Relu, c.vector_lanes * 10);
        assert_eq!(w.cycles(&c), Cycles::new(10));
    }

    #[test]
    fn partial_vector_rounds_up() {
        let c = cfg();
        let w = VectorWork::new(VectorOpKind::Add, c.vector_lanes + 1);
        assert_eq!(w.cycles(&c), Cycles::new(2));
    }

    #[test]
    fn transcendental_ops_are_slower() {
        let c = cfg();
        let relu = VectorWork::new(VectorOpKind::Relu, 4096);
        let tanh = VectorWork::new(VectorOpKind::Tanh, 4096);
        assert!(tanh.cycles(&c) > relu.cycles(&c));
        assert_eq!(tanh.cycles(&c).get(), relu.cycles(&c).get() * 4);
    }

    #[test]
    fn single_lane_config_still_progresses() {
        let c = NpuConfig {
            vector_lanes: 1,
            ..NpuConfig::paper_default()
        };
        assert!(c.validate().is_ok());
        let w = VectorWork::new(VectorOpKind::Softmax, 7);
        assert_eq!(w.cycles(&c), Cycles::new(7));
    }
}
