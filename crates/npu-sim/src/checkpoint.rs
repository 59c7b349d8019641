//! Checkpoint / restore latency model for the CHECKPOINT preemption
//! mechanism (Section IV-B/IV-C of the PREMA paper).
//!
//! When a running inference task is preempted with CHECKPOINT, the NPU's trap
//! routine uses the DMA engine to spill the live output activations (the
//! contents of the UBUF and accumulator queue that were produced since the
//! last layer boundary) to DRAM; when the task is later resumed, the same
//! state is read back. Weights are never checkpointed because inference
//! weights are immutable.

use serde::{Deserialize, Serialize};

use crate::config::NpuConfig;
use crate::cycles::Cycles;
use crate::memory::DmaModel;

/// Latency model for checkpointing and restoring a preempted task's context.
///
/// ```
/// use npu_sim::{CheckpointModel, NpuConfig};
///
/// let cfg = NpuConfig::paper_default();
/// let model = CheckpointModel::new(&cfg);
/// // Checkpointing the full 8 MB of on-chip activation state takes tens of
/// // microseconds — the paper reports a 59 us worst case.
/// let worst = model.checkpoint_cycles(cfg.activation_sram_bytes);
/// assert!(cfg.cycles_to_micros(worst) > 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointModel {
    dma: DmaModel,
    trap_overhead: Cycles,
    channels: u64,
    max_bytes: u64,
}

impl CheckpointModel {
    /// Fixed cycles consumed by the software trap routine that initiates a
    /// checkpoint or restore (register state save, DMA descriptor setup).
    pub const TRAP_OVERHEAD_CYCLES: u64 = 500;

    /// Builds the checkpoint model from an NPU configuration.
    pub fn new(cfg: &NpuConfig) -> Self {
        CheckpointModel {
            dma: DmaModel::new(cfg),
            trap_overhead: Cycles::new(Self::TRAP_OVERHEAD_CYCLES),
            channels: cfg.memory_channels.max(1),
            max_bytes: cfg.max_checkpoint_bytes(),
        }
    }

    /// The largest context state that can ever need checkpointing (bounded by
    /// the on-chip activation storage).
    pub fn max_checkpoint_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Cycles to checkpoint `live_bytes` of context state to DRAM.
    ///
    /// This is the *preemption latency* reported in Figure 5(a): the time
    /// between the preemption request being serviced at a `GEMM_OP` boundary
    /// and the NPU being free to load the preempting task.
    pub fn checkpoint_cycles(&self, live_bytes: u64) -> Cycles {
        let bytes = live_bytes.min(self.max_bytes);
        if bytes == 0 {
            // Even an empty checkpoint runs the trap routine.
            return self.trap_overhead;
        }
        self.trap_overhead + self.dma.chunked_transfer_cycles(bytes, self.channels)
    }

    /// Cycles to restore a previously checkpointed context of `live_bytes`.
    ///
    /// Restoration is symmetric with checkpointing: the same data is streamed
    /// back through the DMA engine before the preempted task resumes.
    pub fn restore_cycles(&self, live_bytes: u64) -> Cycles {
        self.checkpoint_cycles(live_bytes)
    }

    /// The worst-case preemption latency under this configuration (the whole
    /// activation SRAM is live).
    pub fn worst_case_checkpoint_cycles(&self) -> Cycles {
        self.checkpoint_cycles(self.max_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (NpuConfig, CheckpointModel) {
        let cfg = NpuConfig::paper_default();
        let model = CheckpointModel::new(&cfg);
        (cfg, model)
    }

    #[test]
    fn empty_checkpoint_costs_only_the_trap() {
        let (_, m) = model();
        assert_eq!(
            m.checkpoint_cycles(0),
            Cycles::new(CheckpointModel::TRAP_OVERHEAD_CYCLES)
        );
    }

    #[test]
    fn checkpoint_is_monotone_in_bytes() {
        let (_, m) = model();
        let mut prev = Cycles::ZERO;
        for bytes in [0u64, 1 << 10, 1 << 16, 1 << 20, 1 << 23] {
            let c = m.checkpoint_cycles(bytes);
            assert!(c >= prev, "checkpoint cycles must not decrease");
            prev = c;
        }
    }

    #[test]
    fn checkpoint_bytes_are_capped_at_sram_size() {
        let (cfg, m) = model();
        assert_eq!(
            m.checkpoint_cycles(cfg.activation_sram_bytes),
            m.checkpoint_cycles(u64::MAX)
        );
    }

    #[test]
    fn worst_case_is_tens_of_microseconds() {
        let (cfg, m) = model();
        let us = cfg.cycles_to_micros(m.worst_case_checkpoint_cycles());
        // Paper: worst case 59 us when the entire 8 MB of UBUF/ACCQ is
        // checkpointed. Our fixed-bandwidth model lands in the same regime.
        assert!(us > 10.0 && us < 100.0, "worst case {us} us");
    }

    #[test]
    fn restore_matches_checkpoint() {
        let (_, m) = model();
        for bytes in [0u64, 4096, 1 << 20] {
            assert_eq!(m.checkpoint_cycles(bytes), m.restore_cycles(bytes));
        }
    }

    #[test]
    fn max_checkpoint_bytes_reflects_config() {
        let (cfg, m) = model();
        assert_eq!(m.max_checkpoint_bytes(), cfg.activation_sram_bytes);
    }

    #[test]
    fn smaller_sram_means_smaller_worst_case() {
        let small_cfg = NpuConfig {
            activation_sram_bytes: 1 << 20,
            ..NpuConfig::paper_default()
        };
        assert!(small_cfg.validate().is_ok());
        let small = CheckpointModel::new(&small_cfg);
        let (_, big) = model();
        assert!(small.worst_case_checkpoint_cycles() < big.worst_case_checkpoint_cycles());
    }
}
