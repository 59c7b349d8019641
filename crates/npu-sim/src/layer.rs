//! Layer-level execution model: double-buffered tile execution, preemption
//! intervals, and the live checkpoint footprint.
//!
//! The scheduler in `prema-core` never simulates individual cycles. Instead,
//! every layer of a DNN is modelled once as a [`LayerTiming`]: a short list of
//! [`PreemptionInterval`]s, each covering a group of consecutive `GEMM_OP`
//! tiles. Interval boundaries are the legal CHECKPOINT preemption points
//! (Section IV-C footnote 2 of the paper), and every interval records the
//! output-activation bytes that would have to be checkpointed if the task is
//! preempted at its end.

use serde::{Deserialize, Serialize};

use crate::config::NpuConfig;
use crate::cycles::Cycles;
use crate::gemm::{GemmShape, TilePlan};
use crate::memory::DmaModel;
use crate::vector::{VectorOpKind, VectorWork};

/// Default number of preemption intervals a single layer is coalesced into.
///
/// Large layers can consist of thousands of `GEMM_OP` tiles; tracking each
/// individually would be needlessly expensive for the multi-task scheduler.
/// Grouping them into at most this many intervals keeps the preemption-point
/// granularity far below the scheduling quantum (0.25 ms) while bounding
/// memory.
pub const DEFAULT_INTERVALS_PER_LAYER: usize = 32;

/// The architectural work performed by one DNN layer, independent of any
/// particular model-zoo representation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerWork {
    /// The GEMM this layer lowers to, if it runs on the systolic array.
    pub gemm: Option<GemmShape>,
    /// Element-wise work executed on the vector unit (activation functions,
    /// pooling, residual adds), possibly fused with the GEMM.
    pub vector: Option<VectorWork>,
    /// Weight bytes streamed from DRAM for this layer.
    pub weight_bytes: u64,
    /// Input-activation bytes streamed from DRAM (or the previous layer's
    /// on-chip outputs).
    pub input_bytes: u64,
    /// Output-activation bytes produced by this layer.
    pub output_bytes: u64,
    /// Whether the layer operates in place (ACTV / POOL): in-place layers
    /// produce no new checkpointable state of their own.
    pub in_place: bool,
}

impl LayerWork {
    /// A layer executed as a matrix multiplication on the systolic array: a
    /// fully-connected or recurrent layer, or a convolution lowered to one.
    pub fn gemm(shape: GemmShape, output_bytes: u64) -> Self {
        LayerWork {
            gemm: Some(shape),
            vector: None,
            weight_bytes: shape.weight_bytes(),
            input_bytes: shape.input_bytes(),
            output_bytes,
            in_place: false,
        }
    }

    /// A layer executed purely on the vector unit (activation or pooling
    /// layer that was not fused with its producer).
    pub fn vector_only(work: VectorWork, data_bytes: u64) -> Self {
        LayerWork {
            gemm: None,
            vector: Some(work),
            weight_bytes: 0,
            input_bytes: data_bytes,
            output_bytes: data_bytes,
            in_place: true,
        }
    }

    /// Fuses an element-wise operation (e.g. ReLU) with this layer's GEMM.
    pub fn with_fused_vector(mut self, kind: VectorOpKind, elements: u64) -> Self {
        self.vector = Some(VectorWork::new(kind, elements));
        self
    }

    /// Total MAC operations performed by this layer.
    pub fn macs(&self) -> u64 {
        self.gemm.map(|g| g.macs()).unwrap_or(0)
    }
}

/// One preemption interval: a group of consecutive `GEMM_OP` tiles (or a
/// slice of vector-unit work) bounded by legal preemption points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreemptionInterval {
    /// Execution cycles covered by this interval.
    pub cycles: Cycles,
    /// Output-activation bytes that must be checkpointed if the task is
    /// preempted at the end of this interval (live state in UBUF + ACCQ).
    pub live_output_bytes: u64,
}

/// The modelled execution of a single layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    intervals: Vec<PreemptionInterval>,
    total_cycles: Cycles,
    compute_cycles: Cycles,
    memory_cycles: Cycles,
    macs: u64,
}

impl LayerTiming {
    /// Models `work` on the NPU described by `cfg` with the default
    /// preemption-interval granularity.
    pub fn model(work: &LayerWork, cfg: &NpuConfig) -> Self {
        Self::model_with_intervals(work, cfg, DEFAULT_INTERVALS_PER_LAYER)
    }

    /// Models `work`, coalescing tiles into at most `max_intervals`
    /// preemption intervals.
    ///
    /// A [`TilePlan`] contains at most two *distinct* tiles — the repeated
    /// full-size inner tile and the optional n-dimension edge tile — so each
    /// interval's cycle count and live-byte total is computed in closed form
    /// from the number of inner/outer tiles it covers, instead of walking
    /// every `GEMM_OP` individually. A GEMM lowering to tens of thousands of
    /// tiles therefore models in O(`max_intervals`) rather than O(tiles),
    /// and the produced intervals are bit-identical to the per-tile walk
    /// (the grouping, the first-interval DMA lead-in and the per-tile
    /// checkpoint-footprint clamp all commute with the batching; a
    /// regression test in this module pins the equivalence).
    ///
    /// # Panics
    ///
    /// Panics if `max_intervals` is zero.
    pub fn model_with_intervals(work: &LayerWork, cfg: &NpuConfig, max_intervals: usize) -> Self {
        assert!(max_intervals > 0, "max_intervals must be non-zero");
        let dma = DmaModel::new(cfg);

        let mut intervals = Vec::new();
        let mut compute_total = Cycles::ZERO;
        let mut memory_total = Cycles::ZERO;
        let mut total = Cycles::ZERO;

        if let Some(shape) = work.gemm {
            let plan = TilePlan::new(shape, cfg);
            let inner_count = plan.inner_tile_count();
            let tile_count = plan.tile_count();
            let tiles_per_interval = tile_count.div_ceil(max_intervals as u64).max(1);

            let inner = plan.inner_tile();
            let outer = plan.outer_tile();
            let (outer_latency, outer_compute, outer_memory, outer_out_bytes) = outer
                .map(|t| {
                    (
                        t.latency(),
                        t.compute_cycles,
                        t.memory_cycles,
                        t.output_bytes,
                    )
                })
                .unwrap_or((Cycles::ZERO, Cycles::ZERO, Cycles::ZERO, 0));

            // The first operand fetch cannot be hidden behind compute: charge
            // it as a lead-in on the first interval (double buffering warms up
            // after the first tile).
            let first_tile = if inner_count > 0 { Some(inner) } else { outer };
            let lead_in = first_tile
                .map(|t| t.memory_cycles + dma.access_latency())
                .unwrap_or(Cycles::ZERO);

            let outer_count = tile_count - inner_count;
            compute_total += inner.compute_cycles * inner_count + outer_compute * outer_count;
            memory_total += inner.memory_cycles * inner_count + outer_memory * outer_count;

            let cap = cfg.max_checkpoint_bytes();
            let mut live_bytes: u64 = 0;
            let mut start = 0u64;
            while start < tile_count {
                let end = (start + tiles_per_interval).min(tile_count);
                let inner_in = end.min(inner_count).saturating_sub(start.min(inner_count));
                let outer_in = (end - start) - inner_in;
                let mut acc_cycles = inner.latency() * inner_in + outer_latency * outer_in;
                if start == 0 {
                    acc_cycles += lead_in;
                }
                // Saturating: the per-tile walk clamps at `cap` after every
                // tile and so can never overflow; a saturated batched sum
                // clamps to the same `cap`.
                live_bytes = live_bytes
                    .saturating_add(inner.output_bytes.saturating_mul(inner_in))
                    .saturating_add(outer_out_bytes.saturating_mul(outer_in))
                    .min(cap);
                intervals.push(PreemptionInterval {
                    cycles: acc_cycles,
                    live_output_bytes: live_bytes,
                });
                total += acc_cycles;
                start = end;
            }
        }

        // Vector-unit work: fused work overlaps with the systolic array and is
        // only charged for the part that exceeds the GEMM time; standalone
        // (in-place ACTV/POOL) layers are charged in full as a single
        // interval that carries no checkpointable state.
        if let Some(v) = work.vector {
            let v_cycles = v.cycles(cfg);
            if work.gemm.is_some() {
                if v_cycles > total {
                    let extra = v_cycles - total;
                    total += extra;
                    if let Some(last) = intervals.last_mut() {
                        last.cycles += extra;
                    }
                }
            } else {
                let io_cycles = if work.in_place {
                    Cycles::ZERO
                } else {
                    dma.transfer_cycles(work.input_bytes + work.output_bytes)
                };
                let cycles = v_cycles + io_cycles;
                intervals.push(PreemptionInterval {
                    cycles,
                    live_output_bytes: 0,
                });
                total += cycles;
            }
        }

        // A layer with neither GEMM nor vector work (e.g. a reshape) still
        // appears as one zero-byte interval so that plans never contain empty
        // layers.
        if intervals.is_empty() {
            intervals.push(PreemptionInterval {
                cycles: Cycles::ZERO,
                live_output_bytes: 0,
            });
        }

        LayerTiming {
            intervals,
            total_cycles: total,
            compute_cycles: compute_total,
            memory_cycles: memory_total,
            macs: work.macs(),
        }
    }

    /// The preemption intervals of this layer, in execution order.
    pub fn intervals(&self) -> &[PreemptionInterval] {
        &self.intervals
    }

    /// Consumes the timing and returns its intervals without cloning, for
    /// callers (like `prema-core`'s execution-plan compiler) that keep the
    /// intervals past the timing.
    pub fn into_intervals(self) -> Vec<PreemptionInterval> {
        self.intervals
    }

    /// Total modelled execution time of the layer.
    pub fn total_cycles(&self) -> Cycles {
        self.total_cycles
    }

    /// Aggregate compute-phase cycles across all tiles (before overlap).
    pub fn compute_cycles(&self) -> Cycles {
        self.compute_cycles
    }

    /// Aggregate memory-phase cycles across all tiles (before overlap).
    pub fn memory_cycles(&self) -> Cycles {
        self.memory_cycles
    }

    /// Total MAC operations of the layer.
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Effective MAC throughput in operations per cycle, a measure of how
    /// well the layer utilizes the systolic array (Figure 10 of the paper).
    pub fn effective_macs_per_cycle(&self) -> f64 {
        if self.total_cycles.is_zero() {
            0.0
        } else {
            self.macs as f64 / self.total_cycles.get() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    #[test]
    fn gemm_layer_total_matches_tile_plan_plus_lead_in() {
        let c = cfg();
        let shape = GemmShape::new(512, 512, 4096);
        let work = LayerWork::gemm(shape, shape.output_bytes());
        let timing = LayerTiming::model(&work, &c);
        let plan = TilePlan::new(shape, &c);
        let lead_in =
            plan.iter().next().unwrap().memory_cycles + Cycles::new(c.memory_latency_cycles);
        assert_eq!(timing.total_cycles(), plan.total_cycles() + lead_in);
    }

    #[test]
    fn interval_cycles_sum_to_total() {
        let c = cfg();
        let shape = GemmShape::new(4096, 4096, 16);
        let work = LayerWork::gemm(shape, shape.output_bytes());
        let timing = LayerTiming::model(&work, &c);
        let sum: Cycles = timing.intervals().iter().map(|i| i.cycles).sum();
        assert_eq!(sum, timing.total_cycles());
    }

    #[test]
    fn interval_count_is_bounded() {
        let c = cfg();
        let shape = GemmShape::new(4096, 25088, 64);
        let work = LayerWork::gemm(shape, shape.output_bytes());
        let timing = LayerTiming::model(&work, &c);
        assert!(timing.intervals().len() <= DEFAULT_INTERVALS_PER_LAYER);
        assert!(timing.intervals().len() > 1);
    }

    #[test]
    fn live_bytes_are_monotone_and_capped() {
        let c = cfg();
        // A huge layer whose outputs exceed the activation SRAM.
        let shape = GemmShape::new(8192, 1024, 4096);
        let work = LayerWork::gemm(shape, shape.output_bytes());
        let timing = LayerTiming::model(&work, &c);
        let mut prev = 0;
        for interval in timing.intervals() {
            assert!(interval.live_output_bytes >= prev);
            assert!(interval.live_output_bytes <= c.max_checkpoint_bytes());
            prev = interval.live_output_bytes;
        }
        // Monotone, so the last footprint is the peak: the cap itself.
        assert_eq!(prev, c.max_checkpoint_bytes());
    }

    #[test]
    fn vector_only_layer_has_no_checkpoint_state() {
        let c = cfg();
        let work =
            LayerWork::vector_only(VectorWork::new(VectorOpKind::MaxPool, 1_000_000), 2_000_000);
        let timing = LayerTiming::model(&work, &c);
        assert!(timing.intervals().iter().all(|i| i.live_output_bytes == 0));
        assert!(timing.total_cycles() > Cycles::ZERO);
        assert_eq!(timing.macs(), 0);
    }

    #[test]
    fn fused_activation_does_not_dominate() {
        let c = cfg();
        let shape = GemmShape::new(512, 512, 4096);
        let plain = LayerTiming::model(&LayerWork::gemm(shape, shape.output_bytes()), &c);
        let fused = LayerTiming::model(
            &LayerWork::gemm(shape, shape.output_bytes())
                .with_fused_vector(VectorOpKind::Relu, shape.output_elements()),
            &c,
        );
        // ReLU over the outputs is far cheaper than the GEMM, so fusing it is free.
        assert_eq!(plain.total_cycles(), fused.total_cycles());
    }

    #[test]
    fn empty_layer_has_single_zero_interval() {
        let c = cfg();
        let work = LayerWork {
            gemm: None,
            vector: None,
            weight_bytes: 0,
            input_bytes: 0,
            output_bytes: 0,
            in_place: true,
        };
        let timing = LayerTiming::model(&work, &c);
        assert_eq!(timing.intervals().len(), 1);
        assert_eq!(timing.total_cycles(), Cycles::ZERO);
    }

    #[test]
    fn effective_throughput_reflects_underutilization() {
        let c = cfg();
        // A 1x1-conv-like layer with tiny reduction depth underutilizes the array.
        let small_k = LayerWork::gemm(GemmShape::new(256, 32, 4096), 256 * 4096 * 2);
        // A large FC layer keeps the array busy.
        let big = LayerWork::gemm(GemmShape::new(4096, 4096, 2048), 4096 * 2048 * 2);
        let t_small = LayerTiming::model(&small_k, &c);
        let t_big = LayerTiming::model(&big, &c);
        assert!(t_big.effective_macs_per_cycle() > t_small.effective_macs_per_cycle());
    }

    #[test]
    #[should_panic(expected = "max_intervals must be non-zero")]
    fn zero_intervals_rejected() {
        let c = cfg();
        let work = LayerWork::gemm(GemmShape::new(1, 1, 1), 2);
        let _ = LayerTiming::model_with_intervals(&work, &c, 0);
    }

    /// The original O(tiles) interval construction, kept as the test oracle
    /// for the closed-form grouping in [`LayerTiming::model_with_intervals`].
    fn intervals_by_tile_walk(
        work: &LayerWork,
        cfg: &NpuConfig,
        max_intervals: usize,
    ) -> Vec<PreemptionInterval> {
        let dma = DmaModel::new(cfg);
        let mut intervals = Vec::new();
        let Some(shape) = work.gemm else {
            return intervals;
        };
        let plan = TilePlan::new(shape, cfg);
        let tiles_per_interval = plan.tile_count().div_ceil(max_intervals as u64).max(1);
        let lead_in = plan
            .iter()
            .next()
            .map(|t| t.memory_cycles + dma.access_latency())
            .unwrap_or(Cycles::ZERO);
        let mut live_bytes: u64 = 0;
        let mut acc_cycles = Cycles::ZERO;
        let mut tiles_in_group = 0u64;
        let mut emitted_lead_in = false;
        for tile in plan.iter() {
            let mut cycles = tile.latency();
            if !emitted_lead_in {
                cycles += lead_in;
                emitted_lead_in = true;
            }
            acc_cycles += cycles;
            live_bytes = (live_bytes + tile.output_bytes).min(cfg.max_checkpoint_bytes());
            tiles_in_group += 1;
            if tiles_in_group == tiles_per_interval {
                intervals.push(PreemptionInterval {
                    cycles: acc_cycles,
                    live_output_bytes: live_bytes,
                });
                acc_cycles = Cycles::ZERO;
                tiles_in_group = 0;
            }
        }
        if tiles_in_group > 0 {
            intervals.push(PreemptionInterval {
                cycles: acc_cycles,
                live_output_bytes: live_bytes,
            });
        }
        intervals
    }

    #[test]
    fn closed_form_intervals_match_per_tile_walk() {
        let c = cfg();
        // Shapes chosen to cover: single outer tile, inner-only, inner+outer
        // mixed groups, groups that straddle the inner/outer boundary, and
        // live-byte saturation at the checkpoint cap.
        let shapes = [
            GemmShape::new(64, 64, 100),
            GemmShape::new(256, 256, c.accumulator_depth * 3),
            GemmShape::new(300, 520, c.accumulator_depth * 2 + 7),
            GemmShape::new(4096, 25088, 64),
            GemmShape::new(8192, 1024, 4096),
            GemmShape::new(1, 1, 1),
            GemmShape::new(512, 512, 5000),
        ];
        for shape in shapes {
            let work = LayerWork::gemm(shape, shape.output_bytes());
            for max_intervals in [1usize, 2, 7, 32, 1000] {
                let timing = LayerTiming::model_with_intervals(&work, &c, max_intervals);
                let reference = intervals_by_tile_walk(&work, &c, max_intervals);
                assert_eq!(
                    timing.intervals(),
                    &reference[..],
                    "{shape:?} with max_intervals {max_intervals}"
                );
                let plan = TilePlan::new(shape, &c);
                let compute: Cycles = plan.iter().map(|t| t.compute_cycles).sum();
                let memory: Cycles = plan.iter().map(|t| t.memory_cycles).sum();
                assert_eq!(timing.compute_cycles(), compute);
                assert_eq!(timing.memory_cycles(), memory);
            }
        }
    }

    #[test]
    fn into_intervals_matches_borrowed_accessor() {
        let c = cfg();
        let shape = GemmShape::new(512, 512, 4096);
        let work = LayerWork::gemm(shape, shape.output_bytes());
        let timing = LayerTiming::model(&work, &c);
        let borrowed = timing.intervals().to_vec();
        assert_eq!(timing.into_intervals(), borrowed);
    }

    #[test]
    fn macs_propagated_from_shape() {
        let c = cfg();
        let shape = GemmShape::new(128, 128, 128);
        let timing = LayerTiming::model(&LayerWork::gemm(shape, 1), &c);
        assert_eq!(timing.macs(), shape.macs());
    }
}
