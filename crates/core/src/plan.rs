//! Execution plans: a task's DNN compiled down to preemption intervals.
//!
//! Before a request is dispatched to the NPU, its model (at the request's
//! batch size and actual sequence lengths) is lowered onto the NPU timing
//! model. The result is an [`ExecutionPlan`]: for every layer, a short list
//! of [`PreemptionInterval`]s whose boundaries are the legal CHECKPOINT
//! preemption points and which carry the live output-activation footprint
//! at each point.
//!
//! [`ProgressCursor`] tracks how far through its plan a task has executed,
//! supports advancing by an arbitrary number of cycles, and answers the two
//! questions the preemption machinery needs: "how long until the next legal
//! preemption point?" and "how many bytes are live right now?".
//!
//! # Design note: distinct layers and the event horizon
//!
//! The simulation engine advances a running task by hundreds of thousands of
//! cycles per scheduling event, so finding the task's position must not walk
//! the plan one interval at a time. Compilation therefore gives each layer
//! a local prefix-sum table (the cycle count from the layer's start through
//! the end of each of its intervals) and records where each layer starts.
//!
//! An unrolled RNN executes the same cell at every timestep, so most of a
//! plan's layers repeat an earlier layer of the same plan exactly (98.7 %
//! or more of the layers in the host-time benchmark's plans). Layer timing
//! is a pure function of the layer's shape, the batch and the NPU
//! configuration, so [`ExecutionPlan::compile`] compiles from the model's
//! distinct layer shapes ([`dnn_models::LayerShapes`], from
//! [`ModelKind::shapes`]): it lowers and times each distinct shape once and
//! lays the plan out from the shapes' execution order. It never builds the
//! named network, so an unrolled layer costs a shape comparison and a
//! `u32` push, not a formatted name, a lowering and a comparison of lowered
//! works. No two shapes of a model lower to the same work, so the plan
//! equals the per-layer compile (build the network, lower every layer,
//! dedupe the works); that compile survives as the tests' oracle. The plan
//! stores:
//!
//! - the distinct [`LayerPlan`]s, each with its local prefix-sum table;
//! - per layer, in execution order, only the index of its distinct layer
//!   and the absolute cycle at which it starts.
//!
//! A plan therefore costs memory in proportion to its distinct layers (a
//! handful for an RNN) plus 12 bytes per executed layer, not per interval.
//!
//! # Design note: a positionless cursor
//!
//! The cursor is only the cycles executed and a completion flag.
//! [`ProgressCursor::advance`] is O(1): one add and one compare against the
//! plan's total, reading no plan table. The engine advances the running
//! task at every step but needs its position in the plan only when it
//! preempts or salvages it, so the queries that read the position —
//! [`ProgressCursor::cycles_to_boundary`] (how far a CHECKPOINT drains),
//! [`ProgressCursor::live_checkpoint_bytes`] (what it spills),
//! [`ProgressCursor::in_interval`] (what a crash loses) and
//! [`ProgressCursor::layer_index`] — look it up on demand with two binary
//! searches: over the layer starts, then over that layer's local table. On
//! the host-time benchmark at seed 1, one pass advances cursors 257,370
//! times on paper-grid, 367,321 times on fleet-1024 and 283,463 times on
//! storm-256, and looks a position up only 21,032, 0 and 12,084 times
//! (CHECKPOINT preemptions, salvages and migration previews). A cursor that
//! kept its position ran both searches on 94 %, 78 % and 87 % of those
//! advances.
//!
//! The position depends only on the cycles executed: it is the interval
//! holding them or, on an interval boundary, the interval after the
//! non-zero-cycle interval that ends there (the plan's first interval
//! before anything executed). A budget that runs past the plan's end
//! completes the plan. One that lands exactly on the end completes it only
//! when the plan's last interval is not zero-cycle; otherwise the cursor
//! sits on the first trailing zero-cycle interval until a non-zero budget
//! walks it through the rest. [`ExecutionPlan`] computes that flag once.
//!
//! The original nested interval walk survives as
//! [`reference::ReferenceCursor`], which reads only the raw
//! [`LayerPlan::intervals`] of each layer. It is the oracle the tests replay
//! random plans and budgets against to pin the cursor to the exact
//! historical semantics (including zero-cycle intervals and layer-boundary
//! normalization).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dnn_models::lowering::lower_layer;
use dnn_models::{ModelKind, SeqSpec};
use npu_sim::{Cycles, LayerTiming, LayerWork, NpuConfig, PreemptionInterval};

/// The modelled execution of one layer: its preemption intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Preemption intervals in execution order.
    pub intervals: Vec<PreemptionInterval>,
    /// Total cycles of the layer (sum of interval cycles).
    pub total_cycles: Cycles,
    /// Total MAC operations of the layer.
    pub macs: u64,
}

/// One distinct layer of a plan and its local prefix-sum table (see the
/// module-level design note). Built once at compile time; immutable after.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DistinctLayer {
    layer: LayerPlan,
    /// `ends[k]` is the cycle count from the layer's start through the end
    /// of its interval `k`; the last entry is the layer's length.
    ends: Vec<Cycles>,
}

/// A task's complete compiled execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Every distinct layer once, in order of first execution.
    distinct: Vec<DistinctLayer>,
    /// `order[l]` is the index into `distinct` of layer `l`.
    order: Vec<u32>,
    /// `starts[l]` is the cycle at which layer `l` starts.
    starts: Vec<Cycles>,
    total_cycles: Cycles,
    /// Whether a cursor landing exactly on the plan's end completes it:
    /// true unless the plan's last interval is zero-cycle.
    exact_end_completes: bool,
}

/// Splits `items` into its distinct values, in order of first appearance,
/// and the index of each item's value among them. The tests' per-layer
/// compile oracle dedupes lowered works with it.
#[cfg(test)]
fn dedupe<T: PartialEq>(items: Vec<T>) -> (Vec<T>, Vec<u32>) {
    let mut distinct: Vec<T> = Vec::new();
    let order = items
        .into_iter()
        .map(|item| {
            let slot = distinct.iter().position(|d| *d == item).unwrap_or_else(|| {
                distinct.push(item);
                distinct.len() - 1
            });
            slot as u32
        })
        .collect();
    (distinct, order)
}

impl LayerPlan {
    /// Times one lowered layer on the NPU described by `cfg`.
    fn model(work: &LayerWork, cfg: &NpuConfig) -> Self {
        let timing = LayerTiming::model(work, cfg);
        let total_cycles = timing.total_cycles();
        let macs = timing.macs();
        LayerPlan {
            intervals: timing.into_intervals(),
            total_cycles,
            macs,
        }
    }
}

impl ExecutionPlan {
    /// Compiles `model` at `batch`/`seq` onto the NPU described by `cfg`.
    ///
    /// Lowers and times each distinct layer shape ([`ModelKind::shapes`])
    /// once, however often the network executes it, and lays the plan out
    /// in execution order. No network is built and no layer is named.
    pub fn compile(model: ModelKind, batch: u64, seq: SeqSpec, cfg: &NpuConfig) -> Self {
        Self::compile_counting(model, batch, seq, cfg).0
    }

    /// [`Self::compile`], also returning how many layers it lowered: one
    /// per distinct shape.
    fn compile_counting(
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        cfg: &NpuConfig,
    ) -> (Self, usize) {
        let (shapes, mut order) = model.shapes(batch, seq).into_parts();
        // The order grew by pushes; the plan keeps it for its lifetime.
        order.shrink_to_fit();
        let layers = shapes
            .iter()
            .map(|shape| LayerPlan::model(&lower_layer(shape, batch), cfg))
            .collect();
        (Self::from_distinct(layers, order), shapes.len())
    }

    /// Assembles a plan from per-layer plans in execution order, sharing
    /// the tables of equal layers.
    #[cfg(test)]
    fn from_layers(layers: Vec<LayerPlan>) -> Self {
        let (distinct, order) = dedupe(layers);
        Self::from_distinct(distinct, order)
    }

    /// Assembles a plan that executes `distinct[order[0]]`,
    /// `distinct[order[1]]`, ... and builds its prefix-sum tables.
    fn from_distinct(distinct: Vec<LayerPlan>, order: Vec<u32>) -> Self {
        let distinct: Vec<DistinctLayer> = distinct
            .into_iter()
            .map(|layer| {
                let ends = layer
                    .intervals
                    .iter()
                    .scan(Cycles::ZERO, |end, interval| {
                        *end += interval.cycles;
                        Some(*end)
                    })
                    .collect();
                DistinctLayer { layer, ends }
            })
            .collect();
        let mut starts = Vec::with_capacity(order.len());
        let mut cumulative = Cycles::ZERO;
        for &slot in &order {
            starts.push(cumulative);
            let ends = &distinct[slot as usize].ends;
            cumulative += *ends.last().expect("a layer has at least one interval");
        }
        let last = order.last().expect("a plan has at least one layer");
        let exact_end_completes = distinct[*last as usize]
            .layer
            .intervals
            .last()
            .is_some_and(|interval| !interval.cycles.is_zero());
        ExecutionPlan {
            distinct,
            order,
            starts,
            total_cycles: cumulative,
            exact_end_completes,
        }
    }

    /// Compiles and wraps the plan in an [`Arc`] for cheap sharing across
    /// scheduler configurations. Always compiles fresh; use
    /// [`ExecutionPlan::compile_cached`] to share identical plans across an
    /// entire evaluation suite.
    pub fn compile_shared(
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        cfg: &NpuConfig,
    ) -> Arc<Self> {
        Arc::new(Self::compile(model, batch, seq, cfg))
    }

    /// Returns the memoized plan for `(model, batch, seq, cfg)`, compiling
    /// it on first use.
    ///
    /// Plan compilation is a pure function of its arguments, so a suite that
    /// replays the same workloads under many scheduler configurations (or
    /// many workloads drawing the same model/batch/sequence combinations)
    /// compiles each distinct plan exactly once and shares it through the
    /// returned [`Arc`]. See [`plan_cache`] for statistics and eviction.
    pub fn compile_cached(
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        cfg: &NpuConfig,
    ) -> Arc<Self> {
        plan_cache::get_or_compile(model, batch, seq, cfg)
    }

    /// The per-layer plans in execution order. Repeated layers yield the
    /// same stored [`LayerPlan`].
    pub fn layers(&self) -> impl ExactSizeIterator<Item = &LayerPlan> {
        self.order
            .iter()
            .map(|&slot| &self.distinct[slot as usize].layer)
    }

    /// The plan of layer `layer` (in execution order).
    ///
    /// # Panics
    ///
    /// Panics if `layer >= layer_count()`.
    pub fn layer(&self, layer: usize) -> &LayerPlan {
        &self.distinct_layer(layer).layer
    }

    /// The distinct layer executed as layer `layer`.
    fn distinct_layer(&self, layer: usize) -> &DistinctLayer {
        &self.distinct[self.order[layer] as usize]
    }

    /// The task's isolated, uninterrupted execution time.
    pub fn total_cycles(&self) -> Cycles {
        self.total_cycles
    }

    /// Total MAC operations across the network.
    pub fn total_macs(&self) -> u64 {
        self.layers().map(|l| l.macs).sum()
    }

    /// Number of layers in the plan.
    pub fn layer_count(&self) -> usize {
        self.order.len()
    }

    /// Total number of preemption intervals across all layers, counting a
    /// repeated layer's intervals at every repetition.
    pub fn interval_count(&self) -> usize {
        self.layers().map(|l| l.intervals.len()).sum()
    }

    /// The cumulative cycle offset at which `layer` starts executing.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= layer_count()`.
    pub fn layer_start_cycles(&self, layer: usize) -> Cycles {
        self.starts[layer]
    }
}

/// Process-wide memoization of compiled [`ExecutionPlan`]s.
///
/// A full figure suite simulates 25 workloads × ~7 scheduler configurations,
/// and the workload generator draws from eight models at a handful of batch
/// sizes and sequence lengths — so the same plan is otherwise recompiled
/// hundreds of times. The cache is keyed on every input that determines the
/// compiled timing: model, batch, sequence lengths, and the full
/// architectural configuration (compared field-wise; the
/// [`NpuConfig::fingerprint`] digest is only used for hashing).
///
/// The cache is striped across `SHARD_COUNT` independently locked shards
/// (selected by key hash), so concurrent lookups from the parallel
/// evaluation suite contend only when they race on the same stripe instead
/// of serializing on one global mutex. Entries are `Arc`-shared and
/// immutable; a racing first-compile of the same key simply keeps one
/// winner. [`plan_cache::warm`] pre-compiles a suite's unique keys in parallel before a
/// grid run, eliminating first-touch duplicate compiles entirely. [`plan_cache::clear`]
/// exists for benchmarks that want to measure the uncached path and for
/// long-lived processes sweeping many NPU configurations.
pub mod plan_cache {
    use std::collections::{HashMap, HashSet};
    use std::hash::{Hash, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    use rayon::prelude::*;

    use dnn_models::{ModelKind, SeqSpec};
    use npu_sim::NpuConfig;

    use super::ExecutionPlan;

    /// Number of lock stripes the cache is sharded into.
    pub const SHARD_COUNT: usize = 16;

    /// Cache key: equality compares the *full* `NpuConfig` field-wise (via
    /// its derived `PartialEq`), so a plan can never be served for a
    /// different configuration even if [`NpuConfig::fingerprint`] ever
    /// collided or lagged behind a newly added field — a stale fingerprint
    /// only degrades hash bucketing, never correctness.
    #[derive(Debug, Clone, PartialEq)]
    struct PlanKey {
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        npu: NpuConfig,
    }

    // NpuConfig contains f64 fields, so it is PartialEq but not Eq. The
    // validated configurations stored here never hold NaN (validation
    // rejects non-positive and NaN frequencies/bandwidths), so equality is
    // reflexive for every key that can reach the cache.
    impl Eq for PlanKey {}

    impl Hash for PlanKey {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.model.hash(state);
            self.batch.hash(state);
            self.seq.hash(state);
            self.npu.fingerprint().hash(state);
        }
    }

    type Shard = Mutex<HashMap<PlanKey, Arc<ExecutionPlan>>>;

    static SHARDS: OnceLock<Vec<Shard>> = OnceLock::new();
    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static LAYERS: AtomicU64 = AtomicU64::new(0);
    static LOWERED: AtomicU64 = AtomicU64::new(0);

    fn shards() -> &'static [Shard] {
        SHARDS.get_or_init(|| {
            (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect()
        })
    }

    /// The lock stripe responsible for `key`.
    fn shard_of(key: &PlanKey) -> &'static Shard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &shards()[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Cumulative cache statistics since process start (or the last
    /// [`clear`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheStats {
        /// Lookups answered from the cache.
        pub hits: u64,
        /// Lookups that had to compile.
        pub misses: u64,
        /// Plans currently resident.
        pub entries: usize,
        /// Executed layers of the plans compiled on a miss.
        pub layers: u64,
        /// Layers those compiles lowered and timed: one per distinct layer
        /// shape of each plan, far below `layers` for unrolled RNNs.
        pub lowered: u64,
    }

    impl CacheStats {
        /// Fraction of lookups served from the cache (0 when unused).
        pub fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    pub(super) fn get_or_compile(
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        cfg: &NpuConfig,
    ) -> Arc<ExecutionPlan> {
        let key = PlanKey {
            model,
            batch,
            seq,
            npu: cfg.clone(),
        };
        let shard = shard_of(&key);
        if let Some(plan) = shard.lock().expect("plan cache poisoned").get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        // Compile outside the lock: plans take milliseconds to build and the
        // parallel suite would otherwise serialize on first touch. A racing
        // compile of the same key produces an identical plan; first insert
        // wins and the loser's work is discarded.
        let plan = compile(&key);
        let mut map = shard.lock().expect("plan cache poisoned");
        Arc::clone(map.entry(key).or_insert(plan))
    }

    /// Compiles `key`'s plan as a miss, counting its layers and the layers
    /// it lowered.
    fn compile(key: &PlanKey) -> Arc<ExecutionPlan> {
        let (plan, lowered) =
            ExecutionPlan::compile_counting(key.model, key.batch, key.seq, &key.npu);
        MISSES.fetch_add(1, Ordering::Relaxed);
        LAYERS.fetch_add(plan.layer_count() as u64, Ordering::Relaxed);
        LOWERED.fetch_add(lowered as u64, Ordering::Relaxed);
        Arc::new(plan)
    }

    /// Pre-compiles every not-yet-cached `(model, batch, seq)` key for `cfg`,
    /// fanning the compiles out over all cores when `parallel` is set.
    /// Returns the number of plans compiled.
    ///
    /// Duplicate keys are deduplicated first, so a grid run that warms the
    /// cache with all of its workloads' plan keys compiles each distinct
    /// plan exactly once — without warming, concurrent first touches of the
    /// same key race and compile it redundantly. Warm compiles count as
    /// cache misses; probing for already-resident keys does not count as a
    /// hit (a warm pass is not a lookup).
    pub fn warm(keys: &[(ModelKind, u64, SeqSpec)], cfg: &NpuConfig, parallel: bool) -> usize {
        let mut seen = HashSet::with_capacity(keys.len());
        let mut missing: Vec<PlanKey> = Vec::new();
        for &(model, batch, seq) in keys {
            let key = PlanKey {
                model,
                batch,
                seq,
                npu: cfg.clone(),
            };
            if !seen.insert(key.clone()) {
                continue;
            }
            let resident = shard_of(&key)
                .lock()
                .expect("plan cache poisoned")
                .contains_key(&key);
            if !resident {
                missing.push(key);
            }
        }
        let compiled: Vec<Arc<ExecutionPlan>> = if parallel && missing.len() > 1 {
            missing.par_iter().map(compile).collect()
        } else {
            missing.iter().map(compile).collect()
        };
        let compiled_count = compiled.len();
        for (key, plan) in missing.into_iter().zip(compiled) {
            let shard = shard_of(&key);
            let mut map = shard.lock().expect("plan cache poisoned");
            map.entry(key).or_insert(plan);
        }
        compiled_count
    }

    /// Current cache statistics.
    pub fn stats() -> CacheStats {
        CacheStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            layers: LAYERS.load(Ordering::Relaxed),
            lowered: LOWERED.load(Ordering::Relaxed),
            entries: shards()
                .iter()
                .map(|s| s.lock().expect("plan cache poisoned").len())
                .sum(),
        }
    }

    /// Drops every cached plan and resets the statistics.
    pub fn clear() {
        for shard in shards() {
            shard.lock().expect("plan cache poisoned").clear();
        }
        for counter in [&HITS, &MISSES, &LAYERS, &LOWERED] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many position lookups this thread's cursors made: a test-only
    /// work tally, read by no outcome, digest or trace.
    pub(crate) static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A task's progress through its execution plan.
///
/// The cursor keeps only the cycles executed and whether the plan has
/// completed (see the module's design note). [`ProgressCursor::advance`]
/// is O(1) and reads no plan table. The boundary, footprint, in-interval
/// and layer queries look the position up on demand: two binary searches,
/// over the plan's layer starts and then over the layer's local prefix-sum
/// table. The position is the interval holding the executed cycles or, on
/// a boundary, the interval after the non-zero-cycle interval that ends
/// there. A budget that lands exactly on the plan's end completes the plan
/// only when its last interval is not zero-cycle. These semantics are
/// pinned bit-for-bit to the original nested interval walk, which survives
/// as [`reference::ReferenceCursor`] for the equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressCursor {
    /// Total cycles executed so far.
    executed: Cycles,
    /// Whether the plan has completed: a budget ran past its end, or
    /// landed on it and the plan's last interval is not zero-cycle.
    complete: bool,
}

impl ProgressCursor {
    /// A cursor at the very beginning of a plan.
    pub fn start() -> Self {
        ProgressCursor {
            executed: Cycles::ZERO,
            complete: false,
        }
    }

    /// Total cycles executed so far.
    pub fn executed(&self) -> Cycles {
        self.executed
    }

    /// Index of the layer currently being executed (`layer_count` once the
    /// plan is complete). Looks the position up.
    pub fn layer_index(&self, plan: &ExecutionPlan) -> usize {
        self.position(plan)
            .map_or(plan.layer_count(), |(layer, _)| layer)
    }

    /// Whether the whole plan has finished.
    pub fn is_complete(&self, _plan: &ExecutionPlan) -> bool {
        self.complete
    }

    /// Remaining cycles until the plan completes.
    pub fn remaining(&self, plan: &ExecutionPlan) -> Cycles {
        plan.total_cycles() - self.executed
    }

    /// Resets the cursor to the start of the plan (the KILL mechanism
    /// discards all progress).
    pub fn reset(&mut self) {
        *self = ProgressCursor::start();
    }

    /// Advances the cursor by at most `budget` cycles, returning the cycles
    /// actually consumed (less than `budget` only if the plan completes).
    pub fn advance(&mut self, plan: &ExecutionPlan, budget: Cycles) -> Cycles {
        let left = plan.total_cycles - self.executed;
        if budget < left {
            self.executed += budget;
            return budget;
        }
        // The budget reaches the plan's end. Leftover budget walks any
        // trailing zero-cycle intervals and completes the plan; a budget
        // consumed exactly stops short of them, as the reference walk stops
        // the moment its budget reaches zero. A completed cursor stays so.
        self.executed = plan.total_cycles;
        self.complete |= budget > left || plan.exact_end_completes;
        left
    }

    /// The layer and the interval within it in which the next cycle
    /// executes; `None` once the plan is complete.
    fn position(&self, plan: &ExecutionPlan) -> Option<(usize, usize)> {
        #[cfg(test)]
        LOOKUPS.with(|lookups| lookups.set(lookups.get() + 1));
        if self.complete {
            return None;
        }
        let executed = self.executed;
        if executed.is_zero() {
            return Some((0, 0));
        }
        // The first interval ending at or after `executed` lies in the last
        // layer that starts before it.
        let layer = plan.starts[1..].partition_point(|&s| s < executed);
        let offset = executed - plan.starts[layer];
        let ends = &plan.distinct_layer(layer).ends;
        let interval = ends.partition_point(|&e| e < offset);
        if ends[interval] > offset {
            Some((layer, interval))
        } else if interval + 1 < ends.len() {
            // On the boundary after the (non-zero-cycle) interval ending here.
            Some((layer, interval + 1))
        } else if layer + 1 < plan.layer_count() {
            Some((layer + 1, 0))
        } else {
            None
        }
    }

    /// The start and end cycles of the interval the next cycle executes in,
    /// and its position; `None` once the plan is complete.
    fn interval_span(&self, plan: &ExecutionPlan) -> Option<(Cycles, Cycles, usize, usize)> {
        let (layer, interval) = self.position(plan)?;
        let ends = &plan.distinct_layer(layer).ends;
        let layer_start = plan.starts[layer];
        let start = match interval {
            0 => layer_start,
            _ => layer_start + ends[interval - 1],
        };
        Some((start, layer_start + ends[interval], layer, interval))
    }

    /// Cycles executed *inside* the currently executing interval — progress
    /// past the last interval boundary, which a node failure loses under
    /// the commit-point recovery model (`executed - in_interval` is the
    /// last `GEMM_OP` commit the task can resume from). Zero when sitting
    /// exactly on a boundary or when the plan is complete.
    pub fn in_interval(&self, plan: &ExecutionPlan) -> Cycles {
        match self.interval_span(plan) {
            Some((start, ..)) => self.executed - start,
            None => Cycles::ZERO,
        }
    }

    /// Cycles needed to reach the next legal preemption point (the end of the
    /// currently executing interval). Zero when already at a boundary or when
    /// the plan is complete.
    pub fn cycles_to_boundary(&self, plan: &ExecutionPlan) -> Cycles {
        match self.interval_span(plan) {
            Some((start, end, ..)) if self.executed != start => end - self.executed,
            _ => Cycles::ZERO,
        }
    }

    /// The output-activation bytes that are live (and would have to be
    /// checkpointed) at the *current boundary* — i.e. the checkpoint
    /// footprint if the task is preempted at the end of the interval it is
    /// currently in, or right now if it already sits at a boundary.
    pub fn live_checkpoint_bytes(&self, plan: &ExecutionPlan) -> u64 {
        let Some((start, _, layer, interval)) = self.interval_span(plan) else {
            return 0;
        };
        let intervals = &plan.layer(layer).intervals;
        if self.executed != start {
            // Mid-interval: preemption waits for this interval to commit.
            intervals[interval].live_output_bytes
        } else if interval == 0 {
            // At a layer start nothing is live.
            0
        } else {
            // At a boundary: the last *completed* interval of this layer
            // defines the live state.
            intervals[interval - 1].live_output_bytes
        }
    }

    /// The cursor at the last commit point: the start of the interval the
    /// next cycle executes in (this cursor's cycles when it sits on a
    /// boundary or has completed), standing where one advance from the
    /// start would leave it. Salvage resumes a task there and prices its
    /// checkpoint with the commit cursor's
    /// [`ProgressCursor::live_checkpoint_bytes`].
    pub fn last_commit(&self, plan: &ExecutionPlan) -> ProgressCursor {
        let executed = self.executed - self.in_interval(plan);
        ProgressCursor {
            executed,
            complete: executed == plan.total_cycles && plan.exact_end_completes,
        }
    }
}

impl Default for ProgressCursor {
    fn default() -> Self {
        ProgressCursor::start()
    }
}

/// The original nested-vector progress cursor, preserved verbatim as the
/// semantic oracle for [`ProgressCursor`].
///
/// This walks each layer's raw [`LayerPlan::intervals`] one interval at a
/// time — O(intervals crossed) per advance — and never reads the plan's
/// prefix-sum tables. It is **not** used on any production path; the
/// cursor-equivalence tests (here and in `tests/property_tests.rs`) replay
/// random plans and budgets through both cursors and assert every
/// observable (consumed cycles, executed total, boundary distance, cycles
/// inside the interval, live checkpoint bytes, layer index, completion) is
/// identical at every step; the plan tests also check
/// [`ProgressCursor::last_commit`] against a reference cursor advanced from
/// the start to the same commit point.
pub mod reference {
    use super::{Cycles, ExecutionPlan};

    /// Nested interval-walk cursor (test oracle; see the module docs).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReferenceCursor {
        layer: usize,
        interval: usize,
        /// Cycles already spent inside the current interval.
        offset: Cycles,
        /// Total cycles executed so far.
        executed: Cycles,
    }

    impl ReferenceCursor {
        /// A cursor at the very beginning of a plan.
        pub fn start() -> Self {
            ReferenceCursor {
                layer: 0,
                interval: 0,
                offset: Cycles::ZERO,
                executed: Cycles::ZERO,
            }
        }

        /// Total cycles executed so far.
        pub fn executed(&self) -> Cycles {
            self.executed
        }

        /// Index of the layer currently being executed.
        pub fn layer_index(&self) -> usize {
            self.layer
        }

        /// Whether the whole plan has finished.
        pub fn is_complete(&self, plan: &ExecutionPlan) -> bool {
            self.layer >= plan.layer_count()
        }

        /// Remaining cycles until the plan completes.
        pub fn remaining(&self, plan: &ExecutionPlan) -> Cycles {
            plan.total_cycles() - self.executed
        }

        /// Resets the cursor to the start of the plan.
        pub fn reset(&mut self) {
            *self = ReferenceCursor::start();
        }

        /// Advances the cursor by at most `budget` cycles, returning the
        /// cycles actually consumed.
        pub fn advance(&mut self, plan: &ExecutionPlan, budget: Cycles) -> Cycles {
            let mut remaining_budget = budget;
            let mut consumed = Cycles::ZERO;
            while !remaining_budget.is_zero() && self.layer < plan.layer_count() {
                let intervals = &plan.layer(self.layer).intervals;
                let left_in_interval = intervals[self.interval].cycles - self.offset;
                if remaining_budget >= left_in_interval {
                    remaining_budget -= left_in_interval;
                    consumed += left_in_interval;
                    self.offset = Cycles::ZERO;
                    self.interval += 1;
                    if self.interval >= intervals.len() {
                        self.interval = 0;
                        self.layer += 1;
                    }
                } else {
                    self.offset += remaining_budget;
                    consumed += remaining_budget;
                    remaining_budget = Cycles::ZERO;
                }
            }
            self.executed += consumed;
            consumed
        }

        /// Cycles executed inside the currently executing interval.
        pub fn in_interval(&self, _plan: &ExecutionPlan) -> Cycles {
            self.offset
        }

        /// Cycles needed to reach the next legal preemption point.
        pub fn cycles_to_boundary(&self, plan: &ExecutionPlan) -> Cycles {
            if self.layer >= plan.layer_count() || self.offset.is_zero() {
                return Cycles::ZERO;
            }
            plan.layer(self.layer).intervals[self.interval].cycles - self.offset
        }

        /// The checkpoint footprint at the current boundary.
        pub fn live_checkpoint_bytes(&self, plan: &ExecutionPlan) -> u64 {
            if self.layer >= plan.layer_count() {
                return 0;
            }
            let intervals = &plan.layer(self.layer).intervals;
            if self.offset.is_zero() {
                if self.interval == 0 {
                    0
                } else {
                    intervals[self.interval - 1].live_output_bytes
                }
            } else {
                intervals[self.interval].live_output_bytes
            }
        }
    }

    impl Default for ReferenceCursor {
        fn default() -> Self {
            ReferenceCursor::start()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceCursor;
    use super::*;
    use dnn_models::lowering::lower_network;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    fn small_plan() -> ExecutionPlan {
        ExecutionPlan::compile(ModelKind::CnnAlexNet, 1, SeqSpec::none(), &cfg())
    }

    #[test]
    fn compiled_plan_has_layers_and_cycles() {
        let plan = small_plan();
        assert_eq!(plan.layer_count(), 11);
        assert!(plan.interval_count() >= plan.layer_count());
        assert!(plan.total_cycles() > Cycles::ZERO);
        assert!(plan.total_macs() > 500_000_000);
        let sum: Cycles = plan.layers().map(|l| l.total_cycles).sum();
        assert_eq!(sum, plan.total_cycles());
    }

    #[test]
    fn prefix_tables_are_consistent_with_the_layers() {
        let plan =
            ExecutionPlan::compile(ModelKind::RnnTranslation1, 2, SeqSpec::new(20, 15), &cfg());
        assert_eq!(plan.starts.len(), plan.layer_count());
        // Layer starts are the running prefix sum of interval cycles, ending
        // at the plan total; each distinct layer's local table is the running
        // prefix sum of its own intervals.
        let mut cumulative = Cycles::ZERO;
        for (layer_idx, layer) in plan.layers().enumerate() {
            assert_eq!(plan.layer_start_cycles(layer_idx), cumulative);
            let distinct = plan.distinct_layer(layer_idx);
            assert!(std::ptr::eq(&distinct.layer, layer));
            assert_eq!(distinct.ends.len(), layer.intervals.len());
            let mut local = Cycles::ZERO;
            for (interval, end) in layer.intervals.iter().zip(&distinct.ends) {
                local += interval.cycles;
                assert_eq!(*end, local);
            }
            cumulative += local;
        }
        assert_eq!(cumulative, plan.total_cycles());
        // Every distinct layer is stored once.
        for (i, a) in plan.distinct.iter().enumerate() {
            assert!(plan.distinct[i + 1..].iter().all(|b| b.layer != a.layer));
        }
    }

    #[test]
    fn rnn_plan_scales_with_output_length() {
        let c = cfg();
        let short = ExecutionPlan::compile(ModelKind::RnnTranslation1, 1, SeqSpec::new(20, 5), &c);
        let long = ExecutionPlan::compile(ModelKind::RnnTranslation1, 1, SeqSpec::new(20, 40), &c);
        assert!(long.total_cycles() > short.total_cycles());
        assert!(long.layer_count() > short.layer_count());
    }

    #[test]
    fn cursor_advances_to_completion() {
        let plan = small_plan();
        let mut cursor = ProgressCursor::start();
        let consumed = cursor.advance(&plan, plan.total_cycles());
        assert_eq!(consumed, plan.total_cycles());
        assert!(cursor.is_complete(&plan));
        assert_eq!(cursor.remaining(&plan), Cycles::ZERO);
        assert_eq!(cursor.executed(), plan.total_cycles());
        assert_eq!(cursor.layer_index(&plan), plan.layer_count());
        // Advancing past the end consumes nothing more.
        assert_eq!(cursor.advance(&plan, Cycles::new(1000)), Cycles::ZERO);
    }

    #[test]
    fn partial_advance_tracks_executed_and_remaining() {
        let plan = small_plan();
        let mut cursor = ProgressCursor::start();
        let half = plan.total_cycles() / 2;
        let consumed = cursor.advance(&plan, half);
        assert_eq!(consumed, half);
        assert_eq!(cursor.executed(), half);
        assert_eq!(cursor.remaining(&plan), plan.total_cycles() - half);
        assert!(!cursor.is_complete(&plan));
    }

    #[test]
    fn many_small_advances_equal_one_large_advance() {
        let plan = small_plan();
        let mut a = ProgressCursor::start();
        let mut b = ProgressCursor::start();
        a.advance(&plan, plan.total_cycles());
        let step = Cycles::new(10_000);
        while !b.is_complete(&plan) {
            b.advance(&plan, step);
        }
        assert_eq!(a.executed(), b.executed());
    }

    #[test]
    fn boundary_distance_is_zero_at_boundaries_and_positive_mid_interval() {
        let plan = small_plan();
        let mut cursor = ProgressCursor::start();
        assert_eq!(cursor.cycles_to_boundary(&plan), Cycles::ZERO);
        // Step into the middle of the first interval.
        let first_interval = plan.layer(0).intervals[0].cycles;
        cursor.advance(&plan, first_interval / 2);
        let to_boundary = cursor.cycles_to_boundary(&plan);
        assert!(to_boundary > Cycles::ZERO);
        assert!(to_boundary <= first_interval);
        // Finishing the interval brings us back to a boundary.
        cursor.advance(&plan, to_boundary);
        assert_eq!(cursor.cycles_to_boundary(&plan), Cycles::ZERO);
    }

    #[test]
    fn live_bytes_grow_within_a_layer_and_reset_at_layer_start() {
        let plan = small_plan();
        let mut cursor = ProgressCursor::start();
        assert_eq!(cursor.live_checkpoint_bytes(&plan), 0);
        // Execute the whole first layer: cursor lands at the start of layer 1.
        cursor.advance(&plan, plan.layer(0).total_cycles);
        assert_eq!(cursor.layer_index(&plan), 1);
        assert_eq!(cursor.live_checkpoint_bytes(&plan), 0);
        // Step partway into layer 1: some state is now live.
        cursor.advance(&plan, plan.layer(1).total_cycles / 2);
        if plan.layer(1).intervals.len() > 1 {
            assert!(cursor.live_checkpoint_bytes(&plan) > 0);
        }
    }

    #[test]
    fn reset_discards_progress() {
        let plan = small_plan();
        let mut cursor = ProgressCursor::start();
        cursor.advance(&plan, plan.total_cycles() / 3);
        assert!(cursor.executed() > Cycles::ZERO);
        cursor.reset();
        assert_eq!(cursor.executed(), Cycles::ZERO);
        assert_eq!(cursor, ProgressCursor::start());
        assert_eq!(ProgressCursor::default(), ProgressCursor::start());
    }

    #[test]
    fn flat_cursor_matches_reference_cursor_on_a_real_plan() {
        let plan = small_plan();
        let mut flat = ProgressCursor::start();
        let mut reference = ReferenceCursor::start();
        // Step sizes chosen to land exactly on boundaries, mid-interval and
        // past the end.
        let first = plan.layer(0).intervals[0].cycles;
        let steps = [
            first / 2,
            first - first / 2, // exactly at the first boundary
            Cycles::new(1),
            Cycles::ZERO,
            plan.layer(0).total_cycles,
            Cycles::new(123_457),
            plan.total_cycles(), // overshoots: completes
        ];
        for &step in &steps {
            let a = flat.advance(&plan, step);
            let b = reference.advance(&plan, step);
            assert_eq!(a, b);
            assert_same_position(&plan, &flat, &reference, "real plan");
        }
        assert!(flat.is_complete(&plan));
    }

    /// Asserts every observable of `cursor` equals the reference walk's.
    fn assert_same_position(
        plan: &ExecutionPlan,
        cursor: &ProgressCursor,
        reference: &ReferenceCursor,
        context: &str,
    ) {
        assert_eq!(cursor.executed(), reference.executed(), "{context}");
        assert_eq!(
            cursor.remaining(plan),
            reference.remaining(plan),
            "{context}"
        );
        assert_eq!(
            cursor.is_complete(plan),
            reference.is_complete(plan),
            "{context}"
        );
        assert_eq!(
            cursor.layer_index(plan),
            reference.layer_index(),
            "{context}"
        );
        assert_eq!(
            cursor.cycles_to_boundary(plan),
            reference.cycles_to_boundary(plan),
            "{context}"
        );
        assert_eq!(
            cursor.in_interval(plan),
            reference.in_interval(plan),
            "{context}"
        );
        assert_eq!(
            cursor.live_checkpoint_bytes(plan),
            reference.live_checkpoint_bytes(plan),
            "{context}"
        );
        // The commit point is where the reference walk stands after one
        // advance from the start to the start of its current interval.
        let commit = cursor.last_commit(plan);
        let mut floor = ReferenceCursor::start();
        floor.advance(plan, reference.executed() - reference.in_interval(plan));
        assert_eq!(commit.executed(), floor.executed(), "{context}");
        assert_eq!(
            commit.is_complete(plan),
            floor.is_complete(plan),
            "{context}"
        );
        assert_eq!(
            commit.live_checkpoint_bytes(plan),
            floor.live_checkpoint_bytes(plan),
            "{context}"
        );
    }

    /// A synthetic layer from `(cycles, live bytes)` intervals.
    fn synthetic_layer(intervals: &[(u64, u64)]) -> LayerPlan {
        let intervals: Vec<PreemptionInterval> = intervals
            .iter()
            .map(|&(cycles, live_output_bytes)| PreemptionInterval {
                cycles: Cycles::new(cycles),
                live_output_bytes,
            })
            .collect();
        LayerPlan {
            total_cycles: intervals.iter().map(|i| i.cycles).sum(),
            intervals,
            macs: 0,
        }
    }

    /// SplitMix64: a fixed, dependency-free stream of random numbers.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A number below `n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Replays `steps` random budgets through a fresh cursor and the
    /// reference walk on `plan`, comparing every observable at the start
    /// and after every step. The budgets are zero, exactly to the next
    /// boundary, to the end of a random interval ahead (zero-cycle ones
    /// included), to the end of the current layer, to the plan's end, past
    /// the end, or a small random amount.
    fn replay_against_reference(
        plan: &ExecutionPlan,
        rng: &mut SplitMix64,
        steps: usize,
        context: &str,
    ) {
        let mut cursor = ProgressCursor::start();
        let mut reference = ReferenceCursor::start();
        assert_same_position(plan, &cursor, &reference, &format!("{context} at start"));
        for step in 0..steps {
            let layer = reference.layer_index();
            let executed = reference.executed();
            let budget = match rng.below(8) {
                0 => Cycles::ZERO,
                1 => reference.cycles_to_boundary(plan),
                2 if layer < plan.layer_count() => {
                    let ahead = layer + rng.below(plan.layer_count() - layer);
                    let intervals = &plan.layer(ahead).intervals;
                    let through = 1 + rng.below(intervals.len());
                    let end: Cycles = intervals[..through].iter().map(|i| i.cycles).sum();
                    plan.layer_start_cycles(ahead) + end - executed
                }
                3 if layer < plan.layer_count() => {
                    plan.layer_start_cycles(layer) + plan.layer(layer).total_cycles - executed
                }
                4 => reference.remaining(plan),
                5 => reference.remaining(plan) + Cycles::new(1 + rng.next() % 3),
                _ => Cycles::new(rng.next() % 50),
            };
            let consumed = cursor.advance(plan, budget);
            let consumed_reference = reference.advance(plan, budget);
            let context = format!("{context} step {step} budget {budget}");
            assert_eq!(consumed, consumed_reference, "{context}");
            assert_same_position(plan, &cursor, &reference, &context);
        }
    }

    /// Real plans hold no zero-cycle intervals, so the normalization the
    /// cursor promises for them (and for layer boundaries next to them) is
    /// pinned on synthetic plans instead: zero-cycle intervals at a
    /// layer's start and end, an all-zero layer, zero layers first and
    /// last, and one layer repeated non-adjacently (its tables shared).
    #[test]
    fn cursor_matches_the_reference_on_synthetic_zero_cycle_plans() {
        let layers = [
            synthetic_layer(&[(0, 0), (40, 7), (25, 11), (0, 13)]),
            synthetic_layer(&[(0, 0), (0, 5)]),
            synthetic_layer(&[(30, 3), (30, 6), (1, 9)]),
            synthetic_layer(&[(17, 2)]),
        ];
        // Each plan as indices into `layers`, in execution order.
        let plans: [&[usize]; 5] = [
            &[1, 0, 2, 0, 1],
            &[0, 1, 1, 3, 0],
            &[3, 2, 3, 2, 1],
            &[1],
            &[0],
        ];
        let mut rng = SplitMix64(0x5EED);
        for (case, indices) in plans.iter().enumerate() {
            let plan =
                ExecutionPlan::from_layers(indices.iter().map(|&i| layers[i].clone()).collect());
            let mut distinct = indices.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(plan.distinct.len(), distinct.len(), "case {case}");
            assert!(plan.layers().eq(indices.iter().map(|&i| &layers[i])));
            for replay in 0..64 {
                replay_against_reference(
                    &plan,
                    &mut rng,
                    24,
                    &format!("case {case} replay {replay}"),
                );
            }
        }
    }

    /// A random layer of 1-6 intervals, about a third of them zero-cycle,
    /// or all of them when `all_zero` is set.
    fn random_layer(rng: &mut SplitMix64, all_zero: bool) -> LayerPlan {
        let intervals: Vec<(u64, u64)> = (0..1 + rng.below(6))
            .map(|_| {
                let cycles = if all_zero || rng.below(3) == 0 {
                    0
                } else {
                    1 + rng.next() % 40
                };
                (cycles, rng.next() % 1_000)
            })
            .collect();
        synthetic_layer(&intervals)
    }

    /// A random plan of 1-12 layers drawn from a pool of 1-6 random
    /// layers, so that some layers repeat and share tables. One plan in
    /// four puts all-zero layers first, in the middle and last.
    fn random_plan(rng: &mut SplitMix64) -> ExecutionPlan {
        let pool: Vec<LayerPlan> = (0..1 + rng.below(6))
            .map(|_| random_layer(rng, false))
            .collect();
        let count = 1 + rng.below(12);
        let mut layers: Vec<LayerPlan> = (0..count)
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect();
        if rng.below(4) == 0 {
            for slot in [0, count / 2, count - 1] {
                layers[slot] = random_layer(rng, true);
            }
        }
        ExecutionPlan::from_layers(layers)
    }

    /// Replays random budgets through the cursor and the reference walk on
    /// `plans` random plans drawn from `seed`.
    fn fuzz_cursor_against_reference(plans: usize, seed: u64) {
        let mut rng = SplitMix64(seed);
        for case in 0..plans {
            let plan = random_plan(&mut rng);
            for replay in 0..4 {
                replay_against_reference(
                    &plan,
                    &mut rng,
                    16,
                    &format!("plan {case} replay {replay}"),
                );
            }
        }
    }

    #[test]
    fn cursor_matches_the_reference_on_random_synthetic_plans() {
        fuzz_cursor_against_reference(200, 0xC0_FFEE);
    }

    /// The nightly depth of [`cursor_matches_the_reference_on_random_synthetic_plans`].
    #[test]
    #[ignore = "nightly: 20,000 random plans"]
    fn cursor_matches_the_reference_on_many_random_synthetic_plans() {
        fuzz_cursor_against_reference(20_000, 0xDEE9);
    }

    /// Advancing a cursor reads no plan table: stepping a compiled RNN plan
    /// to completion looks its position up zero times, and each position
    /// query looks it up once.
    #[test]
    fn advancing_a_plan_to_completion_makes_no_lookup() {
        let plan =
            ExecutionPlan::compile(ModelKind::RnnTranslation1, 2, SeqSpec::new(20, 15), &cfg());
        let lookups = || LOOKUPS.with(std::cell::Cell::get);
        let mut rng = SplitMix64(0x7A11);
        let before = lookups();
        let mut cursor = ProgressCursor::start();
        let mut steps = 0;
        while !cursor.is_complete(&plan) {
            cursor.advance(&plan, Cycles::new(rng.next() % 400_000));
            assert_eq!(
                cursor.executed() + cursor.remaining(&plan),
                plan.total_cycles()
            );
            steps += 1;
        }
        assert!(steps > 100, "{steps} steps");
        assert_eq!(lookups() - before, 0);

        cursor.reset();
        cursor.advance(&plan, plan.total_cycles() / 3);
        let before = lookups();
        cursor.cycles_to_boundary(&plan);
        cursor.live_checkpoint_bytes(&plan);
        cursor.in_interval(&plan);
        cursor.layer_index(&plan);
        assert_eq!(lookups() - before, 4);
    }

    /// The plan oracle: build the named network, lower every layer, dedupe
    /// the lowered works by equality, time each distinct work once and lay
    /// the plan out in execution order.
    fn compile_per_layer(
        model: ModelKind,
        batch: u64,
        seq: SeqSpec,
        c: &NpuConfig,
    ) -> ExecutionPlan {
        let (works, order) = dedupe(lower_network(&model.build(batch, seq), batch));
        let layers = works.iter().map(|work| LayerPlan::model(work, c)).collect();
        ExecutionPlan::from_distinct(layers, order)
    }

    /// The plan compiled from shapes must equal the per-layer oracle, plan
    /// for plan: a dedupe key coarser than the lowered work would hand a
    /// layer another layer's timing, and one finer would store a layer
    /// twice; the cursor tests see neither (both cursors would read the
    /// same plan). Covers every model at six batches and, per RNN, 120
    /// (input, output) length pairs.
    #[test]
    fn deduplicated_plan_equals_the_per_layer_compile() {
        let c = cfg();
        let lengths = [1u64, 2, 3, 5, 8, 13, 21, 34, 50, 100];
        let rnn_seqs: Vec<SeqSpec> = lengths
            .iter()
            .flat_map(|&input| {
                lengths
                    .iter()
                    .chain(&[55, 150])
                    .map(move |&output| SeqSpec::new(input, output))
            })
            .collect();
        assert!(rnn_seqs.len() >= 100);
        let models = dnn_models::ALL_EVAL_MODELS
            .into_iter()
            .chain([ModelKind::ResNet50]);
        for model in models {
            let seqs = if model.is_rnn() {
                &rnn_seqs[..]
            } else {
                &[SeqSpec::none()][..]
            };
            for batch in [1u64, 2, 3, 4, 8, 16] {
                for &seq in seqs {
                    let plan = ExecutionPlan::compile(model, batch, seq, &c);
                    let oracle = compile_per_layer(model, batch, seq, &c);
                    assert!(plan == oracle, "{model:?} batch {batch} {seq:?}");
                }
            }
        }
    }

    #[test]
    fn an_unrolled_rnn_plan_stores_each_distinct_layer_once() {
        let plan =
            ExecutionPlan::compile(ModelKind::RnnTranslation1, 1, SeqSpec::new(20, 40), &cfg());
        assert!(plan.layer_count() > 100, "{} layers", plan.layer_count());
        assert!(plan.distinct.len() <= 5, "{} distinct", plan.distinct.len());
        assert!(plan.interval_count() > plan.layer_count());
    }

    #[test]
    #[should_panic]
    fn layer_start_past_the_last_layer_panics() {
        let plan = small_plan();
        plan.layer_start_cycles(plan.layer_count());
    }

    #[test]
    fn cursor_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ProgressCursor>(), 16);
    }

    #[test]
    fn cached_compile_shares_one_plan_and_tracks_stats() {
        let c = cfg();
        // Use a batch size nothing else in the test suite touches so the
        // first lookup is a miss even when other tests warmed the cache.
        let before = plan_cache::stats();
        let first = ExecutionPlan::compile_cached(ModelKind::CnnAlexNet, 3, SeqSpec::none(), &c);
        let second = ExecutionPlan::compile_cached(ModelKind::CnnAlexNet, 3, SeqSpec::none(), &c);
        assert!(Arc::ptr_eq(&first, &second), "cache must share one Arc");
        let after = plan_cache::stats();
        assert!(after.misses > before.misses, "first lookup compiles");
        assert!(after.hits > before.hits, "second lookup hits");
        assert!(after.entries > 0);
        assert!(after.hit_rate() > 0.0);

        // The cached plan is identical to a fresh compile.
        let fresh = ExecutionPlan::compile(ModelKind::CnnAlexNet, 3, SeqSpec::none(), &c);
        assert_eq!(*first, fresh);

        // A different NPU fingerprint is a different cache entry.
        let small = NpuConfig {
            systolic_width: 64,
            ..NpuConfig::paper_default()
        };
        let other =
            ExecutionPlan::compile_cached(ModelKind::CnnAlexNet, 3, SeqSpec::none(), &small);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_ne!(first.total_cycles(), other.total_cycles());
    }

    #[test]
    fn warm_compiles_each_unique_key_once_and_later_lookups_hit() {
        let c = cfg();
        // Batch size 5 is unique to this test, so the keys cannot already be
        // resident.
        let keys = [
            (ModelKind::CnnAlexNet, 5u64, SeqSpec::none()),
            (ModelKind::CnnAlexNet, 5u64, SeqSpec::none()), // duplicate
            (ModelKind::CnnMobileNet, 5u64, SeqSpec::none()),
        ];
        let before = plan_cache::stats();
        let compiled = plan_cache::warm(&keys, &c, true);
        assert_eq!(compiled, 2, "duplicates are compiled once");
        let mid = plan_cache::stats();
        assert_eq!(mid.misses - before.misses, 2);
        assert_eq!(mid.hits, before.hits, "warming is not a lookup");

        // Re-warming compiles nothing.
        assert_eq!(plan_cache::warm(&keys, &c, false), 0);

        // A post-warm lookup hits and returns the warmed plan.
        let plan = ExecutionPlan::compile_cached(ModelKind::CnnAlexNet, 5, SeqSpec::none(), &c);
        let after = plan_cache::stats();
        assert_eq!(after.hits, mid.hits + 1);
        assert_eq!(after.misses, mid.misses);
        let fresh = ExecutionPlan::compile(ModelKind::CnnAlexNet, 5, SeqSpec::none(), &c);
        assert_eq!(*plan, fresh);
    }

    #[test]
    fn shared_compile_matches_plain_compile() {
        let c = cfg();
        let plain = ExecutionPlan::compile(ModelKind::CnnMobileNet, 1, SeqSpec::none(), &c);
        let shared = ExecutionPlan::compile_shared(ModelKind::CnnMobileNet, 1, SeqSpec::none(), &c);
        assert_eq!(plain.total_cycles(), shared.total_cycles());
        assert_eq!(plain.layer_count(), shared.layer_count());
    }
}
