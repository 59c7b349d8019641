//! The cluster-scale co-simulation benchmark: event-heap loop vs the naive
//! stepping reference across node counts.
//!
//! `BENCH_cluster.json` (see [`crate::cluster`]) compares *serving
//! policies* on a small cluster; this sweep instead measures the
//! *co-simulation loop itself* as the cluster grows — the ROADMAP's
//! production-scale axis. For each node count it generates one seeded
//! open-loop stream at a fixed offered load (`rho`, so the request rate
//! scales with the cluster), then runs every closed-loop dispatch variant
//! through **both** drivers — [`OnlineClusterSimulator::run_reference`]
//! (the naive stepping loop: every step advances all node sessions and
//! every decision rescans residents, O(events × nodes)) and
//! [`OnlineClusterSimulator::run`] (the event-heap loop: next-event
//! certificates and an indexed dispatch walk, so only due nodes and
//! nodes about to change advance) — and records both wall clocks. The two outcomes are asserted bit-identical
//! per cell; the per-cell digest folds into the sweep hash the
//! `throughput cluster-scale --check-baseline` gate compares.
//!
//! The default sweep runs the three *plain* live-dispatch variants on
//! NP-FCFS nodes. Two deliberate choices:
//!
//! * Work stealing and SLA admission add decisions that read every node —
//!   steal rounds at every completion bound between arrivals, a p99 over
//!   all residents per arrival — so their cost is dominated by the
//!   mechanism rather than the loop. Their serving behaviour is covered by
//!   `BENCH_cluster.json`; this sweep isolates the loop's scaling.
//! * NP-FCFS nodes keep per-node execution on the engine's event-horizon
//!   fast path, so node execution is nearly free and the measurement is
//!   dominated by the co-simulation loop — the thing under test. (The
//!   equivalence property tests still cover every scheduler and mechanism.)
//!
//! Wall clocks take the best of [`ScaleSweepOptions::repetitions`] runs per
//! driver: the minimum is the standard low-noise estimator on a shared
//! host, and the outcome is asserted identical on every repetition.

use npu_sim::NpuConfig;
use prema_cluster::{online_outcome_hash, OnlineClusterSimulator};
use prema_core::SchedulerConfig;

use crate::cluster::{ClosedLoopVariant, Streams};
use crate::suite::timed;

/// Options controlling a cluster-scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleSweepOptions {
    /// The cluster sizes to sweep.
    pub node_counts: Vec<usize>,
    /// Offered load, fixed across node counts (the arrival rate scales as
    /// `rho * nodes / E[S]`).
    pub rho: f64,
    /// RNG seed; per-node-count request streams derive from it.
    pub seed: u64,
    /// Length of each generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// The closed-loop variants under measurement.
    pub variants: Vec<ClosedLoopVariant>,
    /// The per-node scheduler.
    pub scheduler: SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: NpuConfig,
    /// Wall-clock repetitions per (cell, driver); the minimum is reported.
    pub repetitions: usize,
    /// Largest node count the O(events × nodes) stepping reference still
    /// runs at. Cells above the cap run the event-heap loop only (their
    /// [`ScaleCell::wall_reference_s`] is `None` and they fold into
    /// [`scale_extended_sweep_hash`] but not [`scale_sweep_hash`]); `0`
    /// makes the whole sweep heap-only. The heap outcome is independent of
    /// whether the reference ran, so capped sweeps keep the same digests.
    pub reference_cap: usize,
}

impl ScaleSweepOptions {
    /// The committed-baseline sweep: 4 / 16 / 64 NP-FCFS nodes at 95 %
    /// offered load, 400 ms windows, the three plain live-dispatch
    /// variants, best-of-3 walls.
    pub fn baseline() -> Self {
        ScaleSweepOptions {
            node_counts: vec![4, 16, 64],
            rho: 0.95,
            seed: 2020,
            duration_ms: 400.0,
            variants: vec![
                ClosedLoopVariant::ShortestQueue,
                ClosedLoopVariant::LeastWork,
                ClosedLoopVariant::Predictive,
            ],
            scheduler: SchedulerConfig::np_fcfs(),
            npu: NpuConfig::paper_default(),
            repetitions: 3,
            reference_cap: 64,
        }
    }

    /// The nightly extended sweep: the baseline grid plus heap-only 256-
    /// and 1024-node levels, appended *after* the baseline levels so the
    /// per-level request streams (seeded by grid position) — and therefore
    /// the baseline cells' digests and the capped sweep hash — are
    /// untouched.
    pub fn extended() -> Self {
        let mut opts = ScaleSweepOptions::baseline();
        opts.node_counts.extend([256, 1024]);
        opts
    }

    /// A reduced sweep for unit tests and quick local runs, covering
    /// stealing and admission too.
    pub fn quick() -> Self {
        ScaleSweepOptions {
            node_counts: vec![2, 6],
            duration_ms: 80.0,
            variants: vec![
                ClosedLoopVariant::ShortestQueue,
                ClosedLoopVariant::WorkStealing,
                ClosedLoopVariant::SlaAdmission,
            ],
            repetitions: 1,
            ..ScaleSweepOptions::baseline()
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_counts.is_empty() || self.node_counts.contains(&0) {
            return Err("node counts must be non-empty and positive".into());
        }
        if !self.rho.is_finite() || self.rho <= 0.0 {
            return Err("rho must be positive and finite".into());
        }
        if !self.duration_ms.is_finite() || self.duration_ms <= 0.0 {
            return Err("duration must be positive and finite".into());
        }
        if self.variants.is_empty() {
            return Err("at least one closed-loop variant is required".into());
        }
        if self.repetitions == 0 {
            return Err("at least one repetition is required".into());
        }
        self.npu.validate()?;
        self.scheduler.validate()?;
        Ok(())
    }
}

/// One cell of the scale sweep: a (node count, variant) pair measured under
/// both drivers on the identical request stream.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Cluster size.
    pub nodes: usize,
    /// The closed-loop variant label.
    pub policy: &'static str,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Requests served (differs from `requests` only under admission).
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Work-stealing migrations.
    pub steals: u64,
    /// Total scheduler wakeups across the cluster (identical under both
    /// drivers — part of the bit-identity contract).
    pub events: u64,
    /// Best wall clock of the naive stepping reference, seconds. `None`
    /// when the cell's node count exceeds
    /// [`ScaleSweepOptions::reference_cap`] and only the heap loop ran.
    pub wall_reference_s: Option<f64>,
    /// Best wall clock of the event-heap loop, seconds.
    pub wall_heap_s: f64,
    /// The deterministic outcome digest (identical under both drivers).
    pub hash: u64,
}

impl ScaleCell {
    /// Reference events per second; `None` for heap-only cells.
    pub fn reference_events_per_sec(&self) -> Option<f64> {
        self.wall_reference_s
            .map(|wall| self.events as f64 / wall.max(f64::EPSILON))
    }

    /// Event-heap events per second.
    pub fn heap_events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_heap_s.max(f64::EPSILON)
    }

    /// Wall-clock speedup of the event-heap loop over the reference;
    /// `None` for heap-only cells.
    pub fn speedup(&self) -> Option<f64> {
        self.wall_reference_s
            .map(|wall| wall / self.wall_heap_s.max(f64::EPSILON))
    }
}

/// Aggregate of all cells at one node count.
#[derive(Debug, Clone, Copy)]
pub struct ScaleAggregate {
    /// Cluster size.
    pub nodes: usize,
    /// Total scheduler wakeups over the node count's cells.
    pub events: u64,
    /// Summed reference wall, seconds; `None` at heap-only node counts.
    pub wall_reference_s: Option<f64>,
    /// Summed event-heap wall, seconds.
    pub wall_heap_s: f64,
}

impl ScaleAggregate {
    /// Reference events per second at this node count; `None` when the
    /// node count ran heap-only.
    pub fn reference_events_per_sec(&self) -> Option<f64> {
        self.wall_reference_s
            .map(|wall| self.events as f64 / wall.max(f64::EPSILON))
    }

    /// Event-heap events per second at this node count.
    pub fn heap_events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_heap_s.max(f64::EPSILON)
    }

    /// Aggregate speedup (ratio of the events/sec figures); `None` at
    /// heap-only node counts.
    pub fn speedup(&self) -> Option<f64> {
        self.wall_reference_s
            .map(|wall| wall / self.wall_heap_s.max(f64::EPSILON))
    }
}

/// Runs the scale sweep. Cells are laid out node-count-major in option
/// order; every cell's reference and event-heap outcomes are asserted
/// bit-identical (records, assignments, sheds, steals — and therefore the
/// digest).
///
/// # Panics
///
/// Panics if the options are invalid or if the two drivers ever diverge.
pub fn run_scale_sweep(opts: &ScaleSweepOptions) -> Vec<ScaleCell> {
    if let Err(msg) = opts.validate() {
        panic!("invalid ScaleSweepOptions: {msg}");
    }
    let streams = Streams::new(&opts.npu, opts.seed, opts.duration_ms);
    let mut cells = Vec::with_capacity(opts.node_counts.len() * opts.variants.len());
    for (level, &nodes) in opts.node_counts.iter().enumerate() {
        let (prepared, _) = streams.level(streams.rate(opts.rho, nodes), level);
        for &variant in &opts.variants {
            let online = OnlineClusterSimulator::new(variant.config(
                nodes,
                opts.scheduler.clone(),
                opts.npu.clone(),
            ));
            let wall_reference_s = (nodes <= opts.reference_cap)
                .then(|| timed(opts.repetitions, || online.run_reference(&prepared.tasks)));
            let (heap, wall_heap_s) = timed(opts.repetitions, || online.run(&prepared.tasks));
            let wall_reference_s = wall_reference_s.map(|(reference, wall)| {
                assert_eq!(
                    heap, reference,
                    "event-heap loop diverged from the stepping reference at \
                     {nodes} nodes under {variant}"
                );
                wall
            });
            cells.push(ScaleCell {
                nodes,
                policy: variant.label(),
                requests: prepared.tasks.len(),
                served: heap.served(),
                shed: heap.shed.len(),
                steals: heap.steals,
                events: heap.cluster.scheduler_invocations(),
                wall_reference_s,
                wall_heap_s,
                hash: online_outcome_hash(&heap),
            });
        }
    }
    cells
}

/// Folds the *reference-verified* cell digests (node counts within
/// [`ScaleSweepOptions::reference_cap`]) into the sweep-identity digest the
/// `throughput cluster-scale` baseline gate compares. Heap-only cells are
/// excluded so the digest is stable whether or not a run extends the grid
/// past the cap — the committed baseline value survives nightly's 256- and
/// 1024-node columns.
pub fn scale_sweep_hash(cells: &[ScaleCell]) -> u64 {
    prema_cluster::fold_hashes(
        cells
            .iter()
            .filter(|cell| cell.wall_reference_s.is_some())
            .map(|cell| cell.hash),
    )
}

/// Folds *every* cell digest, heap-only columns included — the identity
/// the nightly extended sweep pins in addition to [`scale_sweep_hash`].
pub fn scale_extended_sweep_hash(cells: &[ScaleCell]) -> u64 {
    prema_cluster::fold_hashes(cells.iter().map(|cell| cell.hash))
}

/// Per-node-count aggregates, in first-appearance order.
pub fn scale_aggregates(cells: &[ScaleCell]) -> Vec<ScaleAggregate> {
    let mut aggregates: Vec<ScaleAggregate> = Vec::new();
    for cell in cells {
        match aggregates.iter_mut().find(|a| a.nodes == cell.nodes) {
            Some(aggregate) => {
                aggregate.events += cell.events;
                if let Some(wall) = cell.wall_reference_s {
                    *aggregate.wall_reference_s.get_or_insert(0.0) += wall;
                }
                aggregate.wall_heap_s += cell.wall_heap_s;
            }
            None => aggregates.push(ScaleAggregate {
                nodes: cell.nodes,
                events: cell.events,
                wall_reference_s: cell.wall_reference_s,
                wall_heap_s: cell.wall_heap_s,
            }),
        }
    }
    aggregates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_sweep_is_deterministic_and_shaped() {
        let opts = ScaleSweepOptions::quick();
        let a = run_scale_sweep(&opts);
        let b = run_scale_sweep(&opts);
        assert_eq!(a.len(), opts.node_counts.len() * opts.variants.len());
        assert_eq!(scale_sweep_hash(&a), scale_sweep_hash(&b));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hash, y.hash);
            assert_eq!(x.events, y.events);
            assert_eq!(x.served, y.served);
        }
        // One stream per node count, replayed by every variant.
        for level in 0..opts.node_counts.len() {
            let row = &a[level * opts.variants.len()..(level + 1) * opts.variants.len()];
            assert!(row.iter().all(|c| c.requests == row[0].requests));
            assert!(row.iter().all(|c| c.nodes == opts.node_counts[level]));
        }
        // The sla-admit variant actually shed under load, and the steal
        // variant migrated work — the sweep exercises both mechanisms end
        // to end.
        assert!(a.iter().any(|c| c.steals > 0));
        let aggregates = scale_aggregates(&a);
        assert_eq!(aggregates.len(), opts.node_counts.len());
        for aggregate in aggregates {
            assert!(aggregate.events > 0);
            assert!(aggregate.speedup().expect("within the reference cap") > 0.0);
        }
    }

    /// Heap-only cells (above the reference cap) keep the exact digests a
    /// fully verified sweep produces — the heap outcome cannot depend on
    /// whether the reference ran — while the capped sweep hash folds only
    /// the verified prefix and the extended hash folds everything.
    #[test]
    fn reference_cap_preserves_digests_and_splits_the_hashes() {
        let verified = run_scale_sweep(&ScaleSweepOptions::quick());
        let capped_opts = ScaleSweepOptions {
            reference_cap: 2,
            ..ScaleSweepOptions::quick()
        };
        let capped = run_scale_sweep(&capped_opts);
        assert_eq!(capped.len(), verified.len());
        for (cell, full) in capped.iter().zip(&verified) {
            assert_eq!(cell.hash, full.hash);
            assert_eq!(cell.events, full.events);
            assert_eq!(
                cell.wall_reference_s.is_some(),
                cell.nodes <= capped_opts.reference_cap
            );
            assert_eq!(cell.reference_events_per_sec().is_some(), cell.nodes <= 2);
            assert_eq!(cell.speedup().is_some(), cell.nodes <= 2);
        }
        // The gate digest folds only verified cells; the extended digest
        // folds all of them and matches the uncapped sweep's.
        let verified_prefix: Vec<ScaleCell> = capped
            .iter()
            .filter(|cell| cell.wall_reference_s.is_some())
            .cloned()
            .collect();
        assert!(!verified_prefix.is_empty());
        assert_eq!(
            scale_sweep_hash(&capped),
            scale_extended_sweep_hash(&verified_prefix)
        );
        assert_eq!(
            scale_extended_sweep_hash(&capped),
            scale_extended_sweep_hash(&verified)
        );
        // Heap-only node counts aggregate without a reference wall.
        let aggregates = scale_aggregates(&capped);
        assert!(aggregates
            .iter()
            .any(|aggregate| aggregate.wall_reference_s.is_none()
                && aggregate.heap_events_per_sec() > 0.0));
    }

    #[test]
    fn validation_rejects_bad_options() {
        for bad in [
            ScaleSweepOptions {
                node_counts: vec![],
                ..ScaleSweepOptions::quick()
            },
            ScaleSweepOptions {
                node_counts: vec![0],
                ..ScaleSweepOptions::quick()
            },
            ScaleSweepOptions {
                rho: 0.0,
                ..ScaleSweepOptions::quick()
            },
            ScaleSweepOptions {
                duration_ms: f64::NAN,
                ..ScaleSweepOptions::quick()
            },
            ScaleSweepOptions {
                variants: vec![],
                ..ScaleSweepOptions::quick()
            },
            ScaleSweepOptions {
                repetitions: 0,
                ..ScaleSweepOptions::quick()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(ScaleSweepOptions::baseline().validate().is_ok());
    }
}
