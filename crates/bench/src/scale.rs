//! The cluster-scale co-simulation benchmark: the event-heap loop's work
//! across node counts, checked against the naive stepping reference.
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
//! nodes about to change advance). The two outcomes are asserted
//! bit-identical per cell; the per-cell digest folds into the sweep hash
//! the `throughput cluster-scale --check-baseline` gate compares. The heap
//! loop then runs once more with a [`CountingSink`] attached, and the gate
//! compares its counts (heap pushes, index re-keys, ...) per node count
//! exactly: a loop that starts advancing nodes it need not shows up there
//! on any host.
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
//!   fast path, so node execution is nearly free and the work counted is
//!   the co-simulation loop's — the thing under test. (The equivalence
//!   property tests still cover every scheduler and mechanism.)

use npu_sim::NpuConfig;
use prema_cluster::{online_outcome_hash, CountingSink, OnlineClusterSimulator};
use prema_core::SchedulerConfig;

use crate::cluster::{run_counted, ClosedLoopVariant, Streams};

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
    /// Largest node count the O(events × nodes) stepping reference still
    /// runs at. Cells above the cap run the event-heap loop only (their
    /// [`ScaleCell::verified`] is false and they fold into
    /// [`scale_extended_sweep_hash`] but not [`scale_sweep_hash`]); `0`
    /// makes the whole sweep heap-only. The heap outcome is independent of
    /// whether the reference ran, so capped sweeps keep the same digests.
    pub reference_cap: usize,
}

impl ScaleSweepOptions {
    /// The committed-baseline sweep: 4 / 16 / 64 NP-FCFS nodes at 95 %
    /// offered load, 400 ms windows, the three plain live-dispatch
    /// variants.
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
            reference_cap: 64,
        }
    }

    /// The extended sweep CI runs: the baseline grid plus heap-only 256-
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
        self.npu.validate()?;
        self.scheduler.validate()?;
        Ok(())
    }
}

/// One cell of the scale sweep: a (node count, variant) pair run under
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
    /// Whether the stepping reference ran (and matched). False when the
    /// cell's node count exceeds [`ScaleSweepOptions::reference_cap`] and
    /// only the heap loop ran.
    pub verified: bool,
    /// The event-heap loop's counted work.
    pub work: CountingSink,
    /// The deterministic outcome digest (identical under both drivers).
    pub hash: u64,
}

/// Aggregate of all cells at one node count.
#[derive(Debug, Clone, Copy)]
pub struct ScaleAggregate {
    /// Cluster size.
    pub nodes: usize,
    /// Total scheduler wakeups over the node count's cells.
    pub events: u64,
    /// The event-heap loop's work summed over the node count's cells.
    pub work: CountingSink,
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
            let (heap, work) = run_counted(&online, &prepared.tasks);
            let verified = nodes <= opts.reference_cap;
            if verified {
                assert_eq!(
                    heap,
                    online.run_reference(&prepared.tasks),
                    "event-heap loop diverged from the stepping reference at \
                     {nodes} nodes under {variant}"
                );
            }
            cells.push(ScaleCell {
                nodes,
                policy: variant.label(),
                requests: prepared.tasks.len(),
                served: heap.served(),
                shed: heap.shed.len(),
                steals: heap.steals,
                events: heap.cluster.scheduler_invocations(),
                verified,
                work,
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
/// past the cap — the committed baseline value survives the extended
/// grid's 256- and 1024-node columns.
pub fn scale_sweep_hash(cells: &[ScaleCell]) -> u64 {
    prema_cluster::fold_hashes(
        cells
            .iter()
            .filter(|cell| cell.verified)
            .map(|cell| cell.hash),
    )
}

/// Folds *every* cell digest, heap-only columns included — the identity
/// the extended sweep pins in addition to [`scale_sweep_hash`].
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
                aggregate.work.add(&cell.work);
            }
            None => aggregates.push(ScaleAggregate {
                nodes: cell.nodes,
                events: cell.events,
                work: cell.work,
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
            assert_eq!(x.work, y.work);
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
        // The counted work reconciles with the outcomes: stealing and
        // shedding cells count their steals and sheds, and every node count
        // pushed certificates on the heap.
        for cell in &a {
            assert_eq!(cell.work.steals, cell.steals);
            assert_eq!(cell.work.sheds, cell.shed as u64);
            assert!(cell.verified);
        }
        let aggregates = scale_aggregates(&a);
        assert_eq!(aggregates.len(), opts.node_counts.len());
        for aggregate in aggregates {
            assert!(aggregate.events > 0);
            assert!(aggregate.work.heap_pushes > 0);
            let cells = a.iter().filter(|cell| cell.nodes == aggregate.nodes);
            let pushes: u64 = cells.map(|cell| cell.work.heap_pushes).sum();
            assert_eq!(aggregate.work.heap_pushes, pushes);
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
            assert_eq!(cell.work, full.work);
            assert_eq!(cell.verified, cell.nodes <= capped_opts.reference_cap);
        }
        // The gate digest folds only verified cells; the extended digest
        // folds all of them and matches the uncapped sweep's.
        let verified_prefix: Vec<ScaleCell> = capped
            .iter()
            .filter(|cell| cell.verified)
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
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(ScaleSweepOptions::baseline().validate().is_ok());
    }
}
