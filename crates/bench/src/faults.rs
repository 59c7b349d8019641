//! The cluster fault-tolerance benchmark: checkpoint-priced recovery vs
//! restart-from-zero under seeded node crashes.
//!
//! This sweep answers the fault-injection question the serving benches
//! leave open: *what does PREMA's checkpointing actually buy when nodes
//! fail?* Each level is an MTBF, expressed as a multiple of the mean
//! service time so the fault pressure is load-relative, and draws one
//! crash/freeze schedule. The two arms of the [`PairedSweep`] answer it
//! with [`RecoveryConfig::checkpointed`] (salvaged tasks resume from their
//! last commit point, paying the restore DMA) and
//! [`RecoveryConfig::restart_from_zero`] (identical retry/backoff policy,
//! all progress discarded).
//!
//! The headline row is MTBF ≈ 10× the mean service time: frequent enough
//! that most crashes land on started work, rare enough that the cluster
//! still mostly serves — there, checkpoint recovery's p99 turnaround must
//! beat restart-from-zero's (the committed `BENCH_cluster_faults.json`
//! records the margin).

use rand::rngs::StdRng;

use npu_sim::NpuConfig;
use prema_cluster::{ClusterMetrics, OnlineOutcome, RecoveryConfig};
use prema_core::SchedulerConfig;
use prema_workload::{FaultProcess, FaultSchedule};

use crate::paired::{Arm, Base, PairedCell, PairedSweep};

/// Options controlling a cluster fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Offered load (fraction of cluster capacity).
    pub rho: f64,
    /// RNG seed; per-level request streams and fault schedules derive
    /// from it.
    pub seed: u64,
    /// Length of each generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// The MTBF levels, as multiples of the mean service time.
    pub mtbf_multipliers: Vec<f64>,
    /// Mean fault-window length, in milliseconds.
    pub downtime_ms: f64,
    /// Fraction of faults that freeze (straggle) instead of crashing.
    pub freeze_fraction: f64,
    /// The per-node scheduler.
    pub scheduler: SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: NpuConfig,
}

impl FaultSweepOptions {
    /// The committed-baseline sweep: 4 PREMA nodes at 75 % offered load,
    /// 400 ms windows, MTBF at 5× / 10× / 20× the mean service time with
    /// 2 ms fault windows, a fifth of them freezes.
    pub fn baseline() -> Self {
        FaultSweepOptions {
            nodes: 4,
            rho: 0.75,
            seed: 2020,
            duration_ms: 400.0,
            mtbf_multipliers: vec![5.0, 10.0, 20.0],
            downtime_ms: 2.0,
            freeze_fraction: 0.2,
            scheduler: SchedulerConfig::paper_default(),
            npu: NpuConfig::paper_default(),
        }
    }

    /// A reduced sweep for unit tests and quick local runs.
    pub fn quick() -> Self {
        FaultSweepOptions {
            nodes: 2,
            duration_ms: 80.0,
            mtbf_multipliers: vec![10.0],
            ..FaultSweepOptions::baseline()
        }
    }
}

/// The metrics of one fault-sweep cell.
#[derive(Debug, Clone)]
pub struct FaultMetrics {
    /// Requests shed by admission control (zero in this sweep — admission
    /// is off so recovery effects stay isolated).
    pub shed: usize,
    /// Requests abandoned after exhausting the retry budget.
    pub abandoned: usize,
    /// Node crash windows injected.
    pub crashes: u64,
    /// Node freeze windows injected.
    pub freezes: u64,
    /// Salvaged-task re-dispatches performed.
    pub recoveries: u64,
    /// Fraction of node-time the nodes were up.
    pub availability: f64,
    /// Useful served work per unit of provisioned capacity.
    pub goodput: f64,
    /// 99th-percentile turnaround of the served work, milliseconds.
    pub p99_ms: f64,
    /// Average normalized turnaround time of the served work.
    pub antt: f64,
}

/// One fault-sweep cell; the level is `(MTBF multiplier, MTBF in ms)`.
pub type FaultCell = PairedCell<(f64, f64), FaultMetrics>;

impl PairedSweep for FaultSweepOptions {
    type Level = (f64, f64);
    type Metrics = FaultMetrics;

    fn base(&self) -> Base<'_> {
        Base {
            nodes: self.nodes,
            rho: self.rho,
            seed: self.seed,
            duration_ms: self.duration_ms,
            scheduler: &self.scheduler,
            npu: &self.npu,
        }
    }

    fn validate(&self) -> Result<(), String> {
        self.base().validate()?;
        if self.mtbf_multipliers.is_empty()
            || self
                .mtbf_multipliers
                .iter()
                .any(|m| !m.is_finite() || *m <= 0.0)
        {
            return Err("MTBF multipliers must be non-empty, positive and finite".into());
        }
        if !self.downtime_ms.is_finite() || self.downtime_ms <= 0.0 {
            return Err("downtime must be positive and finite".into());
        }
        if !(0.0..=1.0).contains(&self.freeze_fraction) {
            return Err("freeze fraction must be within [0, 1]".into());
        }
        Ok(())
    }

    fn levels(&self, service_ms: f64) -> Vec<(f64, f64)> {
        self.mtbf_multipliers
            .iter()
            .map(|&multiplier| (multiplier, multiplier * service_ms))
            .collect()
    }

    fn arms(&self, _service_ms: f64) -> [Arm; 2] {
        [
            ("checkpoint", RecoveryConfig::checkpointed()),
            ("restart-zero", RecoveryConfig::restart_from_zero()),
        ]
        .map(|(label, recovery)| Arm {
            label,
            recovery,
            migration: None,
        })
    }

    fn plan(&self, (_, mtbf_ms): (f64, f64), rng: &mut StdRng) -> FaultSchedule {
        FaultProcess::crashes(self.nodes, mtbf_ms, self.downtime_ms, self.duration_ms)
            .with_freeze_fraction(self.freeze_fraction)
            .generate(rng)
    }

    fn metrics(&self, _plan: &FaultSchedule, pair: [&OnlineOutcome; 2]) -> [FaultMetrics; 2] {
        pair.map(|outcome| {
            let metrics = ClusterMetrics::from_online(outcome, &self.npu);
            FaultMetrics {
                shed: outcome.shed.len(),
                abandoned: outcome.abandoned.len(),
                crashes: outcome.crashes,
                freezes: outcome.freezes,
                recoveries: outcome.recoveries,
                availability: metrics.availability,
                goodput: metrics.goodput,
                p99_ms: metrics.p99_ms,
                antt: metrics.antt,
            }
        })
    }

    /// Checkpoint recovery beats restart-from-zero on p99 turnaround.
    fn wins(checkpoint: &FaultMetrics, restart: &FaultMetrics) -> bool {
        checkpoint.p99_ms < restart.p99_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::{run_paired, sweep_hash};

    #[test]
    fn quick_fault_sweep_is_deterministic_and_actually_faults() {
        let opts = FaultSweepOptions::quick();
        let a = run_paired(&opts);
        let b = run_paired(&opts);
        assert_eq!(a.len(), opts.mtbf_multipliers.len() * 2);
        assert_eq!(sweep_hash(&a), sweep_hash(&b));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hash, y.hash);
            assert_eq!(x.served, y.served);
        }
        // Both policies answered the same driving: same stream, same
        // faults, different service outcomes.
        let (checkpoint, restart) = (&a[0], &a[1]);
        assert_eq!(checkpoint.policy, "checkpoint");
        assert_eq!(restart.policy, "restart-zero");
        assert_eq!(checkpoint.requests, restart.requests);
        assert_eq!(checkpoint.metrics.crashes, restart.metrics.crashes);
        assert_eq!(checkpoint.metrics.freezes, restart.metrics.freezes);
        assert!(
            checkpoint.metrics.crashes > 0,
            "the process must crash nodes"
        );
        assert!(
            checkpoint.metrics.recoveries > 0,
            "crashes must trigger recovery"
        );
        assert!(checkpoint.metrics.availability < 1.0);
        assert!(checkpoint.metrics.goodput > 0.0);
        assert_eq!(checkpoint.metrics.shed, 0);
    }

    #[test]
    fn validation_rejects_bad_options() {
        let rejects = |tweak: fn(&mut FaultSweepOptions)| {
            let mut opts = FaultSweepOptions::quick();
            tweak(&mut opts);
            opts.validate().is_err()
        };
        assert!(rejects(|o| o.nodes = 0));
        assert!(rejects(|o| o.rho = -1.0));
        assert!(rejects(|o| o.mtbf_multipliers = vec![]));
        assert!(rejects(|o| o.mtbf_multipliers = vec![0.0]));
        assert!(rejects(|o| o.downtime_ms = f64::NAN));
        assert!(rejects(|o| o.freeze_fraction = 1.5));
        assert!(FaultSweepOptions::baseline().validate().is_ok());
    }
}
