//! The straggler-mitigation benchmark: deadline-triggered checkpoint
//! migration vs riding out degraded nodes.
//!
//! This sweep answers the question the migration machinery exists for:
//! *when nodes merely slow down instead of dying, does evacuating their
//! started work over a priced interconnect beat staying put?* Each level is
//! a degrade severity (the straggler's fractional clock speed) and draws
//! one degrade-only fault schedule. The two arms of the [`PairedSweep`]
//! serve it with [`MigrationConfig`]-governed migration and with migration
//! off.
//!
//! The headline comparison is p99 turnaround per severity: migration must
//! beat migration-off wherever the stragglers bite (the committed
//! `BENCH_cluster_migration.json` records the margins).

use rand::rngs::StdRng;

use npu_sim::NpuConfig;
use prema_cluster::{ClusterMetrics, MigrationConfig, OnlineOutcome, RecoveryConfig};
use prema_core::SchedulerConfig;
use prema_workload::{FaultProcess, FaultSchedule};

use crate::paired::{Arm, Base, PairedCell, PairedSweep};

/// Options controlling a straggler-migration sweep.
#[derive(Debug, Clone)]
pub struct MigrationSweepOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Offered load (fraction of cluster capacity).
    pub rho: f64,
    /// RNG seed; per-severity request streams and degrade schedules derive
    /// from it.
    pub seed: u64,
    /// Length of each generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// The degrade severities to sweep: each is the straggler clock as a
    /// `(num, den)` fraction of full speed.
    pub severities: Vec<(u32, u32)>,
    /// How many of the cluster's nodes straggle (nodes `0..degraded_nodes`
    /// receive degrade windows; the rest stay healthy). The classic
    /// straggler scenario — and the regime where evacuation has somewhere
    /// worth going.
    pub degraded_nodes: usize,
    /// Mean time between degrade windows per straggler node, in
    /// milliseconds.
    pub degrade_mtbf_ms: f64,
    /// Mean degrade-window length, in milliseconds.
    pub degrade_window_ms: f64,
    /// The migration SLA, as a multiple of the mean service time.
    pub sla_multiplier: f64,
    /// The per-node scheduler.
    pub scheduler: SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: NpuConfig,
}

impl MigrationSweepOptions {
    /// The committed-baseline sweep: 4 PREMA nodes at 70 % offered load,
    /// 400 ms runs, two straggler nodes at 1/2, 1/4 and 1/8 speed in
    /// ~120 ms degrade windows every ~250 ms, SLA at 8× the mean service
    /// time. Long windows are the regime where evacuation pays: the
    /// stay-cost of riding out the slowdown dwarfs transfer + restore.
    pub fn baseline() -> Self {
        MigrationSweepOptions {
            nodes: 4,
            rho: 0.7,
            seed: 2020,
            duration_ms: 400.0,
            severities: vec![(1, 2), (1, 4), (1, 8)],
            degraded_nodes: 2,
            degrade_mtbf_ms: 250.0,
            degrade_window_ms: 120.0,
            sla_multiplier: 8.0,
            scheduler: SchedulerConfig::paper_default(),
            npu: NpuConfig::paper_default(),
        }
    }

    /// A reduced sweep for unit tests and quick local runs.
    pub fn quick() -> Self {
        MigrationSweepOptions {
            nodes: 2,
            degraded_nodes: 1,
            duration_ms: 80.0,
            severities: vec![(1, 8)],
            degrade_mtbf_ms: 40.0,
            degrade_window_ms: 25.0,
            ..MigrationSweepOptions::baseline()
        }
    }
}

/// The metrics of one migration-sweep cell.
#[derive(Debug, Clone)]
pub struct MigrationMetrics {
    /// Degrade windows injected.
    pub degrades: u64,
    /// Checkpoint evacuations performed (zero in `stay` cells).
    pub migrations: u64,
    /// Checkpoint context shipped over the interconnect, in bytes.
    pub migration_bytes: u64,
    /// Mean evacuation latency (decision until delivery), milliseconds.
    pub mean_evacuation_ms: f64,
    /// Fraction of node-time spent inside a degrade window.
    pub degraded_fraction: f64,
    /// 99th-percentile turnaround of the served work, milliseconds.
    pub p99_ms: f64,
    /// Average normalized turnaround time of the served work.
    pub antt: f64,
}

/// One migration-sweep cell; the level is the straggler clock `(num, den)`.
pub type MigrationCell = PairedCell<(u32, u32), MigrationMetrics>;

impl PairedSweep for MigrationSweepOptions {
    type Level = (u32, u32);
    type Metrics = MigrationMetrics;

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
        if self.nodes < 2 {
            return Err("migration needs at least two nodes".into());
        }
        self.base().validate()?;
        if self.degraded_nodes == 0 || self.degraded_nodes >= self.nodes {
            return Err(
                "the straggler set must be non-empty and leave at least one healthy node".into(),
            );
        }
        if self.severities.is_empty() {
            return Err("at least one degrade severity is required".into());
        }
        if self
            .severities
            .iter()
            .any(|&(num, den)| num == 0 || num >= den)
        {
            return Err("each severity must be a proper fraction (0 < num < den)".into());
        }
        if !self.degrade_mtbf_ms.is_finite() || self.degrade_mtbf_ms <= 0.0 {
            return Err("degrade MTBF must be positive and finite".into());
        }
        if !self.degrade_window_ms.is_finite() || self.degrade_window_ms <= 0.0 {
            return Err("degrade window must be positive and finite".into());
        }
        if !self.sla_multiplier.is_finite() || self.sla_multiplier <= 0.0 {
            return Err("SLA multiplier must be positive and finite".into());
        }
        Ok(())
    }

    fn levels(&self, _service_ms: f64) -> Vec<(u32, u32)> {
        self.severities.clone()
    }

    fn arms(&self, service_ms: f64) -> [Arm; 2] {
        [
            (
                "migrate",
                Some(MigrationConfig::new(self.sla_multiplier * service_ms)),
            ),
            ("stay", None),
        ]
        .map(|(label, migration)| Arm {
            label,
            recovery: RecoveryConfig::checkpointed(),
            migration,
        })
    }

    /// degrade_fraction 1.0 makes every sampled window a straggler window
    /// at the level's speed.
    fn plan(&self, (num, den): (u32, u32), rng: &mut StdRng) -> FaultSchedule {
        FaultProcess::crashes(
            self.degraded_nodes,
            self.degrade_mtbf_ms,
            self.degrade_window_ms,
            self.duration_ms,
        )
        .with_degradation(1.0, num, den)
        .generate(rng)
    }

    fn metrics(&self, _plan: &FaultSchedule, pair: [&OnlineOutcome; 2]) -> [MigrationMetrics; 2] {
        pair.map(|outcome| {
            let metrics = ClusterMetrics::from_online(outcome, &self.npu);
            MigrationMetrics {
                degrades: outcome.degrades,
                migrations: outcome.migrations,
                migration_bytes: outcome.migration_bytes,
                mean_evacuation_ms: metrics.mean_evacuation_ms,
                degraded_fraction: metrics.degraded_fraction,
                p99_ms: metrics.p99_ms,
                antt: metrics.antt,
            }
        })
    }

    /// Migration beats staying put on p99 turnaround.
    fn wins(migrate: &MigrationMetrics, stay: &MigrationMetrics) -> bool {
        migrate.p99_ms < stay.p99_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::{run_paired, sweep_hash};

    #[test]
    fn quick_migration_sweep_is_deterministic_and_actually_migrates() {
        let opts = MigrationSweepOptions::quick();
        let a = run_paired(&opts);
        let b = run_paired(&opts);
        assert_eq!(a.len(), opts.severities.len() * 2);
        assert_eq!(sweep_hash(&a), sweep_hash(&b));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hash, y.hash);
            assert_eq!(x.served, y.served);
        }
        // Both policies answered the same driving: same stream, same
        // degrade windows, different service outcomes.
        let (migrate, stay) = (&a[0], &a[1]);
        assert_eq!(migrate.policy, "migrate");
        assert_eq!(stay.policy, "stay");
        assert_eq!(migrate.requests, stay.requests);
        assert_eq!(migrate.metrics.degrades, stay.metrics.degrades);
        assert!(
            migrate.metrics.degrades > 0,
            "the process must degrade nodes"
        );
        assert!(
            migrate.metrics.migrations > 0,
            "stragglers must trigger evacuation"
        );
        assert_eq!(stay.metrics.migrations, 0);
        assert!(migrate.metrics.degraded_fraction > 0.0);
        assert!(migrate.metrics.mean_evacuation_ms > 0.0);
    }

    #[test]
    fn validation_rejects_bad_options() {
        let rejects = |tweak: fn(&mut MigrationSweepOptions)| {
            let mut opts = MigrationSweepOptions::quick();
            tweak(&mut opts);
            opts.validate().is_err()
        };
        assert!(rejects(|o| o.nodes = 1));
        assert!(rejects(|o| o.rho = -1.0));
        assert!(rejects(|o| o.severities = vec![]));
        assert!(rejects(|o| o.severities = vec![(0, 2)]));
        assert!(rejects(|o| o.severities = vec![(2, 2)]));
        assert!(rejects(|o| o.degrade_mtbf_ms = 0.0));
        assert!(rejects(|o| o.degrade_window_ms = f64::NAN));
        assert!(rejects(|o| o.sla_multiplier = 0.0));
        assert!(MigrationSweepOptions::baseline().validate().is_ok());
    }
}
