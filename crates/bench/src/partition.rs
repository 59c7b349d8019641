//! The partition-tolerance benchmark: redirect-with-backoff custody vs
//! abandoning checkpoints on the first failed transfer.
//!
//! This sweep answers the question the custody layer exists for: *when the
//! interconnect itself turns lossy — links dropping and throttling while
//! stragglers force evacuations across them — does holding custody of an
//! in-flight checkpoint and redirecting it beat giving up?* Each level is
//! a link MTBF and draws one straggler (degrade) schedule and then one
//! link-fault schedule. The two arms of the [`PairedSweep`] serve it under
//! [`CustodyConfig::redirect`] and [`CustodyConfig::abandon_on_failure`];
//! every cell's books, custody reconciliation included, must balance.
//!
//! The headline comparison is goodput *and* lost-request-inclusive p99
//! turnaround per MTBF level: redirect must beat abandon on both at a
//! majority of levels (the committed `BENCH_cluster_partition.json`
//! records the margins). The p99 here deliberately refuses survivorship
//! bias — a policy must not look fast by deleting its slowest requests —
//! so every abandoned request enters the distribution at the wait its
//! client actually observed: arrival until the end of the run, when it
//! still had nothing.

use rand::rngs::StdRng;

use npu_sim::{Cycles, NpuConfig};
use prema_cluster::{CustodyConfig, MigrationConfig, OnlineOutcome, RecoveryConfig};
use prema_core::SchedulerConfig;
use prema_metrics::percentile;
use prema_workload::{FaultProcess, FaultSchedule, LinkFaultProcess};

use crate::paired::{Arm, Base, PairedCell, PairedSweep};

/// Options controlling a partition-tolerance sweep.
#[derive(Debug, Clone)]
pub struct PartitionSweepOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Offered load (fraction of cluster capacity).
    pub rho: f64,
    /// RNG seed; per-level request streams, degrade schedules and link
    /// schedules derive from it.
    pub seed: u64,
    /// Length of each generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// The link-MTBF levels to sweep: mean up-time between fault windows
    /// on one directed link, in milliseconds. Lower is stormier.
    pub link_mtbf_levels_ms: Vec<f64>,
    /// Mean link fault-window length, in milliseconds.
    pub link_outage_ms: f64,
    /// Fraction of link fault windows that throttle bandwidth instead of
    /// severing the link outright.
    pub degraded_link_fraction: f64,
    /// Throttled-window bandwidth, as a `(num, den)` fraction of nominal.
    pub link_bandwidth: (u32, u32),
    /// How many nodes straggle (nodes `0..degraded_nodes` receive degrade
    /// windows) — the force that makes checkpoints cross the fabric at all.
    pub degraded_nodes: usize,
    /// The straggler clock as a `(num, den)` fraction of full speed.
    pub degrade_speed: (u32, u32),
    /// Mean time between degrade windows per straggler node, in
    /// milliseconds.
    pub degrade_mtbf_ms: f64,
    /// Mean degrade-window length, in milliseconds.
    pub degrade_window_ms: f64,
    /// The migration SLA, as a multiple of the mean service time.
    pub sla_multiplier: f64,
    /// The custody delivery deadline, in milliseconds — transfers still in
    /// flight past this fail with a timeout.
    pub delivery_timeout_ms: f64,
    /// The redirect cell's retry budget. The exponential backoff span must
    /// outlive a typical link fault window, or every retry lands back in
    /// the same outage and redirect degenerates into slow abandonment.
    pub retry_budget: u32,
    /// The redirect cell's backoff base, in milliseconds: retry `k` waits
    /// `base * 2^(k-1)` before re-picking a target.
    pub backoff_base_ms: f64,
    /// The per-node scheduler.
    pub scheduler: SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: NpuConfig,
    /// Wall-clock repetitions per (cell, driver); the minimum is reported.
    pub repetitions: usize,
}

impl PartitionSweepOptions {
    /// The committed-baseline sweep: 4 PREMA nodes at 70 % offered load,
    /// 400 ms runs, two straggler nodes at 1/8 speed forcing evacuations,
    /// and per-link fault windows at 120/60/30 ms MTBF. Most windows
    /// throttle the link to 1/64 bandwidth rather than severing it — the
    /// lossy regime where transfers launch, blow the delivery deadline
    /// mid-flight, and force the custody policy to choose.
    pub fn baseline() -> Self {
        PartitionSweepOptions {
            nodes: 4,
            rho: 0.75,
            seed: 2020,
            duration_ms: 400.0,
            link_mtbf_levels_ms: vec![60.0, 30.0, 15.0],
            link_outage_ms: 80.0,
            degraded_link_fraction: 0.9,
            link_bandwidth: (1, 128),
            degraded_nodes: 2,
            degrade_speed: (1, 8),
            degrade_mtbf_ms: 120.0,
            degrade_window_ms: 150.0,
            sla_multiplier: 8.0,
            delivery_timeout_ms: 0.5,
            retry_budget: 6,
            backoff_base_ms: 2.0,
            scheduler: SchedulerConfig::paper_default(),
            npu: NpuConfig::paper_default(),
            repetitions: 3,
        }
    }

    /// A reduced sweep for unit tests and quick local runs.
    pub fn quick() -> Self {
        PartitionSweepOptions {
            nodes: 3,
            degraded_nodes: 1,
            duration_ms: 120.0,
            link_mtbf_levels_ms: vec![20.0],
            link_outage_ms: 25.0,
            degrade_mtbf_ms: 50.0,
            degrade_window_ms: 45.0,
            repetitions: 1,
            ..PartitionSweepOptions::baseline()
        }
    }

    /// The per-link outage process at one link-MTBF level.
    fn link_process(&self, link_mtbf_ms: f64) -> LinkFaultProcess {
        LinkFaultProcess::outages(
            self.nodes,
            link_mtbf_ms,
            self.link_outage_ms,
            self.duration_ms,
        )
        .with_degraded(
            self.degraded_link_fraction,
            self.link_bandwidth.0,
            self.link_bandwidth.1,
        )
    }
}

/// The lost-request-inclusive p99: served turnarounds plus, for every
/// abandoned request, an infinite turnaround — the request never
/// completed, and a policy must not look fast by deleting its slowest
/// requests.
fn lost_inclusive_p99_ms(outcome: &OnlineOutcome, npu: &NpuConfig) -> f64 {
    let mut waits: Vec<f64> = outcome
        .cluster
        .merged_records()
        .iter()
        .map(|record| npu.cycles_to_millis(record.turnaround()))
        .collect();
    waits.extend(outcome.abandoned.iter().map(|_| f64::INFINITY));
    percentile(&waits, 99.0).unwrap_or(0.0)
}

/// Useful served work per unit of provisioned capacity over a shared
/// observation horizon.
fn horizon_goodput(outcome: &OnlineOutcome, nodes: usize, horizon: Cycles) -> f64 {
    let provisioned = horizon.get() as f64 * nodes as f64;
    if provisioned == 0.0 {
        return 0.0;
    }
    let useful: Cycles = outcome
        .cluster
        .merged_records()
        .iter()
        .map(|record| record.isolated_cycles)
        .sum();
    useful.get() as f64 / provisioned
}

/// The metrics of one partition-sweep cell.
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    /// Requests abandoned (custody losses included).
    pub abandoned: usize,
    /// Link fault windows in the schedule (identical across policies).
    pub link_faults: usize,
    /// Checkpoint evacuations launched.
    pub migrations: u64,
    /// In-flight transfers that failed (drop, timeout, dead destination,
    /// or no reachable redirect target).
    pub transfer_failures: u64,
    /// Failed transfers redirected instead of abandoned.
    pub redirects: u64,
    /// Useful served work per unit of provisioned capacity over the
    /// level's common observation horizon (the longer of the two paired
    /// makespans) — a policy must not raise its goodput by abandoning work
    /// and ending the run early.
    pub goodput: f64,
    /// Lost-request-inclusive 99th-percentile turnaround, milliseconds: an
    /// abandoned request never completes, so it enters the distribution at
    /// infinity (the convention [`prema_cluster::ClusterMetrics`] already
    /// uses for its SLA curve). Infinite whenever roughly a percent or
    /// more of the stream was lost.
    pub p99_ms: f64,
}

/// One partition-sweep cell; the level is the link MTBF in milliseconds.
pub type PartitionCell = PairedCell<f64, PartitionMetrics>;

impl PairedSweep for PartitionSweepOptions {
    type Level = f64;
    type Metrics = PartitionMetrics;

    fn base(&self) -> Base<'_> {
        Base {
            nodes: self.nodes,
            rho: self.rho,
            seed: self.seed,
            duration_ms: self.duration_ms,
            scheduler: &self.scheduler,
            npu: &self.npu,
            repetitions: self.repetitions,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("custody transfers need at least two nodes".into());
        }
        self.base().validate()?;
        if self.link_mtbf_levels_ms.is_empty() {
            return Err("at least one link-MTBF level is required".into());
        }
        if self
            .link_mtbf_levels_ms
            .iter()
            .any(|mtbf| !mtbf.is_finite() || *mtbf <= 0.0)
        {
            return Err("every link MTBF must be positive and finite".into());
        }
        if self.degraded_nodes == 0 || self.degraded_nodes >= self.nodes {
            return Err(
                "the straggler set must be non-empty and leave at least one healthy node".into(),
            );
        }
        let (num, den) = self.degrade_speed;
        if num == 0 || num >= den {
            return Err("the degrade speed must be a proper fraction (0 < num < den)".into());
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
        if !self.delivery_timeout_ms.is_finite() || self.delivery_timeout_ms <= 0.0 {
            return Err("delivery timeout must be positive and finite".into());
        }
        let (bw_num, bw_den) = self.link_bandwidth;
        if bw_num == 0 || bw_num >= bw_den {
            return Err("the throttled bandwidth must be a proper fraction (0 < num < den)".into());
        }
        if self.retry_budget == 0 {
            return Err("the redirect cell needs a positive retry budget".into());
        }
        if !self.backoff_base_ms.is_finite() || self.backoff_base_ms <= 0.0 {
            return Err("the backoff base must be positive and finite".into());
        }
        // The link process carries its own invariants (outage length,
        // degraded fraction, bandwidth fraction); surface its typed error.
        self.link_process(self.link_mtbf_levels_ms[0])
            .validate()
            .map_err(|e| e.to_string())
    }

    fn levels(&self, _service_ms: f64) -> Vec<f64> {
        self.link_mtbf_levels_ms.clone()
    }

    fn arms(&self, service_ms: f64) -> [Arm; 2] {
        let redirect = CustodyConfig {
            retry_budget: self.retry_budget,
            backoff_base_ms: self.backoff_base_ms,
            ..CustodyConfig::redirect()
        };
        [
            ("redirect", redirect),
            ("abandon", CustodyConfig::abandon_on_failure()),
        ]
        .map(|(label, custody)| Arm {
            label,
            recovery: RecoveryConfig::checkpointed(),
            migration: Some(
                MigrationConfig::new(self.sla_multiplier * service_ms)
                    .with_custody(custody.with_timeout_ms(self.delivery_timeout_ms)),
            ),
        })
    }

    /// The straggler windows that force evacuations, then the link windows
    /// those evacuations must cross.
    fn plan(&self, link_mtbf_ms: f64, rng: &mut StdRng) -> FaultSchedule {
        let (speed_num, speed_den) = self.degrade_speed;
        let schedule = FaultProcess::crashes(
            self.degraded_nodes,
            self.degrade_mtbf_ms,
            self.degrade_window_ms,
            self.duration_ms,
        )
        .with_degradation(1.0, speed_num, speed_den)
        .generate(rng);
        schedule.with_links(self.link_process(link_mtbf_ms).generate(rng))
    }

    /// The pair shares one observation horizon — the longer of the two
    /// makespans — so a policy cannot raise its goodput by abandoning work
    /// and ending the run early.
    fn metrics(&self, plan: &FaultSchedule, pair: [&OnlineOutcome; 2]) -> [PartitionMetrics; 2] {
        let horizon = pair[0].cluster.makespan().max(pair[1].cluster.makespan());
        pair.map(|outcome| PartitionMetrics {
            abandoned: outcome.abandoned.len(),
            link_faults: plan.links.len(),
            migrations: outcome.migrations,
            transfer_failures: outcome.transfer_failures,
            redirects: outcome.redirects,
            goodput: horizon_goodput(outcome, self.nodes, horizon),
            p99_ms: lost_inclusive_p99_ms(outcome, &self.npu),
        })
    }

    /// Redirect beats abandon on *both* goodput and lost-request-inclusive
    /// p99.
    fn wins(redirect: &PartitionMetrics, abandon: &PartitionMetrics) -> bool {
        redirect.goodput > abandon.goodput && redirect.p99_ms < abandon.p99_ms
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::{run_paired, sweep_hash};

    #[test]
    fn quick_partition_sweep_is_deterministic_and_exercises_custody() {
        let opts = PartitionSweepOptions::quick();
        let a = run_paired(&opts);
        let b = run_paired(&opts);
        assert_eq!(a.len(), opts.link_mtbf_levels_ms.len() * 2);
        assert_eq!(sweep_hash(&a), sweep_hash(&b));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hash, y.hash);
            assert_eq!(x.served, y.served);
        }
        // Both policies answered the same driving: same stream, same link
        // windows, different custody outcomes.
        let (redirect, abandon) = (&a[0], &a[1]);
        assert_eq!(redirect.policy, "redirect");
        assert_eq!(abandon.policy, "abandon");
        assert_eq!(redirect.requests, abandon.requests);
        assert_eq!(redirect.metrics.link_faults, abandon.metrics.link_faults);
        assert!(
            redirect.metrics.link_faults > 0,
            "the process must fault links"
        );
        assert!(
            redirect.metrics.migrations > 0,
            "stragglers must force evacuation"
        );
    }

    #[test]
    fn validation_rejects_bad_options() {
        let rejects = |tweak: fn(&mut PartitionSweepOptions)| {
            let mut opts = PartitionSweepOptions::quick();
            tweak(&mut opts);
            opts.validate().is_err()
        };
        assert!(rejects(|o| o.nodes = 1));
        assert!(rejects(|o| o.rho = -1.0));
        assert!(rejects(|o| o.link_mtbf_levels_ms = vec![]));
        assert!(rejects(|o| o.link_mtbf_levels_ms = vec![0.0]));
        assert!(rejects(|o| o.degraded_link_fraction = 2.0));
        assert!(rejects(|o| o.link_bandwidth = (2, 2)));
        assert!(rejects(|o| o.degrade_speed = (0, 8)));
        assert!(rejects(|o| o.delivery_timeout_ms = 0.0));
        assert!(rejects(|o| o.repetitions = 0));
        assert!(PartitionSweepOptions::baseline().validate().is_ok());
    }
}
