//! Perfetto trace export for the closed-loop cluster benches.
//!
//! One seeded closed-loop scenario, run twice on identical driving: once
//! untraced and once with a [`JsonTraceSink`] attached. The two
//! [`OnlineOutcome`]s are asserted bit-identical (the flight recorder's
//! observe-never-perturb invariant), the trace's reconciliation counters
//! are checked against the outcome's own tallies, and the caller gets the
//! Chrome/Perfetto `trace_event` JSON to write wherever it likes. The
//! `throughput` driver writes it through one export path: `throughput
//! trace` runs the combined flavor, and `cluster`, `cluster-faults` and
//! `cluster-migration` re-run their own flavor when `--trace-out` is given.
//! Before writing, the driver checks the counters with
//! [`verify_reconciliation`] and parses the JSON with
//! [`crate::json::parse`], so every file it writes is loadable.

use npu_sim::NpuConfig;
use prema_cluster::{
    ClusterFaultPlan, JsonTraceSink, MigrationConfig, OnlineClusterConfig, OnlineClusterSimulator,
    OnlineDispatchPolicy, OnlineOutcome, RecoveryConfig, TraceReconciliation,
};
use prema_core::SchedulerConfig;
use prema_workload::FaultProcess;

use crate::cluster::{Streams, SLA_ADMIT_TARGET_P99_MS};

/// Options controlling one traced closed-loop scenario.
#[derive(Debug, Clone)]
pub struct TraceScenarioOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Offered load (fraction of cluster capacity).
    pub rho: f64,
    /// RNG seed; the request stream and fault schedule derive from it.
    pub seed: u64,
    /// Length of the generated arrival window, in milliseconds.
    pub duration_ms: f64,
    /// Inject a seeded crash/freeze/degrade schedule (MTBF at
    /// `mtbf_multiplier` times the mean service time).
    pub faults: bool,
    /// MTBF as a multiple of the mean service time, when faults are on.
    pub mtbf_multiplier: f64,
    /// Mean fault-window length, in milliseconds.
    pub downtime_ms: f64,
    /// Fraction of fault windows that freeze instead of crashing.
    pub freeze_fraction: f64,
    /// Fraction of fault windows that degrade (straggle) instead; degraded
    /// windows run at 1/8 speed.
    pub degrade_fraction: f64,
    /// Fault every node, or only the first half (leaving healthy
    /// destinations — the straggler regime migration exists for).
    pub fault_all_nodes: bool,
    /// Enable deadline-triggered checkpoint migration (SLA at 8x the mean
    /// service time).
    pub migration: bool,
    /// Enable work stealing onto idle nodes.
    pub stealing: bool,
    /// Enable SLA-aware admission shedding.
    pub admission: bool,
    /// The per-node scheduler.
    pub scheduler: SchedulerConfig,
    /// The per-node NPU configuration.
    pub npu: NpuConfig,
}

impl TraceScenarioOptions {
    /// The combined flavor `throughput trace` runs: crashes, freezes,
    /// degrades, checkpoint recovery, migration, stealing and admission all
    /// at once on a short window — every event category fires.
    pub fn combined() -> Self {
        TraceScenarioOptions {
            nodes: 4,
            rho: 0.75,
            seed: 2020,
            duration_ms: 120.0,
            faults: true,
            mtbf_multiplier: 2.5,
            downtime_ms: 8.0,
            freeze_fraction: 0.15,
            degrade_fraction: 0.35,
            fault_all_nodes: true,
            migration: true,
            stealing: true,
            admission: false,
            scheduler: SchedulerConfig::paper_default(),
            npu: NpuConfig::paper_default(),
        }
    }

    /// The fault-free serving flavor behind `cluster --trace-out`:
    /// predictive dispatch with stealing and admission.
    pub fn serving() -> Self {
        TraceScenarioOptions {
            faults: false,
            migration: false,
            admission: true,
            ..TraceScenarioOptions::combined()
        }
    }

    /// The crash/freeze flavor behind `cluster-faults --trace-out`.
    pub fn faults() -> Self {
        TraceScenarioOptions {
            degrade_fraction: 0.0,
            migration: false,
            stealing: false,
            ..TraceScenarioOptions::combined()
        }
    }

    /// The straggler flavor behind `cluster-migration --trace-out`:
    /// degrade-only windows with migration on.
    pub fn migration() -> Self {
        TraceScenarioOptions {
            freeze_fraction: 0.0,
            degrade_fraction: 1.0,
            mtbf_multiplier: 2.0,
            downtime_ms: 25.0,
            fault_all_nodes: false,
            stealing: false,
            ..TraceScenarioOptions::combined()
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("a traced cluster needs at least two nodes".into());
        }
        if !self.rho.is_finite() || self.rho <= 0.0 {
            return Err("rho must be positive and finite".into());
        }
        if !self.duration_ms.is_finite() || self.duration_ms <= 0.0 {
            return Err("duration must be positive and finite".into());
        }
        self.npu.validate()?;
        self.scheduler.validate()
    }
}

/// What one traced scenario produced: the outcome, the exporter's
/// reconciliation counters, and the serialized Perfetto JSON.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// The (trace-identical) closed-loop outcome.
    pub outcome: OnlineOutcome,
    /// The exporter's counters, for reconciling against the outcome.
    pub reconciliation: TraceReconciliation,
    /// The Chrome `trace_event` JSON.
    pub json: String,
    /// Requests in the generated stream.
    pub requests: usize,
    /// Cluster size the scenario ran on.
    pub nodes: usize,
}

/// Runs the scenario untraced and traced on identical driving and returns
/// the artifacts.
///
/// # Panics
///
/// Panics if attaching the trace sink perturbs the outcome — the invariant
/// the whole telemetry layer is built on.
pub fn run_trace_scenario(opts: &TraceScenarioOptions) -> TraceArtifacts {
    let streams = Streams::new(&opts.npu, opts.seed, opts.duration_ms);
    let service_ms = streams.service_ms;
    let (prepared, mut rng) = streams.level(streams.rate(opts.rho, opts.nodes), 0);

    let mut config = OnlineClusterConfig::new(
        opts.nodes,
        opts.scheduler.clone(),
        OnlineDispatchPolicy::Predictive,
    );
    if opts.faults {
        let faulted = if opts.fault_all_nodes {
            opts.nodes
        } else {
            (opts.nodes / 2).max(1).min(opts.nodes.saturating_sub(1))
        };
        let schedule = FaultProcess::crashes(
            faulted,
            opts.mtbf_multiplier * service_ms,
            opts.downtime_ms,
            opts.duration_ms,
        )
        .with_freeze_fraction(opts.freeze_fraction)
        .with_degradation(opts.degrade_fraction, 1, 8)
        .generate(&mut rng);
        config = config.with_faults(
            ClusterFaultPlan::new(schedule).with_recovery(RecoveryConfig::checkpointed()),
        );
    }
    if opts.migration {
        config = config.with_migration(MigrationConfig::new(8.0 * service_ms));
    }
    if opts.stealing {
        config = config.with_work_stealing();
    }
    if opts.admission {
        config = config.with_admission(SLA_ADMIT_TARGET_P99_MS);
    }

    let online = OnlineClusterSimulator::new(config);
    let untraced = online.run(&prepared.tasks);
    let (outcome, sink) =
        online.run_traced(&prepared.tasks, JsonTraceSink::new(opts.nodes, &opts.npu));
    assert_eq!(
        outcome, untraced,
        "attaching the trace sink perturbed the closed-loop outcome"
    );
    TraceArtifacts {
        reconciliation: sink.reconciliation(),
        json: sink.to_json(),
        requests: prepared.tasks.len(),
        nodes: opts.nodes,
        outcome,
    }
}

/// Checks the exporter's counters against the outcome's own tallies: every
/// steal / migration / recovery / shed instant must match the outcome
/// one-for-one, every served task must own at least one execution slice,
/// every arrival must have produced a dispatch decision, and every injected
/// fault window must have produced a fault instant.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn verify_reconciliation(artifacts: &TraceArtifacts) -> Result<(), String> {
    let rec = &artifacts.reconciliation;
    let outcome = &artifacts.outcome;
    if rec.steals != outcome.steals {
        return Err(format!(
            "trace recorded {} steals, outcome {}",
            rec.steals, outcome.steals
        ));
    }
    if rec.migrations != outcome.migrations || rec.migrations != outcome.migration_log.len() as u64
    {
        return Err(format!(
            "trace recorded {} migrations, outcome {} ({} logged)",
            rec.migrations,
            outcome.migrations,
            outcome.migration_log.len()
        ));
    }
    if rec.recoveries != outcome.recoveries || rec.recoveries != outcome.recovery_log.len() as u64 {
        return Err(format!(
            "trace recorded {} recoveries, outcome {} ({} logged)",
            rec.recoveries,
            outcome.recoveries,
            outcome.recovery_log.len()
        ));
    }
    if rec.sheds != outcome.shed.len() as u64 {
        return Err(format!(
            "trace recorded {} sheds, outcome shed {}",
            rec.sheds,
            outcome.shed.len()
        ));
    }
    if rec.slice_tasks < outcome.served() {
        return Err(format!(
            "{} served tasks but only {} own an execution slice",
            outcome.served(),
            rec.slice_tasks
        ));
    }
    // Every arrival picks a node, and so does every recovery re-dispatch.
    let expected_decisions = artifacts.requests as u64 + outcome.recoveries;
    if rec.dispatch_decisions != expected_decisions {
        return Err(format!(
            "{} arrivals + {} recoveries but {} dispatch decisions",
            artifacts.requests, outcome.recoveries, rec.dispatch_decisions
        ));
    }
    let fault_windows = outcome.crashes + outcome.freezes + outcome.degrades;
    if rec.faults < fault_windows {
        return Err(format!(
            "{fault_windows} fault windows began but only {} fault instants traced",
            rec.faults
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut opts: TraceScenarioOptions) -> TraceScenarioOptions {
        opts.nodes = 2;
        opts.duration_ms = 100.0;
        opts
    }

    #[test]
    fn combined_scenario_reconciles_and_emits_well_formed_json() {
        let artifacts = run_trace_scenario(&quick(TraceScenarioOptions::combined()));
        verify_reconciliation(&artifacts).expect("reconciliation");
        crate::json::parse(&artifacts.json).expect("the trace is valid JSON");
        assert!(artifacts.outcome.served() > 0);
        assert!(artifacts.reconciliation.slices >= artifacts.outcome.served() as u64);
        assert!(artifacts.reconciliation.faults > 0, "faults must fire");
        assert!(artifacts.json.contains(r#""ph":"X""#), "slices expected");
        assert!(artifacts.json.contains(r#""ph":"C""#), "counters expected");
    }

    #[test]
    fn migration_scenario_actually_migrates() {
        let artifacts = run_trace_scenario(&quick(TraceScenarioOptions::migration()));
        verify_reconciliation(&artifacts).expect("reconciliation");
        assert!(artifacts.outcome.migrations > 0, "stragglers must evacuate");
        assert!(artifacts.json.contains(r#""name":"migrate-out""#));
    }

    #[test]
    fn json_scanner_accepts_nested_and_rejects_unbalanced() {
        use crate::json::parse;
        assert!(parse(r#"{"a":[1,{"b":"}\""}]}"#).is_ok());
        assert!(parse(r#"{"a":[1}"#).is_err());
        assert!(parse(r#"{"a":"unterminated}"#).is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn validation_rejects_bad_options() {
        let rejects = |tweak: fn(&mut TraceScenarioOptions)| {
            let mut opts = TraceScenarioOptions::combined();
            tweak(&mut opts);
            opts.validate().is_err()
        };
        assert!(rejects(|o| o.nodes = 1));
        assert!(rejects(|o| o.rho = -1.0));
        assert!(rejects(|o| o.duration_ms = 0.0));
        assert!(TraceScenarioOptions::combined().validate().is_ok());
    }
}
