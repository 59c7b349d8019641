//! Determinism regression tests for the simulation fast path.
//!
//! The engine's incremental scheduler state, the prefix-sum plan tables, the
//! event-horizon fast-forward, the sharded plan-compilation cache (and its
//! warm pass) and the rayon-parallel evaluation suite are all pure
//! optimizations: none of them may change a single bit of any
//! [`prema::SimOutcome`]. These tests pin that contract by replaying
//! identical seeds through the optimized and reference paths and asserting
//! full structural equality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prema::cluster::{
    online_outcome_hash, outcome_hash, ClusterConfig, ClusterSimulator, DispatchPolicy,
    OnlineClusterConfig, OnlineClusterSimulator, OnlineDispatchPolicy,
};
use prema::{
    AnalyticalPredictor, NpuConfig, NpuSimulator, PolicyKind, PreemptionMechanism, PreemptionMode,
    SchedulerConfig, SimOutcome,
};
use prema_bench::cluster::{run_cluster_sweep, sweep_hash, ClosedLoopVariant, ClusterSweepOptions};
use prema_bench::suite::{run_grid, run_grid_reference, SuiteOptions};
use prema_workload::arrivals::{generate_open_loop, ArrivalProcess, OpenLoopConfig};
use prema_workload::generator::{generate_workload, WorkloadConfig};
use prema_workload::prepare::{prepare_workload, prepare_workload_uncached};

/// Every (policy, preemption mode) combination the paper evaluates.
/// Static(KILL) + round-robin livelocks by construction (each task keeps
/// discarding the other's progress every quantum), so it is excluded here
/// exactly as it is excluded from the paper's evaluation.
fn all_scheduler_configs() -> Vec<SchedulerConfig> {
    let mut configs = Vec::new();
    for policy in PolicyKind::ALL {
        for preemption in [
            PreemptionMode::NonPreemptive,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            PreemptionMode::Static(PreemptionMechanism::Kill),
            PreemptionMode::Dynamic,
            PreemptionMode::DynamicKill,
        ] {
            if policy == PolicyKind::RoundRobin
                && preemption == PreemptionMode::Static(PreemptionMechanism::Kill)
            {
                continue;
            }
            configs.push(SchedulerConfig::named(policy, preemption));
        }
    }
    configs
}

/// The plan-cached preparation path must produce bit-identical outcomes to
/// fresh per-task compilation, for every policy and preemption mode.
#[test]
fn cached_plans_match_uncached_plans_across_all_configs() {
    let npu = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let spec = generate_workload(
        &WorkloadConfig {
            task_count: 5,
            ..WorkloadConfig::paper_default()
        },
        &mut rng,
    );
    let cached = prepare_workload(&spec, &npu, None);
    let uncached = prepare_workload_uncached(&spec, &npu, None);
    assert_eq!(cached.len(), uncached.len());
    for (a, b) in cached.tasks.iter().zip(&uncached.tasks) {
        assert_eq!(a.request, b.request);
        assert_eq!(*a.plan, *b.plan, "cached plan must equal fresh compile");
    }

    for cfg in all_scheduler_configs() {
        let label = cfg.label();
        let sim = NpuSimulator::new(npu.clone(), cfg);
        let from_cached: SimOutcome = sim.run(&cached.tasks);
        let from_uncached: SimOutcome = sim.run(&uncached.tasks);
        assert_eq!(from_cached, from_uncached, "outcome diverged under {label}");
    }
}

/// The event-horizon fast-forward must be bit-identical to waking the
/// scheduler at every expired quantum, for every policy and preemption mode
/// — per-task records, makespan, preemption counters *and* the
/// scheduler-invocation count (skipped quanta are credited, not dropped).
#[test]
fn fast_forwarded_records_match_stepped_records_across_all_configs() {
    let npu = NpuConfig::paper_default();
    for seed in [0xFF01u64, 2020, 7] {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = generate_workload(
            &WorkloadConfig {
                task_count: 6,
                ..WorkloadConfig::paper_default()
            },
            &mut rng,
        );
        let prepared = prepare_workload(&spec, &npu, None);
        for cfg in all_scheduler_configs() {
            let label = cfg.label();
            let sim = NpuSimulator::new(npu.clone(), cfg);
            let fast: SimOutcome = sim.run(&prepared.tasks);
            let stepped: SimOutcome = sim.run_reference(&prepared.tasks);
            assert_eq!(
                fast, stepped,
                "fast-forwarded outcome diverged from step-every-quantum under {label} (seed {seed:#x})"
            );
        }
    }
}

/// Fast ≡ reference over `cases` random workloads, each under a random
/// scheduling quantum (0.02–1.5 ms) and token scale (0.2–10) and every
/// configuration. TOKEN and PREMA skip wakeups until a waiting task's
/// replayed grants reach a grant level, so this checks the exact crossing
/// at many quantum and level spacings. Half the workloads carry the
/// analytical predictor's estimates, which can under- or overshoot the
/// plan.
fn assert_fast_matches_reference_under_random_quanta(cases: usize, seed: u64) {
    let npu = NpuConfig::paper_default();
    let predictor = AnalyticalPredictor::new(npu.clone());
    let configs = all_scheduler_configs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut skipped = 0;
    for case in 0..cases {
        let spec = generate_workload(
            &WorkloadConfig {
                task_count: rng.gen_range(2usize..7),
                dispatch_window_ms: rng.gen_range(1.0..20.0),
                ..WorkloadConfig::paper_default()
            },
            &mut rng,
        );
        let estimates = rng.gen::<bool>().then_some(&predictor);
        let prepared = prepare_workload(&spec, &npu, estimates);
        let quantum_ms = rng.gen_range(0.02..1.5);
        let token_scale = rng.gen_range(0.2..10.0);
        for cfg in &configs {
            let cfg = SchedulerConfig {
                quantum_ms,
                token_scale,
                ..cfg.clone()
            };
            let label = cfg.label();
            let sim = NpuSimulator::new(npu.clone(), cfg);
            let fast = sim.run(&prepared.tasks);
            let stepped = sim.run_reference(&prepared.tasks);
            assert_eq!(
                fast, stepped,
                "case {case}: fast path diverged from step-every-quantum under {label} \
                 (quantum {quantum_ms} ms, token scale {token_scale})"
            );
            skipped += fast.quanta_skipped;
        }
    }
    assert!(skipped > 0, "the fast path must actually skip wakeups");
}

/// The per-PR depth of the random quantum / token-scale sweep.
#[test]
fn fast_path_matches_reference_under_random_quanta_and_token_scales() {
    assert_fast_matches_reference_under_random_quanta(400, 0x0A7A);
}

/// The nightly depth of the same sweep (release build):
/// `cargo test --release --test determinism -- --ignored`.
#[test]
#[ignore = "deep sweep; run nightly in release"]
fn fast_path_matches_reference_under_random_quanta_and_token_scales_deep() {
    assert_fast_matches_reference_under_random_quanta(20_000, 0xDEE9);
}

/// The parallel (run × config) suite must be bit-identical to the serial,
/// uncached reference sweep: same per-run seeds, same outcomes, for every
/// policy and preemption mode in one grid.
#[test]
fn parallel_cached_suite_matches_serial_uncached_reference() {
    let opts = SuiteOptions {
        runs: 2,
        seed: 2020,
        workload: WorkloadConfig {
            task_count: 5,
            ..WorkloadConfig::paper_default()
        },
        ..SuiteOptions::paper()
    };
    let configs = all_scheduler_configs();

    // Optimized path: parallel fan-out + plan cache (the default).
    let fast = run_grid(&configs, &opts);

    // Reference path: single-threaded, plans compiled from scratch per run.
    let reference: Vec<SimOutcome> = run_grid_reference(&configs, &opts);

    assert_eq!(fast.len(), reference.len());
    for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
        let cfg = &configs[i % configs.len()];
        assert_eq!(
            a,
            b,
            "grid cell {} (run {}, {}) diverged between parallel+cached and serial+uncached",
            i,
            i / configs.len(),
            cfg.label()
        );
    }
}

/// The cluster serving layer is deterministic per seed for every dispatch
/// policy and arrival process: the same seed produces a bit-identical
/// [`prema::cluster::ClusterOutcome`] whether the per-node simulations run
/// serially or fanned out over rayon, and across repeated invocations.
#[test]
fn cluster_runs_are_bit_identical_across_fanout_and_invocations() {
    let npu = NpuConfig::paper_default();
    for process in [
        ArrivalProcess::Poisson { rate_per_ms: 0.3 },
        ArrivalProcess::Bursty {
            on_rate_per_ms: 1.2,
            mean_on_ms: 10.0,
            mean_off_ms: 30.0,
        },
        ArrivalProcess::Diurnal {
            trough_rate_per_ms: 0.05,
            peak_rate_per_ms: 0.6,
            period_ms: 60.0,
        },
    ] {
        let config = OpenLoopConfig::poisson(1.0, 60.0).with_process(process);
        let mut rng = StdRng::seed_from_u64(0xC1D5);
        let spec = generate_open_loop(&config, &mut rng);
        let prepared = prepare_workload(&spec, &npu, None);
        for dispatch in DispatchPolicy::ALL {
            let make = |parallel: bool| {
                let mut cluster_cfg =
                    ClusterConfig::new(4, SchedulerConfig::paper_default(), dispatch)
                        .with_dispatch_seed(0xC1D5);
                cluster_cfg.parallel = parallel;
                ClusterSimulator::new(cluster_cfg).run(&prepared.tasks)
            };
            let parallel = make(true);
            let serial = make(false);
            let repeat = make(true);
            assert_eq!(
                parallel, serial,
                "cluster outcome diverged between parallel and serial node fan-out \
                 under {dispatch} / {process:?}"
            );
            assert_eq!(
                parallel, repeat,
                "cluster outcome not reproducible across invocations under {dispatch}"
            );
            assert_eq!(outcome_hash(&parallel), outcome_hash(&serial));
        }
    }
}

/// The closed-loop (online) cluster path is deterministic end to end: the
/// same prepared workload produces a bit-identical `OnlineOutcome` —
/// served records, final assignments (steals included), shed list, steal
/// count and digest — for every dispatch signal and closed-loop mechanism,
/// across arrival processes. There is no RNG anywhere on the path, so two
/// invocations must agree exactly.
#[test]
fn online_cluster_runs_are_bit_identical_across_invocations() {
    let npu = NpuConfig::paper_default();
    for process in [
        ArrivalProcess::Poisson { rate_per_ms: 0.3 },
        ArrivalProcess::Bursty {
            on_rate_per_ms: 1.2,
            mean_on_ms: 10.0,
            mean_off_ms: 30.0,
        },
    ] {
        let config = OpenLoopConfig::poisson(1.0, 60.0).with_process(process);
        let mut rng = StdRng::seed_from_u64(0x0A11E);
        let spec = generate_open_loop(&config, &mut rng);
        let prepared = prepare_workload(&spec, &npu, None);
        let variants: [(&str, OnlineClusterConfig); 5] = [
            (
                "jsq-live",
                OnlineClusterConfig::new(
                    3,
                    SchedulerConfig::paper_default(),
                    OnlineDispatchPolicy::ShortestQueue,
                ),
            ),
            (
                "least-work-live",
                OnlineClusterConfig::new(
                    3,
                    SchedulerConfig::paper_default(),
                    OnlineDispatchPolicy::LeastWork,
                ),
            ),
            (
                "predictive-live",
                OnlineClusterConfig::new(
                    3,
                    SchedulerConfig::paper_default(),
                    OnlineDispatchPolicy::Predictive,
                ),
            ),
            (
                "work-steal",
                OnlineClusterConfig::new(
                    3,
                    SchedulerConfig::paper_default(),
                    OnlineDispatchPolicy::Predictive,
                )
                .with_work_stealing(),
            ),
            (
                "sla-admit",
                OnlineClusterConfig::new(
                    3,
                    SchedulerConfig::paper_default(),
                    OnlineDispatchPolicy::Predictive,
                )
                .with_admission(150.0),
            ),
        ];
        for (label, config) in variants {
            let first = OnlineClusterSimulator::new(config.clone()).run(&prepared.tasks);
            let second = OnlineClusterSimulator::new(config).run(&prepared.tasks);
            assert_eq!(
                first, second,
                "online outcome not reproducible under {label} / {process:?}"
            );
            assert_eq!(online_outcome_hash(&first), online_outcome_hash(&second));
            // Conservation: served + shed partition the generated requests.
            assert_eq!(
                first.served() + first.shed.len(),
                spec.len(),
                "{label} / {process:?}"
            );
        }
    }
}

/// The full (load x policy) cluster sweep — the `throughput cluster`
/// baseline surface, now spanning both the open- and closed-loop dispatch
/// paths — is reproducible: identical cells and an identical sweep digest
/// across invocations, and a different digest for a different seed.
#[test]
fn cluster_sweep_digest_is_reproducible_per_seed() {
    let opts = ClusterSweepOptions {
        duration_ms: 60.0,
        loads: vec![0.5, 0.9],
        policies: vec![DispatchPolicy::Random, DispatchPolicy::Predictive],
        closed: vec![
            ClosedLoopVariant::Predictive,
            ClosedLoopVariant::WorkStealing,
            ClosedLoopVariant::SlaAdmission,
        ],
        ..ClusterSweepOptions::baseline()
    };
    let first = run_cluster_sweep(&opts);
    let second = run_cluster_sweep(&opts);
    assert_eq!(sweep_hash(&first), sweep_hash(&second));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
    }
    let reseeded = run_cluster_sweep(&ClusterSweepOptions {
        seed: opts.seed + 1,
        ..opts
    });
    assert_ne!(sweep_hash(&first), sweep_hash(&reseeded));
}

/// The cluster-scale sweep — the `throughput cluster-scale` baseline
/// surface — is reproducible: identical cell digests and sweep hash across
/// invocations (each cell already asserts event-heap == reference
/// internally), and a different digest for a different seed. Runs under
/// the CI determinism matrix, so the digest is also pinned across
/// RAYON_NUM_THREADS settings.
#[test]
fn cluster_scale_sweep_digest_is_reproducible_per_seed() {
    use prema_bench::scale::{run_scale_sweep, scale_sweep_hash, ScaleSweepOptions};

    let opts = ScaleSweepOptions::quick();
    let first = run_scale_sweep(&opts);
    let second = run_scale_sweep(&opts);
    assert_eq!(scale_sweep_hash(&first), scale_sweep_hash(&second));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.events, b.events);
        assert_eq!(a.served, b.served);
        assert_eq!(a.steals, b.steals);
    }
    let reseeded = run_scale_sweep(&ScaleSweepOptions {
        seed: opts.seed + 1,
        ..opts
    });
    assert_ne!(scale_sweep_hash(&first), scale_sweep_hash(&reseeded));
}

/// Re-running the parallel suite gives the same bits (no ordering or
/// scheduling nondeterminism leaks into the results).
#[test]
fn parallel_suite_is_reproducible_across_invocations() {
    let opts = SuiteOptions {
        runs: 3,
        seed: 7,
        workload: WorkloadConfig {
            task_count: 4,
            ..WorkloadConfig::paper_default()
        },
        ..SuiteOptions::paper()
    };
    let configs = vec![
        SchedulerConfig::np_fcfs(),
        SchedulerConfig::named(PolicyKind::Prema, PreemptionMode::Dynamic),
        SchedulerConfig::named(
            PolicyKind::Hpf,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
        ),
    ];
    let first = run_grid(&configs, &opts);
    let second = run_grid(&configs, &opts);
    assert_eq!(first, second);
}
