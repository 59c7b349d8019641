//! Randomized property tests over the core data structures and simulation
//! invariants.
//!
//! These were originally written against `proptest`; the workspace now builds
//! hermetically (no crates.io), so each property is driven by an explicit
//! seeded RNG loop instead of a strategy macro. Case counts are kept modest
//! because several properties drive the full multi-task engine; each case
//! still covers a randomly drawn configuration, workload or GEMM shape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prema::cluster::{ClusterConfig, ClusterSimulator, DispatchPolicy};
use prema::metrics::{MultiTaskMetrics, TaskOutcome};
use prema::models::layer::{GemmDims, Layer, LayerKind};
use prema::models::{SeqSpec, ALL_EVAL_MODELS};
use prema::npu::gemm::{GemmShape, TilePlan};
use prema::npu::{Cycles, NpuConfig};
use prema::predictor::analytical::estimate_layer_cycles;
use prema::predictor::SeqLenTable;
use prema::scheduler::plan::reference::ReferenceCursor;
use prema::scheduler::plan::{ExecutionPlan, ProgressCursor};
use prema::scheduler::preemption::{select_mechanism, MechanismDecisionInputs};
use prema::scheduler::TaskView;
use prema::{
    NpuSimulator, PolicyKind, PreemptionMechanism, PreemptionMode, Priority, SchedulerConfig,
    StepOutcome, TaskId, TaskRequest,
};

/// Cycles arithmetic never panics and subtraction saturates at zero.
#[test]
fn cycles_arithmetic_is_total() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..64 {
        let a = rng.gen_range(0u64..u64::MAX / 2);
        let b = rng.gen_range(0u64..u64::MAX / 2);
        let ca = Cycles::new(a);
        let cb = Cycles::new(b);
        assert_eq!((ca + cb).get(), a + b);
        assert_eq!(ca - cb, Cycles::new(a.saturating_sub(b)));
        assert!(ca.min(cb) <= ca.max(cb));
        assert!((ca + cb) >= ca.max(cb));
    }
}

/// Tiling covers the full GEMM: the tile count matches the analytical
/// formula in every case and per-tile latencies sum to the plan total.
#[test]
fn tile_plan_counts_match_formula() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0x711E);
    for _ in 0..64 {
        let m = rng.gen_range(1u64..2048);
        let k = rng.gen_range(1u64..4096);
        let n = rng.gen_range(1u64..8192);
        let shape = GemmShape::new(m, k, n);
        let plan = TilePlan::new(shape, &cfg);
        let m_tiles = m.div_ceil(cfg.systolic_width);
        let k_tiles = k.div_ceil(cfg.systolic_height);
        let n_inner = n / cfg.accumulator_depth;
        let has_edge = n % cfg.accumulator_depth != 0;
        assert_eq!(plan.inner_tile_count(), m_tiles * k_tiles * n_inner);
        assert_eq!(
            plan.outer_tile_count(),
            if has_edge { m_tiles * k_tiles } else { 0 }
        );
        assert_eq!(plan.iter().count() as u64, plan.tile_count());
        let iter_cycles: Cycles = plan.iter().map(|t| t.latency()).sum();
        assert_eq!(iter_cycles, plan.total_cycles());
    }
}

/// Algorithm 1 is monotone: growing any GEMM dimension never reduces the
/// estimated latency.
#[test]
fn analytical_estimate_is_monotone() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0x0A1);
    for _ in 0..64 {
        let m = rng.gen_range(1u64..1024);
        let k = rng.gen_range(1u64..1024);
        let n = rng.gen_range(1u64..4096);
        let grow_m = rng.gen_range(0u64..512);
        let grow_k = rng.gen_range(0u64..512);
        let grow_n = rng.gen_range(0u64..2048);
        let base = estimate_layer_cycles(GemmDims { m, k, n }, &cfg);
        let grown = estimate_layer_cycles(
            GemmDims {
                m: m + grow_m,
                k: k + grow_k,
                n: n + grow_n,
            },
            &cfg,
        );
        assert!(grown >= base);
    }
}

/// The sequence-length regression always predicts within the observed
/// min/max band of the nearest profiled bucket.
#[test]
fn seqlen_prediction_stays_in_observed_range() {
    let mut rng = StdRng::seed_from_u64(0x5E0);
    for _ in 0..64 {
        let sample_count = rng.gen_range(1usize..100);
        let samples: Vec<(u64, u64)> = (0..sample_count)
            .map(|_| (rng.gen_range(1u64..100), rng.gen_range(1u64..200)))
            .collect();
        let query = rng.gen_range(1u64..100);
        let table = SeqLenTable::from_samples(samples);
        let predicted = table.predict(query);
        let (lo, hi) = table.observed_range(query).expect("table is non-empty");
        assert!(predicted >= lo && predicted <= hi);
    }
}

/// Multi-program metrics stay within their mathematical bounds.
#[test]
fn metrics_are_bounded() {
    let mut rng = StdRng::seed_from_u64(0xB0);
    let weights = [1.0f64, 3.0, 9.0];
    for _ in 0..64 {
        let count = rng.gen_range(1usize..16);
        let outcomes: Vec<TaskOutcome> = (0..count)
            .map(|_| {
                let isolated = rng.gen_range(1.0f64..1e6);
                let slowdown = rng.gen_range(1.0f64..4.0);
                TaskOutcome {
                    isolated_time: isolated,
                    turnaround_time: isolated * slowdown,
                    priority_weight: weights[rng.gen_range(0usize..weights.len())],
                }
            })
            .collect();
        let n = outcomes.len() as f64;
        let metrics = MultiTaskMetrics::from_outcomes(&outcomes);
        assert!(metrics.antt >= 1.0 - 1e-9);
        assert!(metrics.stp > 0.0 && metrics.stp <= n + 1e-9);
        assert!(metrics.fairness > 0.0 && metrics.fairness <= 1.0 + 1e-9);
    }
}

/// Percentile by selection is bit-identical to the sort-based percentile,
/// duplicates and interpolated ranks included.
#[test]
fn selected_percentile_matches_the_sorted_percentile_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x9999);
    for _ in 0..512 {
        let count = rng.gen_range(1usize..300);
        // A small value pool forces runs of duplicates around the rank.
        let pool: Vec<f64> = (0..rng.gen_range(1usize..40))
            .map(|_| rng.gen_range(0.0f64..500.0))
            .collect();
        let values: Vec<f64> = (0..count)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        for p in [99.0, 95.0, 50.0, 0.0, 100.0, rng.gen_range(0.0f64..100.0)] {
            let mut scratch = values.clone();
            let selected = prema::metrics::percentile_in_place(&mut scratch, p);
            let sorted = prema::metrics::percentile(&values, p);
            assert_eq!(
                selected.map(f64::to_bits),
                sorted.map(f64::to_bits),
                "p{p} over {values:?}"
            );
        }
    }
}

/// Algorithm 3 never returns KILL, and drains exactly when waiting hurts
/// the candidate less than preemption hurts the current task.
#[test]
fn dynamic_mechanism_selection_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0xA163);
    for _ in 0..64 {
        let current_estimated = rng.gen_range(1u64..10_000_000);
        let current_progress = rng.gen_range(0.0f64..1.0);
        let candidate_estimated = rng.gen_range(1u64..10_000_000);
        let current_executed = (current_estimated as f64 * current_progress) as u64;
        let inputs = MechanismDecisionInputs {
            current_estimated: Cycles::new(current_estimated),
            current_executed: Cycles::new(current_executed),
            candidate_estimated: Cycles::new(candidate_estimated),
            candidate_executed: Cycles::ZERO,
        };
        let decision = select_mechanism(inputs);
        assert_ne!(decision, PreemptionMechanism::Kill);
        let degradation_current = candidate_estimated as f64 / current_estimated.max(1) as f64;
        let degradation_candidate =
            (current_estimated - current_executed) as f64 / candidate_estimated.max(1) as f64;
        if degradation_current > degradation_candidate {
            assert_eq!(decision, PreemptionMechanism::Drain);
        } else {
            assert_eq!(decision, PreemptionMechanism::Checkpoint);
        }
        // SJF's contender at an arrival: the never-run arrival itself,
        // estimated shorter than the runner's remaining work. Always
        // CHECKPOINT, which is why Dynamic-SJF schedules like Static-SJF.
        let current_remaining = current_estimated - current_executed;
        if current_remaining > 1 {
            let shorter = MechanismDecisionInputs {
                candidate_estimated: Cycles::new(rng.gen_range(1..current_remaining)),
                ..inputs
            };
            assert_eq!(select_mechanism(shorter), PreemptionMechanism::Checkpoint);
        }
    }
}

/// Every policy's `select` is a total order over the task views: it
/// returns a member of the set, and the same member however the set is
/// ordered. The engine always builds views in id order, so only a shuffle
/// shows a key that forgets its final id tiebreak. Values come from small
/// ranges so that every key component but the id ties often.
#[test]
fn select_is_a_total_order_over_the_views() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    for case in 0..2_000 {
        let len = rng.gen_range(1usize..=8);
        let mut ids: Vec<u64> = (0..16).collect();
        shuffle(&mut ids, &mut rng);
        let running = rng.gen_bool(0.5).then(|| rng.gen_range(0..len));
        let mut views: Vec<TaskView> = ids[..len]
            .iter()
            .enumerate()
            .map(|(i, &id)| TaskView {
                id: TaskId(id),
                priority: Priority::ALL[rng.gen_range(0..Priority::ALL.len())],
                arrival: Cycles::new(rng.gen_range(0u64..3)),
                tokens: [0.5, 1.0, 3.0, 4.5, 9.0][rng.gen_range(0usize..5)],
                estimated_total: Cycles::new(rng.gen_range(1u64..4) * 100),
                executed: Cycles::new(rng.gen_range(0u64..3) * 100),
                last_scheduled: rng
                    .gen_bool(0.5)
                    .then(|| Cycles::new(rng.gen_range(0u64..3))),
                is_running: running == Some(i),
            })
            .collect();
        let token_scale = [0.5, 1.0, 2.0][rng.gen_range(0usize..3)];
        for policy in PolicyKind::ALL {
            let chosen = policy.select(&views, token_scale);
            assert!(
                views.iter().any(|v| v.id == chosen),
                "case {case}: {policy} chose {chosen:?} outside {views:?}"
            );
            for _ in 0..4 {
                shuffle(&mut views, &mut rng);
                assert_eq!(
                    policy.select(&views, token_scale),
                    chosen,
                    "case {case}: {policy} depends on view order: {views:?}"
                );
            }
        }
    }
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A progress cursor advanced in arbitrary random steps always consumes
/// exactly the plan's total cycles, keeps its live checkpoint footprint
/// within the on-chip budget, and reports monotone progress.
#[test]
fn cursor_conserves_cycles_under_arbitrary_stepping() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xC507);
    for _ in 0..16 {
        let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
        let seq = SeqSpec::for_model(model, 12);
        let plan = ExecutionPlan::compile(model, 1, seq, &cfg);
        let mut cursor = ProgressCursor::start();
        let mut consumed_total = Cycles::ZERO;
        let mut prev_executed = Cycles::ZERO;
        let step_count = rng.gen_range(1usize..64);
        for _ in 0..step_count {
            let step = rng.gen_range(1u64..2_000_000);
            let consumed = cursor.advance(&plan, Cycles::new(step));
            consumed_total += consumed;
            assert!(cursor.executed() >= prev_executed);
            prev_executed = cursor.executed();
            assert!(cursor.live_checkpoint_bytes(&plan) <= cfg.max_checkpoint_bytes());
            assert!(cursor.executed() + cursor.remaining(&plan) == plan.total_cycles());
        }
        cursor.advance(&plan, plan.total_cycles());
        assert!(cursor.is_complete(&plan));
        assert_eq!(cursor.executed(), plan.total_cycles());
    }
}

/// The positionless progress cursor, which looks its position up in the
/// plan's prefix-sum tables, is observably equivalent to the original
/// nested interval-walk cursor on random compiled plans under random budget
/// sequences — including zero budgets, boundary-exact budgets and
/// overshooting budgets. Every observable is compared after every step:
/// consumed cycles, executed total, completion, layer index, distance to the
/// next preemption boundary, cycles inside the current interval (what crash
/// salvage loses) and the live checkpoint footprint.
#[test]
fn flat_cursor_is_equivalent_to_the_reference_interval_walk() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    for case in 0..24 {
        let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
        let batch = [1u64, 2, 4, 8][rng.gen_range(0usize..4)];
        let seq = SeqSpec::for_model(model, rng.gen_range(5u64..25));
        let plan = ExecutionPlan::compile(model, batch, seq, &cfg);
        let mut flat = ProgressCursor::start();
        let mut reference = ReferenceCursor::start();
        let step_count = rng.gen_range(8usize..96);
        for step in 0..step_count {
            // Mix step regimes: tiny, quantum-scale, occasionally zero, and
            // occasionally exactly to the next boundary (the trickiest
            // normalization point for the flat representation).
            let budget = match rng.gen_range(0u32..8) {
                0 => Cycles::ZERO,
                1 => reference.cycles_to_boundary(&plan),
                2 => Cycles::new(rng.gen_range(1u64..200)),
                3..=5 => Cycles::new(rng.gen_range(1u64..400_000)),
                _ => Cycles::new(rng.gen_range(1u64..4_000_000)),
            };
            let consumed_flat = flat.advance(&plan, budget);
            let consumed_reference = reference.advance(&plan, budget);
            let context = format!("case {case} step {step} model {model:?} budget {budget}");
            assert_eq!(consumed_flat, consumed_reference, "{context}");
            assert_eq!(flat.executed(), reference.executed(), "{context}");
            assert_eq!(
                flat.is_complete(&plan),
                reference.is_complete(&plan),
                "{context}"
            );
            assert_eq!(
                flat.remaining(&plan),
                reference.remaining(&plan),
                "{context}"
            );
            assert_eq!(
                flat.layer_index(&plan),
                reference.layer_index(),
                "{context}"
            );
            assert_eq!(
                flat.cycles_to_boundary(&plan),
                reference.cycles_to_boundary(&plan),
                "{context}"
            );
            assert_eq!(
                flat.in_interval(&plan),
                reference.in_interval(&plan),
                "{context}"
            );
            assert_eq!(
                flat.live_checkpoint_bytes(&plan),
                reference.live_checkpoint_bytes(&plan),
                "{context}"
            );
        }
        // Drive both to completion and compare the terminal state too.
        flat.advance(&plan, plan.total_cycles());
        reference.advance(&plan, plan.total_cycles());
        assert_eq!(flat.is_complete(&plan), reference.is_complete(&plan));
        assert_eq!(flat.executed(), reference.executed());
        // KILL-style reset round-trips on both.
        flat.reset();
        reference.reset();
        assert_eq!(flat.executed(), reference.executed());
        assert_eq!(flat.layer_index(&plan), reference.layer_index());
    }
}

/// A single fully-connected layer run through the whole stack (layer ->
/// lowering -> timing) has a latency at least as large as its ideal
/// compute-bound lower bound.
#[test]
fn layer_latency_respects_compute_lower_bound() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xFC);
    for _ in 0..16 {
        let in_features = rng.gen_range(1u64..8192);
        let out_features = rng.gen_range(1u64..8192);
        let batch = rng.gen_range(1u64..32);
        let layer = Layer::new(
            "fc",
            LayerKind::FullyConnected {
                in_features,
                out_features,
            },
        );
        let work = prema::models::lowering::lower_layer(&layer, batch);
        let timing = prema::npu::LayerTiming::model(&work, &cfg);
        let ideal_cycles = layer.macs(batch).div_ceil(cfg.peak_macs_per_cycle());
        assert!(timing.total_cycles().get() >= ideal_cycles);
    }
}

/// End-to-end engine invariants hold for random small workloads under
/// random policies and preemption modes: every task completes, turnaround
/// is never below the isolated time, and the makespan bounds every
/// completion.
#[test]
fn engine_invariants_hold_for_random_workloads() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xE26);
    for _ in 0..8 {
        let policy = PolicyKind::ALL[rng.gen_range(0usize..PolicyKind::ALL.len())];
        let mode = if rng.gen::<bool>() {
            PreemptionMode::Dynamic
        } else {
            PreemptionMode::NonPreemptive
        };
        let task_count = rng.gen_range(2usize..5);
        let requests: Vec<TaskRequest> = (0..task_count)
            .map(|i| {
                let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
                TaskRequest::new(TaskId(i as u64), model)
                    .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                    .with_arrival(Cycles::new(rng.gen_range(0u64..20_000_000)))
                    .with_seq(SeqSpec::for_model(model, 10))
            })
            .collect();
        let sim = NpuSimulator::new(cfg.clone(), SchedulerConfig::named(policy, mode));
        let prepared = sim.prepare(&requests);
        let outcome = sim.run(&prepared);
        assert_eq!(outcome.records.len(), requests.len());
        for record in &outcome.records {
            assert!(record.completion <= outcome.makespan);
            assert!(record.completion > record.arrival);
            assert!(record.turnaround() >= record.isolated_cycles);
        }
    }
}

/// `run_until` is pure suspension: a session resumed at arbitrary random
/// horizons — from single-cycle nudges to multi-quantum jumps — produces a
/// `SimOutcome` bit-identical to the one-shot `run()`, for every scheduling
/// policy and preemption mode, on both the fast-forwarding engine and the
/// step-every-quantum reference. Per-task records, makespan, preemption
/// counters *and* the scheduler-invocation count must all survive the
/// suspend/resume composition exactly.
#[test]
fn run_until_composed_over_random_horizons_is_bit_identical_to_one_shot() {
    let cfg = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut policies_seen = 0usize;
    let mut total_pauses = 0usize;
    for policy in PolicyKind::ALL {
        for mode in [
            PreemptionMode::NonPreemptive,
            PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            PreemptionMode::Static(PreemptionMechanism::Kill),
            PreemptionMode::Dynamic,
            PreemptionMode::DynamicKill,
        ] {
            // Static(KILL) + round-robin livelocks by construction; the
            // engine's safety valve reports it, so it is excluded exactly as
            // the paper's evaluation excludes it.
            if policy == PolicyKind::RoundRobin
                && mode == PreemptionMode::Static(PreemptionMechanism::Kill)
            {
                continue;
            }
            policies_seen += 1;
            let task_count = rng.gen_range(2usize..5);
            let requests: Vec<TaskRequest> = (0..task_count)
                .map(|i| {
                    let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
                    TaskRequest::new(TaskId(i as u64), model)
                        .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                        .with_arrival(Cycles::new(rng.gen_range(0u64..4_000_000)))
                        .with_seq(SeqSpec::for_model(model, 12))
                })
                .collect();
            // The TOKEN and PREMA certificates depend on both the quantum
            // and the token scale, so draw them too.
            let sched = SchedulerConfig {
                quantum_ms: rng.gen_range(0.02..1.5),
                token_scale: rng.gen_range(0.2..10.0),
                ..SchedulerConfig::named(policy, mode)
            };
            let sim = NpuSimulator::new(cfg.clone(), sched);
            let prepared = sim.prepare(&requests);
            let one_shot = sim.run(&prepared);
            let reference = sim.run_reference(&prepared);
            assert_eq!(
                one_shot, reference,
                "fast one-shot diverged from the reference under {policy:?}/{mode:?}"
            );

            for (label, mut session, expected) in [
                ("fast", sim.session(&prepared), &one_shot),
                ("reference", sim.session_reference(&prepared), &reference),
            ] {
                let mut horizon = Cycles::ZERO;
                loop {
                    // Random horizon schedule: mostly quantum-scale jumps,
                    // sometimes single cycles (pausing mid-everything),
                    // sometimes huge leaps.
                    horizon += Cycles::new(match rng.gen_range(0u32..8) {
                        0 => 1,
                        1..=4 => rng.gen_range(1u64..400_000),
                        5 | 6 => rng.gen_range(1u64..4_000_000),
                        _ => rng.gen_range(1u64..40_000_000),
                    });
                    if session.run_until(horizon) == StepOutcome::Drained {
                        break;
                    }
                    total_pauses += 1;
                }
                let composed = session.finish();
                assert_eq!(
                    &composed, expected,
                    "resumed {label} session diverged from one-shot under {policy:?}/{mode:?}"
                );
            }
        }
    }
    assert_eq!(policies_seen, PolicyKind::ALL.len() * 5 - 1);
    assert!(
        total_pauses > policies_seen,
        "the horizon schedules must actually pause sessions ({total_pauses} pauses)"
    );
}

/// Cluster conservation: for random open-loop workloads (random arrival
/// process, rate, node count, per-node scheduler and dispatch policy),
/// every generated request is served exactly once — no drops, no
/// duplicates across nodes — each record lives on exactly the node its
/// assignment names, and per-task invariants carry over to the cluster.
#[test]
fn cluster_serves_every_request_exactly_once() {
    use prema::workload::arrivals::{generate_open_loop, ArrivalProcess, OpenLoopConfig};

    let mut rng = StdRng::seed_from_u64(0xC1C5);
    for case in 0..6 {
        let process = match rng.gen_range(0u32..3) {
            0 => ArrivalProcess::Poisson {
                rate_per_ms: rng.gen_range(0.1f64..0.6),
            },
            1 => ArrivalProcess::Bursty {
                on_rate_per_ms: rng.gen_range(0.5f64..2.0),
                mean_on_ms: rng.gen_range(2.0f64..10.0),
                mean_off_ms: rng.gen_range(5.0f64..20.0),
            },
            _ => ArrivalProcess::Diurnal {
                trough_rate_per_ms: rng.gen_range(0.01f64..0.1),
                peak_rate_per_ms: rng.gen_range(0.3f64..0.8),
                period_ms: rng.gen_range(20.0f64..80.0),
            },
        };
        let config =
            OpenLoopConfig::poisson(1.0, rng.gen_range(20.0f64..60.0)).with_process(process);
        let spec = generate_open_loop(&config, &mut rng);
        if spec.is_empty() {
            continue;
        }
        let nodes = rng.gen_range(1usize..6);
        let dispatch = DispatchPolicy::ALL[rng.gen_range(0usize..DispatchPolicy::ALL.len())];
        let scheduler = if rng.gen::<bool>() {
            SchedulerConfig::paper_default()
        } else {
            SchedulerConfig::np_fcfs()
        };
        let cluster = ClusterSimulator::new(
            ClusterConfig::new(nodes, scheduler, dispatch).with_dispatch_seed(case),
        );
        let outcome = cluster.run_requests(&spec.requests, None);
        let context = format!("case {case} nodes {nodes} dispatch {dispatch}");

        // Exactly-once service: merged ids == generated ids.
        assert_eq!(outcome.task_count(), spec.len(), "{context}");
        let served: Vec<u64> = outcome.merged_records().iter().map(|r| r.id.0).collect();
        let mut expected: Vec<u64> = spec.requests.iter().map(|r| r.id.0).collect();
        expected.sort_unstable();
        assert_eq!(served, expected, "{context}");

        // Assignments are a bijection onto the served records, each on the
        // node it names.
        assert_eq!(outcome.assignments.len(), spec.len(), "{context}");
        for assignment in &outcome.assignments {
            assert!(assignment.node < nodes, "{context}");
            let node = &outcome.node_outcomes[assignment.node];
            assert!(node.record(assignment.task).is_some(), "{context}");
        }

        // Per-task invariants hold cluster-wide.
        let makespan = outcome.makespan();
        for record in outcome.merged_records() {
            assert!(record.completion <= makespan, "{context}");
            assert!(record.first_start >= record.arrival, "{context}");
            assert!(record.turnaround() >= record.isolated_cycles, "{context}");
        }
    }
}

/// The event-heap closed-loop driver is bit-identical to the naive stepping
/// reference: for random node counts, per-node schedulers, dispatch
/// policies, arrival processes, work-stealing and SLA-admission settings,
/// `OnlineClusterSimulator::run` and `run_reference` produce the same
/// `OnlineOutcome` — records, assignments (steal rewrites included), shed
/// sequence, steal count — and the same `online_outcome_hash`. Since the
/// reference computes its dispatch/steal/shed signals from resident scans
/// while the heap loop reads the engine's incremental aggregates, this also
/// cross-checks those aggregates against an independent implementation.
#[test]
fn event_heap_closed_loop_is_bit_identical_to_the_stepping_reference() {
    use prema::cluster::{online_outcome_hash, OnlineClusterConfig, OnlineClusterSimulator};
    use prema::workload::arrivals::{generate_open_loop, ArrivalProcess, OpenLoopConfig};
    use prema::workload::prepare::prepare_requests;

    let mut rng = StdRng::seed_from_u64(0x0EA9_4EA9);
    let npu = NpuConfig::paper_default();
    // Real (analytical) estimates, not oracle ones: the predictor's
    // undershoot makes running tasks overrun their estimates, exercising
    // the estimated-remaining clamp paths in the heap loop's admission
    // caches that perfect estimates can never reach.
    let predictor = prema::AnalyticalPredictor::new(npu.clone());
    let mut nontrivial_cases = 0usize;
    let mut steals_seen = 0u64;
    let mut sheds_seen = 0usize;
    for case in 0..18 {
        let process = match rng.gen_range(0u32..3) {
            0 => ArrivalProcess::Poisson {
                rate_per_ms: rng.gen_range(0.2f64..1.6),
            },
            1 => ArrivalProcess::Bursty {
                on_rate_per_ms: rng.gen_range(0.5f64..3.0),
                mean_on_ms: rng.gen_range(2.0f64..10.0),
                mean_off_ms: rng.gen_range(5.0f64..20.0),
            },
            _ => ArrivalProcess::Diurnal {
                trough_rate_per_ms: rng.gen_range(0.01f64..0.2),
                peak_rate_per_ms: rng.gen_range(0.5f64..1.5),
                period_ms: rng.gen_range(20.0f64..80.0),
            },
        };
        let config =
            OpenLoopConfig::poisson(1.0, rng.gen_range(20.0f64..70.0)).with_process(process);
        let spec = generate_open_loop(&config, &mut rng);
        if spec.is_empty() {
            continue;
        }
        let prepared = prepare_requests(&spec.requests, &npu, Some(&predictor));

        let nodes = rng.gen_range(1usize..9);
        let dispatch = [
            prema::cluster::OnlineDispatchPolicy::ShortestQueue,
            prema::cluster::OnlineDispatchPolicy::LeastWork,
            prema::cluster::OnlineDispatchPolicy::Predictive,
        ][rng.gen_range(0usize..3)];
        let scheduler = match rng.gen_range(0u32..3) {
            0 => SchedulerConfig::paper_default(),
            1 => SchedulerConfig::np_fcfs(),
            _ => SchedulerConfig::named(
                PolicyKind::Hpf,
                PreemptionMode::Static(PreemptionMechanism::Checkpoint),
            ),
        };
        let mut online = OnlineClusterConfig::new(nodes, scheduler, dispatch);
        if rng.gen_bool(0.4) {
            online = online.with_work_stealing();
        }
        if rng.gen_bool(0.4) {
            // Mid-range targets so shedding actually engages on some cases.
            online = online.with_admission(rng.gen_range(20.0f64..400.0));
        }

        let simulator = OnlineClusterSimulator::new(online.clone());
        let heap = simulator.run(&prepared);
        let reference = simulator.run_reference(&prepared);
        assert_eq!(
            heap, reference,
            "event-heap loop diverged from the stepping reference \
             (case {case}, nodes {nodes}, dispatch {dispatch}, config {online:?})"
        );
        assert_eq!(online_outcome_hash(&heap), online_outcome_hash(&reference));
        nontrivial_cases += 1;
        steals_seen += heap.steals;
        sheds_seen += heap.shed.len();
    }
    assert!(nontrivial_cases >= 12, "enough non-empty cases ran");
    assert!(
        steals_seen > 0,
        "the random cases must exercise work stealing"
    );
    assert!(sheds_seen > 0, "the random cases must exercise shedding");
}

/// The engine's incrementally maintained closed-loop aggregates
/// (`predicted_remaining_work`, `predicted_blocking_work`,
/// `revocable_work`, `best_steal_candidate`, `best_shed_candidate`) always
/// agree with a brute-force scan over `resident_tasks()`, at every pause of
/// randomly driven sessions that also inject, revoke and re-inject work
/// mid-flight.
#[test]
fn incremental_aggregates_match_resident_scans_under_random_driving() {
    use prema::PreparedTask;

    let npu = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xA66E);
    for case in 0..8 {
        let scheduler = if case % 2 == 0 {
            SchedulerConfig::paper_default()
        } else {
            SchedulerConfig::np_fcfs()
        };
        let sim = NpuSimulator::new(npu.clone(), scheduler);
        let task_count = rng.gen_range(3usize..8);
        let requests: Vec<TaskRequest> = (0..task_count)
            .map(|i| {
                let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
                TaskRequest::new(TaskId(i as u64), model)
                    .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                    .with_arrival(Cycles::new(rng.gen_range(0u64..6_000_000)))
                    .with_seq(SeqSpec::for_model(model, 10))
            })
            .collect();
        let prepared = sim.prepare(&requests);
        let mut session = sim.session(&prepared[..2]);
        let mut to_inject: Vec<PreparedTask> = prepared[2..].to_vec();
        let mut horizon = Cycles::ZERO;
        let mut revoked: Vec<PreparedTask> = Vec::new();
        loop {
            let residents = session.resident_tasks();
            // Aggregates vs brute force.
            let remaining: Cycles = residents
                .iter()
                .map(|r| r.estimated_total - r.executed)
                .sum();
            assert_eq!(session.predicted_remaining_work(), remaining, "case {case}");
            for priority in Priority::ALL {
                let blocking: Cycles = residents
                    .iter()
                    .filter(|r| r.priority >= priority)
                    .map(|r| r.estimated_total - r.executed)
                    .sum();
                assert_eq!(
                    session.predicted_blocking_work(priority),
                    blocking,
                    "case {case} {priority:?}"
                );
            }
            let revocable: Vec<_> = residents.iter().filter(|r| r.revocable).collect();
            let stealable: Cycles = revocable.iter().map(|r| r.estimated_remaining()).sum();
            assert_eq!(session.revocable_work(), stealable, "case {case}");
            let best_steal = revocable
                .iter()
                .max_by_key(|r| (r.estimated_remaining(), std::cmp::Reverse(r.id)))
                .map(|r| r.id);
            assert_eq!(
                session.best_steal_candidate().map(|r| r.id),
                best_steal,
                "case {case}"
            );
            let best_shed = revocable
                .iter()
                .min_by_key(|r| {
                    (
                        r.priority,
                        std::cmp::Reverse(r.estimated_remaining()),
                        std::cmp::Reverse(r.id),
                    )
                })
                .map(|r| r.id);
            assert_eq!(
                session.best_shed_candidate().map(|r| r.id),
                best_shed,
                "case {case}"
            );

            // Random driving: inject, revoke (and remember for re-injection).
            if !to_inject.is_empty() && rng.gen_bool(0.5) {
                session
                    .inject(to_inject.pop().expect("nonempty"))
                    .expect("fresh id injects cleanly");
            }
            if rng.gen_bool(0.3) {
                if let Some(candidate) = session.best_steal_candidate() {
                    let handed_back = session
                        .revoke(candidate.id)
                        .expect("steal candidate is revocable");
                    revoked.push(handed_back);
                }
            }
            if !revoked.is_empty() && rng.gen_bool(0.5) {
                // Re-inject a previously revoked task into the same session
                // (the multi-hop work-stealing shape).
                session
                    .inject(revoked.pop().expect("nonempty"))
                    .expect("revoked id re-injects cleanly");
            }
            if session.run_until(horizon) == StepOutcome::Drained
                && to_inject.is_empty()
                && revoked.is_empty()
            {
                break;
            }
            horizon += Cycles::new(rng.gen_range(50_000u64..900_000));
        }
        let outcome = session.finish();
        // Revoked-and-never-reinjected tasks produce no record; everything
        // else completes exactly once.
        assert!(outcome.records.len() <= task_count);
    }
}

/// One operation of a random session driving (see
/// `next_event_certificate_contract_holds_under_random_driving`).
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    Advance(u64),
    Inject(usize),
    Revoke(usize),
    Stall(u64),
    CheckpointOut,
    Scale(u32),
    Unscale,
}

/// Replays `ops` on `session`, fresh and empty: the same operations always
/// build the same session, which is how a test obtains an identical twin.
fn replay_session(
    mut session: prema::SimSession,
    tasks: &[prema::PreparedTask],
    ops: &[SessionOp],
) -> prema::SimSession {
    let mut horizon = Cycles::ZERO;
    for op in ops {
        match *op {
            SessionOp::Advance(delta) => {
                horizon += Cycles::new(delta);
                let _ = session.run_until(horizon);
            }
            SessionOp::Inject(task) => {
                session
                    .inject(tasks[task].clone())
                    .expect("every task is injected once");
            }
            SessionOp::Revoke(pick) => {
                let revocable: Vec<TaskId> = session
                    .resident_tasks()
                    .iter()
                    .filter(|r| r.revocable)
                    .map(|r| r.id)
                    .collect();
                if !revocable.is_empty() {
                    session
                        .revoke(revocable[pick % revocable.len()])
                        .expect("revocable");
                }
            }
            SessionOp::Stall(length) => session.stall(session.now() + Cycles::new(length)),
            SessionOp::CheckpointOut => {
                if let Some(id) = session.running_task() {
                    session.checkpoint_out(id).expect("a runner has started");
                }
            }
            SessionOp::Scale(den) => session.set_clock_scale(1, den),
            SessionOp::Unscale => session.set_clock_scale(1, 1),
        }
    }
    session
}

/// The next-event certificate contract, over random sessions under all 14
/// paper-grid scheduler configurations, driven through random
/// inject / revoke / stall / `checkpoint_out` / clock-scale sequences: for
/// every horizon strictly before `next_event_time()`, `run_until` leaves the
/// closed-loop surface unchanged except the clock and the runner's
/// progress, and the `*_at` projections read exactly what an identical
/// twin advanced to that horizon reports. The drivings reach into the
/// quiet intervals of degraded (clock-scaled) sessions, where the
/// projections peek the clock's fractional carry, and past quantum
/// boundaries whose contended wakeups the policy's choice certificate
/// rules out.
#[test]
fn next_event_certificate_contract_holds_under_random_driving() {
    let npu = NpuConfig::paper_default();
    let mut configs: Vec<SchedulerConfig> = PolicyKind::ALL
        .iter()
        .map(|&policy| SchedulerConfig::named(policy, PreemptionMode::NonPreemptive))
        .collect();
    for mode in [
        PreemptionMode::Static(PreemptionMechanism::Checkpoint),
        PreemptionMode::Dynamic,
    ] {
        for policy in [
            PolicyKind::Hpf,
            PolicyKind::Token,
            PolicyKind::Sjf,
            PolicyKind::Prema,
        ] {
            configs.push(SchedulerConfig::named(policy, mode));
        }
    }
    assert_eq!(configs.len(), 14);
    let mut rng = StdRng::seed_from_u64(0xCE27);
    let (mut projected, mut scaled, mut past_boundary) = (0usize, 0usize, 0usize);
    for case in 0..168 {
        let config = &configs[case % configs.len()];
        let quantum = config.quantum_cycles(&npu).get();
        let sim = NpuSimulator::new(npu.clone(), config.clone());
        let task_count = rng.gen_range(2usize..7);
        let requests: Vec<TaskRequest> = (0..task_count)
            .map(|i| {
                let model = ALL_EVAL_MODELS[rng.gen_range(0usize..ALL_EVAL_MODELS.len())];
                TaskRequest::new(TaskId(i as u64), model)
                    .with_priority(Priority::ALL[rng.gen_range(0usize..3)])
                    .with_arrival(Cycles::new(rng.gen_range(0u64..8_000_000)))
                    .with_seq(SeqSpec::for_model(model, 10))
            })
            .collect();
        let tasks = sim.prepare(&requests);
        let mut ops = Vec::new();
        let mut injected = 0;
        for _ in 0..rng.gen_range(3usize..14) {
            ops.push(match rng.gen_range(0u8..10) {
                0..=2 if injected < task_count => {
                    injected += 1;
                    SessionOp::Inject(injected - 1)
                }
                0..=4 => SessionOp::Advance(rng.gen_range(1u64..3_000_000)),
                5 => SessionOp::Revoke(rng.gen_range(0usize..4)),
                6 => SessionOp::Stall(rng.gen_range(1u64..1_000_000)),
                7 => SessionOp::CheckpointOut,
                8 => SessionOp::Scale(rng.gen_range(2u32..8)),
                _ => SessionOp::Unscale,
            });
        }
        // The step-every-quantum reference, driven the same way, ends the
        // same: no mutation leaves a stale choice certificate in force.
        let drain = |mut session: prema::SimSession| {
            assert_eq!(session.run_until(Cycles::MAX), StepOutcome::Drained);
            session.finish()
        };
        assert_eq!(
            drain(replay_session(sim.session(&[]), &tasks, &ops)),
            drain(replay_session(sim.session_reference(&[]), &tasks, &ops)),
            "case {case}: {ops:?}"
        );
        // The contract holds after every prefix of the driving.
        for len in 1..=ops.len() {
            let ops = &ops[..len];
            let session = replay_session(sim.session(&[]), &tasks, ops);
            let now = session.now();
            let Some(event) = session.next_event_time() else {
                continue;
            };
            assert!(event >= now, "case {case}: the certificate is never past");
            let mut horizons = vec![now.saturating_sub(Cycles::new(1)), now];
            if event > now + Cycles::new(1) {
                horizons.push(event - Cycles::new(1));
                for _ in 0..3 {
                    horizons.push(Cycles::new(rng.gen_range(now.get()..event.get())));
                }
            }
            // Inside the quiet interval an admitted resident has arrived by the
            // clock (a later injection would make the certificate the clock).
            let contended = config.preemption.is_preemptive()
                && session.running_task().is_some_and(|runner| {
                    session
                        .resident_tasks()
                        .iter()
                        .any(|r| r.id != runner && r.arrival <= now)
                });
            if contended {
                // The quantum boundaries are the multiples of the quantum: stop
                // on the first two after the clock (a stepped wakeup the
                // certificate rules out) and just past them.
                let first = (now.get() / quantum + 1) * quantum;
                for boundary in [first, first + quantum] {
                    horizons.extend([Cycles::new(boundary), Cycles::new(boundary + 1)]);
                }
            }
            for horizon in horizons.into_iter().filter(|&h| h < event) {
                let context = format!("case {case} at {horizon:?} (event {event:?}): {ops:?}");
                let mut twin = replay_session(sim.session(&[]), &tasks, ops);
                let _ = twin.run_until(horizon);
                assert_eq!(twin.state_version(), session.state_version(), "{context}");
                assert_eq!(twin.queue_depth(), session.queue_depth(), "{context}");
                assert_eq!(
                    twin.next_completion_time(),
                    session.next_completion_time(),
                    "{context}"
                );
                assert_eq!(twin.revocable_work(), session.revocable_work(), "{context}");
                assert_eq!(
                    twin.best_steal_candidate(),
                    session.best_steal_candidate(),
                    "{context}"
                );
                assert_eq!(
                    twin.best_shed_candidate(),
                    session.best_shed_candidate(),
                    "{context}"
                );
                assert_eq!(twin.running_task(), session.running_task(), "{context}");
                assert_eq!(twin.stalled_until(), session.stalled_until(), "{context}");
                assert_eq!(twin.next_event_time(), Some(event), "{context}");

                assert_eq!(twin.now(), session.now_at(horizon), "{context}");
                assert_eq!(
                    twin.predicted_remaining_work(),
                    session.predicted_remaining_work_at(horizon),
                    "{context}"
                );
                // The contender index keys blocking work exact at the levels
                // the signals say the runner does not drain, and as a
                // one-cycle-per-cycle lower bound at the rest.
                let signals = session.dispatch_signals();
                for priority in Priority::ALL {
                    let projected = session.predicted_blocking_work_at(priority, horizon);
                    assert_eq!(
                        twin.predicted_blocking_work(priority),
                        projected,
                        "{context} {priority:?}"
                    );
                    let stored = signals.blocking_work[priority.index()];
                    if signals
                        .runner_priority
                        .is_some_and(|runner| runner >= priority)
                    {
                        assert!(
                            projected >= stored - (horizon - now),
                            "{context} {priority:?}"
                        );
                    } else {
                        assert_eq!(projected, stored, "{context} {priority:?}");
                    }
                }
                let mut residents = Vec::new();
                session.resident_tasks_at_into(horizon, &mut residents);
                assert_eq!(twin.resident_tasks(), residents, "{context}");
                for _ in 0..4 {
                    let work = Cycles::new(rng.gen_range(0u64..5_000_000));
                    assert_eq!(
                        twin.scaled_wall_for_work(work),
                        session.scaled_wall_for_work_at(horizon, work),
                        "{context} {work:?}"
                    );
                }
                let inside = horizon > now;
                projected += usize::from(inside);
                scaled += usize::from(inside && session.clock_scale() != (1, 1));
                past_boundary +=
                    usize::from(contended && horizon.get() / quantum > now.get() / quantum);
            }
        }
    }
    assert!(
        projected > 1_000,
        "{projected} horizons inside a quiet interval"
    );
    assert!(
        scaled > 300,
        "{scaled} horizons inside a degraded session's quiet interval"
    );
    assert!(
        past_boundary > 30,
        "{past_boundary} horizons past a contended quantum boundary"
    );
}
