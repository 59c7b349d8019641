//! Chaos-testing harness for the fault-tolerant closed-loop cluster.
//!
//! Each driving samples a random cluster shape (node count, scheduler,
//! dispatch policy, stealing/admission/migration toggles), a random arrival
//! process and a random fault schedule (crash/freeze/degrade mix, MTBF,
//! downtime, straggler speed — plus link-fault windows: per-directed-link
//! outage/throttle chains or a clean two-group partition, and an optional
//! transfer-custody layer with a random retry budget), then asserts the
//! invariants that must survive *any* fault pattern:
//!
//! * **Exactly-once conservation** — served, shed and abandoned requests
//!   partition the generated ids; no task is lost or double-served across
//!   crash/salvage/re-dispatch hops, checkpoint migrations, *or* custody
//!   redirects — and custody reconciliation is clean (no task left in
//!   flight at end of run).
//! * **Bit-identical repeats** — running the same driving twice produces
//!   the same outcome, byte for byte.
//! * **Heap == reference** — the event-heap loop and the horizon-stepping
//!   reference loop agree exactly, faults and migrations included, pinned
//!   through [`online_outcome_hash`].
//! * **Byte accounting** — the interconnect tally equals the sum of the
//!   per-migration checkpoint payloads in the log.
//!
//! The sweep size defaults to 56 drivings; set the `CHAOS_ITERS`
//! environment variable to run a longer (or shorter) campaign. Every
//! event-heap run rides with a bounded `FlightRecorder`; when any invariant
//! fails, its last events and per-node samples are dumped so the failure
//! report carries the lead-up, and the traced-vs-untraced comparison pins
//! the recorder's observe-never-perturb contract on every driving.
//!
//! A separate deterministic scenario exercises multi-hop salvage: a task
//! crashes on its first node, recovers onto a second, crashes *there* too,
//! and still completes — with a monotonically advancing checkpoint cursor.
//! A second deterministic scenario walks the custody state machine's worst
//! day: destination crashes mid-flight, the redirect is severed by a link
//! drop, and the backoff retry finally lands — exactly one record.
//!
//! Storm-shaped drivings check heap == reference where the event-heap loop
//! leaves most nodes unadvanced at most steps: 32 and 48 nodes per run
//! with every mechanism (the loop steps between arrivals), one 32–48-node
//! storm per live dispatch policy with faults but no stealing or migration
//! (arrivals walk the contender index), and 256 nodes over a full 200 ms
//! storm in the `#[ignore]`d nightly variant. Each storm also compares the
//! two loops' traces: the shared cluster decision stream, every node's
//! engine events, and every node's quantum-skip counters.

use std::panic::AssertUnwindSafe;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prema::cluster::{
    online_outcome_hash, ClusterFaultPlan, ClusterTraceEvent, CustodyConfig, FlightEntry,
    FlightRecorder, MigrationConfig, NodeKeySet, OnlineClusterConfig, OnlineClusterSimulator,
    OnlineDispatchPolicy, RecoveryConfig, VecClusterSink,
};
use prema::scheduler::TraceEvent;
use prema::workload::prepare::prepare_requests;
use prema::workload::{
    generate_open_loop, ArrivalProcess, FaultKind, FaultProcess, FaultSchedule, LinkFault,
    LinkFaultKind, LinkFaultProcess, NodeFault, OpenLoopConfig,
};
use prema::{Cycles, ModelKind, NpuConfig, PreparedTask, SchedulerConfig, TaskId, TaskRequest};

/// One random driving: everything the chaos loop varies, drawn up-front so
/// failures print a self-contained reproduction.
#[derive(Debug)]
struct Driving {
    nodes: usize,
    duration_ms: f64,
    process: ArrivalProcess,
    fcfs: bool,
    dispatch: OnlineDispatchPolicy,
    stealing: bool,
    admission: Option<f64>,
    mtbf_ms: f64,
    downtime_ms: f64,
    freeze_fraction: f64,
    degrade_fraction: f64,
    degrade_speed: (u32, u32),
    migration: Option<MigrationConfig>,
    recovery: RecoveryConfig,
    links: LinkPlan,
    custody: Option<CustodyConfig>,
}

/// How a driving faults the interconnect: not at all, a per-directed-link
/// renewal chain of outage/throttle windows, or one clean partition of the
/// node set.
#[derive(Debug)]
enum LinkPlan {
    None,
    Process {
        mtbf_ms: f64,
        outage_ms: f64,
        degraded_fraction: f64,
        bandwidth_den: u32,
    },
    Partition {
        split: usize,
        start_ms: f64,
        end_ms: f64,
    },
}

fn draw_driving(rng: &mut StdRng) -> Driving {
    let nodes = rng.gen_range(2usize..=4);
    let duration_ms = rng.gen_range(12.0..24.0);
    let rate_per_ms = rng.gen_range(0.3..0.9);
    let process = match rng.gen_range(0u8..3) {
        0 => ArrivalProcess::Poisson { rate_per_ms },
        1 => ArrivalProcess::Bursty {
            on_rate_per_ms: rate_per_ms * 2.0,
            mean_on_ms: rng.gen_range(1.0..4.0),
            mean_off_ms: rng.gen_range(1.0..4.0),
        },
        _ => ArrivalProcess::Diurnal {
            trough_rate_per_ms: rate_per_ms * 0.5,
            peak_rate_per_ms: rate_per_ms * 1.5,
            period_ms: rng.gen_range(6.0..18.0),
        },
    };
    let dispatch = match rng.gen_range(0u8..3) {
        0 => OnlineDispatchPolicy::ShortestQueue,
        1 => OnlineDispatchPolicy::LeastWork,
        _ => OnlineDispatchPolicy::Predictive,
    };
    let mut recovery = if rng.gen_bool(0.5) {
        RecoveryConfig::checkpointed()
    } else {
        RecoveryConfig::restart_from_zero()
    };
    recovery.retry_budget = rng.gen_range(0u32..=4);
    recovery.backoff_base_ms = rng.gen_range(0.25..1.0);
    Driving {
        nodes,
        duration_ms,
        process,
        fcfs: rng.gen_bool(0.3),
        dispatch,
        stealing: rng.gen_bool(0.4),
        admission: if rng.gen_bool(0.3) {
            Some(rng.gen_range(20.0..80.0))
        } else {
            None
        },
        mtbf_ms: rng.gen_range(5.0..40.0),
        downtime_ms: rng.gen_range(0.5..2.0),
        freeze_fraction: rng.gen_range(0.0..0.4),
        degrade_fraction: rng.gen_range(0.0..0.5),
        degrade_speed: (1, rng.gen_range(2u32..=8)),
        migration: if rng.gen_bool(0.5) {
            Some(
                MigrationConfig::new(rng.gen_range(2.0..20.0))
                    .with_hysteresis(rng.gen_range(1.0..1.5)),
            )
        } else {
            None
        },
        recovery,
        links: match rng.gen_range(0u8..3) {
            0 => LinkPlan::None,
            1 => LinkPlan::Process {
                mtbf_ms: rng.gen_range(3.0..20.0),
                outage_ms: rng.gen_range(1.0..8.0),
                degraded_fraction: rng.gen_range(0.0..0.9),
                bandwidth_den: rng.gen_range(4u32..=64),
            },
            _ => {
                let split = rng.gen_range(1..nodes);
                let start_ms = rng.gen_range(0.5..duration_ms * 0.5);
                LinkPlan::Partition {
                    split,
                    start_ms,
                    end_ms: start_ms + rng.gen_range(1.0..duration_ms * 0.5),
                }
            }
        },
        custody: if rng.gen_bool(0.6) {
            let mut custody = CustodyConfig::redirect().with_timeout_ms(rng.gen_range(0.2..4.0));
            custody.retry_budget = rng.gen_range(0u32..=4);
            custody.backoff_base_ms = rng.gen_range(0.25..1.0);
            Some(custody)
        } else {
            None
        },
    }
}

/// Samples the driving's link-fault windows (empty for [`LinkPlan::None`]).
fn draw_links(driving: &Driving, npu: &NpuConfig, rng: &mut StdRng) -> Vec<LinkFault> {
    match driving.links {
        LinkPlan::None => Vec::new(),
        LinkPlan::Process {
            mtbf_ms,
            outage_ms,
            degraded_fraction,
            bandwidth_den,
        } => LinkFaultProcess::outages(driving.nodes, mtbf_ms, outage_ms, driving.duration_ms)
            .with_degraded(degraded_fraction, 1, bandwidth_den)
            .generate(rng),
        LinkPlan::Partition {
            split,
            start_ms,
            end_ms,
        } => {
            let all: Vec<usize> = (0..driving.nodes).collect();
            let (left, right) = all.split_at(split);
            LinkFault::partition(
                left,
                right,
                npu.millis_to_cycles(start_ms),
                npu.millis_to_cycles(end_ms),
            )
        }
    }
}

fn config_of(driving: &Driving, schedule: FaultSchedule) -> OnlineClusterConfig {
    let scheduler = if driving.fcfs {
        SchedulerConfig::np_fcfs()
    } else {
        SchedulerConfig::paper_default()
    };
    let mut config = OnlineClusterConfig::new(driving.nodes, scheduler, driving.dispatch)
        .with_faults(ClusterFaultPlan::new(schedule).with_recovery(driving.recovery));
    if driving.stealing {
        config = config.with_work_stealing();
    }
    if let Some(target) = driving.admission {
        config = config.with_admission(target);
    }
    if let Some(migration) = &driving.migration {
        let mut migration = migration.clone();
        if let Some(custody) = driving.custody {
            migration = migration.with_custody(custody);
        }
        config = config.with_migration(migration);
    }
    config
}

/// The chaos sweep: ≥50 random fault drivings (default; scale with
/// `CHAOS_ITERS`), every invariant checked on each one.
#[test]
fn random_fault_drivings_conserve_tasks_and_stay_deterministic() {
    let drivings: usize = std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(56);
    let npu = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0xC4A0_5EED);
    let mut faulty = 0usize;
    let mut migrated = 0usize;
    for case in 0..drivings {
        let driving = draw_driving(&mut rng);
        let arrivals =
            OpenLoopConfig::poisson(1.0, driving.duration_ms).with_process(driving.process);
        let spec = generate_open_loop(&arrivals, &mut rng);
        let tasks = prepare_requests(&spec.requests, &npu, None);
        if tasks.is_empty() {
            continue;
        }
        // Resample until the fault process actually fires: the acceptance
        // criterion counts *fault* drivings, not quiet ones.
        let mut schedule = FaultSchedule::none();
        for _ in 0..32 {
            schedule = FaultProcess::crashes(
                driving.nodes,
                driving.mtbf_ms,
                driving.downtime_ms,
                driving.duration_ms,
            )
            .with_freeze_fraction(driving.freeze_fraction)
            .with_degradation(
                driving.degrade_fraction,
                driving.degrade_speed.0,
                driving.degrade_speed.1,
            )
            .generate(&mut rng);
            if !schedule.is_empty() {
                break;
            }
        }
        assert!(
            !schedule.is_empty(),
            "case {case}: fault process never fired"
        );
        let scheduled = schedule.len() as u64;
        let schedule = schedule.with_links(draw_links(&driving, &npu, &mut rng));
        let simulator = OnlineClusterSimulator::new(config_of(&driving, schedule));

        // The heap run carries a bounded flight recorder: the last 512
        // events plus 64 samples per node, dumped below if any invariant
        // fails so the failure report carries the lead-up, not just the
        // final state. Comparing this traced run against the untraced
        // reference and repeat also pins observe-never-perturb on every
        // random driving.
        let recorder = FlightRecorder::new(driving.nodes, 512, 64);
        let (heap, recorder) = simulator.run_traced(&tasks, recorder);
        let invariants = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let reference = simulator.run_reference(&tasks);
            assert_eq!(
                heap, reference,
                "case {case}: heap != reference\n{driving:?}"
            );
            assert_eq!(
                online_outcome_hash(&heap),
                online_outcome_hash(&reference),
                "case {case}: digest divergence\n{driving:?}"
            );
            let repeat = simulator.run(&tasks);
            assert_eq!(
                heap, repeat,
                "case {case}: traced run not bit-identical to untraced repeat\n{driving:?}"
            );

            // Exactly-once conservation: served ∪ shed ∪ abandoned ==
            // generated.
            let mut all: Vec<TaskId> = heap
                .cluster
                .merged_records()
                .iter()
                .map(|r| r.id)
                .chain(heap.shed.iter().map(|r| r.id))
                .chain(heap.abandoned.iter().map(|r| r.id))
                .collect();
            all.sort_unstable();
            let before = all.len();
            all.dedup();
            assert_eq!(
                before,
                all.len(),
                "case {case}: a task was double-served\n{driving:?}"
            );
            let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
            expected.sort_unstable();
            assert_eq!(
                all, expected,
                "case {case}: conservation broken\n{driving:?}"
            );

            assert_eq!(
                heap.crashes + heap.freezes + heap.degrades,
                scheduled,
                "case {case}: not every scheduled fault window fired\n{driving:?}"
            );

            // Interconnect byte accounting: the tally is exactly the sum of
            // the live checkpoint payloads the log says travelled.
            assert_eq!(
                heap.migration_bytes,
                heap.migration_log.iter().map(|r| r.bytes).sum::<u64>(),
                "case {case}: migration byte tally diverges from the log\n{driving:?}"
            );
            assert_eq!(
                heap.migrations as usize,
                heap.migration_log.len(),
                "case {case}: migration count diverges from the log\n{driving:?}"
            );
            if driving.migration.is_none() {
                assert_eq!(
                    heap.migrations, 0,
                    "case {case}: migration fired without a policy\n{driving:?}"
                );
            }

            // Custody invariants: reconciliation is clean (no task left in
            // flight), the redirect tally matches its log, and without a
            // custody layer the fabric is reliable — link faults must never
            // fail a transfer.
            assert!(
                heap.custody_error.is_none(),
                "case {case}: custody reconciliation failed: {:?}\n{driving:?}",
                heap.custody_error
            );
            assert_eq!(
                heap.redirects as usize,
                heap.redirect_log.len(),
                "case {case}: redirect count diverges from the log\n{driving:?}"
            );
            if driving.custody.is_none() || driving.migration.is_none() {
                assert_eq!(
                    (heap.transfer_failures, heap.redirects),
                    (0, 0),
                    "case {case}: custody machinery fired without a custody layer\n{driving:?}"
                );
            }
        }));
        if let Err(failure) = invariants {
            let dump = recorder.dump();
            eprintln!("{dump}");
            // Nightly CI sets CHAOS_DUMP_DIR and uploads whatever lands
            // there as a failure artifact, so the flight-recorder lead-up
            // survives the job teardown.
            if let Some(dir) = std::env::var_os("CHAOS_DUMP_DIR") {
                let dir = std::path::PathBuf::from(dir);
                let path = dir.join(format!("chaos-case-{case}.txt"));
                if let Err(error) = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, format!("{driving:?}\n\n{dump}")))
                {
                    eprintln!("could not write {}: {error}", path.display());
                } else {
                    eprintln!("flight-recorder dump written to {}", path.display());
                }
            }
            std::panic::resume_unwind(failure);
        }
        if heap.migrations > 0 {
            migrated += 1;
        }
        if heap.has_fault_activity() {
            faulty += 1;
        }
    }
    let need_faulty = drivings * 50 / 56;
    assert!(
        faulty >= need_faulty,
        "only {faulty} drivings exercised fault machinery; need at least {need_faulty}"
    );
    // The default campaign must also exercise the migration arbiter end to
    // end at least once; longer CHAOS_ITERS campaigns inherit the bar.
    // Tiny smoke campaigns (CI runs single iterations just to exercise the
    // recorder) can't statistically promise a migration, so the bar starts
    // at 16 drivings.
    assert!(
        drivings < 16 || migrated >= 1,
        "no driving triggered a checkpoint migration; the sweep lost its straggler coverage"
    );
}

/// Multi-hop salvage: crash the task's first node mid-inference, let it
/// recover onto the second node, crash *that* node too, and check the task
/// still completes — resuming from a strictly later checkpoint on the
/// second hop and appearing exactly once in the merged records.
#[test]
fn multi_hop_salvage_resumes_from_advancing_checkpoints() {
    let npu = NpuConfig::paper_default();
    let request = TaskRequest::new(TaskId(0), ModelKind::CnnVggNet);
    let tasks: Vec<PreparedTask> = prepare_requests(&[request], &npu, None);
    let total = tasks[0].plan.total_cycles();
    assert!(
        total > Cycles::new(1_000_000),
        "VggNet must be long enough to crash twice"
    );

    let backoff = RecoveryConfig::checkpointed().backoff_base_ms;
    let downtime = npu.millis_to_cycles(2.0);
    // First crash a quarter of the way in; the second once the recovered
    // copy has run for over half the plan again on the other node.
    let crash0 = Cycles::new(total.get() / 4);
    let crash1 = crash0 + npu.millis_to_cycles(backoff) + Cycles::new(total.get() * 11 / 20);
    let schedule = FaultSchedule::from_events(vec![
        NodeFault {
            node: 0,
            start: crash0,
            end: crash0 + downtime,
            kind: FaultKind::Crash,
        },
        NodeFault {
            node: 1,
            start: crash1,
            end: crash1 + downtime,
            kind: FaultKind::Crash,
        },
    ]);

    let config = OnlineClusterConfig::new(
        2,
        SchedulerConfig::paper_default(),
        OnlineDispatchPolicy::Predictive,
    )
    .with_faults(ClusterFaultPlan::new(schedule));
    let simulator = OnlineClusterSimulator::new(config);
    let heap = simulator.run(&tasks);
    let reference = simulator.run_reference(&tasks);
    assert_eq!(heap, reference);

    // The task survives both crashes and is served exactly once.
    assert!(heap.abandoned.is_empty());
    let records = heap.cluster.merged_records();
    assert_eq!(records.iter().filter(|r| r.id == TaskId(0)).count(), 1);
    assert_eq!(heap.crashes, 2);
    assert_eq!(heap.recoveries, 2);

    // Two hops: node 0 → node 1 → node 0, with lifetime attempt numbers.
    assert_eq!(heap.recovery_log.len(), 2);
    let first = heap.recovery_log[0];
    let second = heap.recovery_log[1];
    assert_eq!(
        (first.task, first.from_node, first.to_node, first.attempt),
        (TaskId(0), 0, 1, 1)
    );
    assert_eq!(
        (
            second.task,
            second.from_node,
            second.to_node,
            second.attempt
        ),
        (TaskId(0), 1, 0, 2)
    );

    // Checkpoint cursors advance monotonically: the first crash salvages
    // real committed progress, and the second salvages strictly more — the
    // second hop never replays work the first already committed.
    assert!(first.resume_executed > Cycles::new(0));
    assert!(second.resume_executed > first.resume_executed);
    assert!(second.resume_executed < total);
}

/// The custody state machine's worst day, walked deterministically: a
/// straggling node evacuates its task, the destination crashes while the
/// checkpoint is in flight, the redirect to the only surviving node is
/// severed by a link drop, and the backoff retry finally lands over the
/// throttled link — exactly one record, nothing abandoned, custody clean.
#[test]
fn destination_crash_link_drop_backoff_retry_lands_exactly_once() {
    let npu = NpuConfig::paper_default();
    let d = |ms: f64| npu.millis_to_cycles(ms);
    let request = TaskRequest::new(TaskId(0), ModelKind::CnnVggNet);
    let tasks: Vec<PreparedTask> = prepare_requests(&[request], &npu, None);

    let throttled = LinkFaultKind::Degraded {
        bandwidth_num: 1,
        bandwidth_den: 16,
    };
    // Node 0 straggles at 1/8 speed until just after the evacuation
    // departs, then crashes so the redirect cannot bounce the task home.
    // Node 1 (the chosen destination) crashes while the checkpoint is in
    // flight. Node 2 stays healthy, but its inbound link from node 0 is
    // throttled the whole run and fully down across the first redirect's
    // flight window.
    let schedule = FaultSchedule::from_events(vec![
        NodeFault {
            node: 0,
            start: d(0.5),
            end: d(1.4),
            kind: FaultKind::Degrade {
                speed_num: 1,
                speed_den: 8,
            },
        },
        NodeFault {
            node: 0,
            start: d(1.5),
            end: d(100.0),
            kind: FaultKind::Crash,
        },
        NodeFault {
            node: 1,
            start: d(1.0),
            end: d(100.0),
            kind: FaultKind::Crash,
        },
    ])
    .with_links(vec![
        LinkFault {
            from: 0,
            to: 2,
            start: d(0.01),
            end: d(5.0),
            kind: throttled,
        },
        LinkFault {
            from: 0,
            to: 2,
            start: d(5.0),
            end: d(5.8),
            kind: LinkFaultKind::Down,
        },
        LinkFault {
            from: 0,
            to: 2,
            start: d(5.8),
            end: d(20.0),
            kind: throttled,
        },
    ]);

    let migration =
        MigrationConfig::new(2.0).with_custody(CustodyConfig::redirect().with_timeout_ms(200.0));
    let config = OnlineClusterConfig::new(
        3,
        SchedulerConfig::paper_default(),
        OnlineDispatchPolicy::Predictive,
    )
    .with_faults(ClusterFaultPlan::new(schedule))
    .with_migration(migration);
    let simulator = OnlineClusterSimulator::new(config);
    let heap = simulator.run(&tasks);
    let reference = simulator.run_reference(&tasks);
    assert_eq!(heap, reference);

    // One evacuation: off the straggler toward node 1, which is down by
    // the time the payload arrives — attempt 1 fails at the landing check.
    assert_eq!(heap.migration_log.len(), 1);
    let evacuation = heap.migration_log[0];
    assert_eq!(
        (evacuation.task, evacuation.from_node, evacuation.to_node),
        (TaskId(0), 0, 1)
    );
    assert_eq!(evacuation.at, d(0.5));
    assert!(evacuation.arrive_at > d(1.0) && evacuation.arrive_at < d(1.5));

    // Two failed attempts (destination down, then the severed redirect)
    // and two committed redirects, both re-routing 0 → 2: attempt 2 right
    // after the landing failure's backoff, attempt 3 once the second
    // backoff clears the link-down window.
    assert_eq!(heap.transfer_failures, 2);
    assert_eq!(heap.redirects, 2);
    assert_eq!(heap.redirect_log.len(), 2);
    let first = heap.redirect_log[0];
    let second = heap.redirect_log[1];
    assert_eq!(
        (first.task, first.from_node, first.to_node, first.attempt),
        (TaskId(0), 0, 2, 2)
    );
    assert!(first.at > d(1.5) && first.at < d(2.0));
    assert_eq!(
        (
            second.task,
            second.from_node,
            second.to_node,
            second.attempt
        ),
        (TaskId(0), 0, 2, 3)
    );
    assert_eq!(second.at, d(6.0));

    // Exactly-once custody: the task lands on node 2, is served exactly
    // once, and reconciliation finds nothing still in flight.
    assert!(heap.abandoned.is_empty());
    assert!(heap.custody_error.is_none());
    assert_eq!(heap.crashes, 2);
    let records = heap.cluster.merged_records();
    assert_eq!(records.iter().filter(|r| r.id == TaskId(0)).count(), 1);
    assert_eq!(
        heap.cluster.node_outcomes[2]
            .records
            .iter()
            .filter(|r| r.id == TaskId(0))
            .count(),
        1,
        "the task must complete on the only surviving node"
    );
}

/// Mean isolated service time of the default request mix, milliseconds: an
/// offered load of ρ on `n` nodes is a Poisson rate of `ρ · n / 19.948` per
/// millisecond.
const MEAN_SERVICE_MS: f64 = 19.948;

/// One storm-shaped driving: a Poisson stream behind live dispatch, with
/// crash / freeze / degrade windows on the first quarter of the nodes and
/// throttling and severing link windows among the first eight, at a node
/// count where most nodes are quiet at most steps. Each driving picks its
/// mechanisms: the full storm adds work stealing, SLA admission and
/// deadline migration under a redirecting custody layer; without stealing
/// and migration the loop never steps between arrivals and walks the
/// contender index instead.
struct Storm {
    nodes: usize,
    window_ms: f64,
    load: f64,
    dispatch: OnlineDispatchPolicy,
    stealing: bool,
    admission_ms: Option<f64>,
    /// The deadline-migration SLA, if the storm migrates.
    sla_ms: Option<f64>,
    seed: u64,
}

impl Storm {
    /// An 80 ms storm at load 1.3 with faults (plus optional admission)
    /// but no stealing and no migration.
    fn unstepped(
        nodes: usize,
        dispatch: OnlineDispatchPolicy,
        admission_ms: Option<f64>,
        seed: u64,
    ) -> Self {
        Storm {
            nodes,
            window_ms: 80.0,
            load: 1.3,
            dispatch,
            stealing: false,
            admission_ms,
            sla_ms: None,
            seed,
        }
    }

    fn simulate(&self, npu: &NpuConfig) -> (OnlineClusterSimulator, Vec<PreparedTask>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rate = self.load * self.nodes as f64 / MEAN_SERVICE_MS;
        let spec = generate_open_loop(&OpenLoopConfig::poisson(rate, self.window_ms), &mut rng);
        let tasks = prepare_requests(&spec.requests, npu, None);
        let faults = FaultProcess::crashes(self.nodes / 4, 30.0, 3.0, self.window_ms)
            .with_freeze_fraction(0.2)
            .with_degradation(0.4, 1, 8)
            .generate(&mut rng);
        let links = LinkFaultProcess::outages(8, 20.0, 6.0, self.window_ms)
            .with_degraded(0.9, 1, 128)
            .generate(&mut rng);
        let mut config =
            OnlineClusterConfig::new(self.nodes, SchedulerConfig::paper_default(), self.dispatch)
                .with_faults(ClusterFaultPlan::new(faults.with_links(links)));
        if self.stealing {
            config = config.with_work_stealing();
        }
        if let Some(target) = self.admission_ms {
            config = config.with_admission(target);
        }
        if let Some(sla_ms) = self.sla_ms {
            let custody = CustodyConfig::redirect().with_timeout_ms(0.02);
            config = config.with_migration(MigrationConfig::new(sla_ms).with_custody(custody));
        }
        (OnlineClusterSimulator::new(config), tasks)
    }
}

/// Heap == reference where node skipping matters: storm-shaped drivings at
/// 32–48 nodes. Beyond the outcomes, both loops' traces must agree: the
/// cluster events they share in order and timestamp, each node's engine
/// events, and each node's quantum-skip counters (which `SimOutcome`
/// equality ignores). Returns the outcome and how many steals landed on a
/// thief whose clock froze before the preceding step — the reference then
/// steps back to that past instant.
fn assert_storm_matches_reference(storm: &Storm) -> (prema::cluster::OnlineOutcome, usize) {
    let npu = NpuConfig::paper_default();
    let (simulator, tasks) = storm.simulate(&npu);
    let (heap, sink) = simulator.run_traced(&tasks, VecClusterSink::default());
    let (reference, reference_sink) =
        simulator.run_reference_traced(&tasks, VecClusterSink::default());
    let context = format!("storm at {} nodes, seed {:#x}", storm.nodes, storm.seed);
    assert_eq!(heap, reference, "{context}: heap != reference");
    assert_eq!(
        online_outcome_hash(&heap),
        online_outcome_hash(&reference),
        "{context}: digest divergence"
    );
    assert_same_stream(
        &shared_cluster_events(&sink),
        &shared_cluster_events(&reference_sink),
        &format!("{context}: cluster events"),
    );
    let (heap_nodes, reference_nodes) = (
        engine_events(&sink, storm.nodes),
        engine_events(&reference_sink, storm.nodes),
    );
    for (node, (ours, theirs)) in heap_nodes.iter().zip(&reference_nodes).enumerate() {
        assert_same_stream(
            ours,
            theirs,
            &format!("{context}: node {node} engine events"),
        );
        let (ours, theirs) = (
            &heap.cluster.node_outcomes[node],
            &reference.cluster.node_outcomes[node],
        );
        assert_eq!(
            (ours.quanta_skipped, ours.replayed_token_grants),
            (theirs.quanta_skipped, theirs.replayed_token_grants),
            "{context}: node {node} skip counters"
        );
    }
    // Every migration round closes with a custody check stamped at its
    // step; a steal stamped (at the thief's clock) before the last one
    // landed on a thief frozen in the past.
    let mut step = Cycles::ZERO;
    let mut stale_thieves = 0;
    for entry in &sink.entries {
        match entry {
            FlightEntry::Cluster {
                now,
                event: ClusterTraceEvent::CustodyCheck { .. },
            } => step = *now,
            FlightEntry::Cluster {
                now,
                event: ClusterTraceEvent::Steal { .. },
            } if *now < step => stale_thieves += 1,
            _ => {}
        }
    }
    (heap, stale_thieves)
}

/// The cluster events both loops emit: everything but the event-heap
/// loop's own certificate-heap and contender-index bookkeeping. Dispatch
/// decisions keep only the task and the chosen node, because the index
/// records just the contenders it walked.
fn shared_cluster_events(sink: &VecClusterSink) -> Vec<(Cycles, ClusterTraceEvent)> {
    sink.entries
        .iter()
        .filter_map(|entry| match *entry {
            FlightEntry::Cluster { now, event } => match event {
                ClusterTraceEvent::HeapPush { .. }
                | ClusterTraceEvent::HeapPop { .. }
                | ClusterTraceEvent::HeapStaleDrop { .. }
                | ClusterTraceEvent::IndexUpdate { .. } => None,
                ClusterTraceEvent::DispatchDecision { task, chosen, .. } => Some((
                    now,
                    ClusterTraceEvent::DispatchDecision {
                        task,
                        chosen,
                        keys: NodeKeySet::default(),
                    },
                )),
                event => Some((now, event)),
            },
            FlightEntry::Node { .. } => None,
        })
        .collect()
}

/// Each node's engine events in emission order, without the quantum-skip
/// batches: how the fast path splits a skipped span follows the horizons
/// each loop advanced the node to.
fn engine_events(sink: &VecClusterSink, nodes: usize) -> Vec<Vec<(Cycles, TraceEvent)>> {
    let mut streams = vec![Vec::new(); nodes];
    for entry in &sink.entries {
        if let FlightEntry::Node { node, now, event } = *entry {
            if !matches!(event, TraceEvent::QuantumSkip { .. }) {
                streams[node].push((now, event));
            }
        }
    }
    streams
}

/// Asserts two event streams are equal, reporting the first divergence.
fn assert_same_stream<E: PartialEq + std::fmt::Debug>(ours: &[E], theirs: &[E], context: &str) {
    if let Some(k) = ours.iter().zip(theirs).position(|(a, b)| a != b) {
        panic!(
            "{context}: entry {k} differs: heap {:?} vs reference {:?}",
            ours[k], theirs[k]
        );
    }
    assert_eq!(ours.len(), theirs.len(), "{context}: stream lengths");
}

/// Two fixed storms at 32 and 48 nodes: together they must steal (including
/// onto a thief frozen in the past), shed, migrate and redirect.
#[test]
fn storm_drivings_at_dozens_of_nodes_match_the_reference() {
    let storms = [
        Storm {
            nodes: 32,
            window_ms: 60.0,
            load: 1.6,
            dispatch: OnlineDispatchPolicy::Predictive,
            stealing: true,
            admission_ms: Some(400.0),
            sla_ms: Some(12.0),
            seed: 0x5707_0001,
        },
        Storm {
            nodes: 48,
            window_ms: 50.0,
            load: 1.3,
            dispatch: OnlineDispatchPolicy::Predictive,
            stealing: true,
            admission_ms: Some(60.0),
            sla_ms: Some(10.0),
            seed: 0x5707_0002,
        },
    ];
    let mut totals = [0u64; 5];
    for storm in &storms {
        let (outcome, stale_thieves) = assert_storm_matches_reference(storm);
        for (total, count) in totals.iter_mut().zip([
            outcome.steals,
            outcome.shed.len() as u64,
            outcome.migrations,
            outcome.redirects,
            stale_thieves as u64,
        ]) {
            *total += count;
        }
        assert!(outcome.has_fault_activity(), "every storm faults nodes");
    }
    let [steals, sheds, migrations, redirects, stale_thieves] = totals;
    assert!(steals > 0 && sheds > 0 && migrations > 0 && redirects > 0);
    assert!(
        stale_thieves > 0,
        "a steal must land on a thief frozen in the past"
    );
}

/// One fixed storm per live dispatch policy at 32–48 nodes without
/// stealing or migration: the loop opens one step per arrival and fault
/// instant, fresh arrivals walk the contender index (debug builds replay
/// the exact scan after every walk), and recoveries take the scan. The
/// predictive storm adds SLA admission, so sheds meet the index too.
#[test]
fn unstepped_storms_at_dozens_of_nodes_match_the_reference() {
    let storms = [
        Storm::unstepped(32, OnlineDispatchPolicy::ShortestQueue, None, 0x5707_0011),
        Storm::unstepped(40, OnlineDispatchPolicy::LeastWork, None, 0x5707_0012),
        Storm::unstepped(
            48,
            OnlineDispatchPolicy::Predictive,
            Some(60.0),
            0x5707_0013,
        ),
    ];
    let mut sheds = 0;
    for storm in &storms {
        let (outcome, _) = assert_storm_matches_reference(storm);
        assert!(outcome.has_fault_activity(), "every storm faults nodes");
        assert_eq!(outcome.steals + outcome.migrations, 0);
        sheds += outcome.shed.len();
    }
    assert!(sheds > 0, "the admission storm must shed");
}

/// The storm driving at the scale the host-time benchmark measures: 256
/// nodes over a full 200 ms storm. Too slow for the per-PR debug suite (the
/// reference advances all 256 nodes at every step); the nightly workflow
/// runs it in release with `cargo test --release --test chaos -- --ignored`.
#[test]
#[ignore = "nightly: 256 nodes over a 200 ms storm"]
fn storm_at_256_nodes_matches_the_reference() {
    let (outcome, stale_thieves) = assert_storm_matches_reference(&Storm {
        nodes: 256,
        window_ms: 200.0,
        load: 1.2,
        dispatch: OnlineDispatchPolicy::Predictive,
        stealing: true,
        admission_ms: Some(360.0),
        sla_ms: Some(40.0),
        seed: 0x5707_0100,
    });
    assert!(outcome.steals > 0 && !outcome.shed.is_empty() && outcome.migrations > 0);
    assert!(
        stale_thieves > 0,
        "a steal must land on a thief frozen in the past"
    );
}
