//! Property test pinning the indexed contender structures to the linear
//! scan they replace.
//!
//! The event-heap loop's live dispatch (`jsq-live`, `least-work-live`,
//! `predictive-live`) walks an indexed contender structure — tournament
//! trees over absolute keys for work the running task drains and exact
//! keys for work it does not — for every fresh arrival whenever the loop
//! never steps between arrivals: no stealing and no migration. Plain,
//! faults-only, admission-only and admission-with-faults drivings take
//! that path. The sweep drives random cluster shapes through every feature
//! combination and asserts the outcome is exactly what the linear scan
//! produces:
//!
//! * **Heap == reference, bit for bit** — the event-heap run must equal
//!   the horizon-stepping reference (which knows nothing about the index),
//!   outcome struct *and* `online_outcome_hash`. Any divergence in a
//!   single dispatch decision cascades into different node assignments and
//!   a different digest, so hash equality pins every pick.
//! * **Chosen-node identity per arrival** — debug builds (which `cargo
//!   test` uses) additionally replay the exact scan after every indexed
//!   pick inside `pick_node` and `debug_assert_eq!` the chosen node, so a
//!   compensating double-error cannot hide behind an identical final hash.
//! * **Stepping modes build no index** — with stealing or migration the
//!   loop steps to every completion bound between arrivals and every pick
//!   is the exact scan; those drivings pin the same heap == reference
//!   contract on the path without the index.
//!
//! A second test drives one stream shaped like the host-time benchmark's
//! 1024-node fleet, scaled down to 48 nodes: the same pins hold there, and
//! `predictive-live`'s counted certificate-heap pushes must stay within
//! 1.25× `jsq-live`'s. A walk that keys work the runner never drains as if
//! it drained brings up nodes that cannot win, and every such advance
//! pushes a certificate; that shows here as the ratio climbing.
//!
//! Fault drivings matter most here: they exercise the penalty tiers
//! (down > cooling > healthy) as the index's major key, the promotion
//! heap that decays tiers at fault-drain instants, and the unindexed side
//! set that stalled and clock-scaled nodes divert to. Admission drivings
//! add sheds, which mutate nodes between an indexed pick and the next
//! arrival's walk; with faults on top, sheds, penalty tiers and the side
//! set meet on the index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prema::cluster::{
    online_outcome_hash, ClusterFaultPlan, CountingSink, MigrationConfig, OnlineClusterConfig,
    OnlineClusterSimulator, OnlineDispatchPolicy,
};
use prema::workload::prepare::prepare_requests;
use prema::workload::{
    generate_open_loop, ArrivalProcess, FaultProcess, FaultSchedule, OpenLoopConfig,
};
use prema::{AnalyticalPredictor, NpuConfig, SchedulerConfig};

/// Which subsystems a driving switches on. Without stealing and migration
/// the loop never steps between arrivals, so the indexed pick path handles
/// every fresh arrival; stealing or migration makes it step, and the index
/// is never built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Features {
    Plain,
    Faults,
    Stealing,
    Admission,
    Migration,
    AllOn,
    AdmissionFaults,
}

const FEATURES: [Features; 7] = [
    Features::Plain,
    Features::Faults,
    Features::Stealing,
    Features::Admission,
    Features::Migration,
    Features::AllOn,
    Features::AdmissionFaults,
];

const POLICIES: [OnlineDispatchPolicy; 3] = [
    OnlineDispatchPolicy::ShortestQueue,
    OnlineDispatchPolicy::LeastWork,
    OnlineDispatchPolicy::Predictive,
];

fn uses_index(features: Features) -> bool {
    !matches!(
        features,
        Features::Stealing | Features::Migration | Features::AllOn
    )
}

fn wants_faults(features: Features) -> bool {
    matches!(
        features,
        Features::Faults | Features::AllOn | Features::AdmissionFaults
    )
}

fn draw_config(
    rng: &mut StdRng,
    policy: OnlineDispatchPolicy,
    features: Features,
    nodes: usize,
    schedule: FaultSchedule,
) -> OnlineClusterConfig {
    let scheduler = if rng.gen_bool(0.3) {
        SchedulerConfig::np_fcfs()
    } else {
        SchedulerConfig::paper_default()
    };
    let mut config = OnlineClusterConfig::new(nodes, scheduler, policy);
    if wants_faults(features) {
        config = config.with_faults(ClusterFaultPlan::new(schedule));
    }
    match features {
        Features::Stealing => config = config.with_work_stealing(),
        Features::Admission | Features::AdmissionFaults => {
            config = config.with_admission(rng.gen_range(20.0..80.0))
        }
        Features::Migration => {
            config = config.with_migration(MigrationConfig::new(rng.gen_range(2.0..20.0)))
        }
        Features::AllOn => {
            config = config
                .with_work_stealing()
                .with_admission(rng.gen_range(20.0..80.0))
                .with_migration(MigrationConfig::new(rng.gen_range(2.0..20.0)));
        }
        Features::Plain | Features::Faults => {}
    }
    config
}

/// The sweep: every live policy × every feature combination, several
/// random drivings each, heap vs reference pinned exactly. In debug
/// builds the in-loop linear replay additionally asserts per-arrival
/// chosen-node identity on every indexed pick.
#[test]
fn indexed_dispatch_matches_the_linear_scan_exactly() {
    let npu = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0x1D3_C0DE);
    let mut indexed_drivings = 0usize;
    let mut indexed_faulty = 0usize;
    let mut indexed_faulty_shedding = 0usize;
    for features in FEATURES {
        for policy in POLICIES {
            for case in 0..3 {
                let nodes = rng.gen_range(2usize..=5);
                let duration_ms = rng.gen_range(10.0..20.0);
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
                let arrivals = OpenLoopConfig::poisson(1.0, duration_ms).with_process(process);
                let spec = generate_open_loop(&arrivals, &mut rng);
                let tasks = prepare_requests(&spec.requests, &npu, None);
                if tasks.is_empty() {
                    continue;
                }

                // Fault drivings resample until the process fires so the
                // penalty tiers, promotion heap and side set actually see
                // traffic instead of an empty schedule.
                let mut schedule = FaultSchedule::none();
                if wants_faults(features) {
                    for _ in 0..32 {
                        schedule = FaultProcess::crashes(
                            nodes,
                            rng.gen_range(4.0..20.0),
                            rng.gen_range(0.5..2.0),
                            duration_ms,
                        )
                        .with_freeze_fraction(rng.gen_range(0.0..0.4))
                        .with_degradation(rng.gen_range(0.0..0.5), 1, rng.gen_range(2u32..=8))
                        .generate(&mut rng);
                        if !schedule.is_empty() {
                            break;
                        }
                    }
                    assert!(
                        !schedule.is_empty(),
                        "{features:?}/{policy:?} case {case}: fault process never fired"
                    );
                }

                let config = draw_config(&mut rng, policy, features, nodes, schedule);
                let simulator = OnlineClusterSimulator::new(config);
                let heap = simulator.run(&tasks);
                let reference = simulator.run_reference(&tasks);
                assert_eq!(
                    heap, reference,
                    "{features:?}/{policy:?} case {case}: indexed heap run != reference"
                );
                assert_eq!(
                    online_outcome_hash(&heap),
                    online_outcome_hash(&reference),
                    "{features:?}/{policy:?} case {case}: digest divergence"
                );
                if uses_index(features) {
                    indexed_drivings += 1;
                    if heap.has_fault_activity() {
                        indexed_faulty += 1;
                        if !heap.shed.is_empty() {
                            indexed_faulty_shedding += 1;
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually have exercised the indexed path, including
    // under live fault windows (penalty tiers + unindexed side set) and
    // with sheds on top.
    assert!(
        indexed_drivings >= 24,
        "only {indexed_drivings} drivings ran with the contender index live"
    );
    assert!(
        indexed_faulty >= 4,
        "only {indexed_faulty} indexed drivings saw fault activity; penalty tiers untested"
    );
    assert!(
        indexed_faulty_shedding >= 3,
        "only {indexed_faulty_shedding} indexed drivings shed under fault activity"
    );
}

/// One stream shaped like the host-time benchmark's fleet-1024 workload at
/// 48 nodes: NP-FCFS nodes, the uniform priority mix, the predictor's
/// estimates (which undershoot some tasks, so runners outlive their
/// estimates) and fleet-1024's per-node arrival rate, about 2.3
/// requests/ms over 300 ms. Every policy must match the reference exactly
/// (debug builds also replay the scan after each pick), and a counted
/// `predictive-live` run may push at most 1.25× the certificates
/// `jsq-live` pushes on the same stream.
#[test]
fn predictive_dispatch_at_fleet_shape_pushes_about_as_much_as_jsq() {
    const NODES: usize = 48;
    let npu = NpuConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(7);
    let spec = generate_open_loop(&OpenLoopConfig::poisson(2.3, 300.0), &mut rng);
    let predictor = AnalyticalPredictor::new(npu.clone());
    let tasks = prepare_requests(&spec.requests, &npu, Some(&predictor));
    assert!(tasks.len() > 600, "only {} requests", tasks.len());
    let mut pushes = [0u64; POLICIES.len()];
    for (slot, policy) in POLICIES.into_iter().enumerate() {
        let config = OnlineClusterConfig::new(NODES, SchedulerConfig::np_fcfs(), policy);
        let simulator = OnlineClusterSimulator::new(config);
        let heap = simulator.run(&tasks);
        let reference = simulator.run_reference(&tasks);
        assert_eq!(heap, reference, "{policy:?}: indexed heap run != reference");
        assert_eq!(
            online_outcome_hash(&heap),
            online_outcome_hash(&reference),
            "{policy:?}: digest divergence"
        );
        let (counted, work) = simulator.run_traced(&tasks, CountingSink::default());
        assert_eq!(counted, heap, "{policy:?}: the counted run diverged");
        assert_eq!(work.dispatch_decisions, tasks.len() as u64);
        pushes[slot] = work.heap_pushes;
    }
    let [jsq, _, predictive] = pushes;
    assert!(
        predictive * 4 <= jsq * 5,
        "predictive-live pushed {predictive} certificates, more than 1.25x jsq-live's {jsq}"
    );
}
