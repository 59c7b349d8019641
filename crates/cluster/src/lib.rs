//! Multi-NPU cluster serving layer for the PREMA reproduction.
//!
//! The paper's motivating scenario (Section I) is a cloud ML-as-a-Service
//! fleet: consolidated NPUs serving sustained multi-tenant inference
//! traffic with mixed priorities, where a latency-critical request must not
//! sit behind a batch job. The evaluation then studies one preemptible NPU
//! under a fixed batch of requests; this crate closes the loop back to the
//! serving scenario by composing N *unmodified* single-NPU engines
//! ([`prema_core::NpuSimulator`]) behind a front-end dispatcher and driving
//! them with open-loop arrival streams
//! ([`prema_workload::arrivals`]) — the standard methodology for
//! characterizing sustained-throughput server behaviour.
//!
//! ```text
//!                      +--------------------------+
//!   open-loop stream   |  Dispatcher (policy)     |     node 0: NpuSimulator
//!   Poisson / bursty / |  random | round-robin |  | --> node 1: NpuSimulator
//!   diurnal arrivals   |  jsq | least-work |      | --> node 2: NpuSimulator
//!   w/ priority mix    |  predictive              |     node 3: NpuSimulator
//!                      +--------------------------+
//!                        front-end ledgers only         per-node scheduler
//!                        (predictor estimates)          (NP-FCFS ... PREMA)
//! ```
//!
//! * [`dispatch`] — the five front-end policies. The *predictive* policy
//!   reuses the same [`prema_predictor::AnalyticalPredictor`] estimates
//!   PREMA's token scheduler consumes (Algorithm 1 / Section V-B) together
//!   with request priorities, picking the node that minimizes the request's
//!   estimated completion given the work that actually outranks it there —
//!   PREMA's predictor-plus-priority reasoning lifted to cluster scope.
//! * [`cluster`] — the deterministic two-stage *open-loop* simulation:
//!   commit every request to a node in arrival order, then run each node's
//!   engine to completion (fanned out over rayon's workers,
//!   bit-identically).
//! * [`online`] — the *closed-loop* path: a global event queue interleaves
//!   arrivals with node execution (each node a resumable
//!   [`prema_core::SimSession`]), so every dispatch decision reads the
//!   nodes' actual state — live queue depth, true remaining work — and two
//!   policies impossible open-loop become expressible: work stealing on
//!   node idle and SLA-aware admission shedding.
//! * [`faults`] — node fault injection for the closed-loop path: a
//!   [`prema_workload::FaultSchedule`] crashes (salvaging resident work at
//!   its last checkpoint commit point), freezes, or *degrades* nodes
//!   mid-run (a straggler window at a fractional clock), and a
//!   [`RecoveryConfig`] governs re-dispatch — retry budget, exponential
//!   backoff, and checkpoint-priced resume versus the restart-from-zero
//!   baseline — behind a failure-aware dispatch cooldown.
//! * [`interconnect`] + [`migration`] — the straggler answer: a priced
//!   cluster fabric (`latency + ceil(bytes / bandwidth)`) and a deadline
//!   monitor that, when a started task's predicted completion slips past
//!   its SLA, compares stay-vs-move cost and evacuates the task's
//!   checkpoint context to a healthier node, with hysteresis and a
//!   per-node budget preventing thrash.
//! * [`metrics`] — cluster-wide ANTT/STP, queueing-delay vs service-time
//!   breakdown, p50/p95/p99 turnaround tails, Figure 13-style SLA curves,
//!   per-node utilization, and the deterministic outcome digest the bench
//!   baseline gate compares (shared by both paths).
//!
//! # Example
//!
//! ```
//! use prema_cluster::{ClusterConfig, ClusterMetrics, ClusterSimulator, DispatchPolicy};
//! use prema_core::SchedulerConfig;
//! use prema_workload::arrivals::{generate_open_loop, OpenLoopConfig};
//! use npu_sim::NpuConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let stream = generate_open_loop(&OpenLoopConfig::poisson(0.5, 30.0), &mut rng);
//! let cluster = ClusterSimulator::new(ClusterConfig::new(
//!     4,
//!     SchedulerConfig::paper_default(),
//!     DispatchPolicy::Predictive,
//! ));
//! let outcome = cluster.run_requests(&stream.requests, None);
//! assert_eq!(outcome.task_count(), stream.requests.len());
//! let metrics = ClusterMetrics::from_outcome(&outcome, &NpuConfig::paper_default());
//! assert!(metrics.antt >= 1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
mod contender;
pub mod dispatch;
mod event_heap;
pub mod faults;
pub mod interconnect;
pub mod metrics;
pub mod migration;
pub mod online;
pub mod trace;

pub use cluster::{ClusterConfig, ClusterOutcome, ClusterSimulator, NodeAssignment};
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use faults::{ClusterFaultPlan, RecoveryConfig, RecoveryRecord, RECOVERY_COOLDOWN_MS};
pub use interconnect::{LinkState, LinkTopology, LINK_BYTES_PER_CYCLE, LINK_LATENCY_CYCLES};
pub use metrics::{fold_hashes, outcome_hash, ClusterMetrics};
pub use migration::{
    CustodyConfig, CustodyError, MigrationConfig, MigrationRecord, RedirectRecord,
    MIGRATION_MARGIN_MS, MIGRATION_NODE_BUDGET,
};
pub use online::{
    online_outcome_hash, OnlineClusterConfig, OnlineClusterSimulator, OnlineDispatchPolicy,
    OnlineOutcome, SlaAdmissionConfig,
};
pub use trace::{
    ClusterTraceEvent, ClusterTraceSink, CountingSink, FaultTraceKind, FlightEntry, FlightRecorder,
    JsonTraceSink, LinkTraceKind, NodeKey, NodeKeySet, NodeTap, NullClusterSink,
    TraceReconciliation, TransferFailReason, VecClusterSink, MAX_TRACE_NODES,
};
