//! # PREMA — A Predictive Multi-task Scheduling Algorithm for Preemptible NPUs
//!
//! This facade crate re-exports the whole PREMA reproduction workspace so
//! applications can depend on a single crate:
//!
//! * [`npu`] — the systolic-array NPU performance model ([`npu_sim`]).
//! * [`models`] — the DNN layer IR and model zoo ([`dnn_models`]).
//! * [`predictor`] — inference-time prediction ([`prema_predictor`]).
//! * [`scheduler`] — preemption mechanisms, policies and the multi-task
//!   engine ([`prema_core`]).
//! * [`workload`] — Section III workload generation and open-loop arrival
//!   processes ([`prema_workload`]).
//! * [`metrics`] — ANTT / STP / fairness / SLA metrics ([`prema_metrics`]).
//! * [`cluster`] — the multi-NPU cluster serving layer: open-loop front-end
//!   dispatch across N simulator nodes, plus the closed-loop online
//!   dispatcher reacting to live node state ([`prema_cluster`]).
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use prema::{
//!     ModelKind, NpuConfig, NpuSimulator, Priority, SchedulerConfig, TaskId, TaskRequest,
//! };
//! use prema::npu::Cycles;
//!
//! let npu = NpuConfig::paper_default();
//! let scheduler = SchedulerConfig::paper_default();
//! let simulator = NpuSimulator::new(npu, scheduler);
//!
//! let requests = vec![
//!     TaskRequest::new(TaskId(0), ModelKind::CnnVggNet),
//!     TaskRequest::new(TaskId(1), ModelKind::CnnGoogLeNet)
//!         .with_priority(Priority::High)
//!         .with_arrival(Cycles::new(350_000)),
//! ];
//! let prepared = simulator.prepare(&requests);
//! let outcome = simulator.run(&prepared);
//! assert_eq!(outcome.records.len(), 2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The systolic-array NPU performance model (re-export of [`npu_sim`]).
pub mod npu {
    pub use npu_sim::*;
}

/// The DNN layer IR and model zoo (re-export of [`dnn_models`]).
pub mod models {
    pub use dnn_models::*;
}

/// Inference-time prediction (re-export of [`prema_predictor`]).
pub mod predictor {
    pub use prema_predictor::*;
}

/// Preemption mechanisms, scheduling policies and the multi-task engine
/// (re-export of [`prema_core`]).
pub mod scheduler {
    pub use prema_core::*;
}

/// Workload generation (re-export of [`prema_workload`]).
pub mod workload {
    pub use prema_workload::*;
}

/// Multi-program metrics (re-export of [`prema_metrics`]).
pub mod metrics {
    pub use prema_metrics::*;
}

/// The multi-NPU cluster serving layer (re-export of [`prema_cluster`]).
pub mod cluster {
    pub use prema_cluster::*;
}

pub use dnn_models::{ModelKind, SeqSpec};
pub use npu_sim::{Cycles, NpuConfig};
pub use prema_cluster::{
    ClusterConfig, ClusterMetrics, ClusterOutcome, ClusterSimulator, DispatchPolicy,
    MigrationConfig, MigrationRecord, OnlineClusterConfig, OnlineClusterSimulator,
    OnlineDispatchPolicy, OnlineOutcome,
};
pub use prema_core::{
    NpuSimulator, OutcomeSummary, PolicyKind, PreemptionMechanism, PreemptionMode, PreparedTask,
    Priority, ResidentTask, SchedulerConfig, SimOutcome, SimSession, StepOutcome, TaskId,
    TaskRecord, TaskRequest,
};
pub use prema_metrics::{MultiTaskMetrics, TaskOutcome};
pub use prema_predictor::AnalyticalPredictor;
