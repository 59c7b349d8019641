//! PREMA: preemptible-NPU multi-task scheduling.
//!
//! This crate is the paper's primary contribution rebuilt as a library:
//!
//! * **Preemption mechanisms** ([`preemption`]) — CHECKPOINT, KILL and DRAIN
//!   (Section IV), plus the dynamic mechanism selection of Algorithm 3.
//! * **The SRAM cost of the inference task context table**
//!   ([`context_table`], Figure 4 and Section VI-F).
//! * **Scheduling policies** ([`policy`]) — FCFS, RRB, HPF, TOKEN, SJF and
//!   the token-based predictive PREMA policy (Algorithm 2), one
//!   [`PolicyKind::select`] arm each.
//! * **The multi-task NPU simulation engine** ([`engine`]) — a discrete-event
//!   simulator that executes compiled [`plan::ExecutionPlan`]s under a
//!   [`config::SchedulerConfig`], producing per-task records from which
//!   ANTT / STP / fairness / SLA metrics are computed.
//!
//! # Example: PREMA vs. the NP-FCFS baseline
//!
//! ```
//! use npu_sim::NpuConfig;
//! use dnn_models::ModelKind;
//! use prema_core::{NpuSimulator, SchedulerConfig, TaskRequest, TaskId, Priority};
//! use npu_sim::Cycles;
//!
//! let npu = NpuConfig::paper_default();
//! let requests = vec![
//!     TaskRequest::new(TaskId(0), ModelKind::CnnVggNet),
//!     TaskRequest::new(TaskId(1), ModelKind::CnnAlexNet)
//!         .with_priority(Priority::High)
//!         .with_arrival(Cycles::new(100_000)),
//! ];
//!
//! let baseline = NpuSimulator::new(npu.clone(), SchedulerConfig::np_fcfs());
//! let prema = NpuSimulator::new(npu, SchedulerConfig::paper_default());
//! let prepared = baseline.prepare(&requests);
//!
//! let base = baseline.run(&prepared);
//! let ours = prema.run(&prepared);
//! assert!(ours.antt() <= base.antt() + 1e-9);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod context_table;
pub mod engine;
pub mod plan;
pub mod policy;
pub mod preemption;
pub mod task;
pub mod trace;

pub use config::{PolicyKind, PreemptionMode, SchedulerConfig};
pub use engine::{
    DispatchSignals, EngineError, NpuSimulator, OutcomeSummary, PreparedTask, ResidentTask,
    SalvagedTask, SimOutcome, SimSession, StepOutcome, TaskRecord,
};
pub use plan::{ExecutionPlan, ProgressCursor};
pub use policy::TaskView;
pub use preemption::PreemptionMechanism;
pub use task::{Priority, TaskId, TaskRequest, TaskState};
pub use trace::{
    CandidateScore, CandidateSet, NullSink, TraceEvent, TraceSink, VecSink, MAX_TRACE_CANDIDATES,
};
