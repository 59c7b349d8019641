//! Multi-tasked DNN workload construction (Section III of the PREMA paper)
//! and the synthetic characterization data the reproduction substitutes for
//! the paper's proprietary profiling sources.
//!
//! * [`generator`] — the Section III methodology: randomly select N inference
//!   tasks among the eight evaluation DNNs, dispatch them at uniformly random
//!   times, and assign each a random low/medium/high priority.
//! * [`arrivals`] — open-loop arrival processes (Poisson, bursty on/off,
//!   diurnal-trace) that stream requests over a configurable duration with a
//!   per-priority rate mix, feeding the multi-NPU cluster serving layer.
//! * [`faults`] — seeded node-fault processes (crash / freeze / degrade
//!   renewal chains per node) whose schedules drive the cluster's
//!   fault-injection, straggler and recovery machinery.
//! * [`seqlen`] — synthetic input→output sequence-length characterization for
//!   the seq2seq applications (the Figure 9 substitution), producing both the
//!   profiled sample sets that feed [`prema_predictor::SeqLenTable`] and the
//!   per-request actual output lengths.
//! * [`prepare`] — turns a workload specification into the
//!   [`prema_core::PreparedTask`]s the engine consumes, attaching predictor
//!   estimates.
//! * [`colocation`] — the Figure 1 co-location workload (GoogLeNet + ResNet
//!   request streams).
//! * [`microbench`] — the two-task preemption microbenchmarks of Figures 5
//!   and 6 (uniform-random preemption points, all models × batch sizes).
//!
//! # Example
//!
//! ```
//! use prema_workload::generator::{WorkloadConfig, generate_workload};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let spec = generate_workload(&WorkloadConfig::paper_default(), &mut rng);
//! assert_eq!(spec.requests.len(), 8);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod colocation;
pub mod faults;
pub mod generator;
pub mod microbench;
pub mod prepare;
pub mod seqlen;

pub use arrivals::{generate_open_loop, ArrivalProcess, OpenLoopConfig};
pub use faults::{
    FaultKind, FaultProcess, FaultSchedule, FaultScheduleError, LinkFault, LinkFaultKind,
    LinkFaultProcess, NodeFault,
};
pub use generator::{generate_workload, WorkloadConfig, WorkloadSpec};
pub use prepare::{prepare_workload, PreparedWorkload};
pub use seqlen::SeqLenCharacterization;
