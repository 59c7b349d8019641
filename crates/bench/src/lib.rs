//! Experiment harness for the PREMA reproduction.
//!
//! Every table and figure of the paper's evaluation has a module here that
//! regenerates it: a workload generator, the scheduler configurations under
//! comparison, and a reporting function that prints the same rows/series the
//! paper plots. The `experiments` binary dispatches to these modules.
//!
//! The `throughput` binary is the bench driver: one table-driven CLI over
//! the suite and the cluster sweeps, one report writer and one
//! `--check-baseline` whose gates are data. It builds every report with
//! [`json`] and reads every committed baseline back with [`json::parse`].
//! The fault, migration and partition sweeps share one paired A/B driver,
//! [`paired::run_paired`]: each supplies only its levels, its fault plan,
//! its arm pair, its cell metrics and its wins rule.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`tables`] | Table I (NPU config) and Table II (scheduler config) |
//! | [`fig01`] | Figure 1 — co-location throughput vs latency |
//! | [`fig05_06`] | Figures 5 & 6 — preemption mechanism latency / wait / STP / NTT |
//! | [`fig07`] | Figure 7 — per-layer activation density |
//! | [`fig09`] | Figure 9 — sequence-length characterization |
//! | [`fig10`] | Figure 10 — MACs vs execution time |
//! | [`suite`], [`fig11_15`] | Figures 11, 12, 13, 15 — policy comparisons |
//! | [`fig14`] | Figure 14 — high-priority tail latency |
//! | [`prediction`] | Sections VI-A / VI-D — prediction accuracy vs oracle |
//! | [`overhead`] | Section VI-F — context-table SRAM overhead |
//! | [`sensitivity`] | Section VI-E — quantum / token / batch sensitivity |
//! | [`cluster`] | Beyond the paper: multi-NPU cluster serving load sweep |
//! | [`scale`] | Beyond the paper: closed-loop co-simulation scaling sweep |
//! | [`paired`] | Beyond the paper: the paired A/B driver behind the three sweeps below |
//! | [`faults`] | Beyond the paper: checkpoint recovery vs restart-from-zero under node faults |
//! | [`migration`] | Beyond the paper: deadline-triggered checkpoint migration vs riding out stragglers |
//! | [`partition`] | Beyond the paper: redirect-with-backoff custody vs abandon-on-failure under link faults |
//! | [`trace`] | Perfetto trace export of one traced closed-loop scenario |
//! | [`json`] | The JSON value type, writer and parser behind every report and baseline |

pub mod cluster;
pub mod faults;
pub mod fig01;
pub mod fig05_06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11_15;
pub mod fig14;
pub mod json;
pub mod migration;
pub mod overhead;
pub mod paired;
pub mod partition;
pub mod prediction;
pub mod scale;
pub mod sensitivity;
pub mod suite;
pub mod tables;
pub mod trace;

pub use cluster::{run_cluster_sweep, ClusterCell, ClusterSweepOptions};
pub use suite::{ConfigResult, SuiteOptions};
