//! Multi-tasked workload generation following the Section III methodology:
//! randomly select N inference tasks among the eight evaluation DNNs, assume
//! a uniform random distribution of dispatch times, and assign each task a
//! random priority among low / medium / high.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use dnn_models::{ModelKind, SeqSpec, ALL_EVAL_MODELS};
use npu_sim::{Cycles, NpuConfig};
use prema_core::{Priority, TaskId, TaskRequest};

use crate::seqlen::{sample_input_len, sample_output_len};

/// Configuration of the workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of co-scheduled inference tasks (the paper's evaluation uses 8).
    pub task_count: usize,
    /// The pool of DNNs tasks are drawn from.
    pub models: Vec<ModelKind>,
    /// The batch sizes tasks are drawn from (uniformly).
    pub batch_sizes: Vec<u64>,
    /// The priorities tasks are drawn from (uniformly).
    pub priorities: Vec<Priority>,
    /// Dispatch-time window in milliseconds: every task arrives at a
    /// uniformly random time inside `[0, dispatch_window_ms)`.
    pub dispatch_window_ms: f64,
}

impl WorkloadConfig {
    /// The Section VI workload: 8 tasks drawn from the eight evaluation DNNs,
    /// uniform random dispatch over a 20 ms window, random priorities, batch
    /// size 1.
    pub fn paper_default() -> Self {
        WorkloadConfig {
            task_count: 8,
            models: ALL_EVAL_MODELS.to_vec(),
            batch_sizes: vec![1],
            priorities: Priority::ALL.to_vec(),
            dispatch_window_ms: 20.0,
        }
    }

    /// Same as [`WorkloadConfig::paper_default`] but with mixed batch sizes
    /// (1 / 4 / 16), used by the batch-size sensitivity study.
    pub fn mixed_batch() -> Self {
        WorkloadConfig {
            batch_sizes: vec![1, 4, 16],
            ..WorkloadConfig::paper_default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.task_count == 0 {
            return Err("task count must be non-zero".into());
        }
        if self.models.is_empty() {
            return Err("model pool must not be empty".into());
        }
        if self.batch_sizes.is_empty() || self.batch_sizes.contains(&0) {
            return Err("batch sizes must be non-empty and non-zero".into());
        }
        if self.priorities.is_empty() {
            return Err("priority pool must not be empty".into());
        }
        if self.dispatch_window_ms.is_nan() || self.dispatch_window_ms < 0.0 {
            return Err("dispatch window must be non-negative".into());
        }
        Ok(())
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper_default()
    }
}

/// A generated multi-tasked workload: the requests to dispatch to one NPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The generated requests, in task-ID order.
    pub requests: Vec<TaskRequest>,
}

impl WorkloadSpec {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests that carry the given priority.
    pub fn with_priority(&self, priority: Priority) -> Vec<&TaskRequest> {
        self.requests
            .iter()
            .filter(|r| r.priority == priority)
            .collect()
    }
}

/// Samples a dispatch time uniformly inside `[0, window_cycles)`.
///
/// A zero-cycle window degenerates to "everything arrives at time zero",
/// but the draw still goes through the RNG so downstream samples stay
/// aligned across window sizes. (The former inline special case skipped
/// the draw when the window was zero, shifting every later sample of the
/// same request relative to a non-zero window.)
pub(crate) fn sample_window_arrival<R: Rng + ?Sized>(window_cycles: u64, rng: &mut R) -> Cycles {
    Cycles::new(rng.gen_range(0..window_cycles.max(1)))
}

/// Samples the per-request fields shared by the finite-window generator and
/// the open-loop arrival processes ([`crate::arrivals`]): model and batch
/// from their pools, then priority, then arrival, then (for RNNs) the actual
/// sequence lengths. Priority and arrival come from the caller via closures
/// so each path keeps its own distribution while the RNG draw order stays
/// identical — the finite-window stream is bit-compatible with the
/// pre-refactor generator.
pub(crate) fn sample_request<R: Rng + ?Sized>(
    id: TaskId,
    models: &[ModelKind],
    batch_sizes: &[u64],
    rng: &mut R,
    pick_priority: impl FnOnce(&mut R) -> Priority,
    pick_arrival: impl FnOnce(&mut R) -> Cycles,
) -> TaskRequest {
    let model = *models.choose(rng).expect("model pool is non-empty");
    let batch = *batch_sizes.choose(rng).expect("batch pool is non-empty");
    let priority = pick_priority(rng);
    let arrival = pick_arrival(rng);
    let seq = if model.is_rnn() {
        let input_len = sample_input_len(model, rng);
        SeqSpec::new(input_len, sample_output_len(model, input_len, rng))
    } else {
        SeqSpec::none()
    };
    TaskRequest::new(id, model)
        .with_batch(batch)
        .with_priority(priority)
        .with_arrival(arrival)
        .with_seq(seq)
}

/// Generates one multi-tasked workload.
///
/// The dispatch window is interpreted against the Table I NPU frequency
/// (700 MHz) so that workloads are reproducible independent of the simulated
/// NPU configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn generate_workload<R: Rng + ?Sized>(config: &WorkloadConfig, rng: &mut R) -> WorkloadSpec {
    if let Err(msg) = config.validate() {
        panic!("invalid WorkloadConfig: {msg}");
    }
    let npu = NpuConfig::paper_default();
    let window_cycles = npu.millis_to_cycles(config.dispatch_window_ms).get();
    let mut requests = Vec::with_capacity(config.task_count);
    for id in 0..config.task_count {
        requests.push(sample_request(
            TaskId(id as u64),
            &config.models,
            &config.batch_sizes,
            rng,
            |rng| {
                *config
                    .priorities
                    .choose(rng)
                    .expect("priority pool is non-empty")
            },
            |rng| sample_window_arrival(window_cycles, rng),
        ));
    }
    requests.sort_by_key(|r| r.id);
    WorkloadSpec { requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_generates_eight_tasks() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = generate_workload(&WorkloadConfig::paper_default(), &mut rng);
        assert_eq!(spec.len(), 8);
        assert!(!spec.is_empty());
        // IDs are unique and dense.
        let ids: Vec<u64> = spec.requests.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn arrivals_fall_inside_the_dispatch_window() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = WorkloadConfig::paper_default();
        let window = NpuConfig::paper_default().millis_to_cycles(config.dispatch_window_ms);
        for _ in 0..10 {
            let spec = generate_workload(&config, &mut rng);
            assert!(spec.requests.iter().all(|r| r.arrival < window));
        }
    }

    #[test]
    fn rnn_requests_carry_sequence_lengths() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = generate_workload(
            &WorkloadConfig {
                task_count: 20,
                ..WorkloadConfig::paper_default()
            },
            &mut rng,
        );
        for request in &spec.requests {
            if request.model.is_rnn() {
                assert!(request.seq.input_len > 0);
                assert!(request.seq.output_len > 0);
            } else {
                assert_eq!(request.seq, SeqSpec::none());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_workload(
            &WorkloadConfig::paper_default(),
            &mut StdRng::seed_from_u64(7),
        );
        let b = generate_workload(
            &WorkloadConfig::paper_default(),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
        let c = generate_workload(
            &WorkloadConfig::paper_default(),
            &mut StdRng::seed_from_u64(8),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn zero_window_arrivals_are_zero_without_desyncing_the_stream() {
        // A zero-length dispatch window degenerates to "everything arrives at
        // time zero" but still consumes one RNG draw per request through the
        // shared arrival helper, so the rest of each request (sequence
        // lengths in particular) matches what any non-zero window samples.
        let zero = WorkloadConfig {
            dispatch_window_ms: 0.0,
            ..WorkloadConfig::paper_default()
        };
        let spec = generate_workload(&zero, &mut StdRng::seed_from_u64(11));
        assert!(spec.requests.iter().all(|r| r.arrival == Cycles::ZERO));

        let windowed = generate_workload(
            &WorkloadConfig::paper_default(),
            &mut StdRng::seed_from_u64(11),
        );
        for (z, w) in spec.requests.iter().zip(&windowed.requests) {
            assert_eq!(z.model, w.model);
            assert_eq!(z.batch, w.batch);
            assert_eq!(z.priority, w.priority);
            assert_eq!(z.seq, w.seq);
        }
    }

    #[test]
    fn priorities_and_batches_come_from_the_pools() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = WorkloadConfig {
            task_count: 50,
            batch_sizes: vec![4, 16],
            priorities: vec![Priority::High],
            ..WorkloadConfig::paper_default()
        };
        let spec = generate_workload(&config, &mut rng);
        assert!(spec.requests.iter().all(|r| r.priority == Priority::High));
        assert!(spec.requests.iter().all(|r| r.batch == 4 || r.batch == 16));
        assert_eq!(spec.with_priority(Priority::High).len(), 50);
        assert!(spec.with_priority(Priority::Low).is_empty());
    }

    #[test]
    fn suite_produces_independent_runs() {
        let mut rng = StdRng::seed_from_u64(5);
        let first = generate_workload(&WorkloadConfig::paper_default(), &mut rng);
        let second = generate_workload(&WorkloadConfig::paper_default(), &mut rng);
        assert_ne!(first, second);
    }

    #[test]
    fn mixed_batch_preset_includes_sixteen() {
        assert!(WorkloadConfig::mixed_batch().batch_sizes.contains(&16));
        assert!(WorkloadConfig::mixed_batch().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid WorkloadConfig")]
    fn invalid_config_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = WorkloadConfig {
            task_count: 0,
            ..WorkloadConfig::paper_default()
        };
        let _ = generate_workload(&config, &mut rng);
    }

    #[test]
    fn validation_errors_cover_each_field() {
        let base = WorkloadConfig::paper_default();
        let cases = [
            WorkloadConfig {
                models: vec![],
                ..base.clone()
            },
            WorkloadConfig {
                batch_sizes: vec![],
                ..base.clone()
            },
            WorkloadConfig {
                batch_sizes: vec![0],
                ..base.clone()
            },
            WorkloadConfig {
                priorities: vec![],
                ..base.clone()
            },
            WorkloadConfig {
                dispatch_window_ms: -1.0,
                ..base.clone()
            },
        ];
        for case in cases {
            assert!(case.validate().is_err());
        }
        assert!(base.validate().is_ok());
    }
}
