//! Open-loop arrival processes for the cluster serving layer.
//!
//! The Section III workload dispatches a *fixed batch* of tasks inside a
//! finite window — the right methodology for reproducing the paper's
//! single-NPU figures, but not for characterizing a serving system under
//! sustained load. This module provides the standard open-loop alternative:
//! requests are *streamed* over a configurable duration by a stochastic
//! arrival process that does not react to the system's state (offered load
//! is fixed, as in server/HPC sustained-throughput characterization).
//!
//! Three processes are implemented:
//!
//! * [`ArrivalProcess::Poisson`] — homogeneous Poisson arrivals (i.i.d.
//!   exponential inter-arrival times), the memoryless baseline.
//! * [`ArrivalProcess::Bursty`] — a Markov-modulated on/off (interrupted
//!   Poisson) process: exponential on/off sojourn times, Poisson arrivals
//!   at the on-rate while on, silence while off. Same mean rate as a
//!   Poisson process of matching intensity, far heavier short-term bursts.
//! * [`ArrivalProcess::Diurnal`] — a deterministic-trace-like process whose
//!   instantaneous rate follows a raised-cosine day curve between a trough
//!   and a peak over one period, sampled by Lewis–Shedler thinning.
//!
//! Per-request fields (model, batch, actual sequence lengths) are drawn by
//! the same shared helper as the finite-window generator; priorities come
//! from a configurable per-priority rate mix instead of a uniform pool.
//!
//! [`generate_open_loop`] materializes the whole window at once; the
//! closed-loop drivers take the prepared stream as one slice.
//!
//! All generation is a pure function of the seeded RNG, so a cluster sweep
//! replaying the same seed sees bit-identical request streams.

use rand::Rng;
use serde::{Deserialize, Serialize};

use dnn_models::{ModelKind, ALL_EVAL_MODELS};
use npu_sim::NpuConfig;
use prema_core::{Priority, TaskId};

use crate::generator::{sample_request, WorkloadSpec};

/// Floor on sampled exponential gaps, in milliseconds. `-ln(1 - u)` is zero
/// when the RNG returns exactly `u == 0`; flooring the gap keeps every loop
/// strictly advancing without measurably distorting the distribution.
const MIN_GAP_MS: f64 = 1e-9;

/// An open-loop arrival process: the distribution of request arrival times
/// over the generation window. Rates are in requests per millisecond.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrival rate (requests per millisecond).
        rate_per_ms: f64,
    },
    /// Markov-modulated on/off (interrupted Poisson) arrivals: the process
    /// alternates between an *on* state with Poisson arrivals at
    /// `on_rate_per_ms` and a silent *off* state; both sojourn times are
    /// exponential.
    Bursty {
        /// Arrival rate while the source is on (requests per millisecond).
        on_rate_per_ms: f64,
        /// Mean duration of an on (burst) period, in milliseconds.
        mean_on_ms: f64,
        /// Mean duration of an off (silent) period, in milliseconds.
        mean_off_ms: f64,
    },
    /// Diurnal trace: the instantaneous rate follows a raised-cosine curve
    /// from `trough_rate_per_ms` (at the start of each period) up to
    /// `peak_rate_per_ms` (mid-period) and back, sampled by thinning.
    Diurnal {
        /// Rate at the bottom of the day curve (requests per millisecond).
        trough_rate_per_ms: f64,
        /// Rate at the top of the day curve (requests per millisecond).
        peak_rate_per_ms: f64,
        /// Length of one full day curve, in milliseconds.
        period_ms: f64,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |value: f64, what: &str| -> Result<(), String> {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{what} must be positive and finite"));
            }
            Ok(())
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_ms } => positive(rate_per_ms, "Poisson rate"),
            ArrivalProcess::Bursty {
                on_rate_per_ms,
                mean_on_ms,
                mean_off_ms,
            } => {
                positive(on_rate_per_ms, "bursty on-rate")?;
                positive(mean_on_ms, "mean on duration")?;
                positive(mean_off_ms, "mean off duration")
            }
            ArrivalProcess::Diurnal {
                trough_rate_per_ms,
                peak_rate_per_ms,
                period_ms,
            } => {
                if !trough_rate_per_ms.is_finite() || trough_rate_per_ms < 0.0 {
                    return Err("diurnal trough rate must be non-negative and finite".into());
                }
                positive(peak_rate_per_ms, "diurnal peak rate")?;
                if peak_rate_per_ms < trough_rate_per_ms {
                    return Err("diurnal peak rate must be at least the trough rate".into());
                }
                positive(period_ms, "diurnal period")
            }
        }
    }

    /// Samples the process's arrival times inside `[0, duration_ms)`, in
    /// ascending order.
    pub fn arrival_times<R: Rng + ?Sized>(&self, duration_ms: f64, rng: &mut R) -> Vec<f64> {
        let mut times = Vec::new();
        match *self {
            ArrivalProcess::Poisson { rate_per_ms } => {
                let mean_gap = 1.0 / rate_per_ms;
                let mut t = exp_sample(mean_gap, rng);
                while t < duration_ms {
                    times.push(t);
                    t += exp_sample(mean_gap, rng);
                }
            }
            ArrivalProcess::Bursty {
                on_rate_per_ms,
                mean_on_ms,
                mean_off_ms,
            } => {
                let mean_gap = 1.0 / on_rate_per_ms;
                let mut t = 0.0;
                let mut on = true;
                while t < duration_ms {
                    if on {
                        let burst_end = (t + exp_sample(mean_on_ms, rng)).min(duration_ms);
                        let mut next = t + exp_sample(mean_gap, rng);
                        while next < burst_end {
                            times.push(next);
                            next += exp_sample(mean_gap, rng);
                        }
                        t = burst_end;
                    } else {
                        t += exp_sample(mean_off_ms, rng);
                    }
                    on = !on;
                }
            }
            ArrivalProcess::Diurnal {
                trough_rate_per_ms,
                peak_rate_per_ms,
                period_ms,
            } => {
                // Lewis–Shedler thinning: candidate arrivals at the peak
                // rate, each accepted with probability rate(t) / peak.
                let mean_gap = 1.0 / peak_rate_per_ms;
                let mut t = exp_sample(mean_gap, rng);
                while t < duration_ms {
                    let rate = diurnal_rate(trough_rate_per_ms, peak_rate_per_ms, period_ms, t);
                    if rng.gen::<f64>() < rate / peak_rate_per_ms {
                        times.push(t);
                    }
                    t += exp_sample(mean_gap, rng);
                }
            }
        }
        times
    }
}

/// The diurnal instantaneous rate at time `t_ms`: a raised cosine from the
/// trough (period start) to the peak (mid-period) and back.
fn diurnal_rate(trough: f64, peak: f64, period_ms: f64, t_ms: f64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * (t_ms / period_ms);
    trough + (peak - trough) * 0.5 * (1.0 - phase.cos())
}

/// Draws one exponential gap with the given mean via inverse-CDF sampling.
fn exp_sample<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() * mean).max(MIN_GAP_MS)
}

/// Configuration of an open-loop request stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Length of the generation window, in milliseconds. Requests arrive in
    /// `[0, duration_ms)`; the simulation then runs until all are served.
    pub duration_ms: f64,
    /// The pool of DNNs requests are drawn from (uniformly).
    pub models: Vec<ModelKind>,
    /// The batch sizes requests are drawn from (uniformly).
    pub batch_sizes: Vec<u64>,
    /// Per-priority rate mix: each arrival is assigned a priority with
    /// probability proportional to its weight (weights need not sum to 1).
    pub priority_mix: Vec<(Priority, f64)>,
}

impl OpenLoopConfig {
    /// A Poisson stream over the eight evaluation DNNs at batch 1 with a
    /// uniform low/medium/high priority mix — the cluster sweep's default.
    pub fn poisson(rate_per_ms: f64, duration_ms: f64) -> Self {
        OpenLoopConfig {
            process: ArrivalProcess::Poisson { rate_per_ms },
            duration_ms,
            models: ALL_EVAL_MODELS.to_vec(),
            batch_sizes: vec![1],
            priority_mix: vec![
                (Priority::Low, 1.0),
                (Priority::Medium, 1.0),
                (Priority::High, 1.0),
            ],
        }
    }

    /// Replaces the arrival process, keeping the request mix.
    pub fn with_process(mut self, process: ArrivalProcess) -> Self {
        self.process = process;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.process.validate()?;
        if !self.duration_ms.is_finite() || self.duration_ms <= 0.0 {
            return Err("duration must be positive and finite".into());
        }
        if self.models.is_empty() {
            return Err("model pool must not be empty".into());
        }
        if self.batch_sizes.is_empty() || self.batch_sizes.contains(&0) {
            return Err("batch sizes must be non-empty and non-zero".into());
        }
        if self.priority_mix.is_empty() {
            return Err("priority mix must not be empty".into());
        }
        if self
            .priority_mix
            .iter()
            .any(|(_, w)| !w.is_finite() || *w < 0.0)
        {
            return Err("priority weights must be non-negative and finite".into());
        }
        if self.priority_mix.iter().map(|(_, w)| w).sum::<f64>() <= 0.0 {
            return Err("priority weights must not all be zero".into());
        }
        Ok(())
    }
}

/// Draws a priority from the weighted mix.
fn pick_priority<R: Rng + ?Sized>(
    mix: &[(Priority, f64)],
    total_weight: f64,
    rng: &mut R,
) -> Priority {
    let mut draw = rng.gen::<f64>() * total_weight;
    for &(priority, weight) in mix {
        if draw < weight {
            return priority;
        }
        draw -= weight;
    }
    mix.last().expect("priority mix is non-empty").0
}

/// Generates one open-loop request stream: arrival times from the configured
/// process, per-request fields from the same shared sampler as the
/// finite-window generator, priorities from the weighted mix. Requests are
/// returned in arrival order with dense IDs `0..n`.
///
/// Every arrival time is drawn first, as one contiguous RNG consumption;
/// each request's fields (model, batch, priority, sequence lengths) are then
/// sampled in arrival order.
///
/// Arrival times are converted to cycles against the Table I NPU frequency,
/// like the finite-window generator, so streams are reproducible
/// independent of the simulated NPU configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn generate_open_loop<R: Rng + ?Sized>(config: &OpenLoopConfig, rng: &mut R) -> WorkloadSpec {
    if let Err(msg) = config.validate() {
        panic!("invalid OpenLoopConfig: {msg}");
    }
    let total_weight: f64 = config.priority_mix.iter().map(|(_, w)| w).sum();
    let timeline = NpuConfig::paper_default();
    let times = config.process.arrival_times(config.duration_ms, rng);
    let requests = times
        .into_iter()
        .zip(0..)
        .map(|(t_ms, id)| {
            let arrival = timeline.millis_to_cycles(t_ms);
            sample_request(
                TaskId(id),
                &config.models,
                &config.batch_sizes,
                rng,
                |rng| pick_priority(&config.priority_mix, total_weight, rng),
                |_| arrival,
            )
        })
        .collect();
    WorkloadSpec { requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_sim::Cycles;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn count_over(process: ArrivalProcess, duration_ms: f64, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        process.arrival_times(duration_ms, &mut rng).len()
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        let process = ArrivalProcess::Poisson { rate_per_ms: 2.0 };
        let expected = 2.0 * 2000.0;
        let mut total = 0usize;
        for seed in 0..4 {
            total += count_over(process, 2000.0, seed);
        }
        let mean = total as f64 / 4.0;
        assert!(
            (mean - expected).abs() < 0.1 * expected,
            "mean count {mean} vs expected {expected}"
        );
    }

    #[test]
    fn bursty_matches_its_duty_cycled_mean_rate() {
        let process = ArrivalProcess::Bursty {
            on_rate_per_ms: 4.0,
            mean_on_ms: 5.0,
            mean_off_ms: 15.0,
        };
        // 4 per ms while on, on for 5 of every 20 ms on average: 1 per ms.
        let expected = 4.0 * 5.0 / (5.0 + 15.0) * 4000.0;
        let mut total = 0usize;
        for seed in 0..4 {
            total += count_over(process, 4000.0, seed);
        }
        let mean = total as f64 / 4.0;
        assert!(
            (mean - expected).abs() < 0.25 * expected,
            "mean count {mean} vs expected {expected}"
        );
    }

    #[test]
    fn diurnal_rate_swings_between_trough_and_peak() {
        let (trough, peak, period) = (0.5, 4.0, 1000.0);
        assert!((diurnal_rate(trough, peak, period, 0.0) - trough).abs() < 1e-12);
        assert!((diurnal_rate(trough, peak, period, 500.0) - peak).abs() < 1e-9);
        let process = ArrivalProcess::Diurnal {
            trough_rate_per_ms: trough,
            peak_rate_per_ms: peak,
            period_ms: period,
        };
        // Arrivals concentrate around the mid-period peak.
        let mut rng = StdRng::seed_from_u64(9);
        let times = process.arrival_times(period, &mut rng);
        let mid = times.iter().filter(|t| (250.0..750.0).contains(*t)).count();
        assert!(
            mid as f64 > 0.55 * times.len() as f64,
            "{mid} of {} arrivals in the peak half",
            times.len()
        );
    }

    #[test]
    fn arrival_times_are_sorted_and_in_window() {
        for process in [
            ArrivalProcess::Poisson { rate_per_ms: 1.5 },
            ArrivalProcess::Bursty {
                on_rate_per_ms: 6.0,
                mean_on_ms: 3.0,
                mean_off_ms: 9.0,
            },
            ArrivalProcess::Diurnal {
                trough_rate_per_ms: 0.2,
                peak_rate_per_ms: 3.0,
                period_ms: 50.0,
            },
        ] {
            let mut rng = StdRng::seed_from_u64(17);
            let times = process.arrival_times(120.0, &mut rng);
            assert!(!times.is_empty());
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.iter().all(|t| (0.0..120.0).contains(t)));
        }
    }

    #[test]
    fn open_loop_generation_is_deterministic_and_ordered() {
        let config = OpenLoopConfig::poisson(1.0, 60.0);
        let a = generate_open_loop(&config, &mut StdRng::seed_from_u64(5));
        let b = generate_open_loop(&config, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = generate_open_loop(&config, &mut StdRng::seed_from_u64(6));
        assert_ne!(a, c);
        // Dense IDs in arrival order, arrivals within the window.
        let window = NpuConfig::paper_default().millis_to_cycles(60.0);
        for (i, request) in a.requests.iter().enumerate() {
            assert_eq!(request.id.0, i as u64);
            assert!(request.arrival < window);
            if i > 0 {
                assert!(request.arrival >= a.requests[i - 1].arrival);
            }
        }
    }

    #[test]
    fn priority_mix_skews_the_stream() {
        let mut config = OpenLoopConfig::poisson(2.0, 500.0);
        config.priority_mix = vec![(Priority::Low, 1.0), (Priority::High, 9.0)];
        let spec = generate_open_loop(&config, &mut StdRng::seed_from_u64(8));
        let high = spec.with_priority(Priority::High).len();
        let low = spec.with_priority(Priority::Low).len();
        assert!(spec.with_priority(Priority::Medium).is_empty());
        assert!(
            high > 5 * low.max(1),
            "high {high} should dominate low {low} under a 9:1 mix"
        );
    }

    #[test]
    fn rnn_requests_carry_sampled_sequences() {
        let spec = generate_open_loop(
            &OpenLoopConfig::poisson(2.0, 100.0),
            &mut StdRng::seed_from_u64(3),
        );
        assert!(spec.requests.iter().any(|r| r.model.is_rnn()));
        for request in &spec.requests {
            if request.model.is_rnn() {
                assert!(request.seq.input_len > 0 && request.seq.output_len > 0);
            }
            assert!(request.arrival >= Cycles::ZERO);
        }
    }

    #[test]
    fn validation_errors_cover_each_field() {
        let base = OpenLoopConfig::poisson(1.0, 50.0);
        assert!(base.validate().is_ok());
        let cases = [
            OpenLoopConfig {
                process: ArrivalProcess::Poisson { rate_per_ms: 0.0 },
                ..base.clone()
            },
            OpenLoopConfig {
                process: ArrivalProcess::Bursty {
                    on_rate_per_ms: 1.0,
                    mean_on_ms: 0.0,
                    mean_off_ms: 1.0,
                },
                ..base.clone()
            },
            OpenLoopConfig {
                process: ArrivalProcess::Diurnal {
                    trough_rate_per_ms: 2.0,
                    peak_rate_per_ms: 1.0,
                    period_ms: 10.0,
                },
                ..base.clone()
            },
            OpenLoopConfig {
                duration_ms: 0.0,
                ..base.clone()
            },
            OpenLoopConfig {
                models: vec![],
                ..base.clone()
            },
            OpenLoopConfig {
                batch_sizes: vec![0],
                ..base.clone()
            },
            OpenLoopConfig {
                priority_mix: vec![],
                ..base.clone()
            },
            OpenLoopConfig {
                priority_mix: vec![(Priority::Low, 0.0)],
                ..base.clone()
            },
            OpenLoopConfig {
                priority_mix: vec![(Priority::Low, -1.0)],
                ..base.clone()
            },
        ];
        for case in cases {
            assert!(case.validate().is_err(), "{case:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid OpenLoopConfig")]
    fn invalid_config_rejected() {
        let config = OpenLoopConfig {
            duration_ms: -1.0,
            ..OpenLoopConfig::poisson(1.0, 10.0)
        };
        let _ = generate_open_loop(&config, &mut StdRng::seed_from_u64(1));
    }
}
