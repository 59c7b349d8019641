//! Percentile / tail-latency statistics (Figure 14 of the PREMA paper).

use serde::{Deserialize, Serialize};

/// Computes the `p`-th percentile (0.0–100.0) of `values` using linear
/// interpolation between closest ranks.
///
/// Returns `None` when `values` is empty.
///
/// ```
/// use prema_metrics::percentile;
///
/// let latencies = vec![1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&latencies, 50.0), Some(3.0));
/// assert_eq!(percentile(&latencies, 100.0), Some(5.0));
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    Some(sorted[lower] * (1.0 - weight) + sorted[upper] * weight)
}

/// [`percentile`] by selection: the same rank and interpolation, bit for
/// bit, but computed with one in-place `select_nth_unstable_by` over a
/// caller-owned buffer instead of copying and fully sorting it. `values`
/// is left permuted.
///
/// Returns `None` when `values` is empty.
///
/// ```
/// use prema_metrics::{percentile, percentile_in_place};
///
/// let latencies = vec![5.0, 1.0, 4.0, 2.0, 3.0];
/// let mut scratch = latencies.clone();
/// assert_eq!(percentile_in_place(&mut scratch, 99.0), percentile(&latencies, 99.0));
/// ```
pub fn percentile_in_place(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.len() == 1 {
        return Some(values[0]);
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("latencies must not be NaN");
    let rank = (p / 100.0) * (values.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    let (_, &mut at_lower, above) = values.select_nth_unstable_by(lower, cmp);
    // Everything after the selected element is >= it, so the next order
    // statistic is the minimum of that tail.
    let at_upper = if upper == lower {
        at_lower
    } else {
        above
            .iter()
            .copied()
            .min_by(cmp)
            .expect("upper rank is in range")
    };
    Some(at_lower * (1.0 - weight) + at_upper * weight)
}

/// A summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Minimum observed value.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile — the tail-latency metric of Figure 14.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl Percentiles {
    /// Summarizes a latency distribution.
    ///
    /// Returns `None` when `values` is empty.
    pub fn summarize(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(Percentiles {
            min,
            p50: percentile(values, 50.0)?,
            p95: percentile(values, 95.0)?,
            p99: percentile(values, 99.0)?,
            max,
            mean: values.iter().sum::<f64>() / values.len() as f64,
            count: values.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_returns_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert!(Percentiles::summarize(&[]).is_none());
    }

    #[test]
    fn single_value_is_every_percentile() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        let s = Percentiles::summarize(&[7.0]).unwrap();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn single_sample_summary_is_the_sample_everywhere() {
        let s = Percentiles::summarize(&[42.0]).unwrap();
        assert_eq!(
            (s.min, s.p50, s.p95, s.p99, s.max, s.mean, s.count),
            (42.0, 42.0, 42.0, 42.0, 42.0, 42.0, 1)
        );
    }

    #[test]
    fn constant_distribution_has_flat_percentiles() {
        let values = vec![5.0; 10];
        for p in [0.0, 37.5, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&values, p), Some(5.0));
        }
    }

    #[test]
    fn interpolation_between_ranks() {
        let values = vec![10.0, 20.0];
        assert_eq!(percentile(&values, 50.0), Some(15.0));
        assert_eq!(percentile(&values, 25.0), Some(12.5));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 100.0), Some(5.0));
    }

    #[test]
    fn p95_is_near_the_top_of_the_distribution() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let p95 = percentile(&values, 95.0).unwrap();
        assert!(p95 > 94.0 && p95 < 97.0);
    }

    #[test]
    fn summary_fields_are_consistent() {
        let values: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        let s = Percentiles::summarize(&values).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert!(s.p50 < s.p95 && s.p95 < s.p99);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.count, 1000);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 150.0);
    }
}
