//! Profile-driven output-sequence-length regression (Section V-B and
//! Figure 9 of the PREMA paper).
//!
//! For seq2seq applications (machine translation, speech recognition) the
//! number of time-unrolled decoder steps is input-data dependent, but it is
//! strongly correlated with the input sequence length, which *is* statically
//! known when a request arrives. The paper profiles each model over its
//! training/validation set once, builds a characterization graph (output
//! length as a function of input length), and stores it as a software lookup
//! table that returns the geometric mean of the profiled output lengths for a
//! given input length.
//!
//! [`SeqLenTable`] is that lookup table. It is populated from `(input_len,
//! output_len)` sample pairs — in this reproduction the samples come from the
//! synthetic characterization generators in `prema-workload`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Profile-driven lookup table predicting the time-unrolled output sequence
/// length from the input sequence length.
///
/// ```
/// use prema_predictor::SeqLenTable;
///
/// let samples = [(10, 11), (10, 13), (20, 22), (20, 26)];
/// let table = SeqLenTable::from_samples(samples);
/// assert_eq!(table.predict(10), 12); // geometric mean of {11, 13}, rounded
/// assert!(table.predict(15) >= 12 && table.predict(15) <= 24); // nearest bucket
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SeqLenTable {
    /// For each profiled input length: (sum of ln(output), sample count,
    /// min observed, max observed).
    buckets: BTreeMap<u64, Bucket>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Bucket {
    ln_sum: f64,
    count: u64,
    min: u64,
    max: u64,
}

impl SeqLenTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SeqLenTable::default()
    }

    /// Builds a table from an iterator of `(input_len, output_len)` samples.
    pub fn from_samples<I>(samples: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut table = SeqLenTable::new();
        for (input_len, output_len) in samples {
            table.record(input_len, output_len);
        }
        table
    }

    /// Records one profiled `(input_len, output_len)` observation.
    ///
    /// Observations with a zero output length are clamped to one step: a
    /// seq2seq model always emits at least the end-of-sequence token.
    pub fn record(&mut self, input_len: u64, output_len: u64) {
        let output_len = output_len.max(1);
        let bucket = self.buckets.entry(input_len).or_insert(Bucket {
            ln_sum: 0.0,
            count: 0,
            min: u64::MAX,
            max: 0,
        });
        bucket.ln_sum += (output_len as f64).ln();
        bucket.count += 1;
        bucket.min = bucket.min.min(output_len);
        bucket.max = bucket.max.max(output_len);
    }

    /// Whether the table has no samples.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Predicts the output sequence length for `input_len`: the geometric
    /// mean of the profiled output lengths at the nearest profiled input
    /// length (ties resolve to the shorter input).
    ///
    /// Returns `input_len.max(1)` when the table is empty — with no profile
    /// information the best static guess is a linear relationship.
    pub fn predict(&self, input_len: u64) -> u64 {
        let Some(bucket) = self.nearest_bucket(input_len) else {
            return input_len.max(1);
        };
        let geomean = (bucket.ln_sum / bucket.count as f64).exp();
        (geomean.round() as u64).max(1)
    }

    /// The observed (min, max) output lengths at the nearest profiled input
    /// length, if any samples exist. Useful for plotting the Figure 9 bands.
    pub fn observed_range(&self, input_len: u64) -> Option<(u64, u64)> {
        self.nearest_bucket(input_len).map(|b| (b.min, b.max))
    }

    fn nearest_bucket(&self, input_len: u64) -> Option<&Bucket> {
        if self.buckets.is_empty() {
            return None;
        }
        if let Some(bucket) = self.buckets.get(&input_len) {
            return Some(bucket);
        }
        let below = self.buckets.range(..=input_len).next_back();
        let above = self.buckets.range(input_len..).next();
        match (below, above) {
            (Some((kb, vb)), Some((ka, va))) => {
                if input_len - kb <= ka - input_len {
                    Some(vb)
                } else {
                    Some(va)
                }
            }
            (Some((_, v)), None) | (None, Some((_, v))) => Some(v),
            (None, None) => None,
        }
    }

    /// Iterates over `(input_len, predicted_output_len)` pairs for every
    /// profiled input length, i.e. the regression curve of Figure 9.
    pub fn curve(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .keys()
            .map(|&input_len| (input_len, self.predict(input_len)))
    }
}

impl FromIterator<(u64, u64)> for SeqLenTable {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        SeqLenTable::from_samples(iter)
    }
}

impl Extend<(u64, u64)> for SeqLenTable {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        for (input_len, output_len) in iter {
            self.record(input_len, output_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_falls_back_to_linear_guess() {
        let table = SeqLenTable::new();
        assert!(table.is_empty());
        assert_eq!(table.predict(17), 17);
        assert_eq!(table.predict(0), 1);
        assert_eq!(table.observed_range(5), None);
    }

    #[test]
    fn exact_bucket_uses_geometric_mean() {
        let table = SeqLenTable::from_samples([(10, 8), (10, 12), (10, 18)]);
        // geomean(8, 12, 18) = (8*12*18)^(1/3) = 12
        assert_eq!(table.predict(10), 12);
        assert_eq!(table.observed_range(10), Some((8, 18)));
    }

    #[test]
    fn nearest_bucket_is_used_for_unseen_inputs() {
        let table = SeqLenTable::from_samples([(10, 10), (20, 40)]);
        assert_eq!(table.predict(11), 10);
        assert_eq!(table.predict(19), 40);
        // Ties resolve to the lower input length.
        assert_eq!(table.predict(15), 10);
        // Out-of-range inputs clamp to the closest profiled bucket.
        assert_eq!(table.predict(1), 10);
        assert_eq!(table.predict(100), 40);
    }

    #[test]
    fn zero_outputs_are_clamped_to_one() {
        let table = SeqLenTable::from_samples([(5, 0), (5, 0)]);
        assert_eq!(table.predict(5), 1);
    }

    #[test]
    fn counting_and_extension() {
        let samples = |table: &SeqLenTable| table.buckets.values().map(|b| b.count).sum::<u64>();
        let mut table: SeqLenTable = [(1, 2), (2, 3)].into_iter().collect();
        assert_eq!(samples(&table), 2);
        assert_eq!(table.observed_range(3), Some((3, 3)), "nearest bucket is 2");
        table.extend([(1, 4), (3, 9)]);
        assert_eq!(samples(&table), 4);
        // Extending adds to an existing bucket and opens a new one.
        assert_eq!(table.observed_range(1), Some((2, 4)));
        assert_eq!(table.observed_range(3), Some((9, 9)));
    }

    #[test]
    fn curve_is_monotone_for_monotone_data() {
        let samples = (5..=50).flat_map(|i| [(i, i + 2), (i, i + 4)]);
        let table = SeqLenTable::from_samples(samples);
        let curve: Vec<_> = table.curve().collect();
        assert_eq!(curve.len(), 46);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn prediction_is_stable_under_sample_order() {
        let a = SeqLenTable::from_samples([(7, 5), (7, 9), (7, 13)]);
        let b = SeqLenTable::from_samples([(7, 13), (7, 5), (7, 9)]);
        assert_eq!(a.predict(7), b.predict(7));
    }
}
