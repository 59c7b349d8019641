//! Order statistics over host timings, and the process's own memory figures
//! from `/proc/self/status`.

/// The median of `values` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentiles a tail is reported at, highest first, in tenths of a
/// percent (999 is the 99.9th percentile).
const TAIL_LADDER_PERMILLE: [u64; 4] = [999, 990, 900, 500];

/// The highest percentile of the ladder (99.9, 99, 90, 50) that still has
/// at least ten of `samples` beyond it, in tenths of a percent; `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_permille(samples: usize) -> Option<u64> {
    let n = samples as u64;
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&q| n * (1000 - q) / 1000 >= 10)
}

/// The nearest-rank percentile of `values` at `permille` tenths of a
/// percent; `None` for an empty slice.
pub fn percentile_permille(values: &[f64], permille: u64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    let rank = (n * permille).div_ceil(1000).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// The value of a `kB` line such as `VmHWM:   123456 kB` in the text of a
/// `/proc/<pid>/status` file, in KiB.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// This process's `key` line of `/proc/self/status` (`VmHWM` is the peak
/// resident set, `VmRSS` the current one), in MiB.
pub fn self_status_mib(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status_kib(&status, key)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(7000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_permille(&values, 500), Some(500.0));
        assert_eq!(percentile_permille(&values, 990), Some(990.0));
        // Exactly ten samples lie beyond the 99th percentile of 1000.
        let beyond = values.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, 10);
        assert_eq!(percentile_permille(&[7.0], 990), Some(7.0));
        assert_eq!(percentile_permille(&[], 500), None);
    }

    #[test]
    fn parses_proc_status_lines() {
        let status = "Name:\thostbench\nVmPeak:\t 1049000 kB\nVmHWM:\t  968704 kB\n\
                      VmRSS:\t   20480 kB\nThreads:\t1\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(968_704));
        assert_eq!(status_kib(status, "VmRSS"), Some(20_480));
        // A key must match the whole field name, and carry a kB unit.
        assert_eq!(status_kib(status, "VmHW"), None);
        assert_eq!(status_kib(status, "Threads"), None);
        assert_eq!(status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn reads_this_process_status() {
        let hwm = self_status_mib("VmHWM").expect("Linux exposes VmHWM");
        let rss = self_status_mib("VmRSS").expect("Linux exposes VmRSS");
        assert!(hwm > 0.0 && rss > 0.0 && hwm >= rss);
    }
}
