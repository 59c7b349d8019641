//! NPU architectural configuration (Table I of the PREMA paper).

use serde::{Deserialize, Serialize};

use crate::cycles::Cycles;

/// Number of bytes per 16-bit datum (weights and activations).
pub const BYTES_PER_ELEMENT: u64 = 2;

/// Architectural parameters of the simulated NPU.
///
/// The default values ([`NpuConfig::paper_default`]) reproduce Table I of the
/// PREMA paper: a 128×128 weight-stationary systolic array clocked at
/// 700 MHz, 8 MB of on-chip activation SRAM, 4 MB of weight SRAM, eight
/// memory channels providing 358 GB/s at a 100-cycle access latency.
///
/// Construct variations with struct-update syntax and check them with
/// [`NpuConfig::validate`]:
///
/// ```
/// use npu_sim::NpuConfig;
///
/// let cfg = NpuConfig {
///     systolic_width: 64,
///     systolic_height: 64,
///     ..NpuConfig::paper_default()
/// };
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.pe_count(), 64 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuConfig {
    /// Width of the systolic array (`SW` in Algorithm 1).
    pub systolic_width: u64,
    /// Height of the systolic array (`SH` in Algorithm 1).
    pub systolic_height: u64,
    /// Depth of the accumulator queue (`ACC` in Algorithm 1): the number of
    /// output-activation columns a single `GEMM_OP` produces.
    pub accumulator_depth: u64,
    /// Operating frequency of the processing elements, in MHz.
    pub frequency_mhz: f64,
    /// On-chip unified activation buffer (UBUF) capacity in bytes.
    pub activation_sram_bytes: u64,
    /// On-chip weight buffer capacity in bytes.
    pub weight_sram_bytes: u64,
    /// Number of DRAM channels.
    pub memory_channels: u64,
    /// Aggregate off-chip memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Fixed DRAM access latency in cycles.
    pub memory_latency_cycles: u64,
    /// Number of lanes in the vector (element-wise) unit.
    pub vector_lanes: u64,
}

impl NpuConfig {
    /// The configuration of Table I in the PREMA paper.
    pub fn paper_default() -> Self {
        NpuConfig {
            systolic_width: 128,
            systolic_height: 128,
            accumulator_depth: 2048,
            frequency_mhz: 700.0,
            activation_sram_bytes: 8 * 1024 * 1024,
            weight_sram_bytes: 4 * 1024 * 1024,
            memory_channels: 8,
            memory_bandwidth_gbps: 358.0,
            memory_latency_cycles: 100,
            vector_lanes: 128,
        }
    }

    /// Total number of processing elements in the systolic array.
    pub fn pe_count(&self) -> u64 {
        self.systolic_width * self.systolic_height
    }

    /// Peak MAC throughput in operations per cycle.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.pe_count()
    }

    /// Off-chip memory bandwidth expressed in bytes per NPU cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        // GB/s -> bytes/s -> bytes/cycle.
        (self.memory_bandwidth_gbps * 1e9) / (self.frequency_mhz * 1e6)
    }

    /// Cycles needed to stream `bytes` from DRAM at full bandwidth,
    /// excluding the fixed access latency.
    pub fn streaming_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        Cycles::new((bytes as f64 / self.bytes_per_cycle()).ceil() as u64)
    }

    /// Converts a cycle count into microseconds under this configuration.
    pub fn cycles_to_micros(&self, cycles: Cycles) -> f64 {
        cycles.to_micros(self.frequency_mhz)
    }

    /// Converts a cycle count into milliseconds under this configuration.
    pub fn cycles_to_millis(&self, cycles: Cycles) -> f64 {
        cycles.to_millis(self.frequency_mhz)
    }

    /// Converts milliseconds into a cycle count under this configuration.
    pub fn millis_to_cycles(&self, millis: f64) -> Cycles {
        Cycles::from_millis(millis, self.frequency_mhz)
    }

    /// Maximum number of bytes of execution context that can ever need
    /// checkpointing: the live output activations resident in the activation
    /// SRAM (UBUF plus accumulator queue).
    pub fn max_checkpoint_bytes(&self) -> u64 {
        self.activation_sram_bytes
    }

    /// A 64-bit digest of every architectural parameter, used as the
    /// NPU-configuration component of plan-compilation cache keys. Two
    /// configurations share a fingerprint exactly when they are field-wise
    /// identical (floats compared by bit pattern), so equal fingerprints
    /// imply identical compiled timing.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.systolic_width.hash(&mut hasher);
        self.systolic_height.hash(&mut hasher);
        self.accumulator_depth.hash(&mut hasher);
        self.frequency_mhz.to_bits().hash(&mut hasher);
        self.activation_sram_bytes.hash(&mut hasher);
        self.weight_sram_bytes.hash(&mut hasher);
        self.memory_channels.hash(&mut hasher);
        self.memory_bandwidth_gbps.to_bits().hash(&mut hasher);
        self.memory_latency_cycles.hash(&mut hasher);
        self.vector_lanes.hash(&mut hasher);
        hasher.finish()
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns an error string if any dimension, frequency, buffer size, or
    /// bandwidth parameter is zero or non-positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.systolic_width == 0 || self.systolic_height == 0 {
            return Err("systolic array dimensions must be non-zero".into());
        }
        if self.accumulator_depth == 0 {
            return Err("accumulator depth must be non-zero".into());
        }
        if self.frequency_mhz.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("frequency must be positive".into());
        }
        if self.activation_sram_bytes == 0 || self.weight_sram_bytes == 0 {
            return Err("on-chip SRAM sizes must be non-zero".into());
        }
        if self.memory_bandwidth_gbps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("memory bandwidth must be positive".into());
        }
        if self.vector_lanes == 0 {
            return Err("vector lanes must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        NpuConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_one() {
        let cfg = NpuConfig::paper_default();
        assert_eq!(cfg.systolic_width, 128);
        assert_eq!(cfg.systolic_height, 128);
        assert_eq!(cfg.frequency_mhz, 700.0);
        assert_eq!(cfg.activation_sram_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.weight_sram_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.memory_channels, 8);
        assert_eq!(cfg.memory_bandwidth_gbps, 358.0);
        assert_eq!(cfg.memory_latency_cycles, 100);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn pe_count_is_product_of_dimensions() {
        assert_eq!(NpuConfig::paper_default().pe_count(), 128 * 128);
    }

    #[test]
    fn bytes_per_cycle_is_roughly_511() {
        let bpc = NpuConfig::paper_default().bytes_per_cycle();
        assert!((bpc - 511.4).abs() < 1.0, "got {bpc}");
    }

    #[test]
    fn streaming_cycles_rounds_up_and_zero_bytes_is_free() {
        let cfg = NpuConfig::paper_default();
        assert_eq!(cfg.streaming_cycles(0), Cycles::ZERO);
        assert_eq!(cfg.streaming_cycles(1), Cycles::new(1));
        let one_mb = cfg.streaming_cycles(1024 * 1024).get();
        assert!((2000..=2100).contains(&one_mb), "got {one_mb}");
    }

    #[test]
    fn time_conversions_are_consistent() {
        let cfg = NpuConfig::paper_default();
        let c = cfg.millis_to_cycles(0.25);
        assert_eq!(c, Cycles::new(175_000));
        assert!((cfg.cycles_to_millis(c) - 0.25).abs() < 1e-9);
        assert!((cfg.cycles_to_micros(cfg.millis_to_cycles(0.059)) - 59.0).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut cfg = NpuConfig::paper_default();
        cfg.systolic_width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = NpuConfig::paper_default();
        cfg.memory_bandwidth_gbps = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = NpuConfig::paper_default();
        cfg.vector_lanes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = NpuConfig::paper_default();
        cfg.accumulator_depth = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(NpuConfig::default(), NpuConfig::paper_default());
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let base = NpuConfig::paper_default();
        assert_eq!(base.fingerprint(), NpuConfig::paper_default().fingerprint());
        let small = NpuConfig {
            systolic_width: 64,
            ..NpuConfig::paper_default()
        };
        assert_ne!(base.fingerprint(), small.fingerprint());
        let slow = NpuConfig {
            frequency_mhz: 350.0,
            ..NpuConfig::paper_default()
        };
        assert_ne!(base.fingerprint(), slow.fingerprint());
    }

    #[test]
    fn max_checkpoint_bytes_is_activation_sram() {
        let cfg = NpuConfig::paper_default();
        assert_eq!(cfg.max_checkpoint_bytes(), cfg.activation_sram_bytes);
    }

    #[test]
    fn peak_macs_match_pe_count() {
        let cfg = NpuConfig::paper_default();
        assert_eq!(cfg.peak_macs_per_cycle(), cfg.pe_count());
    }
}
