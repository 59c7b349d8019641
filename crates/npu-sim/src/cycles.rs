//! Strongly typed cycle counting.
//!
//! All timing in the simulator is expressed in NPU clock cycles. [`Cycles`]
//! is a thin newtype over `u64` that supports saturating arithmetic and
//! conversion to wall-clock time for a given operating frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A number of NPU clock cycles.
///
/// `Cycles` behaves like an unsigned integer: addition and multiplication
/// saturate instead of wrapping, and subtraction saturates at zero so that
/// "remaining time" computations never underflow.
///
/// # Example
///
/// ```
/// use npu_sim::Cycles;
///
/// let a = Cycles::new(700);
/// let b = Cycles::new(1_400);
/// assert_eq!(a + b, Cycles::new(2_100));
/// assert_eq!(a - b, Cycles::ZERO); // saturating
/// assert_eq!((a + b).to_micros(700.0), 3.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// The largest representable cycle count.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count from a raw `u64`.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if the count is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of the two cycle counts.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// Returns the larger of the two cycle counts.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Converts a number of seconds into cycles at `freq_mhz` megahertz,
    /// rounding to the nearest cycle.
    pub fn from_secs(secs: f64, freq_mhz: f64) -> Cycles {
        assert!(secs >= 0.0, "seconds must be non-negative");
        assert!(freq_mhz > 0.0, "frequency must be positive");
        Cycles((secs * freq_mhz * 1e6).round() as u64)
    }

    /// Converts a number of milliseconds into cycles at `freq_mhz` megahertz.
    pub fn from_millis(millis: f64, freq_mhz: f64) -> Cycles {
        Cycles::from_secs(millis * 1e-3, freq_mhz)
    }

    /// Wall-clock duration in seconds at `freq_mhz` megahertz.
    pub fn to_secs(self, freq_mhz: f64) -> f64 {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        self.0 as f64 / (freq_mhz * 1e6)
    }

    /// Wall-clock duration in microseconds at `freq_mhz` megahertz.
    pub fn to_micros(self, freq_mhz: f64) -> f64 {
        self.to_secs(freq_mhz) * 1e6
    }

    /// Wall-clock duration in milliseconds at `freq_mhz` megahertz.
    pub fn to_millis(self, freq_mhz: f64) -> f64 {
        self.to_secs(freq_mhz) * 1e3
    }

    /// The ratio of this count to `other`, as a float.
    ///
    /// Returns `f64::INFINITY` if `other` is zero and `self` is non-zero, and
    /// `1.0` when both are zero (a degenerate but well-defined slowdown).
    pub fn ratio(self, other: Cycles) -> f64 {
        if other.is_zero() {
            if self.is_zero() {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> Self {
        c.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        assert!(rhs != 0, "division of Cycles by zero");
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |acc, c| acc + c)
    }
}

impl<'a> Sum<&'a Cycles> for Cycles {
    fn sum<I: Iterator<Item = &'a Cycles>>(iter: I) -> Cycles {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_get_round_trip() {
        assert_eq!(Cycles::new(42).get(), 42);
        assert_eq!(u64::from(Cycles::from(7u64)), 7);
    }

    #[test]
    fn zero_is_zero() {
        assert!(Cycles::ZERO.is_zero());
        assert!(!Cycles::new(1).is_zero());
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Cycles::MAX + Cycles::new(1), Cycles::MAX);
        assert_eq!(Cycles::new(2) + Cycles::new(3), Cycles::new(5));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        assert_eq!(Cycles::new(3) - Cycles::new(10), Cycles::ZERO);
        assert_eq!(Cycles::new(10) - Cycles::new(3), Cycles::new(7));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut c = Cycles::new(10);
        c += Cycles::new(5);
        assert_eq!(c, Cycles::new(15));
        c -= Cycles::new(20);
        assert_eq!(c, Cycles::ZERO);
    }

    #[test]
    fn multiplication_and_division() {
        assert_eq!(Cycles::new(10) * 3, Cycles::new(30));
        assert_eq!(Cycles::new(30) / 4, Cycles::new(7));
    }

    #[test]
    #[should_panic(expected = "division of Cycles by zero")]
    fn division_by_zero_panics() {
        let _ = Cycles::new(1) / 0;
    }

    #[test]
    fn time_conversions_round_trip() {
        let c = Cycles::from_millis(0.012, 700.0);
        assert_eq!(c, Cycles::new(8_400));
        assert!((c.to_micros(700.0) - 12.0).abs() < 1e-9);
        assert!((Cycles::from_millis(1.0, 700.0).to_millis(700.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_second_at_700mhz() {
        assert_eq!(Cycles::from_secs(1.0, 700.0), Cycles::new(700_000_000));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(Cycles::new(10).ratio(Cycles::new(5)), 2.0);
        assert_eq!(Cycles::ZERO.ratio(Cycles::ZERO), 1.0);
        assert!(Cycles::new(1).ratio(Cycles::ZERO).is_infinite());
    }

    #[test]
    fn min_max() {
        assert_eq!(Cycles::new(3).min(Cycles::new(5)), Cycles::new(3));
        assert_eq!(Cycles::new(3).max(Cycles::new(5)), Cycles::new(5));
    }

    #[test]
    fn sum_of_iterator() {
        let v = vec![Cycles::new(1), Cycles::new(2), Cycles::new(3)];
        let total: Cycles = v.iter().sum();
        assert_eq!(total, Cycles::new(6));
        let total2: Cycles = v.into_iter().sum();
        assert_eq!(total2, Cycles::new(6));
    }

    #[test]
    fn display_mentions_cycles() {
        assert_eq!(Cycles::new(5).to_string(), "5 cycles");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Cycles::new(1) < Cycles::new(2));
        assert!(Cycles::new(2) <= Cycles::new(2));
    }
}
