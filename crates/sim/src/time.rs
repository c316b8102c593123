//! Simulation time in integer picoseconds.
//!
//! Datacenter link speeds divide evenly into picoseconds-per-byte
//! (10 Gbps → 800 ps/B, 25 Gbps → 320, 40 Gbps → 200, 100 Gbps → 80), so an
//! integer picosecond clock represents every serialization, propagation, and
//! pacing interval in the paper exactly. A `u64` of picoseconds covers
//! ~213 days of simulated time — far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation timestamp (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulation time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Picoseconds since simulation start.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Microseconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Dur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn ps(v: u64) -> Dur {
        Dur(v)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn ns(v: u64) -> Dur {
        Dur(v * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn us(v: u64) -> Dur {
        Dur(v * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn ms(v: u64) -> Dur {
        Dur(v * 1_000_000_000)
    }

    /// Microseconds, or `None` when their picoseconds overflow `u64`: for
    /// values read from outside the program.
    pub fn checked_us(v: u64) -> Option<Dur> {
        v.checked_mul(1_000_000).map(Dur)
    }

    /// Milliseconds, or `None` when their picoseconds overflow `u64`: for
    /// values read from outside the program.
    pub fn checked_ms(v: u64) -> Option<Dur> {
        v.checked_mul(1_000_000_000).map(Dur)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn secs(v: u64) -> Dur {
        Dur(v * 1_000_000_000_000)
    }

    /// Construct from a float number of seconds (rounds to nearest ps).
    ///
    /// Only used at configuration time (e.g. Poisson inter-arrival samples);
    /// the hot path stays in integers.
    #[inline]
    pub fn from_secs_f64(v: f64) -> Dur {
        assert!(
            v >= 0.0 && v.is_finite(),
            "duration must be finite and non-negative"
        );
        Dur((v * 1e12).round() as u64)
    }

    /// Picoseconds in this duration.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// True if this is the zero duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division rounding up; how many whole `step`s cover `self`.
    #[inline]
    pub fn div_ceil(self, step: Dur) -> u64 {
        assert!(step.0 > 0, "division by zero duration");
        self.0.div_ceil(step.0)
    }

    /// Multiply by a float factor (configuration-time use).
    #[inline]
    pub fn mul_f64(self, f: f64) -> Dur {
        assert!(f >= 0.0 && f.is_finite());
        Dur((self.0 as f64 * f).round() as u64)
    }
}

/// Serialization time of `bytes` on a link of `bits_per_sec`, exact via
/// 128-bit intermediate math: `bytes * 8e12 / bps` picoseconds.
#[inline]
pub fn tx_time(bytes: u64, bits_per_sec: u64) -> Dur {
    debug_assert!(bits_per_sec > 0);
    let ps = (bytes as u128 * 8_000_000_000_000u128).div_ceil(bits_per_sec as u128);
    Dur(ps as u64)
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}

/// Human-friendly rendering of a picosecond count (e.g. `12.3us`, `4ms`).
fn fmt_ps(ps: u64) -> String {
    if ps == u64::MAX {
        return "inf".into();
    }
    let (val, unit) = if ps >= 1_000_000_000_000 {
        (ps as f64 / 1e12, "s")
    } else if ps >= 1_000_000_000 {
        (ps as f64 / 1e9, "ms")
    } else if ps >= 1_000_000 {
        (ps as f64 / 1e6, "us")
    } else if ps >= 1_000 {
        (ps as f64 / 1e3, "ns")
    } else {
        (ps as f64, "ps")
    };
    if (val - val.round()).abs() < 1e-9 {
        format!("{}{}", val.round() as u64, unit)
    } else {
        format!("{:.3}{}", val, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_exact_for_standard_speeds() {
        // 1538-byte frame: 10G = 1230.4ns, 40G = 307.6ns, 100G = 123.04ns.
        assert_eq!(tx_time(1538, 10_000_000_000).as_ps(), 1_230_400);
        assert_eq!(tx_time(1538, 40_000_000_000).as_ps(), 307_600);
        assert_eq!(tx_time(1538, 100_000_000_000).as_ps(), 123_040);
        // 84-byte credit on 10G = 67.2ns.
        assert_eq!(tx_time(84, 10_000_000_000).as_ps(), 67_200);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps = 8e12/3 ps, not integral; must round up.
        let t = tx_time(1, 3);
        assert_eq!(t.as_ps(), 2_666_666_666_667);
    }

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(Dur::ns(5).as_ps(), 5_000);
        assert_eq!(Dur::us(5).as_ps(), 5_000_000);
        assert_eq!(Dur::ms(5).as_ps(), 5_000_000_000);
        assert_eq!(Dur::secs(2).as_ps(), 2_000_000_000_000);
        assert!((Dur::us(52).as_secs_f64() - 52e-6).abs() < 1e-18);
        assert_eq!(Dur::from_secs_f64(1.5e-6), Dur::ns(1500));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Dur::us(10);
        assert_eq!(t.as_ps(), 10_000_000);
        assert_eq!((t + Dur::us(5)).since(t), Dur::us(5));
        // since() saturates.
        assert_eq!(SimTime::ZERO.since(t), Dur::ZERO);
        assert_eq!(Dur::us(10) * 3, Dur::us(30));
        assert_eq!(Dur::us(10) / 4, Dur::ns(2500));
        assert_eq!(Dur::us(9).div_ceil(Dur::us(2)), 5);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(Dur::ns(999) < Dur::us(1));
        assert_eq!(SimTime::MAX, SimTime(u64::MAX));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::us(12)), "12us");
        assert_eq!(format!("{}", Dur::ps(1_230_400)), "1.230us");
        assert_eq!(format!("{}", Dur::ms(4)), "4ms");
        assert_eq!(format!("{}", SimTime::MAX), "inf");
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Dur::us(10).mul_f64(0.5), Dur::us(5));
        assert_eq!(Dur::ps(3).mul_f64(1.0 / 3.0), Dur::ps(1));
    }

    #[test]
    fn sum_iterates() {
        let total: Dur = [Dur::us(1), Dur::us(2), Dur::us(3)].into_iter().sum();
        assert_eq!(total, Dur::us(6));
    }
}
