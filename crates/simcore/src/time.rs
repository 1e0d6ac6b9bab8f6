//! Simulated time.
//!
//! All simulation timestamps are nanoseconds since the start of the run,
//! stored in a `u64`. That gives ~584 years of range, far beyond any
//! experiment in this repository, while keeping arithmetic exact — there is
//! no floating-point drift in event ordering.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating multiplication by an integer factor (used for RTO backoff).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Round this duration up to a multiple of `granularity` (used to model
    /// coarse-grained kernel timers). A zero granularity is the identity.
    #[inline]
    pub fn round_up_to(self, granularity: Dur) -> Dur {
        if granularity.0 == 0 {
            return self;
        }
        let g = granularity.0;
        Dur(self.0.div_ceil(g) * g)
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// `a * b / c`, rounded down: in `u64` when the product fits (every packet
/// and every link backlog the simulator meets), in `u128` otherwise. Same
/// result either way; the `u64` division is the cheap one.
#[inline]
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => (a as u128 * b as u128 / c as u128) as u64,
    }
}

/// Compute `bytes / rate` as a duration, where `rate` is in bits per second.
/// This is the wire-serialization time of a packet.
#[inline]
pub fn transmission_time(bytes: u64, bits_per_sec: u64) -> Dur {
    debug_assert!(bits_per_sec > 0);
    // ns = bytes * 8 * 1e9 / bps.
    Dur::from_nanos(mul_div(bytes, 8_000_000_000, bits_per_sec))
}

/// The bytes a link serializing at `bits_per_sec` sends in `d`, rounded
/// down: a backlog's queue occupancy.
#[inline]
pub fn bytes_sent_in(d: Dur, bits_per_sec: u64) -> u64 {
    // bytes = ns * bps / 8e9.
    mul_div(d.as_nanos(), bits_per_sec, 8_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + Dur::from_millis(5) + Dur::from_micros(3);
        assert_eq!(t.as_nanos(), 5_003_000);
        assert_eq!(t.since(SimTime::ZERO), Dur::from_nanos(5_003_000));
        assert_eq!(t.since(t + Dur::from_secs(1)), Dur::ZERO, "saturates");
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Dur::from_secs(2), Dur::from_millis(2000));
        assert_eq!(Dur::from_millis(2), Dur::from_micros(2000));
        assert_eq!(Dur::from_micros(2), Dur::from_nanos(2000));
        assert_eq!(Dur::from_secs_f64(0.5), Dur::from_millis(500));
    }

    #[test]
    fn round_up_models_coarse_timers() {
        let g = Dur::from_millis(500);
        assert_eq!(Dur::from_millis(1).round_up_to(g), Dur::from_millis(500));
        assert_eq!(Dur::from_millis(500).round_up_to(g), Dur::from_millis(500));
        assert_eq!(Dur::from_millis(501).round_up_to(g), Dur::from_millis(1000));
        assert_eq!(
            Dur::from_millis(7).round_up_to(Dur::ZERO),
            Dur::from_millis(7)
        );
    }

    #[test]
    fn transmission_time_gigabit() {
        // 1500 bytes at 1 Gb/s = 12 microseconds.
        assert_eq!(transmission_time(1500, 1_000_000_000), Dur::from_micros(12));
        // 1 byte at 8 bps = 1 second.
        assert_eq!(transmission_time(1, 8), Dur::from_secs(1));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.000s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Dur::from_nanos(1).max(Dur::from_nanos(2)),
            Dur::from_nanos(2)
        );
        assert_eq!(
            Dur::from_nanos(1).min(Dur::from_nanos(2)),
            Dur::from_nanos(1)
        );
    }
}
