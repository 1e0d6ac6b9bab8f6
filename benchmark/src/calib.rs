//! Reference units: every timed rep is bracketed by a fixed calibration
//! loop, and its wall time is rescaled by how fast the box ran that loop.
//!
//! The sandbox shares its cores: the same bit-identical rep takes 13–20 %
//! more or less wall time from one multi-second phase to the next. The
//! calibration loop (xorshift + random read-modify-write over a table that
//! fits L2, so it sees both clock and cache pressure) tracks those phases.
//! `reference seconds = wall × NOMINAL ÷ mean(calibration before, after)`:
//! a rep measured while the box runs the loop in 12 ms instead of the
//! nominal 10 ms is credited 10/12 of its wall time. A rep whose two
//! calibrations disagree by more than [`MAX_DRIFT`] straddled a phase
//! change and is discarded.

use std::time::{Duration, Instant};

use crate::stats::median;

/// What the calibration loop is defined to take, in seconds. Only the ratio
/// to the measured loop time matters; 10 ms is what it takes on the box the
/// baseline in README.md was measured on.
pub const NOMINAL_S: f64 = 0.010;

/// Largest relative disagreement between the two calibrations around a rep
/// before the rep is discarded.
pub const MAX_DRIFT: f64 = 0.10;

const TABLE_WORDS: usize = 512 * 1024 / 8;
const STEPS: u32 = 6_000_000;

/// A calibration this recent still describes the box; back-to-back reps
/// share the one between them.
const REUSE_WITHIN: Duration = Duration::from_millis(2);

/// How often a probe is rerun when the box changed speed under it.
const PROBE_TRIES: usize = 3;

pub struct Calib {
    table: Vec<u64>,
    state: u64,
    /// When the last calibration ended, and what it read.
    last: Option<(Instant, f64)>,
    /// Every calibration read so far, and how many reps were unsteady.
    pub readings: Vec<f64>,
    pub timed: u64,
    pub unsteady: u64,
}

/// One rep's time, raw and in reference units.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub ref_s: f64,
    pub steady: bool,
}

impl Timed {
    /// Rescale a wall time measured inside this rep (e.g. the round-trip
    /// loop of a live rep, which excludes binds and handshake).
    pub fn to_ref(self, wall_s: f64) -> f64 {
        wall_s * self.ref_s / self.wall_s
    }
}

impl Calib {
    pub fn new() -> Self {
        Calib {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            last: None,
            readings: Vec::new(),
            timed: 0,
            unsteady: 0,
        }
    }

    fn read(&mut self) -> f64 {
        let s = self.run();
        self.last = Some((Instant::now(), s));
        self.readings.push(s);
        s
    }

    /// Time `f` between two calibrations.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last {
            Some((at, s)) if at.elapsed() < REUSE_WITHIN => s,
            _ => self.read(),
        };
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = self.read();
        let steady = steady(before, after);
        self.timed += 1;
        self.unsteady += !steady as u64;
        (
            out,
            Timed {
                wall_s,
                ref_s: reference_secs(wall_s, before, after),
                steady,
            },
        )
    }

    /// A standalone timed loop over one layer's public functions: run
    /// `batch` (which returns how many units of work it did) `batches`
    /// times and return the median reference nanoseconds per unit.
    pub fn probe(&mut self, batches: usize, mut batch: impl FnMut() -> u64) -> f64 {
        let mut ns_per_unit = 0.0;
        for _ in 0..PROBE_TRIES {
            let (per_batch, timed) = self.time(|| {
                (0..batches)
                    .map(|_| {
                        let t0 = Instant::now();
                        let units = batch();
                        t0.elapsed().as_nanos() as f64 / units as f64
                    })
                    .collect::<Vec<f64>>()
            });
            ns_per_unit = timed.to_ref(median(&per_batch));
            if timed.steady {
                break;
            }
        }
        ns_per_unit
    }

    /// Run the fixed loop once; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) % TABLE_WORDS];
            *slot = slot.wrapping_add(x);
        }
        self.state = std::hint::black_box(x);
        t0.elapsed().as_secs_f64()
    }
}

/// Wall seconds → reference seconds, given the calibrations on either side.
pub fn reference_secs(wall_s: f64, cal_before_s: f64, cal_after_s: f64) -> f64 {
    wall_s * NOMINAL_S / ((cal_before_s + cal_after_s) / 2.0)
}

/// Did the box hold one speed across the rep?
pub fn steady(cal_before_s: f64, cal_after_s: f64) -> bool {
    let lo = cal_before_s.min(cal_after_s);
    let hi = cal_before_s.max(cal_after_s);
    (hi - lo) / lo <= MAX_DRIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_scales_by_the_mean_calibration() {
        // Box at nominal speed: wall time stands.
        assert!((reference_secs(2.0, 0.010, 0.010) - 2.0).abs() < 1e-12);
        // Box 25 % slow on both sides: the rep is credited 1/1.25.
        assert!((reference_secs(2.0, 0.0125, 0.0125) - 1.6).abs() < 1e-12);
        // Unequal sides: the mean (11 ms) is used.
        assert!((reference_secs(1.1, 0.010, 0.012) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discard_rule_is_ten_percent_of_the_faster_side() {
        assert!(steady(0.010, 0.010));
        assert!(steady(0.010, 0.0109));
        assert!(steady(0.0109, 0.010));
        assert!(!steady(0.010, 0.0112));
        assert!(!steady(0.0112, 0.010));
    }

    #[test]
    fn timing_brackets_a_rep_and_probe_reports_per_unit() {
        let mut c = Calib::new();
        let ((), t) = c.time(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(t.wall_s >= 0.005 && t.ref_s > 0.0);
        assert!((t.to_ref(t.wall_s) - t.ref_s).abs() < 1e-12);
        assert_eq!(c.readings.len(), 2, "one calibration on each side");
        let ns = c.probe(3, || {
            std::thread::sleep(Duration::from_millis(2));
            2
        });
        assert!(ns > 1e5 && ns < 1e7, "about 1 ms per unit, got {ns} ns");
    }

    #[test]
    fn loop_does_work_and_advances_its_state() {
        let mut c = Calib::new();
        let s0 = c.state;
        assert!(c.run() > 0.0);
        assert_ne!(c.state, s0);
    }
}
