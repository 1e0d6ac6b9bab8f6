//! What every run shares — pinning, set-up, calibrated reps, output checks —
//! and the end-to-end run (tracing off). The per-layer run is in `layers`.
//! All times are reported in reference units (see `calib`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{SimOut, Transport};
use crate::calib::{Calib, Timed};
use crate::json::Value;
use crate::os;
use crate::span::Recorder;
use crate::stats::median;
use crate::workload::{Inputs, Rep, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest reps per transport in a run, whatever `--seconds`, and fewest
/// steady ones a median is taken over before all reps are used instead.
const MIN_REPS: usize = 3;

/// Metric values by name, plus what the last line of output needs.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The trace document (per-layer runs only).
    pub trace: Option<Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn set_t(&mut self, base: &str, t: Transport, v: f64) {
        self.set(&format!("{base}.{}", t.name()), v);
    }

    fn absorb(&mut self, rep: &mut Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.errors.append(&mut rep.errors);
    }

    pub fn fail(&mut self, what: String) {
        self.failed = self.failed.max(1);
        self.errors.push(what);
    }
}

/// One timed rep, reduced to what the medians need.
pub struct Sample {
    pub timed: Timed,
    /// Wall seconds the rep's messages took: the whole rep for the
    /// simulator, the round-trip loop for the live driver.
    pub busy_wall_s: f64,
    pub msgs: u64,
    pub payload_bytes: u64,
    pub events: u64,
}

impl Sample {
    /// [`Sample::busy_wall_s`] in reference seconds.
    pub fn busy_ref_s(&self) -> f64 {
        self.timed.to_ref(self.busy_wall_s)
    }
}

fn sample(rep: &Rep, timed: Timed) -> Sample {
    let busy_wall_s = match &rep.live {
        Some(live) => live.loop_ns as f64 * 1e-9,
        None => timed.wall_s,
    };
    let events = match (&rep.sim, &rep.live) {
        (Some(sim), _) => sim.events,
        (_, Some(live)) => live.events,
        _ => 0,
    };
    Sample {
        timed,
        busy_wall_s,
        msgs: rep.msgs,
        payload_bytes: rep.payload_bytes,
        events,
    }
}

/// Median over the steady samples (all of them if too few were steady).
pub fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let steady: Vec<f64> = samples.iter().filter(|s| s.timed.steady).map(&f).collect();
    if steady.len() >= MIN_REPS {
        median(&steady)
    } else {
        median(&samples.iter().map(&f).collect::<Vec<f64>>())
    }
}

pub struct Session<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub cal: Calib,
    /// The affinity mask before pinning, if pinning worked.
    pub unpinned: Option<os::CpuMask>,
    pub out: Outcome,
    /// What the warm-up reps reported, per transport (seed + 0).
    pub warm: [Option<SimOut>; 2],
}

impl<'a> Session<'a> {
    pub fn new(w: &'a Workload, seed: u64) -> Self {
        os::one_malloc_arena();
        let unpinned = os::pin_to_highest_cpu();
        if unpinned.is_none() {
            eprintln!("warning: could not pin to one CPU; timings will be noisier");
        }
        Session {
            w,
            seed,
            cal: Calib::new(),
            unpinned,
            out: Outcome::default(),
            warm: [None; 2],
        }
    }

    /// Everything before the first timed rep: input generation and one
    /// discarded warm-up rep per transport (for the live workloads that
    /// includes socket binds and handshakes). Done [`SETUPS`] times; every
    /// warm-up shares the run's seed and must report the same simulation.
    pub fn set_up(&mut self) -> (Inputs, f64) {
        let mut inputs = None;
        let mut times = Vec::new();
        for _ in 0..SETUPS {
            let (w, seed) = (self.w, self.seed);
            let ((made, mut reps), timed) = self.cal.time(|| {
                let made = w.inputs(seed);
                let reps = Transport::BOTH
                    .map(|t| w.rep(t, seed, &made, &mut Recorder::new(false), false));
                (made, reps)
            });
            times.push(timed.ref_s);
            for (t, rep) in Transport::BOTH.into_iter().zip(&mut reps) {
                self.judge(t, 0, rep);
            }
            inputs = Some(made);
        }
        (inputs.expect("SETUPS > 0"), median(&times))
    }

    /// A rep run with the warm-up's seed must repeat it exactly.
    fn same_as_warm_up(&mut self, transport: usize, sim: Option<SimOut>) {
        match (self.warm[transport], sim) {
            (None, sim) => self.warm[transport] = sim,
            (Some(first), Some(again)) if first != again => self.out.fail(format!(
                "{}: same seed, different simulation: {first:?} then {again:?}",
                Transport::BOTH[transport].name()
            )),
            _ => {}
        }
    }

    /// Count a rep's operations and failures; a rep with the warm-up's
    /// seed (`i` = 0) must also repeat the warm-up's simulation.
    pub fn judge(&mut self, t: Transport, i: u64, rep: &mut Rep) {
        self.out.absorb(rep);
        if i == 0 {
            self.same_as_warm_up(t as usize, rep.sim);
        }
    }

    /// One timed rep; rep `i` uses seed + `i`. Spans go to `rec`;
    /// `flight_recorder` turns the repo's own recorder on.
    pub fn timed_rep(
        &mut self,
        t: Transport,
        i: u64,
        inputs: &Inputs,
        rec: &mut Recorder,
        flight_recorder: bool,
    ) -> (Rep, Sample) {
        let (w, seed) = (self.w, self.seed.wrapping_add(i));
        let (mut rep, timed) = self.cal.time(|| {
            rec.enter("rep");
            let rep = w.rep(t, seed, inputs, rec, flight_recorder);
            rec.exit();
            rep
        });
        self.judge(t, i, &mut rep);
        let s = sample(&rep, timed);
        (rep, s)
    }
}

/// The end-to-end run: tracing off, reps alternate between the transports
/// until `seconds` have passed.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut s = Session::new(w, seed);
    let (inputs, setup_s) = s.set_up();
    let mut samples: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut off = Recorder::new(false);
    let mut i = 0;
    while start.elapsed() < budget || i < MIN_REPS as u64 {
        for t in Transport::BOTH {
            let (_, sample) = s.timed_rep(t, i, &inputs, &mut off, false);
            samples[t as usize].push(sample);
        }
        i += 1;
    }
    let mut out = s.out;
    out.set("setup_s", setup_s);
    for t in Transport::BOTH {
        let v = &samples[t as usize];
        out.set_t(
            "msgs_per_s",
            t,
            median_of(v, |s| s.msgs as f64 / s.busy_ref_s()),
        );
        out.set_t(
            "payload_mb_per_s",
            t,
            median_of(v, |s| s.payload_bytes as f64 / 1e6 / s.busy_ref_s()),
        );
    }
    out.set("peak_rss_mb", os::peak_rss_mb().unwrap_or(0.0));
    out
}
