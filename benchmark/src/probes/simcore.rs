//! `simcore`: the event scheduler alone — no world, no processes.

use simcore::{derive_rng, Ctx, Dur};

use super::BATCHES;
use crate::calib::Calib;

const ROUNDS: u64 = 400;
const PENDING: u64 = 64;

/// Cost of one event through `schedule_in` + `run_due`, with 64 timers
/// pending at delays inside the timer wheel's range (1–260 µs).
pub fn sched_ns_per_event(cal: &mut Calib) -> f64 {
    let mut ctx: Ctx<u64> = Ctx::standalone(derive_rng(1, 0));
    let mut fired = 0u64;
    let ns = cal.probe(BATCHES, || {
        for _ in 0..ROUNDS {
            for k in 0..PENDING {
                ctx.schedule_in(Dur::from_nanos(1_000 + k * 4_093), |w: &mut u64, _| *w += 1);
            }
            let bound = ctx.now() + Dur::from_nanos(300_000);
            ctx.run_due(&mut fired, bound);
        }
        ROUNDS * PENDING
    });
    assert_eq!(fired % (ROUNDS * PENDING), 0, "every scheduled event fired");
    ns
}
