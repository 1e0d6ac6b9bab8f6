//! A restartable protocol timer as one value.
//!
//! Transport timers (RTO, delayed ack, heartbeat, …) are restarted far more
//! often than they expire, so a [`Deadline`] makes a restart a field write.
//! It keeps at most one event in the queue: [`Deadline::set`] only moves
//! `due`, and the queued event — left alone whenever it already wakes at or
//! before the new instant — finds on waking that the deadline moved and
//! re-queues itself there, or wakes to nothing after a [`Deadline::clear`].
//! Only a restart to an *earlier* instant pays a [`Ctx::cancel`] and an
//! insert.
//!
//! The queued event is a timer key, `W::Timer`: the world's
//! [`Model::timer`] maps it to the timer's handler, which begins with
//! [`Deadline::expired`].
//!
//! The handler still runs at exactly the `(time, seq)` an eager cancel-and-
//! reschedule would give it: `set` draws the tie-break with
//! [`Ctx::reserve_seq`] at the moment of the restart and every (re-)queue
//! goes through [`Ctx::schedule_timer_at_seq`]. A wake that is not the
//! expiry draws no seq and no random number; only the event count sees it.

use crate::sched::{Ctx, Model, TimerId};
use crate::time::{Dur, SimTime};

/// One restartable timer. `Default` is unset with nothing queued.
#[derive(Debug, Default)]
pub struct Deadline {
    /// `(time, seq)` the handler is due at; `None` while the timer is off.
    due: Option<(SimTime, u64)>,
    /// The one event in the queue for this timer, if any.
    queued: Option<(SimTime, u64, TimerId)>,
}

impl Deadline {
    /// Is the timer running? Stays `true` while its own handler runs (the
    /// handler restarts or clears it), so code the handler calls sees the
    /// timer as armed and does not arm it a second time.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.due.is_some()
    }

    /// (Re)start the timer to expire `d` from now. `key` is what
    /// [`Model::timer`] receives when the queued wake fires.
    pub fn set<W: Model>(&mut self, ctx: &mut Ctx<W>, d: Dur, key: W::Timer) {
        let at = ctx.now() + d;
        let seq = ctx.reserve_seq();
        self.due = Some((at, seq));
        match self.queued {
            // Wakes no later than the new deadline: it re-queues itself.
            Some((queued_at, _, _)) if queued_at <= at => return,
            Some((_, _, id)) => ctx.cancel(id),
            None => {}
        }
        self.queued = Some((at, seq, ctx.schedule_timer_at_seq(at, seq, key)));
    }

    /// Stop the timer. The queued event, if any, wakes to nothing.
    #[inline]
    pub fn clear(&mut self) {
        self.due = None;
    }

    /// First call of the timer's handler: has the deadline been reached?
    /// `false` means this wake predates the deadline (it has been re-queued
    /// with `key`) or the timer was cleared, and the handler must return
    /// without doing anything else.
    pub fn expired<W: Model>(&mut self, ctx: &mut Ctx<W>, key: W::Timer) -> bool {
        let woke = self.queued.take().map(|(at, seq, _)| (at, seq));
        debug_assert!(
            woke.is_some_and(|(at, _)| at == ctx.now()),
            "handler ran without its wake"
        );
        match self.due {
            None => false,
            Some(due) if Some(due) == woke => true,
            Some((at, seq)) => {
                self.queued = Some((at, seq, ctx.schedule_timer_at_seq(at, seq, key)));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    /// World of the trap tests: one timer and a log of what its handler saw.
    #[derive(Default)]
    struct W {
        t: Deadline,
        expiries: Vec<u64>,
        armed_inside: Vec<bool>,
        wakes: u32,
    }

    impl Model for W {
        type Packet = std::convert::Infallible;
        type Timer = ();
        fn deliver(&mut self, _: &mut Ctx<Self>, pkt: Self::Packet) {
            match pkt {}
        }
        fn timer(&mut self, ctx: &mut Ctx<Self>, (): ()) {
            on_timer(self, ctx)
        }
    }

    const D: Dur = Dur::from_micros(100);

    fn arm(w: &mut W, ctx: &mut Ctx<W>) {
        w.t.set(ctx, D, ());
    }

    /// What `output`/`try_send` do: arm the timer unless it is running.
    fn arm_if_idle(w: &mut W, ctx: &mut Ctx<W>) {
        if !w.t.is_set() {
            arm(w, ctx);
        }
    }

    fn on_timer(w: &mut W, ctx: &mut Ctx<W>) {
        w.wakes += 1;
        if !w.t.expired(ctx, ()) {
            return;
        }
        w.expiries.push(ctx.now().as_nanos());
        w.armed_inside.push(w.t.is_set());
        arm_if_idle(w, ctx);
        if w.expiries.len() < 3 {
            arm(w, ctx); // the handler's own unconditional restart
        } else {
            w.t.clear();
        }
    }

    fn drain(w: &mut W, ctx: &mut Ctx<W>) {
        while ctx.fire_next(w, SimTime::MAX) {}
    }

    #[test]
    fn timer_reads_set_inside_its_own_handler() {
        let mut ctx: Ctx<W> = Ctx::new(derive_rng(0, 0));
        let mut w = W::default();
        arm(&mut w, &mut ctx);
        let seq0 = ctx.next_seq();
        drain(&mut w, &mut ctx);
        assert_eq!(w.expiries, vec![100_000, 200_000, 300_000]);
        assert_eq!(
            w.armed_inside,
            vec![true; 3],
            "the handler's callees must see it armed"
        );
        // One seq per restart and none for `arm_if_idle`: had the expiry
        // cleared the timer, each handler run would have armed it twice.
        assert_eq!(ctx.next_seq() - seq0, 2);
        assert!(!w.t.is_set());
    }

    #[test]
    fn cleared_timer_wakes_to_nothing_and_draws_nothing() {
        use rand::Rng;
        let mut ctx: Ctx<W> = Ctx::new(derive_rng(0, 0));
        let mut w = W::default();
        arm(&mut w, &mut ctx);
        w.t.clear();
        let seq0 = ctx.next_seq();
        let rng0 = ctx.rng.clone().gen::<u64>();
        drain(&mut w, &mut ctx);
        assert_eq!(w.wakes, 1, "the queued event still wakes");
        assert!(w.expiries.is_empty());
        assert_eq!(ctx.next_seq(), seq0, "a no-op wake draws no seq");
        assert_eq!(
            ctx.rng.gen::<u64>(),
            rng0,
            "a no-op wake draws no random number"
        );
        assert_eq!(ctx.now(), SimTime::ZERO + D);
        assert_eq!(ctx.events_fired(), 1);
        // Nothing is queued any more: a fresh start inserts again.
        arm(&mut w, &mut ctx);
        assert_eq!(ctx.next_event_time(), Some(SimTime::ZERO + D + D));
    }
}
