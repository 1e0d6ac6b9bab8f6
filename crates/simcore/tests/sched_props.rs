//! Property tests for the simulation core: event ordering, determinism,
//! and runtime scheduling invariants.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use simcore::{Dur, ProcEnv, Runtime, SimTime};

/// `impl Model` for a test world that only queues closures.
macro_rules! closure_world {
    ($w:ty) => {
        impl simcore::Model for $w {
            type Packet = std::convert::Infallible;
            type Timer = std::convert::Infallible;
            fn deliver(&mut self, _: &mut simcore::Ctx<Self>, pkt: Self::Packet) {
                match pkt {}
            }
            fn timer(&mut self, _: &mut simcore::Ctx<Self>, key: Self::Timer) {
                match key {}
            }
        }
    };
}

proptest! {
    /// Events always fire in (time, insertion) order, regardless of the
    /// insertion order of their deadlines.
    #[test]
    fn event_order_is_total(delays in prop::collection::vec(0u64..1000, 1..50)) {
        #[derive(Default)]
        struct W {
            fired: Vec<(u64, usize)>,
        }
        closure_world!(W);
        let mut rt = Runtime::new(W::default(), 9);
        let expect = delays.clone();
        rt.spawn("driver", move |env: ProcEnv<W>| async move {
            env.with(|_, ctx| {
                for (i, &d) in expect.iter().enumerate() {
                    ctx.schedule_in(Dur::from_nanos(d), move |w: &mut W, ctx| {
                        w.fired.push((ctx.now().as_nanos(), i));
                    });
                }
            });
            // Wait until everything fired.
            let total = expect.len();
            env.block_on(move |w, ctx| {
                if w.fired.len() == total {
                    Some(())
                } else {
                    // Re-arm a wake after the last deadline.
                    ctx.schedule_in(Dur::from_micros(2), {
                        let id = simcore::ProcId(0);
                        move |_w: &mut W, ctx| ctx.wake(id)
                    });
                    None
                }
            }).await;
        });
        let out = rt.run();
        let fired = out.world.fired;
        // Times must be non-decreasing; ties must fire in insertion order.
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broken against insertion order");
            }
        }
        // Each event fired at its scheduled time.
        for &(at, i) in &fired {
            prop_assert_eq!(at, delays[i]);
        }
    }

    /// Sleeping processes wake exactly at their deadline, and the runtime's
    /// final time is the maximum across processes.
    #[test]
    fn sleep_deadlines_are_exact(durs in prop::collection::vec(1u64..10_000, 1..8)) {
        struct W {
            ends: Vec<(usize, u64)>,
        }
        closure_world!(W);
        let mut rt = Runtime::new(W { ends: Vec::new() }, 10);
        for (i, &d) in durs.iter().enumerate() {
            rt.spawn(format!("p{i}"), move |env: ProcEnv<W>| async move {
                env.sleep(Dur::from_nanos(d)).await;
                let t = env.now().as_nanos();
                env.with(move |w, _| w.ends.push((i, t)));
            });
        }
        let out = rt.run();
        for &(i, t) in &out.world.ends {
            prop_assert_eq!(t, durs[i]);
        }
        prop_assert_eq!(out.sim_time, SimTime::from_nanos(*durs.iter().max().unwrap()));
    }

    /// The runtime is deterministic under arbitrary interleavings of
    /// sleeping and world-mutating processes.
    #[test]
    fn runtime_determinism(steps in prop::collection::vec((0u64..200, 0u8..4), 1..20)) {
        fn once(steps: &[(u64, u8)]) -> Vec<u32> {
            #[derive(Default)]
            struct W {
                log: Vec<u32>,
            }
            closure_world!(W);
            let mut rt = Runtime::new(W::default(), 11);
            for p in 0..3usize {
                let steps: Vec<_> = steps.to_vec();
                rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| async move {
                    for (i, &(d, kind)) in steps.iter().enumerate() {
                        if (i + p) % 2 == 0 {
                            env.sleep(Dur::from_nanos(d * (p as u64 + 1))).await;
                        }
                        let tag = (p as u32) << 16 | (i as u32) << 2 | kind as u32;
                        env.with(move |w, _| w.log.push(tag));
                    }
                });
            }
            rt.run().world.log
        }
        prop_assert_eq!(once(&steps), once(&steps));
    }
}

/// One randomized timer of the queue model test: a delay from one of five
/// time scales, plus an optional cancellation — immediate or from a
/// separate canceller event.
#[derive(Debug, Clone, Copy)]
enum Cancel {
    Keep,
    Immediate,
    /// Cancel from an event fired at this delay (no-op if the target
    /// already fired, exactly like the real API).
    At(u64),
}

fn timer_op() -> impl Strategy<Value = (u64, Cancel)> {
    let delay = prop_oneof![
        // Ties: 48 instants 4 µs apart, many timers on each.
        (0u64..48).prop_map(|x| x * 4_000),
        // Microseconds: packet deliveries, CPU charges.
        0u64..500_000,
        // Tens of milliseconds: delayed acks, short RTOs.
        5_000_000u64..150_000_000,
        // Seconds: RTOs, heartbeats, compute sleeps.
        200_000_000u64..9_000_000_000,
        // Past 10 s: watchdogs.
        10_000_000_000u64..40_000_000_000,
    ];
    // Two timers in three are cancelled, most of them from an event that
    // fires while the queue drains: tombstones soon outnumber live keys.
    let cancel = prop_oneof![
        Just(Cancel::Keep),
        Just(Cancel::Keep),
        Just(Cancel::Immediate),
        (0u64..400_000).prop_map(Cancel::At),
        (0u64..400_000).prop_map(Cancel::At),
        (0u64..100_000_000).prop_map(Cancel::At),
    ];
    (delay, cancel)
}

/// Compactions the model test saw happen inside a canceller event, over all
/// its cases.
static COMPACTIONS_MID_DRAIN: AtomicUsize = AtomicUsize::new(0);

proptest! {
    /// The queue fires exactly what a sorted model says it should, in
    /// exactly that order, under random scheduling and cancellation across
    /// five time scales, from a random nonzero `now`. Cancelled timers never
    /// fire; cancelling an already-fired timer is a no-op.
    fn queue_model_case(
        base in 0u64..16_384,
        ops in prop::collection::vec(timer_op(), 1..400),
    ) {
        // Model: timer i gets seq i; canceller k (in op order) gets seq
        // n + k. A cancel is effective iff the canceller's (time, seq)
        // orders before its target's — with seq_c >= n > i, that reduces to
        // a strictly earlier timestamp.
        let mut expected: Vec<(u64, usize)> = ops
            .iter()
            .enumerate()
            .filter(|&(_, &(d, c))| match c {
                Cancel::Keep => true,
                Cancel::Immediate => false,
                Cancel::At(tc) => tc >= d,
            })
            .map(|(i, &(d, _))| (base + d, i))
            .collect();
        expected.sort_unstable();

        struct W {
            fired: Vec<(u64, usize)>,
            ids: Vec<simcore::TimerId>,
        }
        closure_world!(W);
        let mut rt = Runtime::new(W { fired: Vec::new(), ids: Vec::new() }, 11);
        let plan = ops.clone();
        rt.spawn("sched", move |env: ProcEnv<W>| async move {
            env.sleep(Dur::from_nanos(base)).await;
            env.with(|w, ctx| {
                // Targets first: seqs 0..n in op order.
                for (i, &(d, _)) in plan.iter().enumerate() {
                    let id = ctx.schedule_in(Dur::from_nanos(d), move |w: &mut W, ctx| {
                        w.fired.push((ctx.now().as_nanos(), i));
                    });
                    w.ids.push(id);
                }
                // Then cancellers (seqs n..) and immediate cancels.
                for (i, &(_, c)) in plan.iter().enumerate() {
                    match c {
                        Cancel::Keep => {}
                        Cancel::Immediate => ctx.cancel(w.ids[i]),
                        Cancel::At(tc) => {
                            ctx.schedule_in(Dur::from_nanos(tc), move |w: &mut W, ctx| {
                                // A cancel neither queues nor pops, so the
                                // stale-inclusive probe moves across it
                                // only if a compaction dropped a tombstone
                                // from the top of the queue.
                                let top = ctx.next_event_key();
                                ctx.cancel(w.ids[i]);
                                if ctx.next_event_key() != top {
                                    COMPACTIONS_MID_DRAIN.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        }
                    }
                }
            });
            // Outlive every timer and canceller.
            env.sleep(Dur::from_secs(50)).await;
        });
        let out = rt.run();
        prop_assert_eq!(out.world.fired, expected);
    }
}

/// The model above, plus the check that its cancel mix reaches
/// `maybe_compact_heap` while events are still being popped — the order
/// must survive a rebuild of the queue mid-drain, not only one before the
/// first pop.
#[test]
fn queue_fires_like_a_sorted_model() {
    queue_model_case();
    let seen = COMPACTIONS_MID_DRAIN.load(Ordering::Relaxed);
    assert!(seen > 0, "no case compacted the queue mid-drain");
    println!("queue model: {seen} compactions observed mid-drain");
}

// ---------------------------------------------------------------------------
// `Deadline` vs the eager cancel + reschedule it stands in for
// ---------------------------------------------------------------------------

mod deadline_model {
    use super::*;
    use simcore::{Ctx, Deadline, Model, TimerId};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    const TIMERS: usize = 3;
    /// Every delay and gap is a small multiple of this, so restarts, wakes,
    /// expiries and foreign events keep landing on the same instants.
    const STEP: u64 = 100;

    #[derive(Debug, Clone, Copy)]
    pub enum Op {
        /// Restart timer `.0` to expire `.1` steps from now.
        Set(usize, u64),
        Clear(usize),
        /// A logging event of some other component, `.0` steps from now.
        Foreign(u64),
        /// A packet delivered `.0` steps from now, or (`None`) after the run
        /// has ended, so it is still queued when the context is dropped.
        Deliver(Option<u64>),
        /// Cancel the latest packet (a no-op if it was delivered already).
        Cancel,
    }

    pub fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..TIMERS, 0u64..9).prop_map(|(i, d)| Op::Set(i, d)),
            (0..TIMERS, 0u64..9).prop_map(|(i, d)| Op::Set(i, d)),
            (0..TIMERS).prop_map(Op::Clear),
            (0u64..9).prop_map(Op::Foreign),
            (0u64..9).prop_map(|d| Op::Deliver(Some(d))),
            Just(Op::Deliver(None)),
            Just(Op::Cancel),
        ]
    }

    pub struct W {
        lazy: bool,
        timers: [Deadline; TIMERS],
        eager: [Option<TimerId>; TIMERS],
        /// Wakes queued per timer (lazy runs): what `set` and `expired`
        /// added to the queue, less the wakes that fired.
        queued: [usize; TIMERS],
        /// What each expiry does next: restart itself by that many steps,
        /// clear itself, or (list exhausted) return still set, as `on_rto`
        /// does on a closed socket.
        after: [VecDeque<Option<u64>>; TIMERS],
        /// `(now, who, seqs drawn so far)` of every handler run, foreign
        /// event and delivery: one log, so it pins the order between them
        /// too.
        log: Vec<(u64, usize, u64)>,
        /// Queued packets, by packet id.
        pkts: Vec<TimerId>,
        /// Times each packet has been dropped, by packet id.
        drops: Rc<RefCell<Vec<u32>>>,
    }

    /// A packet that counts its drops: queued, it must be dropped exactly
    /// once whether it is delivered, cancelled, or still queued when the
    /// context goes.
    pub struct Pkt {
        id: usize,
        who: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Pkt {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    impl Model for W {
        type Packet = Pkt;
        type Timer = usize;
        fn deliver(&mut self, ctx: &mut Ctx<Self>, pkt: Pkt) {
            assert_eq!(self.drops.borrow()[pkt.id], 0, "packet {} dropped before delivery", pkt.id);
            self.log.push((ctx.now().as_nanos(), pkt.who, ctx.next_seq()));
        }
        fn timer(&mut self, ctx: &mut Ctx<Self>, i: usize) {
            if self.lazy {
                self.queued[i] -= 1;
            }
            on_timer(self, ctx, i)
        }
    }

    /// Run `f` on timer `i` and account for what it queued: never more than
    /// one wake per timer.
    fn counted<R>(w: &mut W, ctx: &mut Ctx<W>, i: usize, f: impl FnOnce(&mut Deadline, &mut Ctx<W>) -> R) -> R {
        let before = ctx.pending_events();
        let r = f(&mut w.timers[i], ctx);
        w.queued[i] = w.queued[i] + ctx.pending_events() - before;
        assert!(w.queued[i] <= 1, "timer {i} has two events queued");
        r
    }

    fn set(w: &mut W, ctx: &mut Ctx<W>, i: usize, steps: u64) {
        let d = Dur::from_nanos(steps * STEP);
        if w.lazy {
            counted(w, ctx, i, |t, ctx| t.set(ctx, d, i));
        } else {
            if let Some(id) = w.eager[i].take() {
                ctx.cancel(id);
            }
            let seq = ctx.reserve_seq();
            let at = ctx.now() + d;
            w.eager[i] = Some(ctx.schedule_timer_at_seq(at, seq, i));
        }
    }

    fn clear(w: &mut W, ctx: &mut Ctx<W>, i: usize) {
        if w.lazy {
            w.timers[i].clear();
        } else if let Some(id) = w.eager[i].take() {
            ctx.cancel(id);
        }
    }

    fn on_timer(w: &mut W, ctx: &mut Ctx<W>, i: usize) {
        if w.lazy && !counted(w, ctx, i, |t, ctx| t.expired(ctx, i)) {
            return;
        }
        w.log.push((ctx.now().as_nanos(), i, ctx.next_seq()));
        match w.after[i].pop_front() {
            Some(Some(steps)) => set(w, ctx, i, steps),
            Some(None) => clear(w, ctx, i),
            None => {}
        }
    }

    /// Run `script` (gap before each op in steps, then the op) and return
    /// the log and the final clock.
    pub fn run(script: &[(u64, Op)], after: &[Option<u64>], lazy: bool) -> (Vec<(u64, usize, u64)>, u64) {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut w = W {
            lazy,
            timers: Default::default(),
            eager: [None; TIMERS],
            queued: [0; TIMERS],
            after: Default::default(),
            log: Vec::new(),
            pkts: Vec::new(),
            drops: Rc::clone(&drops),
        };
        for (k, &a) in after.iter().enumerate() {
            w.after[k % TIMERS].push_back(a);
        }
        let mut rt = Runtime::new(w, 7);
        let script = script.to_vec();
        rt.spawn("driver", move |env: ProcEnv<W>| async move {
            let mut t = 0;
            env.with(|_, ctx| {
                for (k, &(gap, op)) in script.iter().enumerate() {
                    t += gap * STEP;
                    ctx.schedule_in(Dur::from_nanos(t), move |w: &mut W, ctx| match op {
                        Op::Set(i, steps) => set(w, ctx, i, steps),
                        Op::Clear(i) => clear(w, ctx, i),
                        Op::Foreign(steps) => {
                            ctx.schedule_in(Dur::from_nanos(steps * STEP), move |w: &mut W, ctx| {
                                w.log.push((ctx.now().as_nanos(), TIMERS + k, ctx.next_seq()));
                            });
                        }
                        Op::Deliver(steps) => {
                            let id = w.pkts.len();
                            w.drops.borrow_mut().push(0);
                            let pkt = Pkt { id, who: TIMERS + k, drops: Rc::clone(&w.drops) };
                            let at = ctx.now() + Dur::from_nanos(steps.unwrap_or(1_000) * STEP);
                            w.pkts.push(ctx.schedule_deliver(at, pkt));
                        }
                        Op::Cancel => {
                            if let Some((id, &tid)) = w.pkts.iter().enumerate().last() {
                                ctx.cancel(tid);
                                assert_eq!(w.drops.borrow()[id], 1, "a cancel drops the packet at once");
                            }
                        }
                    });
                }
            });
            // Outlive every wake, including those of cleared timers.
            env.sleep(Dur::from_nanos(t + 100 * STEP)).await;
        });
        let out = rt.run();
        // The context is gone: every packet, delivered, cancelled or still
        // queued, was dropped once.
        assert!(drops.borrow().iter().all(|&n| n == 1), "packet drop counts {:?}", drops.borrow());
        (out.world.log, out.sim_time.as_nanos())
    }
}

proptest! {
    /// A lazily re-queued [`simcore::Deadline`] is indistinguishable from
    /// cancelling and rescheduling on every restart: every handler and every
    /// foreign event runs at the same time, in the same order, with the same
    /// number of seqs drawn before it, and the run ends on the same clock —
    /// while the deadline never has more than one event in the queue. The
    /// packets queued among them are each dropped exactly once: delivered,
    /// cancelled, or left queued when the run ends.
    #[test]
    fn deadline_matches_eager_cancel_then_schedule(
        script in prop::collection::vec((0u64..4, deadline_model::op()), 1..40),
        after in prop::collection::vec(prop_oneof![(0u64..9).prop_map(Some), Just(None)], 0..12),
    ) {
        let lazy = deadline_model::run(&script, &after, true);
        let eager = deadline_model::run(&script, &after, false);
        prop_assert_eq!(lazy, eager);
    }
}

/// The one restart that costs a cancel and an insert: to an instant earlier
/// than the queued wake (the rescue probe armed after a full RTO). The
/// handler must run at the earlier instant, once, and not again at the old.
#[test]
fn deadline_restart_to_an_earlier_instant() {
    use deadline_model::{run, Op};
    let script = [(0, Op::Set(0, 8)), (1, Op::Set(0, 2)), (0, Op::Foreign(2))];
    let lazy = run(&script, &[], true);
    assert_eq!(lazy, run(&script, &[], false));
    // Script ops drew seqs 0..3 and the sleep 3; the restarts drew 4 and 5,
    // the foreign event 6. The expiry at 300 ns precedes the foreign event
    // scheduled after it for the same instant.
    assert_eq!(lazy.0, vec![(300, 0, 7), (300, 5, 7)]);
}
