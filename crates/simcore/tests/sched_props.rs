//! Property tests for the simulation core: event ordering, determinism,
//! and runtime scheduling invariants.

use proptest::prelude::*;
use simcore::{Dur, ProcEnv, Runtime, SimTime};

proptest! {
    /// Events always fire in (time, insertion) order, regardless of the
    /// insertion order of their deadlines.
    #[test]
    fn event_order_is_total(delays in prop::collection::vec(0u64..1000, 1..50)) {
        #[derive(Default)]
        struct W {
            fired: Vec<(u64, usize)>,
        }
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

/// One randomized timer in the wheel-vs-heap equivalence test: a delay that
/// may land in a wheel bucket (with forced ties), near the horizon boundary,
/// or far beyond it (heap), plus an optional cancellation — immediate or
/// scheduled from a separate canceller event.
#[derive(Debug, Clone, Copy)]
enum Cancel {
    Keep,
    Immediate,
    /// Cancel from an event fired at this delay (no-op if the target
    /// already fired, exactly like the real API).
    At(u64),
}

fn timer_op() -> impl Strategy<Value = (u64, Cancel)> {
    use simcore::sched::{WHEEL2_GRAIN_NS, WHEEL2_HORIZON_NS, WHEEL_GRAIN_NS, WHEEL_HORIZON_NS};
    let delay = prop_oneof![
        // Same-bucket and same-instant collisions inside the L1 wheel.
        (0u64..48).prop_map(|x| x * (WHEEL_GRAIN_NS / 2)),
        // Anywhere inside the L1 horizon.
        0u64..WHEEL_HORIZON_NS,
        // Straddling the L1 boundary and beyond it (second-level wheel).
        (WHEEL_HORIZON_NS - 2 * WHEEL_GRAIN_NS)..(4 * WHEEL_HORIZON_NS),
        // Straddling the L2 boundary and far beyond it (heap fallback).
        (WHEEL2_HORIZON_NS - 2 * WHEEL2_GRAIN_NS)..(2 * WHEEL2_HORIZON_NS),
    ];
    let cancel = prop_oneof![
        Just(Cancel::Keep),
        Just(Cancel::Keep),
        Just(Cancel::Keep),
        Just(Cancel::Immediate),
        (0u64..2 * WHEEL_HORIZON_NS).prop_map(Cancel::At),
    ];
    (delay, cancel)
}

proptest! {
    /// The hierarchical wheel + heap queue fires exactly what a plain
    /// `BinaryHeap<(time, seq)>` model says it should, in exactly that
    /// order, under random scheduling and cancellation on both sides of the
    /// wheel horizon — scheduled from a random, usually non-grain-aligned
    /// `now` (regression: near-horizon delays from an unaligned `now` used
    /// to wrap into the scan-start bucket and fire early). Cancelled timers
    /// never fire; cancelling an already-fired timer is a no-op.
    #[test]
    fn wheel_fires_like_a_binary_heap(
        base in 0u64..2 * simcore::sched::WHEEL_GRAIN_NS,
        ops in prop::collection::vec(timer_op(), 1..60),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Model: timer i gets seq i; canceller k (in op order) gets seq
        // n + k. A cancel is effective iff the canceller's (time, seq)
        // orders before its target's — with seq_c >= n > i, that reduces to
        // a strictly earlier timestamp.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, &(d, c)) in ops.iter().enumerate() {
            let dead = match c {
                Cancel::Immediate => true,
                Cancel::At(tc) => tc < d,
                Cancel::Keep => false,
            };
            if !dead {
                heap.push(Reverse((d, i)));
            }
        }
        let mut expected = Vec::new();
        while let Some(Reverse((at, i))) = heap.pop() {
            expected.push((base + at, i));
        }

        struct W {
            fired: Vec<(u64, usize)>,
            ids: Vec<simcore::TimerId>,
        }
        let mut rt = Runtime::new(W { fired: Vec::new(), ids: Vec::new() }, 11);
        let plan = ops.clone();
        rt.spawn("sched", move |env: ProcEnv<W>| async move {
            // Land on an arbitrary (usually non-grain-aligned) `now` first:
            // the wheel wrap regression only reproduces when `now` does not
            // sit on a bucket boundary.
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
                                ctx.cancel(w.ids[i]);
                            });
                        }
                    }
                }
            });
            // Outlive every timer and canceller.
            env.sleep(Dur::from_nanos(3 * simcore::sched::WHEEL2_HORIZON_NS)).await;
        });
        let out = rt.run();
        prop_assert_eq!(out.world.fired, expected);
    }
}

// ---------------------------------------------------------------------------
// Batched rearm vs the open-coded cancel + schedule it replaces
// ---------------------------------------------------------------------------

proptest! {
    /// `reschedule_in(Some(id), d, f)` is observably identical to the
    /// two-call `cancel_counted(id); schedule_in(d, f)` pattern it batches:
    /// same live-fire sequence, same `events` total (ghosts included), same
    /// final simulated time — over arbitrary rearm storms, including rearms
    /// that land after the target already fired (stale-id no-ops).
    #[test]
    fn batched_rearm_matches_cancel_then_schedule(
        plan in prop::collection::vec((1u64..5_000, 1u64..5_000), 1..24)
    ) {
        #[derive(Default)]
        struct W {
            fired: Vec<u64>,
            pending: Option<simcore::TimerId>,
        }
        fn target_fire(w: &mut W, ctx: &mut simcore::Ctx<W>) {
            w.fired.push(ctx.now().as_nanos());
            w.pending = None;
        }
        fn run(plan: &[(u64, u64)], batched: bool) -> (Vec<u64>, u64, u64) {
            let plan = plan.to_vec();
            let mut rt = Runtime::new(W::default(), 7);
            rt.spawn("driver", move |env: ProcEnv<W>| async move {
                env.with(|w, ctx| {
                    w.pending = Some(ctx.schedule_in(Dur::from_nanos(500), target_fire));
                    // Rearm events at cumulative offsets; each retires the
                    // pending target (if still live) and arms a fresh one.
                    let mut t = 0u64;
                    for &(gap, delay) in &plan {
                        t += gap;
                        ctx.schedule_in(Dur::from_nanos(t), move |w: &mut W, ctx| {
                            let prev = w.pending.take();
                            let id = if batched {
                                ctx.reschedule_in(prev, Dur::from_nanos(delay), target_fire)
                            } else {
                                if let Some(p) = prev {
                                    ctx.cancel_counted(p);
                                }
                                ctx.schedule_in(Dur::from_nanos(delay), target_fire)
                            };
                            w.pending = Some(id);
                        });
                    }
                });
                // Outlive the last possible rearm target.
                env.sleep(Dur::from_nanos(plan.iter().map(|&(g, _)| g).sum::<u64>() + 10_000)).await;
            });
            let out = rt.run();
            (out.world.fired, out.events, out.sim_time.as_nanos())
        }
        let a = run(&plan, true);
        let b = run(&plan, false);
        prop_assert_eq!(a, b);
    }
}
