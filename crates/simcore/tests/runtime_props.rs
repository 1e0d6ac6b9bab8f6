//! Discipline-equivalence property tests for the runtime fast path.
//!
//! The runtime coalesces wakes (suppressing wakes aimed at a
//! process parked in `sleep`, advancing uncontended sleeps inline) and
//! batches CPU charges. All of that is wall-clock optimisation only: under
//! any interleaving of park/wake/charge the observable schedule — world
//! mutations, their order, timestamps, event counts, final sim time — must
//! be bit-identical to the pre-overhaul reference discipline, which issues
//! one full poll per wake and per sleep. These tests drive both
//! disciplines over random programs and demand exactly that.

use proptest::prelude::*;
use simcore::{set_reference_discipline, Dur, ProcEnv, ProcId, Runtime};

/// One step of a process's scripted behaviour.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Park in `sleep` for a duration — the coalescing fast-path target.
    Sleep(u64),
    /// Two back-to-back short charges, like `cost.rs` billing CPU around a
    /// progress pass.
    Charge(u64),
    /// Deposit into `q`'s mailbox and wake it (possibly a self-wake, and
    /// possibly aimed at a process that is running, parked, or sleeping —
    /// the suppression cases).
    Ping(usize),
    /// Record (proc, step, now) in the shared log.
    Log,
}

fn ops(n_procs: usize) -> impl Strategy<Value = Vec<Op>> {
    let one = prop_oneof![
        (1u64..3_000).prop_map(Op::Sleep),
        (1u64..200).prop_map(Op::Charge),
        (0..n_procs).prop_map(Op::Ping),
        Just(Op::Log),
    ];
    prop::collection::vec(one, 0..12)
}

#[derive(Default)]
struct W {
    log: Vec<(usize, usize, u64)>,
    pings: Vec<u32>,
}

/// Runs the scripted program once and returns everything observable:
/// the log, the ping counters, final sim time, and events fired.
fn run_once(scripts: &[Vec<Op>], reference: bool) -> (Vec<(usize, usize, u64)>, Vec<u32>, u64, u64) {
    let n = scripts.len();
    // How many pings each process must eventually see: its block_on target.
    let mut expected = vec![0u32; n];
    for s in scripts {
        for op in s {
            if let Op::Ping(q) = op {
                expected[*q] += 1;
            }
        }
    }
    let mut rt = Runtime::new(W { log: Vec::new(), pings: vec![0; n] }, 12);
    for (p, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let want = expected[p];
        rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| async move {
            for (i, &op) in script.iter().enumerate() {
                match op {
                    Op::Sleep(d) => env.sleep(Dur::from_nanos(d)).await,
                    Op::Charge(d) => {
                        env.sleep(Dur::from_nanos(d)).await;
                        env.sleep(Dur::from_nanos(d / 2 + 1)).await;
                    }
                    Op::Ping(q) => env.with(move |w, ctx| {
                        w.pings[q] += 1;
                        ctx.wake(ProcId(q));
                    }),
                    Op::Log => {
                        let t = env.now().as_nanos();
                        env.with(move |w, _| w.log.push((p, i, t)));
                    }
                }
            }
            // Park until every ping aimed at us has landed; the wakes come
            // from the pingers, so this exercises wake-after-park,
            // wake-before-park, and wake-during-sleep orderings.
            env.block_on(move |w, _| (w.pings[p] >= want).then_some(())).await;
        });
    }
    set_reference_discipline(reference);
    let out = rt.run();
    set_reference_discipline(false);
    (out.world.log, out.world.pings, out.sim_time.as_nanos(), out.events)
}

/// The ROADMAP's "10 000-rank job starts in one process": a token ring of
/// 10 000 processes, three laps. Each process blocks on its slot, charges
/// 1 µs, and wakes its neighbour, so the ring is strictly serial: simulated
/// time and the event count are both exactly one per hop.
#[test]
fn ten_thousand_process_token_ring() {
    const N: usize = 10_000;
    const LAPS: u32 = 3;
    struct Ring {
        tokens: Vec<u32>,
        hops: u64,
    }
    let mut tokens = vec![0; N];
    tokens[0] = 1;
    let mut rt = Runtime::new(Ring { tokens, hops: 0 }, 3);
    for p in 0..N {
        rt.spawn(format!("p{p}"), move |env: ProcEnv<Ring>| async move {
            for _ in 0..LAPS {
                env.block_on(|w, _| (w.tokens[p] > 0).then(|| w.tokens[p] -= 1)).await;
                env.sleep(Dur::from_micros(1)).await;
                env.with(|w, ctx| {
                    w.hops += 1;
                    w.tokens[(p + 1) % N] += 1;
                    ctx.wake(ProcId((p + 1) % N));
                });
            }
        });
    }
    let out = rt.run();
    let hops = N as u64 * LAPS as u64;
    assert!(!out.hit_deadline);
    assert_eq!(out.world.hops, hops);
    assert_eq!(out.sim_time.as_nanos(), hops * 1_000, "one 1 µs charge per hop, strictly serial");
    assert_eq!(out.events, hops, "one sleep timer (fired or advanced inline) per hop");
    // The last hop hands the token back to process 0, which has finished.
    assert_eq!(out.world.tokens.iter().sum::<u32>(), 1);
}

proptest! {
    /// Fast discipline ≡ reference discipline: same log (order and
    /// timestamps), same counters, same final time, same event count.
    #[test]
    fn fast_discipline_matches_reference(scripts in prop::collection::vec(ops(3), 3..4)) {
        let fast = run_once(&scripts, false);
        let reference = run_once(&scripts, true);
        prop_assert_eq!(fast, reference);
    }

    /// The fast discipline is deterministic against itself (same program,
    /// two runs), so the comparison above can't pass by accident of both
    /// sides being equally scrambled.
    #[test]
    fn fast_discipline_is_self_deterministic(scripts in prop::collection::vec(ops(4), 4..5)) {
        prop_assert_eq!(run_once(&scripts, false), run_once(&scripts, false));
    }
}
