//! Property tests for the CMT multipath scheduler.
//!
//! Three contracts, each load-bearing for the `cmt` figure:
//!
//! 1. **Determinism** — a CMT run is a pure function of its config + seed.
//!    The stripe rotation, per-path timers, and rescue probes all draw
//!    from the per-run RNG; re-running the same cell must reproduce every
//!    counter bit-for-bit, or the parallel harness (and `SIM_CHECK`)
//!    would be unsound.
//! 2. **Discipline equivalence** — the reference discipline (one timer
//!    and one poll per sleep, every wake polled) and the fast discipline
//!    (inline sleep advances, suppressed wakes) must agree on CMT runs
//!    exactly as they do on single-path runs; the per-destination timer
//!    plane must not depend on pop order.
//! 3. **`cmt: false` isolation** — multihoming without CMT keeps the
//!    original failover-only engine: at zero loss every packet stays on
//!    the primary path and the run is bit-identical to a single-homed
//!    association. New-data striping must be gated on the knob alone.
//!
//! The process-global discipline flag means these tests must not
//! interleave; they serialize on one mutex.

use std::sync::Mutex;

use mpi_core::MpiCfg;
use proptest::prelude::*;
use workloads::pingpong::{run, run_stream, PingPongCfg, PingPongResult, StreamCfg};

/// Serializes every test in this binary: `set_reference_discipline` is
/// process-global, so a determinism case running concurrently with a
/// discipline flip would observe a mid-run switch.
static DISCIPLINE_LOCK: Mutex<()> = Mutex::new(());

fn cfg(paths: u8, cmt: bool, loss: f64, seed: u64) -> MpiCfg {
    let mut m = MpiCfg::sctp(2, loss)
        .with_seed(seed)
        .with_sctp_bufs(220 * 1024, 220 * 1024)
        .with_cmt(cmt);
    m.sctp.num_paths = paths;
    m
}

/// Full-fidelity fingerprint: every public field, float bits included
/// (Debug prints enough digits to round-trip f64).
fn fingerprint(r: &PingPongResult) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Contract 1: same config + seed ⇒ bit-identical run, with the
    /// CMT machinery (striping, SFR, rescue probes) fully engaged.
    #[test]
    fn cmt_stream_is_deterministic(
        loss in prop_oneof![Just(0.0), Just(0.005), Just(0.02)],
        paths in 2u8..=3,
        seed in any::<u64>(),
    ) {
        let _g = DISCIPLINE_LOCK.lock().unwrap();
        let c = StreamCfg { size: 8 * 1024, count: 64 };
        let a = run_stream(cfg(paths, true, loss, seed), c);
        let b = run_stream(cfg(paths, true, loss, seed), c);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Contract 2: reference (timer per sleep) and fast (inline-advance,
    /// wake-suppressing) disciplines agree on CMT runs — the
    /// per-destination timer plane must not depend on pop order.
    #[test]
    fn cmt_matches_reference_discipline(
        loss in prop_oneof![Just(0.0), Just(0.01)],
        cmt in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let _g = DISCIPLINE_LOCK.lock().unwrap();
        let c = StreamCfg { size: 8 * 1024, count: 48 };
        let fast = run_stream(cfg(3, cmt, loss, seed), c);
        simcore::set_reference_discipline(true);
        let reference = run_stream(cfg(3, cmt, loss, seed), c);
        simcore::set_reference_discipline(false);
        // Everything in a PingPongResult is wall-clock-free, but its
        // `sched` block differs between disciplines by design, so compare
        // the simulation-visible outcome.
        prop_assert_eq!(fast.secs.to_bits(), reference.secs.to_bits());
        prop_assert_eq!(fast.throughput.to_bits(), reference.throughput.to_bits());
        prop_assert_eq!(format!("{:?}", fast.sctp), format!("{:?}", reference.sctp));
        prop_assert_eq!(format!("{:?}", fast.net), format!("{:?}", reference.net));
    }

    /// Contract 3: without CMT, a 3-homed association at zero loss is the
    /// old failover engine — all data on the primary, simulation-visible
    /// outcome identical to single-homing. Striping is gated on the knob.
    #[test]
    fn cmt_off_is_failover_only(seed in any::<u64>()) {
        let _g = DISCIPLINE_LOCK.lock().unwrap();
        let c = StreamCfg { size: 8 * 1024, count: 64 };
        let multi = run_stream(cfg(3, false, 0.0, seed), c);
        let single = run_stream(cfg(1, false, 0.0, seed), c);
        prop_assert_eq!(multi.sctp.per_path_pkts[1], 0);
        prop_assert_eq!(multi.sctp.per_path_pkts[2], 0);
        prop_assert_eq!(multi.secs.to_bits(), single.secs.to_bits());
        prop_assert_eq!(multi.throughput.to_bits(), single.throughput.to_bits());
    }

    /// Contract 1 again on the rendezvous path: strict ping-pong with
    /// messages above the eager threshold exercises the CTS round-trip
    /// under striping.
    #[test]
    fn cmt_rendezvous_is_deterministic(
        loss in prop_oneof![Just(0.0), Just(0.01)],
        seed in any::<u64>(),
    ) {
        let _g = DISCIPLINE_LOCK.lock().unwrap();
        let c = PingPongCfg { size: 96 * 1024, iters: 6 };
        let a = run(cfg(3, true, loss, seed), c);
        let b = run(cfg(3, true, loss, seed), c);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
