//! The fault plane's hard invariant: an empty (or all-zero, i.e. no-op)
//! [`netsim::FaultPlan`] is *exactly* no fault plane — any fig10 `--quick`
//! cell run with such a plan installed must be bit-identical to the same
//! cell without one: same figure stdout, same events fired, same every
//! runtime meter, zero extra RNG draws.
//!
//! This is what keeps PR-less figure output stable: installing the fault
//! machinery cost nothing unless a plan actually does something.

use proptest::prelude::*;

use bench_harness::{farm_cfg, flap_plan, Scale, SEED_BASE};
use mpi_core::MpiCfg;
use netsim::{BurstLossRule, DegradeRule, FaultPlan, FlapRule, JitterRule, Scope};
use workloads::farm;

/// A plan whose every rule is a no-op: zero-probability chain, empty flap
/// window, zero jitter, non-degrading factor. Must prune to the empty fast
/// path, not merely "draw and never act".
fn all_zero_plan() -> FaultPlan {
    FaultPlan {
        burst_loss: vec![BurstLossRule {
            scope: Scope::ALL,
            p_gb: 0.0,
            p_bg: 0.5,
            loss_good: 0.0,
            loss_bad: 0.0,
        }],
        flaps: vec![FlapRule { scope: Scope::ALL, from_ns: 700, until_ns: 700 }],
        jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: 0, reorder_bound: 4 }],
        degrade: vec![DegradeRule { scope: Scope::ALL, from_ns: 0, until_ns: 1 << 40, factor: 1.0 }],
    }
}

/// The full fig10 `--quick` cell space: task size × loss × transport ×
/// seed, exactly as `farm_figure_metered(Quick, 1)` enumerates it.
fn cell_space() -> impl Strategy<Value = (usize, f64, u8, u64)> {
    (
        prop_oneof![Just(30 * 1024usize), Just(300 * 1024)],
        prop_oneof![Just(0.0f64), Just(0.01), Just(0.02)],
        0u8..3,
        0u64..3,
    )
}

fn mk_cfg(rpi: u8, loss: f64, seed: u64, plan: FaultPlan) -> MpiCfg {
    let mk = [MpiCfg::sctp, MpiCfg::tcp, MpiCfg::tcp_era][rpi as usize];
    let mut cfg = mk(8, loss).with_seed(SEED_BASE + seed);
    cfg.fault_plan = plan;
    cfg
}

/// Renders the cell the way `bin/fig10.rs` renders its column.
fn cell_stdout(r: &farm::FarmResult) -> String {
    format!("{:.1}", r.secs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fig10_quick_cells_are_bit_identical_under_noop_plan(cell in cell_space()) {
        let (task, loss, rpi, seed) = cell;
        let farm = farm_cfg(Scale::Quick, task, 1);
        let off = farm::run(mk_cfg(rpi, loss, seed, FaultPlan::default()), farm);
        let empty = farm::run(mk_cfg(rpi, loss, seed, FaultPlan::default()), farm);
        let zeroed = farm::run(mk_cfg(rpi, loss, seed, all_zero_plan()), farm);
        // Determinism baseline: two identical runs agree...
        prop_assert_eq!(format!("{off:?}"), format!("{empty:?}"));
        // ...and the all-zero plan is indistinguishable from no plan on the
        // whole report (FarmResult is Copy + Debug: the format is
        // exhaustive) and on the rendered figure column.
        prop_assert_eq!(format!("{off:?}"), format!("{zeroed:?}"));
        prop_assert_eq!(off.secs.to_bits(), zeroed.secs.to_bits());
        prop_assert_eq!(off.events, zeroed.events);
        prop_assert_eq!(cell_stdout(&off), cell_stdout(&zeroed));
    }
}

#[test]
fn fig10_quick_figure_is_bit_identical_under_noop_plan() {
    // End to end over the exact fig10 --quick cell grid.
    let mut totals = [0u64; 2];
    let mut tables = [String::new(), String::new()];
    for (i, zeroed) in [false, true].into_iter().enumerate() {
        for &task in &[30 * 1024, 300 * 1024] {
            for &loss in &[0.0, 0.01, 0.02] {
                for rpi in 0u8..3 {
                    let plan = if zeroed { all_zero_plan() } else { FaultPlan::default() };
                    let r = farm::run(mk_cfg(rpi, loss, 0, plan), farm_cfg(Scale::Quick, task, 1));
                    totals[i] += r.events;
                    tables[i].push_str(&format!("{} {loss} {rpi} {}\n", task, cell_stdout(&r)));
                }
            }
        }
    }
    assert_eq!(tables[0], tables[1], "fig10 --quick cell table differs under a no-op plan");
    assert_eq!(totals[0], totals[1], "events_total differs under a no-op plan");
}

#[test]
fn flap_runs_are_replayable() {
    // Same plan + same seed ⇒ byte-identical results, run to run. This is
    // the replay contract the BENCH-json `fault_plan` field relies on.
    let farm = farm_cfg(Scale::Quick, 30 * 1024, 10);
    let mk = || {
        let mut m = MpiCfg::sctp(8, 0.0).with_seed(SEED_BASE);
        m.sctp.num_paths = 3;
        m.sctp.heartbeat_interval = Some(simcore::Dur::from_millis(500));
        m.sctp.path_max_retrans = 2;
        m.fault_plan = flap_plan();
        m
    };
    let a = farm::run(mk(), farm);
    let b = farm::run(mk(), farm);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "flap runs must replay byte-identically");
    assert!(a.sctp.failovers >= 1, "the flap must force a failover: {a:?}");
    // And the plan itself replays through its JSON form.
    let plan = flap_plan();
    let back = netsim::FaultPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(plan, back);
}

/// Delay jitter with reordering, the one fault no figure uses, pinned for
/// both transports: a 64 KiB stream whose deliveries are jittered by up to
/// 40 µs with up to 3 packets overtaking each. A jittered packet can arrive
/// before one queued ahead of it on the same downlink, so these are the
/// runs where a delivery is inserted mid-lane instead of appended. The rows are
/// `(events, sim ns, payload bytes delivered, retransmits)`; any drift is a
/// behaviour change, and on a mismatch the test prints the actual rows.
#[test]
fn jitter_cells_are_pinned() {
    use workloads::pingpong::{run_stream, StreamCfg};
    let plan = FaultPlan {
        jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: 40_000, reorder_bound: 3 }],
        ..FaultPlan::default()
    };
    let want: [(&str, [u64; 4]); 2] = [("sctp", [7407, 104134616, 6556072, 12]), ("tcp", [13017, 56817536, 6556072, 67])];
    let got = [("sctp", MpiCfg::sctp(2, 0.0)), ("tcp", MpiCfg::tcp(2, 0.0))].map(|(name, cfg)| {
        let mut cfg = cfg.with_seed(SEED_BASE);
        cfg.fault_plan = plan.clone();
        let r = run_stream(cfg, StreamCfg { size: 64 * 1024, count: 100 });
        let (bytes, rtx) = match name {
            "sctp" => (r.sctp.bytes_in, r.sctp.retransmits),
            _ => (r.tcp.bytes_in, r.tcp.retransmits),
        };
        (name, [r.events, (r.secs * 1e9).round() as u64, bytes, rtx])
    });
    for (name, row) in &got {
        eprintln!("(\"{name}\", {row:?}),");
    }
    assert_eq!(got, want, "pinned jitter cells drifted (actual rows above)");
}
