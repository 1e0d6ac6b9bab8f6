//! The flight recorder's hard invariant: tracing is observation, never
//! participation. Any fig10 `--quick` cell run with the recorder on must
//! produce results bit-identical to the same cell with it off — same
//! figure stdout, same `events_total`, same every runtime meter.
//!
//! The recorder is toggled through `MpiCfg::trace` (not the `TRACE` env
//! var) so parallel test threads cannot race on process environment, and
//! so no file sinks are written (those are additionally gated on
//! `TRACE=1`).

use proptest::prelude::*;

use bench_harness::{farm_cfg, Scale, SEED_BASE};
use mpi_core::MpiCfg;
use workloads::farm;

/// The full fig10 `--quick` cell space: task size × loss × transport ×
/// seed, exactly as `farm_figure_metered(Quick, 1)` enumerates it (plus
/// the extra seeds paper-scale would use).
fn cell_space() -> impl Strategy<Value = (usize, f64, u8, u64)> {
    (
        prop_oneof![Just(30 * 1024usize), Just(300 * 1024)],
        prop_oneof![Just(0.0f64), Just(0.01), Just(0.02)],
        0u8..3,
        0u64..3,
    )
}

fn mk_cfg(rpi: u8, loss: f64, seed: u64, trace: bool) -> MpiCfg {
    let mk = [MpiCfg::sctp, MpiCfg::tcp, MpiCfg::tcp_era][rpi as usize];
    let mut cfg = mk(8, loss).with_seed(SEED_BASE + seed);
    cfg.trace = trace;
    cfg
}

/// Renders the cell the way `bin/fig10.rs` renders its column, so "bit-
/// identical stdout" is asserted on the actual displayed string, not just
/// the underlying float.
fn cell_stdout(r: &farm::FarmResult) -> String {
    format!("{:.1}", r.secs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fig10_quick_cells_are_bit_identical_with_tracing_on(cell in cell_space()) {
        let (task, loss, rpi, seed) = cell;
        let farm = farm_cfg(Scale::Quick, task, 1);
        let off = farm::run(mk_cfg(rpi, loss, seed, false), farm);
        let on = farm::run(mk_cfg(rpi, loss, seed, true), farm);
        // The whole report — simulated seconds, events fired, every
        // runtime meter, unexpected-queue peak — must agree bit for
        // bit (FarmResult is Copy + Debug: the format is exhaustive).
        prop_assert_eq!(format!("{off:?}"), format!("{on:?}"));
        prop_assert_eq!(off.secs.to_bits(), on.secs.to_bits());
        prop_assert_eq!(off.events, on.events);
        prop_assert_eq!(cell_stdout(&off), cell_stdout(&on));
    }
}

#[test]
fn fig10_quick_figure_is_bit_identical_with_tracing_on() {
    // End to end over the exact fig10 --quick cell grid: the rendered
    // per-cell strings and the event totals must not notice the recorder.
    let mut totals = [0u64; 2];
    let mut tables = [String::new(), String::new()];
    for (i, traced) in [false, true].into_iter().enumerate() {
        for &task in &[30 * 1024, 300 * 1024] {
            for &loss in &[0.0, 0.01, 0.02] {
                for rpi in 0u8..3 {
                    let r = farm::run(mk_cfg(rpi, loss, 0, traced), farm_cfg(Scale::Quick, task, 1));
                    totals[i] += r.events;
                    tables[i].push_str(&format!("{} {loss} {rpi} {}\n", task, cell_stdout(&r)));
                }
            }
        }
    }
    assert_eq!(tables[0], tables[1], "fig10 --quick cell table differs with tracing on");
    assert_eq!(totals[0], totals[1], "events_total differs with tracing on");
}
