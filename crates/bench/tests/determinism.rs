//! Same seed ⇒ same trace. The parallel harness is only sound because every
//! cell is an independent deterministic simulation; these tests pin that
//! property down for both RPIs, with loss enabled so the retransmission
//! machinery (the code the SACK fast paths rewrote) is on the trace.

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg};

use bench_harness::{farm_figure_metered, fig8_metered, human_size, render_table, Scale};

/// One fig8-style ping-pong exchange, returning the full run report
/// (events fired + every transport counter).
fn pingpong_report(cfg: MpiCfg, size: usize, iters: u32) -> String {
    let report = mpirun(cfg, move |mpi| {
        Box::pin(async move {
            let data = Bytes::from(vec![0u8; size]);
            match mpi.rank() {
                0 => {
                    for _ in 0..iters {
                        mpi.send(1, 0, data.clone()).await;
                        let _ = mpi.recv(Some(1), Some(0)).await;
                    }
                }
                1 => {
                    for _ in 0..iters {
                        let _ = mpi.recv(Some(0), Some(0)).await;
                        mpi.send(0, 0, data.clone()).await;
                    }
                }
                _ => {}
            }
        })
    });
    format!("{report:?}")
}

#[test]
fn same_seed_same_trace_for_tcp_and_sctp() {
    // 2% loss exercises SACK gap blocks, fast retransmit, and T3 — the
    // paths whose bookkeeping moved onto the O(1) aggregates.
    for (name, cfg) in [("tcp", MpiCfg::tcp(2, 0.02)), ("sctp", MpiCfg::sctp(2, 0.02))] {
        let a = pingpong_report(cfg.clone().with_seed(0xBA5E), 30 * 1024, 10);
        let b = pingpong_report(cfg.with_seed(0xBA5E), 30 * 1024, 10);
        assert_eq!(a, b, "{name}: identical seeds must give identical reports");
    }
}

#[test]
fn different_seeds_change_the_trace_under_loss() {
    // Sanity check that the comparison above is not vacuous: loss draws
    // come from the seeded RNG, so a different seed perturbs the trace.
    let a = pingpong_report(MpiCfg::sctp(2, 0.02).with_seed(1), 30 * 1024, 10);
    let b = pingpong_report(MpiCfg::sctp(2, 0.02).with_seed(2), 30 * 1024, 10);
    assert_ne!(a, b);
}

/// Renders fig10's stdout table exactly as `bin/fig10.rs` does, so the
/// assertion below really is "the figure the user sees is byte-identical".
fn fig10_quick_table(threads: &str) -> (String, u64) {
    std::env::set_var("BENCH_THREADS", threads);
    let (rows, bench) = farm_figure_metered(Scale::Quick, 1);
    std::env::remove_var("BENCH_THREADS");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                human_size(r.task_bytes),
                format!("{:.0}%", r.loss * 100.0),
                format!("{:.1}", r.sctp_secs),
                format!("{:.1}", r.tcp_secs),
                format!("{:.1}", r.tcp_era_secs),
                format!("{:.2}x", r.ratio_tcp_over_sctp),
                format!("{:.2}x", r.ratio_era),
            ]
        })
        .collect();
    let out = render_table(
        "Figure 10: Bulk Processor Farm, Fanout 1 (total run time, s)",
        &["task", "loss", "SCTP s", "TCP s", "TCPera s", "TCP/SCTP", "era/SCTP"],
        &table,
    );
    (out, bench.events_total)
}

#[test]
fn fig10_quick_stdout_is_thread_count_invariant() {
    // The overhaul's hard constraint: handoff/coalescing changes may move
    // wall-clock, never results. A sequential run and a 4-worker run must
    // produce byte-identical figure output and identical event totals.
    let (seq, ev_seq) = fig10_quick_table("1");
    let (par, ev_par) = fig10_quick_table("4");
    assert_eq!(seq, par, "fig10 --quick stdout differs between BENCH_THREADS=1 and 4");
    assert_eq!(ev_seq, ev_par);
}

#[test]
fn fig8_quick_rows_and_metering_are_reproducible() {
    let (rows_a, bench_a) = fig8_metered(Scale::Quick);
    let (rows_b, bench_b) = fig8_metered(Scale::Quick);
    assert_eq!(rows_a.len(), rows_b.len());
    for (a, b) in rows_a.iter().zip(&rows_b) {
        assert_eq!(a.size, b.size);
        // Bit-exact: aggregation happens in cell order regardless of how
        // the worker pool interleaved the cells.
        assert_eq!(a.tcp_tput.to_bits(), b.tcp_tput.to_bits(), "size={}", a.size);
        assert_eq!(a.sctp_tput.to_bits(), b.sctp_tput.to_bits(), "size={}", a.size);
    }
    // Wall-clock differs run to run; the simulation-side meters must not.
    for (ca, cb) in bench_a.cells.iter().zip(&bench_b.cells) {
        assert_eq!(ca.label, cb.label);
        assert_eq!(ca.events_fired, cb.events_fired, "cell {}", ca.label);
        assert_eq!(ca.sim_secs.to_bits(), cb.sim_secs.to_bits(), "cell {}", ca.label);
    }
    assert_eq!(bench_a.events_total, bench_b.events_total);
}
