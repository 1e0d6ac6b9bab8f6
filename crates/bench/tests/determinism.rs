//! Same seed ⇒ same trace. The parallel harness is only sound because every
//! cell is an independent deterministic simulation; these tests pin that
//! property down for both RPIs, with loss enabled so the retransmission
//! machinery (the code the SACK fast paths rewrote) is on the trace.

use mpi_core::MpiCfg;
use workloads::pingpong::{self, PingPongCfg};

use bench_harness::{figure, section, FigureOutput, Scale};

/// One fig8-style ping-pong exchange, returning the full run result
/// (events fired + every transport and network counter).
fn pingpong_report(cfg: MpiCfg, size: usize, iters: u32) -> String {
    format!("{:?}", pingpong::run(cfg, PingPongCfg { size, iters }))
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

/// One registry entry at `--quick`, as `bench <name> --quick` runs it.
fn quick(name: &str) -> FigureOutput {
    figure(name).expect(name).run(Scale::Quick, &[]).expect(name)
}

fn fig10_quick(threads: &str) -> (String, u64) {
    std::env::set_var("BENCH_THREADS", threads);
    let out = quick("fig10");
    std::env::remove_var("BENCH_THREADS");
    (out.stdout, out.report.events_total)
}

#[test]
fn fig10_quick_stdout_is_thread_count_invariant() {
    // The overhaul's hard constraint: poll/coalescing changes may move
    // wall-clock, never results. A sequential run and a 4-worker run must
    // produce byte-identical figure output and identical event totals.
    let (seq, ev_seq) = fig10_quick("1");
    let (par, ev_par) = fig10_quick("4");
    assert_eq!(seq, par, "fig10 --quick stdout differs between BENCH_THREADS=1 and 4");
    assert_eq!(ev_seq, ev_par);
}

#[test]
fn fig8_quick_rows_and_metering_are_reproducible() {
    let (a, b) = (quick("fig8"), quick("fig8"));
    // Bit-exact: aggregation happens in cell order regardless of how the
    // worker pool interleaved the cells, and the row file prints every
    // float to round-trip precision.
    assert_eq!(a.files, b.files);
    // Wall-clock differs run to run; the simulation-side meters must not.
    for (ca, cb) in a.report.cells.iter().zip(&b.report.cells) {
        assert_eq!(ca.label, cb.label);
        assert_eq!(ca.events_fired, cb.events_fired, "cell {}", ca.label);
        assert_eq!(ca.sim_secs.to_bits(), cb.sim_secs.to_bits(), "cell {}", ca.label);
    }
    assert_eq!(a.report.events_total, b.report.events_total);
}

/// `name`'s section of a `bench all` transcript, header and blank line
/// included.
fn golden_section<'a>(golden: &'a str, name: &str) -> &'a str {
    let head = format!("===== {name} =====\n");
    let rest = &golden[golden.find(&head).unwrap_or_else(|| panic!("no section {name}"))..];
    let end = rest[head.len()..].find("\n===== ").map_or(rest.len(), |i| head.len() + i + 1);
    &rest[..end]
}

#[test]
fn cheap_figures_match_the_committed_quick_transcript() {
    // `bench all --quick` wrote the golden file; the entries cheap enough
    // for a debug build are rendered again through the same table.
    let golden = include_str!("../../../results/all_figures_quick.txt");
    for name in [
        "fig8", "table1", "fig9", "failover", "flap", "interleave", "incast", "tenants", "ablate_cc",
        "scalability",
    ] {
        let out = quick(name);
        assert_eq!(section(name, &out.stdout), golden_section(golden, name), "{name} --quick drifted");
        // No structural zeros: a group only for a layer that ran in the
        // cell, and every run under the process runtime was polled.
        let sharded = matches!(name, "incast" | "tenants");
        for c in &out.report.cells {
            let has = |layer: &str| c.layers.iter().any(|(name, _)| *name == layer);
            assert!(has("sched") && !has("udp"), "{name} `{}`: {:?}", c.label, c.layers);
            assert_eq!(has("shard"), sharded, "{name} `{}`", c.label);
            assert_eq!(has("net") && (has("sctp") || has("tcp")), !sharded, "{name} `{}`", c.label);
            let polls = c.counter("sched", "polls_total");
            assert!(if sharded { polls.is_none() } else { polls > Some(0) }, "{name} `{}`: {polls:?}", c.label);
        }
    }
}
