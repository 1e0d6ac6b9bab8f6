//! A5 — Concurrent Multipath Transfer (the paper's §2.1/§5 forward pointer
//! to Iyengar et al.): stripe one association's data across all three of
//! the testbed's networks. A one-way bulk stream approaches N× single-path
//! throughput; the same stream under loss shows CMT's resilience (per-path
//! congestion state, SFR accounting, rescue probes). The strict ping-pong
//! view, the send-buffer sweep, and a fault-plane composition (bursty loss
//! + a primary flap) ride in the same run.

use mpi_core::MpiCfg;
use transport::sctp::AssocStats;
use workloads::pingpong::{self, PingPongCfg, PingPongResult, StreamCfg};

use crate::faults::{BURST_LOSS_BAD, BURST_MEAN_PKTS};
use crate::runner::{self, Cell};
use crate::{arg, mean, positionals, row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// A (workload × path/CMT config × loss) point with the transport counters
/// that explain it. `workload` is `"stream"` (one-way bulk, the paper-style
/// CMT metric) or `"pingpong"` (strict alternation — the latency-bound
/// view); `per_path_pkts` is the stripe balance (SACKs ride the primary);
/// `rescue_rtx` counts tail losses recovered by the ~2·SRTT rescue probe
/// instead of an RTO; SFR keeps `spurious_frtx` — fast retransmits a later
/// SACK proved unnecessary — near 0.
const CMT_GRID: &[Col] = &[
    Col("workload", "", Fmt::Plain),
    Col("paths", "paths", Fmt::Plain),
    Col("cmt", "CMT", Fmt::Plain),
    Col("loss", "loss", Fmt::Pct(1)),
    Col("mb_per_s", "MB/s", Fmt::Fix(1, "")),
    Col("per_path_pkts", "pkts/path", Fmt::Plain),
    Col("timeouts", "RTO", Fmt::Plain),
    Col("fast_rtx", "frtx", Fmt::Plain),
    Col("rescue_rtx", "rescue", Fmt::Plain),
    Col("spurious_frtx", "spurious", Fmt::Plain),
];

/// The send-buffer sweep: 3-path CMT bulk stream at 0 % loss.
const CMT_BUFS_COLS: &[Col] = &[Col("sndbuf_kb", "sndbuf", Fmt::Fix(0, "K")), Col("mb_per_s", "MB/s", Fmt::Fix(1, ""))];

/// The fault-composition table: the bulk stream under [`cmt_fault_plan`]
/// with CMT on or off.
const CMT_FAULT: &[Col] = &[
    Col("cmt", "CMT", Fmt::Plain),
    Col("secs", "secs", Fmt::Fix(3, "")),
    Col("mb_per_s", "MB/s", Fmt::Fix(1, "")),
    Col("failovers", "failovers", Fmt::Plain),
    Col("rescue_rtx", "rescue", Fmt::Plain),
];

/// The three path configurations every CMT table compares, in output order.
const CMT_CONFIGS: [(u8, bool); 3] = [(1, false), (3, false), (3, true)];

/// Bulk-stream message size: just under the 64 KB eager threshold, so the
/// MPI layer hands messages straight to the transport and successive sends
/// pipeline. Rendezvous handshakes serialize message starts and cap the
/// 3-path aggregate near 2.5× no matter the buffer size.
const CMT_STREAM_MSG: usize = 64 * 1024 - 64;

/// Strict ping-pong message size: rendezvous, one socket buffer's worth.
const CMT_PINGPONG_MSG: usize = 220 * 1024 - 64;

/// Socket-buffer size for the CMT grid cells: the paper testbed's 220 KB.
/// The buffer sweep in [`cmt`] measures the sensitivity and shows the
/// stripe is *not* window-limited from here up — in-flight data is bounded
/// by the 3-path BDP (~tens of KB), and oversizing the send buffer only
/// deepens the bottleneck queues until they tail-drop.
const CMT_BUFS: u64 = 220 * 1024;

/// Acceptance floor for 3-path CMT aggregation over one path at 0 % loss.
const CMT_AGG_MIN: f64 = 2.7;

/// The fault-composition plan for the CMT flap cell: Gilbert–Elliott
/// bursty loss at a 1 % long-run average on every link, plus the primary
/// network (interface 0) flapping down for 20–80 ms — early enough to
/// strand in-flight chunks on path 0 mid-stream.
fn cmt_fault_plan() -> netsim::FaultPlan {
    netsim::FaultPlan {
        burst_loss: vec![netsim::BurstLossRule::matched(
            netsim::Scope::ALL,
            0.01,
            BURST_LOSS_BAD,
            BURST_MEAN_PKTS,
        )],
        flaps: vec![netsim::FlapRule {
            scope: netsim::Scope::on_iface(0),
            from_ns: 20_000_000,
            until_ns: 80_000_000,
        }],
        ..Default::default()
    }
}

fn cmt_cfg(paths: u8, cmt: bool, loss: f64, seed: u64, bufs: u64) -> MpiCfg {
    let mut m = MpiCfg::sctp(2, loss).with_seed(seed).with_sctp_bufs(bufs, bufs).with_cmt(cmt);
    m.sctp.num_paths = paths;
    m
}

/// One-way stream of `count` eager messages, or (`stream` false) strict
/// ping-pong of `count` rendezvous messages.
fn cmt_run(cfg: MpiCfg, stream: bool, count: u32) -> PingPongResult {
    if stream {
        pingpong::run_stream(cfg, StreamCfg { size: CMT_STREAM_MSG, count })
    } else {
        pingpong::run(cfg, PingPongCfg { size: CMT_PINGPONG_MSG, iters: count })
    }
}

/// Runs the grids and asserts the acceptance shape: ≥ [`CMT_AGG_MIN`]×
/// aggregation at 0 % loss, no inversion against single-path at any loss
/// rate, and SFR keeping the stream table's spurious marks ~0.
pub fn cmt(scale: Scale) -> FigureOutput {
    // The stream cells need enough messages that one fast-recovery cycle
    // doesn't dominate the transfer: at 256 messages a lucky single-path
    // run can beat a striped run that absorbed one extra loss burst.
    let (count, iters, runs): (u32, u32, usize) = match scale {
        Scale::Paper => (4096, 200, 3),
        Scale::Quick => (1024, 40, 1),
    };
    let stream_losses = [0.0, 0.005, 0.01, 0.02];
    let pp_losses = [0.0, 0.01];
    let bufs_kb: [u64; 3] = [220, 512, 1024];

    let mut specs: Vec<(&'static str, u8, bool, f64)> = Vec::new();
    for (workload, losses) in [("stream", &stream_losses[..]), ("pingpong", &pp_losses[..])] {
        for &loss in losses {
            for (paths, cmt) in CMT_CONFIGS {
                specs.push((workload, paths, cmt, loss));
            }
        }
    }

    // Cells in table order: the grids, then the buffer sweep, then the
    // fault-composition pair.
    let cell = |label: String, cfg: MpiCfg, stream: bool| {
        Cell::new(label, move || cmt_run(cfg.clone(), stream, if stream { count } else { iters }))
    };
    let mut cells = Vec::new();
    for &(workload, paths, cmt, loss) in &specs {
        for s in 0..runs as u64 {
            let seed = SEED_BASE + s;
            cells.push(cell(
                format!("{workload} paths={paths} cmt={cmt} loss={loss} seed={seed:#x}"),
                cmt_cfg(paths, cmt, loss, seed, CMT_BUFS),
                workload == "stream",
            ));
        }
    }
    for &kb in &bufs_kb {
        cells.push(cell(
            format!("bufsweep stream paths=3 cmt=true loss=0 sndbuf={kb}K"),
            cmt_cfg(3, true, 0.0, SEED_BASE, kb * 1024),
            true,
        ));
    }
    for cmt in [false, true] {
        let mut cfg = cmt_cfg(3, cmt, 0.0, SEED_BASE, CMT_BUFS);
        cfg.fault_plan = cmt_fault_plan();
        cells.push(cell(format!("fault flap+ge stream paths=3 cmt={cmt}"), cfg, true));
    }

    let (results, report) = runner::run_cells("cmt", scale, cells, Some(cmt_fault_plan().to_json()));
    let (grid, rest) = results.split_at(specs.len() * runs);
    let (buf_results, fault_results) = rest.split_at(bufs_kb.len());

    // Grid points: mean throughput over seeds, counters from the first seed
    // (each seed is independently replayable from its cell label).
    let points: Vec<(f64, AssocStats)> =
        grid.chunks_exact(runs).map(|seeds| (mean(seeds, |r| r.throughput) / 1e6, seeds[0].sctp)).collect();

    // Acceptance shape (A5): CMT must aggregate, and never invert.
    let mb_per_s = |workload: &str, paths: u8, cmt: bool, loss: f64| {
        let at = specs.iter().position(|&s| s == (workload, paths, cmt, loss)).expect("cell present");
        points[at].0
    };
    for (workload, losses) in [("stream", &stream_losses[..]), ("pingpong", &pp_losses[..])] {
        for &loss in losses {
            let (single, striped) = (mb_per_s(workload, 1, false, loss), mb_per_s(workload, 3, true, loss));
            assert!(
                striped >= single,
                "{workload}: CMT must never lose to single-path: loss={loss} {striped:.1} vs {single:.1} MB/s"
            );
        }
    }
    let agg = mb_per_s("stream", 3, true, 0.0) / mb_per_s("stream", 1, false, 0.0);
    assert!(
        agg >= CMT_AGG_MIN,
        "3-path CMT must aggregate ≥{CMT_AGG_MIN}× at 0% loss, got {agg:.2}×"
    );
    for (spec, (_, s)) in specs.iter().zip(&points).filter(|(spec, _)| spec.0 == "stream") {
        // SFR quality: cross-path reordering must not masquerade as loss.
        assert!(
            s.spurious_frtx <= s.fast_retransmits / 4 + 4,
            "spurious fast-rtx out of band: {spec:?} {s:?}"
        );
    }

    let grid_table = |workload: &str| {
        let rows = specs.iter().zip(&points).filter(|(spec, _)| spec.0 == workload);
        Table::new(
            CMT_GRID,
            rows.map(|(&(workload, paths, cmt, loss), &(mb_per_s, s))| {
                let per_path = s.per_path_pkts[..paths as usize].to_vec();
                row![
                    workload,
                    paths,
                    cmt,
                    loss,
                    mb_per_s,
                    per_path,
                    s.timeouts,
                    s.fast_retransmits,
                    s.rescue_rtx,
                    s.spurious_frtx
                ]
            }),
        )
    };
    let (stream, pingpong) = (grid_table("stream"), grid_table("pingpong"));
    let bufs =
        Table::new(CMT_BUFS_COLS, bufs_kb.iter().zip(buf_results).map(|(&kb, r)| row![kb, r.throughput / 1e6]));
    let fault = Table::new(
        CMT_FAULT,
        [false, true]
            .into_iter()
            .zip(fault_results)
            .map(|(cmt, r)| row![cmt, r.secs, r.throughput / 1e6, r.sctp.failovers, r.sctp.rescue_rtx]),
    );
    FigureOutput::new(report)
        .table("A5: CMT bulk stream (one-way, 64K eager messages)", &stream)
        .table("A5: CMT strict ping-pong (220K rendezvous messages)", &pingpong)
        .table("send-buffer sweep (3-path CMT stream, 0% loss)", &bufs)
        .table("fault composition: GE bursty loss (1% avg) + 20-80ms primary flap", &fault)
        .line(&format!(
            "expected: CMT over 3 paths aggregates >={CMT_AGG_MIN}x a single path at 0% loss \
             and never loses to it under loss; multihoming without CMT does not aggregate"
        ))
        .file(scale, "cmt", &stream)
        .file(scale, "cmt_pingpong", &pingpong)
        .file(scale, "cmt_bufs", &bufs)
        .file(scale, "cmt_fault", &fault)
}

/// One CMT bulk-stream (or ping-pong) cell with full transport counters —
/// the companion to [`cmt`] for dissecting a single grid point. Stalls show
/// up as a large gap between `sim` seconds and `bytes/rate`; for the
/// per-path timer/recovery edges behind one, run it under `TRACE=1` and
/// read the capture with `analyze`.
///
/// `args`: `[loss] [paths] [count] [seed] [bufs_kb]` plus flags: `--nocmt`
/// (multihomed without striping), `--pingpong` (strict alternation instead
/// of the one-way stream), `--flap` (run under [`cmt_fault_plan`]).
pub fn probe_cmt(scale: Scale, args: &[String]) -> Result<FigureOutput, String> {
    let pos = positionals(args, &["--nocmt", "--pingpong", "--flap"], 5)?;
    let flag = |f: &str| args.iter().any(|a| a == f);
    let loss: f64 = arg(&pos, 0, 0.0)?;
    let paths: u8 = arg(&pos, 1, 3)?;
    let count: u32 = arg(&pos, 2, 256)?;
    let seed: u64 = arg(&pos, 3, SEED_BASE)?;
    let bufs: u64 = arg(&pos, 4, CMT_BUFS / 1024)? * 1024;
    let cmt = !flag("--nocmt") && paths > 1;

    let mut m = cmt_cfg(paths, cmt, loss, seed, bufs);
    if flag("--flap") {
        m.fault_plan = cmt_fault_plan();
    }
    let stream = !flag("--pingpong");
    let label = format!("loss={loss} paths={paths} cmt={cmt} count={count} seed={seed:#x}");
    let cells = vec![Cell::new(label.clone(), move || cmt_run(m.clone(), stream, count))];
    let (results, report) = runner::run_cells("probe_cmt", scale, cells, None);
    let r = &results[0];
    let out = FigureOutput::new(report)
        .line(&format!(
            "{label}: {:.1} MB/s over {:.4}s sim ({} events)",
            r.throughput / 1e6,
            r.secs,
            r.events
        ))
        .line(&format!(
            "  pkts/path={:?} rtx={} fast={} rescue={} spurious={} to={} failovers={}",
            r.sctp.per_path_pkts,
            r.sctp.retransmits,
            r.sctp.fast_retransmits,
            r.sctp.rescue_rtx,
            r.sctp.spurious_frtx,
            r.sctp.timeouts,
            r.sctp.failovers,
        ))
        .line(&format!(
            "  dup_tsns_in={} sacks_in={} drops: loss={} queue={} down={}",
            r.sctp.dup_tsns_in,
            r.sctp.sacks_in,
            r.net.drops_loss,
            r.net.drops_queue,
            r.net.drops_down,
        ));
    Ok(out)
}
