//! Diagnostic probe: one CMT bulk-stream (or ping-pong) cell with full
//! transport counters — the companion to `cmt` for dissecting a single
//! grid point. Stalls show up as a large gap between `sim` seconds and
//! `bytes/rate`; for the per-path timer/recovery edges behind one, run the
//! `cmt` figure under `TRACE=1` and read the capture with `analyze`.
//!
//! Usage: `probe_cmt [loss] [paths] [count] [seed] [bufs_kb]` plus flags:
//! `--nocmt` (multihomed without striping), `--pingpong` (strict
//! alternation instead of the one-way stream), `--flap` (run under the
//! `cmt` figure's fault-composition plan).

use bench_harness::{cmt_fault_plan, CMT_BUFS, CMT_STREAM_MSG};
use mpi_core::MpiCfg;
use workloads::pingpong::{run, run_stream, PingPongCfg, StreamCfg};

fn main() {
    let arg = |n: usize| std::env::args().nth(n);
    let loss: f64 = arg(1).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let paths: u8 = arg(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let count: u32 = arg(3).and_then(|s| s.parse().ok()).unwrap_or(256);
    let seed: u64 = arg(4).and_then(|s| s.parse().ok()).unwrap_or(bench_harness::SEED_BASE);
    let bufs: u64 = arg(5).and_then(|s| s.parse().ok()).map_or(CMT_BUFS, |kb: u64| kb * 1024);
    let cmt = !std::env::args().any(|a| a == "--nocmt") && paths > 1;

    let mut m = MpiCfg::sctp(2, loss).with_seed(seed).with_sctp_bufs(bufs, bufs).with_cmt(cmt);
    m.sctp.num_paths = paths;
    if std::env::args().any(|a| a == "--flap") {
        m.fault_plan = cmt_fault_plan();
    }
    let r = if std::env::args().any(|a| a == "--pingpong") {
        run(m, PingPongCfg { size: 220 * 1024 - 64, iters: count })
    } else {
        run_stream(m, StreamCfg { size: CMT_STREAM_MSG, count })
    };
    println!(
        "loss={loss} paths={paths} cmt={cmt} count={count} seed={seed:#x}: \
         {:.1} MB/s over {:.4}s sim ({} events)",
        r.throughput / 1e6,
        r.secs,
        r.events
    );
    println!(
        "  pkts/path={:?} rtx={} fast={} rescue={} spurious={} to={} failovers={}",
        r.sctp.per_path_pkts,
        r.sctp.retransmits,
        r.sctp.fast_retransmits,
        r.sctp.rescue_rtx,
        r.sctp.spurious_frtx,
        r.sctp.timeouts,
        r.sctp.failovers,
    );
    println!(
        "  dup_tsns_in={} sacks_in={} drops: loss={} queue={} down={}",
        r.sctp.dup_tsns_in,
        r.sctp.sacks_in,
        r.net.drops_loss,
        r.net.drops_queue,
        r.net.drops_down,
    );
}
