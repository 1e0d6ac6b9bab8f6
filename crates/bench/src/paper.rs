//! The paper's own experiments: Figure 8, Table 1, Figures 9–12 (E1–E6),
//! the congestion-control, race-fix and select() ablations (A1, A2, A4),
//! and Figure 8 again over real sockets. EXPERIMENTS.md discusses each.

use bytes::Bytes;
use mpi_core::{mpirun, ContextMap, MpiCfg, MpiReport, RaceFix, TransportSel};
use netsim::NetCfg;
use workloads::farm::{self, FarmCfg, FarmResult};
use workloads::nas::{self, Class, Kernel};
use workloads::pingpong::{self, PingPongCfg, PingPongResult};

use crate::runner::{self, BenchReport, Cell};
use crate::json::{Json, ToJson};
use crate::{human_size, mean, row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// The three transports the loss experiments compare, in output order;
/// `tcp-era` is TCP without scoreboard recovery (the paper-era stack).
fn transports3() -> [(&'static str, fn(u16, f64) -> MpiCfg); 3] {
    [("sctp", MpiCfg::sctp), ("tcp", MpiCfg::tcp), ("tcp-era", MpiCfg::tcp_era)]
}

fn pingpong_cell(label: String, cfg: MpiCfg, pp: PingPongCfg) -> Cell<PingPongResult> {
    Cell::new(label, move || pingpong::run(cfg.clone(), pp))
}

// ---------------------------------------------------------------------------
// E1 — Figure 8: ping-pong throughput vs message size, no loss
// ---------------------------------------------------------------------------

/// One size of the sweep: (bytes, TCP throughput, SCTP throughput).
pub type Fig8Point = (usize, f64, f64);

/// `normalized` is SCTP throughput over TCP's, the paper's y-axis.
const FIG8: &[Col] = &[
    Col("size", "size", Fmt::Size),
    Col("tcp_tput", "TCP B/s", Fmt::Fix(0, "")),
    Col("sctp_tput", "SCTP B/s", Fmt::Fix(0, "")),
    Col("normalized", "SCTP/TCP", Fmt::Fix(3, "")),
];

fn fig8_table(points: &[Fig8Point]) -> Table {
    Table::new(FIG8, points.iter().map(|&(size, tcp, sctp)| row![size, tcp, sctp, sctp / tcp]))
}

/// The paper sweeps message sizes 1 B .. 128 KB; `iters` exchanges each.
pub(crate) fn fig8_sweep(scale: Scale) -> (Vec<usize>, u32) {
    match scale {
        Scale::Paper => (
            vec![1, 16, 64, 256, 1024, 4096, 8192, 16384, 22528, 32768, 49152, 65535, 98302, 131069],
            200,
        ),
        Scale::Quick => (vec![64, 4096, 22528, 131069], 20),
    }
}

fn pingpong_sweep(scale: Scale) -> (Vec<Fig8Point>, BenchReport) {
    let (sizes, iters) = fig8_sweep(scale);
    let mut cells = Vec::new();
    for &size in &sizes {
        let pp = PingPongCfg { size, iters };
        cells.push(pingpong_cell(format!("size={size} rpi=tcp"), MpiCfg::tcp(2, 0.0), pp));
        cells.push(pingpong_cell(format!("size={size} rpi=sctp"), MpiCfg::sctp(2, 0.0), pp));
    }
    let (results, report) = runner::run_cells("fig8", scale, cells, None);
    let points = sizes
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&size, pair)| (size, pair[0].throughput, pair[1].throughput))
        .collect();
    (points, report)
}

/// The message size at which SCTP first matches TCP (paper: ≈ 22 KB).
fn fig8_crossover(points: &[Fig8Point]) -> Option<usize> {
    points.iter().find(|&&(_, tcp, sctp)| sctp / tcp >= 1.0).map(|p| p.0)
}

pub fn fig8(scale: Scale) -> FigureOutput {
    let (points, report) = pingpong_sweep(scale);
    let crossover = match fig8_crossover(&points) {
        Some(size) => format!("crossover (SCTP >= TCP) at ~{} (paper: ~22K)", human_size(size)),
        None => "no crossover found in the sweep (paper: ~22K)".to_string(),
    };
    let table = fig8_table(&points);
    FigureOutput::new(report)
        .table("Figure 8: ping-pong throughput, 0% loss (SCTP normalized to TCP)", &table)
        .line(&crossover)
        .file(scale, "fig8", &table)
}

/// The Figure 8 sweep over real UDP sockets on loopback: same sizes,
/// iteration counts, metric and report schema as [`fig8`], which is the
/// simulated twin.
pub fn pingpong_live(scale: Scale) -> FigureOutput {
    let (points, report) = crate::live::live_fig8(scale);
    // How well the socket path batched: 1.0 is a syscall per frame.
    let batching: Vec<String> = report
        .cells
        .iter()
        .filter(|c| c.counter("udp", "tx_frames").is_some())
        .map(|c| {
            let n = |key| c.counter("udp", key).unwrap_or(0);
            format!(
                "{}: {} frames in {} send calls ({:.1} per call), {} in {} receive calls ({:.1} per call)",
                c.label.trim_end_matches(" live"),
                n("tx_frames"),
                n("tx_calls"),
                n("tx_frames") as f64 / n("tx_calls").max(1) as f64,
                n("rx_frames"),
                n("rx_calls"),
                n("rx_frames") as f64 / n("rx_calls").max(1) as f64,
            )
        })
        .collect();
    let table = fig8_table(&points);
    let out = batching.iter().fold(FigureOutput::new(report), |out, line| out.line(line));
    out.table("Live ping-pong over UDP loopback (SCTP normalized to TCP)", &table)
        .file(scale, "pingpong_live", &table)
}

// ---------------------------------------------------------------------------
// E2 — Table 1: ping-pong under loss
// ---------------------------------------------------------------------------

const TABLE1: &[Col] = &[
    Col("size", "size", Fmt::Size),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("sctp_tput", "SCTP", Fmt::Fix(0, "")),
    Col("tcp_tput", "TCP", Fmt::Fix(0, "")),
    Col("tcp_era_tput", "TCP-era", Fmt::Fix(0, "")),
    Col("ratio", "SCTP/TCP", Fmt::Fix(2, "x")),
    Col("ratio_era", "SCTP/TCP-era", Fmt::Fix(2, "x")),
];

pub fn table1(scale: Scale) -> FigureOutput {
    // The paper averages six runs; five keeps the era-TCP cells (80+
    // simulated seconds each) tractable.
    let (iters, runs): (u32, usize) = match scale {
        Scale::Paper => (120, 5),
        Scale::Quick => (8, 1),
    };
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &size in &[30 * 1024, 300 * 1024] {
        for &loss in &[0.01, 0.02] {
            keys.push((size, loss));
            let pp = PingPongCfg { size, iters };
            for (rpi, mk) in transports3() {
                for s in 0..runs as u64 {
                    let seed = SEED_BASE + s;
                    cells.push(pingpong_cell(
                        format!("size={size} loss={loss} rpi={rpi} seed={seed:#x}"),
                        mk(2, loss).with_seed(seed),
                        pp,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells("table1", scale, cells, None);
    let rows = keys.iter().zip(results.chunks_exact(3 * runs)).map(|(&(size, loss), chunk)| {
        let [sctp, tcp, tcp_era] = [0, 1, 2].map(|i| mean(&chunk[i * runs..(i + 1) * runs], |r| r.throughput));
        row![size, loss, sctp, tcp, tcp_era, sctp / tcp, sctp / tcp_era]
    });
    let table = Table::new(TABLE1, rows);
    FigureOutput::new(report)
        .table("Table 1: ping-pong throughput under loss (bytes/second)", &table)
        .line("paper: 30K: 28.5x @1%, 43.3x @2%; 300K: 3.2x @1%, 3.2x @2%")
        .file(scale, "table1", &table)
}

// ---------------------------------------------------------------------------
// E3 — Figure 9: NAS kernels, class B (plus the other classes)
// ---------------------------------------------------------------------------

const FIG9: &[Col] = &[
    Col("kernel", "kernel", Fmt::Plain),
    Col("class", "class", Fmt::Plain),
    Col("sctp_mops", "SCTP", Fmt::Fix(0, "")),
    Col("tcp_mops", "TCP", Fmt::Fix(0, "")),
    Col("ratio", "SCTP/TCP", Fmt::Fix(3, "")),
];

/// `args`: `--class S|W|A|B` (default B; `--quick` always runs class S).
pub fn fig9(scale: Scale, args: &[String]) -> Result<FigureOutput, String> {
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let asked = match words[..] {
        [] | ["--class", "B"] => Class::B,
        ["--class", "S"] => Class::S,
        ["--class", "W"] => Class::W,
        ["--class", "A"] => Class::A,
        _ => return Err(format!("takes `--class S|W|A|B`, got `{}`", words.join(" "))),
    };
    let class = match scale {
        Scale::Quick => Class::S,
        Scale::Paper => asked,
    };
    let mut cells = Vec::new();
    for &k in Kernel::ALL.iter() {
        for (rpi, mk) in [("sctp", MpiCfg::sctp as fn(u16, f64) -> MpiCfg), ("tcp", MpiCfg::tcp)] {
            cells.push(Cell::new(format!("kernel={} rpi={rpi}", k.name()), move || {
                nas::run(mk(8, 0.0), k, class)
            }));
        }
    }
    let (results, report) = runner::run_cells("fig9", scale, cells, None);
    let rows = Kernel::ALL.iter().zip(results.chunks_exact(2)).map(|(&k, pair)| {
        let (sctp, tcp) = (pair[0].mops_per_sec, pair[1].mops_per_sec);
        row![k.name(), class.name(), sctp, tcp, sctp / tcp]
    });
    let table = Table::new(FIG9, rows);
    Ok(FigureOutput::new(report)
        .table("Figure 9: NAS kernels (Mop/s total)", &table)
        .line("paper: SCTP ~ TCP on average; TCP slightly ahead on MG and BT")
        .file(scale, "fig9", &table))
}

// ---------------------------------------------------------------------------
// E4/E5 — Figures 10 & 11: the Bulk Processor Farm
// ---------------------------------------------------------------------------

/// `unexpected_peak` is the peak unexpected-queue length across all cells
/// of the row — the matching layer must keep it bounded (independent of
/// task count).
const FARM: &[Col] = &[
    Col("task_bytes", "task", Fmt::Size),
    Col("fanout", "", Fmt::Plain),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("sctp_secs", "SCTP s", Fmt::Fix(1, "")),
    Col("tcp_secs", "TCP s", Fmt::Fix(1, "")),
    Col("tcp_era_secs", "TCPera s", Fmt::Fix(1, "")),
    Col("ratio_tcp_over_sctp", "TCP/SCTP", Fmt::Fix(2, "x")),
    Col("ratio_era", "era/SCTP", Fmt::Fix(2, "x")),
    Col("unexpected_peak", "", Fmt::Plain),
];

pub fn farm_cfg(scale: Scale, task_bytes: usize, fanout: u32) -> FarmCfg {
    match scale {
        // 2 000 of the paper's 10 000 tasks: run times scale ~linearly in
        // task count, so compare the paper's totals divided by 5; the
        // TCP/SCTP *ratios* are task-count invariant. (10 000 tasks of
        // era-TCP at 2 % loss would run for hours of wall time.)
        Scale::Paper => FarmCfg { num_tasks: 2_000, ..FarmCfg::paper(task_bytes, fanout) },
        Scale::Quick => FarmCfg::small(task_bytes, fanout),
    }
}

pub(crate) fn farm_cell(label: String, cfg: MpiCfg, farm: FarmCfg) -> Cell<FarmResult> {
    Cell::new(label, move || farm::run(cfg.clone(), farm))
}

/// Seeds per farm cell: the paper reports the mean of repeated runs.
fn farm_runs(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    }
}

/// Runs the (task size × loss) grid of a three-transport farm figure, one
/// cell per (transport × seed) under `mk_cfg(transport ctor, loss, seed)`.
/// Returns per grid point the leading cells of its row — task size,
/// fanout, loss, the transports' mean run times and the two ratios — and
/// the peak unexpected-queue length over its cells.
pub(crate) fn farm_grid(
    fig: &str,
    scale: Scale,
    fanout: u32,
    (loss_label, losses): (&str, &[f64]),
    plan_json: Option<String>,
    mk_cfg: impl Fn(fn(u16, f64) -> MpiCfg, f64, u64) -> MpiCfg,
) -> (Vec<(Vec<Json>, u64)>, BenchReport) {
    let runs = farm_runs(scale);
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &task_bytes in &[30 * 1024, 300 * 1024] {
        for &loss in losses {
            keys.push((task_bytes, loss));
            let cfg = farm_cfg(scale, task_bytes, fanout);
            for (rpi, mk) in transports3() {
                for s in 0..runs as u64 {
                    let seed = SEED_BASE + s;
                    cells.push(farm_cell(
                        format!("task={task_bytes} {loss_label}={loss} rpi={rpi} seed={seed:#x}"),
                        mk_cfg(mk, loss, seed),
                        cfg,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells(fig, scale, cells, plan_json);
    let points = keys
        .iter()
        .zip(results.chunks_exact(3 * runs))
        .map(|(&(task_bytes, loss), chunk)| {
            let [sctp, tcp, tcp_era] = [0, 1, 2].map(|i| mean(&chunk[i * runs..(i + 1) * runs], |r| r.secs));
            let peak = chunk.iter().map(|r| r.unexpected_peak as u64).max().unwrap_or(0);
            (row![task_bytes, fanout, loss, sctp, tcp, tcp_era, tcp / sctp, tcp_era / sctp], peak)
        })
        .collect();
    (points, report)
}

/// Figure 10 (`fanout` 1) or Figure 11 (`fanout` 10, more head-of-line
/// blocking opportunity for TCP): total run time for short (30 KB) and
/// long (300 KB) tasks at 0/1/2 % loss.
pub fn farm_figure(scale: Scale, fanout: u32) -> FigureOutput {
    // Paper, fig10: short 5.9/79.9/131.5 s (TCP) vs 6.8/7.7/11.2 s (SCTP),
    // long 83/2080/4311 s vs 114/804/1595 s; fig11: short 6.2/88.1/154.7 s
    // vs 8.7/11.7/16.0 s, long 79/3103/6414 s vs 129/786/1585 s.
    let (fig, n, short, long) = if fanout == 1 {
        ("fig10", 10, "0.87x @0%, 10.4x @1%, 11.7x @2%", "0.73x @0%, 2.59x @1%, 2.70x @2%")
    } else {
        ("fig11", 11, "0.71x @0%, 7.5x @1%, 9.7x @2%", "0.61x @0%, 3.9x @1%, 4.0x @2%")
    };
    let (points, report) =
        farm_grid(fig, scale, fanout, ("loss", &[0.0, 0.01, 0.02]), None, |mk, loss, seed| {
            mk(8, loss).with_seed(seed)
        });
    let rows = points.into_iter().map(|(mut row, peak)| {
        row.push(peak.to_json());
        row
    });
    let table = Table::new(FARM, rows);
    FigureOutput::new(report)
        .table(&format!("Figure {n}: Bulk Processor Farm, Fanout {fanout} (total run time, s)"), &table)
        .line(&format!("paper (short): TCP/SCTP = {short}"))
        .line(&format!("paper (long):  TCP/SCTP = {long}"))
        .file(scale, fig, &table)
}

// ---------------------------------------------------------------------------
// E6 — Figure 12: 10 streams vs 1 stream (HOL isolation)
// ---------------------------------------------------------------------------

const FIG12: &[Col] = &[
    Col("task_bytes", "task", Fmt::Size),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("streams10_secs", "10 streams", Fmt::Fix(1, "")),
    Col("stream1_secs", "1 stream", Fmt::Fix(1, "")),
    Col("ratio_1_over_10", "1/10 ratio", Fmt::Fix(2, "x")),
];

/// SCTP with 10 streams vs a single stream, farm with fanout 10.
pub fn fig12(scale: Scale) -> FigureOutput {
    let runs = farm_runs(scale);
    let fanout = 10;
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &task_bytes in &[30 * 1024, 300 * 1024] {
        for &loss in &[0.0, 0.01, 0.02] {
            keys.push((task_bytes, loss));
            let cfg = farm_cfg(scale, task_bytes, fanout);
            for (label, mk) in [
                ("streams=10", MpiCfg::sctp as fn(u16, f64) -> MpiCfg),
                ("streams=1", MpiCfg::sctp_single_stream),
            ] {
                for s in 0..runs as u64 {
                    let seed = SEED_BASE + s;
                    cells.push(farm_cell(
                        format!("task={task_bytes} loss={loss} {label} seed={seed:#x}"),
                        mk(8, loss).with_seed(seed),
                        cfg,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells("fig12", scale, cells, None);
    let rows = keys.iter().zip(results.chunks_exact(2 * runs)).map(|(&(task_bytes, loss), chunk)| {
        let (ten, one) = chunk.split_at(runs);
        let (ten, one) = (mean(ten, |r| r.secs), mean(one, |r| r.secs));
        row![task_bytes, loss, ten, one, one / ten]
    });
    let table = Table::new(FIG12, rows);
    FigureOutput::new(report)
        .table("Figure 12: SCTP 10 streams vs 1 stream, farm Fanout 10 (s)", &table)
        .line("paper (short): 1.07x @0%, 0.94x @1%, 1.35x @2%")
        .line("paper (long):  1.00x @0%, 1.27x @1%, 1.23x @2%")
        .file(scale, "fig12", &table)
}

// ---------------------------------------------------------------------------
// A1 — the SCTP congestion-control features §4.1.1 credits
// ---------------------------------------------------------------------------

const ABLATE_CC: &[Col] = &[
    Col("variant", "variant", Fmt::Plain),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("tput", "throughput", Fmt::Fix(0, "")),
];

/// Unlimited SACK gap blocks and byte-counting cwnd growth, each switched
/// off in turn on the lossy 300 KB ping-pong of Table 1.
pub fn ablate_cc(scale: Scale) -> FigureOutput {
    let (iters, runs): (u32, usize) = match scale {
        Scale::Paper => (150, 4),
        Scale::Quick => (10, 1),
    };
    let pp = PingPongCfg { size: 300 * 1024, iters };
    let variants = [
        ("full SCTP", usize::MAX, true, false),
        ("3 gap blocks (TCP-like SACK)", 3usize, true, false),
        ("ack-counting cwnd", usize::MAX, false, false),
        ("both limits", 3, false, false),
        ("CRC32c enabled (SW checksum, §3.6)", usize::MAX, true, true),
    ];
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for loss in [0.01, 0.02] {
        for (variant, gaps, byte_cc, crc) in variants {
            keys.push((variant, loss));
            for s in 0..runs as u64 {
                let seed = SEED_BASE + s;
                let mut m = MpiCfg::sctp(2, loss).with_seed(seed);
                m.sctp.max_gap_blocks = gaps;
                m.sctp.byte_counting_cc = byte_cc;
                m.sctp.crc_enabled = crc;
                cells.push(pingpong_cell(format!("loss={loss} variant={variant} seed={seed:#x}"), m, pp));
            }
        }
    }
    let (results, report) = runner::run_cells("ablate_cc", scale, cells, None);
    let rows = keys
        .iter()
        .zip(results.chunks_exact(runs))
        .map(|(&(variant, loss), chunk)| row![variant, loss, mean(chunk, |r| r.throughput)]);
    let table = Table::new(ABLATE_CC, rows);
    FigureOutput::new(report)
        .table("Ablation A1: SCTP CC features under loss (300K ping-pong, B/s)", &table)
        .line("note: effects are modest and workload-dependent in this reproduction — the")
        .line("      headline SCTP wins come from HOL elimination and recovery structure")
        .file(scale, "ablate_cc", &table)
}

// ---------------------------------------------------------------------------
// A2 — Option A vs Option B (long-message race fixes, §3.4)
// ---------------------------------------------------------------------------

const ABLATE_RACE: &[Col] = &[
    Col("loss", "loss", Fmt::Pct(0)),
    Col("option_a_secs", "Option A", Fmt::Fix(1, "")),
    Col("option_b_secs", "Option B", Fmt::Fix(1, "")),
    Col("", "A/B", Fmt::Fix(2, "x")),
];

/// Option A (spin on the body write, no other sends progress) vs Option B
/// (per-stream write serialization, the shipped design).
pub fn ablate_race(scale: Scale) -> FigureOutput {
    let mut cells = Vec::new();
    let losses = [0.0, 0.01];
    for &loss in &losses {
        let cfg = farm_cfg(scale, 300 * 1024, 10);
        for (name, fix) in [("A", RaceFix::OptionA), ("B", RaceFix::OptionB)] {
            let mut m = MpiCfg::sctp(8, loss).with_seed(SEED_BASE);
            m.transport =
                TransportSel::Sctp { streams: 10, race_fix: fix, ctx_map: ContextMap::StreamHash };
            cells.push(farm_cell(format!("loss={loss} option={name}"), m, cfg));
        }
    }
    let (results, report) = runner::run_cells("ablate_race", scale, cells, None);
    let rows = losses
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&loss, pair)| row![loss, pair[0].secs, pair[1].secs, pair[0].secs / pair[1].secs]);
    let table = Table::new(ABLATE_RACE, rows);
    FigureOutput::new(report)
        .table("Ablation A2: long-message race fix, farm 300K fanout 10 (s)", &table)
        .line("expected: Option A >= Option B (serializing everything costs concurrency)")
        .file(scale, "ablate_race", &table)
}

// ---------------------------------------------------------------------------
// A4 — §3.3 scalability: select() over one socket per peer vs one-to-many
// ---------------------------------------------------------------------------

const SCALABILITY: &[Col] = &[
    Col("nprocs", "procs", Fmt::Plain),
    Col("tcp_us", "TCP", Fmt::Fix(1, "")),
    Col("tcp_noselect_us", "TCP no-select", Fmt::Fix(1, "")),
    Col("select_share_pct", "select share", Fmt::Fix(1, "%")),
    Col("sctp_us", "SCTP", Fmt::Fix(1, "")),
];

async fn ring(mpi: &mut mpi_core::Mpi, iters: u32, bytes: usize) {
    let n = mpi.size();
    let me = mpi.rank();
    let to = (me + 1) % n;
    let from = (me + n - 1) % n;
    for it in 0..iters {
        let s = mpi.isend(to, it as i32, Bytes::from(vec![0u8; bytes])).await;
        let r = mpi.irecv(Some(from), Some(it as i32)).await;
        mpi.waitall(&[s, r]).await;
    }
}

/// LAM-TCP polls one socket per peer with `select()`, whose cost grows
/// linearly in the descriptor count; the SCTP module's single one-to-many
/// socket pays O(1). Each process count runs a ring exchange on TCP twice —
/// with the modelled per-descriptor select cost and with it zeroed — and
/// reports the delta; the SCTP column (no select at all) is the reference.
pub fn scalability(scale: Scale) -> FigureOutput {
    let (sizes, iters): (&[u16], u32) = match scale {
        Scale::Paper => (&[2, 4, 8, 16, 32, 64, 96], 60),
        Scale::Quick => (&[2, 8, 24], 10),
    };
    let mut cells: Vec<Cell<MpiReport>> = Vec::new();
    for &n in sizes {
        let mut no_select = MpiCfg::tcp(n, 0.0);
        no_select.cost.select_base = simcore::Dur::ZERO;
        no_select.cost.select_per_sock = simcore::Dur::ZERO;
        for (rpi, mut cfg) in
            [("tcp", MpiCfg::tcp(n, 0.0)), ("tcp-noselect", no_select), ("sctp", MpiCfg::sctp(n, 0.0))]
        {
            cfg.nprocs = n;
            cfg.net = NetCfg { hosts: n, ..NetCfg::paper_cluster(0.0) };
            cells.push(Cell::new(format!("procs={n} rpi={rpi}"), move || {
                mpirun(cfg.clone(), move |mpi| Box::pin(ring(mpi, iters, 16 * 1024)))
            }));
        }
    }
    let (results, report) = runner::run_cells("scalability", scale, cells, None);
    let rows = sizes.iter().zip(results.chunks_exact(3)).map(|(&nprocs, three)| {
        let [tcp, tcp_ns, sctp] = [0, 1, 2].map(|i| three[i].secs() / iters as f64 * 1e6);
        row![nprocs, tcp, tcp_ns, (tcp - tcp_ns) / tcp * 100.0, sctp]
    });
    let table = Table::new(SCALABILITY, rows);
    FigureOutput::new(report)
        .table("A4: ring exchange cost vs process count (us/iteration, 16K msgs)", &table)
        .line("expected: the select() share grows with the process count (§3.3)")
        .file(scale, "scalability", &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_finder() {
        let points = [(1, 2.0, 1.0), (1000, 2.0, 2.2)];
        assert_eq!(fig8_crossover(&points), Some(1000));
        assert_eq!(fig8_crossover(&points[..1]), None);
    }
}
