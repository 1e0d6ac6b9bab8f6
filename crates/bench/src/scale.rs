//! E-scale — incast fan-in and many-tenant fabrics on the sharded engine.
//!
//! `SHARDS=<n>` partitions the nodes across n worker threads; the figure
//! output and every semantic counter are bit-identical at any value.
//! `SIM_CHECK=1` forces the reference run onto one shard, so it
//! cross-checks the sharded engine against the sequential discipline on
//! the whole [`ScaleResult`] bar its partition and scheduler-cost meters.

use workloads::scale::{run_scale, ScaleCfg, ScaleResult};

use crate::runner::{self, Cell};
use crate::{row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// N synchronized senders into one victim: aggregate goodput over the run
/// (the 1 Gb/s downlink is the ceiling), completion instant of the last
/// flow, and tail drops at the victim downlink — the collapse signal.
const INCAST: &[Col] = &[
    Col("senders", "senders", Fmt::Plain),
    Col("block_kb", "block", Fmt::Fix(0, "K")),
    Col("goodput_mbps", "goodput Mb/s", Fmt::Fix(1, "")),
    Col("last_done_ms", "done ms", Fmt::Fix(2, "")),
    Col("drops_queue", "qdrops", Fmt::Plain),
    Col("timeouts", "RTOs", Fmt::Plain),
    Col("retrans", "retrans", Fmt::Plain),
    Col("fast_rtx", "fastrtx", Fmt::Plain),
];

const TENANTS: &[Col] = &[
    Col("tenants", "tenants", Fmt::Plain),
    Col("servers", "servers", Fmt::Plain),
    Col("block_kb", "block", Fmt::Fix(0, "K")),
    Col("completion_p50_ms", "p50 ms", Fmt::Fix(2, "")),
    Col("completion_p99_ms", "p99 ms", Fmt::Fix(2, "")),
    Col("goodput_mbps", "goodput Mb/s", Fmt::Fix(1, "")),
    Col("drops_queue", "qdrops", Fmt::Plain),
    Col("timeouts", "RTOs", Fmt::Plain),
];

/// One `run_scale` invocation as a harness cell.
fn scale_cell(label: String, cfg: ScaleCfg, shards: usize, expect_flows: u32) -> Cell<ScaleResult> {
    Cell::new(label, move || {
        let r = run_scale(cfg.clone(), shards);
        assert_eq!(r.completed, expect_flows, "every flow must complete");
        r
    })
}

/// Percentile (nearest-rank) over per-flow completion instants, ms.
fn completion_pct_ms(done_ns: &[u64], pct: f64) -> f64 {
    let mut v: Vec<u64> = done_ns.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let ix = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[ix] as f64 / 1e6
}

/// The incast sweep: N senders (up to 1024) each push one block at the same
/// instant into a single 1 Gb/s victim downlink. The FIFO overflows,
/// synchronized windows collapse into RTO stalls, and goodput craters — the
/// classic data-centre incast signature, at a rank count the sequential
/// engine cannot sweep in reasonable wall time.
pub fn incast(scale: Scale) -> FigureOutput {
    let shards = runner::shards() as usize;
    let sweep: [u32; 3] = [64, 256, 1024];
    let block: u64 = match scale {
        Scale::Paper => 256 * 1024,
        Scale::Quick => 16 * 1024,
    };
    let cells = sweep
        .iter()
        .map(|&n| {
            scale_cell(
                format!("senders={n} block={block} shards={shards}"),
                ScaleCfg::incast(n, block, SEED_BASE),
                shards,
                n,
            )
        })
        .collect();
    let (results, report) = runner::run_cells("incast", scale, cells, None);
    let rows = sweep.iter().zip(&results).map(|(&n, r)| {
        row![
            n,
            block / 1024,
            r.goodput_mbps(n as u64 * block),
            r.last_done_ns as f64 / 1e6,
            r.drops_queue,
            r.timeouts,
            r.retrans,
            r.fast_rtx
        ]
    });
    let table = Table::new(INCAST, rows);
    FigureOutput::new(report)
        .table("E-scale: incast fan-in, N -> 1 at 1 Gb/s", &table)
        .line("expected: goodput falls away from the 1 Gb/s line as N grows (incast collapse)")
        .file(scale, "incast", &table)
}

/// The many-tenant sweep: T staggered flows (up to 1024 tenants) share S
/// server downlinks round-robin. The tail of the completion distribution —
/// p99 vs p50 — is the multi-tenant interference signal.
pub fn tenants(scale: Scale) -> FigureOutput {
    let shards = runner::shards() as usize;
    let (sweep, servers, block): ([u32; 2], u32, u64) = match scale {
        Scale::Paper => ([256, 1024], 32, 128 * 1024),
        Scale::Quick => ([64, 256], 8, 16 * 1024),
    };
    let stagger = simcore::Dur::from_micros(50);
    let cells = sweep
        .iter()
        .map(|&t| {
            scale_cell(
                format!("tenants={t} servers={servers} block={block} shards={shards}"),
                ScaleCfg::tenants(t, servers, block, stagger, SEED_BASE),
                shards,
                t,
            )
        })
        .collect();
    let (results, report) = runner::run_cells("tenants", scale, cells, None);
    let rows = sweep.iter().zip(&results).map(|(&t, r)| {
        row![
            t,
            servers,
            block / 1024,
            completion_pct_ms(&r.flow_done_ns, 50.0),
            completion_pct_ms(&r.flow_done_ns, 99.0),
            r.goodput_mbps(t as u64 * block),
            r.drops_queue,
            r.timeouts
        ]
    });
    let table = Table::new(TENANTS, rows);
    FigureOutput::new(report)
        .table("E-scale: many-tenant sharing, T flows over S servers", &table)
        .line("expected: the p99/p50 gap widens with tenant count (queue-share interference)")
        .file(scale, "tenants", &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_percentiles() {
        let v = [4_000_000u64, 1_000_000, 3_000_000, 2_000_000];
        assert_eq!(completion_pct_ms(&v, 50.0), 2.0);
        assert_eq!(completion_pct_ms(&v, 99.0), 4.0);
        assert_eq!(completion_pct_ms(&v, 100.0), 4.0);
        assert_eq!(completion_pct_ms(&[], 50.0), 0.0);
    }
}
