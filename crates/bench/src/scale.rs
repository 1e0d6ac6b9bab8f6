//! E-scale — incast fan-in and many-tenant sharing on the real SCTP and
//! TCP engines, one association or connection per flow
//! ([`workloads::scale`]). Every cell size is run once per transport.

use workloads::scale::{run, FanInCfg, FanInResult, Transport};

use crate::runner::{self, Cell};
use crate::{row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// N synchronized senders into one receiver: aggregate goodput over the
/// run (the 1 Gb/s downlink is the ceiling), completion instant of the
/// last flow, and tail drops at the victim downlink — the collapse signal.
const INCAST: &[Col] = &[
    Col("senders", "senders", Fmt::Plain),
    Col("transport", "transport", Fmt::Plain),
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
    Col("transport", "transport", Fmt::Plain),
    Col("block_kb", "block", Fmt::Fix(0, "K")),
    Col("completion_p50_ms", "p50 ms", Fmt::Fix(2, "")),
    Col("completion_p99_ms", "p99 ms", Fmt::Fix(2, "")),
    Col("goodput_mbps", "goodput Mb/s", Fmt::Fix(1, "")),
    Col("drops_queue", "qdrops", Fmt::Plain),
    Col("timeouts", "RTOs", Fmt::Plain),
];

const TRANSPORTS: [Transport; 2] = [Transport::Sctp, Transport::Tcp];

/// One cell per (configuration, transport), SCTP first.
fn cells(configs: &[(String, FanInCfg)]) -> Vec<Cell<FanInResult>> {
    configs
        .iter()
        .flat_map(|(label, cfg)| {
            TRANSPORTS.map(|t| {
                let cfg = cfg.clone();
                Cell::new(format!("{label} transport={}", t.name()), move || run(&cfg, t))
            })
        })
        .collect()
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
/// instant into a single 1 Gb/s victim downlink. The queue overflows and
/// lost data waits out retransmission timeouts — the classic data-centre
/// incast signature.
pub fn incast(scale: Scale) -> FigureOutput {
    let sweep: [u16; 3] = [64, 256, 1024];
    let block = match scale {
        Scale::Paper => 256 * 1024,
        Scale::Quick => 16 * 1024,
    };
    let configs: Vec<_> = sweep
        .iter()
        .map(|&n| (format!("senders={n} block={block}"), FanInCfg::incast(n, block, SEED_BASE)))
        .collect();
    let (results, report) = runner::run_cells("incast", scale, cells(&configs), None);
    let rows = sweep.iter().flat_map(|&n| TRANSPORTS.map(|t| (n, t))).zip(&results).map(|((n, t), r)| {
        row![
            n,
            t.name(),
            block / 1024,
            r.goodput_mbps(n as u64 * block as u64),
            r.last_done_ns() as f64 / 1e6,
            r.net.drops_queue,
            r.timeouts(),
            r.retransmits(),
            r.fast_retransmits()
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
    let (sweep, servers, block): ([u16; 2], u16, usize) = match scale {
        Scale::Paper => ([256, 1024], 32, 128 * 1024),
        Scale::Quick => ([64, 256], 8, 16 * 1024),
    };
    let configs: Vec<_> = sweep
        .iter()
        .map(|&t| {
            (
                format!("tenants={t} servers={servers} block={block}"),
                FanInCfg::tenants(t, servers, block, SEED_BASE),
            )
        })
        .collect();
    let (results, report) = runner::run_cells("tenants", scale, cells(&configs), None);
    let rows = sweep.iter().flat_map(|&n| TRANSPORTS.map(|t| (n, t))).zip(&results).map(|((n, t), r)| {
        row![
            n,
            servers,
            t.name(),
            block / 1024,
            completion_pct_ms(&r.flow_done_ns, 50.0),
            completion_pct_ms(&r.flow_done_ns, 99.0),
            r.goodput_mbps(n as u64 * block as u64),
            r.net.drops_queue,
            r.timeouts()
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
