//! E-faults and A3: the farm under *bursty* loss (Gilbert–Elliott) matched
//! to the Bernoulli figures' average rates, the scripted link-flap failover
//! timeline, and the paper's §3.5.1 failover experiment.

use mpi_core::MpiCfg;
use workloads::farm::{self, FarmResult};

use crate::paper::{farm_cfg, farm_grid};
use crate::runner::{self, Cell};
use crate::{row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// Same shape as the Bernoulli farm figures, but `avg_loss` is the
/// Gilbert–Elliott chain's long-run average (matched to their 1 % / 2 %
/// columns), not a Bernoulli probability.
const FARM_BURST: &[Col] = &[
    Col("task_bytes", "task", Fmt::Size),
    Col("fanout", "", Fmt::Plain),
    Col("avg_loss", "avg", Fmt::Pct(0)),
    Col("sctp_secs", "SCTP s", Fmt::Fix(1, "")),
    Col("tcp_secs", "TCP s", Fmt::Fix(1, "")),
    Col("tcp_era_secs", "TCPera s", Fmt::Fix(1, "")),
    Col("ratio_tcp_over_sctp", "TCP/SCTP", Fmt::Fix(2, "x")),
    Col("ratio_era", "era/SCTP", Fmt::Fix(2, "x")),
];

/// Mean loss-burst length used by the bursty-loss figures (packets). With
/// `loss_bad` = 0.25 a visit to the bad state clips a few packets out of a
/// train rather than sprinkling independent singles.
pub(crate) const BURST_MEAN_PKTS: f64 = 8.0;

/// Conditional loss rate inside the bad state for the bursty-loss figures.
pub(crate) const BURST_LOSS_BAD: f64 = 0.25;

/// The Gilbert–Elliott plan whose long-run average matches `avg_loss`.
fn burst_plan(avg_loss: f64) -> netsim::FaultPlan {
    netsim::FaultPlan {
        burst_loss: vec![netsim::BurstLossRule::matched(
            netsim::Scope::ALL,
            avg_loss,
            BURST_LOSS_BAD,
            BURST_MEAN_PKTS,
        )],
        ..Default::default()
    }
}

/// Figures 10/11 rerun under bursty loss at matched average rates: the
/// Bernoulli pipe is off (`loss = 0`) and a Gilbert–Elliott chain supplies
/// all the damage. Burstiness concentrates loss into fewer, deeper stalls —
/// how SCTP's SACK recovery and TCP's RTO chains each cope is the point;
/// fanout 10 gives the farm more concurrency to hide them.
pub fn farm_burst_figure(scale: Scale, fanout: u32) -> FigureOutput {
    let n = if fanout == 1 { 10 } else { 11 };
    let rates = [0.01, 0.02];
    // Both rate variants ride in the report as a JSON array, in `rates`
    // order — each element replays through `FaultPlan::from_json`.
    let plans = rates.map(|r| burst_plan(r).to_json()).join(",");
    let (points, report) = farm_grid(
        &format!("fig{n}burst"),
        scale,
        fanout,
        ("ge_avg", &rates),
        Some(format!("[{plans}]")),
        |mk, avg, seed| {
            let mut m = mk(8, 0.0).with_seed(seed);
            m.fault_plan = burst_plan(avg);
            m
        },
    );
    let table = Table::new(FARM_BURST, points.into_iter().map(|(row, _)| row));
    FigureOutput::new(report)
        .table(&format!("Fig {n} under bursty loss (GE, matched avg rate; total run time, s)"), &table)
        .line(&format!("compare: results/fig{n}.json rows at loss 1%/2% (independent losses)"))
        .file(scale, &format!("fig{n}_burst"), &table)
}

/// `config` is the transport / path configuration, `flap` whether the cell
/// ran under the plan, `detect_ms` the fault-detection latency: first
/// failover minus flap start (0, printed `-`, when nothing failed over).
const FLAP: &[Col] = &[
    Col("config", "config", Fmt::Plain),
    Col("flap", "flap", Fmt::Plain),
    Col("hb_ms", "hb_ms", Fmt::Plain),
    Col("pmr", "pmr", Fmt::Plain),
    Col("secs", "secs", Fmt::Fix(2, "")),
    Col("failovers", "failovers", Fmt::Plain),
    Col("detect_ms", "", Fmt::Plain),
    Col("", "detect_ms", Fmt::Plain),
];

/// Flap window start: late enough that connection setup is done.
const FLAP_FROM_NS: u64 = 50_000_000; // 50 ms
/// Flap window end: the primary network is down for just under 10 s.
const FLAP_UNTIL_NS: u64 = 10_000_000_000;

/// The failover-timeline plan: every host's interface 0 (the primary path)
/// goes down for the window.
pub fn flap_plan() -> netsim::FaultPlan {
    netsim::FaultPlan {
        flaps: vec![netsim::FlapRule {
            scope: netsim::Scope::on_iface(0),
            from_ns: FLAP_FROM_NS,
            until_ns: FLAP_UNTIL_NS,
        }],
        ..Default::default()
    }
}

/// The failover timeline (§3.5.1 under a *scripted* flap): the primary
/// network drops out for ~10 s mid-job. Multihomed SCTP detects the dead
/// path (`path_max_retrans` consecutive T3 expiries) and switches to an
/// alternate; singlehomed SCTP and TCP stall until the link returns. A
/// heartbeat-interval × path-max-retrans sweep shows the detection-latency
/// trade-off. The same plan + seed is byte-identical across runs; `TRACE=1`
/// captures the flap edges (`ev=fault`) alongside every packet for
/// `analyze`. Asserts the acceptance shape: the 3-path cell fails over at
/// least once and beats the 1-path cell, which cannot finish before the
/// flap ends.
pub fn flap(scale: Scale) -> FigureOutput {
    let base_hb_ms: u64 = 500;
    let base_pmr: u32 = 2;
    let farm = farm_cfg(scale, 30 * 1024, 10);
    let mk_sctp = |paths: u8, hb_ms: u64, pmr: u32, flap: bool| {
        let mut m = MpiCfg::sctp(8, 0.0).with_seed(SEED_BASE);
        m.sctp.num_paths = paths;
        m.sctp.heartbeat_interval = Some(simcore::Dur::from_millis(hb_ms));
        m.sctp.path_max_retrans = pmr;
        if flap {
            m.fault_plan = flap_plan();
        }
        m
    };
    // (config, hb, pmr, flap, MpiCfg) — base cells first, then the sweep.
    let mut specs: Vec<(&'static str, u64, u32, bool, MpiCfg)> = Vec::new();
    for flap in [false, true] {
        specs.push(("sctp-1path", base_hb_ms, base_pmr, flap, mk_sctp(1, base_hb_ms, base_pmr, flap)));
        specs.push(("sctp-3path", base_hb_ms, base_pmr, flap, mk_sctp(3, base_hb_ms, base_pmr, flap)));
        let mut tcp = MpiCfg::tcp(8, 0.0).with_seed(SEED_BASE);
        if flap {
            tcp.fault_plan = flap_plan();
        }
        specs.push(("tcp", base_hb_ms, base_pmr, flap, tcp));
    }
    for &hb_ms in &[250u64, 1000] {
        specs.push(("sctp-3path", hb_ms, base_pmr, true, mk_sctp(3, hb_ms, base_pmr, true)));
    }
    for &pmr in &[1u32, 4] {
        specs.push(("sctp-3path", base_hb_ms, pmr, true, mk_sctp(3, base_hb_ms, pmr, true)));
    }

    let cells: Vec<Cell<FarmResult>> = specs
        .iter()
        .map(|(config, hb_ms, pmr, flap, m)| {
            let m = m.clone();
            Cell::new(format!("config={config} hb={hb_ms}ms pmr={pmr} flap={flap}"), move || {
                let r = farm::run(m.clone(), farm);
                assert_eq!(r.tasks_done, farm.num_tasks, "tasks lost in the flap");
                r
            })
        })
        .collect();
    let (results, report) = runner::run_cells("flap", scale, cells, Some(flap_plan().to_json()));
    // Acceptance shape of the base cells.
    let find = |config: &str| {
        let at = specs.iter().position(|s| (s.0, s.1, s.2, s.3) == (config, base_hb_ms, base_pmr, true));
        &results[at.expect("base cell present")]
    };
    let (one, three) = (find("sctp-1path"), find("sctp-3path"));
    assert!(three.sctp.failovers >= 1, "3-path run must fail over: {three:?}");
    assert!(
        three.secs < one.secs,
        "failover must beat stalling through the flap: {three:?} vs {one:?}"
    );
    assert!(
        one.secs >= FLAP_UNTIL_NS as f64 / 1e9,
        "a singlehomed run cannot finish while its only path is down: {one:?}"
    );
    let rows = specs.iter().zip(&results).map(|(&(config, hb_ms, pmr, flap, _), r)| {
        let failovers = r.sctp.failovers;
        let detect_ms = match r.sctp.first_failover_ns {
            0 => 0.0,
            at => at.saturating_sub(FLAP_FROM_NS) as f64 / 1e6,
        };
        let shown = if failovers == 0 { "-".to_string() } else { format!("{detect_ms:.0}") };
        row![config, flap, hb_ms, pmr, r.secs, failovers, detect_ms, shown.as_str()]
    });
    let table = Table::new(FLAP, rows);
    FigureOutput::new(report)
        .table("E-faults: failover timeline (primary-path flap 0.05 s .. 10 s)", &table)
        .line("expected: 3-path fails over and finishes; 1-path and tcp stall past the flap end")
        .file(scale, "flap", &table)
}

const FAILOVER: &[Col] = &[
    Col("kill_primary", "kill", Fmt::Plain),
    Col("secs", "secs", Fmt::Fix(2, "")),
    Col("failovers", "failovers", Fmt::Plain),
];

/// The farm keeps running when the primary network dies mid-job, at the
/// cost of a brief failover stall (a few retransmission timeouts, then
/// full speed on the alternate path).
pub fn failover(scale: Scale) -> FigureOutput {
    let cfg = farm_cfg(scale, 30 * 1024, 10);
    let cells: Vec<Cell<FarmResult>> = [false, true]
        .into_iter()
        .map(|kill| {
            Cell::new(format!("kill_primary={kill}"), move || {
                let mut m = MpiCfg::sctp(8, 0.0).with_seed(11);
                m.sctp.num_paths = 3;
                m.sctp.heartbeat_interval = Some(simcore::Dur::from_secs(2));
                m.sctp.path_max_retrans = 2;
                let kill_at = kill.then_some(cfg.num_tasks / cfg.fanout / 4);
                let r = farm::run_with_fault(m, cfg, kill_at);
                assert_eq!(r.tasks_done, cfg.num_tasks, "all tasks must survive the failure");
                r
            })
        })
        .collect();
    let (results, report) = runner::run_cells("failover", scale, cells, None);
    let rows = [false, true].into_iter().zip(&results).map(|(kill, r)| row![kill, r.secs, r.sctp.failovers]);
    let table = Table::new(FAILOVER, rows);
    FigureOutput::new(report)
        .table("A3: SCTP multihoming failover (farm, primary network killed mid-run)", &table)
        .line("expected: the killed run completes with failovers >= 1 and a modest slowdown")
        .file(scale, "failover", &table)
}
