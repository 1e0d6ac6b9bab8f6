//! E-interleave — RFC 8260 message interleaving and RFC 3758 PR-SCTP.
//!
//! Part A (mixed-size farm): the Figure 12 farm rerun with unequal task
//! sizes. Multistreaming alone leaves the association's outbound queue a
//! single FIFO, so a 60 KB bulk task starting to fragment blocks every
//! urgent task queued behind it — *sender-side* HOL blocking, invisible to
//! Figure 12's receiver-side accounting. I-DATA plus a non-FIFO stream
//! scheduler interleaves the urgent fragments into the bulk transmission;
//! the run asserts the blocked time strictly drops.
//!
//! Part B (media deadline workload): a fixed-cadence frame source under
//! loss, swept over per-frame lifetimes. Finite lifetimes abandon stale
//! frames (FORWARD-TSN), bounding delivered-frame staleness where the
//! reliable run lets it grow with the retransmission backlog.

use mpi_core::MpiCfg;
use transport::sctp::SchedKind;
use workloads::media::{self, MediaCfg, MediaResult};
use workloads::mixed::{self, MixedCfg, TracedMixedResult};

use crate::runner::{self, Cell};
use crate::{arg, positionals, row, Col, FigureOutput, Fmt, Scale, Table, SEED_BASE};

/// A (config × loss) point of the fig12-style sweep with the per-side HOL
/// accounting that explains it. `config` is "nointl-fcfs" (pre-8260
/// multistreaming) or `intl-<sched>` (I-DATA negotiated, named sender
/// scheduler); sender-side HOL blocks and blocked time are the metric
/// I-DATA plus a non-FIFO scheduler exists to reduce, receiver-side
/// (classic Figure 12) blocked time is there for contrast.
const MIXED: &[Col] = &[
    Col("config", "config", Fmt::Plain),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("secs", "secs", Fmt::Fix(2, "")),
    Col("snd_hol_blocks", "snd blk", Fmt::Plain),
    Col("snd_hol_ms", "snd hol ms", Fmt::Fix(2, "")),
    Col("rcv_hol_ms", "rcv hol ms", Fmt::Fix(2, "")),
];

/// The PR-SCTP deadline sweep (media workload). `lifetime_ms` 0 is the
/// fully reliable source; `frames_skipped` are frames dropped at the source
/// because the send buffer was full.
const DEADLINE: &[Col] = &[
    Col("lifetime_ms", "", Fmt::Plain),
    Col("", "lifetime", Fmt::Plain),
    Col("loss", "loss", Fmt::Pct(0)),
    Col("frames_delivered", "delivered", Fmt::Plain),
    Col("frames_skipped", "skipped", Fmt::Plain),
    Col("msgs_abandoned", "abandoned", Fmt::Plain),
    Col("fwd_tsn_out", "fwd-tsn", Fmt::Plain),
    Col("max_staleness_ms", "max stale ms", Fmt::Fix(1, "")),
    Col("mean_staleness_ms", "mean stale ms", Fmt::Fix(1, "")),
    Col("secs", "", Fmt::Plain),
];

/// The sender-scheduler configurations the mixed table compares, in output
/// order. `None` = interleaving off (the pre-8260 baseline).
const CONFIGS: [(&str, Option<SchedKind>); 5] = [
    ("nointl-fcfs", None),
    ("intl-fcfs", Some(SchedKind::Fcfs)),
    ("intl-rr", Some(SchedKind::RoundRobin)),
    ("intl-wfq", Some(SchedKind::WeightedFair)),
    ("intl-prio", Some(SchedKind::StrictPriority)),
];

/// Slack allowed over the configured lifetime before a delivered frame
/// counts as "unboundedly stale": abandonment happens lazily when a
/// (re)transmission comes due, so a frame stuck behind a loss the fast-rtx
/// machinery misses waits out one full T3 round (initial RTO 1 s) before
/// the FORWARD-TSN opens the receiver's ordered-delivery gate.
const STALENESS_SLACK_MS: f64 = 1_500.0;

/// Both parts in one harness run, the acceptance shape of each asserted
/// in-process.
pub fn interleave(scale: Scale) -> FigureOutput {
    let (tasks, frames) = match scale {
        Scale::Paper => (2_000, 2_000),
        Scale::Quick => (200, 300),
    };
    let losses = [0.0, 0.01, 0.02];
    let mixed_cfg = MixedCfg::default_mix(tasks);
    // Seeds per mixed cell. One RTO-recovery window (initial RTO 1 s)
    // parks the whole association — a stall no scheduler can route
    // around, charged to whichever streams were waiting — so a single
    // seed's HOL total is noisy at paper scale; like the CMT grid, paper
    // scale averages 3 seeds per (config × loss) point and the acceptance
    // assertions compare those means.
    let seeds: u64 = match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    };
    // (lifetime ms, 0 = reliable) × one loss rate for the deadline sweep.
    let deadline_loss = 0.02;
    let lifetimes_ms: [u64; 4] = [0, 200, 50, 20];

    let mut keys: Vec<(&'static str, f64)> = Vec::new();
    let mut cells: Vec<Cell<TracedMixedResult>> = Vec::new();
    for &loss in &losses {
        for (name, sched) in CONFIGS {
            keys.push((name, loss));
            for s in 0..seeds {
                cells.push(Cell::new(format!("mixed config={name} loss={loss} seed={s}"), move || {
                    let mut cfg = MpiCfg::sctp(8, loss).with_seed(SEED_BASE + s);
                    if let Some(k) = sched {
                        cfg = cfg.with_interleave(true).with_scheduler(k);
                    }
                    let r = mixed::run_traced(cfg, mixed_cfg);
                    assert_eq!(r.result.tasks_done, mixed_cfg.num_tasks, "tasks lost in {name}");
                    r
                }));
            }
        }
    }
    let media_cells: Vec<Cell<MediaResult>> = lifetimes_ms
        .iter()
        .map(|&ms| {
            Cell::new(format!("media lifetime={ms}ms loss={deadline_loss}"), move || {
                let lifetime = (ms > 0).then(|| simcore::Dur::from_millis(ms));
                media::run(MediaCfg::new(frames, lifetime, deadline_loss))
            })
        })
        .collect();

    // Two result types, one report (`BENCH_interleave.json`).
    let (mixed, mut report) = runner::run_cells("interleave", scale, cells, None);
    let (media, media_report) = runner::run_cells("interleave", scale, media_cells, None);
    report.absorb(media_report);

    // One point per (config × loss), averaged over the seeds that ran it:
    // (secs, sender HOL blocks, sender HOL ms, receiver HOL ms).
    let n = seeds as f64;
    let points: Vec<(f64, u64, f64, f64)> = mixed
        .chunks_exact(seeds as usize)
        .map(|runs| {
            let avg = |f: fn(&TracedMixedResult) -> f64| runs.iter().map(|r| f(r) / n).sum::<f64>();
            let blocks: u64 = runs.iter().map(|r| r.snd_hol_blocks).sum();
            (
                avg(|r| r.result.secs),
                (blocks as f64 / n).round() as u64,
                avg(|r| r.snd_hol_ns as f64 / 1e6),
                avg(|r| r.rcv_hol_ns as f64 / 1e6),
            )
        })
        .collect();

    // Acceptance shape. (1) Interleaving plus a non-FIFO scheduler must
    // strictly reduce sender-side blocked time against the pre-8260
    // baseline, at every loss rate.
    let get = |config: &str, loss: f64| {
        points[keys.iter().position(|&k| k == (config, loss)).expect("mixed cell present")]
    };
    for &loss in &losses {
        let base = get("nointl-fcfs", loss);
        assert!(base.1 > 0, "mixed sizes must produce sender-side HOL at loss={loss}: {base:?}");
        for cfg in ["intl-rr", "intl-wfq"] {
            let intl = get(cfg, loss);
            assert!(
                intl.2 < base.2,
                "{cfg} must strictly reduce sender-side HOL time at loss={loss}: \
                 {:.2} vs {:.2} ms",
                intl.2,
                base.2
            );
        }
    }
    // (2) The deadline sweep: tighter lifetimes abandon more and FORWARD-TSN
    // rides along; delivered frames stay within lifetime + slack of fresh.
    let max_stale_ms = |r: &MediaResult| r.max_staleness_ns as f64 / 1e6;
    for (&ms, r) in lifetimes_ms.iter().zip(&media).skip(1) {
        assert!(
            r.sctp.msgs_abandoned == 0 || r.sctp.fwd_tsn_out > 0,
            "abandonment must emit FORWARD-TSN: {r:?}"
        );
        let bound_ms = ms as f64 + STALENESS_SLACK_MS;
        assert!(
            max_stale_ms(r) <= bound_ms,
            "staleness must stay bounded by lifetime+slack: {r:?} (bound {bound_ms} ms)"
        );
    }
    let (reliable, tightest) = (&media[0], media.last().expect("sweep non-empty"));
    assert!(
        tightest.sctp.msgs_abandoned > 0,
        "the tightest lifetime under loss must abandon frames: {tightest:?}"
    );
    assert!(
        max_stale_ms(tightest) < max_stale_ms(reliable),
        "deadlines must beat reliable on worst staleness: {:.2} vs {:.2} ms",
        max_stale_ms(tightest),
        max_stale_ms(reliable)
    );

    let mixed_table = Table::new(
        MIXED,
        keys.iter().zip(&points).map(|(&(name, loss), &(secs, blocks, snd_ms, rcv_ms))| {
            row![name, loss, secs, blocks, snd_ms, rcv_ms]
        }),
    );
    let deadline_table = Table::new(
        DEADLINE,
        lifetimes_ms.iter().zip(&media).map(|(&ms, r)| {
            let shown = if ms == 0 { "reliable".to_string() } else { format!("{ms} ms") };
            row![
                ms,
                shown.as_str(),
                deadline_loss,
                r.frames_delivered,
                r.frames_skipped,
                r.sctp.msgs_abandoned,
                r.sctp.fwd_tsn_out,
                max_stale_ms(r),
                r.mean_staleness_ns as f64 / 1e6,
                r.secs
            ]
        }),
    );
    FigureOutput::new(report)
        .table("E-interleave A: mixed-size farm, I-DATA schedulers vs FIFO", &mixed_table)
        .table("E-interleave B: PR-SCTP lifetime sweep, media source under loss", &deadline_table)
        .file(scale, "interleave_mixed", &mixed_table)
        .file(scale, "interleave_deadline", &deadline_table)
}

/// The mixed-size farm once, flight recorder forced on, with the per-side
/// HOL accounting and the PR-SCTP counters. The scheduler is the third
/// argument (`fcfs` | `rr` | `wfq` | `prio`, read by `SchedKind::parse`;
/// unknown names fall back to FCFS and the label names the one that ran),
/// so one shell loop compares all four:
///
/// ```sh
/// for s in fcfs rr wfq prio; do bench probe_interleave 0.01 500 $s; done
/// ```
///
/// `args`: `[loss] [tasks] [sched] [--nointl]`.
pub fn probe_interleave(scale: Scale, args: &[String]) -> Result<FigureOutput, String> {
    let pos = positionals(args, &["--nointl"], 3)?;
    let loss: f64 = arg(&pos, 0, 0.0)?;
    let tasks: u32 = arg(&pos, 1, 500)?;
    let sched = pos.get(2).map_or(SchedKind::Fcfs, |s| SchedKind::parse(s));
    let interleave = !args.iter().any(|a| a == "--nointl");

    let cfg = MpiCfg::sctp(8, loss).with_seed(7).with_interleave(interleave).with_scheduler(sched);
    let sched = sched.name();
    let label = format!("loss={loss} tasks={tasks} interleave={interleave} sched={sched}");
    let cells = vec![Cell::new(label.clone(), move || {
        mixed::run_traced(cfg.clone(), MixedCfg::default_mix(tasks))
    })];
    let (results, report) = runner::run_cells("probe_interleave", scale, cells, None);
    let r = &results[0];
    let out = FigureOutput::new(report)
        .line(&format!("mixed farm: {label}"))
        .line(&format!(
            "  sim={:.3}s events={} tasks_done={}",
            r.result.secs, r.result.events, r.result.tasks_done
        ))
        .line(&format!(
            "  hol snd: {} blocks {:.3} ms | hol rcv: {} blocks {:.3} ms",
            r.snd_hol_blocks,
            r.snd_hol_ns as f64 / 1e6,
            r.rcv_hol_blocks,
            r.rcv_hol_ns as f64 / 1e6,
        ))
        .line(&format!(
            "  pr-sctp: abandoned={} fwd_tsn_out={}",
            r.result.sctp.msgs_abandoned, r.result.sctp.fwd_tsn_out
        ));
    Ok(out)
}
