//! The Bulk Processor Farm (paper §4.2.1) — a latency-tolerant
//! manager/worker program with the communication pattern of real-world
//! farm codes.
//!
//! * One manager (rank 0), `n-1` workers.
//! * Workers keep a fixed number of outstanding job requests (10 in the
//!   paper) and receive with `MPI_ANY_TAG` — they are willing to do any
//!   task type; all task messages are *expected* (pre-posted).
//! * The manager services requests in arrival order (`MPI_ANY_SOURCE`) and
//!   answers each with `fanout` tasks; each task carries a tag in
//!   `0..max_work_tags` (its *type*), which the SCTP module maps onto
//!   streams — the mechanism behind Figures 10–12.
//! * When the task pool is exhausted, each further request is answered
//!   with a termination message.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mpi_core::{mpirun, Mpi, MpiCfg, MpiStats, RankFut, ANY_SOURCE, ANY_TAG};
use simcore::Dur;

use crate::zeros;

/// Tag of worker→manager job requests.
const REQ_TAG: i32 = 1_000;
/// Tag of manager→worker termination messages.
const DONE_TAG: i32 = 1_001;
/// Size of a request/result message.
const REQ_BYTES: usize = 64;

/// Farm parameters (paper defaults in [`FarmCfg::paper`]).
#[derive(Debug, Clone, Copy)]
pub struct FarmCfg {
    /// Total number of tasks (paper: 10 000). Must be divisible by fanout.
    pub num_tasks: u32,
    /// Task payload size: 30 KB (short) or 300 KB (long) in the paper.
    pub task_bytes: usize,
    /// Tasks sent per request (paper: 1 and 10).
    pub fanout: u32,
    /// Distinct task types = distinct tags (paper's MaxWorkTags).
    pub max_work_tags: u32,
    /// Outstanding job requests per worker (paper: 10).
    pub outstanding: u32,
    /// Modelled processing time per task.
    pub compute_per_task: Dur,
}

impl FarmCfg {
    /// Paper settings for a given task size and fanout. The per-task
    /// compute time is calibrated against the paper's zero-loss totals
    /// (Figure 10): those imply the farm is mostly manager/wire-bound, so
    /// workers are frequently idle and answer rendezvous ACKs promptly
    /// (see EXPERIMENTS.md E4).
    pub fn paper(task_bytes: usize, fanout: u32) -> FarmCfg {
        let compute = if task_bytes > 64 * 1024 {
            Dur::from_micros(6_000) // long tasks: 6 ms
        } else {
            Dur::from_micros(1_000) // short tasks: 1 ms
        };
        FarmCfg {
            num_tasks: 10_000,
            task_bytes,
            fanout,
            max_work_tags: 10,
            outstanding: 10,
            compute_per_task: compute,
        }
    }

    /// A scaled-down configuration for tests and Criterion benches.
    pub fn small(task_bytes: usize, fanout: u32) -> FarmCfg {
        FarmCfg { num_tasks: 200, ..FarmCfg::paper(task_bytes, fanout) }
    }
}

/// Per-run results.
#[derive(Debug, Clone, Copy)]
pub struct FarmResult {
    pub secs: f64,
    /// Tasks completed by the workers (sanity: must equal `num_tasks`).
    pub tasks_done: u32,
    /// Simulator events fired during the run (self-metering, see
    /// `bench-harness`).
    pub events: u64,
    /// Scheduler/driver cost of the run (self-metering).
    pub sched: simcore::SchedCounters,
    /// Network-wide counters (loss/queue/down drop taxonomy).
    pub net: netsim::NetStats,
    /// Aggregate TCP socket stats (zero for SCTP runs).
    pub tcp: transport::tcp::SockStats,
    /// Aggregate SCTP association stats (zero for TCP runs); `failovers`
    /// and `first_failover_ns` are the failover experiments' metrics.
    pub sctp: transport::sctp::AssocStats,
    /// Peak length of the matching layer's unexpected-message queue across
    /// all ranks — must stay bounded for this latency-tolerant workload.
    pub unexpected_peak: usize,
    /// Most queue entries one matching lookup examined, across all ranks.
    pub match_scan_peak: usize,
    /// Middleware counters summed over every rank.
    pub mpi: MpiStats,
}

/// Run the farm under `mpi_cfg`; returns total run time (Figures 10–12's
/// metric). Damage scripted in `mpi_cfg.fault_plan` (link flaps, bursty
/// loss, jitter, degradation) replays byte-identically for one plan + seed.
pub fn run(mpi_cfg: MpiCfg, cfg: FarmCfg) -> FarmResult {
    run_with_fault(mpi_cfg, cfg, None)
}

/// Run the farm body inside an existing `mpirun` rank (diagnostics).
pub fn run_inline(mpi: &mut Mpi, cfg: FarmCfg) -> RankFut<'_> {
    Box::pin(async move {
        if mpi.rank() == 0 {
            manager(mpi, cfg, None).await;
        } else {
            worker(mpi, cfg).await;
        }
    })
}

/// [`run`], optionally killing network 0 (every host's primary path) after
/// `kill_at_batch` batches have been distributed — the §3.5.1 failover
/// experiment. Requires `mpi_cfg.sctp.num_paths > 1` to survive.
pub fn run_with_fault(mpi_cfg: MpiCfg, cfg: FarmCfg, kill_at_batch: Option<u32>) -> FarmResult {
    assert!(mpi_cfg.nprocs >= 2, "farm needs a manager and a worker");
    assert_eq!(cfg.num_tasks % cfg.fanout, 0, "tasks must divide evenly into batches");
    let done_count = Rc::new(Cell::new(0u32));
    let peak = Rc::new(Cell::new(0usize));
    let scan_peak = Rc::new(Cell::new(0usize));
    let (dc, pk, sp) = (done_count.clone(), peak.clone(), scan_peak.clone());
    let report = mpirun(mpi_cfg, move |mpi| {
        let (dc, pk, sp) = (dc.clone(), pk.clone(), sp.clone());
        Box::pin(async move {
            if mpi.rank() == 0 {
                manager(mpi, cfg, kill_at_batch).await;
            } else {
                let n = worker(mpi, cfg).await;
                dc.set(dc.get() + n);
            }
            pk.set(pk.get().max(mpi.unexpected_peak()));
            sp.set(sp.get().max(mpi.match_scan_peak()));
        })
    });
    FarmResult {
        secs: report.secs(),
        tasks_done: done_count.get(),
        events: report.events,
        sched: report.sched,
        net: report.net,
        tcp: report.tcp,
        sctp: report.sctp,
        unexpected_peak: peak.get(),
        match_scan_peak: scan_peak.get(),
        mpi: report.mpi,
    }
}

async fn manager(mpi: &mut Mpi, cfg: FarmCfg, kill_at_batch: Option<u32>) {
    let workers = (mpi.size() - 1) as u32;
    let batches = cfg.num_tasks / cfg.fanout;
    let total_requests = batches + cfg.outstanding * workers;
    let mut remaining = cfg.num_tasks;
    let mut task_no: u32 = 0;
    // The manager is latency tolerant: sends stay in flight (nonblocking)
    // so a retransmission stall on one worker's tasks never stops it from
    // servicing the other workers' requests — the overlap §4.2 relies on.
    let mut inflight: Vec<mpi_core::ReqId> = Vec::new();
    for _ in 0..total_requests {
        let (st, _req) = mpi.recv(ANY_SOURCE, Some(REQ_TAG)).await;
        let worker = st.src;
        if remaining > 0 {
            if kill_at_batch == Some((cfg.num_tasks - remaining) / cfg.fanout) {
                // Fault injection (A3): the primary network dies.
                mpi.with_world(|w| w.net.set_network_up(0, false));
            }
            // One batch: `fanout` tasks, each with its own type tag.
            for _ in 0..cfg.fanout {
                let tag = (task_no % cfg.max_work_tags) as i32;
                task_no += 1;
                inflight.push(mpi.isend(worker, tag, zeros(cfg.task_bytes)).await);
            }
            remaining -= cfg.fanout;
            mpi.reap_sends(&mut inflight).await;
        } else {
            mpi.send(worker, DONE_TAG, Bytes::new()).await;
        }
    }
    let leftovers: Vec<_> = std::mem::take(&mut inflight);
    mpi.waitall(&leftovers).await;
}

/// Returns the number of tasks this worker processed.
async fn worker(mpi: &mut Mpi, cfg: FarmCfg) -> u32 {
    // Pre-post enough receives to cover everything that can be in flight:
    // `outstanding` batches of `fanout` tasks, plus termination messages.
    let pool = (cfg.outstanding * cfg.fanout + cfg.outstanding) as usize;
    let mut recvs = Vec::with_capacity(pool);
    for _ in 0..pool {
        recvs.push(mpi.irecv(Some(0), ANY_TAG).await);
    }

    // Issue the initial outstanding job requests.
    for _ in 0..cfg.outstanding {
        mpi.send(0, REQ_TAG, zeros(REQ_BYTES)).await;
    }
    let mut tasks_in_batch = 0u32;
    let mut tasks_done = 0u32;
    let mut dones = 0u32;

    // Invariant: every request is answered with exactly one batch or one
    // DONE, and every completed batch immediately re-requests — so each
    // worker receives exactly `outstanding` DONEs, regardless of how SCTP
    // streams reorder a DONE around in-flight batches.
    while dones < cfg.outstanding {
        let (idx, st, _msg) = mpi.waitany(&recvs).await;
        // Re-post the consumed slot so messages stay expected.
        recvs[idx] = mpi.irecv(Some(0), ANY_TAG).await;
        if st.tag == DONE_TAG {
            dones += 1;
            continue;
        }
        // A task: process it (overlapping with the other posted receives).
        tasks_done += 1;
        tasks_in_batch += 1;
        mpi.compute(cfg.compute_per_task).await;
        if tasks_in_batch == cfg.fanout {
            tasks_in_batch = 0;
            // Ask for more work (the request doubles as result delivery).
            mpi.send(0, REQ_TAG, zeros(REQ_BYTES)).await;
        }
    }
    debug_assert_eq!(tasks_in_batch, 0, "exited with a partial batch");
    tasks_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_processed_no_loss() {
        for cfg in [MpiCfg::tcp(4, 0.0), MpiCfg::sctp(4, 0.0)] {
            let r = run(cfg, FarmCfg::small(30 * 1024, 1));
            assert_eq!(r.tasks_done, 200);
            assert!(r.secs > 0.0);
        }
    }

    #[test]
    fn all_tasks_processed_with_fanout_under_loss() {
        for cfg in [MpiCfg::tcp(4, 0.01).with_seed(3), MpiCfg::sctp(4, 0.01).with_seed(3)] {
            let r = run(cfg, FarmCfg::small(30 * 1024, 10));
            assert_eq!(r.tasks_done, 200);
        }
    }

    #[test]
    fn long_tasks_use_rendezvous_and_complete() {
        let r = run(MpiCfg::sctp(3, 0.0), FarmCfg { num_tasks: 40, ..FarmCfg::small(300 * 1024, 10) });
        assert_eq!(r.tasks_done, 40);
    }

    #[test]
    fn single_stream_sctp_also_completes() {
        let r = run(MpiCfg::sctp_single_stream(4, 0.02).with_seed(9), FarmCfg::small(30 * 1024, 10));
        assert_eq!(r.tasks_done, 200);
    }
}
