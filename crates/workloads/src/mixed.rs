//! The mixed-message-size farm — the Figure 12 study rerun with *unequal*
//! task sizes, which is where RFC 8260 message interleaving earns its keep.
//!
//! The Bulk Processor Farm of Figures 10–12 sends every task at one size,
//! so multistreaming alone (one tag per stream) removes most head-of-line
//! coupling. Real farm codes mix task types: a few large "bulk" tasks ride
//! alongside many small "urgent" ones. Without I-DATA the association's
//! outbound queue is a single FIFO — once a 60 KB bulk task starts
//! fragmenting onto the wire, every urgent task queued after it waits for
//! all of its fragments, *no matter which stream it is on*. That is
//! sender-side HOL blocking, and it is invisible to the receiver-side
//! accounting of Figure 12. With I-DATA negotiated and a non-FIFO stream
//! scheduler, urgent fragments interleave into the bulk transmission and
//! the blocked time collapses.
//!
//! The workload is the farm manager/worker loop of [`crate::farm`] with a
//! deterministic task-size schedule: every `bulk_every`-th task is bulk
//! (tag 0 → one stream), the rest are urgent on the remaining tags.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mpi_core::{mpirun, mpirun_traced, Mpi, MpiCfg, MpiReport, ANY_SOURCE, ANY_TAG};
use simcore::Dur;

use crate::zeros;

/// Tag of worker→manager job requests.
const REQ_TAG: i32 = 1_000;
/// Tag of manager→worker termination messages.
const DONE_TAG: i32 = 1_001;
/// Size of a request message.
const REQ_BYTES: usize = 64;

/// Mixed-size farm parameters.
#[derive(Debug, Clone, Copy)]
pub struct MixedCfg {
    /// Total number of tasks. Must be divisible by `fanout`.
    pub num_tasks: u32,
    /// Bulk task payload (tag 0). Kept under the eager/rendezvous limit so
    /// the transport queues it whole — the condition that produces
    /// sender-side HOL blocking.
    pub bulk_bytes: usize,
    /// Urgent task payload (tags 1..`max_work_tags`).
    pub urgent_bytes: usize,
    /// Every `bulk_every`-th task is bulk; the rest are urgent.
    pub bulk_every: u32,
    /// Distinct task types = distinct tags (bulk claims tag 0).
    pub max_work_tags: u32,
    /// Tasks sent per request.
    pub fanout: u32,
    /// Outstanding job requests per worker.
    pub outstanding: u32,
    /// Modelled processing time per task.
    pub compute_per_task: Dur,
}

impl MixedCfg {
    /// Default mixed workload: 60 KB bulk (just under the 64 KB eager
    /// limit), 1 KB urgent, one bulk task per fanout-10 batch.
    pub fn default_mix(num_tasks: u32) -> MixedCfg {
        MixedCfg {
            num_tasks,
            bulk_bytes: 60 * 1024,
            urgent_bytes: 1024,
            bulk_every: 10,
            max_work_tags: 10,
            fanout: 10,
            outstanding: 10,
            compute_per_task: Dur::from_micros(500),
        }
    }

    /// Scaled-down configuration for tests and `--quick` runs.
    pub fn small() -> MixedCfg {
        MixedCfg::default_mix(200)
    }

    /// Size and tag of task number `task_no` (deterministic schedule).
    pub fn task_shape(&self, task_no: u32) -> (usize, i32) {
        if task_no % self.bulk_every == 0 {
            (self.bulk_bytes, 0)
        } else {
            let urgent_tags = self.max_work_tags.max(2) - 1;
            (self.urgent_bytes, (1 + task_no % urgent_tags) as i32)
        }
    }
}

/// Per-run results.
#[derive(Debug, Clone, Copy)]
pub struct MixedResult {
    /// Total run time in seconds.
    pub secs: f64,
    /// Tasks completed by the workers (sanity: must equal `num_tasks`).
    pub tasks_done: u32,
    /// Simulator events fired (self-metering).
    pub events: u64,
    /// Scheduler/driver cost of the run (self-metering).
    pub sched: simcore::SchedCounters,
    /// Network and SCTP counters of the run, each copied whole
    /// (`msgs_abandoned` stays 0 unless the run sets a lifetime).
    pub net: netsim::NetStats,
    pub sctp: transport::sctp::AssocStats,
}

impl MixedResult {
    fn new(report: MpiReport, tasks_done: u32) -> MixedResult {
        MixedResult {
            secs: report.secs(),
            tasks_done,
            events: report.events,
            sched: report.sched,
            net: report.net,
            sctp: report.sctp,
        }
    }
}

/// [`MixedResult`] plus the per-side HOL accounting from a forced trace.
#[derive(Debug, Clone, Copy)]
pub struct TracedMixedResult {
    pub result: MixedResult,
    /// Sender-side HOL blocks / total blocked ns across the run.
    pub snd_hol_blocks: u64,
    pub snd_hol_ns: u64,
    /// Receiver-side HOL blocks / total blocked ns across the run.
    pub rcv_hol_blocks: u64,
    pub rcv_hol_ns: u64,
}

/// Run the mixed farm under `mpi_cfg`.
pub fn run(mpi_cfg: MpiCfg, cfg: MixedCfg) -> MixedResult {
    let done = Rc::new(Cell::new(0u32));
    let dc = done.clone();
    let report = mpirun(mpi_cfg, move |mpi| {
        let dc = dc.clone();
        Box::pin(async move { body(mpi, cfg, &dc).await })
    });
    MixedResult::new(report, done.get())
}

/// Run the mixed farm with the flight recorder forced on, returning the
/// per-side HOL totals the interleave experiment asserts on.
pub fn run_traced(mpi_cfg: MpiCfg, cfg: MixedCfg) -> TracedMixedResult {
    let done = Rc::new(Cell::new(0u32));
    let dc = done.clone();
    let (report, dump) = mpirun_traced(mpi_cfg, move |mpi| {
        let dc = dc.clone();
        Box::pin(async move { body(mpi, cfg, &dc).await })
    });
    let hol = dump.hol_totals();
    TracedMixedResult {
        result: MixedResult::new(report, done.get()),
        snd_hol_blocks: hol.snd_blocks,
        snd_hol_ns: hol.snd_ns,
        rcv_hol_blocks: hol.rcv_blocks,
        rcv_hol_ns: hol.rcv_ns,
    }
}

async fn body(mpi: &mut Mpi, cfg: MixedCfg, done: &Cell<u32>) {
    if mpi.rank() == 0 {
        manager(mpi, cfg).await;
    } else {
        let n = worker(mpi, cfg).await;
        done.set(done.get() + n);
    }
}

async fn manager(mpi: &mut Mpi, cfg: MixedCfg) {
    assert!(mpi.size() >= 2, "mixed farm needs a manager and a worker");
    assert_eq!(cfg.num_tasks % cfg.fanout, 0, "tasks must divide evenly into batches");
    let workers = (mpi.size() - 1) as u32;
    let batches = cfg.num_tasks / cfg.fanout;
    let total_requests = batches + cfg.outstanding * workers;
    let mut remaining = cfg.num_tasks;
    let mut task_no: u32 = 0;
    let mut inflight: Vec<mpi_core::ReqId> = Vec::new();
    for _ in 0..total_requests {
        let (st, _req) = mpi.recv(ANY_SOURCE, Some(REQ_TAG)).await;
        let worker = st.src;
        if remaining > 0 {
            // One batch: `fanout` tasks off the deterministic size/tag
            // schedule. A batch's bulk task lands first, so the urgent
            // tasks behind it are exactly the sender-HOL victims.
            for _ in 0..cfg.fanout {
                let (bytes, tag) = cfg.task_shape(task_no);
                task_no += 1;
                inflight.push(mpi.isend(worker, tag, zeros(bytes)).await);
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
async fn worker(mpi: &mut Mpi, cfg: MixedCfg) -> u32 {
    let pool = (cfg.outstanding * cfg.fanout + cfg.outstanding) as usize;
    let mut recvs = Vec::with_capacity(pool);
    for _ in 0..pool {
        recvs.push(mpi.irecv(Some(0), ANY_TAG).await);
    }
    for _ in 0..cfg.outstanding {
        mpi.send(0, REQ_TAG, zeros(REQ_BYTES)).await;
    }
    let mut tasks_in_batch = 0u32;
    let mut tasks_done = 0u32;
    let mut dones = 0u32;
    while dones < cfg.outstanding {
        let (idx, st, _msg) = mpi.waitany(&recvs).await;
        recvs[idx] = mpi.irecv(Some(0), ANY_TAG).await;
        if st.tag == DONE_TAG {
            dones += 1;
            continue;
        }
        tasks_done += 1;
        tasks_in_batch += 1;
        mpi.compute(cfg.compute_per_task).await;
        if tasks_in_batch == cfg.fanout {
            tasks_in_batch = 0;
            mpi.send(0, REQ_TAG, zeros(REQ_BYTES)).await;
        }
    }
    tasks_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_schedule_is_deterministic_and_mixed() {
        let cfg = MixedCfg::small();
        let (b, t) = cfg.task_shape(0);
        assert_eq!((b, t), (cfg.bulk_bytes, 0));
        for i in 1..10 {
            let (b, t) = cfg.task_shape(i);
            assert_eq!(b, cfg.urgent_bytes);
            assert!((1..cfg.max_work_tags as i32).contains(&t));
        }
        assert_eq!(cfg.task_shape(10).1, 0, "bulk recurs every bulk_every");
    }

    #[test]
    fn all_tasks_processed_with_and_without_interleave() {
        for cfg in [
            MpiCfg::sctp(4, 0.0),
            MpiCfg::sctp(4, 0.0)
                .with_interleave(true)
                .with_scheduler(transport::sctp::SchedKind::RoundRobin),
        ] {
            let r = run(cfg, MixedCfg::small());
            assert_eq!(r.tasks_done, 200);
            assert!(r.secs > 0.0);
        }
    }

    #[test]
    fn traced_run_reports_sender_hol_without_interleave() {
        let r = run_traced(MpiCfg::sctp(3, 0.0), MixedCfg::small());
        assert_eq!(r.result.tasks_done, 200);
        assert!(r.snd_hol_blocks > 0, "mixed sizes must produce sender-side HOL: {r:?}");
    }

    #[test]
    fn interleave_with_rr_reduces_sender_hol_time() {
        let base = run_traced(MpiCfg::sctp(3, 0.0), MixedCfg::small());
        let intl = run_traced(
            MpiCfg::sctp(3, 0.0)
                .with_interleave(true)
                .with_scheduler(transport::sctp::SchedKind::RoundRobin),
            MixedCfg::small(),
        );
        assert_eq!(intl.result.tasks_done, 200);
        assert!(
            intl.snd_hol_ns < base.snd_hol_ns,
            "I-DATA + RR must strictly reduce sender-side blocked time: \
             {} vs {} ns",
            intl.snd_hol_ns,
            base.snd_hol_ns
        );
    }
}
