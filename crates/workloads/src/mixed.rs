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
//! deterministic task-size schedule ([`MixedCfg::task_shape`]): every
//! `bulk_every`-th task is bulk (tag 0 → one stream), the rest are urgent
//! on the remaining tags. A batch's bulk task lands first, so the urgent
//! tasks behind it are exactly the sender-HOL victims.

use std::rc::Rc;

use mpi_core::{mpirun, mpirun_traced, MpiCfg};
use simcore::Dur;

use crate::farm::{self, FarmCfg, FarmResult, Tally};

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

    /// The farm loop's settings. The schedule sizes and tags each task, so
    /// `task_bytes` (the bulk size) is read by nothing.
    fn farm(&self) -> FarmCfg {
        FarmCfg {
            num_tasks: self.num_tasks,
            task_bytes: self.bulk_bytes,
            fanout: self.fanout,
            max_work_tags: self.max_work_tags,
            outstanding: self.outstanding,
            compute_per_task: self.compute_per_task,
        }
    }
}

/// [`FarmResult`] plus the per-side HOL accounting from a forced trace.
#[derive(Debug, Clone, Copy)]
pub struct TracedMixedResult {
    pub result: FarmResult,
    /// Sender-side HOL blocks / total blocked ns across the run.
    pub snd_hol_blocks: u64,
    pub snd_hol_ns: u64,
    /// Receiver-side HOL blocks / total blocked ns across the run.
    pub rcv_hol_blocks: u64,
    pub rcv_hol_ns: u64,
}

/// Run the mixed farm under `mpi_cfg`.
pub fn run(mpi_cfg: MpiCfg, cfg: MixedCfg) -> FarmResult {
    let tally: Rc<Tally> = Rc::default();
    let report = mpirun(mpi_cfg, farm::program(cfg.farm(), move |n| cfg.task_shape(n), None, &tally));
    tally.result(report)
}

/// Run the mixed farm with the flight recorder forced on, returning the
/// per-side HOL totals the interleave experiment asserts on.
pub fn run_traced(mpi_cfg: MpiCfg, cfg: MixedCfg) -> TracedMixedResult {
    let tally: Rc<Tally> = Rc::default();
    let (report, dump) =
        mpirun_traced(mpi_cfg, farm::program(cfg.farm(), move |n| cfg.task_shape(n), None, &tally));
    let hol = dump.hol_totals();
    TracedMixedResult {
        result: tally.result(report),
        snd_hol_blocks: hol.snd_blocks,
        snd_hol_ns: hol.snd_ns,
        rcv_hol_blocks: hol.rcv_blocks,
        rcv_hol_ns: hol.rcv_ns,
    }
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
