//! Idle progression passes: a pass of `progress_until` that moves nothing
//! before the rank parks. Each one is a wake that bought no progress. The
//! SCTP writer is woken only once a SACK frees as much send space as its
//! smallest blocked message needs, and the RPI asks the engine for that
//! space instead of probing with a `sendmsg` that fails. So on the paths
//! that used to retry per SACK, idle passes are now rare.
//!
//! The counts are deterministic, so each gate sits 10 % above its measured
//! count. A writer woken on every SACK that acks anything, retrying with
//! `sendmsg`, measures 21.15 idle passes per message on the stream and
//! 54.04 per task on the farm, and trips both gates.

use mpi_core::MpiCfg;
use workloads::farm::{self, FarmCfg};
use workloads::pingpong::{run_stream, StreamCfg};

/// Measured 2.000 per message (200 one-way 64 KiB messages).
const MAX_IDLE_PER_STREAM_MSG: f64 = 2.2;
/// Measured 4.492 per task (200 short and 200 long tasks, fanout 10, 1 % loss).
const MAX_IDLE_PER_FARM_TASK: f64 = 4.94;

#[test]
fn sctp_stream_64k_parks_only_when_nothing_fits() {
    const MSGS: u32 = 200;
    let r = run_stream(MpiCfg::sctp(2, 0.0), StreamCfg { size: 64 * 1024, count: MSGS });
    let per_msg = r.mpi.idle_passes as f64 / MSGS as f64;
    eprintln!("idle_passes={} msgs={MSGS} per_msg={per_msg:.3}", r.mpi.idle_passes);
    assert!(
        per_msg <= MAX_IDLE_PER_STREAM_MSG,
        "{per_msg:.2} idle passes per 64 KiB SCTP message exceeds {MAX_IDLE_PER_STREAM_MSG}: \
         is the writer woken by SACKs that free less than its message needs again?"
    );
}

#[test]
fn sctp_farm_parks_only_when_nothing_fits() {
    let mut idle = 0;
    let mut tasks = 0;
    for task_bytes in [30 * 1024, 300 * 1024] {
        let cfg = FarmCfg::small(task_bytes, 10);
        let r = farm::run(MpiCfg::sctp(8, 0.01), cfg);
        assert_eq!(r.tasks_done, cfg.num_tasks);
        idle += r.mpi.idle_passes;
        tasks += cfg.num_tasks;
    }
    let per_task = idle as f64 / tasks as f64;
    eprintln!("idle_passes={idle} tasks={tasks} per_task={per_task:.3}");
    assert!(
        per_task <= MAX_IDLE_PER_FARM_TASK,
        "{per_task:.2} idle passes per SCTP farm task exceeds {MAX_IDLE_PER_FARM_TASK}: \
         is the writer woken by SACKs that free less than its message needs again?"
    );
}
