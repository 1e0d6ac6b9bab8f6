//! The §3.5.3 daemon plane: SCTP daemons boot, monitor an MPI job, and
//! halt cleanly when it ends.

use bytes::Bytes;
use mpi_core::{mpirun_monitored, MpiCfg, ReduceOp};

#[test]
fn daemons_observe_a_full_job() {
    let (report, table) = mpirun_monitored(MpiCfg::sctp(6, 0.0).with_seed(1), |mpi| {
        Box::pin(async move {
            let _ = mpi.allreduce(ReduceOp::Sum, &[mpi.rank() as f64]).await;
            mpi.send((mpi.rank() + 1) % mpi.size(), 1, Bytes::from_static(b"hi")).await;
            let _ = mpi.recv(None, Some(1)).await;
        })
    });
    assert!(table.all_started(6), "every rank must have reported start: {table:?}");
    assert!(table.all_ended(6), "every rank must have reported end: {table:?}");
    for r in 0..6u16 {
        let e = &table.ranks[&r];
        assert_eq!(e.host, r, "rank r runs on host r");
        assert!(e.heartbeats >= 1, "final progress report missing for {r}");
        assert!(e.last_msgs_sent >= 1, "rank {r} sent messages; the report should say so");
    }
    assert!(report.secs() > 0.0);
}

#[test]
fn daemons_work_under_loss_and_with_tcp_rpi() {
    // The daemon plane is SCTP regardless of the RPI transport (that is the
    // paper's point: the *entire* environment moves to SCTP).
    let (_, table) = mpirun_monitored(MpiCfg::tcp(4, 0.01).with_seed(2), |mpi| {
        Box::pin(async move {
            mpi.barrier().await;
        })
    });
    assert!(table.all_started(4));
    assert!(table.all_ended(4));
}

#[test]
fn monitored_runs_are_deterministic() {
    let go = || {
        let (r, _) = mpirun_monitored(MpiCfg::sctp(4, 0.01).with_seed(3), |mpi| {
            Box::pin(async move {
                mpi.barrier().await;
                let _ = mpi.allreduce(ReduceOp::Max, &[1.0]).await;
            })
        });
        r.sim_time.as_nanos()
    };
    assert_eq!(go(), go());
}
