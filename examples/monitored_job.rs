//! The §3.5.3 environment: LAM-style daemons, converted from UDP to SCTP,
//! boot a star overlay, watch an MPI job run, and halt when it completes.
//!
//! ```text
//! cargo run --release --example monitored_job
//! ```

use bytes::Bytes;
use mpi_core::{mpirun_monitored, MpiCfg, ReduceOp};

fn main() {
    let n = 8;
    let (report, table) = mpirun_monitored(MpiCfg::sctp(n, 0.0), |mpi| {
        Box::pin(async move {
            // A small job: a ring of messages plus a reduction.
            let next = (mpi.rank() + 1) % mpi.size();
            let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
            for i in 0..5 {
                let s = mpi.isend(next, i, Bytes::from(vec![0u8; 10_000])).await;
                let r = mpi.irecv(Some(prev), Some(i)).await;
                mpi.waitall(&[s, r]).await;
            }
            let _ = mpi.allreduce(ReduceOp::Sum, &[mpi.rank() as f64]).await;
        })
    });

    println!("job finished in {:.3}s (simulated); mpitask view:", report.secs());
    println!("{:>5} {:>5} {:>8} {:>6} {:>10}", "rank", "host", "started", "ended", "msgs sent");
    let mut ranks: Vec<_> = table.ranks.iter().collect();
    ranks.sort_by_key(|(r, _)| **r);
    for (r, e) in ranks {
        println!(
            "{:>5} {:>5} {:>8} {:>6} {:>10}",
            r, e.host, e.started, e.ended, e.last_msgs_sent
        );
    }
    println!("\n(the daemons and the job both ran over SCTP — §3.5.3's point)");
}
