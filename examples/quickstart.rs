//! Quickstart: run a 2-rank MPI ping-pong over both transports on the
//! simulated cluster and print the measured throughput.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg};

fn main() {
    let size = 64 * 1024; // 64 KB messages (above the ~22 KB crossover)
    let iters = 400;

    for (name, cfg) in [
        ("LAM-TCP ", MpiCfg::tcp(2, 0.0)),
        ("LAM-SCTP", MpiCfg::sctp(2, 0.0)),
    ] {
        let report = mpirun(cfg, move |mpi| {
            Box::pin(async move {
                let payload = Bytes::from(vec![0u8; size]);
                match mpi.rank() {
                    0 => {
                        for _ in 0..iters {
                            mpi.send(1, 0, payload.clone()).await;
                            let (_, msg) = mpi.recv(Some(1), Some(0)).await;
                            assert_eq!(msg.len, size);
                        }
                    }
                    1 => {
                        for _ in 0..iters {
                            let (_, msg) = mpi.recv(Some(0), Some(0)).await;
                            mpi.send(0, 0, Bytes::from(msg.to_vec())).await;
                        }
                    }
                    _ => unreachable!(),
                }
            })
        });
        let tput = (size * iters) as f64 / report.secs();
        println!(
            "{name}: {iters} x {size} B round trips in {:.3} s  ->  {:.1} MB/s one-way",
            report.secs(),
            tput / 1e6
        );
    }
    println!("\n(SCTP wins above the ~22 KB crossover; try changing `size`.)");
}
