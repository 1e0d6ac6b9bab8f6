//! Head-of-line blocking, isolated (the paper's Figure 4): two messages on
//! different tags; the first is lost in transit. Under SCTP the second
//! message — on its own stream — is delivered immediately; its sibling
//! arrives ~1 RTO later. Under TCP both wait for the retransmission.
//!
//! ```text
//! cargo run --release --example multistream_hol
//! ```

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg};
use simcore::Dur;

fn scenario(name: &str, cfg: MpiCfg) {
    println!("--- {name} ---");
    let report = mpirun(cfg, |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                1 => {
                    // Sender: Msg-A (tag 100) is doomed — we flip the network
                    // to 100% loss around its flight, then restore and send
                    // Msg-B (tag 200).
                    mpi.with_world(|w| w.net.set_loss(1.0));
                    let a = mpi.isend(0, 101, Bytes::from(vec![0xAA; 1024])).await;
                    mpi.compute(Dur::from_millis(1)).await;
                    mpi.with_world(|w| w.net.set_loss(0.0));
                    let b = mpi.isend(0, 205, Bytes::from(vec![0xBB; 1024])).await;
                    mpi.waitall(&[a, b]).await;
                }
                0 => {
                    // Receiver: posts both receives, does not care about order.
                    let ra = mpi.irecv(Some(1), Some(101)).await;
                    let rb = mpi.irecv(Some(1), Some(205)).await;
                    let (first, st, _) = mpi.waitany(&[ra, rb]).await;
                    println!(
                        "  first arrival: tag {} at t={:.3}s",
                        st.tag,
                        mpi.now().as_secs_f64()
                    );
                    let other = if first == 0 { rb } else { ra };
                    let (st2, _) = mpi.wait(other).await;
                    println!(
                        "  second arrival: tag {} at t={:.3}s",
                        st2.tag,
                        mpi.now().as_secs_f64()
                    );
                }
                _ => {}
            }
        })
    });
    println!("  total: {:.3}s (drops={}, rtx: tcp={} sctp={})", report.secs(), report.net.drops_loss, report.tcp.retransmits, report.sctp.retransmits);
}

fn main() {
    // TCP: the lost Msg-A blocks Msg-B inside the byte stream.
    scenario("LAM-TCP: tag-205 waits behind the lost tag-101", MpiCfg::tcp(2, 0.0));
    // SCTP: tag-205 rides its own stream and arrives first.
    scenario("LAM-SCTP: tag-205 overtakes the lost tag-101", MpiCfg::sctp(2, 0.0));
}
