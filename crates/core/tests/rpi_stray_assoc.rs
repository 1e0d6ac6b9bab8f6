//! The SCTP RPI listens on a well-known port, so a host that is not one of
//! the job's ranks can associate with it and send. Such a message must be
//! dropped, not crash the rank, and ordinary traffic must carry on.

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg};
use transport::sctp::{self, AssocState};

/// The port every rank's RPI endpoint listens on.
const RPI_PORT: u16 = 5600;
/// The stray socket's own port on rank 2's host.
const STRAY_PORT: u16 = 5700;

#[test]
fn message_from_a_non_rank_association_is_dropped() {
    mpirun(MpiCfg::sctp(3, 0.0), |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    let (st, msg) = mpi.recv(Some(2), Some(7)).await;
                    assert_eq!((st.src, st.tag), (2, 7));
                    assert_eq!(msg.to_vec(), b"ping");
                    mpi.send(2, 8, Bytes::from_static(b"pong")).await;
                }
                2 => {
                    let env = mpi.proc_env();
                    let me = env.id();
                    let (ep, a) = env.with(|w, ctx| {
                        let ep = sctp::socket(w, 2, STRAY_PORT, false);
                        (ep, sctp::connect(w, ctx, ep, 0, RPI_PORT))
                    });
                    env.block_on(|w, _| {
                        if sctp::assoc_state(w, a) == AssocState::Established {
                            return Some(());
                        }
                        sctp::register_writer(w, ep, me);
                        None
                    })
                    .await;
                    env.with(|w, ctx| sctp::sendmsg(w, ctx, a, 0, 0, Bytes::from_static(b"not an MPI envelope")))
                        .expect("stray message queued");
                    mpi.send(0, 7, Bytes::from_static(b"ping")).await;
                    let (st, msg) = mpi.recv(Some(0), Some(8)).await;
                    assert_eq!((st.src, st.tag), (0, 8));
                    assert_eq!(msg.to_vec(), b"pong");
                }
                _ => {}
            }
        })
    });
}
