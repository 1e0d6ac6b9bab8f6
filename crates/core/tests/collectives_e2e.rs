//! Collectives across awkward process counts (non-powers-of-two, size 1,
//! size 2) on both transports — binomial trees and rings must degrade
//! gracefully.

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, ReduceOp};

fn cfgs(n: u16, seed: u64) -> Vec<MpiCfg> {
    vec![MpiCfg::tcp(n, 0.0).with_seed(seed), MpiCfg::sctp(n, 0.0).with_seed(seed)]
}

#[test]
fn barrier_all_sizes() {
    for n in [1u16, 2, 3, 5, 7, 8] {
        for cfg in cfgs(n, 1) {
            mpirun(cfg, |mpi| {
                Box::pin(async move {
                    for _ in 0..3 {
                        mpi.barrier().await;
                    }
                })
            });
        }
    }
}

#[test]
fn bcast_every_root_every_size() {
    for n in [1u16, 3, 6, 8] {
        for root in 0..n {
            let cfg = MpiCfg::sctp(n, 0.0).with_seed(root as u64 + 2);
            mpirun(cfg, move |mpi| {
                Box::pin(async move {
                    let data =
                        (mpi.rank() == root).then(|| Bytes::from(vec![root as u8 ^ 0x5A; 777]));
                    let got = mpi.bcast(root, data).await;
                    assert_eq!(got.len(), 777);
                    assert!(got.iter().all(|&b| b == root as u8 ^ 0x5A));
                })
            });
        }
    }
}

#[test]
fn reduce_sum_and_min_max_odd_sizes() {
    for n in [1u16, 3, 5, 7] {
        mpirun(MpiCfg::tcp(n, 0.0).with_seed(3), move |mpi| {
            Box::pin(async move {
                let me = mpi.rank() as f64;
                let s = mpi.reduce(0, ReduceOp::Sum, &[me, 1.0]).await;
                if mpi.rank() == 0 {
                    let n = mpi.size() as f64;
                    assert_eq!(s.unwrap(), vec![n * (n - 1.0) / 2.0, n]);
                }
                let mx = mpi.allreduce(ReduceOp::Max, &[me]).await;
                assert_eq!(mx, vec![(mpi.size() - 1) as f64]);
                let mn = mpi.allreduce(ReduceOp::Min, &[me]).await;
                assert_eq!(mn, vec![0.0]);
            })
        });
    }
}

#[test]
fn gather_scatter_roundtrip_odd_sizes() {
    for n in [2u16, 5, 7] {
        mpirun(MpiCfg::sctp(n, 0.0).with_seed(4), move |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                // Scatter from the last rank, gather back to it, compare.
                let root = mpi.size() - 1;
                let parts = (me == root).then(|| {
                    (0..mpi.size()).map(|p| Bytes::from(vec![p as u8; 64 + p as usize])).collect()
                });
                let mine = mpi.scatter(root, parts).await;
                assert_eq!(mine.len(), 64 + me as usize);
                assert!(mine.iter().all(|&b| b == me as u8));
                let back = mpi.gather(root, mine).await;
                if me == root {
                    let back = back.unwrap();
                    for (p, b) in back.iter().enumerate() {
                        assert_eq!(b.len(), 64 + p);
                        assert!(b.iter().all(|&x| x == p as u8));
                    }
                }
            })
        });
    }
}

#[test]
fn allgather_and_alltoall_agree_with_direct_exchange() {
    for n in [3u16, 4, 6] {
        mpirun(MpiCfg::sctp(n, 0.0).with_seed(5), move |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                let all = mpi.allgather(Bytes::from(vec![me as u8; 10 + me as usize])).await;
                for (p, b) in all.iter().enumerate() {
                    assert_eq!(b.len(), 10 + p);
                    assert!(b.iter().all(|&x| x == p as u8));
                }
                let data: Vec<Bytes> =
                    (0..n).map(|p| Bytes::from(vec![me as u8 * 16 + p as u8; 9])).collect();
                let got = mpi.alltoall(data).await;
                for (p, b) in got.iter().enumerate() {
                    assert_eq!(b[0], (p as u8) * 16 + me as u8);
                }
            })
        });
    }
}

#[test]
fn back_to_back_collectives_do_not_cross() {
    // Many collectives in a row with no intervening barrier; the per-call
    // sequence number in the tag must keep them separate.
    mpirun(MpiCfg::sctp(5, 0.0).with_seed(6), |mpi| {
        Box::pin(async move {
            for round in 0..10u8 {
                let data = (mpi.rank() == (round % 5) as u16)
                    .then(|| Bytes::from(vec![round; 100]));
                let got = mpi.bcast((round % 5) as u16, data).await;
                assert!(got.iter().all(|&b| b == round), "round {round} crossed");
            }
        })
    });
}

#[test]
fn collectives_survive_loss() {
    mpirun(MpiCfg::sctp(6, 0.02).with_seed(7), |mpi| {
        Box::pin(async move {
            for _ in 0..3 {
                let v = mpi.allreduce(ReduceOp::Sum, &[1.0; 8]).await;
                assert_eq!(v, vec![6.0; 8]);
                mpi.barrier().await;
            }
        })
    });
}

#[test]
fn collectives_do_not_match_user_receives() {
    // A wildcard user receive posted before a barrier must not swallow
    // barrier traffic (reserved context).
    mpirun(MpiCfg::tcp(3, 0.0).with_seed(8), |mpi| {
        Box::pin(async move {
            let r = mpi.irecv(mpi_core::ANY_SOURCE, mpi_core::ANY_TAG).await;
            mpi.barrier().await;
            // Nothing user-level was sent; the receive must still be pending.
            assert!(mpi.test(r).await.is_none(), "barrier traffic leaked into user context");
            // Satisfy it so the run terminates cleanly.
            let peer = (mpi.rank() + 1) % mpi.size();
            mpi.send(peer, 0, Bytes::from_static(b"x")).await;
            let _ = mpi.wait(r).await;
        })
    });
}
