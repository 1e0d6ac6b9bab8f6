//! Communicator tests: dup isolation, split semantics, collectives and
//! point-to-point within sub-communicators, on both transports.

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, ReduceOp, COMM_WORLD};
use simcore::Dur;

#[test]
fn comm_world_accessors() {
    mpirun(MpiCfg::sctp(4, 0.0), |mpi| {
        Box::pin(async move {
            assert_eq!(mpi.comm_rank(COMM_WORLD), mpi.rank());
            assert_eq!(mpi.comm_size(COMM_WORLD), mpi.size());
        })
    });
}

#[test]
fn dup_gets_fresh_context_and_isolates_traffic() {
    for cfg in [MpiCfg::tcp(4, 0.0).with_seed(1), MpiCfg::sctp(4, 0.0).with_seed(1)] {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let dup = mpi.comm_dup(COMM_WORLD).await;
                assert_eq!(mpi.comm_size(dup), mpi.size());
                // A receive on the dup must not match a world send (same tag!).
                if mpi.rank() == 0 {
                    let r_dup = mpi.irecv_on(dup, Some(1), Some(7)).await;
                    let (st, msg) = mpi.recv(Some(1), Some(7)).await; // world context
                    assert_eq!(st.len, 3);
                    assert_eq!(&msg.to_vec()[..], b"wld");
                    assert!(mpi.test(r_dup).await.is_none(), "dup recv matched world traffic!");
                    // Now the dup message arrives.
                    let (_, msg) = mpi.wait(r_dup).await;
                    assert_eq!(&msg.to_vec()[..], b"dup");
                } else if mpi.rank() == 1 {
                    mpi.send(0, 7, Bytes::from_static(b"wld")).await;
                    // Delay the dup-context message so rank 0 can observe that
                    // the world message alone does not satisfy the dup receive.
                    mpi.compute(Dur::from_millis(50)).await;
                    mpi.send_on(dup, 0, 7, Bytes::from_static(b"dup")).await;
                }
                mpi.barrier_on(dup).await;
            })
        });
    }
}

#[test]
fn split_into_even_and_odd_halves() {
    for cfg in [MpiCfg::tcp(8, 0.0).with_seed(2), MpiCfg::sctp(8, 0.0).with_seed(2)] {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                let half = mpi.comm_split(COMM_WORLD, Some((me % 2) as i32), me as i32).await.unwrap();
                assert_eq!(mpi.comm_size(half), 4);
                assert_eq!(mpi.comm_rank(half), me / 2, "ordered by key");
                // Sum of world ranks within the half.
                let s = mpi.allreduce_on(half, ReduceOp::Sum, &[me as f64]).await;
                let expect = if me % 2 == 0 { 0.0 + 2.0 + 4.0 + 6.0 } else { 1.0 + 3.0 + 5.0 + 7.0 };
                assert_eq!(s, vec![expect]);
                // Ring exchange within the half: local neighbors only.
                let local = mpi.comm_rank(half);
                let n = mpi.comm_size(half);
                let to = (local + 1) % n;
                let from = (local + n - 1) % n;
                let s1 = mpi.isend_on(half, to, 9, Bytes::from(vec![me as u8; 10])).await;
                let r1 = mpi.irecv_on(half, Some(from), Some(9)).await;
                let done = mpi.waitall(&[s1, r1]).await;
                let got = done[1].1.to_vec()[0];
                assert_eq!(got % 2, me as u8 % 2, "message crossed the split!");
                mpi.waitall(&[]).await;
            })
        });
    }
}

#[test]
fn split_with_undefined_color_excludes_rank() {
    mpirun(MpiCfg::sctp(5, 0.0).with_seed(3), |mpi| {
        Box::pin(async move {
            let me = mpi.rank();
            // Rank 4 opts out.
            let color = if me == 4 { None } else { Some(0) };
            let sub = mpi.comm_split(COMM_WORLD, color, me as i32).await;
            if me == 4 {
                assert!(sub.is_none());
            } else {
                let sub = sub.unwrap();
                assert_eq!(mpi.comm_size(sub), 4);
                mpi.barrier_on(sub).await;
                let got = mpi.bcast_on(sub, 0, (mpi.comm_rank(sub) == 0).then(|| Bytes::from_static(b"sub"))).await;
                assert_eq!(&got[..], b"sub");
            }
        })
    });
}

#[test]
fn split_reverse_key_reverses_ranks() {
    mpirun(MpiCfg::tcp(6, 0.0).with_seed(4), |mpi| {
        Box::pin(async move {
            let me = mpi.rank();
            let rev = mpi.comm_split(COMM_WORLD, Some(0), -(me as i32)).await.unwrap();
            assert_eq!(mpi.comm_rank(rev), mpi.size() - 1 - me);
        })
    });
}

#[test]
fn nested_splits() {
    mpirun(MpiCfg::sctp(8, 0.0).with_seed(5), |mpi| {
        Box::pin(async move {
            let me = mpi.rank();
            let half = mpi.comm_split(COMM_WORLD, Some((me / 4) as i32), me as i32).await.unwrap();
            let quarter = mpi.comm_split(half, Some((mpi.comm_rank(half) / 2) as i32), 0).await.unwrap();
            assert_eq!(mpi.comm_size(quarter), 2);
            let s = mpi.allreduce_on(quarter, ReduceOp::Sum, &[me as f64]).await;
            // Each quarter holds consecutive world ranks {2k, 2k+1}.
            let base = (me / 2) * 2;
            assert_eq!(s, vec![(base + base + 1) as f64]);
        })
    });
}

#[test]
fn wildcard_recv_on_subcomm_translates_ranks() {
    mpirun(MpiCfg::sctp(6, 0.0).with_seed(6), |mpi| {
        Box::pin(async move {
            let me = mpi.rank();
            let evens = mpi.comm_split(COMM_WORLD, Some((me % 2) as i32), 0).await.unwrap();
            let n = mpi.comm_size(evens);
            if mpi.comm_rank(evens) == 0 {
                for _ in 1..n {
                    let (st, _) = mpi.recv_on(evens, None, Some(3)).await;
                    let local = mpi.world_to_comm_rank(evens, st.src).expect("sender in subcomm");
                    assert!(local > 0 && local < n);
                }
            } else {
                mpi.send_on(evens, 0, 3, Bytes::from_static(b"hi")).await;
            }
        })
    });
}
