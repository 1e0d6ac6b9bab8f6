//! End-to-end MPI middleware tests over both transports.

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, ReduceOp, ANY_SOURCE, ANY_TAG};
use simcore::Dur;

fn both(loss: f64, seed: u64) -> Vec<(&'static str, MpiCfg)> {
    vec![
        ("tcp", MpiCfg::tcp(4, loss).with_seed(seed)),
        ("sctp", MpiCfg::sctp(4, loss).with_seed(seed)),
    ]
}

fn pattern(len: usize, tag: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag)).collect::<Vec<u8>>())
}

#[test]
fn ping_pong_short_both_transports() {
    for (name, cfg) in both(0.0, 1) {
        let r = mpirun(cfg, |mpi| {
            Box::pin(async move {
                let data = pattern(1000, 1);
                match mpi.rank() {
                    0 => {
                        mpi.send(1, 7, data.clone()).await;
                        let (st, msg) = mpi.recv(Some(1), Some(8)).await;
                        assert_eq!(st.len, 1000);
                        assert_eq!(msg.to_vec(), &data[..]);
                    }
                    1 => {
                        let (st, msg) = mpi.recv(Some(0), Some(7)).await;
                        assert_eq!((st.src, st.tag, st.len), (0, 7, 1000));
                        mpi.send(0, 8, Bytes::from(msg.to_vec())).await;
                    }
                    _ => {}
                }
            })
        });
        assert!(r.secs() < 1.0, "{name}: ping-pong too slow: {}", r.secs());
    }
}

#[test]
fn long_message_uses_rendezvous_and_arrives_intact() {
    for (name, cfg) in both(0.0, 2) {
        let n = 300 * 1024; // > 64 KB eager limit
        mpirun(cfg, move |mpi| {
            Box::pin(async move {
                let data = pattern(n, 3);
                match mpi.rank() {
                    0 => mpi.send(1, 9, data.clone()).await,
                    1 => {
                        let (st, msg) = mpi.recv(Some(0), Some(9)).await;
                        assert_eq!(st.len as usize, n, "{name}");
                        assert_eq!(msg.to_vec(), &data[..], "{name}: long body corrupted");
                    }
                    _ => {}
                }
            })
        });
    }
}

#[test]
fn ssend_completes_only_after_receiver_matches() {
    for (_name, cfg) in both(0.0, 3) {
        let r = mpirun(cfg, |mpi| {
            Box::pin(async move {
                match mpi.rank() {
                    0 => {
                        let t0 = mpi.now();
                        mpi.ssend(1, 1, pattern(100, 0)).await;
                        // Receiver posts its receive after 50 ms of compute;
                        // the synchronous send cannot complete before that.
                        assert!(mpi.now().since(t0) >= Dur::from_millis(40));
                    }
                    1 => {
                        mpi.compute(Dur::from_millis(50)).await;
                        let _ = mpi.recv(Some(0), Some(1)).await;
                    }
                    _ => {}
                }
            })
        });
        assert!(r.secs() >= 0.05);
    }
}

#[test]
fn wildcard_receive_any_source_any_tag() {
    for (_name, cfg) in both(0.0, 4) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                if mpi.rank() == 0 {
                    let mut seen = std::collections::HashSet::new();
                    for _ in 0..3 {
                        let (st, msg) = mpi.recv(ANY_SOURCE, ANY_TAG).await;
                        assert_eq!(st.tag as u16, st.src * 10, "tag encodes source");
                        assert_eq!(msg.len, 64 * st.src as usize);
                        assert!(seen.insert(st.src));
                    }
                } else {
                    let me = mpi.rank();
                    mpi.send(0, (me * 10) as i32, pattern(64 * me as usize, me as u8)).await;
                }
            })
        });
    }
}

#[test]
fn non_overtaking_order_same_trc() {
    for (name, cfg) in both(0.01, 5) {
        mpirun(cfg, move |mpi| {
            Box::pin(async move {
                match mpi.rank() {
                    0 => {
                        for i in 0..50u8 {
                            mpi.send(1, 4, Bytes::from(vec![i; 100])).await;
                        }
                    }
                    1 => {
                        for i in 0..50u8 {
                            let (_, msg) = mpi.recv(Some(0), Some(4)).await;
                            assert_eq!(msg.to_vec()[0], i, "{name}: same-TRC overtaking!");
                        }
                    }
                    _ => {}
                }
            })
        });
    }
}

#[test]
fn waitany_returns_whichever_arrives_first() {
    // Rank 1 sends tag B immediately, tag A after a delay. Rank 0's
    // waitany must complete with B first — on SCTP even a *lost* A cannot
    // block B (different tags → different streams).
    for (_name, cfg) in both(0.0, 6) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                match mpi.rank() {
                    0 => {
                        let ra = mpi.irecv(Some(1), Some(100)).await;
                        let rb = mpi.irecv(Some(1), Some(200)).await;
                        let (idx, st, _) = mpi.waitany(&[ra, rb]).await;
                        assert_eq!(idx, 1, "tag-200 message must complete first");
                        assert_eq!(st.tag, 200);
                        let (st2, _) = mpi.wait(ra).await;
                        assert_eq!(st2.tag, 100);
                    }
                    1 => {
                        mpi.send(0, 200, pattern(128, 1)).await;
                        mpi.compute(Dur::from_millis(20)).await;
                        mpi.send(0, 100, pattern(128, 2)).await;
                    }
                    _ => {}
                }
            })
        });
    }
}

#[test]
fn isend_irecv_waitall_bulk() {
    for (_name, cfg) in both(0.0, 7) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let n = mpi.size();
                let me = mpi.rank();
                // Everyone exchanges with everyone (including self).
                let mut recvs = Vec::new();
                for p in 0..n {
                    recvs.push(mpi.irecv(Some(p), Some(me as i32)).await);
                }
                let mut sends = Vec::new();
                for p in 0..n {
                    sends.push(mpi.isend(p, p as i32, pattern(2048, me as u8)).await);
                }
                let msgs = mpi.waitall(&recvs).await;
                for (p, (st, msg)) in msgs.iter().enumerate() {
                    assert_eq!(st.src, p as u16);
                    assert_eq!(msg.to_vec(), &pattern(2048, p as u8)[..]);
                }
                mpi.waitall(&sends).await;
            })
        });
    }
}

#[test]
fn self_send_delivers_locally() {
    for (_name, cfg) in both(0.0, 8) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                mpi.send(me, 5, pattern(100, 9)).await;
                let (st, msg) = mpi.recv(Some(me), Some(5)).await;
                assert_eq!(st.src, me);
                assert_eq!(msg.to_vec(), &pattern(100, 9)[..]);
            })
        });
    }
}

#[test]
fn collectives_barrier_bcast_reduce() {
    for (_name, cfg) in both(0.0, 9) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                mpi.barrier().await;
                // Bcast from rank 2.
                let data = if mpi.rank() == 2 { Some(pattern(5000, 7)) } else { None };
                let got = mpi.bcast(2, data).await;
                assert_eq!(&got[..], &pattern(5000, 7)[..]);
                // Reduce sum of [rank, rank*2].
                let v = [mpi.rank() as f64, mpi.rank() as f64 * 2.0];
                let r = mpi.reduce(0, ReduceOp::Sum, &v).await;
                if mpi.rank() == 0 {
                    let r = r.unwrap();
                    let n = mpi.size() as f64;
                    let s = n * (n - 1.0) / 2.0;
                    assert_eq!(r, vec![s, 2.0 * s]);
                } else {
                    assert!(r.is_none());
                }
                // Allreduce max.
                let m = mpi.allreduce(ReduceOp::Max, &[mpi.rank() as f64]).await;
                assert_eq!(m, vec![(mpi.size() - 1) as f64]);
            })
        });
    }
}

#[test]
fn collectives_gather_scatter_allgather_alltoall() {
    for (_name, cfg) in both(0.0, 10) {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                let n = mpi.size();
                // Gather to 1.
                let g = mpi.gather(1, pattern(100 + me as usize, me as u8)).await;
                if me == 1 {
                    let g = g.unwrap();
                    for (p, b) in g.iter().enumerate() {
                        assert_eq!(&b[..], &pattern(100 + p, p as u8)[..]);
                    }
                }
                // Scatter from 0.
                let parts = if me == 0 {
                    Some((0..n).map(|p| pattern(50, p as u8)).collect::<Vec<_>>())
                } else {
                    None
                };
                let mine = mpi.scatter(0, parts).await;
                assert_eq!(&mine[..], &pattern(50, me as u8)[..]);
                // Allgather.
                let all = mpi.allgather(pattern(64, me as u8)).await;
                for (p, b) in all.iter().enumerate() {
                    assert_eq!(&b[..], &pattern(64, p as u8)[..]);
                }
                // Alltoall: data[p] = pattern tagged by (me, p).
                let data: Vec<Bytes> =
                    (0..n).map(|p| pattern(32, me as u8 ^ (p as u8) << 4)).collect();
                let got = mpi.alltoall(data).await;
                for (p, b) in got.iter().enumerate() {
                    assert_eq!(&b[..], &pattern(32, (p as u8) ^ (me as u8) << 4)[..]);
                }
            })
        });
    }
}

#[test]
fn loss_does_not_corrupt_or_reorder_mpi_messages() {
    for (name, cfg) in both(0.02, 11) {
        let r = mpirun(cfg, move |mpi| {
            Box::pin(async move {
                match mpi.rank() {
                    0 => {
                        for i in 0..20u8 {
                            // Mix of short and long messages on several tags.
                            let len = if i % 3 == 0 { 100_000 } else { 8_000 };
                            mpi.send(1, (i % 4) as i32, pattern(len, i)).await;
                        }
                    }
                    1 => {
                        let mut next = [0u8; 4];
                        for _ in 0..20 {
                            let (st, msg) = mpi.recv(Some(0), ANY_TAG).await;
                            let t = st.tag as usize;
                            // Per-tag order must hold; find which i this is.
                            let i = msg.to_vec()[0].wrapping_sub(0); // first byte is tag'd pattern start
                            let _ = i;
                            let expect_i = next[t] * 4 + t as u8;
                            let len = if expect_i.is_multiple_of(3) { 100_000 } else { 8_000 };
                            assert_eq!(msg.len, len, "{name}: wrong message for tag {t}");
                            assert_eq!(msg.to_vec(), &pattern(len, expect_i)[..], "{name}");
                            next[t] += 1;
                        }
                    }
                    _ => {}
                }
            })
        });
        assert!(r.net.drops_loss > 0, "{name}: loss must occur");
    }
}

#[test]
fn deterministic_runs() {
    fn once(seed: u64) -> (u64, u64) {
        let cfg = MpiCfg::sctp(4, 0.01).with_seed(seed);
        let r = mpirun(cfg, |mpi| {
            Box::pin(async move {
                for _ in 0..5 {
                    mpi.barrier().await;
                    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0]).await;
                }
            })
        });
        (r.sim_time.as_nanos(), r.net.packets_offered)
    }
    assert_eq!(once(99), once(99));
}

#[test]
fn eight_rank_stress_mixed_traffic() {
    for (_name, cfg) in [("tcp", MpiCfg::tcp(8, 0.01).with_seed(12)), ("sctp", MpiCfg::sctp(8, 0.01).with_seed(12))] {
        mpirun(cfg, |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                let n = mpi.size();
                for round in 0..3 {
                    // Ring exchange with varying sizes.
                    let next = (me + 1) % n;
                    let prev = (me + n - 1) % n;
                    let len = 1000 * (round + 1) * (me as usize + 1);
                    let s = mpi.isend(next, round as i32, pattern(len, me as u8)).await;
                    let r = mpi.irecv(Some(prev), Some(round as i32)).await;
                    let done = mpi.waitall(&[s, r]).await;
                    assert_eq!(done[1].1.len, 1000 * (round + 1) * (prev as usize + 1));
                    mpi.barrier().await;
                }
                let total = mpi.allreduce(ReduceOp::Sum, &[me as f64]).await;
                assert_eq!(total[0] as u16, (n - 1) * n / 2);
            })
        });
    }
}
