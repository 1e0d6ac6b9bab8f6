//! End-to-end tests for the configuration modes: PPID context mapping
//! (§2.3), CMT multipath (§5), the era TCP stack, probe/iprobe, and the
//! Option A race fix.

use bytes::Bytes;
use mpi_core::{mpirun, ContextMap, MpiCfg, RaceFix, TransportSel, ANY_TAG, COMM_WORLD};
use simcore::Dur;

fn pattern(len: usize, tag: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8) ^ tag).collect::<Vec<u8>>())
}

#[test]
fn ppid_context_mapping_delivers_everything() {
    // Same traffic as a normal run, but contexts ride in the PPID field
    // and streams are keyed by tag alone — including sub-communicators.
    mpirun(MpiCfg::sctp_ppid(6, 0.01).with_seed(13), |mpi| {
        Box::pin(async move {
            let me = mpi.rank();
            let half = mpi.comm_split(COMM_WORLD, Some((me % 2) as i32), 0).await.unwrap();
            for i in 0..10u8 {
                if me == 0 || me == 1 {
                    for dst in (me + 2..mpi.size()).step_by(2) {
                        mpi.send(dst, i as i32, pattern(2000, i)).await;
                    }
                }
            }
            if me >= 2 {
                let from = me % 2;
                for i in 0..10u8 {
                    let (st, msg) = mpi.recv(Some(from), Some(i as i32)).await;
                    assert_eq!(st.len, 2000);
                    assert_eq!(msg.to_vec(), &pattern(2000, i)[..]);
                }
            }
            mpi.barrier_on(half).await;
            mpi.barrier().await;
        })
    });
}

#[test]
fn ppid_and_streamhash_agree_on_results() {
    fn sum(cfg: MpiCfg) -> f64 {
        let out = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let o = out.clone();
        mpirun(cfg, move |mpi| {
            let o = o.clone();
            Box::pin(async move {
                let v = mpi.allreduce(mpi_core::ReduceOp::Sum, &[mpi.rank() as f64]).await;
                if mpi.rank() == 0 {
                    o.store(v[0] as u64, std::sync::atomic::Ordering::Relaxed);
                }
            })
        });
        out.load(std::sync::atomic::Ordering::Relaxed) as f64
    }
    assert_eq!(sum(MpiCfg::sctp(5, 0.0)), sum(MpiCfg::sctp_ppid(5, 0.0)));
}

#[test]
fn cmt_outperforms_single_path_on_bulk() {
    fn tput(paths: u8, cmt: bool) -> f64 {
        let mut m = MpiCfg::sctp(2, 0.0).with_seed(14);
        m.sctp.num_paths = paths;
        m.sctp.cmt = cmt;
        let r = workloads::pingpong::run(m, workloads::pingpong::PingPongCfg {
            size: 200 * 1024,
            iters: 30,
        });
        r.throughput
    }
    let single = tput(1, false);
    let cmt3 = tput(3, true);
    assert!(
        cmt3 > single * 1.3,
        "CMT over 3 paths ({cmt3:.0}) should clearly beat one path ({single:.0})"
    );
}

#[test]
fn cmt_preserves_order_and_content() {
    let mut m = MpiCfg::sctp(2, 0.005).with_seed(15);
    m.sctp.num_paths = 3;
    m.sctp.cmt = true;
    mpirun(m, |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    for i in 0..30u8 {
                        mpi.send(1, 4, pattern(20_000, i)).await;
                    }
                }
                1 => {
                    for i in 0..30u8 {
                        let (_, msg) = mpi.recv(Some(0), Some(4)).await;
                        assert_eq!(msg.to_vec(), &pattern(20_000, i)[..], "CMT broke ordering at {i}");
                    }
                }
                _ => {}
            }
        })
    });
}

#[test]
fn era_tcp_is_not_better_under_loss() {
    // Averaged over seeds: the era stack (no scoreboard recovery) must not
    // beat modern SACK recovery. Individual seeds can go either way once
    // go-back-N is in play, so compare means with slack.
    let pp = workloads::pingpong::PingPongCfg { size: 300 * 1024, iters: 40 };
    let mean = |era: bool| -> f64 {
        (0..4)
            .map(|s| {
                let cfg = if era { MpiCfg::tcp_era(2, 0.02) } else { MpiCfg::tcp(2, 0.02) };
                workloads::pingpong::run(cfg.with_seed(16 + s), pp).throughput
            })
            .sum::<f64>()
            / 4.0
    };
    let modern = mean(false);
    let era = mean(true);
    // With go-back-N restart (present since 4.4BSD) the two recovery styles
    // land in the same ballpark; guard against either regressing badly.
    assert!(
        era <= modern * 3.0 && modern <= era * 3.0,
        "recovery styles diverged: era {era:.0} vs modern {modern:.0}"
    );
}

#[test]
fn probe_then_recv_sees_the_same_message() {
    mpirun(MpiCfg::sctp(2, 0.0).with_seed(17), |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    let st = mpi.probe(Some(1), ANY_TAG).await;
                    assert_eq!(st.tag, 42);
                    assert_eq!(st.len, 512);
                    // The message is still there — receive it.
                    let (st2, msg) = mpi.recv(Some(1), Some(st.tag)).await;
                    assert_eq!(st2.len, st.len);
                    assert_eq!(msg.len, 512);
                }
                1 => {
                    mpi.compute(Dur::from_millis(5)).await;
                    mpi.send(0, 42, pattern(512, 1)).await;
                }
                _ => {}
            }
        })
    });
}

#[test]
fn iprobe_is_nonblocking() {
    mpirun(MpiCfg::tcp(2, 0.0).with_seed(18), |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    assert!(mpi.iprobe(Some(1), ANY_TAG).await.is_none(), "nothing sent yet");
                    mpi.barrier().await;
                    // After the barrier the message is definitely buffered.
                    let st = mpi.probe(Some(1), Some(9)).await;
                    assert_eq!(st.len, 64);
                    let _ = mpi.recv(Some(1), Some(9)).await;
                }
                1 => {
                    mpi.send(0, 9, pattern(64, 3)).await;
                    mpi.barrier().await;
                }
                _ => {}
            }
        })
    });
}

#[test]
fn option_a_race_fix_still_correct_just_slower() {
    // Option A (spin on the body write) must deliver identical results;
    // the concurrency loss shows as equal-or-worse runtime.
    fn go(fix: RaceFix, seed: u64) -> f64 {
        let mut m = MpiCfg::sctp(4, 0.0).with_seed(seed);
        m.transport =
            TransportSel::Sctp { streams: 10, race_fix: fix, ctx_map: ContextMap::StreamHash };
        let r = workloads::farm::run(m, workloads::farm::FarmCfg::small(300 * 1024, 10));
        assert_eq!(r.tasks_done, 200);
        r.secs
    }
    let b = go(RaceFix::OptionB, 19);
    let a = go(RaceFix::OptionA, 19);
    assert!(a >= b * 0.9, "Option A ({a:.3}) should not beat Option B ({b:.3})");
}
