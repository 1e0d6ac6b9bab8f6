//! Cross-crate integration tests: full simulated-cluster MPI runs spanning
//! `simcore` → `netsim` → `transport` → `mpi-core` → `workloads`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, ReduceOp, ANY_SOURCE, ANY_TAG};
use simcore::Dur;
use workloads::farm::{run, run_with_fault, FarmCfg};
use workloads::nas::{self, Class, Kernel};
use workloads::pingpong::{self, PingPongCfg};

fn pattern(len: usize, tag: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(tag)).collect::<Vec<u8>>())
}

#[test]
fn message_storm_integrity_under_loss_both_transports() {
    // Every rank sends a mixed bag of short/long messages on several tags
    // to every other rank under 1% loss; receivers verify byte-exact
    // content and per-(src, tag) ordering.
    for cfg in [MpiCfg::tcp(6, 0.01).with_seed(21), MpiCfg::sctp(6, 0.01).with_seed(21)] {
        let r = mpirun(cfg, |mpi| {
            Box::pin(async move {
                let me = mpi.rank();
                let n = mpi.size();
                let per_pair = 6u8;
                let mut sends = Vec::new();
                for dst in 0..n {
                    if dst == me {
                        continue;
                    }
                    for i in 0..per_pair {
                        let tag = (i % 3) as i32;
                        let len = if i % 2 == 0 { 3000 } else { 80_000 };
                        sends.push(mpi.isend(dst, tag, pattern(len, me as u8 ^ (i << 2))).await);
                    }
                }
                // Receive everything, tracking per-(src, tag) sequence: the
                // idx-th arrival on (src, tag) must be the sender's message
                // i = tag + 3*idx (MPI non-overtaking per TRC).
                let mut per_tag_count = vec![[0u8; 3]; n as usize];
                let total = (n - 1) as usize * per_pair as usize;
                for _ in 0..total {
                    let (st, msg) = mpi.recv(ANY_SOURCE, ANY_TAG).await;
                    let src = st.src as usize;
                    let tag = st.tag as usize;
                    let idx = per_tag_count[src][tag];
                    per_tag_count[src][tag] += 1;
                    let i = tag as u8 + 3 * idx;
                    let len = if i.is_multiple_of(2) { 3000 } else { 80_000 };
                    assert_eq!(msg.len, len, "wrong size for src {src} tag {tag}");
                    assert_eq!(
                        msg.to_vec(),
                        &pattern(len, st.src as u8 ^ (i << 2))[..],
                        "corruption from src {src} tag {tag}"
                    );
                }
                mpi.waitall(&sends).await;
            })
        });
        assert!(r.net.drops_loss > 0);
    }
}

#[test]
fn transports_agree_on_results() {
    // The same allreduce program must produce identical numeric results on
    // both transports (only timing differs).
    fn run_sum(cfg: MpiCfg) -> Vec<f64> {
        let out = Rc::new(RefCell::new(Vec::new()));
        let o2 = out.clone();
        mpirun(cfg, move |mpi| {
            let o2 = o2.clone();
            Box::pin(async move {
                let v = [mpi.rank() as f64, (mpi.rank() as f64).powi(2)];
                let r = mpi.allreduce(ReduceOp::Sum, &v).await;
                if mpi.rank() == 0 {
                    *o2.borrow_mut() = r;
                }
            })
        });
        out.take()
    }
    let a = run_sum(MpiCfg::tcp(8, 0.0));
    let b = run_sum(MpiCfg::sctp(8, 0.0));
    assert_eq!(a, b);
    assert_eq!(a, vec![28.0, 140.0]);
}

#[test]
fn fig8_shape_holds_in_miniature() {
    // TCP ahead for small messages, SCTP ahead for large — the crossover
    // exists and sits between 4K and 128K.
    let small = 4 * 1024;
    let large = 128 * 1024;
    let t = |cfg: MpiCfg, size| pingpong::run(cfg, PingPongCfg { size, iters: 30 }).throughput;
    let norm_small = t(MpiCfg::sctp(2, 0.0), small) / t(MpiCfg::tcp(2, 0.0), small);
    let norm_large = t(MpiCfg::sctp(2, 0.0), large) / t(MpiCfg::tcp(2, 0.0), large);
    assert!(norm_small < 1.0, "TCP must win at 4K (got {norm_small})");
    assert!(norm_large > 1.0, "SCTP must win at 128K (got {norm_large})");
}

#[test]
fn sctp_beats_tcp_in_lossy_farm() {
    // The headline: under loss the farm finishes sooner on SCTP than on
    // the era-faithful TCP stack.
    let cfg = FarmCfg::small(30 * 1024, 10);
    let sctp = run(MpiCfg::sctp(8, 0.02).with_seed(33), cfg);
    let tcp_era = run(MpiCfg::tcp_era(8, 0.02).with_seed(33), cfg);
    assert_eq!(sctp.tasks_done, 200);
    assert_eq!(tcp_era.tasks_done, 200);
    assert!(
        tcp_era.secs > sctp.secs,
        "era TCP ({}) should trail SCTP ({}) at 2% loss",
        tcp_era.secs,
        sctp.secs
    );
}

#[test]
fn single_stream_sctp_shows_hol_blocking() {
    // Figure 12's isolation: at 2% loss the 10-stream farm beats the
    // 1-stream farm. Loss patterns are noisy at small task counts, so
    // aggregate several seeds of a medium-sized farm and allow slack; the
    // paper-scale run (fig12) shows the clean 1.34x.
    let cfg = FarmCfg { num_tasks: 600, ..FarmCfg::small(30 * 1024, 10) };
    let total = |mk: fn(u16, f64) -> MpiCfg| -> f64 {
        (0..6).map(|s| run(mk(8, 0.02).with_seed(100 + s), cfg).secs).sum::<f64>()
    };
    let ten = total(MpiCfg::sctp);
    let one = total(MpiCfg::sctp_single_stream);
    assert!(
        one > ten * 0.9,
        "single-stream ({one:.2}s) should not beat 10 streams ({ten:.2}s) meaningfully"
    );
}

#[test]
fn nas_kernels_run_on_the_full_stack() {
    for k in [Kernel::CG, Kernel::MG] {
        let r = nas::run(MpiCfg::sctp(8, 0.0), k, Class::S);
        assert!(r.mops_per_sec > 0.0);
    }
}

#[test]
fn failover_completes_the_job() {
    let mut m = MpiCfg::sctp(8, 0.0).with_seed(11);
    m.sctp.num_paths = 3;
    m.sctp.heartbeat_interval = Some(Dur::from_secs(2));
    m.sctp.path_max_retrans = 2;
    let cfg = FarmCfg::small(30 * 1024, 10);
    let r = run_with_fault(m, cfg, Some(5));
    assert_eq!(r.tasks_done, 200);
    assert!(r.sctp.failovers >= 1, "the primary-path death must trigger failover");
}

#[test]
fn whole_runs_are_deterministic() {
    let go = || {
        let cfg = FarmCfg::small(30 * 1024, 10);
        run(MpiCfg::sctp(8, 0.01).with_seed(5), cfg).secs
    };
    assert_eq!(go(), go());
}

#[test]
fn compute_and_communication_overlap() {
    // A nonblocking receive posted before compute completes during the
    // compute — total time ≈ max(compute, comm), not the sum.
    let r = mpirun(MpiCfg::sctp(2, 0.0), |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    let r = mpi.irecv(Some(1), Some(0)).await;
                    mpi.compute(Dur::from_millis(100)).await;
                    let t0 = mpi.now();
                    let _ = mpi.wait(r).await;
                    let waited = mpi.now().since(t0);
                    assert!(
                        waited < Dur::from_millis(10),
                        "message should have arrived during compute (waited {waited})"
                    );
                }
                1 => mpi.send(0, 0, Bytes::from(vec![0u8; 50_000])).await,
                _ => {}
            }
        })
    });
    assert!(r.secs() < 0.2);
}

#[test]
fn every_rank_runs_on_the_callers_thread() {
    // Ranks are futures polled by `mpirun` itself: no rank ever sees a
    // thread other than the one that called it.
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s2 = seen.clone();
    mpirun(MpiCfg::sctp(4, 0.0), move |mpi| {
        let s2 = s2.clone();
        Box::pin(async move {
            mpi.barrier().await;
            s2.borrow_mut().push((mpi.rank(), std::thread::current().id()));
        })
    });
    let seen = seen.take();
    assert_eq!(seen.len(), 4);
    let me = std::thread::current().id();
    assert!(seen.iter().all(|&(_, id)| id == me), "a rank left the caller's thread: {seen:?} vs {me:?}");
}
