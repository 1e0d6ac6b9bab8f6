//! Criterion benches: one per table/figure, exercising every experiment
//! path at miniature scale. These measure the *simulator's* wall-clock
//! cost; the scientific (simulated-time) numbers come from the `fig*`
//! binaries. Keeping every experiment in `cargo bench` guards the whole
//! pipeline against performance regressions.

use criterion::{criterion_group, criterion_main, Criterion};

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, ReduceOp};
use simcore::Dur;
use workloads::farm::{run as farm_run, run_with_fault, FarmCfg};
use workloads::nas::{run as nas_run, Class, Kernel};
use workloads::pingpong::{run as pp_run, PingPongCfg};

fn tiny_farm(task: usize, fanout: u32) -> FarmCfg {
    FarmCfg { num_tasks: 60, ..FarmCfg::small(task, fanout) }
}

/// Figure 8: the no-loss ping-pong pair at three sizes.
fn bench_fig8(c: &mut Criterion) {
    c.bench_function("fig8_pingpong_sweep", |b| {
        b.iter(|| {
            for size in [1024usize, 22528, 131069] {
                let pp = PingPongCfg { size, iters: 10 };
                pp_run(MpiCfg::tcp(2, 0.0), pp);
                pp_run(MpiCfg::sctp(2, 0.0), pp);
            }
        });
    });
}

/// Table 1: lossy ping-pong, both transports.
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_lossy_pingpong", |b| {
        b.iter(|| {
            let pp = PingPongCfg { size: 30 * 1024, iters: 10 };
            pp_run(MpiCfg::sctp(2, 0.01).with_seed(1), pp);
            pp_run(MpiCfg::tcp(2, 0.01).with_seed(1), pp);
        });
    });
}

/// Figure 9: two representative NAS kernels at class S.
fn bench_fig9(c: &mut Criterion) {
    c.bench_function("fig9_nas_kernels", |b| {
        b.iter(|| {
            for k in [Kernel::CG, Kernel::MG] {
                nas_run(MpiCfg::sctp(8, 0.0), k, Class::S);
                nas_run(MpiCfg::tcp(8, 0.0), k, Class::S);
            }
        });
    });
}

/// Figure 10: farm fanout 1 under loss, both transports.
fn bench_fig10(c: &mut Criterion) {
    c.bench_function("fig10_farm_fanout1", |b| {
        b.iter(|| {
            let cfg = tiny_farm(30 * 1024, 1);
            farm_run(MpiCfg::sctp(8, 0.01).with_seed(2), cfg);
            farm_run(MpiCfg::tcp(8, 0.01).with_seed(2), cfg);
        });
    });
}

/// Figure 11: farm fanout 10 under loss.
fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11_farm_fanout10", |b| {
        b.iter(|| {
            let cfg = tiny_farm(30 * 1024, 10);
            farm_run(MpiCfg::sctp(8, 0.01).with_seed(3), cfg);
            farm_run(MpiCfg::tcp(8, 0.01).with_seed(3), cfg);
        });
    });
}

/// Figure 12: 10 streams vs 1 stream.
fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12_hol_isolation", |b| {
        b.iter(|| {
            let cfg = tiny_farm(30 * 1024, 10);
            farm_run(MpiCfg::sctp(8, 0.02).with_seed(4), cfg);
            farm_run(MpiCfg::sctp_single_stream(8, 0.02).with_seed(4), cfg);
        });
    });
}

/// Ablation A2: Option A vs Option B.
fn bench_ablate_race(c: &mut Criterion) {
    use mpi_core::{ContextMap, RaceFix, TransportSel};
    c.bench_function("ablate_race_options", |b| {
        b.iter(|| {
            for fix in [RaceFix::OptionA, RaceFix::OptionB] {
                let mut m = MpiCfg::sctp(8, 0.0).with_seed(5);
                m.transport = TransportSel::Sctp {
                    streams: 10,
                    race_fix: fix,
                    ctx_map: ContextMap::StreamHash,
                };
                farm_run(m, tiny_farm(300 * 1024, 10));
            }
        });
    });
}

/// A3: multihoming failover.
fn bench_failover(c: &mut Criterion) {
    c.bench_function("failover_farm", |b| {
        b.iter(|| {
            let mut m = MpiCfg::sctp(8, 0.0).with_seed(6);
            m.sctp.num_paths = 3;
            m.sctp.heartbeat_interval = Some(Dur::from_secs(2));
            m.sctp.path_max_retrans = 2;
            run_with_fault(m, tiny_farm(30 * 1024, 10), Some(2))
        });
    });
}

/// A5: CMT bulk transfer.
fn bench_cmt(c: &mut Criterion) {
    c.bench_function("cmt_bulk", |b| {
        b.iter(|| {
            let mut m = MpiCfg::sctp(2, 0.0).with_seed(7);
            m.sctp.num_paths = 3;
            m.sctp.cmt = true;
            pp_run(m, PingPongCfg { size: 200 * 1024, iters: 10 })
        });
    });
}

/// The collectives layer end to end (also covers communicators).
fn bench_collectives(c: &mut Criterion) {
    c.bench_function("collectives_allreduce", |b| {
        b.iter(|| {
            mpirun(MpiCfg::sctp(8, 0.0).with_seed(8), |mpi| {
                Box::pin(async move {
                    for _ in 0..5 {
                        let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 16]).await;
                        mpi.barrier().await;
                    }
                    let _ = mpi.bcast(0, (mpi.rank() == 0).then(|| Bytes::from(vec![0u8; 100_000]))).await;
                })
            })
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig8, bench_table1, bench_fig9, bench_fig10, bench_fig11,
              bench_fig12, bench_ablate_race, bench_failover, bench_cmt,
              bench_collectives
}
criterion_main!(benches);
