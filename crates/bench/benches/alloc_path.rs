//! Microbenchmarks for the memory-plane work: the slab pools that make the
//! packet path allocation-free, and the batched timer rearm that replaced
//! the abandon-and-reschedule pattern.
//!
//! * `pool_cycle` — build-and-retire a representative packet's worth of
//!   temporaries (payload list, gap list, chunk bundle) through the pool
//!   against allocating them fresh each round, at steady state where the
//!   pool always hits its freelists.
//! * `rearm` — a SACK-storm-shaped timer workload: one live RTO timer
//!   rearmed thousands of times, batched (`reschedule_in`, ghost-counted
//!   cancel) versus the open-coded cancel + schedule pair.
//! * `end_to_end` — the Figure-10 farm cell the alloc gate meters, as a
//!   whole-plane regression anchor.
//!
//! Run with `cargo bench --offline -p bench-harness --bench alloc_path`.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bench_harness::{farm_cfg, Scale};
use simcore::{Dur, ProcEnv, Runtime};
use workloads::farm;

fn pool_cycle(c: &mut Criterion) {
    let chunk = Bytes::from_static(&[0u8; 1452]);

    // A window's worth of temporaries per round: a 16-chunk payload list
    // (one cwnd of segments) and an 8-block gap list, the shapes the TCP
    // output and SACK paths build per burst.
    const CHUNKS: usize = 16;
    const GAPS: u64 = 8;

    // Steady state: the freelists are warm, every take is a pop and the
    // buffer arrives with its high-water capacity already grown.
    c.bench_function("pool_cycle/pooled", |b| {
        let mut pool = transport::pool::Pools::default();
        b.iter(|| {
            let mut payload = pool.take_bytes_vec();
            for _ in 0..CHUNKS {
                payload.push(chunk.clone());
            }
            let mut gaps = pool.take_gap_vec();
            for g in 0..GAPS {
                gaps.push((3 * g, 3 * g + 1));
            }
            black_box((&payload, &gaps));
            pool.put_bytes_vec(payload);
            pool.put_gap_vec(gaps);
        })
    });

    // What the same round cost before pooling: fresh Vecs growing through
    // the doubling reallocs, dropped (freed) at end of round.
    c.bench_function("pool_cycle/fresh_alloc", |b| {
        b.iter(|| {
            let mut payload: Vec<Bytes> = Vec::new();
            for _ in 0..CHUNKS {
                payload.push(chunk.clone());
            }
            let mut gaps: Vec<(u64, u64)> = Vec::new();
            for g in 0..GAPS {
                gaps.push((3 * g, 3 * g + 1));
            }
            black_box((&payload, &gaps));
        })
    });
}

fn rearm(c: &mut Criterion) {
    // One timer rearmed per "ack": the per-SACK RTO pattern. The measured
    // difference is one combined call (ghost push, one seq draw) against
    // the cancel + schedule pair.
    const REARMS: u64 = 4_000;

    fn run_storm(batched: bool) -> u64 {
        #[derive(Default)]
        struct W {
            pending: Option<simcore::TimerId>,
            fired: u64,
        }
        let mut rt = Runtime::new(W::default(), 0xF17E);
        rt.spawn("storm", move |env: ProcEnv<W>| async move {
            env.with(|w, ctx| {
                w.pending = Some(ctx.schedule_in(Dur::from_micros(500), |w: &mut W, _| {
                    w.fired += 1;
                }));
                for i in 0..REARMS {
                    ctx.schedule_in(Dur::from_nanos(100 * (i + 1)), move |w: &mut W, ctx| {
                        let prev = w.pending.take();
                        let f = |w: &mut W, _: &mut simcore::Ctx<W>| w.fired += 1;
                        let id = if batched {
                            ctx.reschedule_in(prev, Dur::from_micros(500), f)
                        } else {
                            if let Some(p) = prev {
                                ctx.cancel_counted(p);
                            }
                            ctx.schedule_in(Dur::from_micros(500), f)
                        };
                        w.pending = Some(id);
                    });
                }
            });
            env.sleep(Dur::from_millis(10)).await;
        });
        rt.run().events
    }

    c.bench_function("rearm/batched", |b| b.iter(|| black_box(run_storm(true))));
    c.bench_function("rearm/cancel_then_schedule", |b| b.iter(|| black_box(run_storm(false))));
}

fn end_to_end(c: &mut Criterion) {
    // The smallest fig10 cell: the workload the CI alloc gate meters.
    c.bench_function("end_to_end/farm_30k_loss0", |b| {
        let cfg = farm_cfg(Scale::Quick, 30 * 1024, 1);
        b.iter(|| {
            let r = farm::run(mpi_core::MpiCfg::sctp(8, 0.0).with_seed(1), cfg);
            black_box(r.secs)
        })
    });
}

criterion_group!(alloc_path, pool_cycle, rearm, end_to_end);
criterion_main!(alloc_path);
