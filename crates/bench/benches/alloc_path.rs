//! Microbenchmarks for the memory-plane work: the slab pools that make the
//! packet path allocation-free, and the protocol timer whose restart is a
//! field write.
//!
//! * `pool_cycle` — build-and-retire a representative packet's worth of
//!   temporaries (payload list, gap list, chunk bundle) through the pool
//!   against allocating them fresh each round, at steady state where the
//!   pool always hits its freelists.
//! * `deadline_restart` — a SACK-storm-shaped timer workload: one RTO
//!   [`Deadline`] restarted 10 000 times while the clock advances, touching
//!   the event queue once.
//! * `end_to_end` — the Figure-10 farm cell the alloc gate meters, as a
//!   whole-plane regression anchor.
//!
//! Run with `cargo bench --offline -p bench-harness --bench alloc_path`.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bench_harness::{farm_cfg, Scale};
use simcore::{derive_rng, Ctx, Deadline, Dur, SimTime};
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

fn deadline_restart(c: &mut Criterion) {
    // One timer restarted per "ack", 100 ns apart: the per-SACK RTO pattern.
    const RESTARTS: u64 = 10_000;

    #[derive(Default)]
    struct W {
        rto: Deadline,
        timeouts: u64,
    }
    fn on_rto(w: &mut W, ctx: &mut Ctx<W>) {
        if w.rto.expired(ctx, on_rto) {
            w.timeouts += 1;
            w.rto.clear();
        }
    }

    c.bench_function("deadline_restart", |b| {
        b.iter(|| {
            let mut ctx = Ctx::standalone(derive_rng(0xF17E, 0));
            let mut w = W::default();
            for i in 0..RESTARTS {
                ctx.run_due(&mut w, SimTime::from_nanos(100 * i));
                w.rto.set(&mut ctx, Dur::from_millis(200), on_rto);
            }
            assert_eq!(ctx.counters(0).queued, 1, "only the first restart inserts");
            black_box(ctx.next_seq())
        })
    });
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

criterion_group!(alloc_path, pool_cycle, deadline_restart, end_to_end);
criterion_main!(alloc_path);
