//! Microbenchmarks for the hot paths, one group per layer:
//!
//! * `sack_storm` — SCTP streaming a large window through 2% loss, so every
//!   SACK carries gap blocks and the sender's ack/mark bookkeeping (cum-ack
//!   prefix drop, rtx-queue maintenance, missing-report strikes) dominates.
//! * `matching_churn` — a farm-style flood of unexpected messages from many
//!   sources drained by wildcard receives, plus the farm workload itself:
//!   the matcher's front-to-back scan of an unexpected queue up to 252
//!   long, each drain's last post missing past everything left, and the
//!   `VecDeque::remove` that takes a matched entry out of the middle.
//!
//! * `park_wake` — the runtime's park/wake primitives themselves: a full
//!   driver↔process round trip, and a burst of uncontended CPU charges the
//!   sleep fast path folds into inline clock advances (zero polls).
//!
//! * `collectives_allreduce` — the collectives layer (and communicators)
//!   end to end: allreduce + barrier rounds, then a 100 KB broadcast.
//!
//! * `sctp_window`, `sctp_reassembly` — SCTP's two flat data-plane
//!   structures on their own: the TSN-offset send ring under a loss-free
//!   SACK cadence, and one receiving association reassembling 128 KiB
//!   messages whose 91 fragments arrive in order (append, one scan) and
//!   reversed (every fragment fills in below one already held).
//!
//! Run with `cargo bench --offline -p bench-harness --bench hot_paths`.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::Core;
use mpi_core::{mpirun, MpiCfg, ReduceOp};
use simcore::{Dur, ProcEnv, ProcId, Runtime};
use transport::sctp::{self, Chunk, DataChunk, SentRing};
use workloads::farm::{self, FarmCfg};
use workloads::pingpong::{self, PingPongCfg};

fn sack_storm(c: &mut Criterion) {
    // 300 KB messages keep tens of chunks outstanding; 2% loss makes every
    // SACK a gap report and triggers fast retransmit + T3 regularly.
    c.bench_function("sack_storm/sctp_300k_loss2", |b| {
        b.iter(|| {
            let r = pingpong::run(
                MpiCfg::sctp(2, 0.02).with_seed(0xBA5E),
                PingPongCfg { size: 300 * 1024, iters: 4 },
            );
            black_box(r.throughput)
        })
    });
    c.bench_function("sack_storm/tcp_300k_loss2", |b| {
        b.iter(|| {
            let r = pingpong::run(
                MpiCfg::tcp(2, 0.02).with_seed(0xBA5E),
                PingPongCfg { size: 300 * 1024, iters: 4 },
            );
            black_box(r.throughput)
        })
    });
}

fn matching_churn(c: &mut Criterion) {
    // Pure matcher churn, farm-shaped: bursts of eager messages from many
    // sources pile up unexpected, then wildcard receives drain them in
    // arrival order, tag by tag: the scan's synthetic bad case, deeper than
    // any figure's traffic (there no lookup examines more than seven).
    c.bench_function("matching_churn/unexpected_flood", |b| {
        b.iter(|| {
            let mut core = Core::new(0, 64, 64 * 1024);
            let mut delivered = 0u64;
            for round in 0..8u32 {
                for src in 0..63u16 {
                    for k in 0..4u32 {
                        let env = Envelope {
                            kind: EnvKind::Eager,
                            src,
                            tag: (k % 3) as i32,
                            cxt: 0,
                            len: 1,
                            seq: round * 4 + k,
                        };
                        let sink = core.on_envelope(src, env).sink.unwrap();
                        core.body_chunk(sink, Bytes::from_static(b"x"));
                        let _ = core.body_done(sink);
                    }
                }
                // Drain with the farm manager's filter: ANY_SOURCE, one tag.
                for tag in 0..3i32 {
                    loop {
                        let (r, _) = core.post_recv(None, Some(tag), 0);
                        if !core.is_done(r) {
                            break;
                        }
                        let _ = core.take_done(r);
                        delivered += 1;
                    }
                }
            }
            black_box(delivered)
        })
    });
    // The real workload the flood models, end to end.
    c.bench_function("matching_churn/farm_small_sctp", |b| {
        b.iter(|| {
            let r = farm::run(MpiCfg::sctp(8, 0.0), FarmCfg::small(30 * 1024, 1));
            black_box((r.secs, r.unexpected_peak))
        })
    });
}

fn park_wake(c: &mut Criterion) {
    // Two processes ping-pong through park/wake 256 times: each exchange is
    // one deposit + wake + block_on, i.e. one `Pending` return and one poll
    // in each direction. The measured per-iteration cost divided by the
    // reported poll count is the round-trip price (before the runtime
    // became an executor: two thread switches).
    c.bench_function("park_wake/round_trip_x256", |b| {
        b.iter(|| {
            #[derive(Default)]
            struct W {
                a: u32,
                b: u32,
            }
            const N: u32 = 256;
            let mut rt = Runtime::new(W::default(), 1);
            rt.spawn("a", |env: ProcEnv<W>| async move {
                for i in 0..N {
                    env.with(|w, ctx| {
                        w.b += 1;
                        ctx.wake(ProcId(1));
                    });
                    env.block_on(move |w, _| (w.a > i).then_some(())).await;
                }
            });
            rt.spawn("b", |env: ProcEnv<W>| async move {
                for i in 0..N {
                    env.block_on(move |w, _| (w.b > i).then_some(())).await;
                    env.with(|w, ctx| {
                        w.a += 1;
                        ctx.wake(ProcId(0));
                    });
                }
            });
            black_box(rt.run().sched.polls)
        })
    });
    // 64 consecutive uncontended CPU charges: under the reference
    // discipline each is a timer park + wake; the fast path advances the
    // clock inline and never yields for the whole batch.
    c.bench_function("park_wake/charge_batch_x64", |b| {
        b.iter(|| {
            let mut rt = Runtime::new((), 1);
            rt.spawn("p", |env: ProcEnv<()>| async move {
                for _ in 0..64 {
                    env.sleep(Dur::from_nanos(100)).await;
                }
            });
            let out = rt.run();
            black_box((out.events, out.sched.wakes_coalesced))
        })
    });
}

fn collectives(c: &mut Criterion) {
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

fn sctp_window(c: &mut Criterion) {
    // A 150-chunk window (a full 220 KiB send buffer of MTU chunks), then
    // the acknowledgements a loss-free receiver sends: a SACK per second
    // chunk, each a cumulative pop plus the (empty) strike-walk range.
    // Entries are the size of the engine's sent-chunk record.
    c.bench_function("sctp_window/cum_ack_150", |b| {
        let mut ring: SentRing<[u64; 15]> = SentRing::new(1);
        let mut next = 1u64;
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..64 {
                for _ in 0..150 {
                    ring.push(next, [next; 15]);
                    next += 1;
                }
                for cum in (next - 149..next).step_by(2) {
                    while let Some((tsn, c)) = ring.pop_acked(cum) {
                        sum += tsn ^ c[0];
                    }
                    sum += ring.range_mut(cum + 1..cum + 4).count() as u64;
                }
            }
            black_box(sum)
        })
    });
}

/// An established SCTP association on host 1 with no peer engine and no
/// network: packets built by hand go straight into `sctp::input`, and a
/// sink backend collects whatever the receiver transmits.
struct Receiver {
    w: transport::World,
    ctx: transport::Wx,
    ep: sctp::EpId,
    vtag: u64,
    /// What the receiver sent (its SACKs); the caller empties it.
    wire: std::sync::Arc<std::sync::Mutex<Vec<transport::ip::Packet>>>,
}

impl Receiver {
    fn established() -> Receiver {
        use std::sync::{Arc, Mutex};
        use transport::ip::{Packet, Proto};
        struct Sink(Arc<Mutex<Vec<Packet>>>);
        impl transport::backend::Backend for Sink {
            fn send(&mut self, _w: &mut transport::World, _ctx: &mut transport::Wx, pkt: Packet) {
                self.0.lock().unwrap().push(pkt);
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        const PORT: u16 = 4000;
        let mut w = transport::World::paper_cluster(0.0);
        let mut ctx: transport::Wx = simcore::Ctx::standalone(simcore::derive_rng(7, 0));
        let wire = Arc::new(Mutex::new(Vec::new()));
        w.install_backend(Box::new(Sink(wire.clone())));
        let client = sctp::socket(&mut w, 0, PORT, false);
        let ep = sctp::socket(&mut w, 1, PORT, true);
        sctp::listen(&mut w, ep);
        sctp::connect(&mut w, &mut ctx, client, 1, PORT);
        // Carry the four handshake packets across by hand; the COOKIE-ECHO
        // is addressed with the tag host 1 chose.
        let mut vtag = 0;
        loop {
            let Some(pkt) = wire.lock().unwrap().pop() else { break };
            let Proto::Sctp(p) = pkt.body else { unreachable!("SCTP only") };
            if matches!(p.chunks[0], Chunk::CookieEcho { .. }) {
                vtag = p.vtag;
            }
            sctp::input(&mut w, &mut ctx, pkt.src, pkt.dst, p);
        }
        assert!(sctp::lookup_peer(&w, ep, 0, PORT).is_some(), "handshake completed");
        Receiver { w, ctx, ep, vtag, wire }
    }
}

fn sctp_reassembly(c: &mut Criterion) {
    use netsim::IfAddr;
    const FRAGS: u64 = 91; // 128 KiB in 1452-byte DATA chunks
    for (name, reversed) in [("in_order", false), ("reversed", true)] {
        let mut rx = Receiver::established();
        let payload = Bytes::from(vec![0u8; 1452]);
        let (mut tsn, mut ssn) = (1u64, 0u32);
        c.bench_function(&format!("sctp_reassembly/{name}_128k"), |b| {
            b.iter(|| {
                let mut bytes = 0u64;
                for _ in 0..32 {
                    // One message per packet, so the SACK decision (and its
                    // timer) runs once per message, not once per fragment.
                    let mut chunks: Vec<Chunk> = (0..FRAGS)
                        .map(|k| {
                            Chunk::Data(DataChunk {
                                tsn: tsn + k,
                                stream: 0,
                                ssn: ssn as u16 as u32,
                                begin: k == 0,
                                end: k + 1 == FRAGS,
                                unordered: false,
                                ppid: 0,
                                data: payload.clone(),
                            })
                        })
                        .collect();
                    if reversed {
                        chunks.reverse();
                    }
                    (tsn, ssn) = (tsn + FRAGS, ssn + 1);
                    let pkt = sctp::SctpPacket { src_port: 4000, dst_port: 4000, vtag: rx.vtag, chunks };
                    sctp::input(&mut rx.w, &mut rx.ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), pkt);
                    rx.wire.lock().unwrap().clear();
                    let msg = sctp::recvmsg(&mut rx.w, &mut rx.ctx, rx.ep).expect("message complete");
                    bytes += msg.len as u64;
                    rx.w.pool.put_bytes_vec(msg.data);
                }
                black_box(bytes)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sack_storm, matching_churn, park_wake, collectives, sctp_window, sctp_reassembly
}
criterion_main!(benches);
