//! Unit-level SCTP tests: message semantics at the socket API, stream
//! independence, stats plumbing, and edge cases not covered by the big
//! end-to-end suites.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;
use netsim::IfAddr;
use simcore::{Dur, ProcEnv, ProcId, Runtime};
use transport::backend::Backend;
use transport::ip::{Packet, Proto};
use transport::sctp::{self, AssocState, AssocStats, Chunk, SctpCfg, SctpPacket, SendErr};
use transport::tcp::TcpCfg;
use transport::{World, Wx};

type Env = ProcEnv<World>;

fn world(cfg: SctpCfg) -> World {
    World::new(netsim::NetCfg::paper_cluster(0.0), TcpCfg::default(), cfg)
}

fn pair<C: Future<Output = ()> + 'static, S: Future<Output = ()> + 'static>(
    cfg: SctpCfg,
    seed: u64,
    client: impl FnOnce(Env, sctp::EpId, sctp::AssocId) -> C + 'static,
    server: impl FnOnce(Env, sctp::EpId, sctp::AssocId) -> S + 'static,
) {
    let mut rt = Runtime::new(world(cfg), seed);
    rt.spawn("c", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, 1, 4000));
        let me = env.id();
        env.block_on(|w, _| match sctp::assoc_state(w, a) {
            AssocState::Established => Some(()),
            _ => {
                sctp::register_writer(w, ep, me);
                None
            }
        }).await;
        client(env, ep, a).await;
    });
    rt.spawn("s", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        let me = env.id();
        let a = env.block_on(|w, _| match sctp::lookup_peer(w, ep, 0, 4000) {
            Some(a) if sctp::assoc_state(w, a) == AssocState::Established => Some(a),
            _ => {
                sctp::register_reader(w, ep, me);
                None
            }
        }).await;
        server(env, ep, a).await;
    });
    rt.run();
}

#[test]
fn zero_length_messages_are_legal_and_framed() {
    pair(
        SctpCfg::default(),
        1,
        |env, _ep, a| async move {
            let me = env.id();
            for sid in [0u16, 3] {
                env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, sid, 77, Bytes::new()) {
                    Ok(()) => Some(()),
                    Err(sctp::SendErr::WouldBlock) => {
                        sctp::register_writer(w, a.endpoint(), me);
                        None
                    }
                    Err(e) => panic!("{e:?}"),
                }).await;
            }
        },
        |env, ep, _a| async move {
            let me = env.id();
            for _ in 0..2 {
                let m = env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
                    Some(m) => Some(m),
                    None => {
                        sctp::register_reader(w, ep, me);
                        None
                    }
                }).await;
                assert_eq!(m.len, 0, "empty message must stay a message");
                assert_eq!(m.ppid, 77, "PPID must ride through");
            }
        },
    );
}

#[test]
fn sendmsg_rejects_oversized_and_bad_stream() {
    pair(
        SctpCfg::default(),
        2,
        |env, _ep, a| async move {
            env.with(|w, ctx| {
                let too_big = Bytes::from(vec![0u8; 221 * 1024]);
                assert_eq!(
                    sctp::sendmsg(w, ctx, a, 0, 0, too_big),
                    Err(sctp::SendErr::MsgTooBig)
                );
                assert_eq!(
                    sctp::sendmsg(w, ctx, a, 99, 0, Bytes::new()),
                    Err(sctp::SendErr::BadStream)
                );
            });
        },
        |_env, _ep, _a| async move {},
    );
}

#[test]
fn stats_count_data_and_sacks() {
    pair(
        SctpCfg::default(),
        3,
        |env, _ep, a| async move {
            let me = env.id();
            env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, 0, 0, Bytes::from(vec![1u8; 10_000])) {
                Ok(()) => Some(()),
                _ => {
                    sctp::register_writer(w, a.endpoint(), me);
                    None
                }
            }).await;
            // Wait for everything to be acked (writable space back to full).
            env.block_on(|w, _| {
                if sctp::can_send(w, a, 220 * 1024) {
                    Some(())
                } else {
                    sctp::register_writer(w, a.endpoint(), me);
                    None
                }
            }).await;
            env.with(|w, _| {
                let st = sctp::stats(w, a);
                assert!(st.data_chunks_out >= 7, "10 KB is ≥7 chunks, got {}", st.data_chunks_out);
                assert_eq!(st.bytes_out, 10_000);
                assert!(st.sacks_in >= 1);
                assert_eq!(st.retransmits, 0, "no loss, no retransmits");
            });
        },
        |env, ep, _a| async move {
            let me = env.id();
            let m = env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
                Some(m) => Some(m),
                None => {
                    sctp::register_reader(w, ep, me);
                    None
                }
            }).await;
            assert_eq!(m.len, 10_000);
        },
    );
}

#[test]
fn per_stream_ssns_are_independent() {
    pair(
        SctpCfg::default(),
        4,
        |env, _ep, a| async move {
            let me = env.id();
            // Interleave two streams; each stream's SSNs must start at 0.
            for i in 0..4u16 {
                let sid = i % 2;
                env.block_on(|w, ctx| {
                    match sctp::sendmsg(w, ctx, a, sid, 0, Bytes::from(vec![i as u8; 100])) {
                        Ok(()) => Some(()),
                        _ => {
                            sctp::register_writer(w, a.endpoint(), me);
                            None
                        }
                    }
                }).await;
            }
        },
        |env, ep, _a| async move {
            let me = env.id();
            let mut next = [0u32; 2];
            for _ in 0..4 {
                let m = env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
                    Some(m) => Some(m),
                    None => {
                        sctp::register_reader(w, ep, me);
                        None
                    }
                }).await;
                assert_eq!(m.ssn, next[m.stream as usize], "per-stream SSN sequence");
                next[m.stream as usize] += 1;
            }
        },
    );
}

#[test]
fn heartbeats_keep_idle_association_alive_and_measured() {
    let cfg = SctpCfg {
        heartbeat_interval: Some(Dur::from_secs(1)),
        ..SctpCfg::default()
    };
    pair(
        cfg,
        5,
        |env, _ep, a| async move {
            // Idle for several heartbeat intervals.
            env.sleep(Dur::from_secs(5)).await;
            env.with(|w, _| {
                assert_eq!(sctp::assoc_state(w, a), AssocState::Established);
                let st = sctp::stats(w, a);
                assert!(st.packets_out >= 4, "heartbeats should have flowed: {st:?}");
            });
        },
        |env, _ep, a| async move {
            env.sleep(Dur::from_secs(5)).await;
            env.with(|w, _| assert_eq!(sctp::assoc_state(w, a), AssocState::Established));
        },
    );
}

#[test]
fn security_drop_counters_are_exposed() {
    pair(
        SctpCfg::default(),
        6,
        |env, _ep, _a| async move {
            // Inject garbage with a bad vtag at the server.
            env.with(|w, ctx| {
                let pkt = sctp::SctpPacket {
                    src_port: 4000,
                    dst_port: 4000,
                    vtag: 0xBAD,
                    chunks: vec![sctp::Chunk::CookieAck],
                };
                sctp::input(w, ctx, netsim::IfAddr::new(0, 0), netsim::IfAddr::new(1, 0), pkt);
                let (vtag_drops, mac_drops, stale) = w.hosts[1].sctp.security_drops();
                assert_eq!(vtag_drops, 1);
                assert_eq!(mac_drops, 0);
                assert_eq!(stale, 0);
            });
        },
        |_env, _ep, _a| async move {},
    );
}

// ---------------------------------------------------------------------------
// Writer wakes. Host 0's one-to-many endpoint holds association A (to host
// 1) and B (to host 2). A capturing backend swallows every packet, so the
// test plays both peers: each SACK it injects frees exactly the chunks it
// names. A second process does nothing but count its wakes.
// ---------------------------------------------------------------------------

/// Egress sink: every packet an engine sends lands in a shared list.
struct Capture(Rc<RefCell<Vec<Packet>>>);

impl Backend for Capture {
    fn send(&mut self, _w: &mut World, _ctx: &mut Wx, pkt: Packet) {
        self.0.borrow_mut().push(pkt);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const PORT: u16 = 4000;
/// Payload bytes of one full DATA chunk at the default PMTU.
const CHUNK: u64 = 1452;
const A: usize = 0;
const B: usize = 1;

struct WakeRig {
    wire: Rc<RefCell<Vec<Packet>>>,
    ep: sctp::EpId,
    /// A, then B.
    assocs: [sctp::AssocId; 2],
    /// The verification tag host 0 expects on A, then on B.
    tags: [u64; 2],
    writer: ProcId,
    wakes: Rc<Cell<u32>>,
}

impl WakeRig {
    /// Hand `chunk` to host 0 as if the peer of association `i` sent it,
    /// then let a woken writer run.
    async fn inject(&self, env: &Env, i: usize, chunk: Chunk) {
        let pkt = SctpPacket { src_port: PORT, dst_port: PORT, vtag: self.tags[i], chunks: vec![chunk] };
        env.with(|w, ctx| {
            sctp::input(w, ctx, IfAddr::new(i as u16 + 1, 0), IfAddr::new(0, 0), pkt);
            self.wire.borrow_mut().clear(); // whatever host 0 sent in reply
        });
        env.yield_now().await;
    }

    /// The peer of association `i` acknowledges every TSN up to `cum`.
    async fn sack(&self, env: &Env, i: usize, cum: u64) {
        let sack = Chunk::Sack { cum_tsn: cum, a_rwnd: 220 * 1024, gaps: Vec::new() };
        self.inject(env, i, sack).await;
    }

    /// Queue a `len`-byte message on association `i` (TSNs start at 1);
    /// whatever goes out is swallowed.
    fn send(&self, env: &Env, i: usize, len: u64, lifetime: Option<Dur>) {
        env.with(|w, ctx| {
            let data = Bytes::from(vec![7u8; len as usize]);
            sctp::sendmsg_pr(w, ctx, self.assocs[i], 0, 0, data, lifetime).expect("message fits");
            self.wire.borrow_mut().clear();
        });
    }

    /// Block the writer, wanting `needs[i]` bytes of free space on
    /// association `i`.
    fn register(&self, env: &Env, needs: [u64; 2]) {
        env.with(|w, _| {
            for (a, need) in self.assocs.into_iter().zip(needs) {
                sctp::register_writer_for(w, a, need, self.writer);
            }
        });
    }
}

type Steps = for<'a> fn(&'a Env, &'a WakeRig) -> Pin<Box<dyn Future<Output = ()> + 'a>>;

/// Run `steps` against a freshly established [`WakeRig`] built with `cfg`.
fn wake_rig(cfg: SctpCfg, steps: Steps) {
    let mut w = world(cfg);
    let wire = Rc::new(RefCell::new(Vec::new()));
    w.install_backend(Box::new(Capture(wire.clone())));
    let mut rt = Runtime::new(w, 9);
    let (wakes, stop) = (Rc::new(Cell::new(0u32)), Rc::new(Cell::new(false)));
    let (count, stopped) = (wakes.clone(), stop.clone());
    let writer = rt.spawn("writer", move |env: Env| async move {
        loop {
            env.park().await;
            if stopped.get() {
                break;
            }
            count.set(count.get() + 1);
        }
    });
    rt.spawn("driver", move |env: Env| async move {
        let (ep, assocs, tags) = env.with(|w, ctx| {
            let ep = sctp::socket(w, 0, PORT, true);
            for host in [1, 2] {
                let peer = sctp::socket(w, host, PORT, true);
                sctp::listen(w, peer);
            }
            let assocs = [1, 2].map(|host| sctp::connect(w, ctx, ep, host, PORT));
            // Shuttle both four-way handshakes by hand, noting the tag each
            // peer writes on its packets to host 0.
            let mut tags = [0u64; 2];
            loop {
                let Some(pkt) = wire.borrow_mut().pop() else { break };
                let Proto::Sctp(p) = pkt.body else { panic!("SCTP only") };
                if pkt.dst.host == 0 {
                    tags[pkt.src.host as usize - 1] = p.vtag;
                }
                sctp::input(w, ctx, pkt.src, pkt.dst, p);
            }
            for a in assocs {
                assert_eq!(sctp::assoc_state(w, a), AssocState::Established);
            }
            (ep, assocs, tags)
        });
        let rig = WakeRig { wire, ep, assocs, tags, writer, wakes };
        steps(&env, &rig).await;
        stop.set(true);
        env.with(|_, ctx| ctx.wake(writer));
    });
    rt.run();
}

#[test]
fn sack_wakes_a_sized_writer_only_once_its_message_fits() {
    wake_rig(SctpCfg::default(), |env, rig| {
        Box::pin(async move {
            // A's buffer is full; B has one small message in flight.
            rig.send(env, A, 220 * 1024, None);
            rig.send(env, B, 100, None);
            let need = 3 * CHUNK;
            rig.register(env, [need, u64::MAX]);
            rig.sack(env, B, 1).await;
            assert_eq!(rig.wakes.get(), 0, "a SACK on B, where nothing waits, woke the writer");
            rig.sack(env, A, 1).await;
            rig.sack(env, A, 2).await;
            assert_eq!(rig.wakes.get(), 0, "SACKs freeing 1 and 2 chunks woke a writer needing 3");
            rig.sack(env, A, 3).await;
            assert_eq!(rig.wakes.get(), 1, "the SACK that frees 3 chunks must wake the writer");
            env.with(|w, _| assert_eq!(sctp::check_send(w, rig.assocs[A], 0, need), Ok(())));
            rig.sack(env, A, 4).await;
            assert_eq!(rig.wakes.get(), 1, "one registration, one wake");
        })
    });
}

#[test]
fn plain_register_writer_wakes_on_any_ack() {
    wake_rig(SctpCfg::default(), |env, rig| {
        Box::pin(async move {
            rig.send(env, A, 220 * 1024, None);
            // A sized registration, then a plain one: the plain one wins.
            rig.register(env, [100 * CHUNK, u64::MAX]);
            env.with(|w, _| sctp::register_writer(w, rig.ep, rig.writer));
            rig.sack(env, A, 1).await;
            assert_eq!(rig.wakes.get(), 1, "a plain writer must wake on any ack");
        })
    });
}

#[test]
fn abort_and_abandonment_wake_whatever_the_need() {
    let cfg = SctpCfg { pr_sctp: true, ..SctpCfg::default() };
    wake_rig(cfg, |env, rig| {
        Box::pin(async move {
            // Ten chunks with a 1 ms lifetime: the initial window sends a
            // few, the rest stay queued until they expire.
            rig.send(env, B, 10 * CHUNK, Some(Dur::from_millis(1)));
            rig.register(env, [u64::MAX, u64::MAX]);
            env.sleep(Dur::from_millis(2)).await;
            // A SACK that acks nothing new still runs the send path, which
            // abandons the expired fragments.
            rig.sack(env, B, 0).await;
            env.with(|w, _| assert_eq!(sctp::stats(w, rig.assocs[B]).msgs_abandoned, 1));
            assert_eq!(rig.wakes.get(), 1, "PR-SCTP abandonment must wake the writer");
            rig.register(env, [u64::MAX, u64::MAX]);
            rig.inject(env, A, Chunk::Abort).await;
            assert_eq!(rig.wakes.get(), 2, "ABORT must wake the writer");
        })
    });
}

/// `check_send` is the RPI's admission query: it answers what `sendmsg`
/// would, error for error and in the same order, without queueing.
#[test]
fn check_send_answers_what_sendmsg_would() {
    wake_rig(SctpCfg::default(), |env, rig| {
        Box::pin(async move {
            let sndbuf = 220 * 1024;
            rig.send(env, A, sndbuf, None);
            let a = rig.assocs[A];
            // (stream, len) → the first check each fails, on a full buffer.
            let full = [
                (0, 1, Err(SendErr::WouldBlock)),
                (0, 0, Ok(())),
                (0, sndbuf + 1, Err(SendErr::MsgTooBig)),
                (99, sndbuf + 1, Err(SendErr::BadStream)),
            ];
            for (stream, len, want) in full {
                env.with(|w, _| assert_eq!(sctp::check_send(w, a, stream, len), want, "{stream} {len}"));
            }
            rig.inject(env, A, Chunk::Abort).await;
            env.with(|w, ctx| {
                assert_eq!(sctp::check_send(w, a, 99, sndbuf + 1), Err(SendErr::NotConnected));
                // sendmsg agrees, and queued nothing it refused.
                let big = Bytes::from(vec![0u8; sndbuf as usize + 1]);
                assert_eq!(sctp::sendmsg(w, ctx, a, 99, 0, big), Err(SendErr::NotConnected));
            });
            for (stream, len, _) in full {
                env.with(|w, ctx| {
                    let data = Bytes::from(vec![0u8; len as usize]);
                    assert_eq!(sctp::sendmsg(w, ctx, a, stream, 0, data), sctp::check_send(w, a, stream, len));
                });
            }
        })
    });
}

#[test]
fn assoc_stats_add_path_by_path_and_keep_the_earliest_failover() {
    let mut t = AssocStats { packets_out: 3, retransmits: 1, per_path_pkts: [1, 2, 0, 0], ..Default::default() };
    t += AssocStats { packets_out: 4, timeouts: 2, first_failover_ns: 700, per_path_pkts: [0, 5, 6, 0], ..Default::default() };
    let want = AssocStats {
        packets_out: 7,
        retransmits: 1,
        timeouts: 2,
        first_failover_ns: 700,
        per_path_pkts: [1, 7, 6, 0],
        ..Default::default()
    };
    assert_eq!(t, want, "0 means never failed over: the nonzero instant wins");
    t += AssocStats { first_failover_ns: 500, ..Default::default() };
    assert_eq!(t.first_failover_ns, 500, "the earlier instant wins");
    t += AssocStats { first_failover_ns: 900, ..Default::default() };
    t += AssocStats::default();
    assert_eq!(t.first_failover_ns, 500, "a later or absent failover changes nothing");
}
