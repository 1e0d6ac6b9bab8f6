//! Unit-level SCTP tests: message semantics at the socket API, stream
//! independence, stats plumbing, and edge cases not covered by the big
//! end-to-end suites.

use std::future::Future;

use bytes::Bytes;
use simcore::{Dur, ProcEnv, Runtime};
use transport::sctp::{self, AssocState, SctpCfg};
use transport::tcp::TcpCfg;
use transport::World;

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
