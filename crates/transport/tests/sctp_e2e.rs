//! End-to-end SCTP tests: associations driven by virtual processes over the
//! simulated cluster — handshake, multistreaming, fragmentation, loss
//! recovery, security features, multihoming failover.

use std::future::Future;

use bytes::Bytes;
use netsim::{IfAddr, NetCfg};
use simcore::{Dur, ProcEnv, Runtime, SimTime};
use transport::sctp::{self, AssocId, AssocState, EpId, RecvMsg, SctpCfg};
use transport::tcp::TcpCfg;
use transport::World;

type Env = ProcEnv<World>;

fn world(loss: f64, sctp_cfg: SctpCfg) -> World {
    World::new(NetCfg::paper_cluster(loss), TcpCfg::default(), sctp_cfg)
}

async fn connect_blocking(env: &Env, ep: EpId, dst_host: u16, dst_port: u16) -> AssocId {
    let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, dst_host, dst_port));
    let me = env.id();
    env.block_on(|w, _| match sctp::assoc_state(w, a) {
        AssocState::Established => Some(()),
        AssocState::Aborted => panic!("association failed during setup"),
        _ => {
            sctp::register_writer(w, ep, me);
            None
        }
    }).await;
    a
}

/// Wait until the peer's inbound association appears and is established.
async fn await_assoc(env: &Env, ep: EpId, peer_host: u16, peer_port: u16) -> AssocId {
    let me = env.id();
    env.block_on(|w, _| match sctp::lookup_peer(w, ep, peer_host, peer_port) {
        Some(a) if sctp::assoc_state(w, a) == AssocState::Established => Some(a),
        _ => {
            sctp::register_reader(w, ep, me);
            None
        }
    }).await
}

async fn sendmsg_blocking(env: &Env, a: AssocId, stream: u16, data: Bytes) {
    let me = env.id();
    let ep = a.endpoint();
    env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, stream, 0, data.clone()) {
        Ok(()) => Some(()),
        Err(sctp::SendErr::WouldBlock) => {
            sctp::register_writer(w, ep, me);
            None
        }
        Err(e) => panic!("sendmsg failed: {e:?}"),
    }).await;
}

async fn recvmsg_blocking(env: &Env, ep: EpId) -> RecvMsg {
    let me = env.id();
    env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
        Some(m) => Some(m),
        None => {
            sctp::register_reader(w, ep, me);
            None
        }
    }).await
}

fn pattern(len: usize, tag: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(13).wrapping_add(tag)).collect::<Vec<u8>>())
}

fn flatten(m: &RecvMsg) -> Vec<u8> {
    let mut v = Vec::with_capacity(m.len as usize);
    for c in &m.data {
        v.extend_from_slice(c);
    }
    v
}

fn run_pair<C: Future<Output = ()> + 'static, S: Future<Output = ()> + 'static>(
    loss: f64,
    seed: u64,
    cfg: SctpCfg,
    client: impl FnOnce(Env, EpId, AssocId) -> C + 'static,
    server: impl FnOnce(Env, EpId, AssocId) -> S + 'static,
) -> simcore::RunOutcome<World> {
    let mut rt = Runtime::new(world(loss, cfg), seed);
    rt.spawn("client", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = connect_blocking(&env, ep, 1, 4000).await;
        client(env, ep, a).await;
    });
    rt.spawn("server", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        let a = await_assoc(&env, ep, 0, 4000).await;
        server(env, ep, a).await;
    });
    rt.run()
}

#[test]
fn four_way_handshake_establishes_both_ends() {
    run_pair(
        0.0,
        1,
        SctpCfg::default(),
        |env, _ep, a| async move {
            env.with(|w, _| assert_eq!(sctp::assoc_state(w, a), AssocState::Established));
        },
        |env, _ep, a| async move {
            env.with(|w, _| assert_eq!(sctp::assoc_state(w, a), AssocState::Established));
        },
    );
}

#[test]
fn message_boundaries_are_preserved() {
    // Three differently-sized messages arrive as three messages, not a
    // byte soup — the framing property LAM-TCP has to rebuild by hand.
    let sizes = [100usize, 999, 40];
    run_pair(
        0.0,
        2,
        SctpCfg::default(),
        move |env, _ep, a| async move {
            for (i, &n) in sizes.iter().enumerate() {
                sendmsg_blocking(&env, a, 0, pattern(n, i as u8)).await;
            }
        },
        move |env, ep, _a| async move {
            for (i, &n) in sizes.iter().enumerate() {
                let m = recvmsg_blocking(&env, ep).await;
                assert_eq!(m.len as usize, n, "message {i} boundary");
                assert_eq!(flatten(&m), &pattern(n, i as u8)[..]);
                assert_eq!(m.stream, 0);
                assert_eq!(m.ssn, i as u32);
            }
        },
    );
}

#[test]
fn large_message_fragments_and_reassembles() {
    let n = 100_000;
    let data = pattern(n, 9);
    let expect = data.clone();
    run_pair(
        0.0,
        3,
        SctpCfg::default(),
        move |env, _ep, a| async move { sendmsg_blocking(&env, a, 3, data).await },
        move |env, ep, _a| async move {
            let m = recvmsg_blocking(&env, ep).await;
            assert_eq!(m.len as usize, n);
            assert_eq!(m.stream, 3);
            assert_eq!(flatten(&m), &expect[..]);
        },
    );
}

#[test]
fn per_stream_ordering_holds_across_streams() {
    // 10 streams x 20 messages; each stream's messages must arrive in SSN
    // order, and every message must arrive exactly once.
    let n_streams = 10u16;
    let per = 20u32;
    run_pair(
        0.0,
        4,
        SctpCfg::default(),
        move |env, _ep, a| async move {
            for i in 0..per {
                for sid in 0..n_streams {
                    sendmsg_blocking(&env, a, sid, pattern(200 + sid as usize, i as u8)).await;
                }
            }
        },
        move |env, ep, _a| async move {
            let mut next = vec![0u32; n_streams as usize];
            for _ in 0..(per * n_streams as u32) {
                let m = recvmsg_blocking(&env, ep).await;
                assert_eq!(m.ssn, next[m.stream as usize], "SSN order on stream {}", m.stream);
                next[m.stream as usize] += 1;
            }
            assert!(next.iter().all(|&c| c == per));
        },
    );
}

#[test]
fn bulk_transfer_no_loss_is_wire_speed() {
    let n = 100;
    let size = 10_000;
    let out = run_pair(
        0.0,
        5,
        SctpCfg::default(),
        move |env, _ep, a| async move {
            for i in 0..n {
                sendmsg_blocking(&env, a, (i % 10) as u16, pattern(size, i as u8)).await;
            }
        },
        move |env, ep, _a| async move {
            let mut total = 0u64;
            while total < (n * size) as u64 {
                total += recvmsg_blocking(&env, ep).await.len as u64;
            }
        },
    );
    let secs = out.sim_time.as_secs_f64();
    // 1 MB at 1 Gb/s ≈ 8 ms wire time.
    assert!(secs < 0.1, "SCTP bulk too slow without loss: {secs}");
}

#[test]
fn loss_recovery_preserves_content_and_order() {
    let n_msgs = 60;
    let size = 5_000;
    let out = run_pair(
        0.02,
        6,
        SctpCfg::default(),
        move |env, _ep, a| async move {
            for i in 0..n_msgs {
                sendmsg_blocking(&env, a, (i % 4) as u16, pattern(size, i as u8)).await;
            }
        },
        move |env, ep, _a| async move {
            let mut next = [0u32; 4];
            let mut seen = 0;
            while seen < n_msgs {
                let m = recvmsg_blocking(&env, ep).await;
                assert_eq!(m.ssn, next[m.stream as usize]);
                next[m.stream as usize] += 1;
                // Verify content integrity under retransmission.
                let body = flatten(&m);
                assert_eq!(body.len(), size);
                seen += 1;
            }
        },
    );
    assert!(out.world.net.stats.drops_loss > 0, "no loss actually injected");
}

#[test]
fn head_of_line_blocking_is_per_stream_only() {
    // Targeted check of the paper's Figure 4 scenario: two messages on
    // different streams; the first is lost (we force loss on, then off);
    // the second must be deliverable before the first's retransmission.
    //
    // We approximate targeted loss with a brief 100% loss window around the
    // first message's flight.
    let mut rt = Runtime::new(world(0.0, SctpCfg::default()), 7);
    rt.spawn("sender", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = connect_blocking(&env, ep, 1, 4000).await;
        // Turn on total loss, send Msg-A on stream 0 (it will be dropped).
        env.with(|w, ctx| {
            w.net.set_loss(1.0);
            sctp::sendmsg(w, ctx, a, 0, 0, pattern(1000, 1)).unwrap();
        });
        // Let the doomed transmission happen, then restore the network and
        // send Msg-B on stream 1.
        env.sleep(Dur::from_millis(10)).await;
        env.with(|w, ctx| {
            w.net.set_loss(0.0);
            sctp::sendmsg(w, ctx, a, 1, 0, pattern(1000, 2)).unwrap();
        });
    });
    let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let order2 = order.clone();
    rt.spawn("receiver", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        for _ in 0..2 {
            let m = recvmsg_blocking(&env, ep).await;
            order2.lock().unwrap().push((m.stream, env.now()));
        }
    });
    rt.run();
    let order = order.lock().unwrap();
    assert_eq!(order[0].0, 1, "stream-1 message must NOT wait for lost stream-0 message");
    assert_eq!(order[1].0, 0);
    assert!(
        order[1].1.since(order[0].1) >= Dur::from_millis(500),
        "lost message needed a retransmission to arrive"
    );
}

#[test]
fn one_to_many_socket_demuxes_many_peers() {
    // One server socket; 7 clients connect and send — the §3.1 model.
    let mut rt = Runtime::new(world(0.0, SctpCfg::default()), 8);
    for h in 1..8u16 {
        rt.spawn(format!("client{h}"), move |env: Env| async move {
            let ep = env.with(|w, _| sctp::socket(w, h, 4000, true));
            let a = connect_blocking(&env, ep, 0, 4000).await;
            sendmsg_blocking(&env, a, h % 10, pattern(500, h as u8)).await;
            let m = recvmsg_blocking(&env, ep).await;
            assert_eq!(flatten(&m)[0], h as u8 ^ 0xFF);
        });
    }
    rt.spawn("server", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 0, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..7 {
            let m = recvmsg_blocking(&env, ep).await;
            let from = m.assoc;
            assert!(seen.insert(from.idx), "two messages from one peer?");
            // Reply on the same association.
            let tag = flatten(&m)[0] ^ 0xFF;
            sendmsg_blocking(&env, from, 0, Bytes::from(vec![tag; 10])).await;
        }
    });
    rt.run();
}

#[test]
fn forged_verification_tag_is_dropped() {
    run_pair(
        0.0,
        9,
        SctpCfg::default(),
        |env, _ep, a| async move {
            // Inject a forged DATA packet at the server with a bogus vtag.
            env.with(|w, ctx| {
                let forged = sctp::SctpPacket {
                    src_port: 4000,
                    dst_port: 4000,
                    vtag: 0xDEAD_BEEF,
                    chunks: vec![sctp::Chunk::Data(sctp::DataChunk {
                        tsn: 1,
                        stream: 0,
                        ssn: 0,
                        begin: true,
                        end: true,
                        unordered: false,
                        ppid: 0,
                        data: Bytes::from_static(b"evil"),
                    })],
                };
                sctp::input(w, ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), forged);
            });
            // Legit message afterwards.
            sendmsg_blocking(&env, a, 0, Bytes::from_static(b"good")).await;
        },
        |env, ep, _a| async move {
            let m = recvmsg_blocking(&env, ep).await;
            assert_eq!(&flatten(&m)[..], b"good", "forged packet must not be delivered");
        },
    );
}

#[test]
fn stale_and_forged_cookies_are_rejected() {
    let mut rt = Runtime::new(world(0.0, SctpCfg::default()), 10);
    rt.spawn("attacker", |env: Env| async move {
        // A COOKIE-ECHO with a fabricated cookie (bad MAC) must not create
        // an association.
        env.with(|w, ctx| {
            let _server_ep = sctp::socket(w, 1, 4001, true);
            sctp::listen(w, _server_ep);
            let cookie = sctp::Cookie {
                peer_host: 0,
                peer_port: 9999,
                local_port: 4001,
                peer_tag: 42,
                local_tag: 43,
                peer_rwnd: 1000,
                peer_init_tsn: 1,
                my_init_tsn: 1,
                out_streams: 10,
                in_streams: 10,
                created_at: SimTime::ZERO,
                ext_flags: 0,
                mac: 0x1234_5678, // forged
            };
            let pkt = sctp::SctpPacket {
                src_port: 9999,
                dst_port: 4001,
                vtag: 43,
                chunks: vec![sctp::Chunk::CookieEcho { cookie }],
            };
            sctp::input(w, ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), pkt);
            assert!(
                sctp::lookup_peer(w, _server_ep, 0, 9999).is_none(),
                "forged cookie must not allocate an association"
            );
        });
    });
    rt.run();
}

#[test]
fn autoclose_shuts_idle_association() {
    let cfg = SctpCfg { autoclose: Some(Dur::from_secs(5)), ..SctpCfg::default() };
    let out = run_pair(
        0.0,
        11,
        cfg,
        |env, ep, a| async move {
            sendmsg_blocking(&env, a, 0, Bytes::from_static(b"hello")).await;
            // Then go idle; autoclose should shut the association down.
            let me = env.id();
            env.block_on(|w, _| match sctp::assoc_state(w, a) {
                AssocState::Closed => Some(()),
                _ => {
                    sctp::register_writer(w, ep, me);
                    sctp::register_reader(w, ep, me);
                    None
                }
            }).await;
        },
        |env, ep, a| async move {
            let _ = recvmsg_blocking(&env, ep).await;
            let me = env.id();
            env.block_on(|w, _| match sctp::assoc_state(w, a) {
                AssocState::Closed => Some(()),
                _ => {
                    sctp::register_reader(w, ep, me);
                    sctp::register_writer(w, ep, me);
                    None
                }
            }).await;
        },
    );
    assert!(out.sim_time >= SimTime::ZERO + Dur::from_secs(5));
    assert!(out.sim_time < SimTime::ZERO + Dur::from_secs(60));
}

#[test]
fn graceful_shutdown_completes_both_sides() {
    run_pair(
        0.0,
        12,
        SctpCfg::default(),
        |env, ep, a| async move {
            sendmsg_blocking(&env, a, 0, pattern(5000, 1)).await;
            env.with(|w, ctx| sctp::shutdown(w, ctx, a));
            let me = env.id();
            env.block_on(|w, _| match sctp::assoc_state(w, a) {
                AssocState::Closed => Some(()),
                _ => {
                    sctp::register_writer(w, ep, me);
                    sctp::register_reader(w, ep, me);
                    None
                }
            }).await;
        },
        |env, ep, a| async move {
            let _ = recvmsg_blocking(&env, ep).await;
            let me = env.id();
            env.block_on(|w, _| match sctp::assoc_state(w, a) {
                AssocState::Closed | AssocState::ShutdownAckSent => Some(()),
                _ => {
                    sctp::register_reader(w, ep, me);
                    sctp::register_writer(w, ep, me);
                    None
                }
            }).await;
        },
    );
}

#[test]
fn multihoming_failover_keeps_transfer_alive() {
    // Three paths; kill network 0 (the primary) mid-transfer. The sender
    // must fail over and complete on an alternate path.
    let cfg = SctpCfg {
        num_paths: 3,
        heartbeat_interval: Some(Dur::from_secs(2)),
        ..SctpCfg::default()
    };
    let n_msgs = 40;
    let size = 20_000;
    let mut rt = Runtime::new(world(0.0, cfg), 13);
    rt.spawn("sender", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = connect_blocking(&env, ep, 1, 4000).await;
        for i in 0..n_msgs {
            if i == 5 {
                // Primary network dies.
                env.with(|w, _| w.net.set_network_up(0, false));
            }
            sendmsg_blocking(&env, a, 0, pattern(size, i as u8)).await;
        }
        // Confirm failover happened.
        env.with(|w, _| {
            assert_ne!(sctp::primary_path(w, a), 0, "primary should have moved off path 0");
            assert!(sctp::stats(w, a).failovers >= 1);
        });
    });
    rt.spawn("receiver", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        for i in 0..n_msgs {
            let m = recvmsg_blocking(&env, ep).await;
            assert_eq!(m.ssn, i as u32, "ordered delivery across failover");
            assert_eq!(m.len as usize, size);
        }
    });
    let out = rt.run();
    assert!(out.sim_time > SimTime::ZERO + Dur::from_secs(1), "failover involves timeouts");
}

#[test]
fn sender_blocks_on_receiver_flow_control_then_resumes() {
    // Receiver sleeps; sender pushes 2 MB through a 220 KB window pair.
    let n_msgs = 20;
    let size = 100_000;
    let done_at = std::sync::Arc::new(std::sync::Mutex::new(SimTime::ZERO));
    let done2 = done_at.clone();
    run_pair(
        0.0,
        14,
        SctpCfg::default(),
        move |env, _ep, a| async move {
            for i in 0..n_msgs {
                sendmsg_blocking(&env, a, 0, pattern(size, i as u8)).await;
            }
            *done2.lock().unwrap() = env.now();
        },
        move |env, ep, _a| async move {
            env.sleep(Dur::from_secs(3)).await;
            for _ in 0..n_msgs {
                let m = recvmsg_blocking(&env, ep).await;
                assert_eq!(m.len as usize, size);
            }
        },
    );
    assert!(
        *done_at.lock().unwrap() > SimTime::ZERO + Dur::from_secs(3),
        "a_rwnd flow control failed to block the sender"
    );
}

#[test]
fn deterministic_under_loss() {
    fn run_once(seed: u64) -> (u64, u64, u64) {
        let n_msgs = 30;
        let size = 8_000;
        let out = run_pair(
            0.01,
            seed,
            SctpCfg::default(),
            move |env, _ep, a| async move {
                for i in 0..n_msgs {
                    sendmsg_blocking(&env, a, (i % 3) as u16, pattern(size, i as u8)).await;
                }
            },
            move |env, ep, _a| async move {
                for _ in 0..n_msgs {
                    recvmsg_blocking(&env, ep).await;
                }
            },
        );
        (out.sim_time.as_nanos(), out.world.net.stats.drops_loss, out.world.net.stats.packets_delivered)
    }
    assert_eq!(run_once(77), run_once(77));
}
