//! End-to-end TCP tests: sockets driven by virtual processes over the
//! simulated cluster, with and without loss.

use std::future::Future;

use bytes::Bytes;
use simcore::{Dur, ProcEnv, Runtime, SimTime};
use transport::tcp::{self, SockId};
use transport::World;

type Env = ProcEnv<World>;

async fn connect_blocking(env: &Env, host: u16, dst_host: u16, dst_port: u16) -> SockId {
    let s = env.with(|w, ctx| tcp::connect(w, ctx, host, dst_host, dst_port));
    let me = env.id();
    env.block_on(|w, _| {
        if tcp::is_established(w, s) {
            Some(())
        } else {
            assert!(!tcp::is_failed(w, s), "connect failed");
            tcp::register_writer(w, s, me);
            None
        }
    }).await;
    s
}

async fn accept_blocking(env: &Env, host: u16, port: u16) -> SockId {
    let me = env.id();
    env.block_on(|w, _| match tcp::accept(w, host, port) {
        Some(s) => Some(s),
        None => {
            tcp::register_acceptor(w, host, port, me);
            None
        }
    }).await
}

async fn send_all(env: &Env, s: SockId, data: Bytes) {
    let me = env.id();
    let mut off = 0usize;
    while off < data.len() {
        let chunk = data.slice(off..);
        let n = env.with(|w, ctx| tcp::send(w, ctx, s, &[chunk]));
        off += n;
        if off < data.len() && n == 0 {
            env.with(|w, _| tcp::register_writer(w, s, me));
            env.park().await;
        }
    }
}

async fn recv_exact(env: &Env, s: SockId, n: usize) -> Vec<u8> {
    let me = env.id();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let want = n - out.len();
        let chunks = env.with(|w, ctx| tcp::recv(w, ctx, s, want));
        if chunks.is_empty() {
            env.with(|w, _| {
                assert!(!tcp::at_eof(w, s), "unexpected EOF");
                tcp::register_reader(w, s, me);
            });
            env.park().await;
        } else {
            for c in chunks {
                out.extend_from_slice(&c);
            }
        }
    }
    out
}

fn pattern(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>())
}

fn run_pair<C: Future<Output = ()> + 'static, S: Future<Output = ()> + 'static>(
    loss: f64,
    seed: u64,
    client: impl FnOnce(Env, SockId) -> C + 'static,
    server: impl FnOnce(Env, SockId) -> S + 'static,
) -> simcore::RunOutcome<World> {
    let mut rt = Runtime::new(World::paper_cluster(loss), seed);
    rt.spawn("client", move |env: Env| async move {
        let s = connect_blocking(&env, 0, 1, 5000).await;
        client(env, s).await;
    });
    rt.spawn("server", move |env: Env| async move {
        env.with(|w, _| tcp::listen(w, 1, 5000));
        let s = accept_blocking(&env, 1, 5000).await;
        server(env, s).await;
    });
    rt.run()
}

#[test]
fn handshake_and_small_message() {
    let data = pattern(100);
    let expect = data.clone();
    run_pair(
        0.0,
        1,
        move |env, s| async move { send_all(&env, s, data).await },
        move |env, s| async move {
            let got = recv_exact(&env, s, 100).await;
            assert_eq!(&got[..], &expect[..]);
        },
    );
}

#[test]
fn bidirectional_transfer() {
    let a = pattern(5000);
    let b = pattern(3000);
    let (ae, be) = (a.clone(), b.clone());
    run_pair(
        0.0,
        2,
        move |env, s| async move {
            send_all(&env, s, a).await;
            let got = recv_exact(&env, s, 3000).await;
            assert_eq!(&got[..], &be[..]);
        },
        move |env, s| async move {
            let got = recv_exact(&env, s, 5000).await;
            assert_eq!(&got[..], &ae[..]);
            send_all(&env, s, b).await;
        },
    );
}

#[test]
fn bulk_transfer_no_loss_is_wire_speed() {
    let n = 1_000_000;
    let data = pattern(n);
    let expect = data.clone();
    let out = run_pair(
        0.0,
        3,
        move |env, s| async move { send_all(&env, s, data).await },
        move |env, s| async move {
            let got = recv_exact(&env, s, n).await;
            assert_eq!(got.len(), n);
            assert_eq!(&got[..64], &expect[..64]);
            assert_eq!(&got[n - 64..], &expect[n - 64..]);
        },
    );
    // 1 MB at 1 Gb/s is 8 ms on the wire; allow generous protocol overhead
    // (slow start) but catch gross stalls (an RTO would add a full second).
    let secs = out.sim_time.as_secs_f64();
    assert!(secs > 0.008, "faster than line rate? {secs}");
    assert!(secs < 0.1, "transfer too slow without loss: {secs}s");
}

#[test]
fn bulk_transfer_survives_heavy_loss_intact() {
    let n = 300_000;
    let data = pattern(n);
    let expect = data.clone();
    let out = run_pair(
        0.02,
        4,
        move |env, s| async move { send_all(&env, s, data).await },
        move |env, s| async move {
            let got = recv_exact(&env, s, n).await;
            assert_eq!(&got[..], &expect[..], "corruption under loss");
        },
    );
    assert!(out.world.net.stats.drops_loss > 0, "loss must actually occur");
    let st = out.world.hosts[0].tcp.total_stats();
    assert!(st.retransmits > 0, "recovery must have happened");
}

#[test]
fn fast_retransmit_recovers_single_drop_quickly() {
    // With 0.3% loss and a large transfer, most losses recover via dup-ACKs.
    let n = 2_000_000;
    let data = pattern(n);
    let out = run_pair(
        0.003,
        5,
        move |env, s| async move { send_all(&env, s, data).await },
        move |env, s| async move {
            let _ = recv_exact(&env, s, n).await;
        },
    );
    let st = out.world.hosts[0].tcp.total_stats();
    assert!(
        st.fast_retransmits > 0,
        "expected some fast retransmits, got stats {st:?}"
    );
}

#[test]
fn close_delivers_eof_and_half_close_allows_reply() {
    // Client sends, closes (FIN). Server reads to EOF, then still sends a
    // reply over the half-closed connection; client reads it.
    let data = pattern(1000);
    let reply = pattern(500);
    let (de, re) = (data.clone(), reply.clone());
    run_pair(
        0.0,
        6,
        move |env, s| async move {
            send_all(&env, s, data).await;
            env.with(|w, ctx| tcp::close(w, ctx, s));
            let got = recv_exact(&env, s, 500).await;
            assert_eq!(&got[..], &re[..]);
        },
        move |env, s| async move {
            let got = recv_exact(&env, s, 1000).await;
            assert_eq!(&got[..], &de[..]);
            // Wait for EOF.
            let me = env.id();
            env.block_on(|w, _| {
                if tcp::at_eof(w, s) {
                    Some(())
                } else {
                    tcp::register_reader(w, s, me);
                    None
                }
            }).await;
            // Half-closed: we can still send.
            send_all(&env, s, reply).await;
            env.with(|w, ctx| tcp::close(w, ctx, s));
        },
    );
}

#[test]
fn flow_control_blocks_sender_until_receiver_drains() {
    // Receiver sleeps before reading; sender's 1 MB must not complete until
    // the receiver drains (220 KB rcvbuf + 220 KB sndbuf << 1 MB).
    let n = 1_000_000;
    let data = pattern(n);
    let done_at = std::rc::Rc::new(std::cell::RefCell::new(SimTime::ZERO));
    let done2 = done_at.clone();
    let out = run_pair(
        0.0,
        7,
        move |env, s| async move {
            send_all(&env, s, data).await;
            *done2.borrow_mut() = env.now();
        },
        move |env, s| async move {
            env.sleep(Dur::from_secs(2)).await;
            let got = recv_exact(&env, s, n).await;
            assert_eq!(got.len(), n);
        },
    );
    let sender_done = *done_at.borrow_mut();
    assert!(
        sender_done > SimTime::ZERO + Dur::from_secs(2),
        "sender finished at {sender_done} — flow control did not block it"
    );
    assert!(out.sim_time > SimTime::ZERO + Dur::from_secs(2));
}

#[test]
fn zero_window_persist_probe_resumes_after_long_stall() {
    // Receiver stalls for 30 s (longer than any single RTO backoff stage);
    // persist probing must keep the connection alive and resume.
    let n = 500_000;
    let data = pattern(n);
    run_pair(
        0.0,
        8,
        move |env, s| async move { send_all(&env, s, data).await },
        move |env, s| async move {
            env.sleep(Dur::from_secs(30)).await;
            let got = recv_exact(&env, s, n).await;
            assert_eq!(got.len(), n);
        },
    );
}

#[test]
fn full_mesh_eight_hosts() {
    // Every pair of 8 hosts exchanges a message — the LAM-TCP topology.
    let mut rt = Runtime::new(World::paper_cluster(0.0), 9);
    let n = 8u16;
    for h in 0..n {
        rt.spawn(format!("h{h}"), move |env: Env| async move {
            env.with(|w, _| tcp::listen(w, h, 6000));
            // Connect to every higher rank; accept from every lower rank.
            let mut socks = Vec::new();
            for peer in (h + 1)..n {
                socks.push(connect_blocking(&env, h, peer, 6000).await);
            }
            for _ in 0..h {
                socks.push(accept_blocking(&env, h, 6000).await);
            }
            // Everyone sends its rank 100 times on every socket.
            let msg = Bytes::from(vec![h as u8; 100]);
            for &s in &socks {
                send_all(&env, s, msg.clone()).await;
            }
            for &s in &socks {
                let got = recv_exact(&env, s, 100).await;
                assert!(got.iter().all(|&b| b == got[0]), "mixed bytes from one peer");
                assert_ne!(got[0], h as u8, "own rank echoed back?");
            }
        });
    }
    rt.run();
}

#[test]
fn deterministic_under_loss() {
    fn run_once(seed: u64) -> (u64, u64, u64) {
        let n = 200_000;
        let data = pattern(n);
        let out = run_pair(
            0.01,
            seed,
            move |env, s| async move { send_all(&env, s, data).await },
            move |env, s| async move {
                let _ = recv_exact(&env, s, n).await;
            },
        );
        let st = out.world.hosts[0].tcp.total_stats();
        (out.sim_time.as_nanos(), st.retransmits, out.world.net.stats.drops_loss)
    }
    assert_eq!(run_once(42), run_once(42), "same seed must reproduce exactly");
    assert_ne!(
        run_once(42),
        run_once(44),
        "different seeds should draw different loss patterns"
    );
}

#[test]
fn connect_to_dead_host_fails_after_retries() {
    let mut rt = Runtime::new(World::paper_cluster(0.0), 10);
    rt.spawn("client", |env: Env| async move {
        // Nobody listens on host 1 port 7777.
        let s = env.with(|w, ctx| tcp::connect(w, ctx, 0, 1, 7777));
        let me = env.id();
        env.block_on(|w, _| {
            if tcp::is_failed(w, s) {
                Some(())
            } else {
                assert!(!tcp::is_established(w, s));
                tcp::register_writer(w, s, me);
                None
            }
        }).await;
    });
    let out = rt.run();
    // 6 retries with exponential backoff from 3 s: tens of seconds.
    assert!(out.sim_time > SimTime::ZERO + Dur::from_secs(10));
}

/// Refactor guard, the twin of `interleave.rs::engine_cells_are_pinned`:
/// `(events, sim_ns, sender stats, receiver stats)` of three lossy two-host
/// cells, one per TCP timer — a transfer that takes retransmission
/// timeouts, one that recovers by fast retransmit alone, and a 30 s
/// zero-window stall the persist timer has to probe through (with delayed
/// ACKs under all three). The simulation is deterministic, so any drift in
/// `sim_ns` or a counter is a behaviour change; `events` also counts timer
/// wakes that found nothing to do. On a mismatch the test prints the actual
/// rows in table form.
#[test]
fn tcp_cells_are_pinned() {
    fn row(st: tcp::SockStats) -> [u64; 8] {
        [
            st.segs_out,
            st.segs_in,
            st.bytes_out,
            st.bytes_in,
            st.retransmits,
            st.fast_retransmits,
            st.timeouts,
            st.dup_acks_in,
        ]
    }
    // (name, loss, seed, bytes, receiver stall before its first read)
    let cells: [(&str, f64, u64, usize, u64); 3] = [
        ("rto", 0.02, 4, 300_000, 0),
        ("fast-retransmit only", 0.003, 5, 2_000_000, 0),
        ("persist probe", 0.01, 8, 500_000, 30),
    ];
    #[rustfmt::skip]
    let want: [(u64, u64, [u64; 8], [u64; 8]); 3] = [
        (346, 1006681936, [218, 133, 311584, 0, 8, 7, 1, 38], [136, 209, 0, 300000, 0, 0, 0, 0]),
        (2212, 17031280, [1387, 828, 2004344, 0, 3, 3, 0, 271], [832, 1383, 0, 2000000, 0, 0, 0, 0]),
        (545, 33003475024, [354, 181, 501448, 0, 1, 1, 0, 5], [184, 352, 0, 500000, 0, 0, 0, 0]),
    ];
    let runs = cells.map(|(name, loss, seed, n, stall)| {
        let data = pattern(n);
        let out = run_pair(
            loss,
            seed,
            move |env, s| async move { send_all(&env, s, data).await },
            move |env, s| async move {
                env.sleep(Dur::from_secs(stall)).await;
                let _ = recv_exact(&env, s, n).await;
            },
        );
        let [tx, rx] = [0, 1].map(|h| out.world.hosts[h].tcp.total_stats());
        (name, out.events, out.sim_time.as_nanos(), tx, rx)
    });
    let [rto, fast, persist] = [0, 1, 2].map(|i| runs[i].3);
    assert!(rto.timeouts > 0, "the rto cell must take a timeout: {rto:?}");
    assert!(
        fast.fast_retransmits > 0 && fast.timeouts == 0,
        "the fast cell must recover without a timeout: {fast:?}"
    );
    assert!(
        persist.segs_out > persist.retransmits + 500_000 / 1460,
        "the stalled cell must send probes: {persist:?}"
    );
    let got = runs.map(|(name, events, sim_ns, tx, rx)| (name, (events, sim_ns, row(tx), row(rx))));
    let mut drift = false;
    for ((name, r), w) in got.iter().zip(want) {
        if *r != w {
            drift = true;
            eprintln!("{name}: {r:?},");
        }
    }
    assert!(!drift, "pinned TCP cells drifted (actual rows above)");
}
