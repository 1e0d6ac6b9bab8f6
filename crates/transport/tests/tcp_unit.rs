//! Unit-level TCP tests: wire formats, state queries, and config knobs
//! exercised through small simulations.

use bytes::Bytes;
use simcore::{Dur, ProcEnv, Runtime};
use transport::tcp::{self, Flags, TcpCfg, TcpSegment, TcpState};
use transport::World;

type Env = ProcEnv<World>;

#[test]
fn segment_wire_len_accounts_options() {
    let base = TcpSegment {
        src_port: 1,
        dst_port: 2,
        flags: Flags::ACK,
        seq: 0,
        ack: 0,
        wnd: 1000,
        sack: vec![],
        probe: false,
        payload: vec![],
        payload_len: 0,
    };
    assert_eq!(base.wire_len(), 32, "20 header + 12 timestamp option");
    let syn = TcpSegment { flags: Flags::SYN, ..base };
    assert_eq!(syn.wire_len(), 36, "+4 MSS option");
    let sacky = TcpSegment {
        flags: Flags::ACK,
        sack: vec![(1, 2), (3, 4)],
        payload_len: 100,
        ..TcpSegment {
            src_port: 1,
            dst_port: 2,
            flags: Flags::ACK,
            seq: 0,
            ack: 0,
            wnd: 0,
            sack: vec![],
            probe: false,
            payload: vec![],
            payload_len: 0,
        }
    };
    assert_eq!(sacky.wire_len(), 32 + 2 + 16 + 100);
}

#[test]
fn segment_seq_len_counts_flags() {
    let mk = |flags, payload_len| TcpSegment {
        src_port: 0,
        dst_port: 0,
        flags,
        seq: 0,
        ack: 0,
        wnd: 0,
        sack: vec![],
        probe: false,
        payload: vec![],
        payload_len,
    };
    assert_eq!(mk(Flags::ACK, 10).seq_len(), 10);
    assert_eq!(mk(Flags::SYN, 0).seq_len(), 1);
    assert_eq!(mk(Flags::FIN | Flags::ACK, 5).seq_len(), 6);
    assert_eq!(mk(Flags::SYN | Flags::FIN, 0).seq_len(), 2);
}

#[test]
fn flags_algebra() {
    let f = Flags::SYN | Flags::ACK;
    assert!(f.contains(Flags::SYN));
    assert!(f.contains(Flags::ACK));
    assert!(!f.contains(Flags::FIN));
    assert!(f.intersects(Flags::SYN | Flags::FIN));
    assert!(!f.intersects(Flags::FIN | Flags::RST));
    assert!(Flags::EMPTY == Flags::default());
}

#[test]
fn state_transitions_through_a_whole_connection() {
    let mut rt = Runtime::new(World::paper_cluster(0.0), 1);
    rt.spawn("client", |env: Env| async move {
        let s = env.with(|w, ctx| tcp::connect(w, ctx, 0, 1, 9000));
        assert_eq!(env.with(|w, _| tcp::state(w, s)), TcpState::SynSent);
        let me = env.id();
        env.block_on(|w, _| {
            if tcp::is_established(w, s) {
                Some(())
            } else {
                tcp::register_writer(w, s, me);
                None
            }
        }).await;
        assert_eq!(env.with(|w, _| tcp::state(w, s)), TcpState::Established);
        assert_eq!(env.with(|w, _| tcp::peer_of(w, s)), (1, 9000));
        env.with(|w, ctx| {
            let n = tcp::send(w, ctx, s, &[Bytes::from_static(b"bye")]);
            assert_eq!(n, 3);
            tcp::close(w, ctx, s);
        });
        // After our FIN is acked and the peer closes, we pass through
        // FinWait and land in TimeWait.
        env.block_on(|w, _| {
            let st = tcp::state(w, s);
            if st == TcpState::TimeWait {
                Some(())
            } else {
                tcp::register_reader(w, s, me);
                None
            }
        }).await;
    });
    rt.spawn("server", |env: Env| async move {
        env.with(|w, _| tcp::listen(w, 1, 9000));
        let me = env.id();
        let s = env.block_on(|w, _| match tcp::accept(w, 1, 9000) {
            Some(s) => Some(s),
            None => {
                tcp::register_acceptor(w, 1, 9000, me);
                None
            }
        }).await;
        // Read the 3 bytes + observe EOF.
        env.block_on(|w, ctx| {
            let got = tcp::recv(w, ctx, s, 10);
            if got.is_empty() {
                tcp::register_reader(w, s, me);
                None
            } else {
                Some(())
            }
        }).await;
        env.block_on(|w, _| {
            if tcp::at_eof(w, s) {
                Some(())
            } else {
                tcp::register_reader(w, s, me);
                None
            }
        }).await;
        assert_eq!(env.with(|w, _| tcp::state(w, s)), TcpState::CloseWait);
        env.with(|w, ctx| tcp::close(w, ctx, s));
        env.block_on(|w, _| {
            if tcp::state(w, s) == TcpState::Closed {
                Some(())
            } else {
                tcp::register_writer(w, s, me);
                None
            }
        }).await;
    });
    rt.run();
}

#[test]
fn nagle_coalesces_small_writes() {
    // With Nagle on, many 10-byte writes produce far fewer segments than
    // with Nagle off.
    fn segs(nagle: bool) -> u64 {
        let cfg = TcpCfg { nagle, ..TcpCfg::default() };
        let world = World::new(netsim::NetCfg::paper_cluster(0.0), cfg, Default::default());
        let mut rt = Runtime::new(world, 4);
        rt.spawn("tx", |env: Env| async move {
            let s = env.with(|w, ctx| tcp::connect(w, ctx, 0, 1, 9100));
            let me = env.id();
            env.block_on(|w, _| {
                if tcp::is_established(w, s) {
                    Some(())
                } else {
                    tcp::register_writer(w, s, me);
                    None
                }
            }).await;
            for _ in 0..50 {
                env.with(|w, ctx| {
                    tcp::send(w, ctx, s, &[Bytes::from_static(b"0123456789")]);
                });
                // A little pacing so un-Nagled writes become segments.
                env.sleep(Dur::from_micros(30)).await;
            }
        });
        rt.spawn("rx", |env: Env| async move {
            env.with(|w, _| tcp::listen(w, 1, 9100));
            let me = env.id();
            let s = env.block_on(|w, _| match tcp::accept(w, 1, 9100) {
                Some(s) => Some(s),
                None => {
                    tcp::register_acceptor(w, 1, 9100, me);
                    None
                }
            }).await;
            let mut got = 0usize;
            while got < 500 {
                let chunks = env.with(|w, ctx| tcp::recv(w, ctx, s, 500));
                if chunks.is_empty() {
                    env.with(|w, _| tcp::register_reader(w, s, me));
                    env.park().await;
                } else {
                    got += chunks.iter().map(|c| c.len()).sum::<usize>();
                }
            }
        });
        let out = rt.run();
        out.world.hosts[0].tcp.total_stats().segs_out
    }
    let with_nagle = segs(true);
    let without = segs(false);
    assert!(
        with_nagle < without / 2,
        "Nagle on: {with_nagle} segs, off: {without} segs — expected strong coalescing"
    );
}

#[test]
fn send_respects_buffer_and_reports_partial_accept() {
    let mut rt = Runtime::new(World::paper_cluster(0.0), 5);
    rt.spawn("tx", |env: Env| async move {
        let s = env.with(|w, ctx| tcp::connect(w, ctx, 0, 1, 9200));
        let me = env.id();
        env.block_on(|w, _| {
            if tcp::is_established(w, s) {
                Some(())
            } else {
                tcp::register_writer(w, s, me);
                None
            }
        }).await;
        // Try to push 1 MB at once: only ~sndbuf is accepted.
        let big = Bytes::from(vec![7u8; 1 << 20]);
        let n = env.with(|w, ctx| tcp::send(w, ctx, s, &[big]));
        assert!(n > 0 && n <= 220 * 1024, "accepted {n}");
        assert!(env.with(|w, _| tcp::send_space(w, s)) < 220 * 1024);
    });
    rt.spawn("rx", |env: Env| async move {
        env.with(|w, _| tcp::listen(w, 1, 9200));
        let me = env.id();
        let _s = env.block_on(|w, _| match tcp::accept(w, 1, 9200) {
            Some(s) => Some(s),
            None => {
                tcp::register_acceptor(w, 1, 9200, me);
                None
            }
        }).await;
        // Let the sender's buffered data drain into our rcvbuf.
        env.sleep(Dur::from_millis(50)).await;
    });
    rt.run();
}
