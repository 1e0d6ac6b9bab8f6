//! Unit-level TCP tests: wire formats, state queries, and config knobs
//! exercised through small simulations.

use bytes::Bytes;
use simcore::{Dur, ProcEnv, Runtime};
use transport::tcp::{self, Flags, SockStats, TcpSegment, TcpState};
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

#[test]
fn sock_stats_add_field_by_field() {
    let mut t = SockStats { segs_out: 2, bytes_in: 10, dup_acks_in: 1, ..Default::default() };
    t += SockStats { segs_out: 3, segs_in: 5, bytes_out: 7, retransmits: 2, fast_retransmits: 1, timeouts: 4, ..Default::default() };
    let want = SockStats {
        segs_out: 5,
        segs_in: 5,
        bytes_out: 7,
        bytes_in: 10,
        retransmits: 2,
        fast_retransmits: 1,
        timeouts: 4,
        dup_acks_in: 1,
    };
    assert_eq!(t, want);
}
