//! TCP receive-side reassembly and the delayed-ACK rule, driven through
//! `ip::deliver_now` with hand-built segments: no simulated network, no peer
//! engine — a capturing backend swallows whatever the receiver transmits.
//!
//! After **every** injected segment the readable byte count must equal the
//! contiguous prefix of the stream that has arrived, and the receiver must
//! have sent exactly the pure ACKs the delayed-ACK rule asks for: one per
//! second in-order segment, and one at once for out-of-order data, a gap
//! fill, or a segment that brings nothing new. Both are computed from the
//! injected byte ranges, never from engine state. Every case ends with a
//! read that must return the stream byte for byte.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{IfAddr, NetCfg};
use proptest::prelude::*;
use simcore::{derive_rng, Ctx};
use transport::backend::Backend;
use transport::buf::concat;
use transport::ip::{self, Packet, Proto};
use transport::sctp::SctpCfg;
use transport::tcp::{self, Flags, SockId, TcpCfg, TcpSegment};
use transport::{World, Wx};

const PORT: u16 = 6000;

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

/// A pure ACK the receiver sent: its cumulative ack and advertised window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ack {
    ack: u64,
    wnd: u64,
}

/// An established connection whose server end is on host 1, fed by hand
/// from "host 0". Stream byte `i` travels at sequence number `1 + i`.
struct Rig {
    w: World,
    ctx: Wx,
    server: SockId,
    client_port: u16,
    wire: Rc<RefCell<Vec<Packet>>>,
}

impl Rig {
    fn new(cfg: TcpCfg) -> Rig {
        let mut w = World::new(NetCfg::paper_cluster(0.0), cfg, SctpCfg::default());
        let mut ctx: Wx = Ctx::standalone(derive_rng(7, 0));
        let wire = Rc::new(RefCell::new(Vec::new()));
        w.install_backend(Box::new(Capture(wire.clone())));
        tcp::listen(&mut w, 1, PORT);
        tcp::connect(&mut w, &mut ctx, 0, 1, PORT);
        // Shuttle SYN, SYN|ACK and the final ACK across by hand.
        loop {
            let Some(pkt) = wire.borrow_mut().pop() else { break };
            ip::deliver_now(&mut w, &mut ctx, pkt);
        }
        let server = tcp::accept(&mut w, 1, PORT).expect("handshake completed");
        let (_, client_port) = tcp::peer_of(&w, server);
        Rig { w, ctx, server, client_port, wire }
    }

    /// Deliver one data segment carrying stream bytes from `start`, as the
    /// given payload chunks; returns the pure ACKs sent in reply.
    fn inject(&mut self, start: usize, payload: Vec<Bytes>) -> Vec<Ack> {
        let payload_len = payload.iter().map(Bytes::len).sum::<usize>() as u32;
        let seg = TcpSegment {
            src_port: self.client_port,
            dst_port: PORT,
            flags: Flags::ACK,
            seq: 1 + start as u64,
            ack: 1,
            wnd: 65_535,
            sack: Vec::new(),
            probe: false,
            payload,
            payload_len,
        };
        let pkt = Packet { src: IfAddr::new(0, 0), dst: IfAddr::new(1, 0), body: Proto::Tcp(seg) };
        ip::deliver_now(&mut self.w, &mut self.ctx, pkt);
        self.replies()
    }

    /// Drain the capture: every reply must be a pure ACK.
    fn replies(&mut self) -> Vec<Ack> {
        let sent = std::mem::take(&mut *self.wire.borrow_mut());
        sent.into_iter()
            .map(|pkt| match pkt.body {
                Proto::Tcp(s) => {
                    assert_eq!(s.payload_len, 0, "the server has nothing to send");
                    Ack { ack: s.ack, wnd: s.wnd }
                }
                Proto::Sctp(_) => panic!("TCP only"),
            })
            .collect()
    }

    fn readable(&self) -> u64 {
        tcp::readable_bytes(&self.w, self.server)
    }

    fn bytes_in(&self) -> u64 {
        tcp::stats(&self.w, self.server).bytes_in
    }

    /// Read everything readable, then drop any window-update ACK.
    fn read_all(&mut self) -> Bytes {
        let got = concat(&tcp::recv(&mut self.w, &mut self.ctx, self.server, usize::MAX));
        self.wire.borrow_mut().clear();
        got
    }
}

/// A test stream with no short period, so a misplaced slice shows.
fn pattern(len: usize) -> Bytes {
    (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
}

/// One injected segment: stream bytes `[bounds[0], bounds[last])`, carried
/// as one payload chunk per consecutive pair of bounds.
#[derive(Debug, Clone)]
struct Seg {
    bounds: Vec<usize>,
}

impl Seg {
    /// `[start, end)` in one chunk.
    fn whole(start: usize, end: usize) -> Seg {
        Seg { bounds: vec![start, end] }
    }

    /// `[start, end)` split into two chunks at `start + at` (when inside).
    fn split(start: usize, end: usize, at: usize) -> Seg {
        let cut = start + at;
        if cut > start && cut < end {
            Seg { bounds: vec![start, cut, end] }
        } else {
            Seg::whole(start, end)
        }
    }

    fn start(&self) -> usize {
        self.bounds[0]
    }

    fn end(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    fn payload(&self, stream: &Bytes) -> Vec<Bytes> {
        self.bounds.windows(2).map(|b| stream.slice(b[0]..b[1])).collect()
    }
}

/// Inject `segs` in order into a fresh default-config receiver (every
/// stream here fits its window) and hold it to the model after each.
fn deliver_and_check(stream: &Bytes, segs: &[Seg]) {
    let mut rig = Rig::new(TcpCfg::default());
    let mut have = vec![false; stream.len()];
    let mut prefix = 0usize;
    let mut pending = 0u32;
    for (step, seg) in segs.iter().enumerate() {
        let (start, end) = (seg.start(), seg.end());
        // The delayed-ACK rule, from the ranges alone: at once for nothing
        // new, for out-of-order data and for a gap fill.
        let fresh = have[start..end].iter().any(|&h| !h);
        let gap_before = have[prefix..].iter().any(|&h| h);
        let ack_now = !fresh || start > prefix || gap_before;
        have[start..end].iter_mut().for_each(|h| *h = true);
        while prefix < have.len() && have[prefix] {
            prefix += 1;
        }
        let want_acks = if ack_now {
            pending = 0;
            1
        } else {
            pending += 1;
            if pending == 2 {
                pending = 0;
                1
            } else {
                0
            }
        };
        let acks = rig.inject(start, seg.payload(stream));
        let ctx = format!("after step {step} ({start}..{end})");
        assert_eq!(acks.len(), want_acks, "pure ACKs {ctx}");
        for a in acks {
            assert_eq!(a.ack, 1 + prefix as u64, "cumulative ack {ctx}");
        }
        assert_eq!(rig.readable(), prefix as u64, "readable bytes {ctx}");
        let distinct = have.iter().filter(|&&h| h).count() as u64;
        assert_eq!(rig.bytes_in(), distinct, "bytes_in {ctx}");
    }
    assert_eq!(rig.read_all(), stream.slice(..prefix));
}

#[test]
fn in_order_only() {
    // Full-size segments, each cut across two payload chunks the way a
    // segment spanning two send-queue chunks is: an ACK every second one.
    let stream = pattern(20 * 1448);
    let segs: Vec<Seg> =
        (0..20).map(|k| Seg::split(k * 1448, (k + 1) * 1448, 24 + k * 100)).collect();
    deliver_and_check(&stream, &segs);
}

#[test]
fn one_hole_filled_last() {
    let stream = pattern(6 * 1000);
    let seg = |k: usize| Seg::split(k * 1000, (k + 1) * 1000, 400);
    // Segment 2 is lost until the end: 3, 4 and 5 are out of order, and
    // its arrival releases everything at once.
    deliver_and_check(&stream, &[seg(0), seg(1), seg(3), seg(4), seg(5), seg(2)]);
}

#[test]
fn a_segment_straddling_rcv_nxt() {
    let stream = pattern(2500);
    deliver_and_check(
        &stream,
        &[Seg::whole(0, 1000), Seg::split(500, 2000, 700), Seg::whole(1500, 2500), Seg::whole(0, 2500)],
    );
}

#[test]
fn a_re_cut_overlapping_parked_data() {
    // Parked [1000, 2000) and [2500, 3000); a re-cut [0, 2800) delivers
    // [0, 1000) in order, fills [2000, 2500), and drains the parked runs.
    let stream = pattern(3000);
    deliver_and_check(
        &stream,
        &[Seg::whole(1000, 2000), Seg::whole(2500, 3000), Seg::split(0, 2800, 1500)],
    );
}

#[test]
fn a_window_clamp_acks_and_delivers_nothing() {
    // A 4 KiB receive buffer filled by four 1 KiB segments the application
    // never reads: the window is shut at rcv_nxt.
    const RCVBUF: usize = 4096;
    let stream = pattern(RCVBUF + 104);
    let mut rig = Rig::new(TcpCfg { rcvbuf: RCVBUF as u64, ..TcpCfg::default() });
    for k in 0..4 {
        rig.inject(k * 1024, vec![stream.slice(k * 1024..(k + 1) * 1024)]);
    }
    assert_eq!(rig.readable(), RCVBUF as u64);
    // A segment straddling rcv_nxt: the window clamps it to nothing. It is
    // acknowledged at once, with a shut window, and nothing is delivered.
    let shut = Ack { ack: 1 + RCVBUF as u64, wnd: 0 };
    assert_eq!(rig.inject(4000, vec![stream.slice(4000..4200)]), vec![shut]);
    assert_eq!(rig.readable(), RCVBUF as u64);
    assert_eq!(rig.bytes_in(), RCVBUF as u64);
    // Entirely beyond the window: the same answer.
    assert_eq!(rig.inject(RCVBUF, vec![stream.slice(RCVBUF..)]), vec![shut]);
    assert_eq!(rig.read_all(), stream.slice(..RCVBUF));
    // Once read, the same segment is accepted in part: its first 96 bytes
    // are old, the remaining 104 are delivered.
    assert_eq!(rig.inject(4000, vec![stream.slice(4000..4200)]), vec![]);
    assert_eq!(rig.readable(), 104);
    assert_eq!(rig.read_all(), stream.slice(RCVBUF..));
}

proptest! {
    /// A patterned stream cut at random boundaries (each segment itself cut
    /// into one or two payload chunks), injected in a random order with
    /// duplicates and overlapping re-cuts mixed in.
    #[test]
    fn random_cuts_reassemble_under_permutation_duplication_and_re_cuts(
        len in 1usize..4000,
        cuts in prop::collection::vec(any::<usize>(), 0..12),
        keys in prop::collection::vec(any::<u64>(), 13..14),
        splits in prop::collection::vec(any::<usize>(), 13..14),
        dups in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        re_cuts in prop::collection::vec((any::<usize>(), 1usize..1500, any::<usize>(), any::<usize>()), 0..6),
    ) {
        let stream = pattern(len);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % len).chain([0, len]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut segs: Vec<Seg> = bounds
            .windows(2)
            .zip(&splits)
            .map(|(b, &at)| Seg::split(b[0], b[1], at % (b[1] - b[0])))
            .collect();
        // A random permutation: sort the (at most 13) segments by key.
        let mut idx: Vec<usize> = (0..segs.len()).collect();
        idx.sort_by_key(|&i| keys[i]);
        segs = idx.into_iter().map(|i| segs[i].clone()).collect();
        // A duplicate repeats a segment somewhere after its first arrival.
        for (from, gap) in dups {
            let from = from % segs.len();
            let at = from + 1 + gap % (segs.len() - from);
            segs.insert(at, segs[from].clone());
        }
        // A re-cut carries bytes across original boundaries.
        for (start, span, at, split) in re_cuts {
            let start = start % len;
            let end = (start + span).min(len);
            let at = at % (segs.len() + 1);
            segs.insert(at, Seg::split(start, end, split % (end - start)));
        }
        deliver_and_check(&stream, &segs);
    }
}
