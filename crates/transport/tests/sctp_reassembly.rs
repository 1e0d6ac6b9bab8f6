//! DATA and I-DATA reassembly and ordered delivery, driven through the
//! public `sctp::input` with hand-built packets: no simulated network, no
//! peer engine — a capturing backend swallows whatever the receiver
//! transmits.
//!
//! After **every** injected fragment the number of messages the application
//! can read must equal the number whose fragments have all arrived and whose
//! SSN predecessors are complete. That number is computed from the generated
//! message set, never from engine state. Fragments go in as the wire
//! decoder hands them over: a DATA chunk with the 16 SSN bits it carries,
//! so every DATA case also exercises the widening to the engine's 32-bit
//! counter; an I-DATA chunk with its PPID on the B fragment only and its
//! FSN on the rest, its TSNs interleaved across streams as the sender's
//! stream scheduler sends them. Every delivered message must carry its
//! PPID.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{IfAddr, NetCfg};
use proptest::prelude::*;
use simcore::{derive_rng, Ctx};
use transport::backend::Backend;
use transport::ip::{Packet, Proto};
use transport::sctp::{self, Chunk, DataChunk, EpId, RecvMsg, SctpCfg, SctpPacket};
use transport::tcp::TcpCfg;
use transport::{World, Wx};

const PORT: u16 = 4000;

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

/// One fragment of a generated message. `ssn` is the sender's full counter
/// (the MID of an I-DATA chunk); a DATA chunk keeps its low 16 bits. `fsn`
/// counts the message's fragments from 0.
#[derive(Debug, Clone)]
struct Frag {
    tsn: u64,
    stream: u16,
    ssn: u32,
    fsn: u32,
    begin: bool,
    end: bool,
    ppid: u32,
    data: Vec<u8>,
}

/// The receiver's buffer; its SACKs advertise all of it when nothing is
/// held.
const RCVBUF: u64 = 220 * 1024;

/// An established association on host 1, fed by hand from "host 0", with
/// I-DATA negotiated on both hosts when `idata` is set.
struct Rig {
    w: World,
    ctx: Wx,
    server: EpId,
    /// The verification tag host 1 expects.
    vtag: u64,
    idata: bool,
    wire: Rc<RefCell<Vec<Packet>>>,
}

impl Rig {
    fn new(idata: bool) -> Rig {
        let cfg = SctpCfg { interleave: idata, pr_sctp: true, ..SctpCfg::default() };
        assert_eq!(cfg.rcvbuf, RCVBUF);
        let mut w = World::new(NetCfg::paper_cluster(0.0), TcpCfg::default(), cfg);
        let mut ctx: Wx = Ctx::standalone(derive_rng(7, 0));
        let wire = Rc::new(RefCell::new(Vec::new()));
        w.install_backend(Box::new(Capture(wire.clone())));
        let client = sctp::socket(&mut w, 0, PORT, false);
        let server = sctp::socket(&mut w, 1, PORT, true);
        sctp::listen(&mut w, server);
        sctp::connect(&mut w, &mut ctx, client, 1, PORT);
        // Shuttle INIT, INIT-ACK, COOKIE-ECHO and COOKIE-ACK across by hand.
        // The COOKIE-ECHO is addressed with the tag host 1 chose.
        let mut vtag = None;
        loop {
            let Some(pkt) = wire.borrow_mut().pop() else { break };
            let Proto::Sctp(p) = pkt.body else { panic!("SCTP only") };
            if matches!(p.chunks[0], Chunk::CookieEcho { .. }) {
                vtag = Some(p.vtag);
            }
            sctp::input(&mut w, &mut ctx, pkt.src, pkt.dst, p);
        }
        let vtag = vtag.expect("handshake reached COOKIE-ECHO");
        let rig = Rig { w, ctx, server, vtag, idata, wire };
        assert!(sctp::lookup_peer(&rig.w, server, 0, PORT).is_some(), "handshake completed");
        rig
    }

    /// Inject `f` in the rig's wire form; returns the `a_rwnd` of the last
    /// SACK the receiver answered with, if it answered.
    fn inject(&mut self, f: &Frag) -> Option<u64> {
        let mut d = DataChunk {
            tsn: f.tsn,
            stream: f.stream,
            ssn: f.ssn,
            begin: f.begin,
            end: f.end,
            unordered: false,
            ppid: f.ppid,
            data: Bytes::from(f.data.clone()),
        };
        let chunk = if self.idata {
            // The FSN's slot carries the PPID on the B fragment.
            d.ppid = if f.begin { f.ppid } else { 0 };
            Chunk::IData { d, fsn: f.fsn }
        } else {
            d.ssn = f.ssn as u16 as u32;
            Chunk::Data(d)
        };
        self.input(chunk)
    }

    /// FORWARD-TSN to `new_cum`, abandoning message `ssn` of `stream`.
    fn forward_tsn(&mut self, new_cum: u64, stream: u16, ssn: u32) -> Option<u64> {
        let ssn = if self.idata { ssn } else { ssn as u16 as u32 };
        self.input(Chunk::ForwardTsn { new_cum, skips: vec![(stream, ssn as u64)] })
    }

    fn input(&mut self, chunk: Chunk) -> Option<u64> {
        let pkt = SctpPacket { src_port: PORT, dst_port: PORT, vtag: self.vtag, chunks: vec![chunk] };
        sctp::input(&mut self.w, &mut self.ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), pkt);
        let sent = std::mem::take(&mut *self.wire.borrow_mut());
        sent.into_iter().rev().find_map(|pkt| match pkt.body {
            Proto::Sctp(p) => p.chunks.iter().find_map(|c| match c {
                Chunk::Sack { a_rwnd, .. } => Some(*a_rwnd),
                _ => None,
            }),
            Proto::Tcp(_) => None,
        })
    }

    fn read_all(&mut self) -> Vec<RecvMsg> {
        std::iter::from_fn(|| sctp::recvmsg(&mut self.w, &mut self.ctx, self.server)).collect()
    }

    fn dup_tsns_in(&self) -> u64 {
        let a = sctp::lookup_peer(&self.w, self.server, 0, PORT).unwrap();
        sctp::stats(&self.w, a).dup_tsns_in
    }
}

/// Split `(stream, fragment count)` messages, in the order given, into
/// fragments with per-stream SSNs from 0 and TSNs from 1. DATA (`idata`
/// unset) sends message after message, so each message's fragments take
/// consecutive TSNs. I-DATA sends as a round-robin stream scheduler does:
/// one fragment per stream with data in turn, so TSNs interleave across
/// streams. Message `i`'s PPID is `100 + i`.
fn fragment(msgs: &[(u16, usize)], idata: bool) -> Vec<Frag> {
    let mut next_ssn = [0u32; 4];
    let mut queues: [std::collections::VecDeque<Frag>; 4] = Default::default();
    for (i, &(stream, n)) in msgs.iter().enumerate() {
        let ssn = next_ssn[stream as usize];
        next_ssn[stream as usize] += 1;
        for k in 0..n {
            queues[stream as usize].push_back(Frag {
                tsn: 0,
                stream,
                ssn,
                fsn: k as u32,
                begin: k == 0,
                end: k + 1 == n,
                ppid: 100 + i as u32,
                data: Vec::new(),
            });
        }
    }
    let mut frags: Vec<Frag> = Vec::new();
    if idata {
        while queues.iter().any(|q| !q.is_empty()) {
            frags.extend(queues.iter_mut().filter_map(|q| q.pop_front()));
        }
    } else {
        // Message order: the queue heads in the order `msgs` named them.
        for &(stream, n) in msgs {
            frags.extend(queues[stream as usize].drain(..n));
        }
    }
    for (i, f) in frags.iter_mut().enumerate() {
        f.tsn = i as u64 + 1;
        f.data = vec![f.tsn as u8; 1 + (f.tsn as usize * 7) % 40];
    }
    frags
}

/// Each stream's messages as `(ssn, fragment indices)`, in SSN order.
fn by_stream(frags: &[Frag]) -> Vec<Vec<(u32, Vec<usize>)>> {
    let mut streams: Vec<Vec<(u32, Vec<usize>)>> = vec![Vec::new(); 4];
    for (i, f) in frags.iter().enumerate() {
        let msgs = &mut streams[f.stream as usize];
        if f.begin {
            msgs.push((f.ssn, Vec::new()));
        }
        msgs.last_mut().unwrap().1.push(i);
    }
    streams
}

/// Inject `frags[i]` for each `i` of `order` (repeats are duplicates) in
/// the `idata` wire form and hold the engine to the model after every step;
/// once everything has arrived, every stream must have delivered exactly
/// what was generated, each message with its PPID.
fn deliver_and_check(frags: &[Frag], order: &[usize], idata: bool) {
    let streams = by_stream(frags);
    let mut rig = Rig::new(idata);
    let mut arrived = vec![false; frags.len()];
    let mut got: Vec<Vec<(u32, u32, Vec<u8>)>> = vec![Vec::new(); 4];
    for (step, &i) in order.iter().enumerate() {
        rig.inject(&frags[i]);
        arrived[i] = true;
        for m in rig.read_all() {
            assert_eq!(m.data.iter().map(|b| b.len()).sum::<usize>(), m.len as usize);
            got[m.stream as usize].push((m.ssn, m.ppid, m.data.concat()));
        }
        let readable: usize = streams
            .iter()
            .map(|msgs| msgs.iter().take_while(|(_, idx)| idx.iter().all(|&i| arrived[i])).count())
            .sum();
        let delivered: usize = got.iter().map(Vec::len).sum();
        assert_eq!(delivered, readable, "after step {step} (fragment {:?})", frags[i]);
    }
    if arrived.iter().all(|&a| a) {
        for (sid, msgs) in streams.iter().enumerate() {
            let want: Vec<(u32, u32, Vec<u8>)> = msgs
                .iter()
                .map(|(ssn, idx)| {
                    let data = idx.iter().flat_map(|&i| frags[i].data.clone()).collect();
                    (*ssn, frags[idx[0]].ppid, data)
                })
                .collect();
            assert_eq!(got[sid], want, "stream {sid}");
        }
    }
    let repeats = order.len() - arrived.iter().filter(|&&a| a).count();
    assert_eq!(rig.dup_tsns_in(), repeats as u64);
}

/// [`deliver_and_check`] `msgs` under each of `orders`, in both wire forms
/// (an index names the `i`-th fragment in TSN order).
fn check_both_forms(msgs: &[(u16, usize)], orders: &[&[usize]]) {
    for idata in [false, true] {
        let frags = fragment(msgs, idata);
        for order in orders {
            deliver_and_check(&frags, order, idata);
        }
    }
}

#[test]
fn an_e_before_its_middle() {
    check_both_forms(&[(0, 3)], &[&[0, 2, 1]]);
}

#[test]
fn a_b_less_run() {
    // Middle and end first: a contiguous run with no B is not a message.
    check_both_forms(&[(0, 4)], &[&[1, 2, 3, 0]]);
}

#[test]
fn two_messages_whose_tsn_runs_touch() {
    // [1 B][2 E] [3 B][4 E] on one stream: E(2) then B(3) are adjacent TSNs
    // of different messages and must not fuse; the second message completes
    // first and waits for the first.
    check_both_forms(&[(0, 2), (0, 2)], &[&[1, 2, 3, 0], &[2, 1, 0, 3]]);
}

#[test]
fn a_duplicate_of_an_already_assembled_fragment() {
    check_both_forms(&[(0, 3), (1, 1), (0, 2)], &[&[0, 1, 2, 1, 3, 3, 4, 0, 5, 4]]);
}

#[test]
fn interleaved_multi_fragment_messages_keep_their_ppid() {
    // Three streams' messages interleave fragment by fragment. Only each
    // B fragment carries the PPID, as a decoded I-DATA chunk does, and
    // fragments arrive in TSN order.
    let frags = fragment(&[(0, 3), (1, 4), (2, 2), (0, 2)], true);
    let streams: Vec<u16> = frags.iter().map(|f| f.stream).collect();
    assert_eq!(streams, [0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 0]);
    deliver_and_check(&frags, &(0..frags.len()).collect::<Vec<_>>(), true);
}

#[test]
fn forward_tsn_purges_a_partly_reassembled_message() {
    // Message A on stream 0 is abandoned with its E fragment lost; B on
    // stream 1 completes around it; C follows A on stream 0.
    let ids = |msgs: Vec<RecvMsg>| -> Vec<(u16, u32, u32)> {
        msgs.iter().map(|m| (m.stream, m.ssn, m.ppid)).collect()
    };
    for idata in [false, true] {
        let frags = fragment(&[(0, 3), (1, 2), (0, 1)], idata);
        let a_end = frags.iter().position(|f| f.stream == 0 && f.end).unwrap();
        let c = frags.len() - 1;
        let mut rig = Rig::new(idata);
        for (i, f) in frags[..c].iter().enumerate() {
            if i != a_end {
                rig.inject(f);
            }
        }
        assert_eq!(ids(rig.read_all()), [(1, 0, 101)], "B (idata {idata})");
        // A duplicate draws an immediate SACK, which shows the buffer held.
        let held = rig.inject(&frags[0]);
        assert!(held.unwrap() < RCVBUF, "A's first fragments are held (idata {idata})");
        let purged = rig.forward_tsn(frags[a_end].tsn, 0, 0);
        assert_eq!(purged, Some(RCVBUF), "A's fragments freed (idata {idata})");
        rig.inject(&frags[c]);
        assert_eq!(ids(rig.read_all()), [(0, 1, 102)], "C (idata {idata})");
        assert_eq!(rig.inject(&frags[c]), Some(RCVBUF), "nothing held (idata {idata})");
    }
}

#[test]
fn ssn_widens_across_the_16_bit_wrap() {
    // Walk one stream to SSN 65 534 in order, then deliver 65 534 … 65 538
    // in reverse TSN order: the chunks carry 65534, 65535, 0, 1, 2.
    const BEFORE: u32 = 65_534;
    let one = |ssn: u32| Frag {
        tsn: ssn as u64 + 1,
        stream: 0,
        ssn,
        fsn: 0,
        begin: true,
        end: true,
        ppid: 9,
        data: vec![ssn as u8],
    };
    let mut rig = Rig::new(false);
    for ssn in 0..BEFORE {
        rig.inject(&one(ssn));
        let got = rig.read_all();
        assert_eq!(got.len(), 1, "message {ssn}");
        assert_eq!(got[0].ssn, ssn);
    }
    for ssn in (BEFORE + 1..BEFORE + 5).rev() {
        rig.inject(&one(ssn));
        assert!(rig.read_all().is_empty(), "SSN {ssn} must wait for {BEFORE}");
    }
    rig.inject(&one(BEFORE));
    let got: Vec<(u32, u8)> = rig.read_all().iter().map(|m| (m.ssn, m.data[0][0])).collect();
    let want: Vec<(u32, u8)> = (BEFORE..BEFORE + 5).map(|s| (s, s as u8)).collect();
    assert_eq!(got, want);
}

proptest! {
    /// Random message sets over 1–4 streams, every fragment delivered under
    /// a random permutation with random duplicates mixed in, in both wire
    /// forms.
    #[test]
    fn random_sets_reassemble_under_permutation_and_duplication(
        msgs in prop::collection::vec((0u16..4, 1usize..6), 1..16),
        streams in 1u16..5,
        keys in prop::collection::vec(any::<u64>(), 75..76),
        dups in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        let msgs: Vec<(u16, usize)> = msgs.into_iter().map(|(s, n)| (s % streams, n)).collect();
        // A random permutation: sort the (at most 15 × 5) fragments by key.
        let mut order: Vec<usize> = (0..fragment(&msgs, false).len()).collect();
        order.sort_by_key(|&i| keys[i]);
        // A duplicate repeats a fragment somewhere after its first arrival.
        for (from, gap) in dups {
            let from = from % order.len();
            order.insert(from + 1 + gap % (order.len() - from), order[from]);
        }
        check_both_forms(&msgs, &[&order]);
    }
}
