//! DATA reassembly and ordered delivery, driven through the public
//! `sctp::input` with hand-built packets: no simulated network, no peer
//! engine — a capturing backend swallows whatever the receiver transmits.
//!
//! After **every** injected fragment the number of messages the application
//! can read must equal the number whose fragments have all arrived and whose
//! SSN predecessors are complete. That number is computed from the generated
//! message set, never from engine state. Fragments go in with the 16 SSN bits
//! a real DATA chunk carries, so every case also exercises the widening to
//! the engine's 32-bit counter.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use netsim::IfAddr;
use proptest::prelude::*;
use simcore::{derive_rng, Ctx};
use transport::backend::Backend;
use transport::ip::{Packet, Proto};
use transport::sctp::{self, Chunk, DataChunk, EpId, RecvMsg, SctpPacket};
use transport::{World, Wx};

const PORT: u16 = 4000;

/// Egress sink: every packet an engine sends lands in a shared list.
struct Capture(Arc<Mutex<Vec<Packet>>>);

impl Backend for Capture {
    fn send(&mut self, _w: &mut World, _ctx: &mut Wx, pkt: Packet) {
        self.0.lock().unwrap().push(pkt);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One fragment of a generated message. `ssn` is the sender's full counter;
/// the wire form keeps its low 16 bits.
#[derive(Debug, Clone)]
struct Frag {
    tsn: u64,
    stream: u16,
    ssn: u32,
    begin: bool,
    end: bool,
    data: Vec<u8>,
}

/// An established association on host 1, fed by hand from "host 0".
struct Rig {
    w: World,
    ctx: Wx,
    server: EpId,
    /// The verification tag host 1 expects.
    vtag: u64,
    wire: Arc<Mutex<Vec<Packet>>>,
}

impl Rig {
    fn new() -> Rig {
        let mut w = World::paper_cluster(0.0);
        let mut ctx: Wx = Ctx::standalone(derive_rng(7, 0));
        let wire = Arc::new(Mutex::new(Vec::new()));
        w.install_backend(Box::new(Capture(wire.clone())));
        let client = sctp::socket(&mut w, 0, PORT, false);
        let server = sctp::socket(&mut w, 1, PORT, true);
        sctp::listen(&mut w, server);
        sctp::connect(&mut w, &mut ctx, client, 1, PORT);
        // Shuttle INIT, INIT-ACK, COOKIE-ECHO and COOKIE-ACK across by hand.
        // The COOKIE-ECHO is addressed with the tag host 1 chose.
        let mut vtag = None;
        loop {
            let Some(pkt) = wire.lock().unwrap().pop() else { break };
            let Proto::Sctp(p) = pkt.body else { panic!("SCTP only") };
            if matches!(p.chunks[0], Chunk::CookieEcho { .. }) {
                vtag = Some(p.vtag);
            }
            sctp::input(&mut w, &mut ctx, pkt.src, pkt.dst, p);
        }
        let rig = Rig { w, ctx, server, vtag: vtag.expect("handshake reached COOKIE-ECHO"), wire };
        assert!(sctp::lookup_peer(&rig.w, server, 0, PORT).is_some(), "handshake completed");
        rig
    }

    fn inject(&mut self, f: &Frag) {
        let chunk = Chunk::Data(DataChunk {
            tsn: f.tsn,
            stream: f.stream,
            ssn: f.ssn as u16 as u32,
            begin: f.begin,
            end: f.end,
            unordered: false,
            ppid: 9,
            data: Bytes::from(f.data.clone()),
        });
        let pkt = SctpPacket { src_port: PORT, dst_port: PORT, vtag: self.vtag, chunks: vec![chunk] };
        sctp::input(&mut self.w, &mut self.ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), pkt);
        self.wire.lock().unwrap().clear(); // the SACKs
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
/// fragments with consecutive TSNs from 1 and per-stream SSNs from 0.
fn fragment(msgs: &[(u16, usize)]) -> Vec<Frag> {
    let mut next_ssn = [0u32; 4];
    let mut frags = Vec::new();
    for &(stream, n) in msgs {
        let ssn = next_ssn[stream as usize];
        next_ssn[stream as usize] += 1;
        for k in 0..n {
            let tsn = frags.len() as u64 + 1;
            frags.push(Frag {
                tsn,
                stream,
                ssn,
                begin: k == 0,
                end: k + 1 == n,
                data: vec![tsn as u8; 1 + (tsn as usize * 7) % 40],
            });
        }
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

/// Inject `frags[i]` for each `i` of `order` (repeats are duplicates) and
/// hold the engine to the model after every step; once everything has
/// arrived, every stream must have delivered exactly what was generated.
fn deliver_and_check(frags: &[Frag], order: &[usize]) {
    let streams = by_stream(frags);
    let mut rig = Rig::new();
    let mut arrived = vec![false; frags.len()];
    let mut got: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); 4];
    for (step, &i) in order.iter().enumerate() {
        rig.inject(&frags[i]);
        arrived[i] = true;
        for m in rig.read_all() {
            assert_eq!(m.data.iter().map(|b| b.len()).sum::<usize>(), m.len as usize);
            got[m.stream as usize].push((m.ssn, m.data.concat()));
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
            let want: Vec<(u32, Vec<u8>)> = msgs
                .iter()
                .map(|(ssn, idx)| (*ssn, idx.iter().flat_map(|&i| frags[i].data.clone()).collect()))
                .collect();
            assert_eq!(got[sid], want, "stream {sid}");
        }
    }
    let repeats = order.len() - arrived.iter().filter(|&&a| a).count();
    assert_eq!(rig.dup_tsns_in(), repeats as u64);
}

#[test]
fn an_e_before_its_middle() {
    let frags = fragment(&[(0, 3)]);
    deliver_and_check(&frags, &[0, 2, 1]);
}

#[test]
fn a_b_less_run() {
    // Middle and end first: a contiguous run with no B is not a message.
    let frags = fragment(&[(0, 4)]);
    deliver_and_check(&frags, &[1, 2, 3, 0]);
}

#[test]
fn two_messages_whose_tsn_runs_touch() {
    // [1 B][2 E] [3 B][4 E] on one stream: E(2) then B(3) are adjacent TSNs
    // of different messages and must not fuse; the second message completes
    // first and waits for the first.
    let frags = fragment(&[(0, 2), (0, 2)]);
    deliver_and_check(&frags, &[1, 2, 3, 0]);
    deliver_and_check(&frags, &[2, 1, 0, 3]);
}

#[test]
fn a_duplicate_of_an_already_assembled_fragment() {
    let frags = fragment(&[(0, 3), (1, 1), (0, 2)]);
    deliver_and_check(&frags, &[0, 1, 2, 1, 3, 3, 4, 0, 5, 4]);
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
        begin: true,
        end: true,
        data: vec![ssn as u8],
    };
    let mut rig = Rig::new();
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
    /// a random permutation with random duplicates mixed in.
    #[test]
    fn random_sets_reassemble_under_permutation_and_duplication(
        msgs in prop::collection::vec((0u16..4, 1usize..6), 1..16),
        streams in 1u16..5,
        keys in prop::collection::vec(any::<u64>(), 75..76),
        dups in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        let msgs: Vec<(u16, usize)> = msgs.into_iter().map(|(s, n)| (s % streams, n)).collect();
        let frags = fragment(&msgs);
        // A random permutation: sort the (at most 15 × 5) fragments by key.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        // A duplicate repeats a fragment somewhere after its first arrival.
        for (from, gap) in dups {
            let from = from % order.len();
            order.insert(from + 1 + gap % (order.len() - from), order[from]);
        }
        deliver_and_check(&frags, &order);
    }
}
