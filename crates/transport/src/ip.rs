//! The IP layer: turns protocol segments into scheduled network deliveries.
//!
//! `send` asks the network for a delivery verdict and, on success, schedules
//! the matching `deliver` event, which demultiplexes on protocol back into
//! the TCP or SCTP input routines.
//!
//! `send_train` is the burst path: K back-to-back packets to one peer are
//! offered to the network in one [`netsim::Net::transmit_burst`] call and the
//! survivors delivered through **one** scheduled event that walks the train,
//! advancing the clock inline between per-packet arrival instants
//! ([`simcore::Ctx::try_advance_to`]). The fusion is invisible to the
//! protocols: packet j's delivery runs at exactly its arrival time, under
//! exactly the (time, seq) fire-order position its own per-packet event
//! would have had — the head event reserves one sequence number per
//! surviving packet, and whenever an inline advance would reorder against a
//! foreign event or a wake, the rest of the train falls back to a real
//! event carrying its reserved seq. Under the reference discipline
//! (`SIM_CHECK=1`) trains degrade to per-packet sends outright.

use std::collections::VecDeque;

use netsim::{DropReason, IfAddr, Verdict};
use simcore::SimTime;

use crate::{sctp, tcp, wire_bytes, World, Wx};

/// Offer `pkt` to the installed [`crate::backend::Backend`].
///
/// The backend is moved out of the world for the duration of the call (a
/// pointer move, not an allocation) so the driver gets `&mut World` without
/// aliasing itself; it is restored before returning. Backends are leaves —
/// they never re-enter this function — so the take can only fail on a
/// misbehaving driver, which is a programming error worth a loud stop.
pub fn send(w: &mut World, ctx: &mut Wx, pkt: Packet) {
    let mut b = w.backend.take().expect("backend re-entered ip::send from its own dispatch");
    b.send(w, ctx, pkt);
    w.backend = Some(b);
}

/// Offer a train of back-to-back packets (one source, one destination) to
/// the installed backend. Same take/restore discipline as [`send`].
pub fn send_train(w: &mut World, ctx: &mut Wx, pkts: Vec<Packet>) {
    let mut b = w.backend.take().expect("backend re-entered ip::send_train from its own dispatch");
    b.send_train(w, ctx, pkts);
    w.backend = Some(b);
}

/// Dispatch an already-arrived packet straight into the protocol input
/// routines, bypassing the network. This is the ingress half of a real-I/O
/// backend: the reactor polls decoded frames out of the driver and feeds
/// them here, with the backend back in the world so input handlers can
/// transmit replies.
pub fn deliver_now(w: &mut World, ctx: &mut Wx, pkt: Packet) {
    deliver(w, ctx, pkt);
}

/// IPv4 header size (no options).
pub const IP_HEADER: u32 = 20;

/// A protocol payload inside an IP packet.
#[derive(Debug)]
pub enum Proto {
    /// A TCP segment.
    Tcp(tcp::TcpSegment),
    /// An SCTP packet (common header + bundled chunks).
    Sctp(sctp::SctpPacket),
}

impl Proto {
    pub(crate) fn wire_len(&self) -> u32 {
        match self {
            Proto::Tcp(s) => s.wire_len(),
            Proto::Sctp(p) => p.wire_len(),
        }
    }
}

/// An IP packet in flight.
#[derive(Debug)]
pub struct Packet {
    /// Sending interface.
    pub src: IfAddr,
    /// Receiving interface (same network index as `src`).
    pub dst: IfAddr,
    /// Protocol payload.
    pub body: Proto,
}

/// Flight-recorder capture of one packet, built *before* the network's
/// verdict so the serialized frame reflects exactly what was offered.
pub(crate) struct PktCapture {
    frame: Vec<u8>,
    frame_orig_len: u32,
    proto: trace::Proto8,
    kind: trace::PktKind,
    tsn: u64,
    ntsn: u32,
    stream: i32,
}

impl PktCapture {
    fn new(frame: Vec<u8>, frame_orig_len: u32, pkt: &Packet) -> Self {
        let (proto, kind, tsn, ntsn, stream) = wire_bytes::pkt_meta(&pkt.body);
        PktCapture { frame, frame_orig_len, proto, kind, tsn, ntsn, stream }
    }
}

/// Sim-path capture: serialize `pkt` as the wire would carry it.
pub(crate) fn capture(ctx: &Wx, pkt: &Packet) -> Option<PktCapture> {
    let tracer = ctx.tracer()?;
    let (frame, frame_orig_len) = wire_bytes::capture_frame(pkt, ctx.now().as_nanos(), tracer.snaplen());
    Some(PktCapture::new(frame, frame_orig_len, pkt))
}

/// Live-path flight-recorder hook: `wire` is the datagram that crossed (or
/// is about to cross) the socket, `pkt` its decoded form. Records those
/// bytes, snapped — never a re-encoding — with verdict Deliver-now (the real
/// network's verdict is unknowable from here).
pub(crate) fn trace_wire(ctx: &Wx, pkt: &Packet, wire: &[u8]) {
    let Some(tracer) = ctx.tracer() else { return };
    let snap = tracer.snaplen().min(wire.len());
    let cap = PktCapture::new(wire[..snap].to_vec(), wire.len() as u32, pkt);
    emit_pkt(ctx, pkt.src, pkt.dst, wire.len() as u32, Verdict::Deliver { at: ctx.now() }, cap);
}

pub(crate) fn emit_pkt(ctx: &Wx, src: IfAddr, dst: IfAddr, wire_len: u32, verdict: Verdict, cap: PktCapture) {
    let verdict = match verdict {
        Verdict::Deliver { at } => trace::PktVerdict::Deliver { at_ns: at.as_nanos() },
        Verdict::Drop(DropReason::Loss) => trace::PktVerdict::Drop(trace::DropKind::Loss),
        Verdict::Drop(DropReason::QueueFull) => trace::PktVerdict::Drop(trace::DropKind::QueueFull),
        Verdict::Drop(DropReason::LinkDown) => trace::PktVerdict::Drop(trace::DropKind::LinkDown),
    };
    ctx.trace_emit(trace::Event::Pkt(trace::PktEv {
        src_host: src.host,
        src_if: src.iface,
        dst_host: dst.host,
        dst_if: dst.iface,
        proto: cap.proto,
        kind: cap.kind,
        wire_len,
        verdict,
        tsn: cap.tsn,
        ntsn: cap.ntsn,
        stream: cap.stream,
        frame: cap.frame,
        frame_orig_len: cap.frame_orig_len,
    }));
}

/// Offer `pkt` to the simulated network; schedule delivery if it survives.
/// This is [`crate::backend::SimBackend`]'s egress path — the pre-backend
/// `ip::send`, verbatim.
pub(crate) fn sim_send(w: &mut World, ctx: &mut Wx, pkt: Packet) {
    let size = IP_HEADER + pkt.body.wire_len();
    let cap = capture(ctx, &pkt);
    let verdict = w.net.transmit(ctx.now(), pkt.src, pkt.dst, size, &mut ctx.rng);
    if let Some(cap) = cap {
        emit_pkt(ctx, pkt.src, pkt.dst, size, verdict, cap);
    }
    match verdict {
        Verdict::Deliver { at } => {
            ctx.schedule_at(at, move |w: &mut World, ctx: &mut Wx| deliver(w, ctx, pkt));
        }
        Verdict::Drop(_) => { /* the network recorded the drop */ }
    }
}

fn deliver(w: &mut World, ctx: &mut Wx, pkt: Packet) {
    match pkt.body {
        Proto::Tcp(seg) => tcp::input(w, ctx, pkt.src, pkt.dst, seg),
        Proto::Sctp(p) => sctp::input(w, ctx, pkt.src, pkt.dst, p),
    }
}

/// Offer a train of back-to-back packets (one source, one destination) to
/// the network and schedule delivery of the survivors as one fused event.
///
/// Exactly equivalent to `pkts.len()` sequential [`sim_send`] calls: same
/// RNG draw order, same verdicts, same per-packet delivery instants, same
/// (time, seq) fire positions, same `events_fired` count.
pub(crate) fn sim_send_train(w: &mut World, ctx: &mut Wx, mut pkts: Vec<Packet>) {
    if pkts.len() < 2 || ctx.is_reference() {
        for pkt in pkts.drain(..) {
            sim_send(w, ctx, pkt);
        }
        w.pool.put_packet_vec(pkts);
        return;
    }
    let (src, dst) = (pkts[0].src, pkts[0].dst);
    debug_assert!(
        pkts.iter().all(|p| p.src == src && p.dst == dst),
        "a train must not cross a peer boundary"
    );
    let mut sizes = w.pool.take_size_vec();
    sizes.extend(pkts.iter().map(|p| IP_HEADER + p.body.wire_len()));
    let caps: Option<Vec<PktCapture>> = if ctx.tracing() {
        Some(pkts.iter().map(|p| capture(ctx, p).expect("tracer present")).collect())
    } else {
        None
    };
    let mut verdicts = w.pool.take_verdict_vec();
    w.net.transmit_burst_into(ctx.now(), src, dst, &sizes, &mut ctx.rng, &mut verdicts);
    if let Some(caps) = caps {
        for ((cap, &v), &size) in caps.into_iter().zip(&verdicts).zip(&sizes) {
            emit_pkt(ctx, src, dst, size, v, cap);
        }
    }
    let mut train = w.pool.take_train();
    for (pkt, v) in pkts.drain(..).zip(verdicts.iter()) {
        match *v {
            Verdict::Deliver { at } => train.push_back((at, pkt)),
            Verdict::Drop(_) => {} // the network recorded the drop
        }
    }
    w.pool.put_size_vec(sizes);
    w.pool.put_verdict_vec(verdicts);
    w.pool.put_packet_vec(pkts);
    // A fault boundary splits the train: delay jitter can hand later train
    // members *earlier* arrival instants, and the fused walk below requires
    // monotone arrivals. Degrading to one event per survivor is exactly what
    // per-packet `send` would have scheduled (same order, same seq draws).
    if train.iter().zip(train.iter().skip(1)).any(|(a, b)| b.0 < a.0) {
        for (at, pkt) in train.drain(..) {
            ctx.schedule_at(at, move |w: &mut World, ctx: &mut Wx| deliver(w, ctx, pkt));
        }
        w.pool.put_train(train);
        return;
    }
    match train.len() {
        0 | 1 => {
            if let Some((at, pkt)) = train.pop_front() {
                ctx.schedule_at(at, move |w: &mut World, ctx: &mut Wx| deliver(w, ctx, pkt));
            }
            w.pool.put_train(train);
        }
        k => {
            ctx.note_burst(k as u64);
            // The head event owns the first survivor's seq and reserves one
            // more per remaining survivor — the seqs k per-packet
            // `schedule_at` calls would have drawn (drops allocate none).
            let at0 = train.front().unwrap().0;
            let base = ctx.next_seq();
            let got = ctx.schedule_train_at(at0, (k - 1) as u64, move |w, ctx| {
                deliver_train(w, ctx, train, base)
            });
            debug_assert_eq!(got, base);
        }
    }
}

/// Deliver the train's packets in sequence, each at its own arrival instant,
/// advancing the clock inline when legal and falling back to a real event
/// (with the packet's reserved seq) when not. `seq` is the front packet's
/// reserved sequence number.
fn deliver_train(w: &mut World, ctx: &mut Wx, mut train: VecDeque<(SimTime, Packet)>, mut seq: u64) {
    while let Some((_, pkt)) = train.pop_front() {
        deliver(w, ctx, pkt);
        seq += 1;
        let Some(&(next_at, _)) = train.front() else { break };
        if !ctx.try_advance_to(next_at, seq) {
            // A wake or an earlier-ordered event intervenes: the rest of the
            // train becomes a real event in its reserved fire position.
            ctx.schedule_at_seq(next_at, seq, move |w: &mut World, ctx: &mut Wx| {
                deliver_train(w, ctx, train, seq)
            });
            return;
        }
    }
    w.pool.put_train(train);
}
