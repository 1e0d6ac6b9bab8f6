//! The IP layer: turns protocol segments into scheduled network deliveries.
//!
//! `send` asks the network for a delivery verdict and, on success, schedules
//! the matching `deliver` event, which demultiplexes on protocol back into
//! the TCP or SCTP input routines. Every packet is one verdict and one
//! delivery event, queued on its destination interface's delivery lane
//! ([`netsim::Net::lane`]); `send_train` hands the backend K back-to-back packets to
//! one peer at once, which the socket backend writes with one syscall and
//! the simulator offers one `send` at a time.

use netsim::{DropReason, IfAddr, Verdict};

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
            let lane = w.net.lane(pkt.src, pkt.dst);
            ctx.schedule_deliver(lane, at, pkt);
        }
        Verdict::Drop(_) => { /* the network recorded the drop */ }
    }
}

/// A packet arrives: demultiplex on protocol into the engine's input
/// routine. The sim path's delivery events land here through
/// [`simcore::Model::deliver`].
#[inline]
pub(crate) fn deliver(w: &mut World, ctx: &mut Wx, pkt: Packet) {
    match pkt.body {
        Proto::Tcp(seg) => tcp::input(w, ctx, pkt.src, pkt.dst, seg),
        Proto::Sctp(p) => sctp::input(w, ctx, pkt.src, pkt.dst, p),
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use simcore::{derive_rng, Ctx, SimTime};

    use super::*;
    use crate::sctp::{Chunk, DataChunk, SctpPacket};

    fn data_pkt(src: IfAddr, dst: IfAddr, tsn: u64, payload: usize) -> Packet {
        let chunk = Chunk::Data(DataChunk {
            tsn,
            stream: 0,
            ssn: 0,
            begin: true,
            end: true,
            unordered: false,
            ppid: 0,
            data: Bytes::from(vec![0u8; payload]),
        });
        let body = Proto::Sctp(SctpPacket { src_port: 1, dst_port: 1, vtag: 1, chunks: vec![chunk] });
        Packet { src, dst, body }
    }

    #[test]
    fn traced_train_records_each_drop_before_its_packet() {
        // Fill host 0's uplink to within one MTU packet of its capacity:
        // a small packet still fits, a full-size one tail-drops.
        let (src, dst) = (IfAddr::new(0, 0), IfAddr::new(1, 0));
        let mut w = World::paper_cluster(0.0);
        let mut ctx: Wx = Ctx::standalone(derive_rng(5, 0));
        let full = Verdict::Drop(DropReason::QueueFull);
        while w.net.transmit(SimTime::ZERO, src, IfAddr::new(2, 0), 1500, &mut ctx.rng) != full {}
        let tracer = trace::Tracer::new(64, 0);
        w.net.tracer = Some(tracer.clone());
        ctx.set_tracer(Some(tracer.clone()));

        let train = [(1, 100), (2, 1400), (3, 1400), (4, 100)].map(|(tsn, len)| data_pkt(src, dst, tsn, len));
        send_train(&mut w, &mut ctx, train.into());

        let dump = tracer.dump(0);
        let seen: Vec<(&str, Option<u64>)> = dump
            .recs
            .iter()
            .map(|r| match &r.ev {
                trace::Event::Pkt(p) => {
                    ("pkt", Some(p.tsn).filter(|_| matches!(p.verdict, trace::PktVerdict::Drop(_))))
                }
                trace::Event::LinkDrop(_) => ("linkdrop", None),
                _ => ("other", None),
            })
            .collect();
        let want = [
            ("pkt", None),
            ("linkdrop", None),
            ("pkt", Some(2)),
            ("linkdrop", None),
            ("pkt", Some(3)),
            ("pkt", None),
        ];
        assert_eq!(seen, want, "each dropped packet's linkdrop record directly precedes its pkt record");
    }
}
