//! The engine↔network seam: one trait, two drivers.
//!
//! Every packet the TCP and SCTP engines emit funnels through
//! [`crate::ip::send`] / [`crate::ip::send_train`], which dispatch to the
//! [`Backend`] installed in the [`World`]:
//!
//! * [`SimBackend`] — the deterministic simulator. Egress asks [`netsim`]
//!   for a verdict and schedules one delivery event per packet, trains
//!   included; ingress *is* those scheduled events, so
//!   [`Backend::poll_ingress`] has nothing to do. This is the default
//!   backend and is bit-identical to the pre-trait code: same RNG draws,
//!   same (time, seq) event positions, same `events_fired`.
//! * [`UdpBackend`](udp::UdpBackend) — real sockets. Egress serializes each
//!   frame into a tx arena ([`crate::wire_bytes::encode_packet_into`]) and
//!   writes it as one UDP datagram (RFC 6951-style encapsulation), a run of
//!   like-sized datagrams per syscall; ingress drains the socket a train
//!   per syscall, copies each train once into a shared buffer, verifies the
//!   checksums of every datagram in it, and hands decoded packets — their
//!   payloads slices of that buffer — back for dispatch into the same
//!   unmodified engines.
//!
//! What is shared between the two backends: the protocol engines (CC, RTO,
//! SACK, bundling, CMT), the event queue, the flight recorder. What is not:
//! the loss/latency model (the real network supplies its own) and
//! determinism (wall-clock arrival order is not replayable).
//!
//! Dispatch discipline: the backend is `take()`n out of the world for the
//! duration of one trait call and restored immediately after — a backend
//! method must never re-enter `ip::send` (both drivers are leaves: the sim
//! path only *schedules* deliveries, the UDP path only writes datagrams).
//! Ingress dispatch happens with the backend back in place, so input
//! handlers are free to transmit replies.
//!
//! Cork discipline: a packet handed to `send`/`send_train` is on its way
//! when the call returns — except while [`pump_ingress`] is dispatching a
//! batch, when a backend may hold the replies back and write them together
//! in [`Backend::flush`], which `pump_ingress` calls once the batch is
//! dispatched. Held or not, packets leave in the order they were sent.

pub mod udp;

use crate::ip::Packet;
use crate::pool::Pools;
use crate::{ip, World, Wx};

/// A network driver under the transport engines. See the module docs for
/// the dispatch discipline.
pub trait Backend {
    /// Egress one packet.
    fn send(&mut self, w: &mut World, ctx: &mut Wx, pkt: Packet);

    /// Egress a train of back-to-back packets to one peer. By default each
    /// packet goes through [`Backend::send`] in order; the socket backend
    /// overrides this to write K datagrams in as few syscalls as their
    /// sizes allow.
    fn send_train(&mut self, w: &mut World, ctx: &mut Wx, mut pkts: Vec<Packet>) {
        for pkt in pkts.drain(..) {
            self.send(w, ctx, pkt);
        }
        w.pool.put_packet_vec(pkts);
    }

    /// Drain ingress: frames that arrived since the last poll, decoded into
    /// engine packets (in arrival order). The sim backend returns nothing —
    /// its deliveries ride scheduled events. `pool` is the world's: the
    /// returned list and each packet's carriers (chunk bundle, gap and SACK
    /// lists, payload list) should come from it, since the caller and the
    /// engines retire them there. The caller dispatches the result via
    /// [`ip::deliver_now`] with the backend back in place, then calls
    /// [`Backend::flush`] if there was anything to dispatch.
    fn poll_ingress(&mut self, _ctx: &mut Wx, _pool: &mut Pools) -> Vec<Packet> {
        Vec::new()
    }

    /// The batch `poll_ingress` returned has been dispatched: write whatever
    /// was held back while it was. Nothing to do for a backend that never
    /// holds a packet.
    fn flush(&mut self) {}

    /// Implementation-specific escape hatch: lets the driver's owner
    /// recover concrete state (e.g. [`udp::UdpStats`]) through the trait
    /// object after a run.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// Drain the installed backend's ingress queue and dispatch every decoded
/// packet into the protocol input routines. Returns how many were
/// dispatched. The poll runs with the backend taken out (so it can't
/// re-enter the engines); dispatch runs with it restored (so input handlers
/// can transmit replies), and a non-empty batch ends with one
/// [`Backend::flush`]. This is the reactor's per-tick ingress pump; on the
/// sim backend it is a no-op.
pub fn pump_ingress(w: &mut World, ctx: &mut Wx) -> usize {
    let mut b = w.backend.take().expect("backend re-entered pump_ingress from its own dispatch");
    let mut pkts = b.poll_ingress(ctx, &mut w.pool);
    w.backend = Some(b);
    let n = pkts.len();
    for pkt in pkts.drain(..) {
        ip::deliver_now(w, ctx, pkt);
    }
    w.pool.put_packet_vec(pkts);
    if n > 0 {
        w.backend.as_mut().expect("backend restored above").flush();
    }
    n
}

/// The deterministic simulator driver: the exact egress path every figure
/// in EXPERIMENTS.md was measured under, now behind the trait.
#[derive(Debug, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn send(&mut self, w: &mut World, ctx: &mut Wx, pkt: Packet) {
        ip::sim_send(w, ctx, pkt);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
