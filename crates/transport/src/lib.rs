//! `transport` — full TCP and SCTP protocol implementations over [`netsim`].
//!
//! This crate provides the two transports the paper compares:
//!
//! * [`tcp`] — a 4.4BSD-lineage TCP: 3-way handshake, sliding window with
//!   advertised-window flow control, delayed ACKs, Nagle (disabled by
//!   default, as in the paper's LAM-TCP), NewReno congestion control with
//!   limited SACK (≤ 3 blocks per ACK — the option-space limit the paper
//!   cites), RFC 6298 RTO with coarse timer granularity, zero-window
//!   persist probing, and orderly close including the half-closed state.
//! * [`sctp`] — a KAME-style SCTP: one-to-one and one-to-many sockets,
//!   four-way cookie handshake with signed cookies and verification tags,
//!   multiple streams per association (SSN/TSN sequencing), message
//!   fragmentation and chunk bundling to PMTU, delayed SACKs with unlimited
//!   gap-ack blocks, byte-counting congestion control with the
//!   full-PMTU-at-one-byte rule, fast retransmit, per-destination
//!   congestion state, multihoming with heartbeats and path failover, and
//!   autoclose.
//!
//! The shared [`World`] owns the network and one protocol stack per host;
//! MPI middleware and workloads run against this world inside a
//! [`simcore::Runtime`].
//!
//! Diagnostics: `SCTP_CHECK=1` (read once per process) verifies the SCTP
//! per-path flight invariant after every SACK and T3 expiry, panicking on
//! drift. Timer, retransmission and cwnd edges are recorded by the flight
//! recorder (`TRACE=1`), not printed to stderr.

#![warn(missing_docs)]

pub mod backend;
pub mod buf;
pub mod crc32c;
pub mod ip;
pub mod pool;
pub mod ranges;
pub mod rto;
pub mod sctp;
pub mod tcp;
pub mod wire_bytes;

use netsim::{Net, NetCfg};
use simcore::{Ctx, Model};

/// Scheduler context specialized to the transport world.
pub type Wx = Ctx<World>;

/// One protocol timer of either engine: what a [`simcore::Deadline`] queues,
/// and which handler [`World`]'s [`Model::timer`] runs when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// TCP retransmission timeout.
    Rto(tcp::SockId),
    /// TCP delayed ACK.
    Delack(tcp::SockId),
    /// TCP zero-window persist probe.
    Persist(tcp::SockId),
    /// SCTP T3-rtx of one recovery scope: association-wide (`None`) or one
    /// destination's (`Some(path)`, CMT).
    T3(sctp::AssocId, Option<u8>),
    /// SCTP delayed SACK.
    Sack(sctp::AssocId),
    /// SCTP heartbeat of one path.
    Hb(sctp::AssocId, u8),
    /// SCTP INIT / COOKIE-ECHO retransmission.
    Init(sctp::AssocId),
    /// SCTP SHUTDOWN retransmission.
    Shutdown(sctp::AssocId),
    /// SCTP autoclose idle check.
    Autoclose(sctp::AssocId),
}

impl Model for World {
    type Packet = ip::Packet;
    type Timer = Timer;

    #[inline]
    fn deliver(&mut self, ctx: &mut Wx, pkt: ip::Packet) {
        ip::deliver(self, ctx, pkt)
    }

    #[inline]
    fn timer(&mut self, ctx: &mut Wx, key: Timer) {
        match key {
            Timer::Rto(s) => tcp::on_rto(self, ctx, s),
            Timer::Delack(s) => tcp::on_delack(self, ctx, s),
            Timer::Persist(s) => tcp::on_persist(self, ctx, s),
            Timer::T3(a, scope) => sctp::on_t3(self, ctx, a, scope),
            Timer::Sack(a) => sctp::on_sack_timer(self, ctx, a),
            Timer::Hb(a, path) => sctp::on_heartbeat(self, ctx, a, path),
            Timer::Init(a) => sctp::on_init_timer(self, ctx, a),
            Timer::Shutdown(a) => sctp::on_shutdown_timer(self, ctx, a),
            Timer::Autoclose(a) => sctp::on_autoclose(self, ctx, a),
        }
    }
}

/// Per-host protocol state.
pub struct Host {
    /// The host's TCP stack.
    pub tcp: tcp::TcpHost,
    /// The host's SCTP stack.
    pub sctp: sctp::SctpHost,
}

/// The complete simulated system below the middleware: network + stacks.
pub struct World {
    /// The simulated cluster network.
    pub net: Net,
    /// One protocol stack per host, indexed by host id.
    pub hosts: Vec<Host>,
    /// Recycled packet-plane buffers (see [`pool`]).
    pub pool: pool::Pools,
    /// The network driver every `ip::send` dispatches through. Always
    /// `Some` between dispatches; `ip::send` takes it out for the duration
    /// of one backend call (see [`backend`]).
    pub backend: Option<Box<dyn backend::Backend>>,
}

impl World {
    /// Build a world over `net_cfg` with per-host TCP and SCTP stacks.
    pub fn new(net_cfg: NetCfg, tcp_cfg: tcp::TcpCfg, sctp_cfg: sctp::SctpCfg) -> Self {
        let sctp_cfg = std::rc::Rc::new(sctp_cfg);
        let hosts = (0..net_cfg.hosts)
            .map(|_| Host {
                tcp: tcp::TcpHost::new(tcp_cfg),
                sctp: sctp::SctpHost::new(sctp_cfg.clone()),
            })
            .collect();
        World {
            net: Net::new(net_cfg),
            hosts,
            pool: pool::Pools::default(),
            backend: Some(Box::new(backend::SimBackend)),
        }
    }

    /// Swap the network driver (e.g. for a [`backend::udp::UdpBackend`]).
    /// Returns the previous one.
    pub fn install_backend(&mut self, b: Box<dyn backend::Backend>) -> Box<dyn backend::Backend> {
        self.backend.replace(b).expect("backend slot empty outside a dispatch")
    }

    /// Convenience: default configs at a given loss rate (the paper's
    /// cluster).
    pub fn paper_cluster(loss: f64) -> Self {
        World::new(NetCfg::paper_cluster(loss), tcp::TcpCfg::default(), sctp::SctpCfg::default())
    }
}
