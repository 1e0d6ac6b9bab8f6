//! Single-threaded reactor that runs the transport engines in real time.
//!
//! Inside the simulator, a [`simcore::Runtime`] owns the clock: events fire
//! in (time, seq) order and virtual time jumps instant to instant. On real
//! sockets nobody owns the clock — datagrams arrive whenever the kernel
//! says so. This crate bridges the two with the smallest possible loop:
//!
//! 1. advance virtual time to "wall nanoseconds since start", firing every
//!    timer that came due ([`simcore::Ctx::run_due`] — the same event
//!    queue the sim uses);
//! 2. drain the installed [`transport::backend::Backend`]'s ingress queue
//!    and dispatch the decoded packets into the engines
//!    ([`transport::backend::pump_ingress`]);
//! 3. fire anything those deliveries armed that is already due.
//!
//! A [`LiveNode`] owns one [`World`] + standalone [`Wx`] pair and maps the
//! virtual clock 1:1 onto a monotonic wall clock, so RTO, delayed-SACK,
//! heartbeat and persist timers all run at their configured real durations
//! without the engines knowing anything changed. Several nodes can live in
//! one process (each is its own little host), or one per process across a
//! network — the node only talks through its backend's socket.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

use simcore::rng::derive_rng;
use simcore::SimTime;
use transport::backend::{pump_ingress, Backend};
use transport::{World, Wx};

/// One live endpoint: a world, a standalone scheduler context, and the
/// wall-clock origin their shared virtual clock is anchored to.
pub struct LiveNode {
    /// The node's protocol world (stacks + installed backend).
    pub world: World,
    /// Standalone scheduler context: event queue + RNG, no processes.
    pub ctx: Wx,
    t0: Instant,
    /// Total events fired across every poll (timers and deliveries).
    pub events_fired: u64,
    /// Total ingress packets dispatched into the engines.
    pub ingress_delivered: u64,
}

impl LiveNode {
    /// Wrap `world` (with its backend already installed) into a live node.
    /// `seed` derives the node's RNG — give each node its own.
    pub fn new(world: World, seed: u64) -> Self {
        LiveNode {
            world,
            ctx: Wx::standalone(derive_rng(seed, 0)),
            t0: Instant::now(),
            events_fired: 0,
            ingress_delivered: 0,
        }
    }

    /// Swap in a backend (e.g. a configured
    /// [`transport::backend::udp::UdpBackend`]); returns the old one.
    pub fn install_backend(&mut self, b: Box<dyn Backend>) -> Box<dyn Backend> {
        self.world.install_backend(b)
    }

    /// Wall nanoseconds since the node was created, as virtual time.
    pub fn wall(&self) -> SimTime {
        SimTime::from_nanos(self.t0.elapsed().as_nanos() as u64)
    }

    /// One reactor tick against the wall clock: timers → ingress → timers.
    /// Returns true if anything fired or arrived (callers can back off when
    /// a whole sweep over their nodes reports false).
    pub fn poll(&mut self) -> bool {
        let bound = self.wall();
        let worked = self.poll_at(bound);
        // Deliveries may arm zero-delay work (SACK bundling, more output);
        // fire what is already due so a reply leaves within this tick.
        let bound = self.wall();
        let tail = self.ctx.run_due(&mut self.world, bound);
        self.events_fired += tail;
        worked || tail > 0
    }

    /// [`LiveNode::poll`] against an explicit virtual bound instead of the
    /// wall clock — the deterministic variant tests drive.
    pub fn poll_at(&mut self, bound: SimTime) -> bool {
        let fired = self.ctx.run_due(&mut self.world, bound);
        let arrived = pump_ingress(&mut self.world, &mut self.ctx);
        let tail = self.ctx.run_due(&mut self.world, bound);
        self.events_fired += fired + tail;
        self.ingress_delivered += arrived as u64;
        fired + tail > 0 || arrived > 0
    }

    /// Virtual seconds this node has run (== wall seconds, by construction).
    pub fn sim_secs(&self) -> f64 {
        self.ctx.now().as_nanos() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::IfAddr;
    use transport::ip::{Packet, Proto};
    use transport::sctp;

    /// The reactor pump is exercised hermetically: both "hosts" live in one
    /// world over the *sim* backend, and `poll_at` plays the role the wall
    /// clock plays live — every scheduled delivery and timer fires through
    /// the same run_due path `pingpong_live` uses with real sockets.
    #[test]
    fn reactor_pump_completes_a_handshake_and_a_message_round_trip() {
        let mut node = LiveNode::new(World::paper_cluster(0.0), 7);
        let ea = sctp::socket(&mut node.world, 0, 5000, false);
        let eb = sctp::socket(&mut node.world, 1, 5000, false);
        sctp::listen(&mut node.world, eb);
        let a = sctp::connect(&mut node.world, &mut node.ctx, ea, 1, 5000);

        // Drive virtual time forward in 100 µs reactor ticks.
        let mut t = 0u64;
        while !matches!(sctp::assoc_state(&node.world, a), sctp::AssocState::Established) {
            t += 100_000;
            assert!(t < 10_000_000_000, "handshake did not complete");
            node.poll_at(SimTime::from_nanos(t));
        }

        sctp::sendmsg(&mut node.world, &mut node.ctx, a, 0, 0, Bytes::from(vec![0xAB; 3000]))
            .expect("send fits the buffer");
        while !sctp::readable(&node.world, eb) {
            t += 100_000;
            assert!(t < 10_000_000_000, "message never arrived");
            node.poll_at(SimTime::from_nanos(t));
        }
        let msg = sctp::recvmsg(&mut node.world, &mut node.ctx, eb).expect("readable");
        assert_eq!(msg.len, 3000);
        assert!(node.events_fired > 0);
    }

    /// What a backend sees, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Poll(usize),
        Send,
        Flush,
    }

    /// A backend that replays scripted ingress batches and logs every call.
    #[derive(Default)]
    struct Scripted {
        batches: std::collections::VecDeque<Vec<Packet>>,
        log: Vec<Seen>,
    }

    impl Backend for Scripted {
        fn send(&mut self, _w: &mut World, _ctx: &mut Wx, _pkt: Packet) {
            self.log.push(Seen::Send);
        }
        fn poll_ingress(&mut self, _ctx: &mut Wx, _pool: &mut transport::pool::Pools) -> Vec<Packet> {
            let batch = self.batches.pop_front().unwrap_or_default();
            self.log.push(Seen::Poll(batch.len()));
            batch
        }
        fn flush(&mut self) {
            self.log.push(Seen::Flush);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// An INIT from host 1 for the endpoint listening on host 0: dispatching
    /// it makes the engine send an INIT-ACK.
    fn init_from_peer(tag: u64) -> Packet {
        Packet {
            src: IfAddr::new(1, 0),
            dst: IfAddr::new(0, 0),
            body: Proto::Sctp(sctp::SctpPacket {
                src_port: 5000,
                dst_port: 5000,
                vtag: 0,
                chunks: vec![sctp::Chunk::Init {
                    init_tag: tag,
                    a_rwnd: 1 << 16,
                    out_streams: 10,
                    in_streams: 10,
                    init_tsn: 1,
                    ext_flags: 0,
                }],
            }),
        }
    }

    #[test]
    fn flush_ends_every_non_empty_ingress_batch_and_only_those() {
        let mut node = LiveNode::new(World::paper_cluster(0.0), 7);
        let ep = sctp::socket(&mut node.world, 0, 5000, false);
        sctp::listen(&mut node.world, ep);
        let script = Scripted {
            batches: [vec![init_from_peer(11), init_from_peer(12)], vec![], vec![init_from_peer(13)]].into(),
            log: Vec::new(),
        };
        node.install_backend(Box::new(script));

        for tick in 1..=3 {
            node.poll_at(SimTime::from_nanos(tick));
        }
        // A send from outside an ingress dispatch reaches the backend with
        // no batch open: nothing is pending a flush when `connect` returns.
        let ea = sctp::socket(&mut node.world, 0, 6000, false);
        sctp::connect(&mut node.world, &mut node.ctx, ea, 1, 5000);

        let backend = node.world.backend.as_mut().expect("installed");
        let log = &backend.as_any().downcast_mut::<Scripted>().expect("the scripted backend").log;
        use Seen::*;
        assert_eq!(
            log,
            &[Poll(2), Send, Send, Flush, Poll(0), Poll(1), Send, Flush, Send],
            "replies are sent between the poll and its one flush; an empty poll is not flushed"
        );
    }
}
