//! Shard-aware star network for the scale experiments (incast, tenants).
//!
//! [`crate::net::Net`] owns every link in one struct — perfect for an
//! 8-host sequential run, useless for a sharded one where no single thread
//! may own the whole network. This module splits the same star topology
//! into per-node NICs so each piece lives on the shard that owns its node:
//!
//! * The **uplink** (node → switch) belongs to the *sending* node: the
//!   sender serializes, evaluates the fault plane, draws loss and jitter
//!   from its own per-node RNG stream, and stamps the packet's arrival
//!   instant at the destination's downlink input — all from sender-owned
//!   state, so the stamp is independent of the shard partition.
//! * The **switch** is a fixed store-and-forward latency (contention in an
//!   incast lives at the victim's downlink, not in the fabric).
//! * The **downlink** (switch → node) belongs to the *receiving* node and
//!   is updated in the engine's merged `(at, src, sseq)` arrival order, so
//!   its FIFO occupancy — and therefore *which* packet tail-drops during
//!   incast collapse — is bit-identical at any shard count.
//!
//! The minimum cross-node latency is `prop_delay + switch_latency`; that is
//! the conservative lookahead bound the sharded engine runs under
//! ([`ShardNetCfg::lookahead`]). Serialization time does not count toward
//! it (a zero-byte packet serializes in zero time), and jitter only ever
//! delays, so the bound is safe with every fault rule active.

use rand::rngs::SmallRng;
use rand::Rng;
use simcore::{derive_rng, Dur, SimTime};

use crate::addr::IfAddr;
use crate::fault::{FaultPlan, FaultState};
use crate::link::{DropReason, Link, LinkCfg, LinkDrop};

/// Parameters of the sharded star network.
#[derive(Debug, Clone)]
pub struct ShardNetCfg {
    /// Node count. Bounded by the fault plane's 16-bit host addressing.
    pub nodes: u32,
    /// Uplink/downlink parameters (rate, propagation delay, FIFO capacity).
    pub link: LinkCfg,
    /// Store-and-forward latency of the switch fabric.
    pub switch_latency: Dur,
    /// Bernoulli loss probability, applied once per path at the source.
    pub loss_prob: f64,
    /// Fault plan, instantiated per source node (GE chains, flap windows,
    /// jitter state all advance on the owning shard).
    pub fault_plan: Option<FaultPlan>,
    /// Smallest wire size (bytes) the model ever offers to a NIC. Its
    /// full-rate serialization time is a latency every packet pays on the
    /// uplink, so it legally widens the lookahead bound. Zero (the default)
    /// claims nothing and keeps the bound at `prop + switch`.
    pub min_wire_bytes: u32,
}

impl Default for ShardNetCfg {
    fn default() -> Self {
        ShardNetCfg {
            nodes: 2,
            link: LinkCfg::default(),
            switch_latency: Dur::from_micros(2),
            loss_prob: 0.0,
            fault_plan: None,
            min_wire_bytes: 0,
        }
    }
}

impl ShardNetCfg {
    /// The conservative lookahead bound: no packet sent at `t` can reach
    /// another node's downlink input before
    /// `t + ser(min_wire_bytes) + prop + switch`. The serialization term
    /// uses the configured line rate; fault-plane degradation only slows
    /// links down, and jitter only delays, so the bound survives every
    /// fault rule.
    ///
    /// Panics when that bound is zero — a zero-latency path admits no
    /// conservative window, so the sharded engine rejects the topology.
    pub fn lookahead(&self) -> Dur {
        let ser = simcore::transmission_time(self.min_wire_bytes as u64, self.link.bandwidth_bps);
        let l = ser + self.link.prop_delay + self.switch_latency;
        assert!(
            l > Dur::ZERO,
            "zero-latency links are not shardable: prop_delay + switch_latency must be positive"
        );
        l
    }
}

/// RNG stream namespace for per-node NIC draws, so a model using
/// `derive_rng(seed, node)` for its own purposes never collides.
const NIC_STREAM: u64 = 0x4E49_4300; // "NIC\0"

/// What happened to a packet offered to the source NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Accepted; hand the instant to the engine's mailbox.
    InFlight {
        /// When the last bit reaches the destination's downlink input.
        at_dst: SimTime,
    },
    /// Dropped before reaching the destination (loss pipe, flap window,
    /// uplink queue overflow).
    Dropped(DropReason),
}

/// Per-source drop/accept counters (the downlink keeps its own in
/// [`Link::stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Packets dropped by the Bernoulli pipe or a Gilbert–Elliott chain.
    pub drops_loss: u64,
    /// Packets refused while inside a flap window.
    pub drops_down: u64,
}

/// One node's network attachment: its uplink, its downlink, its RNG stream
/// and its fault-plane state. Lives in the owning shard's world.
#[derive(Debug, Clone)]
pub struct NodeNic {
    node: u32,
    /// Uplink to the switch (touched only by this node's sends).
    pub up: Link,
    /// Downlink from the switch (touched only in merged arrival order).
    pub down: Link,
    switch_latency: Dur,
    loss_prob: f64,
    rng: SmallRng,
    fault: FaultState,
    /// Source-side drop counters.
    pub stats: NicStats,
}

impl NodeNic {
    /// NIC for `node` under `cfg`, with its RNG stream derived from the
    /// master `seed` and the node id (partition-invariant by construction).
    pub fn new(cfg: &ShardNetCfg, node: u32, seed: u64) -> NodeNic {
        assert!(node < cfg.nodes, "node {node} outside the configured {} nodes", cfg.nodes);
        assert!(cfg.nodes <= u16::MAX as u32 + 1, "fault-plane addressing is 16-bit");
        let mut fault = FaultState::default();
        if let Some(plan) = &cfg.fault_plan {
            fault.install(plan.clone());
        }
        NodeNic {
            node,
            up: Link::new(cfg.link),
            down: Link::new(cfg.link),
            switch_latency: cfg.switch_latency,
            loss_prob: cfg.loss_prob,
            rng: derive_rng(seed ^ NIC_STREAM, node as u64),
            fault,
            stats: NicStats::default(),
        }
    }

    /// Offer `wire_bytes` to the uplink at `now`, headed for `dst`. The
    /// fault order (flap → GE chain → Bernoulli → degraded rate → queue →
    /// jitter) matches [`crate::net::Net::transmit`] exactly.
    pub fn send(&mut self, now: SimTime, dst: u32, wire_bytes: u32) -> SendVerdict {
        let src_if = IfAddr::new(self.node as u16, 0);
        let dst_if = IfAddr::new(dst as u16, 0);
        let faulted = self.fault.active();
        if faulted {
            if self.fault.flap_blocks(&None, now, src_if, dst_if) {
                self.stats.drops_down += 1;
                return SendVerdict::Dropped(DropReason::LinkDown);
            }
            if self.fault.bursty_drop(&None, now, src_if, dst_if, &mut self.rng) {
                self.stats.drops_loss += 1;
                return SendVerdict::Dropped(DropReason::Loss);
            }
        }
        if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
            self.stats.drops_loss += 1;
            return SendVerdict::Dropped(DropReason::Loss);
        }
        let bps = if faulted {
            self.fault.degraded_bps(&None, now, src_if, dst_if, self.up.cfg.bandwidth_bps)
        } else {
            self.up.cfg.bandwidth_bps
        };
        match self.up.transmit_at_rate(now, wire_bytes, bps) {
            Ok(at_switch) => {
                let mut at_dst = at_switch + self.switch_latency;
                if faulted {
                    at_dst = self.fault.jitter_arrival(at_dst, src_if, dst_if, &mut self.rng);
                }
                SendVerdict::InFlight { at_dst }
            }
            Err(e) => SendVerdict::Dropped(e.into()),
        }
    }

    /// A packet reached this node's downlink input at `t_in` (a merged
    /// mailbox arrival). Returns the delivery instant at the node, or the
    /// tail-drop verdict — the incast-collapse signal.
    pub fn recv(&mut self, t_in: SimTime, wire_bytes: u32) -> Result<SimTime, LinkDrop> {
        self.down.transmit(t_in, wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: u32) -> ShardNetCfg {
        ShardNetCfg { nodes, ..ShardNetCfg::default() }
    }

    #[test]
    fn lookahead_is_prop_plus_switch() {
        let c = cfg(4);
        assert_eq!(c.lookahead(), Dur::from_micros(22));
    }

    #[test]
    fn min_wire_serialization_widens_lookahead() {
        // 64 bytes at 1 Gb/s serialize in 512 ns; every packet pays at
        // least that on the uplink, so the conservative bound grows by it.
        let c = ShardNetCfg { min_wire_bytes: 64, ..cfg(4) };
        assert_eq!(c.lookahead(), Dur::from_micros(22) + Dur::from_nanos(512));
    }

    #[test]
    #[should_panic(expected = "not shardable")]
    fn zero_latency_rejected() {
        let mut c = cfg(2);
        c.link.prop_delay = Dur::ZERO;
        c.switch_latency = Dur::ZERO;
        let _ = c.lookahead();
    }

    #[test]
    fn send_respects_lookahead() {
        let c = cfg(2);
        let mut nic = NodeNic::new(&c, 0, 7);
        match nic.send(SimTime::ZERO, 1, 1500) {
            SendVerdict::InFlight { at_dst } => {
                // 12 µs serialization + 20 µs prop + 2 µs switch.
                assert_eq!(at_dst, SimTime::ZERO + Dur::from_micros(34));
                assert!(at_dst.since(SimTime::ZERO) >= c.lookahead());
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn downlink_serializes_fifo() {
        let c = cfg(2);
        let mut nic = NodeNic::new(&c, 1, 7);
        let t0 = SimTime::ZERO + Dur::from_micros(100);
        let a = nic.recv(t0, 1500).unwrap();
        let b = nic.recv(t0, 1500).unwrap();
        assert_eq!(b.since(a), Dur::from_micros(12), "second packet queues behind the first");
    }

    #[test]
    fn incast_overflows_the_victim_downlink() {
        let mut c = cfg(64);
        c.link.queue_cap_bytes = 8 * 1500;
        let mut victim = NodeNic::new(&c, 0, 7);
        let t0 = SimTime::ZERO;
        let mut dropped = 0;
        for _ in 0..64 {
            if victim.recv(t0, 1500).is_err() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "64 synchronized arrivals must overflow an 8-packet FIFO");
        assert_eq!(victim.down.stats.drops_queue, dropped);
    }

    #[test]
    fn loss_draws_come_from_the_node_stream() {
        let mut c = cfg(2);
        c.loss_prob = 0.5;
        let run = |seed: u64| {
            let mut nic = NodeNic::new(&c, 0, seed);
            (0..64)
                .map(|i| {
                    let now = SimTime::from_nanos(i * 50_000);
                    matches!(nic.send(now, 1, 100), SendVerdict::Dropped(_))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same loss pattern");
        assert_ne!(run(1), run(2), "different seed, different pattern");
    }
}
