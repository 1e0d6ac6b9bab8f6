//! The cluster network: N hosts × K interfaces, one switched network per
//! interface index, and a Dummynet-style loss pipe on every path.
//!
//! Topology (matching the paper's testbed):
//!
//! ```text
//!   host a ── uplink ──▶ switch[iface] ── downlink ──▶ host b
//! ```
//!
//! Each network `i` is a star: every host's interface `i` has a full-duplex
//! link to switch `i`. A packet from `(a, i)` to `(b, i)` serializes on a's
//! uplink, crosses the switch (store-and-forward, small fixed latency), then
//! serializes on b's downlink. Random loss is applied **once per path**, like
//! a Dummynet pipe configured between each pair of nodes, so a configured
//! loss rate of 1 % means 1 % of packets end-to-end — not 1 % per hop.

use rand::rngs::SmallRng;
use rand::Rng;
use simcore::{Dur, SimTime};

use crate::addr::IfAddr;
use crate::fault::{FaultPlan, FaultState};
use crate::link::{DropReason, Link, LinkCfg, LinkDrop, LINK_BPS};

/// Network-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetCfg {
    /// Number of hosts in the cluster.
    pub hosts: u16,
    /// Interfaces per host = number of independent networks.
    pub ifaces_per_host: u8,
    /// Parameters shared by every link.
    pub link: LinkCfg,
    /// Dummynet pipe loss probability (applied once per packet per path).
    pub loss_prob: f64,
}

/// Store-and-forward latency of the switch.
pub const SWITCH_LATENCY: Dur = Dur::from_micros(2);

/// Loopback delivery delay for self-addressed packets.
pub const LOOPBACK_DELAY: Dur = Dur::from_micros(5);

impl Default for NetCfg {
    fn default() -> Self {
        NetCfg {
            hosts: 8,
            ifaces_per_host: 3,
            link: LinkCfg::default(),
            loss_prob: 0.0,
        }
    }
}

impl NetCfg {
    /// The paper's testbed: 8 nodes, 3 × 1 Gb/s interfaces, given loss rate.
    pub fn paper_cluster(loss_prob: f64) -> Self {
        NetCfg { loss_prob, ..Default::default() }
    }
}

/// Outcome of offering a packet to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The last bit arrives at the destination interface at this instant.
    Deliver {
        /// Arrival instant of the last bit.
        at: SimTime,
    },
    /// The packet will never arrive, for this reason.
    Drop(DropReason),
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets offered to [`Net::transmit`].
    pub packets_offered: u64,
    /// Packets that will arrive at their destination.
    pub packets_delivered: u64,
    /// Wire bytes of all delivered packets.
    pub bytes_delivered: u64,
    /// Drops from random loss (Bernoulli pipe or bursty-loss chains).
    pub drops_loss: u64,
    /// Drops from full link queues.
    pub drops_queue: u64,
    /// Drops from administratively/fault-plane downed paths.
    pub drops_down: u64,
}

/// The simulated cluster network.
#[derive(Debug, Clone)]
pub struct Net {
    /// Topology and loss configuration.
    pub cfg: NetCfg,
    /// `links[host][iface]` = (uplink to switch, downlink from switch).
    links: Vec<Vec<(Link, Link)>>,
    /// Network-wide counters.
    pub stats: NetStats,
    /// Flight recorder for link-level drop events; observation only, never
    /// consulted for any verdict.
    pub tracer: Option<trace::Tracer>,
    /// Installed fault-injection plan and its per-rule runtime state (see
    /// [`crate::fault`]). Empty by default — and an empty plan costs one
    /// branch per packet and draws nothing from the RNG.
    fault: FaultState,
}

impl Net {
    /// Build the cluster: `hosts × ifaces` link pairs, all idle and up.
    pub fn new(cfg: NetCfg) -> Self {
        let links = (0..cfg.hosts)
            .map(|_| {
                (0..cfg.ifaces_per_host)
                    .map(|_| (Link::new(cfg.link), Link::new(cfg.link)))
                    .collect()
            })
            .collect();
        Net { cfg, links, stats: NetStats::default(), tracer: None, fault: FaultState::default() }
    }

    /// Install a fault-injection plan, replacing any previous one and
    /// resetting all rule state. Installing an empty (or all-no-op) plan is
    /// exactly equivalent to never calling this at all — verdicts, delivery
    /// instants, and the RNG stream are untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault.install(plan);
    }

    fn trace_drop(
        tracer: &Option<trace::Tracer>,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
        wire_bytes: u32,
        reason: DropReason,
        backlog_ns: u64,
    ) {
        if let Some(t) = tracer {
            let reason = match reason {
                DropReason::Loss => trace::DropKind::Loss,
                DropReason::QueueFull => trace::DropKind::QueueFull,
                DropReason::LinkDown => trace::DropKind::LinkDown,
            };
            t.emit(
                now.as_nanos(),
                trace::Event::LinkDrop(trace::LinkDropEv {
                    src_host: src.host,
                    src_if: src.iface,
                    dst_host: dst.host,
                    wire_bytes,
                    reason,
                    backlog_ns,
                }),
            );
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> u16 {
        self.cfg.hosts
    }

    /// Number of interfaces per host.
    pub fn ifaces(&self) -> u8 {
        self.cfg.ifaces_per_host
    }

    /// The delivery lane of a packet `src` → `dst`, for
    /// [`simcore::Ctx::schedule_deliver`]: one lane per destination
    /// interface (`host × ifaces + iface`), then one loopback lane per host.
    /// A lane's delivery instants never decrease without jitter: every
    /// packet to one interface leaves through its one downlink, whose
    /// `busy_until` only grows, and a host's loopback delivers a fixed delay
    /// after the nondecreasing clock.
    pub fn lane(&self, src: IfAddr, dst: IfAddr) -> usize {
        let ifaces = self.cfg.ifaces_per_host as usize;
        if src.host == dst.host {
            self.cfg.hosts as usize * ifaces + dst.host as usize
        } else {
            dst.host as usize * ifaces + dst.iface as usize
        }
    }

    fn check_addr(&self, a: IfAddr) {
        assert!(
            a.host < self.cfg.hosts && a.iface < self.cfg.ifaces_per_host,
            "address {a} outside topology ({} hosts x {} ifaces)",
            self.cfg.hosts,
            self.cfg.ifaces_per_host
        );
    }

    /// Offer a packet at `now`. `src.iface` and `dst.iface` must match (the
    /// networks are independent); self-addressed packets go via loopback.
    pub fn transmit(
        &mut self,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
        wire_bytes: u32,
        rng: &mut SmallRng,
    ) -> Verdict {
        self.check_addr(src);
        self.check_addr(dst);
        self.stats.packets_offered += 1;

        if src.host == dst.host {
            // Loopback: no loss, no queueing.
            self.stats.packets_delivered += 1;
            self.stats.bytes_delivered += wire_bytes as u64;
            return Verdict::Deliver { at: now + LOOPBACK_DELAY };
        }

        assert_eq!(
            src.iface, dst.iface,
            "networks are independent: cannot route {src} -> {dst}"
        );

        // Fault plane, stage 1: scheduled flap windows (no RNG) and bursty
        // Gilbert–Elliott chains (fixed two draws per matching rule). The
        // evaluation order here — flap, chains, Bernoulli, links, jitter —
        // is part of the determinism contract.
        let faulted = self.fault.active();
        if faulted {
            if self.fault.flap_blocks(&self.tracer, now, src, dst) {
                Self::trace_drop(&self.tracer, now, src, dst, wire_bytes, DropReason::LinkDown, 0);
                return self.record_drop(LinkDrop::LinkDown);
            }
            if self.fault.bursty_drop(&self.tracer, now, src, dst, rng) {
                self.stats.drops_loss += 1;
                if self.tracer.is_some() {
                    let backlog = self.links[src.host as usize][src.iface as usize].0.backlog_ns(now);
                    Self::trace_drop(&self.tracer, now, src, dst, wire_bytes, DropReason::Loss, backlog);
                }
                return Verdict::Drop(DropReason::Loss);
            }
        }

        // Dummynet pipe: one Bernoulli trial per packet per path. Loss is
        // decided here, before any link is touched — the link layer can only
        // report congestion or down (see [`LinkDrop`]).
        if self.cfg.loss_prob > 0.0 && rng.gen_bool(self.cfg.loss_prob) {
            self.stats.drops_loss += 1;
            if self.tracer.is_some() {
                let backlog = self.links[src.host as usize][src.iface as usize].0.backlog_ns(now);
                Self::trace_drop(&self.tracer, now, src, dst, wire_bytes, DropReason::Loss, backlog);
            }
            return Verdict::Drop(DropReason::Loss);
        }

        // Fault plane, stage 2: time-windowed bandwidth degradation (no RNG).
        let bps = if faulted {
            self.fault.degraded_bps(&self.tracer, now, src, dst, LINK_BPS)
        } else {
            LINK_BPS
        };

        // Uplink: src host -> switch.
        let up = &mut self.links[src.host as usize][src.iface as usize].0;
        let backlog = if self.tracer.is_some() { up.backlog_ns(now) } else { 0 };
        let at_switch = match up.transmit_at_rate(now, wire_bytes, bps) {
            Ok(t) => t,
            Err(r) => {
                Self::trace_drop(&self.tracer, now, src, dst, wire_bytes, r.into(), backlog);
                return self.record_drop(r);
            }
        };

        // Downlink: switch -> dst host (store-and-forward).
        let start = at_switch + SWITCH_LATENCY;
        let down = &mut self.links[dst.host as usize][dst.iface as usize].1;
        let backlog = if self.tracer.is_some() { down.backlog_ns(start) } else { 0 };
        match down.transmit_at_rate(start, wire_bytes, bps) {
            Ok(t) => {
                // Fault plane, stage 3: delay jitter on the delivered instant
                // (one draw per matching rule; only survivors draw).
                let t = if faulted { self.fault.jitter_arrival(t, src, dst, rng) } else { t };
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += wire_bytes as u64;
                Verdict::Deliver { at: t }
            }
            Err(r) => {
                Self::trace_drop(&self.tracer, now, src, dst, wire_bytes, r.into(), backlog);
                self.record_drop(r)
            }
        }
    }

    /// The single place link-refused packets are charged to the network-wide
    /// counters. Takes [`LinkDrop`], not [`DropReason`]: loss never reaches
    /// the links, and the compiler now enforces there is no such arm here.
    fn record_drop(&mut self, r: LinkDrop) -> Verdict {
        match r {
            LinkDrop::QueueFull => self.stats.drops_queue += 1,
            LinkDrop::LinkDown => self.stats.drops_down += 1,
        }
        Verdict::Drop(r.into())
    }

    /// Offer a train of back-to-back packets at `now`, all `src` → `dst`:
    /// one [`Net::transmit`] per packet, verdicts in offer order.
    pub fn transmit_burst(
        &mut self,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
        wire_bytes: &[u32],
        rng: &mut SmallRng,
    ) -> Vec<Verdict> {
        wire_bytes.iter().map(|&wb| self.transmit(now, src, dst, wb, rng)).collect()
    }

    /// Administratively set one interface (both directions) up or down —
    /// used by the multihoming failover experiments.
    pub fn set_iface_up(&mut self, addr: IfAddr, up: bool) {
        self.check_addr(addr);
        let (ul, dl) = &mut self.links[addr.host as usize][addr.iface as usize];
        ul.up = up;
        dl.up = up;
    }

    /// Take down network `iface` for every host (switch failure).
    pub fn set_network_up(&mut self, iface: u8, up: bool) {
        for h in 0..self.cfg.hosts {
            self.set_iface_up(IfAddr::new(h, iface), up);
        }
    }

    /// Change the path loss probability mid-run.
    pub fn set_loss(&mut self, loss_prob: f64) {
        assert!((0.0..=1.0).contains(&loss_prob));
        self.cfg.loss_prob = loss_prob;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::derive_rng;

    fn net(loss: f64) -> (Net, SmallRng) {
        (Net::new(NetCfg::paper_cluster(loss)), derive_rng(1, 2))
    }

    #[test]
    fn end_to_end_latency_is_two_hops_plus_switch() {
        let (mut n, mut rng) = net(0.0);
        let v = n.transmit(SimTime::ZERO, IfAddr::new(0, 0), IfAddr::new(1, 0), 1500, &mut rng);
        // uplink 12us ser + 20us prop, switch 2us, downlink 12us ser + 20us prop
        assert_eq!(v, Verdict::Deliver { at: SimTime::ZERO + Dur::from_micros(66) });
    }

    #[test]
    fn loopback_is_fast_and_lossless() {
        let (mut n, mut rng) = net(1.0); // even at 100% loss
        let v = n.transmit(SimTime::ZERO, IfAddr::new(2, 0), IfAddr::new(2, 0), 1500, &mut rng);
        assert!(matches!(v, Verdict::Deliver { .. }));
    }

    #[test]
    fn loss_rate_is_statistically_right() {
        let (mut n, mut rng) = net(0.01);
        let trials = 200_000;
        let mut dropped = 0;
        for _ in 0..trials {
            // Use a far-future `now` each time so queues never interfere.
            let v = n.transmit(
                SimTime::from_nanos(u64::MAX / 2),
                IfAddr::new(0, 0),
                IfAddr::new(1, 0),
                100,
                &mut rng,
            );
            if matches!(v, Verdict::Drop(DropReason::Loss)) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.01).abs() < 0.002, "measured loss {rate}, expected ~0.01");
        assert_eq!(n.stats.drops_loss, dropped);
    }

    #[test]
    fn independent_networks_cannot_cross() {
        let (mut n, mut rng) = net(0.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            n.transmit(SimTime::ZERO, IfAddr::new(0, 0), IfAddr::new(1, 1), 100, &mut rng)
        }));
        assert!(r.is_err(), "routing across networks must be rejected");
    }

    #[test]
    fn downed_interface_drops() {
        let (mut n, mut rng) = net(0.0);
        n.set_iface_up(IfAddr::new(0, 1), false);
        let v = n.transmit(SimTime::ZERO, IfAddr::new(0, 1), IfAddr::new(1, 1), 100, &mut rng);
        assert_eq!(v, Verdict::Drop(DropReason::LinkDown));
        // Other networks unaffected.
        let v = n.transmit(SimTime::ZERO, IfAddr::new(0, 0), IfAddr::new(1, 0), 100, &mut rng);
        assert!(matches!(v, Verdict::Deliver { .. }));
        // Receiving side down also drops.
        n.set_iface_up(IfAddr::new(1, 2), false);
        let v = n.transmit(SimTime::ZERO, IfAddr::new(0, 2), IfAddr::new(1, 2), 100, &mut rng);
        assert_eq!(v, Verdict::Drop(DropReason::LinkDown));
    }

    #[test]
    fn congestion_fills_destination_downlink() {
        // Two senders blast the same destination; the shared downlink must
        // eventually tail-drop.
        let (mut n, mut rng) = net(0.0);
        let mut drops = 0;
        for _ in 0..400 {
            for src in [0u16, 2] {
                let v = n.transmit(
                    SimTime::ZERO,
                    IfAddr::new(src, 0),
                    IfAddr::new(1, 0),
                    1500,
                    &mut rng,
                );
                if matches!(v, Verdict::Drop(DropReason::QueueFull)) {
                    drops += 1;
                }
            }
        }
        assert!(drops > 0, "overload must cause queue drops");
        assert_eq!(n.stats.drops_queue, drops);
    }

    #[test]
    fn burst_downlink_drop_traces_the_downlink_backlog() {
        // Hosts 2..8 flood host 1's downlink until it tail-drops; a train
        // 0 → 1 then crosses an idle uplink into that full downlink. Its
        // drops must carry the downlink's backlog, as `transmit` records it.
        let (mut n, mut rng) = net(0.0);
        let (src, dst) = (IfAddr::new(0, 0), IfAddr::new(1, 0));
        'fill: loop {
            for h in 2..8 {
                let v = n.transmit(SimTime::ZERO, IfAddr::new(h, 0), dst, 1500, &mut rng);
                if v == Verdict::Drop(DropReason::QueueFull) {
                    break 'fill;
                }
            }
        }
        let mut per_packet = n.clone();
        let (burst_trace, ref_trace) = (trace::Tracer::new(64, 0), trace::Tracer::new(64, 0));
        n.tracer = Some(burst_trace.clone());
        per_packet.tracer = Some(ref_trace.clone());
        let sizes = [1500u32, 1500, 1500];
        let (mut burst_rng, mut ref_rng) = (derive_rng(3, 4), derive_rng(3, 4));
        let got = n.transmit_burst(SimTime::ZERO, src, dst, &sizes, &mut burst_rng);
        let want: Vec<Verdict> =
            sizes.iter().map(|&wb| per_packet.transmit(SimTime::ZERO, src, dst, wb, &mut ref_rng)).collect();
        assert_eq!(got, want);
        let dump = burst_trace.dump(0);
        let backlogs: Vec<u64> = dump
            .recs
            .iter()
            .filter_map(|r| match &r.ev {
                trace::Event::LinkDrop(d) => Some(d.backlog_ns),
                _ => None,
            })
            .collect();
        assert_eq!(backlogs.len(), sizes.len(), "every train packet meets the full downlink");
        assert!(
            backlogs.iter().all(|&b| b > 1_000_000),
            "downlink backlog, not the idle uplink's: {backlogs:?}"
        );
        assert_eq!(dump.write_jsonl(), ref_trace.dump(0).write_jsonl());
    }

    #[test]
    fn lanes_are_one_per_destination_interface_then_loopback() {
        let (n, _) = net(0.0);
        let a = |h, i| IfAddr::new(h, i);
        assert_eq!(n.lane(a(0, 0), a(1, 0)), 3);
        assert_eq!(n.lane(a(2, 2), a(1, 2)), 5, "the lane is the destination's, whoever sends");
        assert_eq!(n.lane(a(7, 2), a(7, 2)), 8 * 3 + 7, "loopback lanes follow the interface lanes");
        assert_eq!(n.lane(a(0, 1), a(7, 2)), 7 * 3 + 2);
    }

    #[test]
    fn bandwidth_is_shared_fifo() {
        // 10 packets back-to-back: last arrives ~ 10 serialization times after
        // the first, since the uplink is the bottleneck.
        let (mut n, mut rng) = net(0.0);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            if let Verdict::Deliver { at } =
                n.transmit(SimTime::ZERO, IfAddr::new(0, 0), IfAddr::new(1, 0), 1500, &mut rng)
            {
                last = at;
            }
        }
        // first arrives at 66us; each subsequent +12us
        assert_eq!(last, SimTime::ZERO + Dur::from_micros(66 + 9 * 12));
    }
}
