//! A unidirectional link with serialization delay, propagation delay, and a
//! bounded FIFO queue.
//!
//! The queue is *virtual*: rather than holding packet objects and scheduling
//! departure events, the link tracks `busy_until` — the instant its
//! transmitter frees up. A packet offered at `now` starts serializing at
//! `max(now, busy_until)`; the backlog in bytes is implied by
//! `busy_until - now` and the link rate, which is exactly the occupancy a
//! real FIFO would have. Tail drop happens when that implied occupancy plus
//! the new packet would exceed the configured capacity.

use simcore::{bytes_sent_in, transmission_time, Dur, SimTime};

/// Line rate of every link in bits per second (paper: 1 Gb/s Ethernet).
pub const LINK_BPS: u64 = 1_000_000_000;

/// One-way propagation delay of every link.
pub const PROP_DELAY: Dur = Dur::from_micros(20);

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkCfg {
    /// FIFO capacity in bytes (switch/NIC buffer).
    pub queue_cap_bytes: u64,
}

impl Default for LinkCfg {
    fn default() -> Self {
        // 256 KB per port: generous for a LAN switch of the era.
        LinkCfg { queue_cap_bytes: 256 * 1024 }
    }
}

/// Why a packet did not make it onto / across the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss (the Dummynet pipe).
    Loss,
    /// FIFO overflow (congestion).
    QueueFull,
    /// Interface or path administratively down (failover experiments).
    LinkDown,
}

/// Why a *link* refused a packet. A strict subset of [`DropReason`]: random
/// loss is decided by the network's Dummynet pipe before any link is
/// touched, so a link can only ever report congestion or being down — the
/// type makes a `Loss` verdict from the link layer unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDrop {
    /// FIFO overflow (congestion).
    QueueFull,
    /// Interface or path administratively down.
    LinkDown,
}

impl From<LinkDrop> for DropReason {
    fn from(d: LinkDrop) -> DropReason {
        match d {
            LinkDrop::QueueFull => DropReason::QueueFull,
            LinkDrop::LinkDown => DropReason::LinkDown,
        }
    }
}

/// Per-link counters. Drop counts are charged by [`Link::transmit`], the
/// single point where a link refuses a packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets accepted onto the link.
    pub packets: u64,
    /// Bytes accepted onto the link.
    pub bytes: u64,
    /// Packets tail-dropped at a full queue.
    pub drops_queue: u64,
    /// Packets refused while the link was down.
    pub drops_down: u64,
}

/// Mutable link state.
#[derive(Debug, Clone)]
pub struct Link {
    /// Static parameters (queue capacity).
    pub cfg: LinkCfg,
    /// Administrative status; a down link refuses every packet.
    pub up: bool,
    busy_until: SimTime,
    /// Accept/drop counters.
    pub stats: LinkStats,
}

impl Link {
    /// A fresh, idle, up link.
    pub fn new(cfg: LinkCfg) -> Self {
        Link { cfg, up: true, busy_until: SimTime::ZERO, stats: LinkStats::default() }
    }

    /// Time until the transmitter frees up, in nanoseconds — the queueing
    /// delay a packet offered at `now` would see. The flight recorder stamps
    /// this on drop events to distinguish congestion from bad luck.
    pub fn backlog_ns(&self, now: SimTime) -> u64 {
        self.busy_until.since(now).as_nanos()
    }

    /// Bytes currently backlogged in the (virtual) queue at `now`.
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        bytes_sent_in(self.busy_until.since(now), LINK_BPS)
    }

    /// Offer a packet of `wire_bytes` to the link at `now`. On success,
    /// returns the instant the last bit arrives at the far end.
    pub fn transmit(&mut self, now: SimTime, wire_bytes: u32) -> Result<SimTime, LinkDrop> {
        self.transmit_at_rate(now, wire_bytes, LINK_BPS)
    }

    /// Like [`Link::transmit`] but serializing at `bandwidth_bps` instead
    /// of the line rate — the fault plane's bandwidth-degradation
    /// windows slow a link down without mutating its configuration. The
    /// implied queue occupancy is measured at the same effective rate, so a
    /// degraded link also tail-drops sooner.
    pub fn transmit_at_rate(
        &mut self,
        now: SimTime,
        wire_bytes: u32,
        bandwidth_bps: u64,
    ) -> Result<SimTime, LinkDrop> {
        if !self.up {
            self.stats.drops_down += 1;
            return Err(LinkDrop::LinkDown);
        }
        let backlog_bytes = bytes_sent_in(self.busy_until.since(now), bandwidth_bps);
        if backlog_bytes + wire_bytes as u64 > self.cfg.queue_cap_bytes {
            self.stats.drops_queue += 1;
            return Err(LinkDrop::QueueFull);
        }
        let start = self.busy_until.max(now);
        let depart = start + transmission_time(wire_bytes as u64, bandwidth_bps);
        self.busy_until = depart;
        self.stats.packets += 1;
        self.stats.bytes += wire_bytes as u64;
        Ok(depart + PROP_DELAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gig_link() -> Link {
        Link::new(LinkCfg { queue_cap_bytes: 10_000 })
    }

    #[test]
    fn single_packet_timing() {
        let mut l = gig_link();
        // 1500 B at 1 Gb/s = 12 us serialization + 20 us propagation.
        let arrive = l.transmit(SimTime::ZERO, 1500).unwrap();
        assert_eq!(arrive, SimTime::ZERO + Dur::from_micros(32));
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut l = gig_link();
        let a1 = l.transmit(SimTime::ZERO, 1500).unwrap();
        let a2 = l.transmit(SimTime::ZERO, 1500).unwrap();
        assert_eq!(a2.since(a1), Dur::from_micros(12), "second waits for first");
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = gig_link();
        l.transmit(SimTime::ZERO, 1500).unwrap();
        assert!(l.backlog_bytes(SimTime::ZERO) > 0);
        assert_eq!(l.backlog_bytes(SimTime::ZERO + Dur::from_micros(12)), 0);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut l = gig_link(); // 10_000 B capacity
        for _ in 0..6 {
            l.transmit(SimTime::ZERO, 1500).unwrap(); // 9000 B backlog
        }
        assert_eq!(l.transmit(SimTime::ZERO, 1500), Err(LinkDrop::QueueFull));
        assert_eq!(l.stats.drops_queue, 1);
        // After the backlog drains, transmission works again.
        let later = SimTime::ZERO + Dur::from_millis(1);
        assert!(l.transmit(later, 1500).is_ok());
    }

    #[test]
    fn down_link_drops_everything() {
        let mut l = gig_link();
        l.up = false;
        assert_eq!(l.transmit(SimTime::ZERO, 100), Err(LinkDrop::LinkDown));
        assert_eq!(l.stats.drops_down, 1);
        l.up = true;
        assert!(l.transmit(SimTime::ZERO, 100).is_ok());
    }
}
