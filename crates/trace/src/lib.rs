//! Flight recorder: a deterministic trace-capture subsystem for the
//! simulated cluster.
//!
//! The tracer is a shared handle (`Tracer`) installed into the scheduler
//! context at runtime startup. Instrumentation hooks throughout `netsim`,
//! `transport`, and `core` emit structured [`Event`]s into a preallocated
//! overwrite-oldest ring buffer ([`ring::Ring`]).
//!
//! Two sinks drain a finished capture:
//! - [`TraceDump::write_pcapng`] — a dissectable capture of the simulated
//!   wire (raw IPv4 frames carrying real SCTP chunks / TCP segments, one
//!   interface block per link),
//! - [`TraceDump::write_jsonl`] — one JSON object per event, consumed by
//!   the analyzer binary (which rebuilds cwnd curves from it,
//!   [`analyze::cwnd_curves`]).
//!
//! **Zero-cost-when-off, side-effect-free-when-on.** Hooks are guarded by a
//! cheap `Option` check; when tracing they only *read* simulation state and
//! never touch the RNG, never schedule events, and never borrow anything
//! the simulation also borrows. Figure outputs are therefore bit-identical
//! with tracing on or off — enforced by a proptest the same way SIM_CHECK
//! enforces discipline equivalence.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod json;
pub mod jsonl;
pub mod pcapng;
pub mod ring;

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use ring::Ring;

/// Ring capacity (records) of the run recorders `mpirun` installs.
pub const DEFAULT_CAP: usize = 1 << 20;
/// Per-frame snap length (bytes) of those recorders. Headers plus the
/// first chunk are what the dissector and the analyzer need;
/// `Tracer::new(cap, 0)` captures full payloads.
pub const DEFAULT_SNAP: usize = 192;

/// Protocol discriminant kept to one byte so events stay small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto8 {
    Tcp,
    Sctp,
}

impl Proto8 {
    pub fn as_str(self) -> &'static str {
        match self {
            Proto8::Tcp => "tcp",
            Proto8::Sctp => "sctp",
        }
    }
}

/// Why a packet (or train member) never reached the far side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Random wire loss (Bernoulli).
    Loss,
    /// Tail-dropped at a full link queue.
    QueueFull,
    /// Interface administratively down.
    LinkDown,
}

impl DropKind {
    pub fn as_str(self) -> &'static str {
        match self {
            DropKind::Loss => "loss",
            DropKind::QueueFull => "queue",
            DropKind::LinkDown => "down",
        }
    }
}

/// Coarse packet classification for the analyzer; chunk-level detail lives
/// in the serialized frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktKind {
    /// Carries payload (SCTP DATA chunks / TCP payload bytes).
    Data,
    /// Pure SACK.
    Sack,
    /// Pure window/ACK update (TCP).
    Ack,
    /// Handshake, heartbeat, shutdown, probes.
    Ctl,
}

impl PktKind {
    pub fn as_str(self) -> &'static str {
        match self {
            PktKind::Data => "data",
            PktKind::Sack => "sack",
            PktKind::Ack => "ack",
            PktKind::Ctl => "ctl",
        }
    }
}

/// The network's verdict on an offered packet, captured at send time (the
/// simulation decides synchronously, so send and fate are one event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktVerdict {
    /// Will arrive at the destination at `at_ns` (virtual clock).
    Deliver { at_ns: u64 },
    Drop(DropKind),
}

#[derive(Debug, Clone)]
pub struct PktEv {
    pub src_host: u16,
    pub src_if: u8,
    pub dst_host: u16,
    pub dst_if: u8,
    pub proto: Proto8,
    pub kind: PktKind,
    /// Wire bytes including the IP header.
    pub wire_len: u32,
    pub verdict: PktVerdict,
    /// First TSN (SCTP) or first sequence byte (TCP) of the payload; 0 for
    /// payload-free packets.
    pub tsn: u64,
    /// Payload extent: DATA-chunk count (SCTP) or payload bytes (TCP).
    pub ntsn: u32,
    /// Stream id of the first DATA chunk, -1 when not applicable.
    pub stream: i32,
    /// Serialized on-wire frame (raw IPv4), snapped to the tracer's
    /// snaplen. Empty when frame capture was skipped.
    pub frame: Vec<u8>,
    /// Full length of the serialized frame before snapping. May differ
    /// from `wire_len` by a few bytes of real-header padding (the
    /// simulation models unpadded TCP option sizes).
    pub frame_orig_len: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct CwndEv {
    pub proto: Proto8,
    pub host: u16,
    pub peer: u16,
    pub path: u8,
    pub cwnd: u64,
    pub ssthresh: u64,
    pub flight: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct RtoArmEv {
    pub proto: Proto8,
    pub host: u16,
    pub peer: u16,
    /// Destination path the armed timer guards (0 for TCP).
    pub path: u8,
    pub rto_ns: u64,
    /// -1 until the estimator has a first sample.
    pub srtt_ns: i64,
    pub rttvar_ns: i64,
}

#[derive(Debug, Clone, Copy)]
pub struct RtoFireEv {
    pub proto: Proto8,
    pub host: u16,
    pub peer: u16,
    /// Destination path penalized by the expiry (0 for TCP).
    pub path: u8,
    /// Exponential-backoff shift in effect when the timer fired.
    pub backoff: u32,
    /// Bytes (TCP) or chunks (SCTP) marked for retransmission.
    pub marked: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct FastRtxEv {
    pub proto: Proto8,
    pub host: u16,
    pub peer: u16,
    /// Destination path entering fast recovery (0 for TCP).
    pub path: u8,
    /// First TSN / sequence byte entering fast retransmit.
    pub tsn: u64,
    pub count: u32,
}

/// Which side of the association a head-of-line block was observed on.
///
/// Receiver-side blocks (`Rcv`) are the classic per-stream reassembly
/// stall: a gap in the TSN space holds completed messages back. Sender-side
/// blocks (`Snd`) only exist without RFC 8260 interleaving: a large message
/// monopolizes the single outbound FIFO and queues behind it grow on other
/// streams. The I-DATA experiments split HOL accounting on this axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HolSide {
    /// Sender-side: another stream's message occupies the outbound queue.
    Snd,
    /// Receiver-side: reassembly/ordering stall at the receive buffer.
    Rcv,
}

impl HolSide {
    /// Stable short name used by the JSONL sink and the analyzer.
    pub fn as_str(self) -> &'static str {
        match self {
            HolSide::Snd => "snd",
            HolSide::Rcv => "rcv",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct HolEv {
    pub host: u16,
    pub peer: u16,
    pub stream: u16,
    /// Sender- or receiver-side block (see [`HolSide`]).
    pub side: HolSide,
}

#[derive(Debug, Clone, Copy)]
pub struct HolEndEv {
    pub host: u16,
    pub peer: u16,
    pub stream: u16,
    /// Sender- or receiver-side block (see [`HolSide`]).
    pub side: HolSide,
    pub dur_ns: u64,
    /// Messages released to the application when the block cleared.
    pub released: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct MpiPostEv {
    pub rank: u16,
    /// -1 = ANY_SOURCE.
    pub src: i32,
    /// -1 = ANY_TAG.
    pub tag: i32,
    pub cxt: u32,
    /// True when an already-arrived unexpected message satisfied the post.
    pub matched: bool,
}

#[derive(Debug, Clone)]
pub struct MpiMatchEv {
    pub rank: u16,
    pub src: u16,
    pub tag: i32,
    pub cxt: u32,
    pub len: u64,
    /// Envelope kind as named by the RPI ("eager", "rndv", ...).
    pub kind: &'static str,
    /// True when the envelope matched a posted receive; false when it was
    /// parked on the unexpected queue.
    pub posted: bool,
}

/// What a fault-plane transition did (see `netsim::fault`). Each variant is
/// one edge of a scripted or stochastic fault model; edges are emitted at
/// the first packet offer that observes the new state, so a window with no
/// traffic inside it produces no events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Gilbert–Elliott chain entered the bad (bursty-loss) state.
    GeBad,
    /// Gilbert–Elliott chain returned to the good state.
    GeGood,
    /// A scheduled link flap window opened (path drops everything).
    FlapDown,
    /// A scheduled link flap window closed (path carries traffic again).
    FlapUp,
    /// A bandwidth-degradation window opened.
    DegradeOn,
    /// A bandwidth-degradation window closed.
    DegradeOff,
}

impl FaultKind {
    /// Stable short name used by the JSONL sink and the analyzer.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::GeBad => "ge_bad",
            FaultKind::GeGood => "ge_good",
            FaultKind::FlapDown => "flap_down",
            FaultKind::FlapUp => "flap_up",
            FaultKind::DegradeOn => "degrade_on",
            FaultKind::DegradeOff => "degrade_off",
        }
    }
}

/// A fault-plane state transition (emitted by `netsim` when a fault rule
/// changes state). `rule` is the rule's index within its kind's list in the
/// `FaultPlan`; `host`/`iface` are -1 when the rule's scope covers all
/// hosts/interfaces.
#[derive(Debug, Clone, Copy)]
pub struct FaultEv {
    pub kind: FaultKind,
    pub rule: u32,
    pub host: i32,
    pub iface: i32,
}

#[derive(Debug, Clone, Copy)]
pub struct LinkDropEv {
    pub src_host: u16,
    pub src_if: u8,
    pub dst_host: u16,
    pub wire_bytes: u32,
    pub reason: DropKind,
    /// Backlog (ns of serialization time queued) of the link that refused
    /// the packet — the receiver's downlink for a downlink tail-drop, else
    /// the sender's uplink — distinguishes "unlucky" from "congested".
    pub backlog_ns: u64,
}

#[derive(Debug, Clone)]
pub enum Event {
    Pkt(PktEv),
    LinkDrop(LinkDropEv),
    Cwnd(CwndEv),
    RtoArm(RtoArmEv),
    RtoFire(RtoFireEv),
    FastRtx(FastRtxEv),
    HolBegin(HolEv),
    HolEnd(HolEndEv),
    MpiPost(MpiPostEv),
    MpiMatch(MpiMatchEv),
    Fault(FaultEv),
}

/// One recorded event with its virtual-clock timestamp and a capture-order
/// sequence number (ties on `t_ns` are common; `seq` keeps order total).
#[derive(Debug, Clone)]
pub struct Rec {
    pub t_ns: u64,
    pub seq: u64,
    pub ev: Event,
}

/// Clock state of one open HOL episode: blocked time accumulated so far
/// plus the moment the clock last (re)started — `None` while the episode is
/// frozen by a sender stall window (see [`Tracer::hol_snd_stall`]).
#[derive(Debug, Clone, Copy)]
struct HolClock {
    acc_ns: u64,
    running_since: Option<u64>,
}

impl HolClock {
    fn settle(&self, t_ns: u64) -> u64 {
        self.acc_ns + self.running_since.map_or(0, |s| t_ns.saturating_sub(s))
    }
}

#[derive(Debug)]
struct Inner {
    ring: Ring,
    seq: u64,
    /// (observing host, peer host, stream, side) → episode clock.
    hol_open: HashMap<(u16, u16, u16, HolSide), HolClock>,
    /// (host, peer) pairs whose sender is currently transmission-stalled
    /// (cwnd/rwnd/RTO): their open `Snd` episodes have frozen clocks.
    hol_snd_stalled: HashSet<(u16, u16)>,
    snaplen: usize,
    hosts: u16,
    ifaces: u8,
}

/// Shared flight-recorder handle. Clones are cheap (`Rc`): a simulation and
/// every hook in it run on one thread, one at a time, and no hook holds the
/// recorder across a call into another.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Tracer {
    pub fn new(cap: usize, snaplen: usize) -> Tracer {
        Tracer(Rc::new(RefCell::new(Inner {
            ring: Ring::new(cap),
            seq: 0,
            hol_open: HashMap::new(),
            hol_snd_stalled: HashSet::new(),
            snaplen: if snaplen == 0 { usize::MAX } else { snaplen },
            hosts: 0,
            ifaces: 0,
        })))
    }

    /// `TRACE=1` turns the recorder on.
    pub fn env_enabled() -> bool {
        std::env::var("TRACE").map(|v| v == "1").unwrap_or(false)
    }

    /// A recorder of [`DEFAULT_CAP`] records and [`DEFAULT_SNAP`]-byte
    /// frames under `TRACE=1`, else `None`.
    pub fn from_env() -> Option<Tracer> {
        Self::env_enabled().then(|| Tracer::new(DEFAULT_CAP, DEFAULT_SNAP))
    }

    /// Record the simulated topology so the pcapng sink can emit one
    /// interface block per link up front.
    pub fn set_topology(&self, hosts: u16, ifaces: u8) {
        let mut g = self.0.borrow_mut();
        g.hosts = hosts;
        g.ifaces = ifaces;
    }

    /// Frame snap length for hooks that serialize wire bytes.
    pub fn snaplen(&self) -> usize {
        self.0.borrow().snaplen
    }

    pub fn emit(&self, t_ns: u64, ev: Event) {
        let mut g = self.0.borrow_mut();
        g.seq += 1;
        let seq = g.seq;
        g.ring.push(Rec { t_ns, seq, ev });
    }

    /// Track per-stream head-of-line state on one side of an association.
    /// The hook reports the stream's current blocked/clear status after
    /// each delivery (receiver side) or queue transition (sender side); the
    /// tracer turns edges into HolBegin/HolEnd events and accounts the
    /// blocked duration per (host, peer, stream, side).
    pub fn hol_update(
        &self,
        t_ns: u64,
        host: u16,
        peer: u16,
        stream: u16,
        side: HolSide,
        blocked: bool,
        released: u32,
    ) {
        let key = (host, peer, stream, side);
        let mut g = self.0.borrow_mut();
        match (blocked, g.hol_open.contains_key(&key)) {
            (true, false) => {
                // A sender-side episode born inside a stall window starts
                // with its clock frozen: until the window can actually move
                // bytes, no scheduling decision is responsible for the wait.
                let frozen = side == HolSide::Snd && g.hol_snd_stalled.contains(&(host, peer));
                g.hol_open.insert(
                    key,
                    HolClock { acc_ns: 0, running_since: (!frozen).then_some(t_ns) },
                );
                g.seq += 1;
                let seq = g.seq;
                g.ring.push(Rec { t_ns, seq, ev: Event::HolBegin(HolEv { host, peer, stream, side }) });
            }
            (false, true) => {
                let clock = g.hol_open.remove(&key).unwrap();
                g.seq += 1;
                let seq = g.seq;
                let dur_ns = clock.settle(t_ns);
                g.ring.push(Rec {
                    t_ns,
                    seq,
                    ev: Event::HolEnd(HolEndEv { host, peer, stream, side, dur_ns, released }),
                });
            }
            _ => {}
        }
    }

    /// Gate the sender-side HOL clocks of one association on transmission
    /// progress. `stalled = true` means the sender's queues are nonempty
    /// but nothing could be put on the wire (cwnd full, zero peer rwnd, an
    /// RTO recovery in flight): every open `Snd` episode toward `peer`
    /// freezes, because no stream scheduler can route around a closed
    /// window — charging that time to head-of-line blocking would let one
    /// 1 s RTO silence, multiplied by every stream whose head happened to
    /// be waiting, swamp the scheduling signal the metric exists to
    /// expose. `stalled = false` (a fragment reached the wire) restarts
    /// the frozen clocks. Blocked *duration* is affected; the
    /// `HolBegin`/`HolEnd` edge timestamps are not.
    pub fn hol_snd_stall(&self, t_ns: u64, host: u16, peer: u16, stalled: bool) {
        let mut g = self.0.borrow_mut();
        if stalled {
            if !g.hol_snd_stalled.insert((host, peer)) {
                return;
            }
        } else if !g.hol_snd_stalled.remove(&(host, peer)) {
            return;
        }
        for ((h, p, _, side), clock) in g.hol_open.iter_mut() {
            if *h != host || *p != peer || *side != HolSide::Snd {
                continue;
            }
            if stalled {
                if let Some(s) = clock.running_since.take() {
                    clock.acc_ns += t_ns.saturating_sub(s);
                }
            } else if clock.running_since.is_none() {
                clock.running_since = Some(t_ns);
            }
        }
    }

    /// Snapshot the capture. Still-open HOL blocks are closed at the given
    /// end-of-run timestamp so their time is not silently lost.
    pub fn dump(&self, end_ns: u64) -> TraceDump {
        let mut g = self.0.borrow_mut();
        let mut open: Vec<((u16, u16, u16, HolSide), HolClock)> = g.hol_open.drain().collect();
        open.sort_unstable_by_key(|&(key, _)| key);
        for ((host, peer, stream, side), clock) in open {
            g.seq += 1;
            let seq = g.seq;
            let dur_ns = clock.settle(end_ns);
            g.ring.push(Rec {
                t_ns: end_ns,
                seq,
                ev: Event::HolEnd(HolEndEv { host, peer, stream, side, dur_ns, released: 0 }),
            });
        }
        TraceDump {
            hosts: g.hosts,
            ifaces: g.ifaces,
            dropped: g.ring.dropped(),
            recs: g.ring.to_vec(),
        }
    }
}

/// A finished capture, ready for the sinks.
#[derive(Debug, Clone)]
pub struct TraceDump {
    pub hosts: u16,
    pub ifaces: u8,
    /// Records overwritten in the ring (capture truncated from the front).
    pub dropped: u64,
    pub recs: Vec<Rec>,
}

impl TraceDump {
    /// pcapng sink: SHB, one IDB per link (host × iface, in id order
    /// `host * ifaces + iface`), then an EPB per captured frame on its
    /// sending interface.
    pub fn write_pcapng(&self) -> Vec<u8> {
        let mut out = pcapng::section_header_block();
        let ifaces = self.ifaces.max(1);
        for h in 0..self.hosts {
            for i in 0..ifaces {
                out.extend_from_slice(&pcapng::interface_description_block(&format!("h{h}i{i}")));
            }
        }
        for rec in &self.recs {
            if let Event::Pkt(p) = &rec.ev {
                if p.frame.is_empty() {
                    continue;
                }
                let iface = p.src_host as u32 * ifaces as u32 + p.src_if as u32;
                out.extend_from_slice(&pcapng::enhanced_packet_block(iface, rec.t_ns, p.frame_orig_len, &p.frame));
            }
        }
        out
    }

    /// JSONL sink: one event object per line, preceded by a header line
    /// carrying topology and truncation metadata.
    pub fn write_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.recs.len() * 96 + 128);
        out.push_str(&format!(
            "{{\"ev\":\"header\",\"hosts\":{},\"ifaces\":{},\"ring_dropped\":{},\"events\":{}}}\n",
            self.hosts,
            self.ifaces,
            self.dropped,
            self.recs.len()
        ));
        for rec in &self.recs {
            jsonl::render_record(&mut out, rec);
            out.push('\n');
        }
        out
    }

    /// Aggregate head-of-line accounting by side, computed from the
    /// capture's `HolEnd` records (each carries its own duration, and
    /// [`Tracer::dump`] closes still-open blocks, so no time is lost).
    /// The bench binaries assert on this in-process — e.g. "I-DATA plus a
    /// non-FIFO scheduler strictly reduces sender-side blocked time".
    pub fn hol_totals(&self) -> HolTotals {
        let mut t = HolTotals::default();
        for rec in &self.recs {
            if let Event::HolEnd(h) = &rec.ev {
                match h.side {
                    HolSide::Snd => {
                        t.snd_blocks += 1;
                        t.snd_ns += h.dur_ns;
                    }
                    HolSide::Rcv => {
                        t.rcv_blocks += 1;
                        t.rcv_ns += h.dur_ns;
                    }
                }
            }
        }
        t
    }
}

/// Per-side HOL roll-up of one capture (see [`TraceDump::hol_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HolTotals {
    /// Sender-side blocks (outbound queue monopolized by another stream).
    pub snd_blocks: u64,
    /// Total sender-side blocked time, ns.
    pub snd_ns: u64,
    /// Receiver-side blocks (reassembly stalled behind a missing TSN).
    pub rcv_blocks: u64,
    /// Total receiver-side blocked time, ns.
    pub rcv_ns: u64,
}

thread_local! {
    static RUN_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Attach a human-readable label (e.g. the bench cell label) to traces
/// produced on this thread; the launcher uses it to name sink files.
pub fn set_run_label(label: Option<&str>) {
    RUN_LABEL.with(|l| *l.borrow_mut() = label.map(|s| s.to_string()));
}

pub fn run_label() -> Option<String> {
    RUN_LABEL.with(|l| l.borrow().clone())
}

/// File-system-safe form of a run label.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hol_edges_pair_up() {
        let tr = Tracer::new(1024, 64);
        tr.hol_update(100, 1, 0, 3, HolSide::Rcv, true, 0);
        tr.hol_update(150, 1, 0, 3, HolSide::Rcv, true, 0); // still blocked: no new edge
        tr.hol_update(700, 1, 0, 3, HolSide::Rcv, false, 2);
        tr.hol_update(800, 1, 0, 3, HolSide::Rcv, false, 1); // already clear: no edge
        let d = tr.dump(1000);
        assert_eq!(d.recs.len(), 2);
        match (&d.recs[0].ev, &d.recs[1].ev) {
            (Event::HolBegin(b), Event::HolEnd(e)) => {
                assert_eq!((b.host, b.peer, b.stream), (1, 0, 3));
                assert_eq!(b.side, HolSide::Rcv);
                assert_eq!(e.dur_ns, 600);
                assert_eq!(e.released, 2);
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn hol_sides_are_independent() {
        let tr = Tracer::new(64, 64);
        // Same (host, peer, stream) blocked on both sides: two independent
        // begin/end pairs, closed in either order.
        tr.hol_update(100, 1, 0, 3, HolSide::Snd, true, 0);
        tr.hol_update(120, 1, 0, 3, HolSide::Rcv, true, 0);
        tr.hol_update(200, 1, 0, 3, HolSide::Snd, false, 0);
        tr.hol_update(500, 1, 0, 3, HolSide::Rcv, false, 1);
        let d = tr.dump(1000);
        let ends: Vec<(HolSide, u64)> = d
            .recs
            .iter()
            .filter_map(|r| match &r.ev {
                Event::HolEnd(e) => Some((e.side, e.dur_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(ends, vec![(HolSide::Snd, 100), (HolSide::Rcv, 380)]);
    }

    #[test]
    fn hol_totals_split_by_side() {
        let tr = Tracer::new(64, 64);
        tr.hol_update(100, 1, 0, 3, HolSide::Snd, true, 0);
        tr.hol_update(120, 1, 0, 4, HolSide::Rcv, true, 0);
        tr.hol_update(200, 1, 0, 3, HolSide::Snd, false, 0);
        tr.hol_update(500, 1, 0, 4, HolSide::Rcv, false, 1);
        // Still open at dump time: closed at 1000, so 1000-600 rcv ns more.
        tr.hol_update(600, 2, 0, 0, HolSide::Rcv, true, 0);
        let t = tr.dump(1000).hol_totals();
        assert_eq!(t, HolTotals { snd_blocks: 1, snd_ns: 100, rcv_blocks: 2, rcv_ns: 380 + 400 });
    }

    #[test]
    fn dump_closes_open_hol_blocks() {
        let tr = Tracer::new(16, 64);
        tr.hol_update(100, 2, 5, 0, HolSide::Rcv, true, 0);
        let d = tr.dump(400);
        assert_eq!(d.recs.len(), 2);
        match &d.recs[1].ev {
            Event::HolEnd(e) => assert_eq!(e.dur_ns, 300),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn run_label_is_thread_local() {
        set_run_label(Some("fig10 task=30720 loss=0.02"));
        assert_eq!(run_label().as_deref(), Some("fig10 task=30720 loss=0.02"));
        assert_eq!(sanitize_label("fig10 task=30720 loss=0.02"), "fig10_task_30720_loss_0.02");
        set_run_label(None);
        assert!(run_label().is_none());
    }
}
