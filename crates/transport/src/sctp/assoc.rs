//! SCTP association, endpoint, and per-path state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use netsim::IfAddr;
use simcore::fxhash::FxHashMap;
use simcore::{Deadline, Dur, ProcId, SimTime};

use crate::rto::{RtoCfg, RtoEstimator};

use super::receive::RcvWindow;
use super::sched::{SchedKind, Scheduler};
use super::window::SentRing;
use super::wire::{DataChunk, IDataChunk, EXT_INTERLEAVE, EXT_PR_SCTP};

/// Handle to an SCTP endpoint (socket) on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpId {
    /// Host the endpoint lives on.
    pub host: u16,
    /// Endpoint slot within the host.
    pub idx: u32,
}

/// Handle to an association within an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AssocId {
    /// Host the association lives on.
    pub host: u16,
    /// Owning endpoint slot.
    pub ep: u32,
    /// Association slot within the endpoint.
    pub idx: u32,
}

impl AssocId {
    /// The endpoint this association belongs to.
    pub fn endpoint(self) -> EpId {
        EpId { host: self.host, idx: self.ep }
    }
}

/// SCTP configuration.
#[derive(Debug, Clone)]
pub struct SctpCfg {
    /// Send buffer: pending + outstanding user bytes per association.
    pub sndbuf: u64,
    /// Receive buffer per association (a_rwnd base).
    pub rcvbuf: u64,
    /// Outbound streams requested per association (the paper's pool of 10).
    pub out_streams: u16,
    /// RTO parameters.
    pub rto: RtoCfg,
    /// Consecutive timeouts before a path is marked inactive.
    pub path_max_retrans: u32,
    /// Heartbeat interval for idle/inactive paths (None = off).
    pub heartbeat_interval: Option<Dur>,
    /// Close idle associations after this long (None = off). §3.5.2.
    pub autoclose: Option<Dur>,
    /// How many interfaces to bind (1 = singlehomed, as in the paper's main
    /// experiments; 3 = the testbed's full multihoming).
    pub num_paths: u8,
    /// Charge CRC32c per-byte CPU cost (paper's setup §4 item 5 disables it).
    pub crc_enabled: bool,
    /// Max gap-ack blocks per SACK. SCTP's PMTU-bounded default is
    /// effectively unlimited; setting 3 mimics TCP's option-space limit
    /// (ablation A1, §4.1.1).
    pub max_gap_blocks: usize,
    /// Byte-counting cwnd growth (RFC 4960). `false` switches to TCP-style
    /// per-SACK growth (ablation A1).
    pub byte_counting_cc: bool,
    /// Max.Burst (RFC 4960 §6.1): packets transmitted per send opportunity;
    /// restores ACK clocking after idle or bulk submissions. The RFC's
    /// suggested 4 throttles mid-size messages hard; 12 keeps single-burst
    /// messages at wire speed while still damping retransmission storms.
    pub max_burst: u32,
    /// Concurrent Multipath Transfer (Iyengar et al., referenced in §2.1
    /// and §5 of the paper as upcoming work): stripe *new* data across all
    /// active paths instead of using only the primary. The scheduler picks
    /// the path with the most open cwnd; SACK accounting is made
    /// reordering-robust with Iyengar's three algorithms — CUC (per-path
    /// pseudo-cumack gates per-path cwnd growth), SFR (missing reports
    /// counted per destination path so cross-path reordering never trips
    /// the dup-ack threshold), and per-path fast recovery with RTX-SAME
    /// retransmission. `false` leaves the single-path engine bit-identical
    /// to the pre-CMT code.
    pub cmt: bool,
    /// Draw verification tags and heartbeat nonces in the u32 range the
    /// wire can carry, so a frame decoded off a real socket reproduces the
    /// tag the engine drew. The sim default keeps the full-width u64 draws
    /// — same RNG call sites, same stream, bit-identical results — because
    /// inside the simulator tags never cross a serialization boundary.
    /// Live backends must set this: a truncated tag would make every
    /// decoded packet fail vtag validation.
    pub wire_safe_ids: bool,
    /// Offer RFC 8260 user-message interleaving (I-DATA). When both ends
    /// offer it, the [`SchedKind`] policy picks which stream's queue
    /// supplies the next chunk, and receivers reassemble per (stream, MID).
    /// `false` leaves the engine bit-identical to the pre-I-DATA code.
    pub interleave: bool,
    /// Offer RFC 3758 timed reliability (PR-SCTP): expired messages are
    /// abandoned and a FORWARD-TSN walks the peer's cumulative ack past
    /// their TSNs.
    pub pr_sctp: bool,
    /// Default per-message lifetime applied by `sendmsg` when PR-SCTP is
    /// on (`None` = fully reliable unless `sendmsg_pr` sets a lifetime).
    pub pr_lifetime: Option<Dur>,
    /// Sender-side stream scheduler (only consulted when interleaving was
    /// negotiated; otherwise FCFS order is forced to keep each message's
    /// fragments TSN-contiguous for the peer's sequential reassembler).
    pub sched: SchedKind,
}

impl Default for SctpCfg {
    fn default() -> Self {
        SctpCfg {
            sndbuf: 220 * 1024,
            rcvbuf: 220 * 1024,
            out_streams: 10,
            rto: RtoCfg::kame_sctp(),
            path_max_retrans: 5,
            heartbeat_interval: Some(Dur::from_secs(30)),
            autoclose: None,
            num_paths: 1,
            crc_enabled: false,
            max_gap_blocks: usize::MAX,
            byte_counting_cc: true,
            max_burst: 12,
            cmt: false,
            wire_safe_ids: false,
            interleave: false,
            pr_sctp: false,
            pr_lifetime: None,
            sched: SchedKind::Fcfs,
        }
    }
}

/// Path MTU (IP packet size ceiling): the paper's 1500-byte Ethernet.
pub(crate) const PMTU: u32 = 1500;

/// Chunk budget per packet: PMTU − IP(20) − common header(12).
pub(crate) const PACKET_BUDGET: u32 = PMTU - 20 - 12;

/// User data bytes that fit in one DATA chunk: the budget − DATA header(16).
pub(crate) const MAX_CHUNK_DATA: u32 = PACKET_BUDGET - 16;

/// User data bytes that fit in one I-DATA chunk: the RFC 8260 header is 4
/// bytes longer than DATA's (MID u32 + FSN u32 replace SSN u16 + 2
/// reserved, plus the 32-bit PPID/FSN union).
pub(crate) const MAX_CHUNK_DATA_IDATA: u32 = PACKET_BUDGET - 20;

/// Delayed-SACK timeout (RFC 4960: 200 ms).
pub(crate) const SACK_DELAY: Dur = Dur::from_millis(200);

impl SctpCfg {
    /// Extension bits this host offers in INIT / INIT-ACK.
    pub(crate) fn ext_offer(&self) -> u8 {
        (if self.interleave { EXT_INTERLEAVE } else { 0 })
            | (if self.pr_sctp { EXT_PR_SCTP } else { 0 })
    }
}

/// Association lifecycle states (RFC 4960 §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    /// INIT sent, waiting for INIT-ACK.
    CookieWait,
    /// COOKIE-ECHO sent, waiting for COOKIE-ACK.
    CookieEchoed,
    /// Four-way handshake complete; data flows.
    Established,
    /// Local close requested; draining the send queue first.
    ShutdownPending,
    /// SHUTDOWN sent, waiting for SHUTDOWN-ACK.
    ShutdownSent,
    /// Peer's SHUTDOWN received; draining before SHUTDOWN-ACK.
    ShutdownReceived,
    /// SHUTDOWN-ACK sent, waiting for SHUTDOWN-COMPLETE.
    ShutdownAckSent,
    /// Fully closed (orderly).
    Closed,
    /// Failed (ABORT or too many retransmissions).
    Aborted,
}

/// A user message fragment queued for (re)transmission.
#[derive(Debug)]
pub(crate) struct PendingChunk {
    pub stream: u16,
    /// Stream sequence number; doubles as the RFC 8260 MID when the
    /// fragment goes out as I-DATA (both count messages per stream).
    pub ssn: u32,
    pub begin: bool,
    pub end: bool,
    pub ppid: u32,
    pub data: Bytes,
    /// RFC 8260 fragment sequence number within the message (0-based).
    pub fsn: u32,
    /// Global enqueue sequence — FCFS scheduling key; fragments of one
    /// message hold consecutive values.
    pub seq: u64,
    /// PR-SCTP: abandon the whole message if still unsent/unacked past
    /// this instant (`None` = fully reliable).
    pub expires: Option<SimTime>,
}

/// An outstanding (sent, not cumulatively acked) chunk.
#[derive(Debug)]
pub(crate) struct SentChunk {
    pub stream: u16,
    pub ssn: u32,
    pub begin: bool,
    pub end: bool,
    pub ppid: u32,
    pub data: Bytes,
    pub path: u8,
    pub sent_at: SimTime,
    pub txcount: u32,
    /// Missing reports accumulated (fast-retransmit strikes).
    pub missing: u32,
    /// Gap-acked by the peer (will not be retransmitted).
    pub acked: bool,
    /// Queued for retransmission.
    pub marked_rtx: bool,
    /// RFC 8260 fragment sequence number (I-DATA retransmissions rebuild
    /// the chunk from here).
    pub fsn: u32,
    /// PR-SCTP lifetime deadline, checked at retransmission time.
    pub expires: Option<SimTime>,
    /// PR-SCTP: message abandoned; treated as acked for congestion and
    /// retransmission accounting, skipped over by FORWARD-TSN.
    pub abandoned: bool,
}

/// Most destination paths any association tracks in fixed-size per-path
/// stats arrays. The testbed topology is 3 interfaces; 4 leaves headroom.
pub const MAX_PATHS: usize = 4;

/// Per-destination-path state: SCTP keeps congestion control, RTO, and
/// error counts per path (§4.1.1 of the paper).
#[derive(Debug)]
pub struct PathState {
    /// Interface/network index this path runs over.
    pub iface: u8,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes.
    pub ssthresh: u64,
    /// Bytes acked toward the next congestion-avoidance cwnd increment.
    pub partial_bytes_acked: u64,
    /// Bytes outstanding on this path.
    pub flight: u64,
    /// Per-path RTO estimator.
    pub rto: RtoEstimator,
    /// Consecutive unanswered retransmissions/heartbeats.
    pub error_count: u32,
    /// False once `error_count` exceeds `path_max_retrans` (failover).
    pub active: bool,
    /// Nonce of the outstanding heartbeat, if any.
    pub hb_nonce: Option<u64>,
    /// Heartbeat timer of this path.
    pub hb_timer: Deadline,
    /// Last instant this path carried data (heartbeat scheduling).
    pub last_used: SimTime,
    /// CMT (Iyengar's CUC): earliest TSN still outstanding on this path —
    /// the per-path pseudo-cumack. `u64::MAX` = nothing outstanding here.
    /// Cwnd growth on this path is gated on SACKs that advance it, because
    /// with striping the association-wide cumulative ack stalls behind the
    /// slowest path even when *this* path is delivering perfectly.
    pub pseudo_cumack: u64,
    /// Monotone scan cursor for recomputing `pseudo_cumack`: every TSN
    /// below it is acked or assigned to another path, so the per-SACK
    /// rescan skips the settled prefix. Lowered only when a
    /// retransmission re-homes an old TSN onto this path.
    pub cumack_floor: u64,
    /// T3-rtx timer and fast-recovery episode of this destination's stripe —
    /// the live scope under CMT, where retransmission timers are per
    /// destination: a timeout on one path must not stall or re-mark the
    /// others, and concurrent losses recover in parallel.
    pub(crate) rec: Recovery,
}

/// Which [`Recovery`] slot guards a chunk: the association's (`None`) or
/// destination `p`'s (`Some(p)`). Association-wide versus per-destination
/// loss recovery is this *value*, read by one code path — see
/// `engine::scope_of`.
pub(crate) type Scope = Option<u8>;

/// Loss-recovery state of one scope: its T3-rtx timer and its fast-recovery
/// episode. An association holds one for its whole window and every
/// [`PathState`] one for its own stripe; the mechanism is the same.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// T3-rtx timer; every SACK that advances the scope's ack point restarts
    /// it.
    pub t3_timer: Deadline,
    /// The armed timer is a *rescue probe* (~2·SRTT), not the full RTO —
    /// per-destination scopes only. The probe re-queues the path's aged
    /// chunks without cwnd collapse or backoff — ping-pong tail losses
    /// otherwise sit a whole RTO because SFR (correctly) refuses cross-path
    /// strike evidence and no later same-path data exists to strike with.
    /// After one probe the timer falls back to the real RTO.
    pub t3_rescue: bool,
    /// In fast recovery until the scope's ack point (cumulative ack, or the
    /// destination's pseudo-cumack) passes this TSN; `None` = not
    /// recovering.
    pub fast_recovery: Option<u64>,
}

/// Initial cwnd in PMTUs (RFC 4960 §7.2.1 ≈ min(4·MTU, max(2·MTU, 4380))).
const INIT_CWND_MTU: u64 = 3;

impl PathState {
    pub(crate) fn new(iface: u8, cfg: &SctpCfg) -> Self {
        PathState {
            iface,
            cwnd: INIT_CWND_MTU * PMTU as u64,
            ssthresh: u64::MAX / 2,
            partial_bytes_acked: 0,
            flight: 0,
            rto: RtoEstimator::new(cfg.rto),
            error_count: 0,
            active: true,
            hb_nonce: None,
            hb_timer: Deadline::default(),
            last_used: SimTime::ZERO,
            pseudo_cumack: u64::MAX,
            cumack_floor: 0,
            rec: Recovery::default(),
        }
    }
}

/// Inbound stream state: SSN ordering plus fragment reassembly.
#[derive(Debug, Default)]
pub(crate) struct InStream {
    pub next_ssn: u32,
    /// Fragments awaiting reassembly, sorted by TSN (fragments of one
    /// message occupy consecutive TSNs): in-order arrivals append, a
    /// finished run leaves in one drain. DATA path only.
    pub frags: VecDeque<DataChunk>,
    /// RFC 8260 reassembly: fragments keyed (MID, FSN) — fragments of
    /// different messages interleave freely in TSN space, so each message
    /// reassembles independently. I-DATA path only.
    pub i_frags: BTreeMap<u64, BTreeMap<u32, IDataChunk>>,
    /// Complete messages waiting for their SSN (or MID) turn.
    pub ready: BTreeMap<u32, RecvMsg>,
}

/// A message delivered to the application by `sctp_recvmsg`.
#[derive(Debug)]
pub struct RecvMsg {
    /// Association the message arrived on.
    pub assoc: AssocId,
    /// Stream id.
    pub stream: u16,
    /// Stream sequence number.
    pub ssn: u32,
    /// Payload protocol identifier (opaque to SCTP).
    pub ppid: u32,
    /// Message payload, one `Bytes` per fragment.
    pub data: Vec<Bytes>,
    /// Total payload length.
    pub len: u32,
}

/// Association counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssocStats {
    /// Packets sent.
    pub packets_out: u64,
    /// Packets received.
    pub packets_in: u64,
    /// DATA chunks sent (including retransmissions).
    pub data_chunks_out: u64,
    /// DATA chunks received.
    pub data_chunks_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// DATA chunks retransmitted (any cause).
    pub retransmits: u64,
    /// DATA chunks retransmitted via fast retransmit.
    pub fast_retransmits: u64,
    /// T3-rtx expirations.
    pub timeouts: u64,
    /// Duplicate TSNs received.
    pub dup_tsns_in: u64,
    /// SACKs sent.
    pub sacks_out: u64,
    /// SACKs received.
    pub sacks_in: u64,
    /// Messages handed to the application.
    pub msgs_delivered: u64,
    /// Primary-path switches after path failure.
    pub failovers: u64,
    /// Instant of the first failover, ns (0 = never) — the failover
    /// experiments' detection-latency measurement.
    pub first_failover_ns: u64,
    /// Packets sent per destination path (first `MAX_PATHS` paths) — the
    /// CMT stripe's balance, measurable from artifacts.
    pub per_path_pkts: [u64; MAX_PATHS],
    /// Chunks acked while still queued for retransmission: the mark was
    /// unnecessary (cross-path reordering masquerading as loss). CMT's SFR
    /// accounting exists to drive this to ~0.
    pub spurious_frtx: u64,
    /// Chunks re-queued by a CMT rescue probe (~2·SRTT tail-loss probe)
    /// instead of waiting out the full RTO.
    pub rescue_rtx: u64,
    /// PR-SCTP: user messages abandoned past their lifetime.
    pub msgs_abandoned: u64,
    /// FORWARD-TSN chunks sent.
    pub fwd_tsn_out: u64,
    /// FORWARD-TSN chunks received.
    pub fwd_tsn_in: u64,
}

impl std::ops::AddAssign for AssocStats {
    /// Counters add; `per_path_pkts` adds path by path; `first_failover_ns`
    /// keeps the earliest nonzero instant of the two.
    fn add_assign(&mut self, other: Self) {
        // Destructured so that a new counter does not compile until it is
        // summed here.
        let AssocStats {
            packets_out,
            packets_in,
            data_chunks_out,
            data_chunks_in,
            bytes_out,
            bytes_in,
            retransmits,
            fast_retransmits,
            timeouts,
            dup_tsns_in,
            sacks_out,
            sacks_in,
            msgs_delivered,
            failovers,
            first_failover_ns,
            per_path_pkts,
            spurious_frtx,
            rescue_rtx,
            msgs_abandoned,
            fwd_tsn_out,
            fwd_tsn_in,
        } = other;
        self.packets_out += packets_out;
        self.packets_in += packets_in;
        self.data_chunks_out += data_chunks_out;
        self.data_chunks_in += data_chunks_in;
        self.bytes_out += bytes_out;
        self.bytes_in += bytes_in;
        self.retransmits += retransmits;
        self.fast_retransmits += fast_retransmits;
        self.timeouts += timeouts;
        self.dup_tsns_in += dup_tsns_in;
        self.sacks_out += sacks_out;
        self.sacks_in += sacks_in;
        self.msgs_delivered += msgs_delivered;
        self.failovers += failovers;
        if first_failover_ns != 0 && (self.first_failover_ns == 0 || first_failover_ns < self.first_failover_ns) {
            self.first_failover_ns = first_failover_ns;
        }
        for (t, n) in self.per_path_pkts.iter_mut().zip(per_path_pkts) {
            *t += n;
        }
        self.spurious_frtx += spurious_frtx;
        self.rescue_rtx += rescue_rtx;
        self.msgs_abandoned += msgs_abandoned;
        self.fwd_tsn_out += fwd_tsn_out;
        self.fwd_tsn_in += fwd_tsn_in;
    }
}

pub(crate) struct Assoc {
    pub state: AssocState,
    pub local_port: u16,
    pub peer_port: u16,
    pub peer_host: u16,
    pub local_tag: u64,
    pub peer_tag: u64,
    pub paths: Vec<PathState>,
    pub primary: u8,

    // ---- transmit ----
    pub next_tsn: u64,
    pub out_ssn: Vec<u32>,
    /// Unsent fragments, one queue per outbound stream (indexed by stream
    /// id), each in enqueue order.
    pub out_q: Vec<VecDeque<PendingChunk>>,
    /// Fragments queued across `out_q`.
    pub queued: usize,
    /// Payload bytes queued across `out_q`.
    pub pending_bytes: u64,
    /// Free send space the endpoint's blocked writer needs on this
    /// association: a SACK here wakes the writers only once
    /// [`snd_space`](Self::snd_space) reaches it. 0 (the default) = any
    /// freed space; `u64::MAX` = nothing to send here.
    pub writer_need: u64,
    // ---- stream machinery (I-DATA / schedulers / PR-SCTP) ----
    /// Negotiated extension bits: intersection of both ends' offers
    /// (EXT_INTERLEAVE | EXT_PR_SCTP). 0 until the handshake settles.
    pub ext_flags: u8,
    /// Picks which stream's queue supplies the next fragment: FCFS until
    /// [`negotiate`](Self::negotiate) settles the policy.
    pub sched: Scheduler,
    /// Global fragment enqueue counter — FCFS key; fragments of one
    /// message take consecutive values.
    pub msg_seq: u64,
    /// Peer's cumulative ack as of the last SACK processed — the
    /// FORWARD-TSN baseline.
    pub peer_cum: u64,
    /// Highest FORWARD-TSN cum point already emitted (dedup between SACKs).
    pub fwd_sent: u64,
    /// The send window: every chunk from the lowest TSN not yet
    /// cumulatively acked up to `next_tsn`, PR-SCTP phantoms included.
    pub sent: SentRing<SentChunk>,
    pub outstanding_bytes: u64,
    // ---- O(1) SACK accounting: running aggregates over `sent` ----
    /// TSNs queued for retransmission — exactly the `sent` entries with
    /// `marked_rtx && !acked`. Lets the flush path find (and count)
    /// retransmittable chunks without scanning the whole window.
    pub rtx_queue: BTreeSet<u64>,
    /// Monotone cursor: every TSN below it is gap-acked or no longer in
    /// `sent`, so earliest-unacked lookups skip the acked prefix and are
    /// amortized O(1) (`acked` never reverts to false).
    pub unacked_floor: u64,
    pub peer_rwnd: u64,
    /// CMT: destination of the most recent chunk assignment — the stripe's
    /// round-robin rotation cursor. Scheduling purely by "most open
    /// window" is bistable (cwnd only grows where data flows, so the
    /// leader absorbs the whole stripe); rotating over paths *with*
    /// headroom keeps equal paths in a 1/N split while still skipping
    /// paths whose cwnd is closed by recovery.
    pub cmt_last_path: u8,
    /// Consecutive unanswered timeouts/heartbeats across the whole
    /// association; reset by any acknowledged progress (RFC 4960 §8.1).
    pub assoc_errors: u32,
    /// T3-rtx timer and fast-recovery episode of the whole window — the
    /// live scope without CMT.
    pub rec: Recovery,
    /// RTT probe (tsn, never retransmitted) per Karn.
    pub rtt_probe: Option<u64>,

    // ---- receive ----
    /// Cumulative TSN and the TSN ranges held above it.
    pub rcv: RcvWindow,
    pub in_streams: Vec<InStream>,
    pub rcvbuf_used: u64,
    pub sack_pending_pkts: u32,
    pub sack_immediate: bool,
    /// Delayed-SACK timer, cleared by any SACK that goes out.
    pub sack_timer: Deadline,
    pub last_advertised_rwnd: u64,

    // ---- handshake / lifecycle ----
    pub init_retries: u32,
    /// T1-init / T1-cookie retransmission timer.
    pub init_timer: Deadline,
    /// When the (unretransmitted) INIT / COOKIE-ECHO went out.
    pub hs_sent_at: Option<SimTime>,
    pub cookie: Option<super::wire::Cookie>,
    /// T2-shutdown retransmission timer.
    pub shutdown_timer: Deadline,
    pub autoclose_timer: Deadline,
    pub last_traffic: SimTime,

    pub stats: AssocStats,
}

/// Send retransmissions to an alternate active path when available
/// (RFC 4960 §6.4.1; the paper §4.1.1 notes this aids throughput).
const RTX_ALTERNATE: bool = true;

impl Assoc {
    pub(crate) fn new(
        cfg: &SctpCfg,
        local_port: u16,
        peer_host: u16,
        peer_port: u16,
        local_tag: u64,
        state: AssocState,
        init_tsn: u64,
    ) -> Self {
        assert!(
            cfg.num_paths as usize <= MAX_PATHS,
            "num_paths {} exceeds MAX_PATHS {MAX_PATHS}",
            cfg.num_paths
        );
        let paths = (0..cfg.num_paths).map(|i| PathState::new(i, cfg)).collect();
        Assoc {
            state,
            local_port,
            peer_port,
            peer_host,
            local_tag,
            peer_tag: 0,
            paths,
            primary: 0,
            next_tsn: init_tsn,
            out_ssn: vec![0; cfg.out_streams as usize],
            out_q: (0..cfg.out_streams).map(|_| VecDeque::new()).collect(),
            queued: 0,
            pending_bytes: 0,
            writer_need: 0,
            ext_flags: 0,
            sched: Scheduler::new(SchedKind::Fcfs, 0),
            msg_seq: 0,
            peer_cum: init_tsn.saturating_sub(1),
            fwd_sent: 0,
            sent: SentRing::new(init_tsn),
            outstanding_bytes: 0,
            rtx_queue: BTreeSet::new(),
            unacked_floor: init_tsn,
            peer_rwnd: cfg.rcvbuf,
            cmt_last_path: 0,
            assoc_errors: 0,
            rec: Recovery::default(),
            rtt_probe: None,
            rcv: RcvWindow::new(0), // replaced when the peer's init_tsn is learned
            in_streams: Vec::new(),
            rcvbuf_used: 0,
            sack_pending_pkts: 0,
            sack_immediate: false,
            sack_timer: Deadline::default(),
            last_advertised_rwnd: cfg.rcvbuf,
            init_retries: 0,
            init_timer: Deadline::default(),
            hs_sent_at: None,
            cookie: None,
            shutdown_timer: Deadline::default(),
            autoclose_timer: Deadline::default(),
            last_traffic: SimTime::ZERO,
            stats: AssocStats::default(),
        }
    }

    /// Local address of path `p`.
    pub(crate) fn local_addr(&self, host: u16, p: u8) -> IfAddr {
        IfAddr::new(host, self.paths[p as usize].iface)
    }

    /// Peer address of path `p` (same-index interface; the networks are
    /// independent).
    pub(crate) fn peer_addr(&self, p: u8) -> IfAddr {
        IfAddr::new(self.peer_host, self.paths[p as usize].iface)
    }

    /// Receive window to advertise.
    pub(crate) fn a_rwnd(&self, rcvbuf: u64) -> u64 {
        rcvbuf.saturating_sub(self.rcvbuf_used)
    }

    /// Free send-buffer space.
    pub(crate) fn snd_space(&self, sndbuf: u64) -> u64 {
        sndbuf.saturating_sub(self.pending_bytes + self.outstanding_bytes)
    }

    /// Pick the retransmission path: an active alternate if allowed and
    /// available, else the primary.
    pub(crate) fn rtx_path(&self) -> u8 {
        if RTX_ALTERNATE && self.paths.len() > 1 {
            if let Some((i, _)) = self
                .paths
                .iter()
                .enumerate()
                .find(|(i, p)| *i as u8 != self.primary && p.active)
            {
                return i as u8;
            }
        }
        self.primary
    }

    /// Interleaving was negotiated with this peer (I-DATA on the wire,
    /// scheduler live).
    pub(crate) fn interleaving(&self) -> bool {
        self.ext_flags & EXT_INTERLEAVE != 0
    }

    /// PR-SCTP was negotiated with this peer.
    pub(crate) fn pr_active(&self) -> bool {
        self.ext_flags & EXT_PR_SCTP != 0
    }

    /// Settle the handshake's outcome: the negotiated extension bits and,
    /// with them, the scheduler policy. `sched` runs only once interleaving
    /// is negotiated; otherwise FCFS keeps each message's fragments
    /// TSN-contiguous for the peer's sequential reassembler.
    pub(crate) fn negotiate(&mut self, ext_flags: u8, sched: SchedKind) {
        self.ext_flags = ext_flags;
        let kind = if self.interleaving() { sched } else { SchedKind::Fcfs };
        self.sched = Scheduler::new(kind, self.out_q.len());
    }

    /// True when no user fragment is queued for first transmission.
    pub(crate) fn q_is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Enqueue a fragment at the back of its stream's queue (`admit` has
    /// checked the stream id).
    pub(crate) fn q_push(&mut self, pc: PendingChunk) {
        self.out_q[pc.stream as usize].push_back(pc);
        self.queued += 1;
    }

    /// Front fragment the next pop would take, with its stream id.
    /// Repeatable: queues unchanged ⇒ same answer, so the engine can gate
    /// (peek) several times before one pop.
    pub(crate) fn q_front(&self) -> Option<(u16, &PendingChunk)> {
        if self.queued == 0 {
            return None;
        }
        let sid = self.sched.pick(&self.out_q)?;
        self.out_q[sid as usize].front().map(|pc| (sid, pc))
    }

    /// Pop the fragment previously peeked via `q_front` and update the
    /// scheduler's accounting.
    pub(crate) fn q_pop(&mut self, sid: u16) -> Option<PendingChunk> {
        let pc = self.out_q[sid as usize].pop_front()?;
        self.queued -= 1;
        self.sched.on_pop(sid, &pc);
        Some(pc)
    }

    /// Any fragment of a *different* stream currently queued? (The
    /// sender-side head-of-line condition at enqueue time; only evaluated
    /// when a tracer is attached.)
    pub(crate) fn other_stream_queued(&self, sid: u16) -> bool {
        self.queued > self.out_q[sid as usize].len()
    }

    /// Any fragment of `sid` itself currently queued? A message enqueued
    /// behind its *own* stream's backlog waits the same under any
    /// scheduler (delivery is FIFO within a stream), so that wait is
    /// self-queueing, not head-of-line blocking — the sender-HOL trace
    /// only opens an episode for head-of-stream messages, where the wait
    /// is purely other streams' fragments holding the wire.
    pub(crate) fn own_stream_queued(&self, sid: u16) -> bool {
        !self.out_q[sid as usize].is_empty()
    }

    /// PR-SCTP Advanced.Peer.Ack.Point: walk the contiguous `sent` prefix
    /// above the peer's cumulative ack while chunks are abandoned or
    /// already gap-acked. Returns the new cum point plus the (stream, MID)
    /// skip list — `None` unless at least one abandoned chunk makes a
    /// FORWARD-TSN worth sending.
    pub(crate) fn adv_peer_ack(&self) -> Option<(u64, Vec<(u16, u64)>)> {
        let mut point = self.peer_cum;
        let mut skips: Vec<(u16, u64)> = Vec::new();
        let mut any_abandoned = false;
        for (tsn, c) in self.sent.range(self.peer_cum + 1..) {
            if tsn != point + 1 || !(c.abandoned || c.acked) {
                break;
            }
            point = tsn;
            if c.abandoned {
                any_abandoned = true;
                let entry = (c.stream, c.ssn as u64);
                if skips.last() != Some(&entry) && !skips.contains(&entry) {
                    skips.push(entry);
                }
            }
        }
        if any_abandoned && point > self.peer_cum {
            Some((point, skips))
        } else {
            None
        }
    }

    /// The recovery slot of `scope`.
    pub(crate) fn rec(&self, scope: Scope) -> &Recovery {
        scope.map_or(&self.rec, |p| &self.paths[p as usize].rec)
    }

    /// Mutable [`Assoc::rec`].
    pub(crate) fn rec_mut(&mut self, scope: Scope) -> &mut Recovery {
        match scope {
            None => &mut self.rec,
            Some(p) => &mut self.paths[p as usize].rec,
        }
    }

    /// Ensure the inbound stream table covers `sid`.
    pub(crate) fn in_stream_mut(&mut self, sid: u16) -> &mut InStream {
        let need = sid as usize + 1;
        if self.in_streams.len() < need {
            self.in_streams.resize_with(need, InStream::default);
        }
        &mut self.in_streams[sid as usize]
    }
}

pub(crate) struct Endpoint {
    pub port: u16,
    #[allow(dead_code)] // kept for API parity with the socket styles (§2.1)
    pub one_to_many: bool,
    pub listening: bool,
    pub assocs: Vec<Assoc>,
    /// (peer_host, peer_port) → assoc index.
    pub by_peer: FxHashMap<(u16, u16), u32>,
    /// Endpoint-level delivery queue: messages in arrival order across all
    /// associations (the one-to-many receive model, §3.1 of the paper).
    pub deliver_q: VecDeque<RecvMsg>,
    pub readers: Vec<ProcId>,
    pub writers: Vec<ProcId>,
    pub bad_vtag_drops: u64,
    pub stale_cookie_drops: u64,
    pub bad_mac_drops: u64,
}

/// All SCTP state on one host.
pub struct SctpHost {
    /// Host-wide SCTP tuning (shared by every association).
    pub cfg: Rc<SctpCfg>,
    pub(crate) eps: Vec<Endpoint>,
    pub(crate) by_port: FxHashMap<u16, u32>,
    /// Cookie-MAC secret (lazily drawn from the simulation RNG).
    pub(crate) secret: Option<u64>,
}

impl SctpHost {
    /// A host-wide SCTP stack with no endpoints yet.
    pub fn new(cfg: Rc<SctpCfg>) -> Self {
        SctpHost { cfg, eps: Vec::new(), by_port: FxHashMap::default(), secret: None }
    }

    /// Aggregate stats across every association on this host.
    pub fn total_stats(&self) -> AssocStats {
        let mut t = AssocStats::default();
        for a in self.eps.iter().flat_map(|ep| &ep.assocs) {
            t += a.stats;
        }
        t
    }

    /// Total verification-tag / cookie drops (security counters).
    pub fn security_drops(&self) -> (u64, u64, u64) {
        let mut v = (0, 0, 0);
        for ep in &self.eps {
            v.0 += ep.bad_vtag_drops;
            v.1 += ep.bad_mac_drops;
            v.2 += ep.stale_cookie_drops;
        }
        v
    }
}
