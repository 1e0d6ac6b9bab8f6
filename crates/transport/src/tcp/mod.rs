//! TCP: a 4.4BSD-lineage implementation (the transport under LAM-TCP).
//!
//! Feature set (see DESIGN.md S5):
//! * 3-way handshake with SYN retransmission, orderly close with FIN
//!   sequences including the half-closed state the paper contrasts with
//!   SCTP (§3.5.2);
//! * sliding-window byte stream with advertised-window flow control,
//!   zero-window persist probes, and receiver window updates;
//! * delayed ACKs (ack-every-2nd or 100 ms), immediate dup-ACKs on
//!   out-of-order data;
//! * NewReno congestion control with fast retransmit / fast recovery and a
//!   SACK scoreboard limited to three blocks per ACK (the IP-option-space
//!   limit from §4.1.1 of the paper);
//! * RFC 6298 RTO with Karn's rule, exponential backoff, and the coarse
//!   500 ms timer granularity of era BSD stacks;
//! * no Nagle: LAM-TCP sets `TCP_NODELAY`, so small writes leave at once.
//!
//! Public API mirrors nonblocking BSD sockets: `listen` / `connect` /
//! `accept` / `send` / `recv` / `close`, plus readiness queries and waiter
//! registration used by the middleware's progression engine.

mod engine;

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use netsim::IfAddr;
use simcore::fxhash::FxHashMap;
use simcore::{Deadline, ProcId, SimTime};

use crate::buf::ByteQueue;
use crate::ranges::RangeSet;
use crate::rto::{RtoCfg, RtoEstimator};
use crate::{World, Wx};

pub(crate) use engine::{input, on_delack, on_persist, on_rto};

/// Handle to a TCP socket on a given host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId {
    /// Host the socket lives on.
    pub host: u16,
    /// Index into that host's socket table.
    pub idx: u32,
}

/// TCP configuration (per host; the paper uses identical settings on all
/// eight nodes).
#[derive(Debug, Clone, Copy)]
pub struct TcpCfg {
    /// SO_SNDBUF. The paper pins both buffers to 220 KB on both stacks.
    pub sndbuf: u64,
    /// SO_RCVBUF.
    pub rcvbuf: u64,
    /// RTO parameters (era BSD defaults).
    pub rto: RtoCfg,
    /// SACK-scoreboard hole repair (RFC 6675-style). FreeBSD 5.3's SACK
    /// code (brand new in 2004) had nothing like it — set `false` for
    /// era-faithful NewReno-only recovery, which degenerates to RTO chains
    /// under multi-loss windows (the regime the paper's TCP numbers show).
    pub sack_hole_repair: bool,
}

impl Default for TcpCfg {
    fn default() -> Self {
        TcpCfg {
            sndbuf: 220 * 1024,
            rcvbuf: 220 * 1024,
            rto: RtoCfg::bsd_tcp(),
            sack_hole_repair: true,
        }
    }
}

/// Maximum segment size: 1500 MTU − 40 header bytes − 12 timestamp option.
pub(crate) const MSS: u32 = 1448;

/// First port of the ephemeral range (IANA: 49152..=65535).
const EPHEMERAL_FIRST: u16 = 49152;

/// Initial congestion window, in MSS (RFC 3390 ≈ 3 for MSS 1448).
const INIT_CWND_MSS: u64 = 3;

/// TCP connection states (RFC 793 subset; LISTEN lives in the engine's
/// internal `Listener` table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open: SYN sent, waiting for SYN|ACK.
    SynSent,
    /// Passive open: SYN received, SYN|ACK sent.
    SynRcvd,
    /// Three-way handshake complete; data flows.
    Established,
    /// Our FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged, waiting for the peer's FIN.
    FinWait2,
    /// Peer's FIN received while we still have data to send.
    CloseWait,
    /// Simultaneous close: both FINs in flight.
    Closing,
    /// Passive close: our FIN sent after the peer's, awaiting its ACK.
    LastAck,
    /// Both FINs acknowledged; lingering to absorb stray segments.
    TimeWait,
    /// Connection fully torn down.
    Closed,
}

/// A minimal bitflags substitute to avoid an extra dependency.
macro_rules! bitflags_lite {
    ($(#[$m:meta])* pub struct $name:ident : $t:ty { $(const $f:ident = $v:expr;)* }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name($t);
        impl $name {
            $(#[doc = concat!("The `", stringify!($f), "` flag bit.")]
            pub const $f: $name = $name($v);)*
            /// No flags set.
            pub const EMPTY: $name = $name(0);
            /// True when every bit of `o` is set in `self`.
            #[inline]
            pub fn contains(self, o: $name) -> bool { self.0 & o.0 == o.0 }
            /// True when `self` and `o` share at least one bit.
            #[inline]
            pub fn intersects(self, o: $name) -> bool { self.0 & o.0 != 0 }
            /// The bitwise OR of both flag sets.
            #[inline]
            pub fn union(self, o: $name) -> $name { $name(self.0 | o.0) }
        }
        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, o: $name) -> $name { self.union(o) }
        }
    };
}

bitflags_lite! {
    /// TCP header flags (subset).
    pub struct Flags: u8 {
        const SYN = 0b0001;
        const ACK = 0b0010;
        const FIN = 0b0100;
        const RST = 0b1000;
    }
}

/// A TCP segment on the wire. Sequence numbers are absolute `u64` (the
/// simulator never wraps; real TCP's 32-bit wrap handling is orthogonal to
/// everything the paper measures).
#[derive(Debug)]
pub struct TcpSegment {
    /// Sending port.
    pub src_port: u16,
    /// Receiving port.
    pub dst_port: u16,
    /// Control flags (SYN/ACK/FIN/RST).
    pub flags: Flags,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgment (next byte expected), valid when ACK set.
    pub ack: u64,
    /// Advertised receive window (bytes).
    pub wnd: u64,
    /// SACK blocks `[start, end)`, most recent first, at most three (the
    /// engine's `MAX_SACK_BLOCKS`).
    pub sack: Vec<(u64, u64)>,
    /// Zero-window persist probe: elicits an immediate pure ACK.
    pub probe: bool,
    /// Zero-copy payload slices, in order.
    pub payload: Vec<Bytes>,
    /// Total payload bytes across all slices.
    pub payload_len: u32,
}

impl TcpSegment {
    /// Bytes this segment occupies on the wire, excluding the IP header:
    /// 20 base + 12 timestamp option + SACK option + SYN MSS option.
    pub fn wire_len(&self) -> u32 {
        let mut n = 20 + 12 + self.payload_len;
        if !self.sack.is_empty() {
            n += 2 + 8 * self.sack.len() as u32;
        }
        if self.flags.contains(Flags::SYN) {
            n += 4;
        }
        n
    }

    /// Sequence space this segment consumes (payload + SYN/FIN flags).
    pub fn seq_len(&self) -> u64 {
        let mut n = self.payload_len as u64;
        if self.flags.contains(Flags::SYN) {
            n += 1;
        }
        if self.flags.contains(Flags::FIN) {
            n += 1;
        }
        n
    }
}

/// Per-socket counters (aggregated for EXPERIMENTS diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SockStats {
    /// Segments transmitted (including retransmissions).
    pub segs_out: u64,
    /// Segments received.
    pub segs_in: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub bytes_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Retransmitted segments, any cause.
    pub retransmits: u64,
    /// Retransmissions triggered by duplicate ACKs / SACK, not timeout.
    pub fast_retransmits: u64,
    /// Retransmission-timer expiries.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,
}

impl std::ops::AddAssign for SockStats {
    fn add_assign(&mut self, other: Self) {
        // Destructured so that a new counter does not compile until it is
        // summed here.
        let SockStats { segs_out, segs_in, bytes_out, bytes_in, retransmits, fast_retransmits, timeouts, dup_acks_in } =
            other;
        self.segs_out += segs_out;
        self.segs_in += segs_in;
        self.bytes_out += bytes_out;
        self.bytes_in += bytes_in;
        self.retransmits += retransmits;
        self.fast_retransmits += fast_retransmits;
        self.timeouts += timeouts;
        self.dup_acks_in += dup_acks_in;
    }
}

/// Sender-side congestion control + recovery state.
#[derive(Debug)]
pub(crate) struct Cc {
    pub cwnd: u64,
    pub ssthresh: u64,
    pub dupacks: u32,
    pub in_recovery: bool,
    /// `snd_nxt` at recovery entry (NewReno "recover").
    pub recover: u64,
}

pub(crate) struct TcpSock {
    pub state: TcpState,
    pub local: (IfAddr, u16),
    pub remote: (IfAddr, u16),

    // --- send side ---
    /// Retained bytes from `snd_una` to the end of the app's queued data.
    pub snd: ByteQueue,
    pub snd_una: u64,
    pub snd_nxt: u64,
    pub peer_wnd: u64,
    pub fin_queued: bool,
    pub fin_sent: bool,
    pub cc: Cc,
    /// SACK scoreboard (peer-reported received ranges above snd_una).
    pub sacked: RangeSet,
    /// Holes already retransmitted once in the current recovery episode
    /// (prevents retransmit storms; cleared as `snd_una` advances).
    pub hole_rtx: RangeSet,
    /// After an RTO, `snd_nxt` is rewound to `snd_una` (go-back-N);
    /// sequences below this mark are retransmissions (Karn: never sampled).
    pub rtx_until: u64,
    pub rto: RtoEstimator,
    /// Retransmission timer; every ack that makes progress restarts it.
    pub rto_timer: Deadline,
    /// Persist (zero-window probe) timer.
    pub persist_timer: Deadline,
    pub persist_shift: u32,
    /// RTT probe: (seq to be acked, send time); None while a retransmission
    /// poisons the sample (Karn).
    pub rtt_probe: Option<(u64, SimTime)>,
    pub last_send: SimTime,
    pub syn_retries: u32,
    /// RTO expiries since our FIN went out with no ack making progress.
    pub fin_retries: u32,
    /// When the (first, unretransmitted) SYN went out — handshake RTT sample.
    pub syn_sent_at: Option<SimTime>,

    // --- receive side ---
    pub rcv_nxt: u64,
    /// Readable bytes, in order. An in-order segment lands here directly,
    /// as zero-copy slices of its payload.
    pub in_order: VecDeque<Bytes>,
    pub in_order_bytes: u64,
    /// Out-of-order chunks keyed by start seq, all above `rcv_nxt`; chunk
    /// boundaries partition `have`. Only loss or reordering reaches it.
    pub store: BTreeMap<u64, Bytes>,
    /// Received byte ranges above `rcv_nxt` (never containing it): empty
    /// whenever the stream has no hole.
    pub have: RangeSet,
    pub ooo_bytes: u64,
    /// Recency-ordered out-of-order range *starts* for SACK generation.
    pub sack_recent: Vec<u64>,
    pub fin_rcvd: Option<u64>,
    pub eof_delivered: bool,
    pub last_adv_wnd: u64,
    /// Highest sequence we have ever advertised as acceptable
    /// (`rcv_nxt + wnd` at advertisement time). TCP MUST NOT shrink the
    /// window: data below this edge is accepted even if the buffer has
    /// since filled.
    pub adv_edge: u64,
    pub delack_pending: u32,
    /// Delayed-ACK timer, cleared by any segment that carries the ack.
    pub delack_timer: Deadline,

    // --- app interface ---
    pub readers: Vec<ProcId>,
    pub writers: Vec<ProcId>,
    pub stats: SockStats,
}

impl TcpSock {
    fn new(local: (IfAddr, u16), remote: (IfAddr, u16), state: TcpState, cfg: &TcpCfg) -> Self {
        TcpSock {
            state,
            local,
            remote,
            snd: ByteQueue::new(1),
            snd_una: 0,
            snd_nxt: 0,
            peer_wnd: 0,
            fin_queued: false,
            fin_sent: false,
            cc: Cc {
                cwnd: INIT_CWND_MSS * MSS as u64,
                ssthresh: u64::MAX / 2,
                dupacks: 0,
                in_recovery: false,
                recover: 0,
            },
            sacked: RangeSet::new(),
            hole_rtx: RangeSet::new(),
            rtx_until: 0,
            rto: RtoEstimator::new(cfg.rto),
            rto_timer: Deadline::default(),
            persist_timer: Deadline::default(),
            persist_shift: 0,
            rtt_probe: None,
            last_send: SimTime::ZERO,
            syn_retries: 0,
            fin_retries: 0,
            syn_sent_at: None,
            rcv_nxt: 0,
            in_order: VecDeque::new(),
            in_order_bytes: 0,
            store: BTreeMap::new(),
            have: RangeSet::new(),
            ooo_bytes: 0,
            sack_recent: Vec::new(),
            fin_rcvd: None,
            eof_delivered: false,
            last_adv_wnd: cfg.rcvbuf,
            adv_edge: 0,
            delack_pending: 0,
            delack_timer: Deadline::default(),
            readers: Vec::new(),
            writers: Vec::new(),
            stats: SockStats::default(),
        }
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Receive window to advertise.
    pub fn rcv_wnd(&self, rcvbuf: u64) -> u64 {
        rcvbuf.saturating_sub(self.in_order_bytes + self.ooo_bytes)
    }

    /// Free space in the send buffer.
    pub fn snd_space(&self, sndbuf: u64) -> u64 {
        sndbuf.saturating_sub(self.snd.len())
    }
}

pub(crate) struct Listener {
    pub backlog: VecDeque<u32>,
    pub acceptors: Vec<ProcId>,
}

/// All TCP state on one host.
pub struct TcpHost {
    /// Host-wide TCP tuning (shared by every socket).
    pub cfg: TcpCfg,
    pub(crate) socks: Vec<TcpSock>,
    pub(crate) listeners: FxHashMap<u16, Listener>,
    /// (local_port, remote_host, remote_port) → sock index.
    pub(crate) conn_map: FxHashMap<(u16, u16, u16), u32>,
    next_ephemeral: u16,
}

impl TcpHost {
    /// A host with no sockets or listeners yet.
    pub fn new(cfg: TcpCfg) -> Self {
        TcpHost {
            cfg,
            socks: Vec::new(),
            listeners: FxHashMap::default(),
            conn_map: FxHashMap::default(),
            next_ephemeral: EPHEMERAL_FIRST,
        }
    }

    /// The next ephemeral port (49152..=65535, wrapping) whose connection
    /// key toward `(dst_host, dst_port)` names no live socket. `TimeWait`
    /// counts as free: the model keeps no 2·MSL timer, so it is terminal.
    fn alloc_port(&mut self, dst_host: u16, dst_port: u16) -> u16 {
        for _ in EPHEMERAL_FIRST..=u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { EPHEMERAL_FIRST } else { p + 1 };
            let live = self.conn_map.get(&(p, dst_host, dst_port)).is_some_and(|&idx| {
                !matches!(self.socks[idx as usize].state, TcpState::Closed | TcpState::TimeWait)
            });
            if !live {
                return p;
            }
        }
        panic!("ephemeral ports exhausted toward host {dst_host} port {dst_port}");
    }

    /// Aggregate stats across all sockets on this host.
    pub fn total_stats(&self) -> SockStats {
        let mut t = SockStats::default();
        for s in &self.socks {
            t += s.stats;
        }
        t
    }
}

pub(crate) fn sock_mut(w: &mut World, s: SockId) -> &mut TcpSock {
    &mut w.hosts[s.host as usize].tcp.socks[s.idx as usize]
}

/// Split borrow: the socket *and* the world's buffer pools, so hot paths
/// can recycle buffers while mutating socket state.
pub(crate) fn sock_pool_mut(w: &mut World, s: SockId) -> (&mut TcpSock, &mut crate::pool::Pools) {
    let World { hosts, pool, .. } = w;
    (&mut hosts[s.host as usize].tcp.socks[s.idx as usize], pool)
}

pub(crate) fn sock(w: &World, s: SockId) -> &TcpSock {
    &w.hosts[s.host as usize].tcp.socks[s.idx as usize]
}

// ---------------------------------------------------------------------------
// Public socket API (nonblocking; middleware supplies the blocking layer)
// ---------------------------------------------------------------------------

/// Start listening on `port`.
pub fn listen(w: &mut World, host: u16, port: u16) {
    let prev = w.hosts[host as usize]
        .tcp
        .listeners
        .insert(port, Listener { backlog: VecDeque::new(), acceptors: Vec::new() });
    assert!(prev.is_none(), "port {port} already listening on host {host}");
}

/// Begin an active open to `(dst_host, dst_port)`. Poll
/// [`is_established`] / [`is_failed`]; register via [`register_writer`].
pub fn connect(w: &mut World, ctx: &mut Wx, host: u16, dst_host: u16, dst_port: u16) -> SockId {
    let cfg = w.hosts[host as usize].tcp.cfg;
    let lport = w.hosts[host as usize].tcp.alloc_port(dst_host, dst_port);
    let local = (IfAddr::new(host, 0), lport);
    let remote = (IfAddr::new(dst_host, 0), dst_port);
    let sock = TcpSock::new(local, remote, TcpState::SynSent, &cfg);
    let th = &mut w.hosts[host as usize].tcp;
    let idx = th.socks.len() as u32;
    th.socks.push(sock);
    th.conn_map.insert((lport, dst_host, dst_port), idx);
    let s = SockId { host, idx };
    engine::send_syn(w, ctx, s);
    s
}

/// Accept a pending connection, if any.
pub fn accept(w: &mut World, host: u16, port: u16) -> Option<SockId> {
    let l = w.hosts[host as usize].tcp.listeners.get_mut(&port)?;
    l.backlog.pop_front().map(|idx| SockId { host, idx })
}

/// Register `p` to be woken when a connection is ready to accept.
pub fn register_acceptor(w: &mut World, host: u16, port: u16, p: ProcId) {
    let l = w.hosts[host as usize]
        .tcp
        .listeners
        .get_mut(&port)
        .expect("register_acceptor on non-listening port");
    if !l.acceptors.contains(&p) {
        l.acceptors.push(p);
    }
}

/// True once the three-way handshake completed.
pub fn is_established(w: &World, s: SockId) -> bool {
    sock(w, s).state == TcpState::Established
}

/// True if the connection attempt or connection died.
pub fn is_failed(w: &World, s: SockId) -> bool {
    sock(w, s).state == TcpState::Closed
}

/// Queue bytes for transmission. Returns the number of bytes accepted into
/// the send buffer (0 = would block). Partial chunks are accepted. Takes
/// any walk over the chunks (`&[Bytes]`, a `VecDeque` iterator, …) so
/// callers retrying after a partial write never collect into a fresh list.
pub fn send<'a>(
    w: &mut World,
    ctx: &mut Wx,
    s: SockId,
    data: impl IntoIterator<Item = &'a Bytes>,
) -> usize {
    let sndbuf = w.hosts[s.host as usize].tcp.cfg.sndbuf;
    let sk = sock_mut(w, s);
    if !matches!(sk.state, TcpState::Established | TcpState::CloseWait) {
        return 0;
    }
    assert!(!sk.fin_queued, "send after close");
    let mut space = sk.snd_space(sndbuf) as usize;
    let mut accepted = 0;
    for chunk in data {
        if space == 0 {
            break;
        }
        let take = chunk.len().min(space);
        sk.snd.push(chunk.slice(0..take));
        space -= take;
        accepted += take;
    }
    if accepted > 0 {
        engine::output(w, ctx, s);
    }
    accepted
}

/// Read up to `max` buffered bytes. An empty result means "would block"
/// unless [`at_eof`] is true. May trigger a window-update ACK.
pub fn recv(w: &mut World, ctx: &mut Wx, s: SockId, max: usize) -> Vec<Bytes> {
    let mut out = Vec::new();
    recv_into(w, ctx, s, max, &mut out);
    out
}

/// [`recv`] into a caller-provided buffer (appended to), so a polling
/// reader can reuse one scratch list across every call instead of
/// allocating a fresh `Vec` per readiness pass.
pub fn recv_into(w: &mut World, ctx: &mut Wx, s: SockId, max: usize, out: &mut Vec<Bytes>) {
    let rcvbuf = w.hosts[s.host as usize].tcp.cfg.rcvbuf;
    let mss = MSS as u64;
    let sk = sock_mut(w, s);
    let before = out.len();
    let mut want = max;
    while want > 0 {
        match sk.in_order.front_mut() {
            None => break,
            Some(front) => {
                if front.len() <= want {
                    want -= front.len();
                    sk.in_order_bytes -= front.len() as u64;
                    out.push(sk.in_order.pop_front().unwrap());
                } else {
                    let part = front.split_to(want);
                    sk.in_order_bytes -= part.len() as u64;
                    out.push(part);
                    want = 0;
                }
            }
        }
    }
    if out.len() > before {
        // Window update: if our advertised window grew substantially since
        // the last segment we sent, tell the peer (it may be persist-blocked).
        let wnd = sk.rcv_wnd(rcvbuf);
        if wnd >= sk.last_adv_wnd + 2 * mss || (sk.last_adv_wnd < mss && wnd >= mss) {
            engine::send_ack_now(w, ctx, s);
        }
    }
}

/// Bytes currently readable.
pub fn readable_bytes(w: &World, s: SockId) -> u64 {
    sock(w, s).in_order_bytes
}

/// True when the peer's FIN has been consumed (all data read, stream ended).
pub fn at_eof(w: &World, s: SockId) -> bool {
    let sk = sock(w, s);
    sk.eof_delivered && sk.in_order_bytes == 0
}

/// Free space in the send buffer.
pub fn send_space(w: &World, s: SockId) -> u64 {
    let sndbuf = w.hosts[s.host as usize].tcp.cfg.sndbuf;
    sock(w, s).snd_space(sndbuf)
}

/// Register `p` to be woken when the socket may have become readable
/// (data, EOF, or state change).
pub fn register_reader(w: &mut World, s: SockId, p: ProcId) {
    let sk = sock_mut(w, s);
    if !sk.readers.contains(&p) {
        sk.readers.push(p);
    }
}

/// Register `p` to be woken when send-buffer space frees up or the
/// connection state changes.
pub fn register_writer(w: &mut World, s: SockId, p: ProcId) {
    let sk = sock_mut(w, s);
    if !sk.writers.contains(&p) {
        sk.writers.push(p);
    }
}

/// Close the write side (sends FIN after queued data). Reading remains
/// possible — this is TCP's half-close, which §3.5.2 of the paper contrasts
/// with SCTP's full close.
pub fn close(w: &mut World, ctx: &mut Wx, s: SockId) {
    let sk = sock_mut(w, s);
    if sk.fin_queued || matches!(sk.state, TcpState::Closed | TcpState::TimeWait) {
        return;
    }
    sk.fin_queued = true;
    engine::output(w, ctx, s);
}

/// Current state (tests/diagnostics).
pub fn state(w: &World, s: SockId) -> TcpState {
    sock(w, s).state
}

/// The peer's (host, port) — lets an acceptor identify who connected.
pub fn peer_of(w: &World, s: SockId) -> (u16, u16) {
    let sk = sock(w, s);
    (sk.remote.0.host, sk.remote.1)
}

/// Per-socket stats (tests/diagnostics).
pub fn stats(w: &World, s: SockId) -> SockStats {
    sock(w, s).stats
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::backend::Backend;
    use crate::ip::{self, Packet};

    /// Swallows everything the engines send.
    struct Capture(Rc<RefCell<Vec<Packet>>>);

    impl Backend for Capture {
        fn send(&mut self, _w: &mut World, _ctx: &mut Wx, pkt: Packet) {
            self.0.borrow_mut().push(pkt);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn in_order_segments_bypass_the_reassembly_store() {
        let mut w = World::paper_cluster(0.0);
        let mut ctx: Wx = simcore::Ctx::standalone(simcore::derive_rng(3, 0));
        let wire = Rc::new(RefCell::new(Vec::new()));
        w.install_backend(Box::new(Capture(wire.clone())));
        listen(&mut w, 1, 80);
        connect(&mut w, &mut ctx, 0, 1, 80);
        loop {
            let Some(pkt) = wire.borrow_mut().pop() else { break };
            ip::deliver_now(&mut w, &mut ctx, pkt);
        }
        let server = accept(&mut w, 1, 80).expect("handshake completed");
        let (_, cport) = peer_of(&w, server);

        // Each segment is two payload chunks, as when it spans two chunks
        // of the sender's queue.
        let data: Bytes = (0..64 * 1448).map(|i| i as u8).collect();
        for k in 0..64 {
            let (a, b) = (k * 1448, (k + 1) * 1448);
            let cut = a + 24 + k % 7 * 100;
            let payload = vec![data.slice(a..cut), data.slice(cut..b)];
            let seg = TcpSegment {
                src_port: cport,
                dst_port: 80,
                flags: Flags::ACK,
                seq: 1 + a as u64,
                ack: 1,
                wnd: 65_535,
                sack: Vec::new(),
                probe: false,
                payload,
                payload_len: 1448,
            };
            input(&mut w, &mut ctx, IfAddr::new(0, 0), IfAddr::new(1, 0), seg);
            wire.borrow_mut().clear();
            let sk = sock(&w, server);
            assert!(sk.store.is_empty() && sk.have.is_empty(), "segment {k} was parked");
            assert_eq!((sk.rcv_nxt, sk.ooo_bytes), (1 + b as u64, 0));
            // Delivered as the segment's own chunks, not a copy.
            let tail: Vec<*const u8> = sk.in_order.iter().rev().take(2).map(|c| c.as_ptr()).collect();
            assert_eq!(tail, [data[cut..].as_ptr(), data[a..].as_ptr()], "segment {k} was copied");
        }
        let got = crate::buf::concat(&recv(&mut w, &mut ctx, server, usize::MAX));
        assert_eq!(got, data);
    }

    #[test]
    fn ephemeral_ports_wrap_and_skip_live_connections() {
        let mut w = World::paper_cluster(0.0);
        let mut ctx: Wx = simcore::Ctx::standalone(simcore::derive_rng(4, 0));
        w.install_backend(Box::new(Capture(Rc::new(RefCell::new(Vec::new())))));
        let mut port = |w: &mut World| {
            let s = connect(w, &mut ctx, 0, 1, 80);
            sock(w, s).local.1
        };
        w.hosts[0].tcp.next_ephemeral = u16::MAX;
        let first: Vec<u16> = (0..3).map(|_| port(&mut w)).collect();
        assert_eq!(first, [65535, 49152, 49153]);
        // All three are still connecting: the next pass skips their keys.
        w.hosts[0].tcp.next_ephemeral = u16::MAX;
        assert_eq!(port(&mut w), 49154);
        // A closed or TIME-WAIT socket frees its key for reuse.
        let s = SockId { host: 0, idx: 0 };
        sock_mut(&mut w, s).state = TcpState::TimeWait;
        w.hosts[0].tcp.next_ephemeral = u16::MAX;
        assert_eq!(port(&mut w), 65535);
    }
}
