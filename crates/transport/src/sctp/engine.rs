//! The SCTP protocol engine: handshake, data transfer, SACK processing,
//! congestion control, retransmission, multihoming, and shutdown.

use std::rc::Rc;

use bytes::Bytes;
use netsim::IfAddr;
use rand::Rng;
use simcore::{Dur, ProcId};

use crate::ip::{self, Packet, Proto};
use crate::{Timer, World, Wx};

use super::assoc::{
    Assoc, AssocId, AssocState, AssocStats, Endpoint, EpId, PathState, PendingChunk, RecvMsg, Scope,
    SctpCfg, SentChunk, MAX_CHUNK_DATA, MAX_CHUNK_DATA_IDATA, MAX_PATHS, PACKET_BUDGET, PMTU, SACK_DELAY,
};
use super::receive::{decide_sack, handle_data, handle_forward_tsn, Frag, RcvWindow};
use super::window::{check_flight, process_sack};
use super::wire::{Chunk, Cookie, DataChunk, IDataChunk, SctpPacket};

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

/// The host's configuration, shared: a reference-count bump, so callers can
/// keep it across `&mut World` calls.
pub(super) fn cfg_of(w: &World, host: u16) -> Rc<SctpCfg> {
    w.hosts[host as usize].sctp.cfg.clone()
}

pub(super) fn ep_mut(w: &mut World, e: EpId) -> &mut Endpoint {
    &mut w.hosts[e.host as usize].sctp.eps[e.idx as usize]
}

fn ep_ref(w: &World, e: EpId) -> &Endpoint {
    &w.hosts[e.host as usize].sctp.eps[e.idx as usize]
}

pub(super) fn assoc_mut(w: &mut World, a: AssocId) -> &mut Assoc {
    &mut w.hosts[a.host as usize].sctp.eps[a.ep as usize].assocs[a.idx as usize]
}

pub(super) fn assoc_ref(w: &World, a: AssocId) -> &Assoc {
    &w.hosts[a.host as usize].sctp.eps[a.ep as usize].assocs[a.idx as usize]
}

/// Split borrow: the association *and* the world's buffer pools, so hot
/// paths can recycle buffers while mutating association state.
pub(super) fn assoc_pool_mut(w: &mut World, a: AssocId) -> (&mut Assoc, &mut crate::pool::Pools) {
    let World { hosts, pool, .. } = w;
    (&mut hosts[a.host as usize].sctp.eps[a.ep as usize].assocs[a.idx as usize], pool)
}

/// Draw a verification tag: full-width under the sim (historical stream,
/// bit-identical figures), u32-range when `wire_safe_ids` is set so the
/// tag survives the wire's 32-bit field (see [`SctpCfg::wire_safe_ids`]).
fn draw_tag(ctx: &mut Wx, cfg: &SctpCfg) -> u64 {
    if cfg.wire_safe_ids {
        ctx.rng.gen_range(1..u32::MAX as u64)
    } else {
        ctx.rng.gen_range(1..u64::MAX)
    }
}

/// Draw a heartbeat nonce, width-gated like [`draw_tag`].
fn draw_nonce(ctx: &mut Wx, cfg: &SctpCfg) -> u64 {
    if cfg.wire_safe_ids {
        ctx.rng.gen::<u32>() as u64
    } else {
        ctx.rng.gen()
    }
}

fn host_secret(w: &mut World, ctx: &mut Wx, host: u16) -> u64 {
    let sh = &mut w.hosts[host as usize].sctp;
    *sh.secret.get_or_insert_with(|| ctx.rng.gen())
}

/// Flight-recorder snapshot of one path's congestion state. Callers guard
/// with `ctx.tracing()` so the off path costs one branch.
pub(super) fn trace_cwnd(ctx: &Wx, host: u16, peer: u16, path: u8, ps: &PathState) {
    ctx.trace_emit(trace::Event::Cwnd(trace::CwndEv {
        proto: trace::Proto8::Sctp,
        host,
        peer,
        path,
        cwnd: ps.cwnd,
        ssthresh: ps.ssthresh,
        flight: ps.flight,
    }));
}

// ---------------------------------------------------------------------------
// CMT (Concurrent Multipath Transfer, Iyengar et al.)
// ---------------------------------------------------------------------------

/// CMT stripe: rotate over the active paths *with congestion-window
/// headroom*, starting after the last assignment (Iyengar's scheduler).
///
/// Why not simply "the path with the most open window"? Because cwnd only
/// grows where data flows, that rule is bistable: whichever path pulls
/// ahead offers the most free bytes, attracts the whole stripe, grows
/// further, and CMT degenerates to one effective path (measured: a
/// 200-iteration A5 run collapses to a 1:32:32 data split). Rotation keeps
/// equal paths in a 1/N split, while the headroom gate still steers around
/// paths whose cwnd is closed by loss recovery — that is the cwnd-aware
/// part. Falls back to the most open window (ties toward lower SRTT, then
/// lower index) when every path is saturated, and to the primary when
/// every path is down; all picks are fully deterministic.
fn cmt_pick_path(ak: &Assoc) -> u8 {
    cmt_pick_path_burst(ak, &[0; MAX_PATHS], u32::MAX)
}

/// [`cmt_pick_path`] with Max.Burst awareness: paths that already emitted
/// `max_burst` packets this send opportunity are skipped, because CMT
/// applies the burst limit per *destination* — one association-wide gate
/// would let a 3-path stripe open its ack clock no faster than one path.
fn cmt_pick_path_burst(ak: &Assoc, burst_on: &[u32; MAX_PATHS], max_burst: u32) -> u8 {
    let n = ak.paths.len();
    let start = (ak.cmt_last_path as usize + 1) % n;
    for k in 0..n {
        let i = (start + k) % n;
        let ps = &ak.paths[i];
        if ps.active && ps.flight < ps.cwnd && burst_on[i] < max_burst {
            return i as u8;
        }
    }
    ak.paths
        .iter()
        .enumerate()
        .filter(|(i, ps)| ps.active && burst_on[*i] < max_burst)
        .min_by_key(|(i, ps)| {
            let free = ps.cwnd.saturating_sub(ps.flight);
            let srtt = ps.rto.srtt().map_or(u64::MAX, |d| d.as_nanos());
            (std::cmp::Reverse(free), srtt, *i)
        })
        .map(|(i, _)| i as u8)
        .unwrap_or(ak.primary)
}

/// CMT retransmission policy (RTX-SAME): resend on the chunk's own path so
/// the per-path pseudo-cumack and SFR accounting stay truthful; fall back
/// to the most-open active path only when that path is down.
fn cmt_rtx_target(ak: &Assoc, chunk_path: u8) -> u8 {
    if ak.paths[chunk_path as usize].active {
        chunk_path
    } else {
        cmt_pick_path(ak)
    }
}

/// Record that `tsn` now rides `path`: the path's pseudo-cumack (earliest
/// outstanding TSN) and its rescan cursor may move down. Called at every
/// chunk→path (re)assignment; a no-op without CMT, which reads neither.
fn note_assign(ak: &mut Assoc, cfg: &SctpCfg, path: u8, tsn: u64) {
    if !cfg.cmt {
        return;
    }
    ak.cmt_last_path = path;
    let ps = &mut ak.paths[path as usize];
    ps.pseudo_cumack = ps.pseudo_cumack.min(tsn);
    ps.cumack_floor = ps.cumack_floor.min(tsn);
}

/// Earliest unacked TSN currently assigned to path `p`, advancing the
/// path's scan cursor past the settled prefix so repeated per-SACK rescans
/// stay amortized-cheap (`acked` never reverts; assignments below the
/// cursor go through [`note_assign`]).
pub(super) fn cmt_earliest_on(ak: &mut Assoc, p: usize) -> Option<u64> {
    let floor = ak.paths[p].cumack_floor;
    let hit = ak
        .sent
        .range(floor..)
        .find_map(|(tsn, c)| (!c.acked && c.path as usize == p).then_some(tsn));
    match hit {
        Some(tsn) => ak.paths[p].cumack_floor = tsn,
        None => ak.paths[p].cumack_floor = ak.next_tsn,
    }
    hit
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Errors from [`sendmsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendErr {
    /// Send buffer full — retry after a writable wake (EAGAIN).
    WouldBlock,
    /// Message exceeds the send buffer; split it (the `sctp_sendmsg` limit
    /// the paper works around in §3.4/§3.6).
    MsgTooBig,
    /// Association not in a sendable state.
    NotConnected,
    /// Stream id out of range.
    BadStream,
}

/// Create an SCTP socket bound to `port`.
pub fn socket(w: &mut World, host: u16, port: u16, one_to_many: bool) -> EpId {
    let sh = &mut w.hosts[host as usize].sctp;
    assert!(!sh.by_port.contains_key(&port), "port {port} in use on host {host}");
    let idx = sh.eps.len() as u32;
    sh.eps.push(Endpoint {
        port,
        one_to_many,
        listening: false,
        assocs: Vec::new(),
        by_peer: Default::default(),
        deliver_q: std::collections::VecDeque::new(),
        readers: Vec::new(),
        writers: Vec::new(),
        bad_vtag_drops: 0,
        stale_cookie_drops: 0,
        bad_mac_drops: 0,
    });
    sh.by_port.insert(port, idx);
    EpId { host, idx }
}

/// Accept inbound associations on this endpoint.
pub fn listen(w: &mut World, e: EpId) {
    ep_mut(w, e).listening = true;
}

/// Start the four-way handshake toward `(dst_host, dst_port)`.
pub fn connect(w: &mut World, ctx: &mut Wx, e: EpId, dst_host: u16, dst_port: u16) -> AssocId {
    let cfg = cfg_of(w, e.host);
    let local_tag: u64 = draw_tag(ctx, &cfg);
    let port = ep_ref(w, e).port;
    let mut assoc = Assoc::new(&cfg, port, dst_host, dst_port, local_tag, AssocState::CookieWait, 1);
    assoc.last_traffic = ctx.now();
    let ep = ep_mut(w, e);
    let idx = ep.assocs.len() as u32;
    ep.assocs.push(assoc);
    ep.by_peer.insert((dst_host, dst_port), idx);
    let a = AssocId { host: e.host, ep: e.idx, idx };
    send_init(w, ctx, a);
    a
}

/// Find the association for a given peer, if any (one-to-many sockets learn
/// of inbound associations this way).
pub fn lookup_peer(w: &World, e: EpId, peer_host: u16, peer_port: u16) -> Option<AssocId> {
    let ep = ep_ref(w, e);
    ep.by_peer.get(&(peer_host, peer_port)).map(|&idx| AssocId { host: e.host, ep: e.idx, idx })
}

/// Current association state.
pub fn assoc_state(w: &World, a: AssocId) -> AssocState {
    assoc_ref(w, a).state
}

/// Current primary path index.
pub fn primary_path(w: &World, a: AssocId) -> u8 {
    assoc_ref(w, a).primary
}

/// The peer's addresses, primary first.
pub fn peer_addrs(w: &World, a: AssocId) -> Vec<IfAddr> {
    let ak = assoc_ref(w, a);
    let mut v: Vec<IfAddr> = ak.paths.iter().map(|p| IfAddr::new(ak.peer_host, p.iface)).collect();
    v.swap(0, ak.primary as usize);
    v
}

/// Association counters.
pub fn stats(w: &World, a: AssocId) -> AssocStats {
    assoc_ref(w, a).stats
}

/// Would a `len`-byte message on stream 0 be accepted right now?
pub fn can_send(w: &World, a: AssocId, len: u32) -> bool {
    check_send(w, a, 0, len as u64).is_ok()
}

/// What [`sendmsg`] would answer for a `len`-byte message on `stream`
/// right now, without queueing anything: the same checks, in the same
/// order, so a caller that skips the send on `WouldBlock` never skips an
/// error.
pub fn check_send(w: &World, a: AssocId, stream: u16, len: u64) -> Result<(), SendErr> {
    admit(&w.hosts[a.host as usize].sctp.cfg, assoc_ref(w, a), stream, len)
}

/// The admission checks of the `sendmsg` family: NotConnected, BadStream,
/// MsgTooBig, then WouldBlock.
fn admit(cfg: &SctpCfg, ak: &Assoc, stream: u16, len: u64) -> Result<(), SendErr> {
    if !sendable_state(ak.state) {
        return Err(SendErr::NotConnected);
    }
    if stream >= cfg.out_streams {
        return Err(SendErr::BadStream);
    }
    if len > cfg.sndbuf {
        return Err(SendErr::MsgTooBig);
    }
    if ak.snd_space(cfg.sndbuf) < len {
        return Err(SendErr::WouldBlock);
    }
    Ok(())
}

fn sendable_state(s: AssocState) -> bool {
    matches!(s, AssocState::CookieWait | AssocState::CookieEchoed | AssocState::Established)
}

/// Queue one user message on `stream`. All-or-nothing, like `sctp_sendmsg`.
pub fn sendmsg(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    stream: u16,
    ppid: u32,
    data: Bytes,
) -> Result<(), SendErr> {
    sendmsg_impl(w, ctx, a, stream, ppid, std::slice::from_ref(&data), None)
}

/// Like [`sendmsg`] but the message body is a list of chunks (zero-copy for
/// callers that frame an envelope in front of a payload). Fragment
/// boundaries respect both the PMTU chunk limit and the input chunk
/// boundaries. Borrows the chunk list so a caller retrying after
/// `WouldBlock` never clones it.
pub fn sendmsg_v(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    stream: u16,
    ppid: u32,
    data: &[Bytes],
) -> Result<(), SendErr> {
    sendmsg_impl(w, ctx, a, stream, ppid, data, None)
}

/// [`sendmsg`] with an explicit PR-SCTP lifetime: `Some(d)` abandons the
/// message if not delivered within `d` of queueing (RFC 3758 timed
/// reliability); `None` forces full reliability even when
/// [`SctpCfg::pr_lifetime`] sets a default — deadline workloads use that
/// for their end-of-run sentinel, which must never be abandoned.
pub fn sendmsg_pr(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    stream: u16,
    ppid: u32,
    data: Bytes,
    lifetime: Option<Dur>,
) -> Result<(), SendErr> {
    sendmsg_impl(w, ctx, a, stream, ppid, std::slice::from_ref(&data), Some(lifetime))
}

/// Shared body of the `sendmsg*` family. `lifetime` is two-level: `None`
/// applies the config default, `Some(None)` is explicitly reliable,
/// `Some(Some(d))` an explicit deadline.
fn sendmsg_impl(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    stream: u16,
    ppid: u32,
    data: &[Bytes],
    lifetime: Option<Option<Dur>>,
) -> Result<(), SendErr> {
    let cfg = cfg_of(w, a.host);
    {
        let ak = assoc_mut(w, a);
        let len: u64 = data.iter().map(|c| c.len() as u64).sum();
        admit(&cfg, ak, stream, len)?;
        let expires = lifetime.unwrap_or(cfg.pr_lifetime).map(|d| ctx.now() + d);
        // Flight recorder, sender side: the message starts life blocked if
        // it is at the head of its own stream (nothing of `stream` queued
        // ahead — waiting behind one's own predecessors is FIFO
        // self-queueing, the same under any scheduler) while fragments of
        // *other* streams hold the wire — the condition I-DATA + a
        // non-FIFO scheduler exists to break. The matching un-block is
        // emitted when this stream's begin fragment reaches the wire (see
        // the phase-2 pop in `try_send_inner`).
        if let Some(t) = ctx.tracer() {
            if ak.other_stream_queued(stream) && !ak.own_stream_queued(stream) {
                t.hol_update(
                    ctx.now().as_nanos(),
                    a.host,
                    ak.peer_host,
                    stream,
                    trace::HolSide::Snd,
                    true,
                    0,
                );
            }
        }
        // Fragment into DATA chunks, all on `stream` with one SSN (the SSN
        // doubles as the RFC 8260 MID on the I-DATA path).
        let ssn = ak.out_ssn[stream as usize];
        ak.out_ssn[stream as usize] += 1;
        let max = if cfg.interleave {
            MAX_CHUNK_DATA_IDATA as usize
        } else {
            MAX_CHUNK_DATA as usize
        };
        if len == 0 {
            let seq = ak.msg_seq;
            ak.msg_seq += 1;
            ak.q_push(PendingChunk {
                stream,
                ssn,
                begin: true,
                end: true,
                ppid,
                data: Bytes::new(),
                fsn: 0,
                seq,
                expires,
            });
        } else {
            let mut remaining = len;
            let mut fsn = 0u32;
            for chunk in data {
                let total: usize = chunk.len();
                let mut off = 0;
                while off < total {
                    let take = max.min(total - off);
                    let begin = remaining == len;
                    remaining -= take as u64;
                    let seq = ak.msg_seq;
                    ak.msg_seq += 1;
                    ak.q_push(PendingChunk {
                        stream,
                        ssn,
                        begin,
                        end: remaining == 0,
                        ppid,
                        data: chunk.slice(off..off + take),
                        fsn,
                        seq,
                        expires,
                    });
                    fsn += 1;
                    off += take;
                }
            }
        }
        ak.pending_bytes += len;
        ak.last_traffic = ctx.now();
    }
    try_send(w, ctx, a);
    Ok(())
}

/// Receive the next complete message delivered on this endpoint, in arrival
/// order across all associations and streams (§3.1 of the paper). `None` =
/// would block.
pub fn recvmsg(w: &mut World, ctx: &mut Wx, e: EpId) -> Option<RecvMsg> {
    let cfg = cfg_of(w, e.host);
    let msg = ep_mut(w, e).deliver_q.pop_front()?;
    let a = msg.assoc;
    let send_update = {
        let ak = assoc_mut(w, a);
        let before = ak.a_rwnd(cfg.rcvbuf);
        ak.rcvbuf_used = ak.rcvbuf_used.saturating_sub(msg.len as u64);
        ak.last_traffic = ctx.now();
        // Window-update SACK if we were pinching the sender.
        before < PMTU as u64 && ak.a_rwnd(cfg.rcvbuf) >= PMTU as u64
    };
    if send_update && assoc_ref(w, a).state == AssocState::Established {
        send_sack_now(w, ctx, a);
    }
    Some(msg)
}

/// Is a message ready on this endpoint?
pub fn readable(w: &World, e: EpId) -> bool {
    !ep_ref(w, e).deliver_q.is_empty()
}

/// Register `p` to be woken when a message arrives on this endpoint.
pub fn register_reader(w: &mut World, e: EpId, p: ProcId) {
    let ep = ep_mut(w, e);
    if !ep.readers.contains(&p) {
        ep.readers.push(p);
    }
}

/// Register `p` to be woken when send space frees or association state
/// changes on this endpoint: a SACK that frees any space wakes it. Clears
/// every need [`register_writer_for`] recorded on the endpoint.
pub fn register_writer(w: &mut World, e: EpId, p: ProcId) {
    let ep = ep_mut(w, e);
    for ak in &mut ep.assocs {
        ak.writer_need = 0;
    }
    add_writer(ep, p);
}

/// Register `p` as a writer that needs `need` bytes of free send space on
/// `a` before it can move there: a SACK on `a` that leaves less wakes
/// nobody. `u64::MAX` means nothing waits on `a`. State changes and PR-SCTP
/// abandonment wake the endpoint's writers whatever the need.
pub fn register_writer_for(w: &mut World, a: AssocId, need: u64, p: ProcId) {
    let ep = ep_mut(w, a.endpoint());
    ep.assocs[a.idx as usize].writer_need = need;
    add_writer(ep, p);
}

fn add_writer(ep: &mut Endpoint, p: ProcId) {
    if !ep.writers.contains(&p) {
        ep.writers.push(p);
    }
}

/// Graceful shutdown (no half-closed state: both directions end, §3.5.2).
pub fn shutdown(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let state = assoc_ref(w, a).state;
    if state != AssocState::Established {
        return;
    }
    assoc_mut(w, a).state = AssocState::ShutdownPending;
    maybe_progress_shutdown(w, ctx, a);
}

/// Manually set the primary path (sockopt equivalent).
pub fn set_primary(w: &mut World, a: AssocId, path: u8) {
    let ak = assoc_mut(w, a);
    assert!((path as usize) < ak.paths.len());
    ak.primary = path;
}

// ---------------------------------------------------------------------------
// Packet construction / transmission
// ---------------------------------------------------------------------------

/// Build the wire packet for `chunks` and charge the per-packet sender
/// stats; emission is the caller's business (immediate, CRC-delayed, or
/// buffered into a train).
fn build_packet(w: &mut World, ctx: &mut Wx, a: AssocId, path: u8, vtag: u64, chunks: Vec<Chunk>) -> Packet {
    let ak = assoc_mut(w, a);
    ak.stats.packets_out += 1;
    ak.stats.per_path_pkts[(path as usize).min(MAX_PATHS - 1)] += 1;
    let src = ak.local_addr(a.host, path);
    let dst = ak.peer_addr(path);
    let (sp, dp) = (ak.local_port, ak.peer_port);
    ak.paths[path as usize].last_used = ctx.now();
    Packet { src, dst, body: Proto::Sctp(SctpPacket { src_port: sp, dst_port: dp, vtag, chunks }) }
}

pub(super) fn send_packet(w: &mut World, ctx: &mut Wx, a: AssocId, path: u8, vtag: u64, chunks: Vec<Chunk>) {
    let cfg = cfg_of(w, a.host);
    let pkt = build_packet(w, ctx, a, path, vtag, chunks);
    if cfg.crc_enabled {
        // Model the CRC32c CPU cost (§3.6): sender computes, receiver
        // verifies — charge both as added latency proportional to size.
        let bytes = match &pkt.body {
            Proto::Sctp(p) => p.wire_len() as u64,
            _ => unreachable!(),
        };
        let delay = Dur::from_nanos(2 * bytes); // ~1 ns/B each side
        ctx.schedule_in(delay, move |w: &mut World, ctx: &mut Wx| ip::send(w, ctx, pkt));
    } else {
        ip::send(w, ctx, pkt);
    }
}

/// Build a SACK chunk from receiver state. The gap-block list comes from
/// the world's pool (the receiver of the SACK retires it).
fn make_sack(
    ak: &mut Assoc,
    pool: &mut crate::pool::Pools,
    rcvbuf: u64,
    max_gaps: usize,
) -> Chunk {
    let mut gaps = pool.take_gap_vec();
    gaps.extend(ak.rcv.gaps().take(max_gaps));
    ak.sack_pending_pkts = 0;
    ak.sack_immediate = false;
    ak.sack_timer.clear();
    ak.last_advertised_rwnd = ak.a_rwnd(rcvbuf);
    ak.stats.sacks_out += 1;
    Chunk::Sack { cum_tsn: ak.rcv.cum(), a_rwnd: ak.last_advertised_rwnd, gaps }
}

pub(super) fn send_sack_now(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let (sack, path, vtag) = {
        let (ak, pool) = assoc_pool_mut(w, a);
        let path = ak.last_data_path();
        (make_sack(ak, pool, cfg.rcvbuf, cfg.max_gap_blocks), path, ak.peer_tag)
    };
    let mut chunks = w.pool.take_chunk_vec();
    chunks.push(sack);
    send_packet(w, ctx, a, path, vtag, chunks);
}

impl Assoc {
    /// The path to send SACKs on: where the peer's data last arrived, else
    /// the primary.
    fn last_data_path(&self) -> u8 {
        self.primary
    }
}

/// Transmit retransmissions first, then new data, bundling to PMTU,
/// respecting per-path cwnd and the peer's rwnd. Implements the
/// "full PMTU at one byte of cwnd space" rule (§4.1.1).
///
/// The packets of one send opportunity leave as one [`ip::send_train`] per path.
pub(super) fn try_send(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let pr = assoc_ref(w, a).pr_active();
    let abandoned_before = if pr { assoc_ref(w, a).stats.msgs_abandoned } else { 0 };
    if pr {
        // PR-SCTP housekeeping rides the send path: reap queued fragments
        // whose lifetime lapsed before first transmission (lazily,
        // front-of-queue only), then advance the peer past anything
        // abandoned so far.
        let now = ctx.now();
        reap_expired(assoc_mut(w, a), now);
        maybe_send_forward_tsn(w, ctx, a);
    }
    let crc = cfg_of(w, a.host).crc_enabled;
    let pending_before =
        if ctx.tracer().is_some() { assoc_ref(w, a).pending_bytes } else { 0 };
    let mut train = w.pool.take_packet_vec();
    let mut train_path = 0u8;
    try_send_inner(w, ctx, a, crc, &mut train, &mut train_path);
    ip::send_train(w, ctx, train);
    // Flight recorder, sender side: gate the HOL clocks on transmission
    // progress. A pass that moved no queued fragment while fragments
    // remain is a stall (cwnd full / zero rwnd / RTO recovery) — freeze
    // the open sender-HOL episodes so window-closure time is not charged
    // to stream scheduling; a pass that shipped something restarts them.
    if let Some(t) = ctx.tracer() {
        let ak = assoc_ref(w, a);
        let pending_after = ak.pending_bytes;
        if pending_after < pending_before {
            t.hol_snd_stall(ctx.now().as_nanos(), a.host, ak.peer_host, false);
        } else if pending_after > 0 {
            t.hol_snd_stall(ctx.now().as_nanos(), a.host, ak.peer_host, true);
        }
    }
    if pr {
        // Retransmission-time abandonment inside the loop above may have
        // moved the Advanced.Peer.Ack.Point; tell the peer now rather than
        // waiting for the next send opportunity.
        maybe_send_forward_tsn(w, ctx, a);
        wake_writers_after_abandon(w, ctx, a, abandoned_before);
    }
}

/// PR-SCTP: abandonment frees send-buffer space without any SACK arriving
/// to trigger the usual writer wake in `process_sack` — a sender blocked on
/// a full buffer would sleep forever while heartbeats keep the association
/// (and the simulation) alive. Wake blocked writers whenever a call
/// abandoned anything, whatever their recorded need; a spurious wake is
/// benign (a still-blocked sender re-checks and re-registers).
pub(super) fn wake_writers_after_abandon(w: &mut World, ctx: &mut Wx, a: AssocId, abandoned_before: u64) {
    if assoc_ref(w, a).stats.msgs_abandoned == abandoned_before {
        return;
    }
    let ep = ep_mut(w, a.endpoint());
    ctx.wake_all(&ep.writers);
    ep.writers.clear();
}

fn try_send_inner(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    crc: bool,
    train: &mut Vec<Packet>,
    train_path: &mut u8,
) {
    let cfg = cfg_of(w, a.host);
    let mut burst = 0u32;
    // CMT: Max.Burst is accounted per destination (see
    // [`cmt_pick_path_burst`]); the association-wide `burst` counter still
    // runs but its gate widens to paths × Max.Burst.
    let mut burst_on = [0u32; MAX_PATHS];
    let burst_cap = if cfg.cmt { cfg.max_burst * cfg.num_paths.max(1) as u32 } else { cfg.max_burst };
    loop {
        // Max.Burst (RFC 4960 §6.1): at most this many packets per send
        // opportunity; the next SACK re-opens the gate (ACK clocking).
        if burst >= burst_cap {
            return;
        }
        // Taken from the pool only once something is known to go out, so a
        // pass that sends nothing costs the pool nothing.
        let mut packet;
        let path;
        let vtag;
        {
            let (ak, pool) = assoc_pool_mut(w, a);
            if !tx_open(ak) {
                return;
            }
            vtag = ak.peer_tag;
            let mut budget = PACKET_BUDGET;

            // Piggyback a pending SACK on outbound data.
            let want_sack = ak.sack_immediate || ak.sack_pending_pkts > 0;

            // Phase 1: marked retransmissions (cwnd-limited on the rtx path).
            // Under CMT one burst iteration serves one path — the own path
            // of the lowest marked TSN (RTX-SAME, see `reemit_marked`) — and
            // later iterations (or the next SACK) pick up the rest.
            let rtx_path = if cfg.cmt {
                ak.rtx_queue
                    .first()
                    .map(|&t| {
                        let c = ak.sent.get(t).expect("rtx_queue entries are in sent");
                        cmt_rtx_target(ak, c.path)
                    })
                    .unwrap_or(ak.primary)
            } else {
                ak.rtx_path()
            };
            let has_marked =
                !ak.rtx_queue.is_empty() && burst_on[rtx_path as usize] < cfg.max_burst;
            if has_marked && ak.paths[rtx_path as usize].flight < ak.paths[rtx_path as usize].cwnd {
                path = rtx_path;
                packet = pool.take_chunk_vec();
                if want_sack {
                    budget -= make_sack_placeholder_len(ak);
                    let sack = make_sack(ak, pool, cfg.rcvbuf, cfg.max_gap_blocks);
                    packet.push(sack);
                }
                reemit_marked(ak, &cfg, ctx.now(), path, &mut budget, &mut packet);
            } else if !ak.q_is_empty() {
                // Phase 2: new data. Normally on the primary path; with CMT
                // enabled, pick the active path with the most free cwnd,
                // striping the association's data across all networks.
                path = if cfg.cmt {
                    cmt_pick_path_burst(ak, &burst_on, cfg.max_burst)
                } else {
                    ak.primary
                };
                // Peek the scheduler's next fragment.
                let front_len = ak.q_front().map(|(_, pc)| pc.data.len() as u64).unwrap_or(0);
                let p = &ak.paths[path as usize];
                let cwnd_ok = p.flight < p.cwnd; // the 1-byte rule
                // RFC 4960 §6.1.A: regardless of rwnd, one DATA chunk may
                // always be in flight — the probe that recovers from a
                // window-update SACK lost in transit.
                let probe_ok = ak.outstanding_bytes == 0;
                let rwnd_ok = ak.peer_rwnd >= front_len;
                if !cwnd_ok || !(rwnd_ok || probe_ok) {
                    return;
                }
                packet = pool.take_chunk_vec();
                if want_sack {
                    budget -= make_sack_placeholder_len(ak);
                    let sack = make_sack(ak, pool, cfg.rcvbuf, cfg.max_gap_blocks);
                    packet.push(sack);
                }
                let now = ctx.now();
                let interleave = ak.interleaving();
                let mut sent_any_probe = false;
                loop {
                    let (qsid, len, clen) = {
                        let Some((qsid, front)) = ak.q_front() else { break };
                        (qsid, front.data.len() as u64, chunk_wire_len(interleave, &front.data))
                    };
                    if clen > budget {
                        break;
                    }
                    if ak.peer_rwnd < len && (ak.outstanding_bytes != 0 || sent_any_probe) {
                        break;
                    }
                    let pc = ak.q_pop(qsid).expect("q_front peeked this fragment");
                    // Flight recorder, sender side: this stream got its
                    // turn on the wire — close any open sender-HOL episode
                    // (message-granular: begin fragments only).
                    if pc.begin {
                        if let Some(t) = ctx.tracer() {
                            t.hol_update(
                                now.as_nanos(),
                                a.host,
                                ak.peer_host,
                                pc.stream,
                                trace::HolSide::Snd,
                                false,
                                0,
                            );
                        }
                    }
                    let tsn = ak.next_tsn;
                    ak.next_tsn += 1;
                    budget -= clen;
                    ak.pending_bytes -= len;
                    ak.outstanding_bytes += len;
                    ak.peer_rwnd = ak.peer_rwnd.saturating_sub(len);
                    ak.paths[path as usize].flight += len;
                    if ak.peer_rwnd == 0 {
                        sent_any_probe = true;
                    }
                    if ak.rtt_probe.is_none() {
                        ak.rtt_probe = Some(tsn);
                    }
                    ak.stats.data_chunks_out += 1;
                    ak.stats.bytes_out += len;
                    let sc = SentChunk {
                        stream: pc.stream,
                        ssn: pc.ssn,
                        begin: pc.begin,
                        end: pc.end,
                        ppid: pc.ppid,
                        data: pc.data,
                        path,
                        sent_at: now,
                        txcount: 1,
                        missing: 0,
                        acked: false,
                        marked_rtx: false,
                        fsn: pc.fsn,
                        expires: pc.expires,
                        abandoned: false,
                    };
                    packet.push(data_chunk_for(interleave, tsn, &sc));
                    ak.sent.push(tsn, sc);
                    note_assign(ak, &cfg, path, tsn);
                    // Stop bundling if cwnd exhausted (1-byte rule applies
                    // per packet, not per chunk beyond the first).
                    if ak.paths[path as usize].flight >= ak.paths[path as usize].cwnd {
                        break;
                    }
                }
            } else {
                return;
            }
        }
        if packet.is_empty() {
            w.pool.put_chunk_vec(packet);
            return; // nothing fit, and no pending SACK was consumed either
        }
        let has_data = packet.iter().any(|c| matches!(c, Chunk::Data(_) | Chunk::IData(_)));
        if crc {
            // CRC cost model delays each packet individually; no train.
            send_packet(w, ctx, a, path, vtag, packet);
        } else {
            if !train.is_empty() && *train_path != path {
                let flush = std::mem::replace(train, w.pool.take_packet_vec());
                ip::send_train(w, ctx, flush);
            }
            let pkt = build_packet(w, ctx, a, path, vtag, packet);
            *train_path = path;
            train.push(pkt);
        }
        burst += 1;
        burst_on[(path as usize).min(MAX_PATHS - 1)] += 1;
        // A SACK-only packet can happen when the pending SACK's budget
        // reservation leaves no room for a full-size DATA chunk: flush the
        // SACK and loop — the next packet carries the data. Returning here
        // would strand the pending queue with nothing left to re-trigger
        // this function.
        if has_data {
            ensure_t3(w, ctx, a, &cfg, path);
        }
    }
}

/// Put marked chunks back on the wire toward `path`, lowest TSN first, for
/// as long as `budget` lasts: the one re-emit loop behind both the
/// cwnd-limited send pass and the cwnd-ignoring fast-retransmit burst.
///
/// CMT keeps each retransmission on the chunk's own path (RTX-SAME): moving
/// chunks between paths would corrupt the per-path pseudo-cumack and SFR
/// accounting the scheduler depends on, so chunks whose target is another
/// path are left for that path's turn.
pub(super) fn reemit_marked(
    ak: &mut Assoc,
    cfg: &SctpCfg,
    now: simcore::SimTime,
    path: u8,
    budget: &mut u32,
    packet: &mut Vec<Chunk>,
) {
    let interleave = ak.interleaving();
    let pr = ak.pr_active();
    // `rtx_queue` holds exactly the marked, unacked TSNs, so no scan of
    // `sent` is needed. Walk it by cursor, not by iterator: the loop removes
    // entries as chunks go back on the wire, and abandoning one chunk
    // (PR-SCTP) removes its whole message.
    let mut next = 0;
    while let Some(&tsn) = ak.rtx_queue.range(next..).next() {
        next = tsn + 1;
        let c = ak.sent.get(tsn).expect("rtx_queue entries are in sent");
        if cfg.cmt && cmt_rtx_target(ak, c.path) != path {
            continue;
        }
        // PR-SCTP: lifetime lapsed while queued for retransmission →
        // abandon the message, never resend.
        if pr && c.expires.is_some_and(|e| now > e) {
            let (s, n) = (c.stream, c.ssn);
            abandon_message(ak, s, n);
            continue;
        }
        let c = ak.sent.get_mut(tsn).expect("rtx_queue entries are in sent");
        let clen = chunk_wire_len(interleave, &c.data);
        if clen > *budget {
            break;
        }
        *budget -= clen;
        c.marked_rtx = false;
        c.missing = 0;
        c.txcount += 1;
        c.sent_at = now;
        // The chunk left the flight when it was marked; it re-enters on
        // the retransmission path.
        c.path = path;
        let len = c.data.len() as u64;
        packet.push(data_chunk_for(interleave, tsn, c));
        ak.rtx_queue.remove(&tsn);
        ak.stats.retransmits += 1;
        note_assign(ak, cfg, path, tsn);
        ak.paths[path as usize].flight += len;
        ak.rtt_probe = None; // Karn
    }
}

/// Bytes a (I-)DATA chunk carrying `data` takes on the wire: header plus
/// payload padded to 4.
fn chunk_wire_len(interleave: bool, data: &Bytes) -> u32 {
    (if interleave { 20 } else { 16 }) + (data.len() as u32).div_ceil(4) * 4
}

/// May DATA or FORWARD-TSN go on the wire in this state?
fn tx_open(ak: &Assoc) -> bool {
    matches!(
        ak.state,
        AssocState::Established | AssocState::ShutdownPending | AssocState::ShutdownReceived
    )
}

fn make_sack_placeholder_len(ak: &Assoc) -> u32 {
    16 + 4 * ak.rcv.num_gaps() as u32
}

/// Rebuild the wire chunk for a sent fragment: I-DATA when interleaving was
/// negotiated, classic DATA otherwise (the `Bytes` clone is a refcount
/// bump, not a copy).
fn data_chunk_for(interleave: bool, tsn: u64, c: &SentChunk) -> Chunk {
    if interleave {
        Chunk::IData(IDataChunk {
            tsn,
            stream: c.stream,
            mid: c.ssn as u64,
            fsn: c.fsn,
            begin: c.begin,
            end: c.end,
            unordered: false,
            ppid: c.ppid,
            data: c.data.clone(),
        })
    } else {
        Chunk::Data(DataChunk {
            tsn,
            stream: c.stream,
            ssn: c.ssn,
            begin: c.begin,
            end: c.end,
            unordered: false,
            ppid: c.ppid,
            data: c.data.clone(),
        })
    }
}

/// PR-SCTP: abandon every fragment of message `(stream, ssn)`. Sent chunks
/// become `acked && abandoned` — acked so the flight/rtx-queue/floor
/// invariants hold without a special case anywhere in SACK processing,
/// abandoned so `adv_peer_ack` knows to put them in a FORWARD-TSN's skip
/// list.
///
/// Queued (never-sent) fragments leave the send queue but are *assigned
/// TSNs* and recorded as `acked && abandoned` phantoms (RFC 3758 §3.5 C2:
/// unsent fragments of an abandoned message still consume sequence space).
/// The message's SSN was consumed at `sendmsg` time — without a TSN the
/// FORWARD-TSN machinery could never tell the peer to skip that SSN, and
/// the peer's ordered-delivery gate would wait on it forever.
fn abandon_message(ak: &mut Assoc, stream: u16, ssn: u32) {
    let Assoc {
        sent,
        rtx_queue,
        paths,
        outstanding_bytes,
        out_q,
        queued,
        pending_bytes,
        next_tsn,
        stats,
        ..
    } = ak;
    for (tsn, c) in sent.range_mut(..) {
        if c.stream != stream || c.ssn != ssn || c.abandoned {
            continue;
        }
        if !c.acked {
            let len = c.data.len() as u64;
            *outstanding_bytes = outstanding_bytes.saturating_sub(len);
            if c.marked_rtx {
                rtx_queue.remove(&tsn);
            } else {
                paths[c.path as usize].flight = paths[c.path as usize].flight.saturating_sub(len);
            }
            c.acked = true;
            c.marked_rtx = false;
        }
        c.abandoned = true;
    }
    let mut dropped = 0u64;
    out_q[stream as usize].retain(|pc| {
        if pc.ssn != ssn {
            return true;
        }
        dropped += pc.data.len() as u64;
        *queued -= 1;
        let tsn = *next_tsn;
        *next_tsn += 1;
        sent.push(
            tsn,
            SentChunk {
                stream: pc.stream,
                ssn: pc.ssn,
                begin: pc.begin,
                end: pc.end,
                ppid: pc.ppid,
                data: bytes::Bytes::new(), // never transmitted
                path: 0,
                sent_at: simcore::SimTime::ZERO,
                txcount: 0,
                missing: 0,
                acked: true,
                marked_rtx: false,
                fsn: pc.fsn,
                expires: pc.expires,
                abandoned: true,
            },
        );
        false
    });
    *pending_bytes = pending_bytes.saturating_sub(dropped);
    stats.msgs_abandoned += 1;
}

/// PR-SCTP: abandon queued messages whose lifetime lapsed before their
/// first transmission. Lazy and front-of-queue only: with interleaving every
/// stream's front, O(streams) per send opportunity; without it only the
/// fragment FCFS sends next. A fragment buried deeper gets the same check
/// when it reaches the front (or, once sent, at retransmission time).
fn reap_expired(ak: &mut Assoc, now: simcore::SimTime) {
    if !ak.pr_active() {
        return;
    }
    let expired = |pc: &PendingChunk| pc.expires.is_some_and(|e| now > e).then_some((pc.stream, pc.ssn));
    if ak.interleaving() {
        for sid in 0..ak.out_q.len() {
            while let Some((s, n)) = ak.out_q[sid].front().and_then(expired) {
                abandon_message(ak, s, n);
            }
        }
    } else {
        while let Some((s, n)) = ak.q_front().and_then(|(_, pc)| expired(pc)) {
            abandon_message(ak, s, n);
        }
    }
}

/// Emit a FORWARD-TSN when the Advanced.Peer.Ack.Point (RFC 3758 §3.5)
/// moved past the last one sent. With nothing else outstanding, the T3 of
/// the scope it left on is armed to guard the chunk itself — its loss leaves
/// no data in flight to clock a resend (see the drained branch of `on_t3`).
fn maybe_send_forward_tsn(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let (chunk, vtag, path) = {
        let ak = assoc_mut(w, a);
        if !ak.pr_active() || !tx_open(ak) {
            return;
        }
        let Some((point, skips)) = ak.adv_peer_ack() else { return };
        if point <= ak.fwd_sent {
            return;
        }
        ak.fwd_sent = point;
        ak.stats.fwd_tsn_out += 1;
        (Chunk::ForwardTsn { new_cum: point, skips }, ak.peer_tag, ak.primary)
    };
    send_packet(w, ctx, a, path, vtag, vec![chunk]);
    let scope = scope_of(&cfg, path);
    let ak = assoc_ref(w, a);
    if ak.outstanding_bytes == 0 && !ak.rec(scope).t3_timer.is_set() {
        arm_t3(w, ctx, a, scope, false);
    }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

/// The recovery scope guarding chunks sent to `path`: the association as a
/// whole, or — under CMT — that destination alone. There a timeout is a
/// *path* event, and concurrent losses on different paths must recover in
/// parallel instead of serialising behind one association-wide timer's
/// exponential backoff.
pub(super) fn scope_of(cfg: &SctpCfg, path: u8) -> Scope {
    cfg.cmt.then_some(path)
}

/// Every recovery scope of an association with `n_paths` paths.
pub(super) fn scopes(cfg: &SctpCfg, n_paths: usize) -> impl Iterator<Item = Scope> + '_ {
    (0..if cfg.cmt { n_paths } else { 1 }).map(|p| scope_of(cfg, p as u8))
}

/// Nothing `scope`'s T3 guards is outstanding (per destination: as of the
/// last pseudo-cumack recomputation).
pub(super) fn scope_drained(ak: &Assoc, scope: Scope) -> bool {
    match scope {
        None => ak.outstanding_bytes == 0,
        Some(p) => ak.paths[p as usize].pseudo_cumack == u64::MAX,
    }
}

/// Path of the earliest unacked chunk. Advances `unacked_floor` past the
/// acked prefix while looking, so repeated calls skip already-scanned TSNs:
/// `acked` never reverts, which keeps the cursor monotone and the total
/// scan work across an association's lifetime linear in chunks sent.
fn earliest_outstanding_path(ak: &mut Assoc) -> u8 {
    let hit = ak.sent.range(ak.unacked_floor..).find(|(_, c)| !c.acked);
    match hit {
        Some((tsn, c)) => {
            ak.unacked_floor = tsn;
            c.path
        }
        None => {
            ak.unacked_floor = ak.next_tsn;
            ak.primary
        }
    }
}

/// Floor on the rescue-probe deadline: keeps micro-RTT jitter from
/// re-arming the probe every few microseconds.
const RESCUE_PTO_FLOOR: simcore::Dur = simcore::Dur::from_micros(200);

/// Data just left on `path`: make sure the T3 guarding it is running.
pub(super) fn ensure_t3(w: &mut World, ctx: &mut Wx, a: AssocId, cfg: &SctpCfg, path: u8) {
    let scope = scope_of(cfg, path);
    if !assoc_ref(w, a).rec(scope).t3_timer.is_set() {
        arm_t3(w, ctx, a, scope, true);
    }
}

/// Arm the T3-rtx timer of `scope`. The association-wide timer runs on the
/// RTO of the earliest outstanding chunk's path; a destination's timer on
/// its own.
///
/// A `fresh` arm of a per-destination timer (new data sent, or the path's
/// pseudo-cumack advanced) schedules a *rescue probe* at ~2·SRTT rather
/// than the full RTO: a ping-pong tail loss has no later same-path traffic
/// to generate SFR strikes, so without the probe it can only wait out
/// RTO.min (a full second on a 40 µs LAN). `fresh = false` rearms preserve
/// the current phase — after a probe fires, the next deadline is the real
/// RTO.
pub(super) fn arm_t3(w: &mut World, ctx: &mut Wx, a: AssocId, scope: Scope, fresh: bool) {
    let ak = assoc_mut(w, a);
    let path = scope.unwrap_or_else(|| earliest_outstanding_path(ak));
    let rec = ak.rec_mut(scope);
    rec.t3_rescue |= fresh && scope.is_some();
    let rescue = rec.t3_rescue;
    let rto = &ak.paths[path as usize].rto;
    let mut d = rto.current();
    if rescue {
        // A path that has not produced an RTT sample yet (first chunks of
        // slow start) borrows the smallest sibling estimate, the way MPTCP
        // subflows share one smoothed RTT: a loss there would otherwise sit
        // out the full 3 s initial RTO while the reordering window fills
        // rwnd and stalls every other path behind it.
        let borrowed = || {
            ak.paths
                .iter()
                .filter_map(|q| q.rto.srtt().map(|s| (s, q.rto.rttvar())))
                .min_by_key(|(s, _)| s.as_nanos())
        };
        if let Some((srtt, rttvar)) = rto.srtt().map(|s| (s, rto.rttvar())).or_else(borrowed) {
            d = (srtt * 2 + rttvar * 4).max(RESCUE_PTO_FLOOR).min(d);
        }
    }
    if ctx.tracing() {
        ctx.trace_emit(trace::Event::RtoArm(trace::RtoArmEv {
            proto: trace::Proto8::Sctp,
            host: a.host,
            peer: ak.peer_host,
            path,
            rto_ns: d.as_nanos(),
            srtt_ns: rto.srtt().map_or(-1, |x| x.as_nanos() as i64),
            rttvar_ns: rto.rttvar().as_nanos() as i64,
        }));
    }
    ak.rec_mut(scope).t3_timer.set(ctx, d, Timer::T3(a, scope));
}

/// Consecutive timeouts before the whole association fails.
const ASSOC_MAX_RETRANS: u32 = 10;

/// T3-rtx expiry for `scope`. The association-wide timer penalises the
/// earliest outstanding chunk's path and re-marks the whole window. A
/// destination's timer penalises and re-marks only its own stripe: the
/// other destinations' flights are healthy — yanking them would collapse
/// the whole aggregate on every single-path incident.
pub(crate) fn on_t3(w: &mut World, ctx: &mut Wx, a: AssocId, scope: Scope) {
    let cfg = cfg_of(w, a.host);
    let pmtu = PMTU as u64;
    let now = ctx.now();
    let ak = assoc_mut(w, a);
    if !ak.rec_mut(scope).t3_timer.expired(ctx, Timer::T3(a, scope)) {
        return;
    }
    if let Some(p) = scope {
        // Chunks leave a path by being re-striped elsewhere, which no SACK
        // tells this timer about: look again before judging it drained.
        ak.paths[p as usize].pseudo_cumack = cmt_earliest_on(ak, p as usize).unwrap_or(u64::MAX);
    }
    if scope_drained(ak, scope) {
        let rec = ak.rec_mut(scope);
        rec.t3_timer.clear();
        rec.t3_rescue = false;
        // PR-SCTP: nothing outstanding but an unconfirmed FORWARD-TSN — its
        // loss leaves no data in flight to clock a resend, so the timer is
        // the only recovery. Reset the dedup point and re-emit (`try_send`
        // arms a fresh T3 via `maybe_send_forward_tsn`). No cwnd or error
        // penalty: the path carried no data to lose.
        if ak.outstanding_bytes == 0
            && ak.pr_active()
            && ak.adv_peer_ack().is_some_and(|(p, _)| p > ak.peer_cum)
        {
            ak.fwd_sent = 0;
            try_send(w, ctx, a);
        }
        return;
    }
    let p = scope.unwrap_or_else(|| earliest_outstanding_path(ak));
    if std::mem::take(&mut ak.rec_mut(scope).t3_rescue) {
        // Rescue probe: re-queue this path's aged chunks for
        // retransmission with NO cwnd collapse, backoff, or error
        // counting — the path is presumed healthy and the loss random.
        // Chunks already transmitted twice are left to the real RTO so
        // a dead receiver can't turn the probe into a 2·SRTT resend
        // storm.
        // Like TCP's tail-loss probe, exactly ONE segment is probed —
        // the path's lowest outstanding TSN. If its retransmission is
        // SACKed, the pseudo-cumack advances and re-arms a fresh probe
        // for the next hole; marking the whole aged flight here instead
        // turns one stall into a duplicate-retransmission burst that
        // overflows bottleneck queues.
        // The probe is now spent (even if nothing qualifies): the next
        // deadline on this path is the real RTO. A SACK that advances the
        // pseudo-cumack re-arms fresh and re-enables the probe.
        let srtt = ak.paths[p as usize].rto.srtt().unwrap_or(simcore::Dur::ZERO);
        let floor = ak.paths[p as usize].cumack_floor;
        for (tsn, c) in ak.sent.range_mut(floor..) {
            if c.path != p || c.acked || c.marked_rtx || c.txcount > 2 {
                continue;
            }
            if now.since(c.sent_at).as_nanos() > srtt.as_nanos() {
                ak.paths[p as usize].flight =
                    ak.paths[p as usize].flight.saturating_sub(c.data.len() as u64);
                c.marked_rtx = true;
                c.missing = 0;
                ak.rtx_queue.insert(tsn);
                ak.stats.rescue_rtx += 1;
            }
            break;
        }
    } else {
        ak.stats.timeouts += 1;
        ak.assoc_errors += 1;
        let ps = &mut ak.paths[p as usize];
        ps.rto.backoff();
        ps.ssthresh = (ps.cwnd / 2).max(4 * pmtu);
        ps.cwnd = pmtu;
        ps.partial_bytes_acked = 0;
        // Fail over only on taking the primary down now; one found down later
        // (no alternate was alive then) is moved by the next heartbeat.
        if path_strike(ps, &cfg) && ak.primary == p {
            failover_primary(ak, now);
        }
        if ak.assoc_errors > ASSOC_MAX_RETRANS {
            fail_assoc(w, ctx, a);
            return;
        }
        // Mark everything the scope guards for retransmission; marked
        // chunks leave the flight so the cwnd=1·PMTU restart can actually
        // retransmit them. Everything below the scope's rescan floor is
        // already acked, so the walk starts at the cursor instead of the
        // window's base.
        let floor = scope.map_or(ak.unacked_floor, |p| ak.paths[p as usize].cumack_floor);
        let mut marked = 0u32;
        for (tsn, c) in ak.sent.range_mut(floor..) {
            if c.acked || scope.is_some_and(|p| c.path != p) {
                continue;
            }
            if !c.marked_rtx {
                let flight = &mut ak.paths[c.path as usize].flight;
                *flight = flight.saturating_sub(c.data.len() as u64);
            }
            c.marked_rtx = true;
            c.missing = 0;
            ak.rtx_queue.insert(tsn);
            marked += 1;
        }
        ak.rec_mut(scope).fast_recovery = None;
        ak.rtt_probe = None;
        if ctx.tracing() {
            ctx.trace_emit(trace::Event::RtoFire(trace::RtoFireEv {
                proto: trace::Proto8::Sctp,
                host: a.host,
                peer: ak.peer_host,
                path: p,
                backoff: ak.paths[p as usize].rto.backoff_shift(),
                marked,
            }));
            trace_cwnd(ctx, a.host, ak.peer_host, p, &ak.paths[p as usize]);
        }
    }
    check_flight(ak, "on_t3", now);
    try_send(w, ctx, a); // retransmits the first PMTU immediately (cwnd = 1 PMTU)
    arm_t3(w, ctx, a, scope, false);
}

/// Charge one unanswered retransmission or heartbeat to a path; past
/// `path_max_retrans` the path goes inactive. True when this strike is the
/// one that took it down.
fn path_strike(ps: &mut PathState, cfg: &SctpCfg) -> bool {
    ps.error_count = (ps.error_count + 1).min(cfg.path_max_retrans + 1);
    let down = ps.error_count > cfg.path_max_retrans && ps.active;
    if down {
        ps.active = false;
    }
    down
}

/// Failover: with the primary inactive, the first active path takes over.
fn failover_primary(ak: &mut Assoc, now: simcore::SimTime) {
    if ak.paths[ak.primary as usize].active {
        return;
    }
    if let Some(np) = ak.paths.iter().position(|ps| ps.active) {
        ak.primary = np as u8;
        ak.stats.failovers += 1;
        if ak.stats.first_failover_ns == 0 {
            ak.stats.first_failover_ns = now.as_nanos();
        }
    }
}

pub(super) fn arm_sack_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let ak = assoc_mut(w, a);
    if !ak.sack_timer.is_set() {
        ak.sack_timer.set(ctx, SACK_DELAY, Timer::Sack(a));
    }
}

pub(crate) fn on_sack_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let ak = assoc_mut(w, a);
    if !ak.sack_timer.expired(ctx, Timer::Sack(a)) {
        return;
    }
    ak.sack_timer.clear();
    if ak.sack_pending_pkts > 0 {
        send_sack_now(w, ctx, a);
    }
}

fn arm_heartbeat(w: &mut World, ctx: &mut Wx, a: AssocId, path: u8) {
    let cfg = cfg_of(w, a.host);
    let Some(interval) = cfg.heartbeat_interval else { return };
    assoc_mut(w, a).paths[path as usize].hb_timer.set(ctx, interval, Timer::Hb(a, path));
}

pub(crate) fn on_heartbeat(w: &mut World, ctx: &mut Wx, a: AssocId, path: u8) {
    let cfg = cfg_of(w, a.host);
    // Drawn before the wake is known to be the expiry: an association that
    // left Established still consumes one nonce per heartbeat wake.
    let nonce: u64 = draw_nonce(ctx, &cfg);
    let vtag = {
        let ak = assoc_mut(w, a);
        if !ak.paths[path as usize].hb_timer.expired(ctx, Timer::Hb(a, path))
            || ak.state != AssocState::Established
        {
            return;
        }
        let ps = &mut ak.paths[path as usize];
        // Previous heartbeat unanswered → path error.
        if ps.hb_nonce.is_some() {
            path_strike(ps, &cfg);
        }
        ps.hb_nonce = Some(nonce);
        failover_primary(ak, ctx.now());
        ak.peer_tag
    };
    send_packet(w, ctx, a, path, vtag, vec![Chunk::Heartbeat { path, nonce }]);
    arm_heartbeat(w, ctx, a, path);
}

fn arm_autoclose(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let Some(d) = cfg.autoclose else { return };
    assoc_mut(w, a).autoclose_timer.set(ctx, d, Timer::Autoclose(a));
}

pub(crate) fn on_autoclose(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let d = cfg.autoclose.unwrap();
    let idle_out = {
        let ak = assoc_mut(w, a);
        if !ak.autoclose_timer.expired(ctx, Timer::Autoclose(a)) || ak.state != AssocState::Established {
            return;
        }
        let idle = ctx.now().since(ak.last_traffic);
        idle >= d && ak.outstanding_bytes == 0 && ak.q_is_empty()
    };
    if idle_out {
        shutdown(w, ctx, a);
    } else {
        arm_autoclose(w, ctx, a);
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

fn send_init(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let (chunk, path) = {
        let ak = assoc_mut(w, a);
        (
            Chunk::Init {
                init_tag: ak.local_tag,
                a_rwnd: cfg.rcvbuf,
                out_streams: cfg.out_streams,
                in_streams: cfg.out_streams,
                init_tsn: 1,
                ext_flags: cfg.ext_offer(),
            },
            ak.primary,
        )
    };
    {
        let ak = assoc_mut(w, a);
        ak.hs_sent_at = if ak.init_retries == 0 { Some(ctx.now()) } else { None };
    }
    // INIT goes out with vtag 0.
    send_packet(w, ctx, a, path, 0, vec![chunk]);
    arm_init_timer(w, ctx, a);
}

fn send_cookie_echo(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let (cookie, vtag, path) = {
        let ak = assoc_mut(w, a);
        ak.hs_sent_at = if ak.init_retries == 0 { Some(ctx.now()) } else { None };
        (ak.cookie.expect("cookie present in CookieEchoed"), ak.peer_tag, ak.primary)
    };
    send_packet(w, ctx, a, path, vtag, vec![Chunk::CookieEcho { cookie }]);
    arm_init_timer(w, ctx, a);
}

fn arm_init_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let ak = assoc_mut(w, a);
    let d = ak.paths[ak.primary as usize].rto.current();
    ak.init_timer.set(ctx, d, Timer::Init(a));
}

/// INIT / COOKIE-ECHO retransmission limit.
const MAX_INIT_RETRANS: u32 = 8;

pub(crate) fn on_init_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let state = {
        let ak = assoc_mut(w, a);
        let handshaking = matches!(ak.state, AssocState::CookieWait | AssocState::CookieEchoed);
        if !ak.init_timer.expired(ctx, Timer::Init(a)) || !handshaking {
            return;
        }
        ak.init_retries += 1;
        if ak.init_retries > MAX_INIT_RETRANS {
            AssocState::Aborted
        } else {
            let p = ak.primary;
            ak.paths[p as usize].rto.backoff();
            ak.state
        }
    };
    match state {
        AssocState::Aborted => fail_assoc(w, ctx, a),
        AssocState::CookieWait => send_init(w, ctx, a),
        AssocState::CookieEchoed => send_cookie_echo(w, ctx, a),
        _ => {}
    }
}

/// A passive listener received an INIT: reply statelessly with a signed
/// cookie (no resources reserved — §3.5.2).
#[allow(clippy::too_many_arguments)]
fn handle_init(
    w: &mut World,
    ctx: &mut Wx,
    e: EpId,
    src: IfAddr,
    src_port: u16,
    init_tag: u64,
    a_rwnd: u64,
    out_streams: u16,
    init_tsn: u64,
    peer_ext: u8,
) {
    let cfg = cfg_of(w, e.host);
    let secret = host_secret(w, ctx, e.host);
    let port = ep_ref(w, e).port;
    let local_tag: u64 = draw_tag(ctx, &cfg);
    let cookie = Cookie {
        peer_host: src.host,
        peer_port: src_port,
        local_port: port,
        peer_tag: init_tag,
        local_tag,
        peer_rwnd: a_rwnd,
        peer_init_tsn: init_tsn,
        my_init_tsn: 1,
        out_streams,
        in_streams: cfg.out_streams,
        created_at: ctx.now(),
        // The negotiated set: what the peer offered AND we support. Rides
        // the cookie so the association created at COOKIE-ECHO time knows
        // it without extra listener state.
        ext_flags: peer_ext & cfg.ext_offer(),
        mac: 0,
    }
    .sign(secret);
    let reply = SctpPacket {
        src_port: port,
        dst_port: src_port,
        vtag: init_tag,
        chunks: vec![Chunk::InitAck {
            init_tag: local_tag,
            a_rwnd: cfg.rcvbuf,
            out_streams: cfg.out_streams,
            in_streams: out_streams,
            init_tsn: 1,
            ext_flags: cfg.ext_offer(),
            cookie,
        }],
    };
    // Stateless reply: addressed straight back to the INIT's source.
    let dst = src;
    let from = IfAddr::new(e.host, src.iface);
    ip::send(w, ctx, Packet { src: from, dst, body: Proto::Sctp(reply) });
}

fn handle_init_ack(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    init_tag: u64,
    a_rwnd: u64,
    init_tsn: u64,
    peer_ext: u8,
    cookie: Cookie,
) {
    let cfg = cfg_of(w, a.host);
    {
        let ak = assoc_mut(w, a);
        if ak.state != AssocState::CookieWait {
            return; // duplicate INIT-ACK
        }
        // Extensions usable on this association: peer's offer ∩ ours.
        ak.negotiate(peer_ext & cfg.ext_offer(), cfg.sched);
        // Handshake RTT sample (unretransmitted INITs only).
        if let Some(t0) = ak.hs_sent_at.take() {
            let now = ctx.now();
            let p = ak.primary as usize;
            ak.paths[p].rto.sample(now.since(t0));
        }
        ak.peer_tag = init_tag;
        ak.peer_rwnd = a_rwnd;
        ak.rcv = RcvWindow::new(init_tsn - 1);
        ak.cookie = Some(cookie);
        ak.state = AssocState::CookieEchoed;
        ak.init_retries = 0;
    }
    send_cookie_echo(w, ctx, a);
}

/// Signed-cookie lifetime (staleness check).
const COOKIE_LIFETIME: Dur = Dur::from_secs(60);

fn handle_cookie_echo(w: &mut World, ctx: &mut Wx, e: EpId, src: IfAddr, src_port: u16, cookie: Cookie) {
    let cfg = cfg_of(w, e.host);
    let secret = host_secret(w, ctx, e.host);
    // Verify the signature, then staleness.
    if !cookie.verify(secret) {
        ep_mut(w, e).bad_mac_drops += 1;
        return;
    }
    if ctx.now().since(cookie.created_at) > COOKIE_LIFETIME {
        ep_mut(w, e).stale_cookie_drops += 1;
        return;
    }
    // Duplicate COOKIE-ECHO for an existing association: re-ack.
    if let Some(a) = lookup_peer(w, e, src.host, src_port) {
        let (vtag, path) = {
            let ak = assoc_ref(w, a);
            (ak.peer_tag, ak.primary)
        };
        send_packet(w, ctx, a, path, vtag, vec![Chunk::CookieAck]);
        return;
    }
    // Create the association from cookie contents alone.
    let mut ak = Assoc::new(
        &cfg,
        cookie.local_port,
        src.host,
        src_port,
        cookie.local_tag,
        AssocState::Established,
        cookie.my_init_tsn,
    );
    ak.peer_tag = cookie.peer_tag;
    ak.peer_rwnd = cookie.peer_rwnd;
    ak.rcv = RcvWindow::new(cookie.peer_init_tsn - 1);
    ak.negotiate(cookie.ext_flags, cfg.sched);
    ak.last_traffic = ctx.now();
    let ep = ep_mut(w, e);
    let idx = ep.assocs.len() as u32;
    ep.assocs.push(ak);
    ep.by_peer.insert((src.host, src_port), idx);
    ctx.wake_all(&ep.readers);
    ep.readers.clear();
    let a = AssocId { host: e.host, ep: e.idx, idx };
    let (vtag, path) = {
        let ak = assoc_ref(w, a);
        (ak.peer_tag, ak.primary)
    };
    send_packet(w, ctx, a, path, vtag, vec![Chunk::CookieAck]);
    for p in 0..cfg.num_paths {
        arm_heartbeat(w, ctx, a, p);
    }
    arm_autoclose(w, ctx, a);
}

fn handle_cookie_ack(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    {
        let ak = assoc_mut(w, a);
        if ak.state != AssocState::CookieEchoed {
            return;
        }
        ak.state = AssocState::Established;
        ak.init_timer.clear();
        ak.init_retries = 0;
        // COOKIE-ECHO → COOKIE-ACK round trip as an RTT sample.
        if let Some(t0) = ak.hs_sent_at.take() {
            let now = ctx.now();
            let p = ak.primary as usize;
            ak.paths[p].rto.sample(now.since(t0));
        }
        ak.last_traffic = ctx.now();
    }
    // Wake connect() pollers and flush any data queued before establishment.
    let e = a.endpoint();
    let ep = ep_mut(w, e);
    ctx.wake_all(&ep.writers);
    ep.writers.clear();
    for p in 0..cfg.num_paths {
        arm_heartbeat(w, ctx, a, p);
    }
    arm_autoclose(w, ctx, a);
    try_send(w, ctx, a);
}

fn fail_assoc(w: &mut World, ctx: &mut Wx, a: AssocId) {
    assoc_mut(w, a).state = AssocState::Aborted;
    wake_endpoint(w, ctx, a.endpoint());
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

/// Entry point from the IP layer.
pub fn input(w: &mut World, ctx: &mut Wx, src: IfAddr, dst: IfAddr, pkt: SctpPacket) {
    let host = dst.host;
    let Some(&ep_idx) = w.hosts[host as usize].sctp.by_port.get(&pkt.dst_port) else {
        return; // no socket on this port
    };
    let e = EpId { host, idx: ep_idx };
    let assoc = lookup_peer(w, e, src.host, pkt.src_port);

    // Association-setup chunks travel alone at the head of a packet and
    // are handled before verification-tag checks.
    match pkt.chunks.first() {
        Some(Chunk::Init { init_tag, a_rwnd, out_streams, init_tsn, ext_flags, .. }) => {
            if pkt.vtag == 0 && ep_ref(w, e).listening && assoc.is_none() {
                handle_init(
                    w, ctx, e, src, pkt.src_port, *init_tag, *a_rwnd, *out_streams, *init_tsn,
                    *ext_flags,
                );
            }
            return;
        }
        Some(Chunk::CookieEcho { cookie }) => {
            // Tag must match the one we placed in the cookie.
            if pkt.vtag == cookie.local_tag {
                handle_cookie_echo(w, ctx, e, src, pkt.src_port, *cookie);
            } else {
                ep_mut(w, e).bad_vtag_drops += 1;
            }
            return;
        }
        _ => {}
    }

    let Some(a) = assoc else { return };

    // Verification-tag check (§3.5.2: blocks blind injection and packets
    // from stale associations).
    {
        let ak = assoc_ref(w, a);
        let expect = ak.local_tag;
        if pkt.vtag != expect {
            ep_mut(w, e).bad_vtag_drops += 1;
            return;
        }
    }
    assoc_mut(w, a).stats.packets_in += 1;

    let mut saw_data = false;
    let mut chunks = pkt.chunks;
    for chunk in chunks.drain(..) {
        match chunk {
            Chunk::Init { .. } | Chunk::CookieEcho { .. } => {}
            Chunk::InitAck { init_tag, a_rwnd, init_tsn, ext_flags, cookie, .. } => {
                handle_init_ack(w, ctx, a, init_tag, a_rwnd, init_tsn, ext_flags, cookie);
            }
            Chunk::CookieAck => handle_cookie_ack(w, ctx, a),
            Chunk::Data(d) => {
                saw_data = true;
                handle_data(w, ctx, a, Frag::Data(d));
            }
            Chunk::IData(d) => {
                saw_data = true;
                handle_data(w, ctx, a, Frag::IData(d));
            }
            Chunk::ForwardTsn { new_cum, skips } => {
                // Rides the SACK decision machinery: it moves the receive
                // window like data does.
                saw_data = true;
                handle_forward_tsn(w, ctx, a, new_cum, skips);
            }
            Chunk::Sack { cum_tsn, a_rwnd, gaps, .. } => {
                process_sack(w, ctx, a, cum_tsn, a_rwnd, &gaps);
                w.pool.put_gap_vec(gaps);
            }
            Chunk::Heartbeat { path, nonce } => {
                let (vtag, reply_path) = {
                    let ak = assoc_ref(w, a);
                    (ak.peer_tag, path.min(ak.paths.len() as u8 - 1))
                };
                send_packet(w, ctx, a, reply_path, vtag, vec![Chunk::HeartbeatAck { path, nonce }]);
            }
            Chunk::HeartbeatAck { path, nonce } => {
                let ak = assoc_mut(w, a);
                if let Some(ps) = ak.paths.get_mut(path as usize) {
                    if ps.hb_nonce == Some(nonce) {
                        ps.hb_nonce = None;
                        ps.error_count = 0;
                        ps.active = true;
                        ak.assoc_errors = 0;
                    }
                }
            }
            Chunk::Shutdown { cum_tsn } => {
                process_sack(w, ctx, a, cum_tsn, u64::MAX / 2, &[]);
                handle_shutdown(w, ctx, a);
            }
            Chunk::ShutdownAck => handle_shutdown_ack(w, ctx, a),
            Chunk::ShutdownComplete => {
                let ak = assoc_mut(w, a);
                if ak.state == AssocState::ShutdownAckSent {
                    ak.state = AssocState::Closed;
                    ak.shutdown_timer.clear();
                    wake_endpoint(w, ctx, a.endpoint());
                }
            }
            Chunk::Abort => fail_assoc(w, ctx, a),
        }
    }
    w.pool.put_chunk_vec(chunks);

    if saw_data {
        decide_sack(w, ctx, a);
    }
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

/// Wake every process blocked on this endpoint (state changes).
fn wake_endpoint(w: &mut World, ctx: &mut Wx, e: EpId) {
    let ep = ep_mut(w, e);
    ctx.wake_all(&ep.readers);
    ctx.wake_all(&ep.writers);
    ep.readers.clear();
    ep.writers.clear();
}

pub(super) fn maybe_progress_shutdown(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let (state, drained) = {
        let ak = assoc_ref(w, a);
        (ak.state, ak.outstanding_bytes == 0 && ak.q_is_empty())
    };
    match (state, drained) {
        (AssocState::ShutdownPending, true) => {
            let (cum, vtag, path) = {
                let ak = assoc_mut(w, a);
                ak.state = AssocState::ShutdownSent;
                (ak.rcv.cum(), ak.peer_tag, ak.primary)
            };
            send_packet(w, ctx, a, path, vtag, vec![Chunk::Shutdown { cum_tsn: cum }]);
            arm_shutdown_timer(w, ctx, a);
            wake_endpoint(w, ctx, a.endpoint());
        }
        (AssocState::ShutdownReceived, true) => {
            let (vtag, path) = {
                let ak = assoc_mut(w, a);
                ak.state = AssocState::ShutdownAckSent;
                (ak.peer_tag, ak.primary)
            };
            send_packet(w, ctx, a, path, vtag, vec![Chunk::ShutdownAck]);
            arm_shutdown_timer(w, ctx, a);
            wake_endpoint(w, ctx, a.endpoint());
        }
        _ => {}
    }
}

fn handle_shutdown(w: &mut World, ctx: &mut Wx, a: AssocId) {
    {
        let ak = assoc_mut(w, a);
        match ak.state {
            AssocState::Established | AssocState::ShutdownPending => {
                ak.state = AssocState::ShutdownReceived;
            }
            AssocState::ShutdownSent => {
                // Simultaneous shutdown: answer with SHUTDOWN-ACK.
                ak.state = AssocState::ShutdownReceived;
            }
            _ => return,
        }
    }
    wake_endpoint(w, ctx, a.endpoint());
    maybe_progress_shutdown(w, ctx, a);
}

fn handle_shutdown_ack(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let (vtag, path, proceed) = {
        let ak = assoc_mut(w, a);
        let ok = matches!(ak.state, AssocState::ShutdownSent | AssocState::ShutdownAckSent);
        if ok {
            ak.state = AssocState::Closed;
            ak.shutdown_timer.clear();
        }
        (ak.peer_tag, ak.primary, ok)
    };
    if proceed {
        send_packet(w, ctx, a, path, vtag, vec![Chunk::ShutdownComplete]);
        wake_endpoint(w, ctx, a.endpoint());
    }
}

fn arm_shutdown_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let ak = assoc_mut(w, a);
    let d = ak.paths[ak.primary as usize].rto.current();
    ak.shutdown_timer.set(ctx, d, Timer::Shutdown(a));
}

pub(crate) fn on_shutdown_timer(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let (resend, vtag, path, cum, state) = {
        let ak = assoc_mut(w, a);
        if !ak.shutdown_timer.expired(ctx, Timer::Shutdown(a)) {
            return;
        }
        ak.init_retries += 1;
        if ak.init_retries > ASSOC_MAX_RETRANS {
            (false, 0, 0, 0, ak.state)
        } else {
            let p = ak.primary;
            ak.paths[p as usize].rto.backoff();
            (true, ak.peer_tag, p, ak.rcv.cum(), ak.state)
        }
    };
    if !resend {
        // Give up: close unilaterally.
        assoc_mut(w, a).state = AssocState::Closed;
        return;
    }
    match state {
        AssocState::ShutdownSent => {
            send_packet(w, ctx, a, path, vtag, vec![Chunk::Shutdown { cum_tsn: cum }]);
            arm_shutdown_timer(w, ctx, a);
        }
        AssocState::ShutdownAckSent => {
            send_packet(w, ctx, a, path, vtag, vec![Chunk::ShutdownAck]);
            arm_shutdown_timer(w, ctx, a);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SchedKind, EXT_INTERLEAVE};
    use super::*;

    /// Queue message `ssn` of `frags` fragments on `stream`, as `sendmsg`
    /// does: consecutive `seq`s, one `ssn` for the whole message.
    fn queue_msg(ak: &mut Assoc, stream: u16, ssn: u32, frags: u32) {
        for fsn in 0..frags {
            let seq = ak.msg_seq;
            ak.msg_seq += 1;
            ak.q_push(PendingChunk {
                stream,
                ssn,
                begin: fsn == 0,
                end: fsn + 1 == frags,
                ppid: 0,
                data: Bytes::from(vec![0u8; 100]),
                fsn,
                seq,
                expires: None,
            });
            ak.pending_bytes += 100;
        }
    }

    /// Peek and pop the next fragment, as the send pass does; its `seq`.
    fn pop(ak: &mut Assoc) -> Option<u64> {
        let (sid, _) = ak.q_front()?;
        let pc = ak.q_pop(sid)?;
        ak.pending_bytes -= pc.data.len() as u64;
        Some(pc.seq)
    }

    /// An established association configured for round-robin that
    /// negotiated `ext_flags` with its peer.
    fn rr_assoc(ext_flags: u8) -> Assoc {
        let cfg = SctpCfg { sched: SchedKind::RoundRobin, ..SctpCfg::default() };
        let mut ak = Assoc::new(&cfg, 1, 2, 3, 4, AssocState::Established, 100);
        ak.negotiate(ext_flags, cfg.sched);
        ak
    }

    #[test]
    fn forced_fcfs_overrides_the_policy() {
        // seq 0-1 on stream 2, 2-3 on stream 1, 4 on stream 0.
        let queue = |ak: &mut Assoc| {
            queue_msg(ak, 2, 0, 2);
            queue_msg(ak, 1, 0, 2);
            queue_msg(ak, 0, 0, 1);
        };
        let mut ak = rr_assoc(EXT_INTERLEAVE);
        queue(&mut ak);
        let rr: Vec<u64> = std::iter::from_fn(|| pop(&mut ak)).collect();
        assert_eq!(rr, vec![4, 2, 0, 3, 1], "interleaving negotiated: round-robin");
        let mut ak = rr_assoc(0);
        queue(&mut ak);
        let fcfs: Vec<u64> = std::iter::from_fn(|| pop(&mut ak)).collect();
        assert_eq!(fcfs, vec![0, 1, 2, 3, 4], "not negotiated: enqueue order");
    }

    #[test]
    fn abandoning_mid_message_keeps_enqueue_order_without_interleaving() {
        let mut ak = rr_assoc(0);
        assert!(!ak.interleaving(), "no interleaving negotiated: FCFS is forced");
        // seq 0-2 on stream 0, 3-4 on stream 1, 5-7 on stream 2, 8-9 on
        // stream 0 again, 10 on stream 1.
        queue_msg(&mut ak, 0, 0, 3);
        queue_msg(&mut ak, 1, 0, 2);
        queue_msg(&mut ak, 2, 0, 3);
        queue_msg(&mut ak, 0, 1, 2);
        queue_msg(&mut ak, 1, 1, 1);
        assert_eq!((pop(&mut ak), pop(&mut ak)), (Some(0), Some(1)));
        // Abandon stream 0's first message with its last fragment unsent:
        // that fragment becomes a phantom TSN, and the stream's front is now
        // seq 8, so the fast path's check misses and the pick scans.
        abandon_message(&mut ak, 0, 0);
        assert_eq!((ak.queued, ak.pending_bytes, ak.next_tsn), (8, 800, 101));
        assert!(ak.sent.get(100).is_some_and(|c| c.abandoned && c.acked && c.fsn == 2));
        let rest: Vec<u64> = std::iter::from_fn(|| pop(&mut ak)).collect();
        assert_eq!(rest, vec![3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(ak.q_is_empty());
    }
}
