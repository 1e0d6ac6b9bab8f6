//! The sender's window: the TSN-offset ring of outstanding chunks, SACK
//! processing, fast retransmit, and the `SCTP_CHECK` flight invariants.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

use crate::{World, Wx};

use super::assoc::{Assoc, AssocId, Scope, SentChunk, MAX_PATHS, PACKET_BUDGET, PMTU};
use super::engine::{
    arm_t3, assoc_mut, assoc_pool_mut, assoc_ref, cfg_of, cmt_earliest_on, ensure_t3, ep_mut,
    maybe_progress_shutdown, reemit_marked, scope_drained, scope_of, scopes, send_packet,
    trace_cwnd, try_send, wake_writers_after_abandon,
};
use super::wire::Chunk;

/// The send window as a ring indexed by TSN offset. TSNs are assigned
/// consecutively and leave only from the front (the cumulative ack), so the
/// window is always the run `base .. base + len`: lookup by TSN is a
/// subtraction, a cumulative ack pops the front, and a gap-ack block is an
/// index range.
#[derive(Debug)]
pub struct SentRing<T> {
    /// TSN of the front entry — of the next [`push`](Self::push) when empty.
    base: u64,
    q: VecDeque<T>,
}

impl<T> SentRing<T> {
    /// An empty window whose first entry will be `base`.
    pub fn new(base: u64) -> Self {
        SentRing { base, q: VecDeque::new() }
    }

    /// Append the entry for `tsn`. Panics unless `tsn` directly follows the
    /// window: an offset-indexed ring cannot represent a hole.
    pub fn push(&mut self, tsn: u64, v: T) {
        assert_eq!(tsn, self.base + self.q.len() as u64, "send window must stay TSN-contiguous");
        self.q.push_back(v);
    }

    /// The entry for `tsn`, if it is in the window.
    pub fn get(&self, tsn: u64) -> Option<&T> {
        self.q.get(tsn.checked_sub(self.base)? as usize)
    }

    /// Mutable [`get`](Self::get).
    pub fn get_mut(&mut self, tsn: u64) -> Option<&mut T> {
        self.q.get_mut(tsn.checked_sub(self.base)? as usize)
    }

    /// Cumulative ack, one entry at a time: pop the front if its TSN is at
    /// or below `cum`.
    pub fn pop_acked(&mut self, cum: u64) -> Option<(u64, T)> {
        if self.base > cum {
            return None;
        }
        let v = self.q.pop_front()?;
        self.base += 1;
        Some((self.base - 1, v))
    }

    /// `range` clamped to the window, as offsets into `q`. Total: bounds
    /// outside the window (or inverted) select nothing.
    fn offsets(&self, range: impl RangeBounds<u64>) -> (usize, usize) {
        let end = self.base + self.q.len() as u64;
        let lo = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s.saturating_add(1),
            Bound::Unbounded => self.base,
        }
        .clamp(self.base, end);
        let hi = match range.end_bound() {
            Bound::Included(&e) => e.saturating_add(1),
            Bound::Excluded(&e) => e,
            Bound::Unbounded => end,
        }
        .clamp(lo, end);
        ((lo - self.base) as usize, (hi - self.base) as usize)
    }

    /// Entries whose TSN lies in `range`, ascending.
    pub fn range(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, &T)> {
        let (lo, hi) = self.offsets(range);
        (self.base + lo as u64..).zip(self.q.range(lo..hi))
    }

    /// Mutable [`range`](Self::range).
    pub fn range_mut(&mut self, range: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, &mut T)> {
        let (lo, hi) = self.offsets(range);
        (self.base + lo as u64..).zip(self.q.range_mut(lo..hi))
    }
}

/// Debug invariants: per-path flight equals the sum of unacked, unmarked
/// sent chunks on that path, and the O(1) aggregates (`rtx_queue`,
/// `unacked_floor`) agree with a full rescan of `sent`.
pub(super) fn check_flight(ak: &Assoc, whence: &str, now: simcore::SimTime) {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if !*ENABLED.get_or_init(|| std::env::var("SCTP_CHECK").is_ok()) {
        return;
    }
    let mut per_path = vec![0u64; ak.paths.len()];
    let mut rtx_expect = std::collections::BTreeSet::new();
    for (tsn, c) in ak.sent.range(..) {
        if !c.acked && !c.marked_rtx {
            per_path[c.path as usize] += c.data.len() as u64;
        }
        if c.marked_rtx && !c.acked {
            rtx_expect.insert(tsn);
        }
    }
    for (i, ps) in ak.paths.iter().enumerate() {
        if ps.flight != per_path[i] {
            panic!(
                "[{now}] FLIGHT DRIFT at {whence}: path {i} flight={} actual={} (assoc to peer{})",
                ps.flight, per_path[i], ak.peer_host
            );
        }
    }
    if rtx_expect != ak.rtx_queue {
        panic!(
            "[{now}] RTX QUEUE DRIFT at {whence}: aggregate={:?} actual={:?} (assoc to peer{})",
            ak.rtx_queue, rtx_expect, ak.peer_host
        );
    }
    if let Some((tsn, _)) = ak.sent.range(..ak.unacked_floor).find(|(_, c)| !c.acked) {
        panic!(
            "[{now}] FLOOR DRIFT at {whence}: unacked tsn {tsn} below floor {} (assoc to peer{})",
            ak.unacked_floor, ak.peer_host
        );
    }
    // CMT cursors: no unacked chunk assigned to a path may sit below that
    // path's pseudo-cumack rescan floor.
    for (i, ps) in ak.paths.iter().enumerate() {
        if let Some((tsn, _)) = ak
            .sent
            .range(..ps.cumack_floor)
            .find(|(_, c)| !c.acked && c.path as usize == i)
        {
            panic!(
                "[{now}] CMT FLOOR DRIFT at {whence}: unacked tsn {tsn} on path {i} below floor {} (assoc to peer{})",
                ps.cumack_floor, ak.peer_host
            );
        }
    }
}

/// Missing-report threshold for fast retransmit (RFC 2960 said 4; the
/// KAME implementation of the era used 3, like TCP's dup-ACK rule).
const MISSING_THRESH: u32 = 3;

pub(super) fn process_sack(w: &mut World, ctx: &mut Wx, a: AssocId, cum: u64, a_rwnd: u64, gaps: &[(u64, u64)]) {
    let cfg = cfg_of(w, a.host);
    let pmtu = PMTU as u64;
    let now = ctx.now();
    let mut do_fast_rtx = false;
    let wake_writers;
    {
        let ak = assoc_mut(w, a);
        ak.stats.sacks_in += 1;
        // PR-SCTP: the peer's cumulative ack is the FORWARD-TSN baseline
        // (Advanced.Peer.Ack.Point walks upward from here).
        ak.peer_cum = ak.peer_cum.max(cum);
        let n_paths = ak.paths.len();
        let mut newly_acked = [0u64; MAX_PATHS];
        let mut cum_advanced = false;
        // SFR: highest TSN newly acked per destination path by THIS SACK
        // (0 = none; TSNs start at 1). With CMT, a missing report may only
        // be charged to a chunk when a later TSN on the *same* path was
        // acked — cross-path reordering then never trips the threshold.
        let mut hna = [0u64; MAX_PATHS];

        // One chunk newly acknowledged — cumulatively or by a gap block —
        // given as it stood before the ack.
        let Assoc { sent, paths, rtx_queue, stats, rtt_probe, outstanding_bytes, .. } = &mut *ak;
        let mut on_ack = |tsn: u64, c: &SentChunk| {
            let (len, p) = (c.data.len() as u64, c.path as usize);
            if c.marked_rtx {
                // Acked while queued for retransmission: the mark was
                // spurious (reordering, not loss). Marked chunks already
                // left the flight.
                rtx_queue.remove(&tsn);
                stats.spurious_frtx += 1;
            } else {
                paths[p].flight = paths[p].flight.saturating_sub(len);
            }
            *outstanding_bytes -= len;
            newly_acked[p] += len;
            hna[p] = hna[p].max(tsn);
            if *rtt_probe == Some(tsn) && c.txcount == 1 {
                paths[p].rto.sample(now.since(c.sent_at));
                *rtt_probe = None;
            }
        };
        // Cumulative ack: the acked prefix leaves from the front of the ring.
        while let Some((tsn, c)) = sent.pop_acked(cum) {
            cum_advanced = true;
            if !c.acked {
                on_ack(tsn, &c);
            }
        }
        // Gap acks: walk each reported block in place.
        for &(g0, g1) in gaps {
            for (tsn, c) in sent.range_mut(g0..g1) {
                if !c.acked {
                    on_ack(tsn, c);
                    c.acked = true;
                    c.marked_rtx = false;
                }
            }
        }
        if cum_advanced {
            // Nothing at or below `cum` remains, so the earliest-unacked
            // cursor can never point below it.
            ak.unacked_floor = ak.unacked_floor.max(cum.saturating_add(1));
        }

        // Did the ack point of path `p`'s recovery scope move? For the
        // association-wide scope that is the cumulative ack. CMT CUC (cwnd
        // update for CMT) instead recomputes each SACKed path's
        // pseudo-cumack — the earliest TSN still outstanding on it: the
        // association-wide cumulative ack stalls behind the slowest path,
        // so per-path growth (below) is gated on the pseudo-cumack's
        // advance. A pseudo-cumack passing the path's recovery exit point
        // also ends that path's fast recovery, *before* this SACK's strikes
        // are counted.
        let mut advanced = [cum_advanced; MAX_PATHS];
        if cfg.cmt {
            for p in 0..n_paths {
                if newly_acked[p] == 0 {
                    continue;
                }
                let old = ak.paths[p].pseudo_cumack;
                let new_e = cmt_earliest_on(ak, p);
                advanced[p] = old != u64::MAX && new_e.map_or(true, |e| e > old);
                ak.paths[p].pseudo_cumack = new_e.unwrap_or(u64::MAX);
                leave_fast_recovery(ak, Some(p as u8), new_e.unwrap_or(u64::MAX));
            }
        }

        // Missing reports → fast retransmit marking (strike count). Fresh
        // marks are tallied per recovery scope as (count, first TSN, its
        // path), slot 0 standing in for the association-wide scope.
        let highest = gaps.iter().map(|&(_, g1)| g1).max().unwrap_or(0);
        let mut marks = [(0u32, 0u64, 0u8); MAX_PATHS];
        // Entries below the earliest-unacked cursor are all acked, so the
        // strike walk starts there, not at the window's base (and is empty
        // when abandonment moved the cursor past every reported block).
        for (tsn, c) in ak.sent.range_mut(ak.unacked_floor..highest) {
            // A chunk may be *fast*-retransmitted only once (RFC 4960
            // §7.2.4); after that, only T3 resends it. Without this,
            // the per-packet gap SACKs re-mark it every few reports
            // and the retransmission storm congests the path further.
            if !c.acked && !c.marked_rtx && c.txcount == 1 {
                // SFR (split fast retransmit): only an ack above this
                // chunk on its OWN path is evidence of loss there —
                // acks of later TSNs striped onto other paths are just
                // reordering.
                if cfg.cmt && hna[c.path as usize] <= tsn {
                    continue;
                }
                c.missing += 1;
                if c.missing >= MISSING_THRESH {
                    c.marked_rtx = true;
                    // Marked chunks leave the flight (RFC 4960 §6.2.1/7.2.4)
                    // so the retransmission fits inside the new cwnd.
                    ak.paths[c.path as usize].flight = ak.paths[c.path as usize]
                        .flight
                        .saturating_sub(c.data.len() as u64);
                    ak.rtx_queue.insert(tsn);
                    let m = &mut marks[scope_of(&cfg, c.path).unwrap_or(0) as usize];
                    if m.0 == 0 {
                        (m.1, m.2) = (tsn, c.path);
                    }
                    m.0 += 1;
                }
            }
        }
        // Fast recovery is one episode per scope: halve only where fresh
        // marks landed (the first marked chunk's path), and only when that
        // scope is not already recovering — a single reordering burst must
        // not cascade into repeated multiplicative decreases.
        let exit = ak.next_tsn.saturating_sub(1);
        for (count, first_tsn, path) in marks {
            if count == 0 {
                continue;
            }
            do_fast_rtx = true;
            let scope = scope_of(&cfg, path);
            if ak.rec(scope).fast_recovery.is_some() {
                continue;
            }
            ak.rec_mut(scope).fast_recovery = Some(exit);
            ak.stats.fast_retransmits += 1;
            let ps = &mut ak.paths[path as usize];
            ps.ssthresh = (ps.cwnd / 2).max(4 * pmtu);
            ps.cwnd = ps.ssthresh;
            ps.partial_bytes_acked = 0;
            if ctx.tracing() {
                ctx.trace_emit(trace::Event::FastRtx(trace::FastRtxEv {
                    proto: trace::Proto8::Sctp,
                    host: a.host,
                    peer: ak.peer_host,
                    path,
                    tsn: first_tsn,
                    count,
                }));
                trace_cwnd(ctx, a.host, ak.peer_host, path, &ak.paths[path as usize]);
            }
        }
        // The association-wide scope (never entered under CMT) leaves fast
        // recovery *after* marking: a SACK that both passes the exit point
        // and strikes new chunks must not open a second episode.
        leave_fast_recovery(ak, None, cum.saturating_add(1));

        // Congestion window growth (byte counting — §4.1.1), gated on the
        // path's recovery scope: its ack point must have advanced and it
        // must not be in fast recovery. Under CMT that is per path (CUC) —
        // the association-wide cumulative ack says nothing about which path
        // delivered.
        let peer = ak.peer_host;
        for (p, &acked) in newly_acked.iter().enumerate() {
            if acked == 0 {
                continue;
            }
            {
                let ps = &mut ak.paths[p];
                ps.error_count = 0;
                ps.active = true;
            }
            ak.assoc_errors = 0;
            if ak.rec(scope_of(&cfg, p as u8)).fast_recovery.is_some() {
                continue;
            }
            if advanced[p] {
                let ps = &mut ak.paths[p];
                if ps.cwnd <= ps.ssthresh {
                    if cfg.byte_counting_cc {
                        // Slow start: grow by bytes acked, at most one PMTU.
                        ps.cwnd += acked.min(pmtu);
                    } else {
                        // Ablation A1: TCP-style per-ACK counting. With the
                        // every-2nd-packet delayed SACK this halves slow
                        // start growth, like delayed-ACK TCP (§4.1.1).
                        ps.cwnd += pmtu / 2;
                    }
                } else {
                    ps.partial_bytes_acked += acked;
                    if ps.partial_bytes_acked >= ps.cwnd && ps.flight >= ps.cwnd {
                        ps.partial_bytes_acked -= ps.cwnd;
                        ps.cwnd += pmtu;
                    }
                }
                ps.cwnd = ps.cwnd.min(cfg.sndbuf * 4);
                if ctx.tracing() {
                    trace_cwnd(ctx, a.host, peer, p as u8, &ak.paths[p]);
                }
            }
        }
        if ak.outstanding_bytes == 0 {
            for ps in &mut ak.paths {
                ps.partial_bytes_acked = 0;
            }
        }

        // Peer receive window: advertised minus what is still in flight.
        ak.peer_rwnd = a_rwnd.saturating_sub(ak.outstanding_bytes);

        // Retransmission timer management, per recovery scope: stop the
        // timer when nothing it guards is left outstanding, restart it fresh
        // when the scope's ack point advanced. A destination's timer only
        // hears SACKs that acked something there.
        for scope in scopes(&cfg, n_paths) {
            if scope.is_some_and(|p| newly_acked[p as usize] == 0) {
                continue;
            }
            if scope_drained(ak, scope) || advanced[scope.unwrap_or(0) as usize] {
                ak.rec_mut(scope).t3_timer.clear(); // restarted fresh below unless drained
            }
        }

        // Send space freed → wake endpoint writers, once there is as much
        // free space as their smallest blocked message here needs.
        wake_writers =
            newly_acked.iter().any(|&x| x > 0) && ak.snd_space(cfg.sndbuf) >= ak.writer_need;
        check_flight(ak, "process_sack", now);
    }
    if wake_writers {
        let ep = ep_mut(w, a.endpoint());
        ctx.wake_all(&ep.writers);
        ep.writers.clear();
    }
    if do_fast_rtx {
        fast_retransmit_burst(w, ctx, a);
    }
    try_send(w, ctx, a);
    for scope in scopes(&cfg, assoc_ref(w, a).paths.len()) {
        let ak = assoc_ref(w, a);
        if !scope_drained(ak, scope) && !ak.rec(scope).t3_timer.is_set() {
            arm_t3(w, ctx, a, scope, true);
        }
    }
    maybe_progress_shutdown(w, ctx, a);
}

/// One scope leaves fast recovery once everything below `next_unacked` —
/// its ack point — is acknowledged past the episode's exit TSN.
fn leave_fast_recovery(ak: &mut Assoc, scope: Scope, next_unacked: u64) {
    let fr = &mut ak.rec_mut(scope).fast_recovery;
    if fr.is_some_and(|exit| next_unacked > exit) {
        *fr = None;
    }
}

/// RFC 4960 §7.2.4: on entering fast retransmit, send one packet with as
/// many marked chunks as fit, ignoring cwnd. Remaining marked chunks go out
/// through the normal cwnd-limited path. Under CMT the episode is per
/// *path*: one cwnd-ignoring packet per destination path, each carrying its
/// own path's marked chunks (RTX-SAME keeps the per-path accounting true).
fn fast_retransmit_burst(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let cfg = cfg_of(w, a.host);
    let abandoned_before = assoc_ref(w, a).stats.msgs_abandoned;
    let mut packets: Vec<(u8, Vec<Chunk>)> = Vec::new();
    let (ak, pool) = assoc_pool_mut(w, a);
    let vtag = ak.peer_tag;
    for scope in scopes(&cfg, ak.paths.len()) {
        let path = scope.unwrap_or_else(|| ak.rtx_path());
        let (mut packet, mut budget) = (Vec::new(), PACKET_BUDGET);
        reemit_marked(ak, pool, &cfg, ctx.now(), path, &mut budget, &mut packet);
        if !packet.is_empty() {
            packets.push((path, packet));
        }
    }
    let sent_paths: Vec<u8> = packets.iter().map(|&(p, _)| p).collect();
    for (path, packet) in packets {
        send_packet(w, ctx, a, path, vtag, packet);
    }
    for p in sent_paths {
        ensure_t3(w, ctx, a, &cfg, p);
    }
    wake_writers_after_abandon(w, ctx, a, abandoned_before);
}
