//! The sender's window: the TSN-offset ring of outstanding chunks, SACK
//! processing, fast retransmit, and the `SCTP_CHECK` flight invariants.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

use crate::ranges::RangeSet;
use crate::{World, Wx};

use super::assoc::{Assoc, AssocId, Scope, SentChunk, MAX_PATHS, PACKET_BUDGET, PMTU};
use super::engine::{
    arm_t3, assoc_pool_mut, assoc_ref, cfg_of, cmt_earliest_on, ensure_t3, ep_mut,
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

    /// The TSNs the window holds: `base .. base + len`.
    pub fn span(&self) -> (u64, u64) {
        (self.base, self.base + self.q.len() as u64)
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
    for (s, e) in ak.gap_acked.iter() {
        if let Some(tsn) = (s..e).find(|&t| !ak.sent.get(t).is_some_and(|c| c.acked)) {
            panic!(
                "[{now}] GAP SET DRIFT at {whence}: gap-acked tsn {tsn} not an acked chunk of the window {:?} (assoc to peer{})",
                ak.sent.span(),
                ak.peer_host
            );
        }
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

/// The ranges of `[start, end)` a SACK walk visits, appended to `out`: the
/// holes of the gap-acked set, since every TSN in it is an acked chunk that
/// either walk would skip. The tests' oracle walks the whole range instead,
/// as SACK processing did before the set existed.
fn walk_ranges(gap_acked: &RangeSet, start: u64, end: u64, out: &mut Vec<(u64, u64)>) {
    #[cfg(test)]
    if tests::FULL_WALK.with(|f| f.get()) {
        if start < end {
            out.push((start, end));
        }
        return;
    }
    gap_acked.holes_within_into(start, end, out);
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
        let (ak, pool) = assoc_pool_mut(w, a);
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
        let Assoc { sent, gap_acked, paths, rtx_queue, stats, rtt_probe, outstanding_bytes, .. } = &mut *ak;
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
        gap_acked.remove_below(cum.saturating_add(1));
        // Gap acks: walk only what each reported block adds to the
        // gap-acked set; a TSN already in it is an acked chunk.
        let mut visits = 0;
        let mut holes = pool.take_gap_vec();
        let (lo, hi) = sent.span();
        for &(g0, g1) in gaps {
            let (g0, g1) = (g0.max(lo), g1.min(hi));
            walk_ranges(gap_acked, g0, g1, &mut holes);
            for (h0, h1) in holes.drain(..) {
                for (tsn, c) in sent.range_mut(h0..h1) {
                    visits += 1;
                    if !c.acked {
                        on_ack(tsn, c);
                        c.acked = true;
                        c.marked_rtx = false;
                    }
                }
            }
            gap_acked.insert(g0, g1);
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
        // when abandonment moved the cursor past every reported block); it
        // skips the gap-acked set, whose chunks are all acked.
        walk_ranges(&ak.gap_acked, ak.unacked_floor, highest, &mut holes);
        for &(h0, h1) in &holes {
            for (tsn, c) in ak.sent.range_mut(h0..h1) {
                visits += 1;
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
        }
        pool.put_gap_vec(holes);
        ak.stats.sack_chunk_visits += visits;
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
        #[cfg(test)]
        tests::record_sack(ak);
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

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use bytes::Bytes;
    use netsim::NetCfg;
    use proptest::prelude::*;
    use simcore::{derive_rng, Ctx, Dur, SimTime};

    use super::*;
    use crate::sctp::{self, AssocStats, SctpCfg};
    use crate::tcp::TcpCfg;

    thread_local! {
        /// Walk every reported block and all of `[unacked_floor, highest)`,
        /// as SACK processing did before the gap-acked set.
        pub(super) static FULL_WALK: Cell<bool> = const { Cell::new(false) };
        /// What each `process_sack` left behind, in order.
        static SACKS: RefCell<Vec<Snap>> = const { RefCell::new(Vec::new()) };
    }

    /// The state a SACK's walks decide, taken right after them (before the
    /// fast-retransmit burst and the send opportunity that follow).
    #[derive(Debug, PartialEq, Eq)]
    struct Snap {
        /// `(tsn, acked, missing, marked_rtx)` of every chunk in the window.
        chunks: Vec<(u64, bool, u32, bool)>,
        rtx_queue: Vec<u64>,
        flight: Vec<u64>,
        cwnd: Vec<u64>,
    }

    pub(super) fn record_sack(ak: &Assoc) {
        let snap = Snap {
            chunks: ak.sent.range(..).map(|(t, c)| (t, c.acked, c.missing, c.marked_rtx)).collect(),
            rtx_queue: ak.rtx_queue.iter().copied().collect(),
            flight: ak.paths.iter().map(|p| p.flight).collect(),
            cwnd: ak.paths.iter().map(|p| p.cwnd).collect(),
        };
        SACKS.with(|s| s.borrow_mut().push(snap));
    }

    const PORT: u16 = 7000;
    const END: SimTime = SimTime::from_nanos(3_000_000_000);

    /// One lossy transfer of `sizes` from host 0 to host 1 (message `i` with
    /// a 2 ms lifetime when `i % 4 == 1` and PR-SCTP is on), run for 3
    /// simulated seconds. Returns every SACK's snapshot and the sender's
    /// counters.
    fn transfer(cfg: &SctpCfg, loss: f64, seed: u64, sizes: &[usize], full: bool) -> (Vec<Snap>, AssocStats) {
        FULL_WALK.with(|f| f.set(full));
        SACKS.with(|s| s.borrow_mut().clear());
        let mut w = World::new(NetCfg::paper_cluster(loss), TcpCfg::default(), cfg.clone());
        let mut ctx: Wx = Ctx::standalone(derive_rng(seed, 0));
        let ea = sctp::socket(&mut w, 0, PORT, false);
        let eb = sctp::socket(&mut w, 1, PORT, false);
        sctp::listen(&mut w, eb);
        let a = sctp::connect(&mut w, &mut ctx, ea, 1, PORT);
        let mut sent = 0;
        while ctx.now() < END {
            if sctp::assoc_state(&w, a) == sctp::AssocState::Established {
                while let Some(&len) = sizes.get(sent) {
                    let life = (cfg.pr_sctp && sent % 4 == 1).then(|| Dur::from_millis(2));
                    let body = Bytes::from(vec![sent as u8; len]);
                    if sctp::sendmsg_pr(&mut w, &mut ctx, a, (sent % 3) as u16, 0, body, life).is_err() {
                        break;
                    }
                    sent += 1;
                }
            }
            while sctp::recvmsg(&mut w, &mut ctx, eb).is_some() {}
            let Some(next) = ctx.next_event_time() else { break };
            ctx.run_due(&mut w, next);
        }
        FULL_WALK.with(|f| f.set(false));
        let stats = assoc_pool_mut(&mut w, a).0.stats;
        (SACKS.with(|s| std::mem::take(&mut *s.borrow_mut())), stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Walking only the gap-acked set's holes leaves every chunk's
        /// acked/missing/marked state, the retransmission queue, every
        /// path's flight and cwnd exactly as the full walk does, after
        /// every SACK: under random loss, gap-block truncation, PR-SCTP
        /// abandonment and CMT.
        #[test]
        fn hole_walk_matches_the_full_walk(
            loss in prop_oneof![Just(0.01), Just(0.03), Just(0.08)],
            seed in 0u64..1_000,
            max_gap_blocks in prop_oneof![Just(1usize), Just(2), Just(3), Just(usize::MAX)],
            pr_sctp in any::<bool>(),
            cmt in any::<bool>(),
            sizes in prop::collection::vec(prop_oneof![1usize..3_000, 10_000usize..70_000], 20..60),
        ) {
            let cfg = SctpCfg {
                max_gap_blocks,
                pr_sctp,
                cmt,
                num_paths: if cmt { 3 } else { 1 },
                ..SctpCfg::default()
            };
            let (holes, s) = transfer(&cfg, loss, seed, &sizes, false);
            let (full, f) = transfer(&cfg, loss, seed, &sizes, true);
            prop_assert!(s.sacks_in > 0 && s.sacks_in == f.sacks_in);
            prop_assert_eq!(holes.len(), full.len());
            for (i, (h, f)) in holes.iter().zip(&full).enumerate() {
                prop_assert_eq!(h, f, "SACK {} of {}", i, s.sacks_in);
            }
            prop_assert_eq!(s.msgs_abandoned, f.msgs_abandoned);
            prop_assert!(
                s.sack_chunk_visits <= f.sack_chunk_visits,
                "hole walk visited {} chunks, the full walk {}", s.sack_chunk_visits, f.sack_chunk_visits
            );
        }
    }
}
