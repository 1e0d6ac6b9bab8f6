//! The data receive path: TSN admission, reassembly, the ordered-delivery
//! gate, the endpoint hand-off, and the per-packet SACK decision.

use std::collections::VecDeque;

use simcore::ProcId;

use crate::pool::Pools;
use crate::ranges::RangeSet;
use crate::{World, Wx};

use super::assoc::{Assoc, AssocId, AssocState, Endpoint, InStream, RecvMsg, SctpCfg, PMTU};
use super::engine::{arm_sack_timer, assoc_mut, cfg_of, send_sack_now};
use super::wire::DataChunk;

/// The receiver's TSN window: the cumulative TSN (everything at or below it
/// has arrived) and the ranges held above it, which a SACK reports as gap
/// blocks. The in-order arrival — `cum + 1` with nothing held above — moves
/// the cumulative point in place and never touches the range set.
#[derive(Debug)]
pub struct RcvWindow {
    cum: u64,
    have: RangeSet,
}

impl RcvWindow {
    /// A window whose next in-order TSN is `cum + 1`.
    pub fn new(cum: u64) -> Self {
        RcvWindow { cum, have: RangeSet::new() }
    }

    /// The cumulative TSN.
    pub fn cum(&self) -> u64 {
        self.cum
    }

    /// Has `tsn` already arrived (a duplicate)?
    pub fn contains(&self, tsn: u64) -> bool {
        tsn <= self.cum || self.have.contains(tsn)
    }

    /// Is `tsn` below the highest TSN held, i.e. does it fill a gap?
    pub fn fills_gap(&self, tsn: u64) -> bool {
        self.have.max_end().is_some_and(|e| tsn < e)
    }

    /// Record the arrival of `tsn` (not [`contains`](Self::contains)ed yet)
    /// and advance the cumulative TSN over any now-contiguous prefix.
    pub fn insert(&mut self, tsn: u64) {
        debug_assert!(!self.contains(tsn), "duplicate TSN {tsn} past the admission check");
        if tsn == self.cum + 1 && self.have.is_empty() {
            self.cum = tsn;
        } else {
            self.have.insert_point(tsn);
            self.advance();
        }
    }

    /// FORWARD-TSN: jump the cumulative TSN to `new_cum` if that is ahead;
    /// ranges held above the jump may now be contiguous with it.
    pub fn forward_to(&mut self, new_cum: u64) {
        if new_cum > self.cum {
            self.cum = new_cum;
            self.advance();
        }
    }

    fn advance(&mut self) {
        self.cum = self.have.first_missing_from(self.cum + 1) - 1;
        self.have.remove_below(self.cum + 1);
    }

    /// The held ranges `[start, end)` above the cumulative TSN, ascending.
    pub fn gaps(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.have.iter()
    }

    /// How many ranges [`gaps`](Self::gaps) yields.
    pub fn num_gaps(&self) -> usize {
        self.have.num_ranges()
    }
}

// One pipeline serves DATA, I-DATA and FORWARD-TSN: admit the TSN →
// reassemble (one store per stream, keyed by message and FSN) →
// ordered-delivery gate → endpoint hand-off. FORWARD-TSN enters at the
// gate, which it moves.

/// Pipeline entry for one user-data fragment: `fsn` is an I-DATA chunk's
/// fragment sequence number, `None` for DATA. The two wire forms differ
/// only in how the store *keys* a fragment (RFC 8260 §2.1), not in TSN
/// admission, reassembly, the ordered gate or the hand-off.
pub(super) fn handle_data(
    w: &mut World,
    ctx: &mut Wx,
    a: AssocId,
    mut d: DataChunk,
    fsn: Option<u32>,
) {
    let cfg = cfg_of(w, a.host);
    let (ak, deliver_q, readers, pool) = rx_parts(w, a);
    let queued = deliver_q.len();
    if rx_open(ak, ctx.now()) && admit_tsn(ak, &cfg, d.tsn, d.data.len() as u64) {
        let peer = ak.peer_host;
        let sid = d.stream;
        let st = ak.in_stream_mut(sid);
        // The store's key, (message, FSN): an I-DATA fragment carries both;
        // a DATA fragment's 16 SSN bits widen to the stream's counter and
        // its TSN serves as its FSN, since one message's fragments occupy
        // consecutive TSNs (usrsctp does the same).
        match fsn {
            Some(fsn) => d.tsn = fsn as u64,
            None => d.ssn = widen_ssn(d.ssn, st.next_ssn),
        }
        // A message can only become complete when its E fragment arrives or
        // a hole below a fragment already held fills, so in-order traffic
        // scans once per message, not once per fragment.
        let closes_run = if st.frags.back().is_none_or(|c| frag_key(c) < frag_key(&d)) {
            // In order: the common case, appended without a search.
            let closes = d.end;
            st.frags.push_back(d);
            closes
        } else {
            let at = st.frags.partition_point(|c| frag_key(c) < frag_key(&d));
            let closes = d.end || at < st.frags.len();
            st.frags.insert(at, d);
            closes
        };
        // The arrival completes at most its own message.
        if closes_run {
            if let Some((unordered, msg)) = assemble(st, a, sid, pool) {
                ordered_gate(st, unordered, msg, deliver_q);
            }
        }
        // Flight recorder: a stream is head-of-line blocked while complete
        // messages sit in `ready`, gated on an earlier SSN (or MID) whose
        // message is still missing data. Fragments mid-reassembly alone are
        // ordinary transmission latency, not HOL — counting them would
        // charge every multi-chunk message as a block even at zero loss.
        // Edge detection lives in the tracer.
        if let Some(t) = ctx.tracer() {
            let blocked = !st.ready.is_empty();
            t.hol_update(
                ctx.now().as_nanos(),
                a.host,
                peer,
                sid,
                trace::HolSide::Rcv,
                blocked,
                (deliver_q.len() - queued) as u32,
            );
        }
    }
    handed_over(ak, ctx, readers, deliver_q.len() - queued);
}

/// May inbound data be accepted in this state? Notes the traffic if so.
fn rx_open(ak: &mut Assoc, now: simcore::SimTime) -> bool {
    let open = matches!(
        ak.state,
        AssocState::Established | AssocState::ShutdownPending | AssocState::ShutdownSent
    );
    if open {
        ak.last_traffic = now;
    }
    open
}

/// Pipeline stage 1: TSN-level duplicate and window checks, then account
/// the chunk and advance the cumulative TSN. False = chunk dropped.
fn admit_tsn(ak: &mut Assoc, cfg: &SctpCfg, tsn: u64, len: u64) -> bool {
    if ak.rcv.contains(tsn) {
        ak.stats.dup_tsns_in += 1;
        ak.sack_immediate = true;
        return false;
    }
    // A chunk that fills a gap below the highest TSN seen must be
    // accepted even when the buffer is nominally full: the space was
    // promised when the surrounding window was advertised, and dropping
    // it would wedge reassembly forever (the sender would retransmit
    // into the same full buffer until the association died).
    let fills_gap = ak.rcv.fills_gap(tsn);
    // Accept a one-PMTU overrun: the §6.1.A probe chunk arrives when the
    // advertised window is (or looks) closed; dropping it would turn
    // every stale-window episode into an RTO ladder. KAME applies the
    // same slop.
    let cap = cfg.rcvbuf + PMTU as u64;
    if ak.rcvbuf_used + len > cap && !fills_gap {
        // No receive window: silently drop (the sender's rwnd tracking
        // or its probe logic will retry).
        ak.sack_immediate = true;
        return false;
    }
    ak.rcv.insert(tsn);
    ak.rcvbuf_used += len;
    ak.stats.data_chunks_in += 1;
    ak.stats.bytes_in += len;
    true
}

/// Widen the 16 SSN bits a DATA chunk carries on the wire to the stream's
/// 32-bit counter: RFC 1982 serial arithmetic around `next`, the SSN the
/// ordered gate waits for. A full-width SSN (the sim never truncates it)
/// widens back to itself while fewer than 32 768 messages of its stream are
/// in flight.
fn widen_ssn(ssn: u32, next: u32) -> u32 {
    next.wrapping_add((ssn as u16).wrapping_sub(next as u16) as i16 as u32)
}

/// Pipeline stage 3, the ordered-delivery gate: unordered messages pass
/// straight through, ordered ones wait in `ready` for their SSN's turn. (A
/// MID doubles as the SSN: both count messages per stream, so ordered
/// delivery gates on the same counter — the semantic stream order, not a
/// reassembly artifact.)
fn ordered_gate(st: &mut InStream, unordered: bool, msg: RecvMsg, out: &mut VecDeque<RecvMsg>) {
    if unordered {
        out.push_back(msg);
    } else if msg.ssn == st.next_ssn {
        st.next_ssn += 1;
        out.push_back(msg);
        drain_ready(st, out);
    } else {
        st.ready.insert(msg.ssn, msg);
    }
}

/// Release the queued successors of the message just let through the gate.
fn drain_ready(st: &mut InStream, out: &mut VecDeque<RecvMsg>) {
    while let Some(m) = st.ready.remove(&st.next_ssn) {
        out.push_back(m);
        st.next_ssn += 1;
    }
}

/// Split borrow for the receive path: the association, its endpoint's
/// delivery queue and blocked readers, and the world's buffer pools.
fn rx_parts(w: &mut World, a: AssocId) -> (&mut Assoc, &mut VecDeque<RecvMsg>, &mut Vec<ProcId>, &mut Pools) {
    let World { hosts, pool, .. } = w;
    let Endpoint { assocs, deliver_q, readers, .. } = &mut hosts[a.host as usize].sctp.eps[a.ep as usize];
    (&mut assocs[a.idx as usize], deliver_q, readers, pool)
}

/// Pipeline stage 4, the endpoint hand-off: the gate appended `n` messages
/// straight onto the endpoint's queue, which holds them in arrival order
/// across all associations and streams; count them and wake the readers.
fn handed_over(ak: &mut Assoc, ctx: &mut Wx, readers: &mut Vec<ProcId>, n: usize) {
    if n > 0 {
        ak.stats.msgs_delivered += n as u64;
        ctx.wake_all(readers);
        readers.clear();
    }
}

/// RFC 3758 receive path: the peer abandoned messages; jump the cumulative
/// TSN over their chunks and drop any partial reassembly state they left,
/// then move the ordered gate past each skipped (stream, MID).
pub(super) fn handle_forward_tsn(w: &mut World, ctx: &mut Wx, a: AssocId, new_cum: u64, skips: Vec<(u16, u64)>) {
    let (ak, deliver_q, readers, _) = rx_parts(w, a);
    let queued = deliver_q.len();
    if rx_open(ak, ctx.now()) {
        ak.stats.fwd_tsn_in += 1;
        ak.rcv.forward_to(new_cum);
        let interleaving = ak.interleaving();
        for &(sid, mid) in &skips {
            let st = ak.in_stream_mut(sid);
            // A DATA stream's entry names a 16-bit SSN; a MID is full-width.
            let ssn = if interleaving { mid as u32 } else { widen_ssn(mid as u32, st.next_ssn) };
            // Drop the abandoned message's partial reassembly state — and
            // ONLY its own: other messages' fragments at TSNs at or below
            // the jump may belong to complete-but-unacked messages and
            // must survive.
            let mut freed: u64 = 0;
            st.frags.retain(|c| {
                let doomed = c.ssn == ssn;
                if doomed {
                    freed += c.data.len() as u64;
                }
                !doomed
            });
            // Un-gate ordered delivery: hand over anything the abandoned
            // message was blocking (in order), then skip past it.
            if ssn >= st.next_ssn {
                while let Some(e) = st.ready.first_entry().filter(|e| *e.key() <= ssn) {
                    deliver_q.push_back(e.remove());
                }
                st.next_ssn = ssn + 1;
                drain_ready(st, deliver_q);
            }
            ak.rcvbuf_used = ak.rcvbuf_used.saturating_sub(freed);
        }
        // Ack the jump promptly so the sender stops re-emitting it.
        ak.sack_immediate = true;
    }
    handed_over(ak, ctx, readers, deliver_q.len() - queued);
}

/// A stored fragment's place in its stream's store: (message, FSN). In the
/// store `ssn` holds the widened SSN or the MID and `tsn` holds the FSN
/// (see [`handle_data`]).
fn frag_key(c: &DataChunk) -> (u32, u64) {
    (c.ssn, c.tsn)
}

/// Pipeline stage 2: try to assemble one complete message from a stream's
/// store — a run from a B fragment to an E fragment over consecutive FSNs
/// of one message. The message takes its SSN, PPID and U bit from the B
/// fragment: a decoded non-B I-DATA fragment carries no PPID. The chunk list
/// comes from the pool; the middleware retires it after consuming the
/// message. Returns the message and its U bit.
fn assemble(st: &mut InStream, a: AssocId, sid: u16, pool: &mut Pools) -> Option<(bool, RecvMsg)> {
    // Positions, not keys: every step of a run was checked contiguous.
    let mut run_start: Option<usize> = None;
    let mut prev: Option<(u32, u64)> = None;
    let mut complete: Option<(usize, usize)> = None;
    for (i, c) in st.frags.iter().enumerate() {
        let follows = prev.is_some_and(|(msg, fsn)| msg == c.ssn && fsn + 1 == c.tsn);
        if c.begin {
            run_start = Some(i);
        } else if !follows {
            run_start = None;
        }
        if let Some(s) = run_start {
            if c.end {
                complete = Some((s, i));
                break;
            }
        }
        prev = Some(frag_key(c));
    }
    let (s, e) = complete?;
    let b = &st.frags[s];
    let (unordered, ssn, ppid) = (b.unordered, b.ssn, b.ppid);
    let mut msg = RecvMsg { assoc: a, stream: sid, ssn, ppid, data: pool.take_bytes_vec(), len: 0 };
    // Sized once: a pooled list may come back from a short message.
    msg.data.reserve(e + 1 - s);
    for c in st.frags.drain(s..=e) {
        msg.len += c.data.len() as u32;
        msg.data.push(c.data);
    }
    Some((unordered, msg))
}

/// SACK at least every N packets.
const SACK_EVERY: u32 = 2;

/// Per-packet SACK decision: immediate when there are gaps or duplicates
/// (the fast gap reporting §4.1.1 credits), else delayed (every 2nd packet
/// or 200 ms).
pub(super) fn decide_sack(w: &mut World, ctx: &mut Wx, a: AssocId) {
    let send_now = {
        let ak = assoc_mut(w, a);
        let gaps_exist = ak.rcv.num_gaps() > 0;
        if ak.sack_immediate || gaps_exist {
            true
        } else {
            ak.sack_pending_pkts += 1;
            ak.sack_pending_pkts >= SACK_EVERY
        }
    };
    if send_now {
        send_sack_now(w, ctx, a);
    } else {
        arm_sack_timer(w, ctx, a);
    }
}
