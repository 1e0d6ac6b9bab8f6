//! The data receive path: TSN admission, reassembly, the ordered-delivery
//! gate, the endpoint hand-off, and the per-packet SACK decision.

use crate::ranges::RangeSet;
use crate::{World, Wx};

use super::assoc::{Assoc, AssocId, AssocState, InStream, RecvMsg, SctpCfg};
use super::engine::{arm_sack_timer, assoc_mut, assoc_pool_mut, cfg_of, ep_mut, send_sack_now};
use super::wire::{DataChunk, IDataChunk};

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
// reassemble (keyed by TSN run or by (MID, FSN)) → ordered-delivery gate →
// endpoint hand-off. FORWARD-TSN enters at the gate, which it moves.

/// A received user-data fragment. The two wire forms differ only in how
/// reassembly *keys* them (RFC 8260), not in TSN admission, the ordered
/// gate or the hand-off.
pub(super) enum Frag {
    Data(DataChunk),
    IData(IDataChunk),
}

pub(super) fn handle_data(w: &mut World, ctx: &mut Wx, a: AssocId, f: Frag) {
    let cfg = cfg_of(w, a.host);
    let mut delivered = w.pool.take_msg_vec();
    let (ak, pool) = assoc_pool_mut(w, a);
    let (tsn, sid, len) = match &f {
        Frag::Data(d) => (d.tsn, d.stream, d.data.len() as u64),
        Frag::IData(d) => (d.tsn, d.stream, d.data.len() as u64),
    };
    if rx_open(ak, ctx.now()) && admit_tsn(ak, &cfg, tsn, len) {
        let peer = ak.peer_host;
        let st = ak.in_stream_mut(sid);
        // A TSN run can only become complete when its E fragment arrives or
        // a hole below a fragment already held fills, so in-order traffic
        // scans once per message, not once per fragment.
        let mut closes_run = false;
        let mid = match f {
            Frag::Data(mut d) => {
                d.ssn = widen_ssn(d.ssn, st.next_ssn);
                let at = st.frags.partition_point(|c| c.tsn < d.tsn);
                closes_run = d.end || at < st.frags.len();
                st.frags.insert(at, d);
                None
            }
            Frag::IData(d) => {
                let mid = d.mid;
                st.i_frags.entry(mid).or_default().insert(d.fsn, d);
                Some(mid)
            }
        };
        while let Some((unordered, msg)) = match mid {
            None if closes_run => assemble_run(st, a, sid, pool),
            None => None,
            Some(mid) => assemble_mid(st, mid, a, sid, pool),
        } {
            ordered_gate(st, unordered, msg, &mut delivered);
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
                delivered.len() as u32,
            );
        }
    }
    deliver(w, ctx, a, delivered);
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
        ak.dup_since_sack += 1;
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
    let cap = cfg.rcvbuf + cfg.pmtu as u64;
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
fn ordered_gate(st: &mut InStream, unordered: bool, msg: RecvMsg, out: &mut Vec<RecvMsg>) {
    if unordered {
        out.push(msg);
    } else if msg.ssn == st.next_ssn {
        st.next_ssn += 1;
        out.push(msg);
        drain_ready(st, out);
    } else {
        st.ready.insert(msg.ssn, msg);
    }
}

/// Release the queued successors of the message just let through the gate.
fn drain_ready(st: &mut InStream, out: &mut Vec<RecvMsg>) {
    while let Some(m) = st.ready.remove(&st.next_ssn) {
        out.push(m);
        st.next_ssn += 1;
    }
}

/// Pipeline stage 4, the endpoint hand-off: messages join the endpoint's
/// queue in arrival order across all associations and streams.
fn deliver(w: &mut World, ctx: &mut Wx, a: AssocId, mut delivered: Vec<RecvMsg>) {
    if !delivered.is_empty() {
        assoc_mut(w, a).stats.msgs_delivered += delivered.len() as u64;
        let ep = ep_mut(w, a.endpoint());
        ep.deliver_q.extend(delivered.drain(..));
        ctx.wake_all(&ep.readers);
        ep.readers.clear();
    }
    w.pool.put_msg_vec(delivered);
}

/// RFC 3758 receive path: the peer abandoned messages; jump the cumulative
/// TSN over their chunks and drop any partial reassembly state they left,
/// then move the ordered gate past each skipped (stream, MID).
pub(super) fn handle_forward_tsn(w: &mut World, ctx: &mut Wx, a: AssocId, new_cum: u64, skips: Vec<(u16, u64)>) {
    let mut delivered = w.pool.take_msg_vec();
    let ak = assoc_mut(w, a);
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
            let mut freed: u64 = st
                .i_frags
                .remove(&mid)
                .map_or(0, |m| m.values().map(|c| c.data.len() as u64).sum());
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
                    delivered.push(e.remove());
                }
                st.next_ssn = ssn + 1;
                drain_ready(st, &mut delivered);
            }
            ak.rcvbuf_used = ak.rcvbuf_used.saturating_sub(freed);
        }
        // Ack the jump promptly so the sender stops re-emitting it.
        ak.sack_immediate = true;
    }
    deliver(w, ctx, a, delivered);
}

/// Pipeline stage 2, keyed by TSN run: try to assemble one complete message
/// from a stream's TSN-sorted DATA fragments. Fragments of a message occupy
/// consecutive TSNs bracketed by B/E bits. The chunk list comes from the
/// pool; the middleware retires it after consuming the message. Returns
/// the message and its U bit.
fn assemble_run(
    st: &mut InStream,
    a: AssocId,
    sid: u16,
    pool: &mut crate::pool::Pools,
) -> Option<(bool, RecvMsg)> {
    // Positions, not TSNs: every step of a run was checked contiguous.
    let mut run_start: Option<usize> = None;
    let mut prev_tsn: Option<u64> = None;
    let mut complete: Option<(usize, usize)> = None;
    for (i, c) in st.frags.iter().enumerate() {
        let contiguous = prev_tsn.map(|p| p + 1 == c.tsn).unwrap_or(true);
        if c.begin {
            run_start = Some(i);
        } else if !contiguous {
            run_start = None;
        }
        if let Some(s) = run_start {
            if c.end {
                complete = Some((s, i));
                break;
            }
        }
        prev_tsn = Some(c.tsn);
    }
    let (s, e) = complete?;
    let mut msg =
        RecvMsg { assoc: a, stream: sid, ssn: 0, ppid: 0, data: pool.take_bytes_vec(), len: 0 };
    let mut unordered = false;
    for c in st.frags.drain(s..=e) {
        (msg.ssn, msg.ppid, unordered) = (c.ssn, c.ppid, c.unordered);
        msg.len += c.data.len() as u32;
        msg.data.push(c.data);
    }
    Some((unordered, msg))
}

/// Pipeline stage 2, keyed by (MID, FSN) — RFC 8260: fragments of different
/// messages interleave in TSN space, so each message's fragments are keyed
/// by FSN under their MID and reassemble independently — an incomplete
/// message never blocks a complete one from assembling.
fn assemble_mid(
    st: &mut InStream,
    mid: u64,
    a: AssocId,
    sid: u16,
    pool: &mut crate::pool::Pools,
) -> Option<(bool, RecvMsg)> {
    // Complete when FSNs 0..=last are all present and `last` carries
    // the E bit (distinct keys ≤ last with count last+1 ⇒ no holes).
    let m = st.i_frags.get(&mid)?;
    let (&last, c) = m.last_key_value()?;
    if !(c.end && m.len() as u64 == last as u64 + 1 && m.contains_key(&0)) {
        return None;
    }
    let ssn = mid as u32;
    let mut msg =
        RecvMsg { assoc: a, stream: sid, ssn, ppid: 0, data: pool.take_bytes_vec(), len: 0 };
    let mut unordered = false;
    for c in st.i_frags.remove(&mid)?.into_values() {
        (msg.ppid, unordered) = (c.ppid, c.unordered);
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
