//! Request table and message-matching engine (transport-independent).
//!
//! Implements LAM's message-delivery protocol (paper §2.2.2):
//! * **short messages** (≤ 64 KB): eager — envelope + body; unmatched
//!   arrivals are buffered as *unexpected* messages;
//! * **long messages**: rendezvous — RndvReq envelope, receiver ACKs when a
//!   matching receive is posted, sender then ships RndvBody + body;
//! * **synchronous short messages**: eager body, but the send completes
//!   only when the receiver ACKs the match.
//!
//! Matching is on the (tag, rank, context) triple with `MPI_ANY_SOURCE` /
//! `MPI_ANY_TAG` wildcards; posted receives match in post order, unexpected
//! messages in arrival order.
//!
//! Both queues are hash-indexed so the hot paths — an arriving envelope
//! looking for a posted receive, and a posted receive looking for a
//! buffered unexpected message — cost a handful of map lookups instead of
//! a linear scan of every outstanding request. Order ties are broken by
//! monotonic sequence numbers (post order / arrival order), never by hash
//! iteration order, so results are identical to the naive scan.

use std::collections::VecDeque;

use simcore::fxhash::FxHashMap;

use bytes::Bytes;

use crate::envelope::{EnvKind, Envelope};

/// Handle to a request in the per-process table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub usize);

/// Completed-receive metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub src: u16,
    pub tag: i32,
    pub len: u32,
}

/// Where an incoming message body is being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    Req(usize),
    Unex(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqState {
    /// Send queued for the wire; completes when fully written (standard
    /// short) or advances (sync/long).
    SendQueued,
    /// Long send: RndvReq written, waiting for the receiver's ACK.
    SendWaitRndvAck,
    /// Long send: body queued; completes when fully written.
    SendBody,
    /// Sync send: body written, waiting for the receiver's SyncAck.
    SendWaitSyncAck,
    /// Receive posted, not yet matched.
    RecvPosted,
    /// Receive matched; body arriving.
    RecvArriving,
    Done,
    /// Taken by the application; the slot is on the freelist.
    Free,
}

#[derive(Debug)]
pub(crate) struct Request {
    pub state: ReqState,
    pub is_send: bool,
    /// Send: destination. Recv: source filter (None = ANY_SOURCE).
    pub peer: Option<u16>,
    /// Send: tag. Recv: tag filter (None = ANY_TAG).
    pub tag: Option<i32>,
    pub cxt: u32,
    /// Sender-side sequence number (pairs ACKs with requests).
    pub seq: u32,
    /// Send payload (retained until the wire has it / rendezvous fires).
    pub send_data: Vec<Bytes>,
    pub send_kind: EnvKind,
    /// Receive accumulation.
    pub data: Vec<Bytes>,
    pub got: u32,
    pub status: Option<Status>,
}

/// An unexpected message (envelope arrived before a matching receive).
#[derive(Debug)]
pub(crate) struct Unex {
    pub env: Envelope,
    pub data: Vec<Bytes>,
    pub got: u32,
    pub complete: bool,
    /// A receive matched this entry while its body was still arriving.
    pub claimed_by: Option<usize>,
    pub consumed: bool,
}

/// A control envelope the RPI must transmit to `peer`.
pub type CtrlOut = (u16, Envelope);

/// Result of processing an inbound envelope.
#[derive(Debug, Default)]
pub struct EnvOutcome {
    /// Body bytes that follow this envelope go here (None = no body).
    pub sink: Option<Sink>,
    /// Control envelopes to send back (rendezvous/sync ACKs).
    pub ctrl: Vec<CtrlOut>,
    /// A long-message body release: (send request, RndvBody envelope, body).
    pub body_send: Option<(ReqId, Envelope, Vec<Bytes>)>,
}

impl EnvOutcome {
    /// Did the envelope of `kind` find a posted receive (rather than landing
    /// in the unexpected queue)? Control kinds (ACKs, rendezvous bodies)
    /// always pair with a pending request.
    pub fn matched_posted(&self, kind: EnvKind) -> bool {
        match kind {
            EnvKind::Eager | EnvKind::SyncEager => matches!(self.sink, Some(Sink::Req(_))),
            EnvKind::RndvReq => !self.ctrl.is_empty(),
            _ => true,
        }
    }
}

/// The per-process matching state.
pub struct Core {
    pub rank: u16,
    pub size: u16,
    /// Eager/rendezvous switchover (LAM default 64 KB).
    pub short_limit: u32,
    pub(crate) reqs: Vec<Request>,
    /// Slots of `reqs` whose request was taken, reused by the next `alloc`:
    /// the table stays as large as the most requests ever held at once.
    free_reqs: Vec<usize>,
    /// Posted receives, bucketed by filter concreteness. Each queue holds
    /// `(post_seq, req idx)` in post order; an envelope checks at most four
    /// queue fronts and the minimum `post_seq` wins, which reproduces the
    /// post-order scan exactly.
    posted_st: FxHashMap<(u32, u16, i32), VecDeque<(u64, usize)>>,
    posted_s: FxHashMap<(u32, u16), VecDeque<(u64, usize)>>,
    posted_t: FxHashMap<(u32, i32), VecDeque<(u64, usize)>>,
    posted_any: FxHashMap<u32, VecDeque<(u64, usize)>>,
    next_post_seq: u64,
    /// Unexpected messages by arrival id (monotonic). An entry stays here
    /// while body bytes can still arrive for it; fully-consumed entries
    /// are released immediately, so the table never accumulates garbage.
    pub(crate) unexpected: FxHashMap<usize, Unex>,
    /// Unexpected arrival ids bucketed by every filter shape a receive or
    /// probe can ask with, each queue in arrival (= id) order — the mirror
    /// of the posted-receive index. A lookup reads exactly one queue front,
    /// whatever its wildcards; ids that were consumed or claimed since
    /// being pushed are popped lazily when they surface.
    ux_st: FxHashMap<(u32, u16, i32), VecDeque<usize>>,
    ux_s: FxHashMap<(u32, u16), VecDeque<usize>>,
    ux_t: FxHashMap<(u32, i32), VecDeque<usize>>,
    ux_any: FxHashMap<u32, VecDeque<usize>>,
    next_unex_id: usize,
    /// Unexpected entries not yet consumed (drives `unexpected_peak`).
    unex_live: usize,
    /// (peer, seq) → send request awaiting that peer's ACK.
    pub(crate) await_ack: FxHashMap<(u16, u32), usize>,
    /// (peer, seq) → recv request awaiting that long body.
    pub(crate) rndv_expect: FxHashMap<(u16, u32), usize>,
    next_seq: u32,
    /// Counters for diagnostics.
    pub unexpected_peak: usize,
}

impl Core {
    pub fn new(rank: u16, size: u16, short_limit: u32) -> Self {
        Core {
            rank,
            size,
            short_limit,
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            posted_st: FxHashMap::default(),
            posted_s: FxHashMap::default(),
            posted_t: FxHashMap::default(),
            posted_any: FxHashMap::default(),
            next_post_seq: 0,
            unexpected: FxHashMap::default(),
            ux_st: FxHashMap::default(),
            ux_s: FxHashMap::default(),
            ux_t: FxHashMap::default(),
            ux_any: FxHashMap::default(),
            next_unex_id: 0,
            unex_live: 0,
            await_ack: FxHashMap::default(),
            rndv_expect: FxHashMap::default(),
            next_seq: 0,
            unexpected_peak: 0,
        }
    }

    fn alloc(&mut self, r: Request) -> usize {
        match self.free_reqs.pop() {
            Some(idx) => {
                self.reqs[idx] = r;
                idx
            }
            None => {
                self.reqs.push(r);
                self.reqs.len() - 1
            }
        }
    }

    pub fn is_done(&self, r: ReqId) -> bool {
        self.reqs[r.0].state == ReqState::Done
    }

    /// Did this receive find a buffered unexpected message at post time?
    /// (Any state other than freshly-posted means it matched something.)
    pub fn matched_at_post(&self, r: ReqId) -> bool {
        self.reqs[r.0].state != ReqState::RecvPosted
    }

    /// Take a completed request's payload + status and release its slot:
    /// `r` is dead afterwards, and the next request may reuse its number.
    /// Panics if not done (or already taken).
    pub fn take_done(&mut self, r: ReqId) -> (Status, Vec<Bytes>) {
        let req = &mut self.reqs[r.0];
        assert_eq!(req.state, ReqState::Done, "take_done on incomplete request");
        let status = req.status.unwrap_or(Status { src: req.peer.unwrap_or(0), tag: req.tag.unwrap_or(0), len: 0 });
        req.state = ReqState::Free;
        self.free_reqs.push(r.0);
        (status, std::mem::take(&mut req.data))
    }

    // -----------------------------------------------------------------
    // Send side
    // -----------------------------------------------------------------

    /// Create a send request. Returns the request, the envelope to write,
    /// and the body to attach (None for rendezvous requests).
    pub fn submit_send(
        &mut self,
        dst: u16,
        tag: i32,
        cxt: u32,
        data: Bytes,
        sync: bool,
    ) -> (ReqId, Envelope, Option<Vec<Bytes>>) {
        let len = data.len() as u32;
        let seq = self.next_seq;
        self.next_seq += 1;
        let long = len > self.short_limit;
        let kind = if long {
            EnvKind::RndvReq
        } else if sync {
            EnvKind::SyncEager
        } else {
            EnvKind::Eager
        };
        let env = Envelope { kind, src: self.rank, tag, cxt, len, seq };
        let state = if long { ReqState::SendWaitRndvAck } else { ReqState::SendQueued };
        let (retained, body) = if long { (vec![data], None) } else { (Vec::new(), Some(vec![data])) };
        let idx = self.alloc(Request {
            state,
            is_send: true,
            peer: Some(dst),
            tag: Some(tag),
            cxt,
            seq,
            send_data: retained,
            send_kind: kind,
            data: Vec::new(),
            got: 0,
            status: None,
        });
        if long || sync {
            self.await_ack.insert((dst, seq), idx);
        }
        (ReqId(idx), env, body)
    }

    /// The wire finished writing this send's envelope+body. Advances the
    /// state machine; standard sends complete here.
    pub fn send_written(&mut self, r: ReqId) {
        let req = &mut self.reqs[r.0];
        match (req.state, req.send_kind) {
            (ReqState::SendQueued, EnvKind::Eager) => req.state = ReqState::Done,
            (ReqState::SendQueued, EnvKind::SyncEager) => req.state = ReqState::SendWaitSyncAck,
            (ReqState::SendBody, _) => req.state = ReqState::Done,
            // RndvReq envelope written: still waiting for the ACK.
            (ReqState::SendWaitRndvAck, _) => {}
            (s, k) => unreachable!("send_written in state {s:?} kind {k:?}"),
        }
    }

    // -----------------------------------------------------------------
    // Receive side
    // -----------------------------------------------------------------

    /// Post a receive. May match (and consume) an unexpected message;
    /// returns control envelopes to transmit (rendezvous / sync ACKs).
    pub fn post_recv(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> (ReqId, Vec<CtrlOut>) {
        let idx = self.alloc(Request {
            state: ReqState::RecvPosted,
            is_send: false,
            peer: src,
            tag,
            cxt,
            seq: 0,
            send_data: Vec::new(),
            send_kind: EnvKind::Eager,
            data: Vec::new(),
            got: 0,
            status: None,
        });
        let mut ctrl = Vec::new();

        // Earliest matching unexpected message, via the arrival index.
        let Some(ui) = self.find_unexpected(src, tag, cxt) else {
            self.index_posted(idx);
            return (ReqId(idx), ctrl);
        };
        let env = self.unexpected[&ui].env;
        match env.kind {
            EnvKind::Eager | EnvKind::SyncEager => {
                if self.unexpected[&ui].complete {
                    self.consume_unexpected(ui);
                    let u = self.unexpected.get_mut(&ui).unwrap();
                    let data = std::mem::take(&mut u.data);
                    let req = &mut self.reqs[idx];
                    req.data = data;
                    req.got = env.len;
                    req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                    req.state = ReqState::Done;
                    if env.kind == EnvKind::SyncEager {
                        ctrl.push((env.src, sync_ack(self.rank, &env)));
                    }
                } else {
                    // Body still arriving: claim; completion transfers it.
                    self.unexpected.get_mut(&ui).unwrap().claimed_by = Some(idx);
                    self.reqs[idx].state = ReqState::RecvArriving;
                }
            }
            EnvKind::RndvReq => {
                // Clear-to-send; the body will arrive tagged with env.seq.
                self.consume_unexpected(ui);
                self.reqs[idx].state = ReqState::RecvArriving;
                self.reqs[idx].status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                self.rndv_expect.insert((env.src, env.seq), idx);
                ctrl.push((env.src, rndv_ack(self.rank, &env)));
            }
            k => unreachable!("unexpected queue holds {k:?}"),
        }
        self.release_unexpected(ui);
        self.purge_unexpected_fronts(&env);
        (ReqId(idx), ctrl)
    }

    // -----------------------------------------------------------------
    // Inbound envelopes
    // -----------------------------------------------------------------

    /// Process an inbound envelope from `from`.
    pub fn on_envelope(&mut self, from: u16, env: Envelope) -> EnvOutcome {
        debug_assert_eq!(from, env.src, "envelope source mismatch");
        let mut out = EnvOutcome::default();
        match env.kind {
            EnvKind::Eager | EnvKind::SyncEager => {
                if let Some(p) = self.match_posted(&env) {
                    let req = &mut self.reqs[p];
                    req.state = ReqState::RecvArriving;
                    req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                    // Sync ACK is emitted at body completion.
                    if env.kind == EnvKind::SyncEager {
                        req.seq = env.seq;
                        req.send_kind = EnvKind::SyncEager; // remember to ack
                    }
                    out.sink = Some(Sink::Req(p));
                } else {
                    out.sink = Some(Sink::Unex(self.push_unexpected(env)));
                }
            }
            EnvKind::RndvReq => {
                if let Some(p) = self.match_posted(&env) {
                    let req = &mut self.reqs[p];
                    req.state = ReqState::RecvArriving;
                    req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                    self.rndv_expect.insert((env.src, env.seq), p);
                    out.ctrl.push((env.src, rndv_ack(self.rank, &env)));
                } else {
                    self.push_unexpected(env);
                }
            }
            EnvKind::RndvAck => {
                let idx = self
                    .await_ack
                    .remove(&(from, env.seq))
                    .expect("RndvAck for unknown send");
                let req = &mut self.reqs[idx];
                debug_assert_eq!(req.state, ReqState::SendWaitRndvAck);
                req.state = ReqState::SendBody;
                let body = std::mem::take(&mut req.send_data);
                let len: usize = body.iter().map(|b| b.len()).sum();
                let benv = Envelope {
                    kind: EnvKind::RndvBody,
                    src: self.rank,
                    tag: req.tag.unwrap_or(0),
                    cxt: req.cxt,
                    len: len as u32,
                    seq: env.seq,
                };
                out.body_send = Some((ReqId(idx), benv, body));
            }
            EnvKind::RndvBody => {
                let idx = self
                    .rndv_expect
                    .remove(&(from, env.seq))
                    .expect("RndvBody without prior ACK");
                out.sink = Some(Sink::Req(idx));
            }
            EnvKind::SyncAck => {
                let idx = self
                    .await_ack
                    .remove(&(from, env.seq))
                    .expect("SyncAck for unknown send");
                let req = &mut self.reqs[idx];
                debug_assert_eq!(req.state, ReqState::SendWaitSyncAck);
                req.state = ReqState::Done;
            }
        }
        out
    }

    /// Append body bytes to a sink.
    pub fn body_chunk(&mut self, sink: Sink, chunk: Bytes) {
        match sink {
            Sink::Req(i) => {
                self.reqs[i].got += chunk.len() as u32;
                self.reqs[i].data.push(chunk);
            }
            Sink::Unex(i) => {
                let u = self.unexpected.get_mut(&i).expect("body for released unexpected");
                u.got += chunk.len() as u32;
                u.data.push(chunk);
            }
        }
    }

    /// The body for `sink` is complete. Completes requests and emits any
    /// deferred ACKs.
    pub fn body_done(&mut self, sink: Sink) -> Vec<CtrlOut> {
        let mut ctrl = Vec::new();
        match sink {
            Sink::Req(i) => {
                let req = &mut self.reqs[i];
                debug_assert_eq!(req.state, ReqState::RecvArriving);
                req.state = ReqState::Done;
                let st = req.status.expect("status set at match");
                debug_assert_eq!(req.got, st.len, "body length mismatch");
                if req.send_kind == EnvKind::SyncEager && !req.is_send {
                    let env = Envelope {
                        kind: EnvKind::SyncEager,
                        src: st.src,
                        tag: st.tag,
                        cxt: req.cxt,
                        len: st.len,
                        seq: req.seq,
                    };
                    ctrl.push((st.src, sync_ack(self.rank, &env)));
                }
            }
            Sink::Unex(i) => {
                let u = self.unexpected.get_mut(&i).expect("body_done for released unexpected");
                u.complete = true;
                if let Some(ri) = u.claimed_by {
                    let env = u.env;
                    let data = std::mem::take(&mut u.data);
                    let got = u.got;
                    self.consume_unexpected(i);
                    let req = &mut self.reqs[ri];
                    req.data = data;
                    req.got = got;
                    req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                    req.state = ReqState::Done;
                    if env.kind == EnvKind::SyncEager {
                        ctrl.push((env.src, sync_ack(self.rank, &env)));
                    }
                }
                self.release_unexpected(i);
            }
        }
        ctrl
    }

    /// Does any buffered unexpected message match `(src, tag, cxt)`?
    /// Returns its envelope metadata without consuming it (MPI_Iprobe).
    /// `&mut` only for lazy index maintenance; matching state is unchanged.
    pub fn probe_unexpected(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> Option<Status> {
        self.find_unexpected(src, tag, cxt).map(|id| {
            let env = self.unexpected[&id].env;
            Status { src: env.src, tag: env.tag, len: env.len }
        })
    }

    /// Allocate a sequence number (self-sends).
    pub fn fresh_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Create an already-complete send request (self-sends).
    pub fn mk_done_send(&mut self, dst: u16, tag: i32, cxt: u32) -> ReqId {
        let idx = self.alloc(Request {
            state: ReqState::Done,
            is_send: true,
            peer: Some(dst),
            tag: Some(tag),
            cxt,
            seq: 0,
            send_data: Vec::new(),
            send_kind: EnvKind::Eager,
            data: Vec::new(),
            got: 0,
            status: None,
        });
        ReqId(idx)
    }

    /// Any request still incomplete? (diagnostics)
    pub fn pending_requests(&self) -> usize {
        self.reqs.iter().filter(|r| !matches!(r.state, ReqState::Done | ReqState::Free)).count()
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Add a posted receive to the queue matching its filter concreteness.
    fn index_posted(&mut self, idx: usize) {
        let r = &self.reqs[idx];
        let seq = self.next_post_seq;
        self.next_post_seq += 1;
        match (r.peer, r.tag) {
            (Some(s), Some(t)) => {
                self.posted_st.entry((r.cxt, s, t)).or_default().push_back((seq, idx))
            }
            (Some(s), None) => self.posted_s.entry((r.cxt, s)).or_default().push_back((seq, idx)),
            (None, Some(t)) => self.posted_t.entry((r.cxt, t)).or_default().push_back((seq, idx)),
            (None, None) => self.posted_any.entry(r.cxt).or_default().push_back((seq, idx)),
        }
    }

    /// Earliest posted receive matching `env`: at most four queue fronts
    /// compete, the oldest post wins.
    fn match_posted(&mut self, env: &Envelope) -> Option<usize> {
        let fronts = [
            self.posted_st.get(&(env.cxt, env.src, env.tag)).and_then(|q| q.front()),
            self.posted_s.get(&(env.cxt, env.src)).and_then(|q| q.front()),
            self.posted_t.get(&(env.cxt, env.tag)).and_then(|q| q.front()),
            self.posted_any.get(&env.cxt).and_then(|q| q.front()),
        ];
        let class =
            fronts.iter().enumerate().filter_map(|(i, f)| f.map(|&(s, _)| (s, i))).min()?.1;
        macro_rules! pop {
            ($map:expr, $key:expr) => {{
                let key = $key;
                let q = $map.get_mut(&key).unwrap();
                let (_, idx) = q.pop_front().unwrap();
                if q.is_empty() {
                    $map.remove(&key);
                }
                idx
            }};
        }
        Some(match class {
            0 => pop!(self.posted_st, (env.cxt, env.src, env.tag)),
            1 => pop!(self.posted_s, (env.cxt, env.src)),
            2 => pop!(self.posted_t, (env.cxt, env.tag)),
            _ => pop!(self.posted_any, env.cxt),
        })
    }

    /// Earliest matchable unexpected message for `(src, tag, cxt)`: one
    /// queue front, whichever wildcard shape the filter has. Ids are
    /// monotonic and every queue is pushed in arrival order, so a front is
    /// always the oldest match — hash iteration order is never consulted.
    fn find_unexpected(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> Option<usize> {
        match (src, tag) {
            (Some(s), Some(t)) => front_matchable(&mut self.ux_st, (cxt, s, t), &self.unexpected),
            (Some(s), None) => front_matchable(&mut self.ux_s, (cxt, s), &self.unexpected),
            (None, Some(t)) => front_matchable(&mut self.ux_t, (cxt, t), &self.unexpected),
            (None, None) => front_matchable(&mut self.ux_any, cxt, &self.unexpected),
        }
    }

    fn push_unexpected(&mut self, env: Envelope) -> usize {
        let id = self.next_unex_id;
        self.next_unex_id += 1;
        self.unexpected.insert(
            id,
            Unex { env, data: Vec::new(), got: 0, complete: false, claimed_by: None, consumed: false },
        );
        self.ux_st.entry((env.cxt, env.src, env.tag)).or_default().push_back(id);
        self.ux_s.entry((env.cxt, env.src)).or_default().push_back(id);
        self.ux_t.entry((env.cxt, env.tag)).or_default().push_back(id);
        self.ux_any.entry(env.cxt).or_default().push_back(id);
        self.unex_live += 1;
        self.unexpected_peak = self.unexpected_peak.max(self.unex_live);
        id
    }

    /// After an entry is consumed or claimed, pop any newly-stale ids off
    /// the fronts of the four queues it lives in. Keeps queue memory
    /// proportional to live entries; stale ids deeper in a queue are popped
    /// when they surface in `front_matchable`.
    fn purge_unexpected_fronts(&mut self, env: &Envelope) {
        let _ = front_matchable(&mut self.ux_st, (env.cxt, env.src, env.tag), &self.unexpected);
        let _ = front_matchable(&mut self.ux_s, (env.cxt, env.src), &self.unexpected);
        let _ = front_matchable(&mut self.ux_t, (env.cxt, env.tag), &self.unexpected);
        let _ = front_matchable(&mut self.ux_any, env.cxt, &self.unexpected);
    }

    fn consume_unexpected(&mut self, id: usize) {
        let u = self.unexpected.get_mut(&id).unwrap();
        if !u.consumed {
            u.consumed = true;
            self.unex_live -= 1;
        }
    }

    /// Incremental GC: drop the entry as soon as no more body bytes can
    /// arrive for it — consumed and either body-complete or a rendezvous
    /// request (whose body travels separately). Replaces the old
    /// whole-queue sweep, which only freed memory once *every* entry was
    /// consumed and so grew without bound under constant churn.
    fn release_unexpected(&mut self, id: usize) {
        if let Some(u) = self.unexpected.get(&id) {
            if u.consumed && (u.complete || u.env.kind == EnvKind::RndvReq) {
                self.unexpected.remove(&id);
            }
        }
    }
}

/// Front of one unexpected-index queue, lazily popping ids that stopped
/// being matchable (consumed, claimed, or released) since they were pushed.
/// Drops the key when the queue empties. A free function over disjoint
/// `Core` fields so callers can hold `&self.unexpected` alongside the map.
fn front_matchable<K: Copy + Eq + std::hash::Hash>(
    map: &mut FxHashMap<K, VecDeque<usize>>,
    key: K,
    unexpected: &FxHashMap<usize, Unex>,
) -> Option<usize> {
    let q = map.get_mut(&key)?;
    while let Some(&id) = q.front() {
        if unexpected.get(&id).is_some_and(|u| !u.consumed && u.claimed_by.is_none()) {
            return Some(id);
        }
        q.pop_front();
    }
    map.remove(&key);
    None
}

fn rndv_ack(me: u16, req_env: &Envelope) -> Envelope {
    Envelope {
        kind: EnvKind::RndvAck,
        src: me,
        tag: req_env.tag,
        cxt: req_env.cxt,
        len: 0,
        seq: req_env.seq,
    }
}

fn sync_ack(me: u16, orig: &Envelope) -> Envelope {
    Envelope { kind: EnvKind::SyncAck, src: me, tag: orig.tag, cxt: orig.cxt, len: 0, seq: orig.seq }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K64: u32 = 64 * 1024;

    fn bytes(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn eager_send_completes_on_write() {
        let mut c = Core::new(0, 2, K64);
        let (r, env, body) = c.submit_send(1, 5, 0, bytes(100), false);
        assert_eq!(env.kind, EnvKind::Eager);
        assert_eq!(body.unwrap().len(), 1);
        assert!(!c.is_done(r));
        c.send_written(r);
        assert!(c.is_done(r));
    }

    #[test]
    fn long_send_uses_rendezvous() {
        let mut c = Core::new(0, 2, K64);
        let (r, env, body) = c.submit_send(1, 5, 0, bytes(100_000), false);
        assert_eq!(env.kind, EnvKind::RndvReq);
        assert!(body.is_none());
        c.send_written(r);
        assert!(!c.is_done(r), "rendezvous send waits for ACK");
        // Receiver's ACK arrives.
        let ack = Envelope { kind: EnvKind::RndvAck, src: 1, tag: 5, cxt: 0, len: 0, seq: env.seq };
        let out = c.on_envelope(1, ack);
        let (r2, benv, data) = out.body_send.unwrap();
        assert_eq!(r2, r);
        assert_eq!(benv.kind, EnvKind::RndvBody);
        assert_eq!(benv.len, 100_000);
        assert_eq!(data.iter().map(|b| b.len()).sum::<usize>(), 100_000);
        c.send_written(r);
        assert!(c.is_done(r));
    }

    #[test]
    fn posted_recv_matches_incoming_eager() {
        let mut c = Core::new(1, 2, K64);
        let (r, ctrl) = c.post_recv(Some(0), Some(5), 0);
        assert!(ctrl.is_empty());
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 5, cxt: 0, len: 3, seq: 0 };
        let out = c.on_envelope(0, env);
        let sink = out.sink.unwrap();
        assert_eq!(sink, Sink::Req(r.0));
        c.body_chunk(sink, Bytes::from_static(b"abc"));
        let ctrl = c.body_done(sink);
        assert!(ctrl.is_empty());
        assert!(c.is_done(r));
        let (st, data) = c.take_done(r);
        assert_eq!((st.src, st.tag, st.len), (0, 5, 3));
        assert_eq!(&data[0][..], b"abc");
    }

    #[test]
    fn unexpected_eager_then_recv() {
        let mut c = Core::new(1, 2, K64);
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 5, cxt: 0, len: 3, seq: 0 };
        let out = c.on_envelope(0, env);
        let sink = out.sink.unwrap();
        assert!(matches!(sink, Sink::Unex(_)));
        c.body_chunk(sink, Bytes::from_static(b"xyz"));
        c.body_done(sink);
        let (r, ctrl) = c.post_recv(Some(0), Some(5), 0);
        assert!(ctrl.is_empty());
        assert!(c.is_done(r));
        let (_, data) = c.take_done(r);
        assert_eq!(&data[0][..], b"xyz");
    }

    #[test]
    fn recv_claims_incomplete_unexpected() {
        let mut c = Core::new(1, 2, K64);
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 5, cxt: 0, len: 6, seq: 0 };
        let sink = c.on_envelope(0, env).sink.unwrap();
        c.body_chunk(sink, Bytes::from_static(b"abc"));
        // Recv posted while body is mid-flight.
        let (r, _) = c.post_recv(Some(0), Some(5), 0);
        assert!(!c.is_done(r));
        c.body_chunk(sink, Bytes::from_static(b"def"));
        c.body_done(sink);
        assert!(c.is_done(r));
        let (st, data) = c.take_done(r);
        assert_eq!(st.len, 6);
        let all: Vec<u8> = data.iter().flat_map(|b| b.iter().copied()).collect();
        assert_eq!(&all, b"abcdef");
    }

    #[test]
    fn wildcards_match_any_source_and_tag() {
        let mut c = Core::new(3, 8, K64);
        let (r, _) = c.post_recv(None, None, 0);
        let env = Envelope { kind: EnvKind::Eager, src: 6, tag: 42, cxt: 0, len: 0, seq: 0 };
        let sink = c.on_envelope(6, env).sink.unwrap();
        c.body_done(sink);
        assert!(c.is_done(r));
        let (st, _) = c.take_done(r);
        assert_eq!((st.src, st.tag), (6, 42));
    }

    #[test]
    fn wrong_context_does_not_match() {
        let mut c = Core::new(1, 2, K64);
        let (r, _) = c.post_recv(None, None, 7);
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 1, cxt: 0, len: 0, seq: 0 };
        let sink = c.on_envelope(0, env).sink.unwrap();
        assert!(matches!(sink, Sink::Unex(_)), "context 0 must not match posted cxt 7");
        c.body_done(sink);
        assert!(!c.is_done(r));
    }

    #[test]
    fn rndv_req_matched_emits_ack_and_expects_body() {
        let mut c = Core::new(1, 2, K64);
        let (r, _) = c.post_recv(Some(0), Some(9), 0);
        let env = Envelope { kind: EnvKind::RndvReq, src: 0, tag: 9, cxt: 0, len: 500_000, seq: 3 };
        let out = c.on_envelope(0, env);
        assert!(out.sink.is_none());
        assert_eq!(out.ctrl.len(), 1);
        assert_eq!(out.ctrl[0].1.kind, EnvKind::RndvAck);
        // Body arrives.
        let benv = Envelope { kind: EnvKind::RndvBody, src: 0, tag: 9, cxt: 0, len: 500_000, seq: 3 };
        let sink = c.on_envelope(0, benv).sink.unwrap();
        assert_eq!(sink, Sink::Req(r.0));
        c.body_chunk(sink, Bytes::from(vec![0u8; 500_000]));
        c.body_done(sink);
        assert!(c.is_done(r));
    }

    #[test]
    fn rndv_req_unexpected_acks_on_later_recv() {
        let mut c = Core::new(1, 2, K64);
        let env = Envelope { kind: EnvKind::RndvReq, src: 0, tag: 9, cxt: 0, len: 500_000, seq: 3 };
        let out = c.on_envelope(0, env);
        assert!(out.sink.is_none() && out.ctrl.is_empty());
        let (r, ctrl) = c.post_recv(Some(0), Some(9), 0);
        assert_eq!(ctrl.len(), 1);
        assert_eq!(ctrl[0].1.kind, EnvKind::RndvAck);
        assert_eq!(ctrl[0].1.seq, 3);
        assert!(!c.is_done(r));
    }

    #[test]
    fn sync_send_completes_only_on_ack() {
        let mut c = Core::new(0, 2, K64);
        let (r, env, _) = c.submit_send(1, 5, 0, bytes(10), true);
        assert_eq!(env.kind, EnvKind::SyncEager);
        c.send_written(r);
        assert!(!c.is_done(r), "ssend must wait for the ACK");
        let ack = Envelope { kind: EnvKind::SyncAck, src: 1, tag: 5, cxt: 0, len: 0, seq: env.seq };
        c.on_envelope(1, ack);
        assert!(c.is_done(r));
    }

    #[test]
    fn sync_recv_emits_ack_when_matched_after_arrival() {
        let mut c = Core::new(1, 2, K64);
        let env = Envelope { kind: EnvKind::SyncEager, src: 0, tag: 5, cxt: 0, len: 2, seq: 8 };
        let sink = c.on_envelope(0, env).sink.unwrap();
        c.body_chunk(sink, Bytes::from_static(b"hi"));
        let ctrl = c.body_done(sink);
        assert!(ctrl.is_empty(), "no ack until matched");
        let (_r, ctrl) = c.post_recv(Some(0), Some(5), 0);
        assert_eq!(ctrl.len(), 1);
        assert_eq!(ctrl[0].1.kind, EnvKind::SyncAck);
        assert_eq!(ctrl[0].1.seq, 8);
    }

    #[test]
    fn sync_recv_emits_ack_at_completion_when_prematched() {
        let mut c = Core::new(1, 2, K64);
        let (_r, _) = c.post_recv(Some(0), Some(5), 0);
        let env = Envelope { kind: EnvKind::SyncEager, src: 0, tag: 5, cxt: 0, len: 2, seq: 8 };
        let sink = c.on_envelope(0, env).sink.unwrap();
        c.body_chunk(sink, Bytes::from_static(b"hi"));
        let ctrl = c.body_done(sink);
        assert_eq!(ctrl.len(), 1);
        assert_eq!(ctrl[0].1.kind, EnvKind::SyncAck);
    }

    #[test]
    fn posted_receives_match_in_post_order() {
        let mut c = Core::new(1, 2, K64);
        let (r1, _) = c.post_recv(None, None, 0);
        let (r2, _) = c.post_recv(None, None, 0);
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 1, cxt: 0, len: 0, seq: 0 };
        let sink = c.on_envelope(0, env).sink.unwrap();
        c.body_done(sink);
        assert!(c.is_done(r1), "first posted matches first");
        assert!(!c.is_done(r2));
    }

    #[test]
    fn unexpected_match_in_arrival_order() {
        let mut c = Core::new(1, 2, K64);
        for seq in 0..3 {
            let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 1, cxt: 0, len: 1, seq };
            let sink = c.on_envelope(0, env).sink.unwrap();
            c.body_chunk(sink, Bytes::from(vec![seq as u8]));
            c.body_done(sink);
        }
        for expect in 0..3u8 {
            let (r, _) = c.post_recv(Some(0), Some(1), 0);
            let (_, data) = c.take_done(r);
            assert_eq!(data[0][0], expect, "MPI non-overtaking order");
        }
    }

    #[test]
    fn gc_clears_consumed_unexpected() {
        let mut c = Core::new(1, 2, K64);
        for _ in 0..10 {
            let env = Envelope { kind: EnvKind::Eager, src: 0, tag: 1, cxt: 0, len: 0, seq: 0 };
            let sink = c.on_envelope(0, env).sink.unwrap();
            c.body_done(sink);
            let (r, _) = c.post_recv(Some(0), Some(1), 0);
            assert!(c.is_done(r));
        }
        assert!(c.unexpected.is_empty(), "fully consumed queue must be GC'd");
        assert!(c.unexpected_peak >= 1);
    }
}
