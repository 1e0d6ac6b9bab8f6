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
//! Each queue is one `VecDeque` in that order, scanned from the front. Over
//! every figure at paper scale 99.97 % of lookups end at the first entry and
//! none examines more than seven (`Core::match_scan_peak`; EXPERIMENTS.md).

use std::collections::VecDeque;

use bytes::Bytes;
use simcore::fxhash::FxHashMap;
use transport::Wx;

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
    /// Monotonic arrival number: what `Sink::Unex` holds while the body is
    /// still arriving. The queue is sorted by it by construction.
    pub id: usize,
    pub env: Envelope,
    pub data: Vec<Bytes>,
    pub got: u32,
    pub complete: bool,
    /// A receive matched this entry while its body was still arriving.
    pub claimed_by: Option<usize>,
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

/// Record how inbound `env` paired at `core` (flight recorder; both RPIs).
pub(crate) fn trace_match(ctx: &Wx, core: &Core, env: &Envelope, out: &EnvOutcome) {
    if ctx.tracing() {
        ctx.trace_emit(trace::Event::MpiMatch(trace::MpiMatchEv {
            rank: core.rank,
            src: env.src,
            tag: env.tag,
            cxt: env.cxt,
            len: env.len as u64,
            kind: env.kind.name(),
            posted: out.matched_posted(env.kind),
        }));
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
    /// Posted, unmatched receives (indices into `reqs`) in post order; an
    /// envelope takes the first whose filter accepts it.
    posted: VecDeque<usize>,
    /// Unexpected messages in arrival order. An entry leaves the moment a
    /// receive takes its body or answers its rendezvous, from wherever it
    /// sits; one claimed while its body is still arriving stays, invisible
    /// to lookups, until `body_done`.
    pub(crate) unexpected: VecDeque<Unex>,
    next_unex_id: usize,
    /// (peer, seq) → send request awaiting that peer's ACK.
    pub(crate) await_ack: FxHashMap<(u16, u32), usize>,
    /// (peer, seq) → recv request awaiting that long body.
    pub(crate) rndv_expect: FxHashMap<(u16, u32), usize>,
    next_seq: u32,
    /// Counters for diagnostics: the unexpected queue's peak length, and the
    /// most entries any one lookup (either queue) examined.
    pub unexpected_peak: usize,
    pub match_scan_peak: usize,
}

impl Core {
    pub fn new(rank: u16, size: u16, short_limit: u32) -> Self {
        Core {
            rank,
            size,
            short_limit,
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            next_unex_id: 0,
            await_ack: FxHashMap::default(),
            rndv_expect: FxHashMap::default(),
            next_seq: 0,
            unexpected_peak: 0,
            match_scan_peak: 0,
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

        let Some(at) = self.find_unexpected(src, tag, cxt) else {
            self.posted.push_back(idx);
            return (ReqId(idx), ctrl);
        };
        let env = self.unexpected[at].env;
        let req = &mut self.reqs[idx];
        match env.kind {
            EnvKind::Eager | EnvKind::SyncEager if !self.unexpected[at].complete => {
                // Body still arriving: claim; completion transfers it.
                self.unexpected[at].claimed_by = Some(idx);
                req.state = ReqState::RecvArriving;
            }
            EnvKind::Eager | EnvKind::SyncEager => {
                req.data = self.unexpected.remove(at).expect("found above").data;
                req.got = env.len;
                req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                req.state = ReqState::Done;
                if env.kind == EnvKind::SyncEager {
                    ctrl.push((env.src, sync_ack(self.rank, &env)));
                }
            }
            EnvKind::RndvReq => {
                // Clear-to-send; the body will arrive tagged with env.seq.
                self.unexpected.remove(at);
                req.state = ReqState::RecvArriving;
                req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                self.rndv_expect.insert((env.src, env.seq), idx);
                ctrl.push((env.src, rndv_ack(self.rank, &env)));
            }
            k => unreachable!("unexpected queue holds {k:?}"),
        }
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
            Sink::Unex(id) => {
                let at = self.unex_at(id).expect("body for released unexpected");
                let u = &mut self.unexpected[at];
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
            Sink::Unex(id) => {
                let at = self.unex_at(id).expect("body_done for released unexpected");
                self.unexpected[at].complete = true;
                if let Some(ri) = self.unexpected[at].claimed_by {
                    let Unex { env, data, got, .. } = self.unexpected.remove(at).expect("found above");
                    let req = &mut self.reqs[ri];
                    req.data = data;
                    req.got = got;
                    req.status = Some(Status { src: env.src, tag: env.tag, len: env.len });
                    req.state = ReqState::Done;
                    if env.kind == EnvKind::SyncEager {
                        ctrl.push((env.src, sync_ack(self.rank, &env)));
                    }
                }
            }
        }
        ctrl
    }

    /// Does any buffered unexpected message match `(src, tag, cxt)`?
    /// Returns its envelope metadata without consuming it (MPI_Iprobe).
    /// `&mut` only for `match_scan_peak`; matching state is unchanged.
    pub fn probe_unexpected(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> Option<Status> {
        self.find_unexpected(src, tag, cxt).map(|at| {
            let env = self.unexpected[at].env;
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

    /// A lookup ended at `hit` (or missed) in a queue `len` long: record
    /// how many entries it examined.
    fn note_scan(&mut self, hit: Option<usize>, len: usize) {
        self.match_scan_peak = self.match_scan_peak.max(hit.map_or(len, |at| at + 1));
    }

    /// Take the earliest posted receive whose filter accepts `env`.
    fn match_posted(&mut self, env: &Envelope) -> Option<usize> {
        let reqs = &self.reqs;
        let at = self.posted.iter().position(|&i| accepts(reqs[i].peer, reqs[i].tag, reqs[i].cxt, env));
        self.note_scan(at, self.posted.len());
        self.posted.remove(at?)
    }

    /// Position of the earliest unexpected message `(src, tag, cxt)` accepts
    /// that no receive has claimed yet.
    fn find_unexpected(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> Option<usize> {
        let at = self.unexpected.iter().position(|u| u.claimed_by.is_none() && accepts(src, tag, cxt, &u.env));
        self.note_scan(at, self.unexpected.len());
        at
    }

    /// Position of the entry `Sink::Unex(id)` names.
    fn unex_at(&self, id: usize) -> Option<usize> {
        self.unexpected.binary_search_by_key(&id, |u| u.id).ok()
    }

    fn push_unexpected(&mut self, env: Envelope) -> usize {
        let id = self.next_unex_id;
        self.next_unex_id += 1;
        self.unexpected.push_back(Unex { id, env, data: Vec::new(), got: 0, complete: false, claimed_by: None });
        self.unexpected_peak = self.unexpected_peak.max(self.unexpected.len());
        id
    }
}

/// Does the receive filter `(src, tag, cxt)` accept `env`?
fn accepts(src: Option<u16>, tag: Option<i32>, cxt: u32, env: &Envelope) -> bool {
    cxt == env.cxt && src.is_none_or(|s| s == env.src) && tag.is_none_or(|t| t == env.tag)
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

    /// Buffer a complete one-byte eager message `(src 0, tag, seq)`.
    fn arrive(c: &mut Core, tag: i32, seq: u32) {
        let env = Envelope { kind: EnvKind::Eager, src: 0, tag, cxt: 0, len: 1, seq };
        let sink = c.on_envelope(0, env).sink.unwrap();
        c.body_chunk(sink, Bytes::from(vec![seq as u8]));
        c.body_done(sink);
    }

    #[test]
    fn unreceived_message_does_not_pin_later_ones() {
        let mut c = Core::new(1, 2, K64);
        arrive(&mut c, 99, 0); // never received
        for seq in 1..=10_000 {
            arrive(&mut c, 1, seq);
            let (r, _) = c.post_recv(Some(0), Some(1), 0);
            assert_eq!(c.take_done(r).1[0][0], seq as u8);
        }
        assert_eq!(c.unexpected.len(), 1, "entries behind the old one leave when taken");
        assert_eq!(c.unexpected_peak, 2);
        assert_eq!(c.match_scan_peak, 2);
    }

    #[test]
    fn body_for_a_middle_entry_survives_removals_around_it() {
        let mut c = Core::new(1, 2, K64);
        let sinks: Vec<Sink> = (0..3)
            .map(|tag| {
                let env = Envelope { kind: EnvKind::Eager, src: 0, tag, cxt: 0, len: 2, seq: tag as u32 };
                c.on_envelope(0, env).sink.unwrap()
            })
            .collect();
        // A and C complete and are received; B is still mid-body.
        c.body_chunk(sinks[1], Bytes::from_static(b"b"));
        for i in [0, 2] {
            c.body_chunk(sinks[i], Bytes::from_static(b"xx"));
            c.body_done(sinks[i]);
            let (r, _) = c.post_recv(Some(0), Some(i as i32), 0);
            assert!(c.is_done(r));
        }
        assert_eq!(c.unexpected.len(), 1);
        c.body_chunk(sinks[1], Bytes::from_static(b"B"));
        c.body_done(sinks[1]);
        let (r, _) = c.post_recv(Some(0), Some(1), 0);
        let (st, data) = c.take_done(r);
        assert_eq!((st.tag, st.len), (1, 2));
        assert_eq!(data.concat(), b"bB");
        assert!(c.unexpected.is_empty());
    }
}
