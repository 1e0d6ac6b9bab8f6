//! Property-based tests for the matching engine: MPI's non-overtaking
//! guarantee and wildcard matching hold under arbitrary interleavings of
//! posts and arrivals.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use proptest::prelude::*;

// The matching engine is pub; drive it directly.
use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::{Core, Sink};

#[derive(Debug, Clone)]
enum Op {
    /// Post a receive with optional wildcards (src is always rank 0 here).
    PostRecv { any_src: bool, tag: Option<i32> },
    /// An eager envelope + body arrives from rank 0 with this tag.
    Arrive { tag: i32 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<bool>(), prop_oneof![Just(None), (0i32..4).prop_map(Some)])
                .prop_map(|(any_src, tag)| Op::PostRecv { any_src, tag }),
            (0i32..4).prop_map(|tag| Op::Arrive { tag }),
        ],
        0..60,
    )
}

proptest! {
    /// Messages with the same (tag, rank, context) must be received in send
    /// order, no matter how receives interleave with arrivals.
    #[test]
    fn non_overtaking_per_trc(ops in ops()) {
        let mut c = Core::new(1, 2, 64 * 1024);
        let mut sent_seq_per_tag = [0u8; 4];
        let mut posted: Vec<mpi_core::matching::ReqId> = Vec::new();
        for op in ops {
            match op {
                Op::Arrive { tag } => {
                    let payload = vec![tag as u8, sent_seq_per_tag[tag as usize]];
                    sent_seq_per_tag[tag as usize] += 1;
                    let env = Envelope {
                        kind: EnvKind::Eager,
                        src: 0,
                        tag,
                        cxt: 0,
                        len: 2,
                        seq: 0,
                    };
                    let out = c.on_envelope(0, env);
                    let sink = out.sink.unwrap();
                    c.body_chunks(sink, [Bytes::from(payload)]);
                    let _ = c.body_done(sink);
                }
                Op::PostRecv { any_src, tag } => {
                    let src = if any_src { None } else { Some(0) };
                    let (r, ctrl) = c.post_recv(src, tag, 0);
                    prop_assert!(ctrl.is_empty());
                    posted.push(r);
                }
            }
        }
        // Drain: take every completed receive and check per-tag ordering.
        let mut next_seen = [0u8; 4];
        for r in posted {
            if c.is_done(r) {
                let (st, data) = c.take_done(r);
                let body: Vec<u8> = data.iter().flat_map(|b| b.iter().copied()).collect();
                prop_assert_eq!(body.len(), 2);
                let tag = body[0] as usize;
                prop_assert_eq!(st.tag as usize, tag, "status tag mismatch");
                prop_assert_eq!(body[1], next_seen[tag], "overtaking on tag {}", tag);
                next_seen[tag] += 1;
            }
        }
    }

    /// Every arrived message is delivered exactly once when enough receives
    /// are posted afterwards.
    #[test]
    fn exactly_once_delivery(tags in prop::collection::vec(0i32..4, 0..30)) {
        let mut c = Core::new(1, 2, 64 * 1024);
        for (i, &tag) in tags.iter().enumerate() {
            let env = Envelope { kind: EnvKind::Eager, src: 0, tag, cxt: 0, len: 1, seq: i as u32 };
            let sink = c.on_envelope(0, env).sink.unwrap();
            c.body_chunks(sink, [Bytes::from(vec![i as u8])]);
            let _ = c.body_done(sink);
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..tags.len() {
            let (r, _) = c.post_recv(None, None, 0);
            prop_assert!(c.is_done(r), "posted recv must match a buffered msg");
            let (_, data) = c.take_done(r);
            prop_assert!(seen.insert(data[0][0]), "duplicate delivery");
        }
        prop_assert_eq!(seen.len(), tags.len());
        // One more receive must NOT match anything.
        let (r, _) = c.post_recv(None, None, 0);
        prop_assert!(!c.is_done(r));
    }
}

// ---------------------------------------------------------------------------
// Matcher ≡ naive reference scan
// ---------------------------------------------------------------------------

/// One step of a multi-source, multi-context interleaving with wildcards.
#[derive(Debug, Clone)]
enum XOp {
    /// An eager envelope arrives; with `whole` its body completes at once,
    /// otherwise a later `FinishBody` completes it.
    Arrive { src: u16, tag: i32, cxt: u32, whole: bool },
    /// Complete one of the bodies still arriving (`pick` modulo how many).
    FinishBody { pick: usize },
    /// A rendezvous request arrives (its body is never sent here).
    ArriveRndv { src: u16, tag: i32, cxt: u32 },
    Post { src: Option<u16>, tag: Option<i32>, cxt: u32 },
    Probe { src: Option<u16>, tag: Option<i32>, cxt: u32 },
}

fn xops() -> impl Strategy<Value = Vec<XOp>> {
    let trc = || (0u16..3, 0i32..3, 0u32..2);
    let arrive =
        || (trc(), any::<bool>()).prop_map(|((src, tag, cxt), whole)| XOp::Arrive { src, tag, cxt, whole });
    let finish = (0usize..8).prop_map(|pick| XOp::FinishBody { pick });
    let rndv = trc().prop_map(|(src, tag, cxt)| XOp::ArriveRndv { src, tag, cxt });
    let filt = || {
        (
            prop_oneof![Just(None), (0u16..3).prop_map(Some)],
            prop_oneof![Just(None), (0i32..3).prop_map(Some)],
            0u32..2,
        )
    };
    let post = || filt().prop_map(|(src, tag, cxt)| XOp::Post { src, tag, cxt });
    let probe = filt().prop_map(|(src, tag, cxt)| XOp::Probe { src, tag, cxt });
    // Arrivals and posts twice as likely as the rest, so both queues fill.
    prop::collection::vec(prop_oneof![arrive(), arrive(), finish, rndv, post(), post(), probe], 0..80)
}

/// The model's unexpected entry; `seq` is `Some` for a rendezvous request.
struct MUnex {
    src: u16,
    tag: i32,
    cxt: u32,
    id: u8,
    seq: Option<u32>,
    complete: bool,
    claimed_by: Option<usize>,
    gone: bool,
}

impl MUnex {
    fn new(src: u16, tag: i32, cxt: u32, id: u8, seq: Option<u32>) -> MUnex {
        MUnex { src, tag, cxt, id, seq, complete: false, claimed_by: None, gone: false }
    }

    fn matchable(&self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> bool {
        !self.gone
            && self.claimed_by.is_none()
            && self.cxt == cxt
            && src.is_none_or(|s| s == self.src)
            && tag.is_none_or(|t| t == self.tag)
    }
}

/// The model's posted receive: (src filter, tag filter, cxt, result slot).
type MPosted = (Option<u16>, Option<i32>, u32, usize);

/// Take the earliest posted receive accepting `(src, tag, cxt)`.
fn take_posted(m_posted: &mut Vec<MPosted>, src: u16, tag: i32, cxt: u32) -> Option<usize> {
    let hit = m_posted
        .iter()
        .position(|&(s, t, cx, _)| cx == cxt && s.is_none_or(|s| s == src) && t.is_none_or(|t| t == tag));
    hit.map(|pos| m_posted.remove(pos).3)
}

/// Where the model says a body still arriving will land.
enum MSink {
    Slot(usize),
    Unex(usize),
}

/// How often, over all generated cases, a post claimed an entry whose body
/// was still arriving, and a post answered a buffered rendezvous request.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);
static RNDV_ANSWERED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    /// The cases of `matcher_equals_naive_scan` below.
    fn matcher_cases(ops in xops()) {
        let mut c = Core::new(1, 4, 64 * 1024);
        // Naive reference model: plain Vec scans in arrival/post order.
        let mut m_unex: Vec<MUnex> = Vec::new();
        let mut m_unex_peak = 0;
        let mut m_posted: Vec<MPosted> = Vec::new();
        let mut m_result: Vec<Option<(u16, i32, u8)>> = Vec::new();
        // Bodies still arriving: engine sink, (src, tag, payload id), model sink.
        let mut open: Vec<(Sink, (u16, i32, u8), MSink)> = Vec::new();
        let mut reqs: Vec<mpi_core::matching::ReqId> = Vec::new();
        // Completed receives are taken as soon as the model says they are
        // done, so later posts reuse their request slots while the posted
        // and unexpected queues still hold older entries.
        let mut taken: Vec<bool> = Vec::new();
        let mut next_id = 0u8;
        let mut next_seq = 0u32;
        // (`None`: one more sweep after the last op.)
        for op in ops.into_iter().map(Some).chain([None]) {
            for (i, r) in reqs.iter().enumerate() {
                let Some((src, tag, id)) = m_result[i] else { continue };
                if taken[i] {
                    continue;
                }
                prop_assert!(c.is_done(*r), "post {} done in model, pending in engine", i);
                let (st, data) = c.take_done(*r);
                prop_assert_eq!((st.src, st.tag), (src, tag), "status diverged on post {}", i);
                prop_assert_eq!(data[0][0], id, "wrong message delivered to post {}", i);
                taken[i] = true;
            }
            let Some(op) = op else { break };
            // The open body this op completes, if any.
            let mut finish = None;
            match op {
                XOp::Arrive { src, tag, cxt, whole } => {
                    let id = next_id;
                    next_id = next_id.wrapping_add(1);
                    let env = Envelope { kind: EnvKind::Eager, src, tag, cxt, len: 1, seq: 0 };
                    let sink = c.on_envelope(src, env).sink.unwrap();
                    let msink = match take_posted(&mut m_posted, src, tag, cxt) {
                        Some(slot) => MSink::Slot(slot),
                        None => {
                            m_unex.push(MUnex::new(src, tag, cxt, id, None));
                            MSink::Unex(m_unex.len() - 1)
                        }
                    };
                    prop_assert_eq!(
                        matches!(sink, Sink::Req(_)),
                        matches!(msink, MSink::Slot(_)),
                        "arrival paired differently from the naive scan"
                    );
                    open.push((sink, (src, tag, id), msink));
                    if whole {
                        finish = Some(open.len() - 1);
                    }
                }
                XOp::FinishBody { pick } => {
                    if !open.is_empty() {
                        finish = Some(pick % open.len());
                    }
                }
                XOp::ArriveRndv { src, tag, cxt } => {
                    let seq = next_seq;
                    next_seq += 1;
                    let env = Envelope { kind: EnvKind::RndvReq, src, tag, cxt, len: 100_000, seq };
                    let out = c.on_envelope(src, env);
                    prop_assert!(out.sink.is_none());
                    // A post it matches waits from now on for a body that
                    // never comes: pending in the model and in the engine.
                    if take_posted(&mut m_posted, src, tag, cxt).is_some() {
                        prop_assert_eq!(out.ctrl.len(), 1, "one clear-to-send per rendezvous");
                        let (to, ack) = out.ctrl[0];
                        prop_assert_eq!((to, ack.kind, ack.seq), (src, EnvKind::RndvAck, seq));
                    } else {
                        prop_assert!(out.ctrl.is_empty());
                        m_unex.push(MUnex::new(src, tag, cxt, 0, Some(seq)));
                    }
                }
                XOp::Post { src, tag, cxt } => {
                    let (r, ctrl) = c.post_recv(src, tag, cxt);
                    reqs.push(r);
                    taken.push(false);
                    let slot = m_result.len();
                    m_result.push(None);
                    match m_unex.iter_mut().find(|u| u.matchable(src, tag, cxt)) {
                        Some(u) if u.seq.is_some() => {
                            u.gone = true;
                            prop_assert_eq!(ctrl.len(), 1, "one clear-to-send per rendezvous");
                            let (to, ack) = ctrl[0];
                            prop_assert_eq!((to, ack.kind, Some(ack.seq)), (u.src, EnvKind::RndvAck, u.seq));
                            RNDV_ANSWERED.fetch_add(1, Relaxed);
                        }
                        Some(u) if u.complete => {
                            u.gone = true;
                            m_result[slot] = Some((u.src, u.tag, u.id));
                            prop_assert!(ctrl.is_empty());
                        }
                        Some(u) => {
                            u.claimed_by = Some(slot);
                            prop_assert!(ctrl.is_empty());
                            CLAIMED.fetch_add(1, Relaxed);
                        }
                        None => {
                            m_posted.push((src, tag, cxt, slot));
                            prop_assert!(ctrl.is_empty());
                        }
                    }
                }
                XOp::Probe { src, tag, cxt } => {
                    let got = c.probe_unexpected(src, tag, cxt).map(|st| (st.src, st.tag));
                    let want = m_unex.iter().find(|u| u.matchable(src, tag, cxt)).map(|u| (u.src, u.tag));
                    prop_assert_eq!(got, want, "probe diverged from naive scan");
                }
            }
            m_unex_peak = m_unex_peak.max(m_unex.iter().filter(|u| !u.gone).count());
            if let Some(at) = finish {
                let (sink, (src, tag, id), msink) = open.remove(at);
                c.body_chunks(sink, [Bytes::from(vec![id])]);
                let _ = c.body_done(sink);
                match msink {
                    MSink::Slot(slot) => m_result[slot] = Some((src, tag, id)),
                    MSink::Unex(i) => {
                        let u = &mut m_unex[i];
                        u.complete = true;
                        // Completion hands the bytes to the claimer.
                        if let Some(slot) = u.claimed_by {
                            u.gone = true;
                            m_result[slot] = Some((src, tag, id));
                        }
                    }
                }
            }
        }
        // Whatever is still in the table was never matched.
        for (i, r) in reqs.iter().enumerate() {
            if !taken[i] {
                prop_assert!(!c.is_done(*r), "post {} pending in model, done in engine", i);
            }
        }
        prop_assert_eq!(c.unexpected_peak, m_unex_peak);
    }
}

/// The matcher must be observationally identical to a naive linear scan:
/// same envelope→receive pairing, same delivery order, same probe answers,
/// same control envelopes, for every interleaving of eager arrivals (whole,
/// or with the body completing later), rendezvous requests and (wildcard)
/// posts across sources, tags, and contexts.
#[test]
fn matcher_equals_naive_scan() {
    matcher_cases();
    assert!(CLAIMED.load(Relaxed) > 0, "no generated case claimed an entry mid-body");
    assert!(RNDV_ANSWERED.load(Relaxed) > 0, "no generated case answered a buffered rendezvous");
}
