//! Property-based tests for the matching engine: MPI's non-overtaking
//! guarantee and wildcard matching hold under arbitrary interleavings of
//! posts and arrivals.

use bytes::Bytes;
use proptest::prelude::*;

// The matching engine is pub; drive it directly.
use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::Core;

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
                    c.body_chunk(sink, Bytes::from(payload));
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
            c.body_chunk(sink, Bytes::from(vec![i as u8]));
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
// Indexed matcher ≡ naive reference scan
// ---------------------------------------------------------------------------

/// One step of a multi-source, multi-context interleaving with wildcards.
#[derive(Debug, Clone)]
enum XOp {
    Arrive { src: u16, tag: i32, cxt: u32 },
    Post { src: Option<u16>, tag: Option<i32>, cxt: u32 },
    Probe { src: Option<u16>, tag: Option<i32>, cxt: u32 },
}

fn xops() -> impl Strategy<Value = Vec<XOp>> {
    let arrive = (0u16..3, 0i32..3, 0u32..2).prop_map(|(src, tag, cxt)| XOp::Arrive { src, tag, cxt });
    let filt = || {
        (
            prop_oneof![Just(None), (0u16..3).prop_map(Some)],
            prop_oneof![Just(None), (0i32..3).prop_map(Some)],
            0u32..2,
        )
    };
    let post = filt().prop_map(|(src, tag, cxt)| XOp::Post { src, tag, cxt });
    let probe = filt().prop_map(|(src, tag, cxt)| XOp::Probe { src, tag, cxt });
    prop::collection::vec(prop_oneof![arrive, post, probe], 0..80)
}

proptest! {
    /// The hash-indexed matcher must be observationally identical to the
    /// naive linear scan it replaced: same envelope→receive pairing, same
    /// delivery order, same probe answers, for every interleaving of
    /// arrivals and (wildcard) posts across sources, tags, and contexts.
    #[test]
    fn indexed_matcher_equals_naive_scan(ops in xops()) {
        let mut c = Core::new(1, 4, 64 * 1024);
        // Naive reference model: plain Vec scans in arrival/post order.
        // (src, tag, cxt, payload id, consumed)
        let mut m_unex: Vec<(u16, i32, u32, u8, bool)> = Vec::new();
        // (src filter, tag filter, cxt, result slot)
        let mut m_posted: Vec<(Option<u16>, Option<i32>, u32, usize)> = Vec::new();
        let mut m_result: Vec<Option<(u16, i32, u8)>> = Vec::new();
        let mut reqs: Vec<mpi_core::matching::ReqId> = Vec::new();
        // Completed receives are taken as soon as the model says they are
        // done, so later posts reuse their request slots while the posted
        // and unexpected indexes still hold older entries.
        let mut taken: Vec<bool> = Vec::new();
        let mut next_id = 0u8;
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
            match op {
                XOp::Arrive { src, tag, cxt } => {
                    let id = next_id;
                    next_id = next_id.wrapping_add(1);
                    let env = Envelope { kind: EnvKind::Eager, src, tag, cxt, len: 1, seq: 0 };
                    let sink = c.on_envelope(src, env).sink.unwrap();
                    c.body_chunk(sink, Bytes::from(vec![id]));
                    let _ = c.body_done(sink);
                    let hit = m_posted.iter().position(|&(s, t, cx, _)| {
                        cx == cxt && s.is_none_or(|s| s == src) && t.is_none_or(|t| t == tag)
                    });
                    if let Some(pos) = hit {
                        let (_, _, _, slot) = m_posted.remove(pos);
                        m_result[slot] = Some((src, tag, id));
                    } else {
                        m_unex.push((src, tag, cxt, id, false));
                    }
                }
                XOp::Post { src, tag, cxt } => {
                    let (r, _) = c.post_recv(src, tag, cxt);
                    reqs.push(r);
                    taken.push(false);
                    let slot = m_result.len();
                    m_result.push(None);
                    let hit = m_unex.iter_mut().find(|u| {
                        !u.4 && u.2 == cxt && src.is_none_or(|s| s == u.0) && tag.is_none_or(|t| t == u.1)
                    });
                    if let Some(u) = hit {
                        u.4 = true;
                        m_result[slot] = Some((u.0, u.1, u.3));
                    } else {
                        m_posted.push((src, tag, cxt, slot));
                    }
                }
                XOp::Probe { src, tag, cxt } => {
                    let got = c.probe_unexpected(src, tag, cxt).map(|st| (st.src, st.tag));
                    let want = m_unex
                        .iter()
                        .find(|u| {
                            !u.4 && u.2 == cxt
                                && src.is_none_or(|s| s == u.0)
                                && tag.is_none_or(|t| t == u.1)
                        })
                        .map(|u| (u.0, u.1));
                    prop_assert_eq!(got, want, "probe diverged from naive scan");
                }
            }
        }
        // Whatever is still in the table was never matched.
        for (i, r) in reqs.iter().enumerate() {
            if !taken[i] {
                prop_assert!(!c.is_done(*r), "post {} pending in model, done in engine", i);
            }
        }
    }
}
