//! Property-based tests for the transport crate's core data structures.

use bytes::Bytes;
use proptest::prelude::*;
use transport::buf::{concat, ByteQueue};
use transport::crc32c::crc32c;
use transport::ranges::RangeSet;
use transport::sctp::{RcvWindow, SentRing};

// ---------------------------------------------------------------------------
// RangeSet vs a naive point-set model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u64, u64),
    RemoveBelow(u64),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..200, 0u64..40).prop_map(|(s, l)| RangeOp::Insert(s, s + l)),
            (0u64..220).prop_map(RangeOp::RemoveBelow),
        ],
        0..40,
    )
}

proptest! {
    #[test]
    fn rangeset_matches_naive_model(ops in range_ops()) {
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                RangeOp::Insert(s, e) => {
                    rs.insert(s, e);
                    for v in s..e {
                        model.insert(v);
                    }
                }
                RangeOp::RemoveBelow(cut) => {
                    rs.remove_below(cut);
                    model.retain(|&v| v >= cut);
                }
            }
        }
        // Covered count agrees.
        prop_assert_eq!(rs.covered(), model.len() as u64);
        // Point membership agrees.
        for v in 0..250u64 {
            prop_assert_eq!(rs.contains(v), model.contains(&v), "point {}", v);
        }
        // Ranges are sorted, non-overlapping, non-adjacent.
        let ranges: Vec<_> = rs.iter().collect();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "ranges must not touch: {:?}", ranges);
        }
        for (s, e) in ranges {
            prop_assert!(s < e);
        }
    }

    #[test]
    fn rangeset_holes_partition_span(ops in range_ops(), lo in 0u64..200, len in 0u64..60) {
        let mut rs = RangeSet::new();
        for op in ops {
            if let RangeOp::Insert(s, e) = op {
                rs.insert(s, e);
            }
        }
        let hi = lo + len;
        let holes = rs.holes_within(lo, hi);
        // Every hole point is absent; every non-hole point in span is present.
        let mut hole_points = std::collections::BTreeSet::new();
        for (s, e) in &holes {
            prop_assert!(*s < *e);
            for v in *s..*e {
                prop_assert!(!rs.contains(v), "hole point {} claimed present", v);
                hole_points.insert(v);
            }
        }
        for v in lo..hi {
            if !hole_points.contains(&v) {
                prop_assert!(rs.contains(v), "non-hole point {} missing", v);
            }
        }
    }

    #[test]
    fn first_missing_is_correct(ops in range_ops(), from in 0u64..250) {
        let mut rs = RangeSet::new();
        for op in ops {
            if let RangeOp::Insert(s, e) = op {
                rs.insert(s, e);
            }
        }
        let m = rs.first_missing_from(from);
        prop_assert!(m >= from);
        prop_assert!(!rs.contains(m));
        for v in from..m {
            prop_assert!(rs.contains(v));
        }
    }
}

// ---------------------------------------------------------------------------
// SentRing vs a BTreeMap<tsn, _> model (the send window it replaced)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RingOp {
    /// Push the next TSN; `true` = a PR-SCTP phantom (born acked).
    Push(bool),
    /// Cumulative ack at `base + d` — below, inside and past the window.
    CumAck(i64),
    /// Gap-ack `[base + lo, base + lo + len)` — likewise.
    GapAck(i64, u64),
    /// Walk `range(base + d..)` and `range(..base + d)`.
    Walk(i64),
}

fn ring_ops() -> impl Strategy<Value = Vec<RingOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<bool>().prop_map(RingOp::Push),
            any::<bool>().prop_map(RingOp::Push),
            (-3i64..12).prop_map(RingOp::CumAck),
            (-4i64..30, 0u64..8).prop_map(|(lo, len)| RingOp::GapAck(lo, len)),
            (-4i64..30).prop_map(RingOp::Walk),
        ],
        0..80,
    )
}

proptest! {
    /// Same TSNs, same order, same survivors as the ordered map under any
    /// interleaving of sends, cumulative acks, gap acks and cursor walks.
    #[test]
    fn sent_ring_matches_btreemap_model(first in 1u64..1000, ops in ring_ops()) {
        let mut ring: SentRing<(u64, bool)> = SentRing::new(first);
        let mut model: std::collections::BTreeMap<u64, (u64, bool)> = Default::default();
        let (mut next, mut base) = (first, first);
        let at = |base: u64, d: i64| base.saturating_add_signed(d);
        for op in ops {
            match op {
                RingOp::Push(phantom) => {
                    ring.push(next, (next * 7, phantom));
                    model.insert(next, (next * 7, phantom));
                    next += 1;
                }
                RingOp::CumAck(d) => {
                    let cum = at(base, d);
                    let mut popped = Vec::new();
                    while let Some(e) = ring.pop_acked(cum) {
                        popped.push(e);
                    }
                    let rest = model.split_off(&(cum + 1));
                    let acked: Vec<_> = std::mem::replace(&mut model, rest).into_iter().collect();
                    prop_assert_eq!(popped, acked);
                    base = base.max(cum + 1).min(next);
                }
                RingOp::GapAck(lo, len) => {
                    let (g0, g1) = (at(base, lo), at(base, lo) + len);
                    let hit: Vec<u64> = ring.range_mut(g0..g1).map(|(t, c)| { c.1 = true; t }).collect();
                    let want: Vec<u64> = model.range_mut(g0..g1).map(|(&t, c)| { c.1 = true; t }).collect();
                    prop_assert_eq!(hit, want);
                }
                RingOp::Walk(d) => {
                    let floor = at(base, d);
                    let got: Vec<_> = ring.range(floor..).map(|(t, c)| (t, *c)).collect();
                    let want: Vec<_> = model.range(floor..).map(|(&t, c)| (t, *c)).collect();
                    prop_assert_eq!(got, want);
                    let got: Vec<_> = ring.range(..floor).map(|(t, c)| (t, *c)).collect();
                    let want: Vec<_> = model.range(..floor).map(|(&t, c)| (t, *c)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(ring.get(floor), model.get(&floor));
                }
            }
            let all: Vec<_> = ring.range(..).map(|(t, c)| (t, *c)).collect();
            let want: Vec<_> = model.iter().map(|(&t, c)| (t, *c)).collect();
            prop_assert_eq!(all, want);
        }
    }
}

#[test]
#[should_panic(expected = "TSN-contiguous")]
fn sent_ring_rejects_a_non_consecutive_push() {
    let mut ring = SentRing::new(10);
    ring.push(10, ());
    ring.push(12, ());
}

// ---------------------------------------------------------------------------
// RcvWindow vs RangeSet + a separate cumulative TSN (what it replaced)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RcvOp {
    /// A TSN arrives at `cum + d` (duplicates and stale ones included).
    Arrive(i64),
    /// FORWARD-TSN to `cum + d` (backwards jumps are ignored).
    Forward(i64),
}

fn rcv_ops() -> impl Strategy<Value = Vec<RcvOp>> {
    prop::collection::vec(
        prop_oneof![
            (1i64..2).prop_map(RcvOp::Arrive),
            (-2i64..24).prop_map(RcvOp::Arrive),
            (-2i64..24).prop_map(RcvOp::Arrive),
            (-3i64..16).prop_map(RcvOp::Forward),
        ],
        0..120,
    )
}

proptest! {
    /// Same cumulative point, same gap blocks, same duplicate verdicts on
    /// any arrival order, across FORWARD-TSN jumps.
    #[test]
    fn rcv_window_matches_rangeset_model(first in 0u64..1000, ops in rcv_ops()) {
        let mut win = RcvWindow::new(first);
        let (mut cum, mut have) = (first, RangeSet::new());
        let advance = |cum: &mut u64, have: &mut RangeSet| {
            let first_missing = have.first_missing_from(*cum + 1);
            if first_missing > *cum + 1 {
                *cum = first_missing - 1;
                have.remove_below(*cum + 1);
            }
        };
        for op in ops {
            match op {
                RcvOp::Arrive(d) => {
                    let tsn = cum.saturating_add_signed(d);
                    let dup = tsn <= cum || have.contains(tsn);
                    prop_assert_eq!(win.contains(tsn), dup, "duplicate verdict for {}", tsn);
                    prop_assert_eq!(win.fills_gap(tsn), have.max_end().is_some_and(|e| tsn < e));
                    if !dup {
                        win.insert(tsn);
                        have.insert_point(tsn);
                        advance(&mut cum, &mut have);
                    }
                }
                RcvOp::Forward(d) => {
                    let new_cum = cum.saturating_add_signed(d);
                    win.forward_to(new_cum);
                    if new_cum > cum {
                        cum = new_cum;
                        have.remove_below(cum + 1);
                        advance(&mut cum, &mut have);
                    }
                }
            }
            prop_assert_eq!(win.cum(), cum);
            prop_assert_eq!(win.gaps().collect::<Vec<_>>(), have.iter().collect::<Vec<_>>());
            prop_assert_eq!(win.num_gaps(), have.num_ranges());
        }
    }
}

// ---------------------------------------------------------------------------
// ByteQueue vs a Vec<u8> model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum QueueOp {
    /// Append a chunk of this many bytes (0 is a no-op).
    Push(usize),
    /// Acknowledge up to `head + d`, clamped to the end: as likely to stop
    /// inside a chunk as on a boundary.
    Advance(u64),
    /// Slice `want` bytes at `head + off % (len + 1)`.
    Slice(u64, usize),
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..50).prop_map(QueueOp::Push),
            (0usize..50).prop_map(QueueOp::Push),
            (0u64..60).prop_map(QueueOp::Advance),
            (any::<u64>(), 0usize..300).prop_map(|(off, want)| QueueOp::Slice(off, want)),
            (any::<u64>(), 0usize..300).prop_map(|(off, want)| QueueOp::Slice(off, want)),
        ],
        0..500,
    )
}

proptest! {
    /// Pushes, partial acks and slices interleaved over up to ~200 chunks:
    /// a chunk index that went stale after a partial `advance_to` would
    /// slice from the wrong place.
    #[test]
    fn bytequeue_slices_match_model(ops in queue_ops()) {
        let mut q = ByteQueue::new(1000);
        let mut model: Vec<u8> = Vec::new();
        let (mut head, mut pushed) = (1000u64, 0usize);
        for op in ops {
            match op {
                QueueOp::Push(n) => {
                    let c: Vec<u8> = (pushed..pushed + n).map(|i| (i * 7 + i / 256) as u8).collect();
                    pushed += n;
                    q.push(Bytes::from(c.clone()));
                    model.extend_from_slice(&c);
                }
                QueueOp::Advance(d) => {
                    let target = (head + d).min(q.end_seq());
                    q.advance_to(target);
                    model.drain(..(target - head) as usize);
                    head = target;
                }
                QueueOp::Slice(off, want) => {
                    let seq = head + off % (model.len() as u64 + 1);
                    let pieces = q.slice(seq, want);
                    prop_assert!(pieces.iter().all(|p| !p.is_empty()), "empty piece at {}", seq);
                    let m_off = (seq - head) as usize;
                    let m_end = (m_off + want).min(model.len());
                    prop_assert_eq!(&concat(&pieces)[..], &model[m_off..m_end]);
                }
            }
            prop_assert_eq!(q.head_seq(), head);
            prop_assert_eq!(q.len() as usize, model.len());
            prop_assert_eq!(q.end_seq(), head + model.len() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32c sanity
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn crc_split_invariance(data in prop::collection::vec(any::<u8>(), 0..200), split in 0usize..200) {
        let split = split.min(data.len());
        let mut c = transport::crc32c::Crc32c::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), crc32c(&data));
    }
}

// ---------------------------------------------------------------------------
// Cookie MAC: forgery resistance over random field tweaks
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn cookie_mac_detects_any_field_tweak(
        secret in any::<u64>(),
        tag in any::<u64>(),
        field in 0usize..5,
        delta in 1u64..1000,
    ) {
        use transport::sctp::Cookie;
        use simcore::SimTime;
        let c = Cookie {
            peer_host: 1,
            peer_port: 2,
            local_port: 3,
            peer_tag: tag,
            local_tag: tag ^ 0xF0F0,
            peer_rwnd: 1000,
            peer_init_tsn: 1,
            my_init_tsn: 1,
            out_streams: 10,
            in_streams: 10,
            created_at: SimTime::from_nanos(77),
            ext_flags: 0,
            mac: 0,
        }
        .sign(secret);
        prop_assert!(c.verify(secret));
        let mut forged = c;
        match field {
            0 => forged.peer_tag = forged.peer_tag.wrapping_add(delta),
            1 => forged.local_tag = forged.local_tag.wrapping_add(delta),
            2 => forged.peer_rwnd = forged.peer_rwnd.wrapping_add(delta),
            3 => forged.peer_host = forged.peer_host.wrapping_add(delta as u16),
            _ => forged.created_at = SimTime::from_nanos(77 + delta),
        }
        prop_assert!(!forged.verify(secret), "tweak of field {} undetected", field);
    }
}

// ---------------------------------------------------------------------------
// Slab pools: recycling never leaks one use's contents into the next
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PoolOp {
    /// Take a payload list and hold it.
    Take,
    /// Fill held buffer `i` with `n` marker chunks and retire it.
    Put { i: usize, n: usize },
}

fn pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(PoolOp::Take),
            (0usize..8, 0usize..16).prop_map(|(i, n)| PoolOp::Put { i, n }),
        ],
        1..64,
    )
}

proptest! {
    /// Every `take_*` observes an empty buffer no matter what the previous
    /// holder wrote into it — recycling reuses capacity, never contents —
    /// and the reuse/fresh counters account for every take.
    #[test]
    fn pool_recycling_never_exposes_stale_contents(ops in pool_ops()) {
        let mut pool = transport::pool::Pools::default();
        let mut held: Vec<Vec<Bytes>> = Vec::new();
        let mut takes = 0u64;
        for op in ops {
            match op {
                PoolOp::Take => {
                    let v = pool.take_bytes_vec();
                    prop_assert!(v.is_empty(), "pooled buffer arrived non-empty");
                    takes += 1;
                    held.push(v);
                }
                PoolOp::Put { i, n } => {
                    if held.is_empty() {
                        continue;
                    }
                    let mut v = held.swap_remove(i % held.len());
                    for k in 0..n {
                        v.push(Bytes::from(vec![k as u8; 3]));
                    }
                    pool.put_bytes_vec(v);
                }
            }
        }
        prop_assert_eq!(pool.stats.reused + pool.stats.fresh, takes);
        // Drain whatever the freelist holds: all empty, and a buffer taken
        // right after a dirty put must not show the marker chunks.
        for _ in 0..takes {
            prop_assert!(pool.take_bytes_vec().is_empty());
        }
    }
}
