//! Sender-side stream scheduling for RFC 8260 message interleaving.
//!
//! Every association queues its unsent fragments per stream (`Assoc::out_q`,
//! one queue per outbound stream, each in enqueue order), and one
//! [`Scheduler`] value decides which stream's front fragment goes out next
//! by reading the queue fronts directly. With I-DATA negotiated, fragments
//! of different user messages may interleave on the wire, so that choice is
//! a real policy: one of the four [`SchedKind`]s the experiments compare
//! (first-come-first-served, round-robin, weighted-fair, strict-priority).
//! Without interleaving the association runs FCFS whatever policy it was
//! configured with (the handshake settles the policy once), and FCFS over
//! per-stream queues is the single-FIFO order exactly: each message's
//! fragments stay TSN-contiguous for the peer's sequential reassembler.
//!
//! # Determinism contract
//!
//! The scheduler runs inside the discrete-event simulation, so a pick is a
//! pure function of the scheduler's own state and the queue fronts: no RNG,
//! no `HashMap` iteration order, no wall-clock reads. Ties break toward the
//! lowest stream id.
//!
//! # Peek/pop consistency
//!
//! The engine calls [`Scheduler::pick`] (a `&self` peek) while deciding
//! whether the next chunk fits the congestion window, and only after
//! committing to transmit pops the fragment and calls [`Scheduler::on_pop`]
//! (the `&mut self` state update). The engine may peek several times (cwnd
//! gate, rwnd gate, budget gate) before one pop, and repeated peeks agree.

use std::collections::VecDeque;

use super::assoc::PendingChunk;

/// Which scheduler policy an association uses, set via `MpiCfg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// First-come-first-served: pop fragments in global enqueue order.
    /// This reproduces the pre-interleaving single-FIFO wire order exactly
    /// (fragments of one message stay contiguous), and is the forced
    /// fallback when the peer did not negotiate interleaving.
    #[default]
    Fcfs,
    /// Round-robin over streams with queued data, one fragment per turn.
    RoundRobin,
    /// Fair queueing: pick the stream with the fewest bytes sent (every
    /// stream weighs the same).
    WeightedFair,
    /// Strict priority: lowest stream id always wins.
    StrictPriority,
}

impl SchedKind {
    /// Parse a policy name (`fcfs`, `rr`, `wfq`, `prio` and spellings).
    /// Unrecognized or empty values fall back to [`SchedKind::Fcfs`].
    pub fn parse(s: &str) -> SchedKind {
        match s.trim().to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "round_robin" | "roundrobin" => SchedKind::RoundRobin,
            "wfq" | "fair" | "weighted-fair" | "weighted_fair" => SchedKind::WeightedFair,
            "prio" | "priority" | "strict-priority" | "strict_priority" => {
                SchedKind::StrictPriority
            }
            _ => SchedKind::Fcfs,
        }
    }

    /// Short stable name, used in BENCH json and table headers.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Fcfs => "fcfs",
            SchedKind::RoundRobin => "rr",
            SchedKind::WeightedFair => "wfq",
            SchedKind::StrictPriority => "prio",
        }
    }
}

/// The stream scheduler of one association: its policy and the state the
/// policies keep.
pub(crate) struct Scheduler {
    kind: SchedKind,
    /// Stream of the last popped fragment: the round-robin cursor and the
    /// FCFS fast path's guess. Meaningless while `next_seq` is 0.
    last_sid: u16,
    /// `seq` of the last popped fragment plus one; 0 before the first pop.
    next_seq: u64,
    /// Weighted-fair: payload bytes popped per stream (sized only for
    /// [`SchedKind::WeightedFair`]).
    wfq_sent: Vec<u64>,
}

impl Scheduler {
    /// A fresh scheduler running `kind` over `out_streams` stream queues.
    pub(crate) fn new(kind: SchedKind, out_streams: usize) -> Self {
        let wfq_sent = if kind == SchedKind::WeightedFair { vec![0; out_streams] } else { Vec::new() };
        Scheduler { kind, last_sid: 0, next_seq: 0, wfq_sent }
    }

    /// Which stream supplies the next fragment, given the per-stream
    /// queues; `None` when every queue is empty.
    pub(crate) fn pick(&self, queues: &[VecDeque<PendingChunk>]) -> Option<u16> {
        let mut fronts =
            queues.iter().enumerate().filter_map(|(sid, q)| q.front().map(|pc| (sid as u16, pc)));
        match self.kind {
            SchedKind::Fcfs => {
                // Each queue is in `seq` order and every pop took the lowest
                // queued `seq`, so a front one past the last popped `seq`
                // is the lowest: inside a message no front is scanned. A
                // PR-SCTP abandonment only removes fragments, so the check
                // stays sound; it just misses and falls back to the scan.
                let last = queues.get(self.last_sid as usize).and_then(|q| q.front());
                if last.is_some_and(|pc| pc.seq == self.next_seq) {
                    return Some(self.last_sid);
                }
                fronts.min_by_key(|(_, pc)| pc.seq).map(|(sid, _)| sid)
            }
            SchedKind::RoundRobin => {
                // The first stream above the cursor, else wrap to the lowest;
                // a fresh association starts at the lowest.
                let mut sids = fronts.map(|(sid, _)| sid);
                let lowest = sids.next()?;
                let last = self.last_sid;
                if self.next_seq > 0 && lowest <= last {
                    sids.find(|&s| s > last).or(Some(lowest))
                } else {
                    Some(lowest)
                }
            }
            SchedKind::WeightedFair => {
                fronts.min_by_key(|&(sid, _)| self.wfq_sent[sid as usize]).map(|(sid, _)| sid)
            }
            SchedKind::StrictPriority => fronts.next().map(|(sid, _)| sid),
        }
    }

    /// Record that `pc`, the front of stream `sid`, was popped for
    /// transmission. Called exactly once per popped fragment.
    pub(crate) fn on_pop(&mut self, sid: u16, pc: &PendingChunk) {
        self.last_sid = sid;
        self.next_seq = pc.seq + 1;
        if self.kind == SchedKind::WeightedFair {
            self.wfq_sent[sid as usize] += pc.data.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// One single-fragment message with enqueue sequence `seq` and `len`
    /// payload bytes.
    fn frag(stream: u16, seq: u64, len: usize) -> PendingChunk {
        PendingChunk {
            stream,
            ssn: 0,
            begin: true,
            end: true,
            ppid: 0,
            data: Bytes::from(vec![0u8; len]),
            fsn: 0,
            seq,
            expires: None,
        }
    }

    /// Ten stream queues holding `frags` as `(stream, seq, len)`, pushed in
    /// the order given.
    fn queues(frags: &[(u16, u64, usize)]) -> Vec<VecDeque<PendingChunk>> {
        let mut q: Vec<VecDeque<PendingChunk>> = (0..10).map(|_| VecDeque::new()).collect();
        for &(sid, seq, len) in frags {
            q[sid as usize].push_back(frag(sid, seq, len));
        }
        q
    }

    /// Pick and pop `n` times; the streams served, in order.
    fn drain(s: &mut Scheduler, q: &mut [VecDeque<PendingChunk>], n: usize) -> Vec<u16> {
        (0..n)
            .map(|_| {
                let sid = s.pick(q).expect("a queue holds data");
                let pc = q[sid as usize].pop_front().unwrap();
                s.on_pop(sid, &pc);
                sid
            })
            .collect()
    }

    #[test]
    fn fcfs_follows_global_sequence() {
        let s = Scheduler::new(SchedKind::Fcfs, 10);
        let q = queues(&[(0, 9, 100), (3, 2, 100), (7, 5, 100)]);
        assert_eq!(s.pick(&q), Some(3));
        assert_eq!(Scheduler::new(SchedKind::Fcfs, 10).pick(&queues(&[])), None);
    }

    #[test]
    fn round_robin_cycles_and_wraps() {
        let mut s = Scheduler::new(SchedKind::RoundRobin, 10);
        let mut q = queues(&[(1, 0, 10), (4, 1, 10), (9, 2, 10), (1, 3, 10), (4, 4, 10), (9, 5, 10)]);
        assert_eq!(drain(&mut s, &mut q, 6), vec![1, 4, 9, 1, 4, 9]);
    }

    #[test]
    fn round_robin_skips_empty_streams() {
        let mut s = Scheduler::new(SchedKind::RoundRobin, 10);
        s.on_pop(4, &frag(4, 0, 10));
        // Stream 4 holds nothing; the next stream above 4 is 9.
        let mut q = queues(&[(1, 0, 10), (9, 2, 10), (9, 3, 10)]);
        assert_eq!(drain(&mut s, &mut q, 1), vec![9]);
        assert_eq!(s.pick(&q), Some(1), "wraps past the top");
    }

    #[test]
    fn weighted_fair_respects_weights() {
        // Unit weights: the stream with fewer bytes sent is served first,
        // whatever its id or queue position; equal counts go to the lower id.
        let mut s = Scheduler::new(SchedKind::WeightedFair, 10);
        s.on_pop(0, &frag(0, 0, 30));
        s.on_pop(1, &frag(1, 1, 10));
        let mut q = queues(&[
            (0, 2, 10),
            (1, 3, 10),
            (2, 4, 10),
            (0, 5, 10),
            (1, 6, 10),
            (2, 7, 10),
            (0, 8, 10),
            (1, 9, 10),
            (2, 10, 10),
        ]);
        assert_eq!(drain(&mut s, &mut q, 6), vec![2, 1, 2, 1, 2, 0]);
    }

    #[test]
    fn strict_priority_starves_high_ids() {
        let s = Scheduler::new(SchedKind::StrictPriority, 10);
        let q = queues(&[(2, 50, 10), (5, 1, 10)]);
        assert_eq!(s.pick(&q), Some(2));
    }

    #[test]
    fn parse_is_garbage_tolerant() {
        assert_eq!(SchedKind::parse("rr"), SchedKind::RoundRobin);
        assert_eq!(SchedKind::parse(" Weighted-Fair "), SchedKind::WeightedFair);
        assert_eq!(SchedKind::parse("prio"), SchedKind::StrictPriority);
        assert_eq!(SchedKind::parse("fcfs"), SchedKind::Fcfs);
        assert_eq!(SchedKind::parse("banana"), SchedKind::Fcfs);
        assert_eq!(SchedKind::parse(""), SchedKind::Fcfs);
    }
}
