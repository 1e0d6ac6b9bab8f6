//! Sender-side stream schedulers for RFC 8260 message interleaving.
//!
//! With I-DATA negotiated, fragments of different user messages may
//! interleave on the wire, so "which stream supplies the next chunk?"
//! becomes a real policy question. This module defines the
//! [`StreamScheduler`] trait the engine consults once per chunk slot, plus
//! the four deterministic policies the experiments compare
//! (first-come-first-served, round-robin, weighted-fair, strict-priority).
//!
//! # Determinism contract
//!
//! Schedulers run inside the discrete-event simulation, so every
//! implementation MUST be a pure function of its own explicit state and the
//! candidate list: no RNG, no `HashMap` iteration order, no wall-clock
//! reads. Ties MUST break toward the lowest stream id. The engine
//! guarantees the candidate slice is sorted by ascending stream id and
//! non-empty.
//!
//! # Peek/pop consistency
//!
//! The engine calls [`StreamScheduler::pick`] (a `&self` peek) while
//! deciding whether the next chunk fits the congestion window, and only
//! after committing to transmit calls [`StreamScheduler::on_send`] (the
//! `&mut self` state update). A `pick` therefore MUST NOT mutate: the
//! engine may peek several times (cwnd gate, rwnd gate, budget gate)
//! before one pop, and repeated peeks must agree.

/// One schedulable stream, as presented to [`StreamScheduler::pick`].
#[derive(Debug, Clone, Copy)]
pub struct SchedCandidate {
    /// Stream id with at least one queued fragment.
    pub sid: u16,
    /// Global enqueue sequence number of the stream's front fragment
    /// (monotone across the association; FCFS order).
    pub front_seq: u64,
    /// Payload length of the stream's front fragment, bytes.
    pub front_len: u32,
}

/// A sender-side stream scheduling policy (RFC 8260 §4 / SCTP_SS_* socket
/// options in usrsctp).
///
/// The engine keeps one boxed scheduler per association and consults it
/// once per chunk-transmission slot.
pub trait StreamScheduler {
    /// Choose which candidate stream supplies the next chunk. Returns an
    /// index into `candidates`. Must be deterministic and side-effect free
    /// (see the module docs for the peek/pop contract).
    fn pick(&self, candidates: &[SchedCandidate]) -> usize;

    /// Record that `bytes` of stream `sid`'s front fragment were committed
    /// for transmission. Called exactly once per popped fragment.
    fn on_send(&mut self, sid: u16, bytes: u32);
}

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

    /// Build a fresh scheduler instance for an association with
    /// `out_streams` outbound streams.
    pub fn build(self, out_streams: u16) -> Box<dyn StreamScheduler> {
        match self {
            SchedKind::Fcfs => Box::new(Fcfs),
            SchedKind::RoundRobin => Box::new(RoundRobin { last: None }),
            SchedKind::WeightedFair => Box::new(WeightedFair { sent: vec![0; out_streams as usize] }),
            SchedKind::StrictPriority => Box::new(StrictPriority),
        }
    }
}

/// FCFS: lowest global enqueue sequence first — the single-FIFO order.
#[derive(Debug)]
pub struct Fcfs;

impl StreamScheduler for Fcfs {
    fn pick(&self, candidates: &[SchedCandidate]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.front_seq < candidates[best].front_seq {
                best = i;
            }
        }
        best
    }

    fn on_send(&mut self, _sid: u16, _bytes: u32) {}
}

/// Round-robin: the next stream (by id, wrapping) after the last-served
/// one. A fresh association starts at the lowest candidate.
#[derive(Debug)]
pub struct RoundRobin {
    last: Option<u16>,
}

impl StreamScheduler for RoundRobin {
    fn pick(&self, candidates: &[SchedCandidate]) -> usize {
        match self.last {
            None => 0,
            Some(last) => {
                // First candidate with sid strictly above the cursor, else
                // wrap to the lowest (candidates are sorted by sid).
                candidates.iter().position(|c| c.sid > last).unwrap_or(0)
            }
        }
    }

    fn on_send(&mut self, sid: u16, _bytes: u32) {
        self.last = Some(sid);
    }
}

/// Fair queueing with unit weights: serve the stream with the fewest bytes
/// sent so far; ties go to the lowest stream id.
#[derive(Debug)]
pub struct WeightedFair {
    sent: Vec<u64>,
}

impl StreamScheduler for WeightedFair {
    fn pick(&self, candidates: &[SchedCandidate]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if self.sent[c.sid as usize] < self.sent[candidates[best].sid as usize] {
                best = i;
            }
        }
        best
    }

    fn on_send(&mut self, sid: u16, bytes: u32) {
        self.sent[sid as usize] += bytes as u64;
    }
}

/// Strict priority: the lowest stream id with queued data always wins
/// (stream id doubles as priority level; 0 is most urgent).
#[derive(Debug)]
pub struct StrictPriority;

impl StreamScheduler for StrictPriority {
    fn pick(&self, _candidates: &[SchedCandidate]) -> usize {
        0 // candidates are sorted by ascending sid
    }

    fn on_send(&mut self, _sid: u16, _bytes: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(v: &[(u16, u64, u32)]) -> Vec<SchedCandidate> {
        v.iter()
            .map(|&(sid, front_seq, front_len)| SchedCandidate { sid, front_seq, front_len })
            .collect()
    }

    #[test]
    fn fcfs_follows_global_sequence() {
        let s = Fcfs;
        let c = cands(&[(0, 9, 100), (3, 2, 100), (7, 5, 100)]);
        assert_eq!(s.pick(&c), 1);
    }

    #[test]
    fn round_robin_cycles_and_wraps() {
        let mut s = RoundRobin { last: None };
        let c = cands(&[(1, 0, 10), (4, 1, 10), (9, 2, 10)]);
        let mut order = Vec::new();
        for _ in 0..6 {
            let i = s.pick(&c);
            order.push(c[i].sid);
            s.on_send(c[i].sid, 10);
        }
        assert_eq!(order, vec![1, 4, 9, 1, 4, 9]);
    }

    #[test]
    fn round_robin_skips_empty_streams() {
        let mut s = RoundRobin { last: Some(4) };
        // Stream 4 vanished from the candidates; next above 4 is 9.
        let c = cands(&[(1, 0, 10), (9, 2, 10)]);
        assert_eq!(c[s.pick(&c)].sid, 9);
        s.on_send(9, 10);
        assert_eq!(c[s.pick(&c)].sid, 1, "wraps past the top");
    }

    #[test]
    fn weighted_fair_respects_weights() {
        // Unit weights: the stream with fewer bytes sent is served first,
        // whatever its id or queue position; equal counts go to the lower id.
        let mut s = WeightedFair { sent: vec![0, 0, 0] };
        s.on_send(0, 30);
        s.on_send(1, 10);
        let c = cands(&[(0, 0, 10), (1, 1, 10), (2, 2, 10)]);
        let mut order = Vec::new();
        for _ in 0..6 {
            let i = s.pick(&c);
            order.push(c[i].sid);
            s.on_send(c[i].sid, 10);
        }
        assert_eq!(order, vec![2, 1, 2, 1, 2, 0]);
    }

    #[test]
    fn strict_priority_starves_high_ids() {
        let s = StrictPriority;
        let c = cands(&[(2, 50, 10), (5, 1, 10)]);
        assert_eq!(c[s.pick(&c)].sid, 2);
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
