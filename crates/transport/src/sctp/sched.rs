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

/// Which scheduler policy an association uses. Parsed from the
/// `SCTP_SCHED` env knob or set via `MpiCfg`.
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
    /// Weighted-fair: pick the stream with the least `bytes_sent / weight`
    /// virtual time. Unconfigured streams weigh 1.
    WeightedFair,
    /// Strict priority: lowest stream id always wins.
    StrictPriority,
}

impl SchedKind {
    /// Parse an env-knob string. Unrecognized or empty values fall back to
    /// [`SchedKind::Fcfs`] (garbage-tolerant, like the other env knobs).
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
    /// `out_streams` outbound streams. `weights` configures
    /// [`SchedKind::WeightedFair`] (stream id indexes it; missing entries
    /// and zeros weigh 1) and is ignored by the other policies.
    pub fn build(self, out_streams: u16, weights: &[u32]) -> Box<dyn StreamScheduler> {
        match self {
            SchedKind::Fcfs => Box::new(Fcfs),
            SchedKind::RoundRobin => Box::new(RoundRobin { last: None }),
            SchedKind::WeightedFair => {
                let n = out_streams as usize;
                let mut w = vec![1u32; n];
                for (i, &wi) in weights.iter().take(n).enumerate() {
                    w[i] = wi.max(1);
                }
                Box::new(WeightedFair { sent: vec![0; n], weights: w })
            }
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

/// Weighted-fair queueing: serve the stream with the smallest
/// `bytes_sent / weight`, compared exactly via cross-multiplication (no
/// floats in the simulation).
#[derive(Debug)]
pub struct WeightedFair {
    sent: Vec<u64>,
    weights: Vec<u32>,
}

impl WeightedFair {
    fn vt_lt(&self, a: u16, b: u16) -> bool {
        let (sa, wa) = (self.sent[a as usize] as u128, self.weights[a as usize] as u128);
        let (sb, wb) = (self.sent[b as usize] as u128, self.weights[b as usize] as u128);
        // sa/wa < sb/wb  ⇔  sa·wb < sb·wa
        sa * wb < sb * wa
    }
}

impl StreamScheduler for WeightedFair {
    fn pick(&self, candidates: &[SchedCandidate]) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if self.vt_lt(c.sid, candidates[best].sid) {
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
        // Stream 0 weight 3, stream 1 weight 1: over 8 sends stream 0
        // should get ~6.
        let mut s = WeightedFair { sent: vec![0, 0], weights: vec![3, 1] };
        let c = cands(&[(0, 0, 10), (1, 1, 10)]);
        let mut count0 = 0;
        for _ in 0..8 {
            let i = s.pick(&c);
            if c[i].sid == 0 {
                count0 += 1;
            }
            s.on_send(c[i].sid, 10);
        }
        assert_eq!(count0, 6);
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
