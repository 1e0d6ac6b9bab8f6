//! Byte-sequence buffers built on reference-counted [`Bytes`] chunks.
//!
//! The simulator moves *real* bytes end to end (so integrity is testable),
//! but never copies payloads: a segment carries cheap `Bytes` slices into
//! the sender's original buffers.

use std::collections::VecDeque;

use bytes::{Buf, Bytes};

/// A FIFO of bytes addressed by an absolute, monotonically increasing
/// sequence number — the retained send window of a TCP socket.
///
/// Each chunk is stored beside the sequence number of its first byte, so
/// [`slice_into`](Self::slice_into) finds the chunk holding any sequence
/// number by binary search instead of walking from the head. `head_seq` is
/// the sequence number of the first retained byte (the front chunk's
/// start); bytes below it have been acknowledged and dropped.
#[derive(Debug, Default)]
pub struct ByteQueue {
    /// `(start_seq, bytes)`, contiguous: each start is the previous one's
    /// end.
    chunks: VecDeque<(u64, Bytes)>,
    head_seq: u64,
    len: u64,
}

impl ByteQueue {
    /// An empty queue whose first byte will carry sequence `start_seq`.
    pub fn new(start_seq: u64) -> Self {
        ByteQueue { chunks: VecDeque::new(), head_seq: start_seq, len: 0 }
    }

    /// Sequence number of the first retained byte.
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// One past the last byte.
    #[inline]
    pub fn end_seq(&self) -> u64 {
        self.head_seq + self.len
    }

    /// Bytes currently retained.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bytes are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append data at the tail.
    pub fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let start = self.end_seq();
        self.len += data.len() as u64;
        self.chunks.push_back((start, data));
    }

    /// Drop all bytes below `seq` (they were acknowledged). `seq` values at
    /// or below the current head are no-ops; `seq` beyond the end panics.
    pub fn advance_to(&mut self, seq: u64) {
        assert!(seq <= self.end_seq(), "ack beyond buffered data");
        while self.head_seq < seq {
            let (start, front) = self.chunks.front_mut().expect("length invariant");
            let drop = ((seq - *start) as usize).min(front.len());
            if drop == front.len() {
                self.chunks.pop_front();
            } else {
                front.advance(drop);
                *start += drop as u64;
            }
            self.head_seq += drop as u64;
            self.len -= drop as u64;
        }
    }

    /// Cheap handles to the bytes in `[seq, seq + want)`, clamped to what is
    /// buffered. Used to (re)build segment payloads.
    pub fn slice(&self, seq: u64, want: usize) -> Vec<Bytes> {
        let mut out = Vec::new();
        self.slice_into(seq, want, &mut out);
        out
    }

    /// [`slice`](Self::slice) appended into a caller-provided (usually
    /// pooled) list, so the per-segment emit path reuses one buffer instead
    /// of allocating a fresh `Vec` per packet. O(log n) to find the first
    /// chunk, then one slice per chunk covered.
    pub fn slice_into(&self, seq: u64, want: usize, out: &mut Vec<Bytes>) {
        assert!(seq >= self.head_seq, "slice below retained window");
        let mut want = want.min((self.end_seq() - seq) as usize);
        let first = self.chunks.partition_point(|(start, c)| start + c.len() as u64 <= seq);
        let mut skip = self.chunks.get(first).map_or(0, |(start, _)| (seq - start) as usize);
        for (_, c) in self.chunks.range(first..) {
            if want == 0 {
                break;
            }
            let take = (c.len() - skip).min(want);
            out.push(c.slice(skip..skip + take));
            want -= take;
            skip = 0;
        }
    }
}

/// Concatenate a list of chunks into one owned buffer (test/verification
/// helper; the hot paths never do this).
pub fn concat(chunks: &[Bytes]) -> Bytes {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut v = Vec::with_capacity(total);
    for c in chunks {
        v.extend_from_slice(c);
    }
    Bytes::from(v)
}

/// Total length of a chunk list.
pub fn total_len(chunks: &[Bytes]) -> usize {
    chunks.iter().map(|c| c.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bq(parts: &[&[u8]]) -> ByteQueue {
        let mut q = ByteQueue::new(100);
        for p in parts {
            q.push(Bytes::copy_from_slice(p));
        }
        q
    }

    #[test]
    fn push_tracks_len_and_seqs() {
        let q = bq(&[b"hello", b" world"]);
        assert_eq!(q.head_seq(), 100);
        assert_eq!(q.end_seq(), 111);
        assert_eq!(q.len(), 11);
    }

    #[test]
    fn slice_spans_chunk_boundaries() {
        let q = bq(&[b"hello", b" world"]);
        let s = concat(&q.slice(103, 5));
        assert_eq!(&s[..], b"lo wo");
    }

    #[test]
    fn slice_clamps_to_buffered() {
        let q = bq(&[b"abc"]);
        let s = concat(&q.slice(102, 100));
        assert_eq!(&s[..], b"c");
        assert!(q.slice(103, 10).is_empty());
    }

    #[test]
    fn advance_drops_whole_and_partial_chunks() {
        let mut q = bq(&[b"hello", b" world"]);
        q.advance_to(107); // drops "hello" and " w"
        assert_eq!(q.head_seq(), 107);
        assert_eq!(concat(&q.slice(107, 10))[..], b"orld"[..]);
        // Old acks are no-ops.
        q.advance_to(50);
        assert_eq!(q.head_seq(), 107);
    }

    #[test]
    fn slice_after_a_partial_advance_starts_in_the_trimmed_chunk() {
        let mut q = bq(&[b"abcd", b"efgh", b"ijkl"]);
        q.advance_to(106); // "abcd" gone, "ef" trimmed off the second chunk
        assert_eq!(concat(&q.slice(106, 3))[..], b"ghi"[..]);
        assert_eq!(concat(&q.slice(107, 100))[..], b"hijkl"[..]);
        q.push(Bytes::from_static(b"mn"));
        assert_eq!(concat(&q.slice(111, 3))[..], b"lmn"[..]);
    }

    #[test]
    #[should_panic(expected = "ack beyond")]
    fn advance_past_end_panics() {
        let mut q = bq(&[b"abc"]);
        q.advance_to(104);
    }

    #[test]
    fn empty_push_is_noop() {
        let mut q = ByteQueue::new(0);
        q.push(Bytes::new());
        assert!(q.is_empty());
    }
}
