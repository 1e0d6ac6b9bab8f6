//! Slab pools for the packet plane: recycled buffers for everything the
//! hot paths used to allocate per packet.
//!
//! The data plane's steady state builds the same handful of temporaries for
//! every packet — a payload slice list, a SACK/gap block list, an SCTP
//! chunk bundle, the packet list of one send opportunity — and dropped each
//! of them on delivery. [`Pools`] keeps the retired buffers on per-world
//! freelists so the steady state allocates nothing: `take_*` hands back a
//! previously retired buffer (empty, capacity intact) and `put_*` retires
//! one after its contents have been consumed.
//!
//! # Lifecycle contract
//!
//! * A buffer is `take`n empty and `put` back exactly once, after the last
//!   read of its contents. Double-put is structurally impossible (puts move
//!   the buffer); use-after-put is a logic bug the poisoning below exists
//!   to catch.
//! * `put_*` clears the buffer immediately — element drops (e.g. `Bytes`
//!   refcounts) happen at retirement, not while the buffer waits on the
//!   freelist.
//! * Debug builds poison retired byte scratch with `0xA5` before reuse, so
//!   stale-read bugs surface as garbage checksums/payloads instead of
//!   silently reading the previous packet's bytes.
//! * Freelists are capped (`MAX_POOLED`) so a burst cannot pin unbounded
//!   memory; overflow buffers just drop.
//!
//! Pools live on the [`crate::World`], one set per world. Everything here
//! is single-threaded by construction (a world belongs to one scheduler),
//! so `take`/`put` are plain `Vec` push/pop — no atomics, no locks.

use bytes::Bytes;
use simcore::ProcId;

use crate::ip::Packet;
use crate::sctp::{Chunk, RecvMsg};

/// Freelist length cap per buffer kind.
const MAX_POOLED: usize = 256;

/// Debug-mode poison byte for retired `u8` scratch.
pub const POISON: u8 = 0xA5;

/// Per-world freelists for the packet plane's temporaries.
#[derive(Default)]
pub struct Pools {
    /// Payload slice lists (`TcpSegment::payload`, SCTP message bodies).
    bytes_vecs: Vec<Vec<Bytes>>,
    /// `[start, end)` block lists (TCP SACK blocks, SCTP gap-acks, hole
    /// lists from range scans).
    gap_vecs: Vec<Vec<(u64, u64)>>,
    /// SCTP chunk bundles (`SctpPacket::chunks`).
    chunk_vecs: Vec<Vec<Chunk>>,
    /// Packets of one send opportunity (`ip::send_train` input).
    packet_vecs: Vec<Vec<Packet>>,
    /// TCP output-burst staging lists (`(seq, payload, fin)` per segment).
    seg_vecs: Vec<Vec<(u64, Vec<Bytes>, bool)>>,
    /// Assembled-message lists staged between reassembly and delivery.
    msg_vecs: Vec<Vec<RecvMsg>>,
    /// Wake lists (blocked reader/writer process ids) swapped out of a
    /// socket while a deferred wake is staged.
    proc_vecs: Vec<Vec<ProcId>>,
    /// Byte scratch (wire encodes, cross-chunk payload splices). Poisoned
    /// in debug builds on retirement.
    byte_scratch: Vec<Vec<u8>>,
    /// Take/put traffic, for diagnostics.
    pub stats: PoolStats,
}

/// Pool traffic counters.
#[derive(Default, Debug, Clone, Copy)]
pub struct PoolStats {
    /// `take_*` calls served from a freelist (no allocation).
    pub reused: u64,
    /// `take_*` calls that had to construct a fresh buffer.
    pub fresh: u64,
}

macro_rules! pool_accessors {
    ($take:ident, $put:ident, $field:ident, $ty:ty, $doc:literal) => {
        #[doc = concat!("Take an empty ", $doc, " (recycled when available).")]
        #[inline]
        pub fn $take(&mut self) -> $ty {
            match self.$field.pop() {
                Some(b) => {
                    self.stats.reused += 1;
                    debug_assert!(b.is_empty(), "pooled buffer retired dirty");
                    b
                }
                None => {
                    self.stats.fresh += 1;
                    Default::default()
                }
            }
        }

        #[doc = concat!("Retire a ", $doc, " after its last read; clears it now.")]
        #[inline]
        pub fn $put(&mut self, mut b: $ty) {
            b.clear();
            if self.$field.len() < MAX_POOLED {
                self.$field.push(b);
            }
        }
    };
}

impl Pools {
    pool_accessors!(take_bytes_vec, put_bytes_vec, bytes_vecs, Vec<Bytes>, "payload slice list");
    pool_accessors!(take_gap_vec, put_gap_vec, gap_vecs, Vec<(u64, u64)>, "gap/SACK block list");
    pool_accessors!(take_chunk_vec, put_chunk_vec, chunk_vecs, Vec<Chunk>, "chunk bundle");
    pool_accessors!(take_packet_vec, put_packet_vec, packet_vecs, Vec<Packet>, "packet train");
    pool_accessors!(
        take_seg_vec,
        put_seg_vec,
        seg_vecs,
        Vec<(u64, Vec<Bytes>, bool)>,
        "TCP output staging list"
    );
    pool_accessors!(take_msg_vec, put_msg_vec, msg_vecs, Vec<RecvMsg>, "assembled-message list");
    pool_accessors!(take_proc_vec, put_proc_vec, proc_vecs, Vec<ProcId>, "wake list");

    /// Take empty byte scratch. In debug builds the buffer arrives filled
    /// with [`POISON`] up to its capacity *watermark* from the previous
    /// use, then truncated to empty — any read past `len` sees `0xA5`.
    #[inline]
    pub fn take_byte_scratch(&mut self) -> Vec<u8> {
        match self.byte_scratch.pop() {
            Some(b) => {
                self.stats.reused += 1;
                debug_assert!(b.iter().all(|&x| x == POISON), "byte scratch retired unpoisoned");
                let mut b = b;
                b.clear();
                b
            }
            None => {
                self.stats.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Retire byte scratch. Debug builds re-fill it with [`POISON`] so a
    /// stale read of the old contents cannot go unnoticed.
    #[inline]
    pub fn put_byte_scratch(&mut self, mut b: Vec<u8>) {
        if cfg!(debug_assertions) {
            let cap = b.len();
            b.clear();
            b.resize(cap, POISON);
        } else {
            b.clear();
        }
        if self.byte_scratch.len() < MAX_POOLED {
            self.byte_scratch.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_capacity() {
        let mut p = Pools::default();
        let mut v = p.take_bytes_vec();
        v.reserve(64);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        p.put_bytes_vec(v);
        let v2 = p.take_bytes_vec();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "expected the same buffer back");
        assert_eq!(p.stats.reused, 1);
        assert_eq!(p.stats.fresh, 1);
    }

    #[test]
    fn put_clears_contents_immediately() {
        let mut p = Pools::default();
        let mut v = p.take_gap_vec();
        v.push((1, 2));
        p.put_gap_vec(v);
        assert!(p.take_gap_vec().is_empty());
    }

    #[test]
    fn freelist_is_capped() {
        let mut p = Pools::default();
        for _ in 0..(MAX_POOLED + 10) {
            p.put_gap_vec(Vec::with_capacity(8));
        }
        assert_eq!(p.gap_vecs.len(), MAX_POOLED);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn byte_scratch_is_poisoned_on_retirement() {
        let mut p = Pools::default();
        let mut b = p.take_byte_scratch();
        b.extend_from_slice(b"sensitive payload");
        p.put_byte_scratch(b);
        // The retired buffer holds only poison (the debug_assert in take
        // re-checks this; inspect directly too).
        assert!(p.byte_scratch[0].iter().all(|&x| x == POISON));
        let again = p.take_byte_scratch();
        assert!(again.is_empty());
    }
}
