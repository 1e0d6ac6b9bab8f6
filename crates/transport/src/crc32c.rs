//! CRC32c (Castagnoli), the SCTP packet checksum (RFC 4960 Appendix B).
//!
//! The paper's evaluation *disables* CRC32c in the kernel to equalize CPU
//! cost with TCP (whose checksum is NIC-offloaded); our configuration does
//! the same by default. The implementation is still here — and tested
//! against published vectors — because the security discussion (§3.5.2) and
//! the cookie mechanism rely on it, because the `crc_enabled` ablation
//! charges its true per-byte CPU cost, and because the socket backend
//! computes and verifies it on every frame it sends and receives.
//!
//! Two backends share one state machine:
//!
//! * a byte-at-a-time software table (portable, the reference);
//! * the SSE4.2 `crc32` instruction on x86-64, detected at runtime. One
//!   `crc32q` chain is latency-bound (about three cycles per quadword), so
//!   the aligned middle of the buffer runs as **three independent chains**
//!   over consecutive `LANE`-byte lanes of each 3 × `LANE` block, and the
//!   lane results are joined with a table that shifts a CRC register over
//!   `LANE` zero bytes (zlib's `crc32_combine` construction, built at
//!   compile time from GF(2) matrix powers). On a 2-vCPU x86-64 VM that
//!   takes a 1 452-byte frame from ~95 to ~70 ns and 128 KiB from 8.5 to
//!   17 GB/s; the join is on the loop-carried path, which is why it is not
//!   the instruction's full one-per-cycle rate.
//!
//! Both compute the identical reflected-polynomial CRC, so the backend is
//! invisible to callers; the equivalence tests sweep lengths past three
//! whole blocks, every alignment and incremental splits inside a lane to
//! hold them to that.

/// Reflected CRC32c polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Byte-at-a-time lookup table, generated at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            b += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Fold `data` into `crc` one byte at a time (the portable reference).
#[inline]
fn update_soft(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bytes each of the three interleaved hardware chains covers per block.
const LANE: usize = 128;

/// A GF(2) linear map on the 32-bit CRC register: entry `i` is the image of
/// bit `i`.
type Gf2Matrix = [u32; 32];

const fn gf2_times(mat: &Gf2Matrix, mut vec: u32) -> u32 {
    let (mut sum, mut i) = (0, 0);
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn gf2_square(mat: &Gf2Matrix) -> Gf2Matrix {
    let mut sq = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        sq[i] = gf2_times(mat, mat[i]);
        i += 1;
    }
    sq
}

/// `SHIFT[k][b]` is the register after `LANE` zero bytes starting from
/// `b << 8k`; XOR-ing the four lookups shifts any register, because the
/// raw update is linear.
const SHIFT: [[u32; 256]; 4] = {
    // One zero bit: shift right, folding the polynomial in on a carry out.
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut i = 1;
    while i < 32 {
        op[i] = 1 << (i - 1);
        i += 1;
    }
    // Square up to 8 × LANE zero bits (LANE is a power of two).
    let mut bits = 1;
    while bits < 8 * LANE {
        op = gf2_square(&op);
        bits *= 2;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = gf2_times(&op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
};

/// The raw register after `LANE` zero bytes.
#[inline]
fn shift_lane(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// Fold `data` into `crc` with the SSE4.2 `crc32` instruction: byte ops up
/// to 8-byte alignment; three-lane blocks over the aligned middle, each
/// lane its own `crc32q` chain, joined by [`shift_lane`]; serial quadword
/// ops over the rest of the middle; byte ops on the tail.
///
/// Joining is exact because the raw update is linear: for lanes `A`, `B`,
/// `C` of one block, `crc(s, ABC) = shift(shift(crc(s, A)) ^ crc(0, B)) ^
/// crc(0, C)`.
///
/// # Safety
/// The caller must have verified `sse4.2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    const Q: usize = LANE / 8;
    let (head, mids, tail) = data.align_to::<u64>();
    for &b in head {
        crc = _mm_crc32_u8(crc, b);
    }
    // `align_to` yields native-endian u64 reads of consecutive bytes; the
    // instruction consumes them in exactly that (little-endian byte-stream)
    // order.
    let mut blocks = mids.chunks_exact(3 * Q);
    for block in &mut blocks {
        let (a, rest) = block.split_at(Q);
        let (b, c) = rest.split_at(Q);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0u64, 0u64);
        for ((&qa, &qb), &qc) in a.iter().zip(b).zip(c) {
            ca = _mm_crc32_u64(ca, qa);
            cb = _mm_crc32_u64(cb, qb);
            cc = _mm_crc32_u64(cc, qc);
        }
        crc = shift_lane(shift_lane(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    let mut acc = crc as u64;
    for &q in blocks.remainder() {
        acc = _mm_crc32_u64(acc, q);
    }
    crc = acc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Whether the hardware path is available on this machine, decided once.
#[cfg(target_arch = "x86_64")]
#[inline]
fn hw_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 yes, 2 no
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("sse4.2");
            STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Dispatch one update through the fastest correct backend.
#[inline]
fn update_dispatch(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if hw_available() {
            // Safety: gated on the runtime sse4.2 probe above.
            return unsafe { update_hw(crc, data) };
        }
    }
    update_soft(crc, data)
}

/// Incrementally updatable CRC32c.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// A fresh (all-ones) CRC state.
    pub fn new() -> Self {
        Crc32c(0xFFFF_FFFF)
    }

    /// Fold `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) {
        self.0 = update_dispatch(self.0, data);
    }

    /// The final (inverted) CRC32c value.
    pub fn finalize(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32c of a buffer.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / common test vectors for CRC32c.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32c::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finalize(), crc32c(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xABu8; 100];
        let orig = crc32c(&data);
        data[57] ^= 0x10;
        assert_ne!(crc32c(&data), orig);
    }

    /// Deterministic bytes with no structure the CRC could be insensitive
    /// to (xorshift, full-byte entropy).
    fn noise(len: usize) -> Vec<u8> {
        let mut x: u32 = 0x1234_5678;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn lane_shift_table_is_lane_zero_bytes() {
        // The combine table on its own, so it is checked on machines
        // without SSE4.2 too.
        for s in [0, 1, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            assert_eq!(shift_lane(s), update_soft(s, &[0; LANE]), "register {s:#010x}");
        }
    }

    #[test]
    fn hardware_and_software_backends_agree() {
        // Sweep lengths across every head / three-lane block / serial
        // quadword / tail split the dispatcher can produce — up to three
        // whole blocks plus a tail — at every alignment within a quadword.
        // On machines without SSE4.2 both sides take the table path and the
        // test is vacuous; the CI x86-64 runners are the ones holding the
        // claim.
        let max = 3 * (3 * LANE) + 15;
        let backing = noise(max + 8);
        for align in 0..8 {
            for len in 0..=max {
                let data = &backing[align..align + len];
                let hw = crc32c(data);
                let sw = !update_soft(0xFFFF_FFFF, data);
                assert_eq!(hw, sw, "backend divergence at align={align} len={len}");
            }
        }
        let big = noise(64 * 1024);
        assert_eq!(crc32c(&big), !update_soft(0xFFFF_FFFF, &big), "64 KiB");
    }

    #[test]
    fn incremental_split_points_agree_across_backends() {
        // Incremental updates restart the head/block/tail decomposition at
        // every call; the running state must still be byte-stream exact,
        // including splits that land inside a lane or a block.
        let data = noise(4 * 3 * LANE + 21);
        let oneshot = !update_soft(0xFFFF_FFFF, &data);
        let splits = [0, 1, 3, 7, 8, 9, 63, LANE - 1, LANE + 5, 2 * LANE + 3, 3 * LANE, 3 * LANE + 1, 1000];
        for split in splits.into_iter().chain([data.len() - 1, data.len()]) {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), oneshot, "split at {split}");
        }
        // Three pieces, each starting mid-lane.
        let mut c = Crc32c::new();
        for piece in [&data[..LANE / 2 + 3], &data[LANE / 2 + 3..5 * LANE + 1], &data[5 * LANE + 1..]] {
            c.update(piece);
        }
        assert_eq!(c.finalize(), oneshot, "three pieces");
    }
}
