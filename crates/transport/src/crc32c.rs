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
//! Three kernels share one state machine, picked per call at run time:
//!
//! * **Fold** (x86-64 with `avx512f`, `vpclmulqdq`, `pclmulqdq`, `sse4.2`;
//!   inputs of 256 bytes or more): carry-less multiplication by
//!   `x^n mod P` moves 512 bits of message `n` bits down without changing
//!   its residue, so four 512-bit accumulators fold 256 bytes per step, then
//!   fold into one, into 128 bits and over the remaining 16-byte blocks;
//!   two `crc32q` reduce the last 128 bits. On a 2-vCPU x86-64 VM a
//!   1 452-byte frame takes ~35 ns instead of ~110 ns.
//! * **Three lanes** (SSE4.2): one `crc32q` chain is latency-bound, so each
//!   384-byte block runs as three independent chains joined by a table that
//!   shifts a register over `LANE` zero bytes (zlib's `crc32_combine`,
//!   built at compile time); shorter inputs, and every tail, run one serial
//!   `crc32q` chain.
//! * **Table**: byte at a time, portable, the reference.
//!
//! All three compute the identical reflected-polynomial CRC, so the kernel
//! is invisible to callers; the tests sweep each kernel the machine has
//! against the table over every fold stage, alignment and split.

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

/// Fold `data` into `crc` with plain serial `crc32q` / `crc32b`, no
/// alignment head: the whole of a short input, and the tail of the others.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_serial(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut quads = data.chunks_exact(8);
    let mut acc = crc as u64;
    for q in &mut quads {
        acc = _mm_crc32_u64(acc, u64::from_le_bytes(q.try_into().expect("8-byte chunk")));
    }
    let mut crc = acc as u32;
    for &b in quads.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Fold `data` into `crc` with the SSE4.2 `crc32` instruction: three-lane
/// blocks, each lane its own `crc32q` chain, joined by [`shift_lane`]; then
/// [`update_serial`] over what is left.
///
/// Joining is exact because the raw update is linear: for lanes `A`, `B`,
/// `C` of one block, `crc(s, ABC) = shift(shift(crc(s, A)) ^ crc(0, B)) ^
/// crc(0, C)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_hw(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let quad = |lane: &[u8], i: usize| u64::from_le_bytes(lane[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let mut blocks = data.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0u64, 0u64);
        for i in 0..LANE / 8 {
            ca = _mm_crc32_u64(ca, quad(a, i));
            cb = _mm_crc32_u64(cb, quad(b, i));
            cc = _mm_crc32_u64(cc, quad(c, i));
        }
        crc = shift_lane(shift_lane(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    update_serial(crc, blocks.remainder())
}

/// Bytes the carry-less-multiply kernel folds per step: four 64-byte
/// accumulators. The dispatcher sends shorter inputs to [`update_hw`].
const FOLD_BLOCK: usize = 256;

/// `x^n mod P`, bit-reflected and shifted left one bit (a reflected
/// carry-less product lands one bit low, and this puts it back).
const fn xpow(n: u32) -> u64 {
    let mut r: u32 = 0x8000_0000; // x^0, reflected
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    (r as u64) << 1
}

/// The multipliers that move a 128-bit lane `bits` further down the
/// message: `x^(bits+32)` for its low quadword, `x^(bits-32)` for its high
/// one (the low quadword holds the higher-degree terms).
const fn fold_keys(bits: u32) -> [u64; 2] {
    [xpow(bits + 32), xpow(bits - 32)]
}

/// Fold `data` into `crc` by carry-less multiplication. Four 512-bit
/// accumulators take 256 bytes per step, `vpclmulqdq` folding each 2048
/// bits forward onto the next block; then they fold into one 512-bit
/// accumulator, its four lanes into one 128-bit accumulator, and whole
/// 16-byte blocks into that. Its 16 bytes have the CRC (from a zero
/// register) of everything folded, so two `crc32q` finish it, and
/// [`update_serial`] takes the tail. Inputs under [`FOLD_BLOCK`] go to
/// [`update_serial`] whole.
///
/// The fold is exact because the raw update is linear and `x^n mod P`
/// moves a term `n` bits without changing its residue.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
fn update_fold(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    if data.len() < FOLD_BLOCK {
        return update_serial(crc, data);
    }
    let keys128 = |[lo, hi]: [u64; 2]| _mm_set_epi64x(hi as i64, lo as i64);
    let keys512 = |k: [u64; 2]| _mm512_broadcast_i32x4(keys128(k));
    // a·x^bits ^ b, lane by lane: both quadword products and `b` XOR-ed in
    // one ternary op (0x96 is three-way XOR).
    let fold512 = |a: __m512i, k: __m512i, b: __m512i| {
        _mm512_ternarylogic_epi64::<0x96>(
            _mm512_clmulepi64_epi128::<0x00>(a, k),
            _mm512_clmulepi64_epi128::<0x11>(a, k),
            b,
        )
    };
    let fold128 = |a: __m128i, k: __m128i, b: __m128i| {
        _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128::<0x00>(a, k), _mm_clmulepi64_si128::<0x11>(a, k)), b)
    };

    let mut blocks = data.chunks_exact(FOLD_BLOCK);
    let first = blocks.next().expect("at least one block");
    let mut acc = [0, 1, 2, 3].map(|i| load512(&first[64 * i..]));
    acc[0] = _mm512_xor_si512(acc[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)));
    let k = keys512(const { fold_keys(8 * FOLD_BLOCK as u32) });
    for block in &mut blocks {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = fold512(*a, k, load512(&block[64 * i..]));
        }
    }
    let mut v = fold512(acc[0], keys512(const { fold_keys(1536) }), acc[3]);
    v = fold512(acc[1], keys512(const { fold_keys(1024) }), v);
    v = fold512(acc[2], keys512(const { fold_keys(512) }), v);

    let mut x = _mm512_extracti32x4_epi32::<3>(v);
    x = fold128(_mm512_extracti32x4_epi32::<0>(v), keys128(const { fold_keys(384) }), x);
    x = fold128(_mm512_extracti32x4_epi32::<1>(v), keys128(const { fold_keys(256) }), x);
    x = fold128(_mm512_extracti32x4_epi32::<2>(v), keys128(const { fold_keys(128) }), x);
    let mut rest = blocks.remainder().chunks_exact(16);
    let k = keys128(const { fold_keys(128) });
    for b in &mut rest {
        x = fold128(x, k, load128(b));
    }
    let lo = _mm_crc32_u64(0, _mm_cvtsi128_si64(x) as u64);
    let crc = _mm_crc32_u64(lo, _mm_extract_epi64::<1>(x) as u64);
    update_serial(crc as u32, rest.remainder())
}

/// The first 64 bytes of `b` as one vector, in memory order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn load512(b: &[u8]) -> std::arch::x86_64::__m512i {
    let b: &[u8; 64] = b[..64].try_into().expect("64 bytes");
    // SAFETY: the load reads exactly the 64 bytes `b` borrows; `loadu`
    // has no alignment requirement.
    unsafe { std::arch::x86_64::_mm512_loadu_si512(b.as_ptr().cast()) }
}

/// The first 16 bytes of `b` as one vector, in memory order.
#[cfg(target_arch = "x86_64")]
fn load128(b: &[u8]) -> std::arch::x86_64::__m128i {
    let b: &[u8; 16] = b[..16].try_into().expect("16 bytes");
    // SAFETY: the load reads exactly the 16 bytes `b` borrows; `loadu`
    // has no alignment requirement.
    unsafe { std::arch::x86_64::_mm_loadu_si128(b.as_ptr().cast()) }
}

/// Whether this machine runs [`update_fold`]. `is_x86_feature_detected!`
/// caches its probe, so asking per call costs a few loads.
#[cfg(target_arch = "x86_64")]
fn fold_available() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx512f") && has!("vpclmulqdq") && has!("pclmulqdq") && has!("sse4.2")
}

/// Dispatch one update through the fastest kernel this machine runs: the
/// carry-less-multiply fold from [`FOLD_BLOCK`] bytes on, else the
/// three-lane `crc32q` (which is serial `crc32q` on short inputs), else
/// the table.
#[inline]
fn update_dispatch(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        let fold = data.len() >= FOLD_BLOCK && fold_available();
        if fold || std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: each kernel runs only where the features it is
            // compiled for were detected: all four of `update_fold`'s, or
            // `update_hw`'s sse4.2.
            return unsafe {
                if fold {
                    update_fold(crc, data)
                } else {
                    update_hw(crc, data)
                }
            };
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

    /// Every kernel this machine runs, by name, as a plain function.
    fn backends() -> Vec<(&'static str, fn(u32, &[u8]) -> u32)> {
        let mut v: Vec<(&'static str, fn(u32, &[u8]) -> u32)> = vec![("table", update_soft)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                // SAFETY (both): sse4.2 was detected just above.
                v.push(("serial", |c, d| unsafe { update_serial(c, d) }));
                v.push(("three-lane", |c, d| unsafe { update_hw(c, d) }));
            }
            if fold_available() {
                // SAFETY: `fold_available` detected all of its features.
                v.push(("fold", |c, d| unsafe { update_fold(c, d) }));
            }
        }
        v
    }

    #[test]
    fn fold_keys_are_the_published_constants() {
        // (x^(D+32), x^(D-32)) mod P, reflected and shifted left one, for
        // every fold distance D (bits) the kernel uses.
        let table = [
            (128, 0xf20c0dfe, 0x14cd00bd6),
            (256, 0x1384aa63a, 0xba4fc28e),
            (384, 0x1c291d04, 0x1d82c63da),
            (512, 0x740eef02, 0x9e4addf8),
            (1024, 0x6992cea2, 0xd3b6092),
            (1536, 0xa87ab8a8, 0xab7aff2a),
            (2048, 0xdcb17aa4, 0xb9e02b86),
        ];
        for (bits, lo, hi) in table {
            assert_eq!(fold_keys(bits), [lo, hi], "fold by {bits} bits");
        }
    }

    #[test]
    fn hardware_and_software_backends_agree() {
        // Each kernel on its own, not just the dispatched one, against the
        // table: lengths across every fold stage (four 64-byte accumulators
        // looped, reduced, 16-byte blocks, tail) and the three-lane blocks,
        // at every alignment within a quadword. A kernel this machine lacks
        // is skipped; the CI x86-64 runners hold the claim for it.
        let max = 4 * FOLD_BLOCK + 64 + 16 + 15;
        let backing = noise(max + 8);
        for (name, update) in backends() {
            for (data, want) in [(&b"123456789"[..], 0xE306_9283), (&[0u8; 32][..], 0x8A91_36AA), (&[0xFF; 32][..], 0x62A8_AB43)] {
                assert_eq!(!update(!0, data), want, "{name}: RFC 3720 vector");
            }
            for align in 0..8 {
                for len in 0..=max {
                    let data = &backing[align..align + len];
                    assert_eq!(update(!0, data), update_soft(!0, data), "{name} diverges at align={align} len={len}");
                }
            }
            let big = noise(64 * 1024);
            assert_eq!(update(!0, &big), update_soft(!0, &big), "{name}: 64 KiB");
        }
    }

    #[test]
    fn incremental_split_points_agree_across_backends() {
        // Incremental updates restart each kernel's decomposition at every
        // call; the running state must still be byte-stream exact,
        // including splits that land inside a lane, a block or a fold
        // stage.
        let data = noise(4 * 3 * LANE + 21);
        let oneshot = !update_soft(0xFFFF_FFFF, &data);
        let mut splits = vec![0, 1, 3, 7, 8, 9, 63, LANE - 1, LANE + 5, 2 * LANE + 3, 3 * LANE, 3 * LANE + 1, 1000];
        for stage in [16, 64, FOLD_BLOCK, 2 * FOLD_BLOCK, 4 * FOLD_BLOCK, 4 * FOLD_BLOCK + 64] {
            splits.extend([stage - 1, stage, stage + 1, stage + 16]);
        }
        for (name, update) in backends() {
            for &split in splits.iter().chain(&[data.len() - 1, data.len()]) {
                let crc = update(update(!0, &data[..split]), &data[split..]);
                assert_eq!(!crc, oneshot, "{name}: split at {split}");
            }
        }
        // The public state machine, in three pieces, each starting mid-lane.
        let mut c = Crc32c::new();
        for piece in [&data[..LANE / 2 + 3], &data[LANE / 2 + 3..5 * LANE + 1], &data[5 * LANE + 1..]] {
            c.update(piece);
        }
        assert_eq!(c.finalize(), oneshot, "three pieces");
    }
}
