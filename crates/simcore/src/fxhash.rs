//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! The standard library's default `RandomState` is SipHash seeded per
//! process: robust against adversarial keys, but ~10× slower than needed
//! for the small integer tuples the transports' demux maps and the
//! matching engine's rendezvous tables key by, and its per-process seed
//! makes map iteration order vary between runs.
//! Nothing in a closed simulation hashes attacker-controlled input, so we
//! use the multiply-xor scheme popularized by rustc (`FxHasher`): one
//! rotate, one xor, one multiply per word. The fixed seed also makes
//! iteration order a pure function of the insertion sequence, which is
//! one less way for nondeterminism to sneak into a reproducible run.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One rotate-xor-multiply per input word (rustc's hash function).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let mk = || {
            let mut m: FxHashMap<(u32, u16, i32), u32> = FxHashMap::default();
            for i in 0..100u32 {
                m.insert((i, i as u16, -(i as i32)), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn distinct_tuples_rarely_collide() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh = BuildHasherDefault::<FxHasher>::default();
        let mut seen = std::collections::HashSet::new();
        for c in 0..4u32 {
            for s in 0..64u16 {
                for t in 0..8i32 {
                    seen.insert(bh.hash_one((c, s, t)));
                }
            }
        }
        // 2048 keys; a sprinkle of collisions is fine, a collapse is not.
        assert!(seen.len() > 2000, "only {} distinct hashes", seen.len());
    }
}
