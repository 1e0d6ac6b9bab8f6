//! Deterministic random-number plumbing.
//!
//! Every source of randomness in a simulation is derived from a single master
//! seed, so that a run is reproducible bit-for-bit from `(seed, config)`.
//! Components ask for a *stream* — a stable label hashed together with the
//! master seed — so adding a new consumer of randomness never perturbs the
//! draws seen by existing ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step; the standard way to expand one u64 seed into many.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent RNG for `(master_seed, stream)`.
///
/// The same `(seed, stream)` pair always yields the same generator; distinct
/// streams are statistically independent.
pub fn derive_rng(master_seed: u64, stream: u64) -> SmallRng {
    let mut s = master_seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
    }
    SmallRng::from_seed(key)
}

/// Hash a string label into a stream id, for readable call sites like
/// `derive_rng(seed, stream_id("link-loss"))`.
pub fn stream_id(label: &str) -> u64 {
    // FNV-1a, good enough for a handful of fixed labels.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0100_0000_01b3_u128 as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_draws() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 8);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = derive_rng(1, 7);
        let mut b = derive_rng(2, 7);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_ids_are_stable_and_distinct() {
        assert_eq!(stream_id("link-loss"), stream_id("link-loss"));
        assert_ne!(stream_id("link-loss"), stream_id("cookie"));
    }
}
