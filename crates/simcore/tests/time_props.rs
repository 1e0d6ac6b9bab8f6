//! The packet arithmetic in `u64` against the `u128` formula it replaced:
//! `transmission_time` (serialization time) and `bytes_sent_in` (a link
//! backlog's queue occupancy), across packet sizes, line rates and
//! backlogs out to where the `u64` product overflows.

use proptest::prelude::*;
use simcore::{bytes_sent_in, transmission_time, Dur};

fn rate() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..1_000,
        1_000u64..100_000_000_000,
        Just(1_000_000_000),
        Just(100_000_000_000)
    ]
}

proptest! {
    #[test]
    fn transmission_time_matches_the_u128_formula(
        bytes in prop_oneof![0u64..=65_536, Just(u64::MAX / 8_000_000_000), any::<u64>()],
        bps in rate(),
    ) {
        let want = (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
        prop_assert_eq!(transmission_time(bytes, bps), Dur::from_nanos(want));
    }

    #[test]
    fn backlog_bytes_match_the_u128_formula(
        ns in prop_oneof![0u64..1_000_000_000, any::<u64>()],
        bps in rate(),
    ) {
        let want = (ns as u128 * bps as u128 / 8_000_000_000) as u64;
        prop_assert_eq!(bytes_sent_in(Dur::from_nanos(ns), bps), want);
    }
}

/// Both sides of the `u64` overflow edge of each product.
#[test]
fn overflow_edges_match_the_u128_formula() {
    let bps = 100_000_000_000u64;
    let edge = u64::MAX / bps;
    for ns in [edge - 1, edge, edge + 1, u64::MAX] {
        let want = (ns as u128 * bps as u128 / 8_000_000_000) as u64;
        assert_eq!(
            bytes_sent_in(Dur::from_nanos(ns), bps),
            want,
            "backlog {ns} ns"
        );
    }
    let edge = u64::MAX / 8_000_000_000;
    for bytes in [edge - 1, edge, edge + 1, u64::MAX] {
        let want = (bytes as u128 * 8_000_000_000 / 1_000_000_000) as u64;
        assert_eq!(
            transmission_time(bytes, 1_000_000_000),
            Dur::from_nanos(want),
            "{bytes} bytes"
        );
    }
}
