//! `mpi-core`: the matching engine alone — no RPI, no transport.

use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::Core;

use super::BATCHES;
use crate::calib::Calib;

const GROUPS: u32 = 2_000;
const TAGS: i32 = 10;

/// Cost of one receive matched against one zero-length eager envelope, ten
/// tags deep: receives posted first (expected path), or envelopes arriving
/// first (unexpected queue). The second side comes in reverse tag order so
/// every match searches past the others.
pub fn ns_per_match(cal: &mut Calib, arrival_first: bool) -> f64 {
    cal.probe(BATCHES, || {
        let mut core = Core::new(0, 2, 64 * 1024);
        let mut seq = 0u32;
        let mut reqs = Vec::with_capacity(TAGS as usize);
        let mut arrive = |core: &mut Core, tag: i32| {
            seq += 1;
            let env = Envelope {
                kind: EnvKind::Eager,
                src: 1,
                tag,
                cxt: 0,
                len: 0,
                seq,
            };
            let sink = core
                .on_envelope(1, env)
                .sink
                .expect("eager envelopes have a body sink");
            core.body_done(sink);
        };
        for _ in 0..GROUPS {
            reqs.clear();
            if arrival_first {
                (0..TAGS).for_each(|tag| arrive(&mut core, tag));
                reqs.extend(
                    (0..TAGS)
                        .rev()
                        .map(|tag| core.post_recv(Some(1), Some(tag), 0).0),
                );
            } else {
                reqs.extend((0..TAGS).map(|tag| core.post_recv(Some(1), Some(tag), 0).0));
                (0..TAGS).rev().for_each(|tag| arrive(&mut core, tag));
            }
            for &r in &reqs {
                assert!(core.is_done(r));
                std::hint::black_box(core.take_done(r));
            }
        }
        (GROUPS * TAGS as u32) as u64
    })
}
