//! SACK-walk regression gate: the chunks SCTP's SACK processing visits per
//! SACK received (`AssocStats::sack_chunk_visits / sacks_in`) on the
//! Figure-10 farm's SCTP cells at `--quick` scale.
//!
//! `process_sack` keeps the TSNs gap blocks have acked in a range set and
//! walks only its holes: inside each reported block, then inside
//! `[unacked_floor, highest reported TSN)` for the missing reports. A
//! lossless SACK visits nothing.
//!
//! Measured: 48 274 visits over 80 867 SACKs, 0.5970 per SACK
//! (deterministic, debug and release alike); the gate sits 5 % above it.
//! Walking every reported block and the whole strike range, as SACK
//! processing did before the set, visits 8 125 169 chunks over the same
//! 80 867 SACKs — 100.5 per SACK — and trips it.

use bench_harness::{farm_cfg, Scale, SEED_BASE};
use mpi_core::MpiCfg;
use workloads::farm;

/// Measured 0.5970 visits per SACK.
const MAX_VISITS_PER_SACK: f64 = 0.627;

#[test]
fn fig10_quick_sack_walk_visits_only_holes() {
    let (mut visits, mut sacks) = (0, 0);
    for task_bytes in [30 * 1024, 300 * 1024] {
        for loss in [0.0, 0.01, 0.02] {
            let cfg = farm_cfg(Scale::Quick, task_bytes, 1);
            let r = farm::run(MpiCfg::sctp(8, loss).with_seed(SEED_BASE), cfg);
            assert_eq!(r.tasks_done, cfg.num_tasks);
            visits += r.sctp.sack_chunk_visits;
            sacks += r.sctp.sacks_in;
        }
    }
    let per_sack = visits as f64 / sacks as f64;
    eprintln!("sack_chunk_visits={visits} sacks_in={sacks} visits/sack={per_sack:.4}");
    assert!(
        per_sack <= MAX_VISITS_PER_SACK,
        "{per_sack:.3} chunks visited per SACK exceeds {MAX_VISITS_PER_SACK}: does process_sack walk \
         chunks the gap-acked set already holds again?"
    );
}
