//! Workload-level invariants across randomized configurations.

use mpi_core::MpiCfg;
use proptest::prelude::*;
use workloads::farm::{run, FarmCfg};
use workloads::nas::{self, Class, Kernel};
use workloads::pingpong::{run as pp_run, PingPongCfg};

/// The matcher scans its two queues from the front (`mpi_core::matching`),
/// which is only right while matches sit near the front. They do: a farm
/// worker's 110 pre-posted `(manager, ANY_TAG)` receives pair with whatever
/// arrives and the manager takes buffered job requests in arrival order
/// (longest scan 1), and of the NAS kernels — fig9 is the one figure whose
/// scans ever pass the first entry — IS peaks at 5 and LU at 3. A workload
/// that pushes this past 8 is the traffic an index should be sized by.
#[test]
fn match_scans_stay_short() {
    let mut peaks = Vec::new();
    for (name, mk) in [("sctp", MpiCfg::sctp as fn(u16, f64) -> MpiCfg), ("tcp", MpiCfg::tcp)] {
        for loss in [0.0, 0.01] {
            let r = run(mk(8, loss), FarmCfg::small(30 * 1024, 10));
            peaks.push((format!("farm fanout 10, loss {loss}, {name}"), r.match_scan_peak));
        }
        for k in Kernel::ALL {
            let r = nas::run(mk(8, 0.0), k, Class::S);
            peaks.push((format!("NAS {}.S, {name}", k.name()), r.match_scan_peak));
        }
    }
    for (what, peak) in peaks {
        assert!(
            (1..=8).contains(&peak),
            "{what}: one lookup examined {peak} queue entries — the matcher scans; this workload needs an index"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The farm always completes exactly `num_tasks` tasks — any worker
    /// count, fanout, task size, transport, or loss pattern.
    #[test]
    fn farm_conservation_of_tasks(
        nprocs in 2u16..6,
        fanout_idx in 0usize..3,
        short in any::<bool>(),
        sctp in any::<bool>(),
        lossy in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let fanout = [1u32, 2, 5][fanout_idx];
        let num_tasks = 40 - (40 % fanout);
        let cfg = FarmCfg {
            num_tasks,
            ..FarmCfg::small(if short { 30 * 1024 } else { 300 * 1024 }, fanout)
        };
        let loss = if lossy { 0.01 } else { 0.0 };
        let m = if sctp { MpiCfg::sctp(nprocs, loss) } else { MpiCfg::tcp(nprocs, loss) };
        let r = run(m.with_seed(seed), cfg);
        prop_assert_eq!(r.tasks_done, num_tasks);
        prop_assert!(r.secs > 0.0);
    }

    /// Ping-pong throughput is finite and positive, and each run is
    /// reproducible from its seed.
    #[test]
    fn pingpong_deterministic(size in 1usize..100_000, seed in 0u64..1000) {
        let cfg = PingPongCfg { size, iters: 3 };
        let a = pp_run(MpiCfg::sctp(2, 0.01).with_seed(seed), cfg);
        let b = pp_run(MpiCfg::sctp(2, 0.01).with_seed(seed), cfg);
        prop_assert!(a.throughput.is_finite() && a.throughput > 0.0);
        prop_assert_eq!(a.secs, b.secs, "same seed, same result");
    }
}
