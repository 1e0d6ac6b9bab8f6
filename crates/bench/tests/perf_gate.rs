//! Wall-clock regression gate for the simulator hot path.
//!
//! The allocation gate (`alloc_threshold.rs`) catches pools falling out of
//! the packet plane; this gate catches everything else that makes the run
//! slower — a timer landing back on the heap, a SACK scan going quadratic,
//! an accidental per-packet clone. It runs the Figure-10 farm at `--quick`
//! scale on one worker thread and fails if wall-clock microseconds per
//! packet offered to the network creep past the budget.
//!
//! The denominator is the run's `net.packets_offered` (682 026 here): the
//! protocol fixes it, so the figure moves only when the harness does. The
//! event count does not have that property — taking no-op timer wakes out
//! of this run made it faster while its µs/event rose, because the events
//! removed were the free ones. The per-event form is printed beside the
//! gated one for one release.
//!
//! Lives alone in its own integration-test binary so no sibling test's
//! CPU time pollutes the wall-clock measurement.
//!
//! Budget: the workload measures 0.61–0.75 µs per offered packet (0.42–
//! 0.51 s wall) in release mode on the 2-vCPU dev box; ranks are futures on
//! the calling thread, so pinning changes nothing. The gate sits at 2.0:
//! three times the measured value, enough for a loaded CI box and codegen
//! drift, tight enough that a 2× hot-path regression stacked on a slow
//! runner trips it.

use bench_harness::{figure, Scale};

const MAX_US_PER_PACKET: f64 = 2.0;

#[test]
fn farm_quick_stays_within_time_budget() {
    // Wall-clock budgets are meaningless without optimization; the
    // debug-mode tier-1 run still builds this binary but only the CI
    // `--release` invocation enforces the gate.
    if cfg!(debug_assertions) {
        eprintln!("perf gate skipped: debug build (run with --release to enforce)");
        return;
    }
    // One worker: parallel cells would divide wall-clock by the thread
    // count and hide a per-event regression behind idle cores.
    std::env::set_var("BENCH_THREADS", "1");

    let bench = (figure("fig10").expect("registered").run)(Scale::Quick, &[]).report;

    let packets: u64 =
        bench.cells.iter().filter_map(|c| c.counter("net", "packets_offered")).sum();
    assert!(packets > 0, "farm run offered no packets");
    let us_per_packet = bench.wall_secs_total * 1e6 / packets as f64;
    eprintln!(
        "wall={:.3}s packets_offered={packets} us/packet={us_per_packet:.4} \
         (events={} us/event={:.4})",
        bench.wall_secs_total,
        bench.events_total,
        bench.wall_secs_total * 1e6 / bench.events_total.max(1) as f64,
    );
    assert!(
        us_per_packet <= MAX_US_PER_PACKET,
        "performance regression: {us_per_packet:.3} µs per offered packet exceeds budget \
         {MAX_US_PER_PACKET}. Profile with `cargo bench -p bench-harness --bench hot_paths` \
         and check the timer wheel, SACK fast paths, and pool coverage first."
    );
}
