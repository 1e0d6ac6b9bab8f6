//! Allocation-budget regression gate for the packet plane.
//!
//! The slab pools (`transport::pool`) exist so the steady state allocates
//! nothing per packet: payload lists, SACK blocks, chunk bundles, trains
//! and wake lists are all recycled. This test runs the Figure-10 farm at
//! `--quick` scale under the counting allocator and fails if allocations
//! per simulator event creep back up.
//!
//! Lives alone in its own integration-test binary: the counter is
//! process-global, so no other test may share the process, and the runner
//! is pinned to one worker thread so every allocation is attributable to
//! the metered cells.
//!
//! Budget: the pre-pool harness measured ~5.5 allocs/event on this exact
//! workload; the pooled plane measures ~0.55. The gate sits at 1.2 —
//! loose enough for allocator noise and rustc codegen drift, tight enough
//! that losing any one pool (payloads, gap lists, trains, wake lists)
//! trips it.

use bench_harness::{alloc_meter, figure, Scale};

const MAX_ALLOCS_PER_EVENT: f64 = 1.2;

#[test]
fn farm_quick_stays_within_alloc_budget() {
    // One worker: the counting allocator is process-global, so parallel
    // cells would still meter correctly in aggregate, but the per-cell
    // deltas (and this test's determinism) want a single thread.
    std::env::set_var("BENCH_THREADS", "1");
    alloc_meter::enable(true);

    let bench = (figure("fig10").expect("registered").run)(Scale::Quick, &[]).report;

    let allocs: u64 = bench.cells.iter().map(|c| c.allocs_total).sum();
    let events = bench.events_total;
    assert!(events > 0, "farm run fired no events");
    let per_event = allocs as f64 / events as f64;
    eprintln!("allocs={allocs} events={events} allocs/event={per_event:.4}");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "allocation regression: {per_event:.3} allocs/event exceeds budget \
         {MAX_ALLOCS_PER_EVENT} (pooled baseline ~0.55; pre-pool harness ~5.5). \
         A packet-plane path is allocating per packet again — check that \
         take_*/put_* pairs in transport::pool still cover the hot paths."
    );
}
