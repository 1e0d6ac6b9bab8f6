//! Allocation-budget regression gate for the packet plane.
//!
//! The slab pools (`transport::pool`) exist so the steady state allocates
//! nothing per packet: payload lists, SACK blocks, chunk bundles, trains
//! and wake lists are all recycled, and SCTP's send window, reassembly
//! queue and receive window are flat. The tests run the Figure-10 farm at
//! `--quick` scale and a 64 KiB SCTP stream under the counting allocator
//! and fail if allocations creep back up.
//!
//! Alone in their own integration-test binary and serialized by [`METER`]:
//! the counter is process-global, so nothing else may allocate while one of
//! them measures, and the runner is pinned to one worker thread so every
//! allocation is attributable to the metered cells.
//!
//! Budgets. Farm: the pre-pool harness measured ~5.5 allocs/event on this
//! exact workload, the pooled plane ~0.55, the tree-free SCTP data plane
//! ~0.42; the gate sits at 0.6 — the count is deterministic, so the margin
//! is for rustc and std drift only, and losing any one pool (payloads, gap
//! lists, trains, wake lists) trips it. Stream: ~34 allocations per 64 KiB
//! message with the run's set-up spread over its 200 messages (~12 in
//! steady state, none of them in the SCTP engine; 137 while the send window
//! was a `BTreeMap` rebuilt on every SACK); the gate sits at 50.

use std::sync::Mutex;

use bench_harness::{alloc_meter, figure, Scale};
use mpi_core::MpiCfg;
use workloads::pingpong::{run_stream, StreamCfg};

const MAX_ALLOCS_PER_EVENT: f64 = 0.6;
const MAX_ALLOCS_PER_STREAM_MSG: f64 = 50.0;

/// Held while a test meters: the allocation counter is process-global.
static METER: Mutex<()> = Mutex::new(());

#[test]
fn farm_quick_stays_within_alloc_budget() {
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
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
         {MAX_ALLOCS_PER_EVENT} (baseline ~0.42; pre-pool harness ~5.5). \
         A packet-plane path is allocating per packet again — check that \
         take_*/put_* pairs in transport::pool still cover the hot paths."
    );
}

#[test]
fn sctp_stream_64k_stays_within_alloc_budget() {
    const MSGS: u32 = 200;
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
    alloc_meter::enable(true);
    let before = alloc_meter::allocs();
    let r = run_stream(MpiCfg::sctp(2, 0.0), StreamCfg { size: 64 * 1024, count: MSGS });
    let allocs = alloc_meter::allocs() - before;
    assert!(r.throughput > 0.0, "stream moved no data");
    let per_msg = allocs as f64 / MSGS as f64;
    eprintln!("allocs={allocs} msgs={MSGS} allocs/msg={per_msg:.2}");
    assert!(
        per_msg <= MAX_ALLOCS_PER_STREAM_MSG,
        "allocation regression: {per_msg:.1} allocs per 64 KiB SCTP message exceeds budget \
         {MAX_ALLOCS_PER_STREAM_MSG} (baseline ~34). The send window, reassembly queue or \
         receive window is allocating per chunk again."
    );
}
