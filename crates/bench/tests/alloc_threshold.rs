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
//! Budgets. Farm: 411 583 allocations over the run's 682 026
//! `net.packets_offered`, 0.60 per offered packet; the gate sits at 0.85 —
//! the count is deterministic, so the 1.4× margin is for rustc and std
//! drift only, and losing any one pool (payloads, gap lists, trains, wake
//! lists) trips it. Offered packets are the denominator because the
//! protocol fixes them; the event count moves whenever no-op timer wakes
//! are added or removed, and those allocate nothing. The per-event form is
//! printed beside the gated one.
//!
//! Stream: 11.9 allocations per 64 KiB message over the run's 200
//! messages, set-up included, none of them in the SCTP engine or the event
//! queue (the queue is one heap that reaches its working size in the first
//! few messages); the gate sits at 20. A send window rebuilt per SACK cost
//! 137 here, per-bucket growth in a bucketed event queue 32.

use std::sync::Mutex;

use bench_harness::{alloc_meter, figure, Scale};
use mpi_core::MpiCfg;
use workloads::pingpong::{run_stream, StreamCfg};

const MAX_ALLOCS_PER_PACKET: f64 = 0.85;
const MAX_ALLOCS_PER_STREAM_MSG: f64 = 20.0;

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

    let bench =
        figure("fig10").expect("registered").run(Scale::Quick, &[]).expect("no arguments").report;

    let allocs: u64 = bench.cells.iter().map(|c| c.allocs_total).sum();
    let packets: u64 =
        bench.cells.iter().filter_map(|c| c.counter("net", "packets_offered")).sum();
    assert!(packets > 0, "farm run offered no packets");
    let per_packet = allocs as f64 / packets as f64;
    eprintln!(
        "allocs={allocs} packets_offered={packets} allocs/packet={per_packet:.4} \
         (events={} allocs/event={:.4})",
        bench.events_total,
        allocs as f64 / bench.events_total.max(1) as f64,
    );
    assert!(
        per_packet <= MAX_ALLOCS_PER_PACKET,
        "allocation regression: {per_packet:.3} allocs per offered packet exceeds budget \
         {MAX_ALLOCS_PER_PACKET}. A packet-plane path is allocating per packet again — check \
         that take_*/put_* pairs in transport::pool still cover the hot paths."
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
         {MAX_ALLOCS_PER_STREAM_MSG} (baseline ~12). The send window, reassembly queue or \
         receive window is allocating per chunk again."
    );
}
