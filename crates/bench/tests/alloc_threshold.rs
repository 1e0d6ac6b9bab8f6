//! Allocation-budget regression gate for the packet plane and the MPI
//! layer above it.
//!
//! The slab pools (`transport::pool`) exist so the steady state allocates
//! nothing per packet: payload lists, SACK blocks, chunk bundles, the
//! packet list of a send opportunity and wake lists are all recycled,
//! SCTP's send window, reassembly queue and receive window are flat, and
//! the matcher's two queues are one `VecDeque` each. The tests run the Figure-10 farm at `--quick` scale, a
//! 64 KiB SCTP stream and a 1 KiB ping-pong on both transports under the
//! counting allocator and fail if allocations creep back up.
//!
//! Alone in their own integration-test binary and serialized by [`METER`]:
//! the counter is process-global, so nothing else may allocate while one of
//! them measures, and the runner is pinned to one worker thread so every
//! allocation is attributable to the metered cells.
//!
//! Budgets. Farm: 403 108 allocations over the run's 682 026
//! `net.packets_offered`, 0.59 per offered packet; the gate sits at 0.85 —
//! the count is deterministic, so the 1.4× margin is for rustc and std
//! drift only, and losing any one pool (payloads, gap lists, packet lists,
//! wake lists) trips it. Offered packets are the denominator because the
//! protocol fixes them; the event count moves whenever no-op timer wakes
//! are added or removed, and those allocate nothing. The per-event form is
//! printed beside the gated one.
//!
//! Stream: 10.5 allocations per 64 KiB message over the run's 200
//! messages, set-up included, none of them in the SCTP engine or the event
//! queue (the queue is one heap that reaches its working size in the first
//! few messages); the gate sits at 20. A send window rebuilt per SACK cost
//! 137 here, per-bucket growth in a bucketed event queue 32.
//!
//! Ping-pong: 5.03 (SCTP) and 8.03 (TCP) allocations per 1 KiB message
//! over 2 000 round trips, set-up included — few packets per message, so
//! what the MPI layer allocates per message shows. The gates sit at 5.5
//! and 8.5, half an allocation above: one queue or map entry per posted
//! receive (6.03 / 9.03) trips them.

use std::sync::Mutex;

use bench_harness::{alloc_meter, figure, Scale};
use mpi_core::MpiCfg;
use workloads::pingpong::{run, run_stream, PingPongCfg, StreamCfg};

const MAX_ALLOCS_PER_PACKET: f64 = 0.85;
const MAX_ALLOCS_PER_STREAM_MSG: f64 = 20.0;
const MAX_ALLOCS_PER_PINGPONG_MSG_SCTP: f64 = 5.5;
const MAX_ALLOCS_PER_PINGPONG_MSG_TCP: f64 = 8.5;

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
         {MAX_ALLOCS_PER_STREAM_MSG} (baseline ~10.5). The send window, reassembly queue or \
         receive window is allocating per chunk again."
    );
}

#[test]
fn pingpong_1k_stays_within_alloc_budget() {
    const ROUND_TRIPS: u32 = 2_000;
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
    alloc_meter::enable(true);
    for (name, cfg, budget) in [
        ("sctp", MpiCfg::sctp(2, 0.0), MAX_ALLOCS_PER_PINGPONG_MSG_SCTP),
        ("tcp", MpiCfg::tcp(2, 0.0), MAX_ALLOCS_PER_PINGPONG_MSG_TCP),
    ] {
        let before = alloc_meter::allocs();
        let r = run(cfg, PingPongCfg { size: 1024, iters: ROUND_TRIPS });
        let allocs = alloc_meter::allocs() - before;
        assert!(r.throughput > 0.0, "ping-pong moved no data");
        let per_msg = allocs as f64 / (2 * ROUND_TRIPS) as f64;
        eprintln!("{name}: allocs={allocs} msgs={} allocs/msg={per_msg:.2}", 2 * ROUND_TRIPS);
        assert!(
            per_msg <= budget,
            "allocation regression: {per_msg:.2} allocs per 1 KiB {name} message exceeds budget \
             {budget}. The MPI layer is allocating per message again — a queue or map entry \
             per posted receive or per unexpected arrival in mpi_core::matching?"
        );
    }
}
