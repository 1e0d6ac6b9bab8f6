//! Wall-clock regression gate for the simulator hot path.
//!
//! The allocation gate (`alloc_threshold.rs`) catches pools falling out of
//! the packet plane; this gate catches everything else that makes the run
//! slower — an event queue that degrades with depth, a SACK scan going
//! quadratic, an accidental per-packet clone. Three cells, each on one
//! thread, each failing if its wall-clock cost per unit of work creeps past
//! a budget of 2.5–3 times what it measures on a 2-vCPU box: enough for a
//! loaded CI box and codegen drift, tight enough that a 2× hot-path
//! regression stacked on a slow runner trips it. (A gate relative to a
//! calibration run is ROADMAP 5(d).)
//!
//! **Figure-10 farm**, µs per packet offered to the network. The
//! denominator is the run's `net.packets_offered` (682 026 here): the
//! protocol fixes it, so the figure moves only when the harness does. The
//! event count does not have that property — taking no-op timer wakes out
//! of this run made it faster while its µs/event rose, because the events
//! removed were the free ones. The per-event form is printed beside the
//! gated one. Measured 0.59–0.60 µs per offered packet (0.40–0.41 s wall,
//! pinned to one core); the gate sits at 2.0. The queue holds 64–255
//! events when this run pops.
//!
//! **§3.3 ring exchange** (`scalability`), µs per event. The run with the
//! deepest queue the process runtime sees — 512–2047 events pending at a
//! pop, one timer set per rank — which the farm never reaches; a queue
//! twice as slow as a binary heap at that depth once went unnoticed for
//! want of this cell. It has no network-fixed denominator worth the name
//! (the work *is* the timers), so it is gated per event: 32 730 events in
//! 0.018–0.019 s, 0.54–0.58 µs each; the gate sits at 1.75.
//!
//! **Lossless 64 KiB SCTP stream**, µs per offered packet: the stream
//! `alloc_threshold.rs` meters (200 messages, 14 100 packets). Every packet
//! is one send and one delivery event, and on a lossless stream a send
//! opportunity emits a dozen packets back to back, so a per-packet cost
//! that grows in the send or delivery path shows here first. One run takes
//! under 10 ms, so the gate reads the median of five: measured 0.36–0.68
//! µs per offered packet, about 0.5 in the median; the gate sits at 1.25.
//!
//! Lives alone in its own integration-test binary, the cells serialized by
//! [`WALL`], so no other test's CPU time pollutes the wall-clock
//! measurement.

use std::sync::Mutex;

use std::time::Instant;

use bench_harness::runner::BenchReport;
use bench_harness::{figure, Scale};
use mpi_core::MpiCfg;
use workloads::pingpong::{run_stream, StreamCfg};

const MAX_US_PER_PACKET: f64 = 2.0;
const MAX_US_PER_EVENT_DEEP_QUEUE: f64 = 1.75;
const MAX_US_PER_STREAM_PACKET: f64 = 1.25;

/// Held while a cell runs: no two may share the CPU.
static WALL: Mutex<()> = Mutex::new(());

/// Run one figure at `--quick` on one worker, or `None` in a debug build:
/// wall-clock budgets are meaningless without optimization, so the
/// debug-mode tier-1 run builds this binary but only the CI `--release`
/// invocation enforces the gate.
fn timed(name: &str) -> Option<BenchReport> {
    if cfg!(debug_assertions) {
        eprintln!("perf gate skipped: debug build (run with --release to enforce)");
        return None;
    }
    // One worker: parallel cells would divide wall-clock by the thread
    // count and hide a per-event regression behind idle cores.
    std::env::set_var("BENCH_THREADS", "1");
    Some(figure(name).expect("registered").run(Scale::Quick, &[]).expect("no arguments").report)
}

#[test]
fn farm_quick_stays_within_time_budget() {
    let _alone = WALL.lock().unwrap_or_else(|e| e.into_inner());
    let Some(bench) = timed("fig10") else { return };

    let packets: u64 =
        bench.cells.iter().filter_map(|c| c.counter("net", "packets_offered")).sum();
    assert!(packets > 0, "farm run offered no packets");
    let us_per_packet = bench.wall_secs_total * 1e6 / packets as f64;
    eprintln!(
        "fig10: wall={:.3}s packets_offered={packets} us/packet={us_per_packet:.4} \
         (events={} us/event={:.4})",
        bench.wall_secs_total,
        bench.events_total,
        bench.wall_secs_total * 1e6 / bench.events_total.max(1) as f64,
    );
    assert!(
        us_per_packet <= MAX_US_PER_PACKET,
        "performance regression: {us_per_packet:.3} µs per offered packet exceeds budget \
         {MAX_US_PER_PACKET}. Profile with `cargo bench -p bench-harness --bench hot_paths` \
         and check the event queue, SACK fast paths, and pool coverage first."
    );
}

#[test]
fn scalability_quick_stays_within_time_budget() {
    let _alone = WALL.lock().unwrap_or_else(|e| e.into_inner());
    let Some(bench) = timed("scalability") else { return };

    assert!(bench.events_total > 0, "ring exchange fired no events");
    let us_per_event = bench.wall_secs_total * 1e6 / bench.events_total as f64;
    eprintln!(
        "scalability: wall={:.4}s events={} us/event={us_per_event:.4}",
        bench.wall_secs_total, bench.events_total,
    );
    assert!(
        us_per_event <= MAX_US_PER_EVENT_DEEP_QUEUE,
        "performance regression: {us_per_event:.3} µs per event exceeds budget \
         {MAX_US_PER_EVENT_DEEP_QUEUE} with a thousand timers pending. Profile with \
         `cargo bench -p bench-harness --bench hot_paths` and check `simcore::sched` first."
    );
}

#[test]
fn sctp_stream_64k_stays_within_time_budget() {
    const MSGS: u32 = 200;
    const RUNS: usize = 5;
    let _alone = WALL.lock().unwrap_or_else(|e| e.into_inner());
    if cfg!(debug_assertions) {
        eprintln!("perf gate skipped: debug build (run with --release to enforce)");
        return;
    }
    // Each run takes milliseconds, so one preemption could fail it alone:
    // the gate reads the median of a few.
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let r = run_stream(MpiCfg::sctp(2, 0.0), StreamCfg { size: 64 * 1024, count: MSGS });
            let wall = t0.elapsed().as_secs_f64();
            assert!(r.net.packets_offered > 0, "stream offered no packets");
            wall * 1e6 / r.net.packets_offered as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let us_per_packet = samples[RUNS / 2];
    eprintln!("sctp stream 64k: {MSGS} msgs, median of {RUNS} us/packet={us_per_packet:.4} {samples:.4?}");
    assert!(
        us_per_packet <= MAX_US_PER_STREAM_PACKET,
        "performance regression: {us_per_packet:.3} µs per offered packet on a lossless 64 KiB \
         SCTP stream exceeds budget {MAX_US_PER_STREAM_PACKET}. Profile with `cargo bench -p \
         bench-harness --bench hot_paths` and check the per-packet send and delivery path first."
    );
}
