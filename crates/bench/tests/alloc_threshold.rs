//! Allocation-budget regression gate for the packet plane and the MPI
//! layer above it.
//!
//! The slab pools (`transport::pool`) exist so the steady state allocates
//! nothing per packet: payload lists, SACK blocks, chunk bundles, the
//! packet list of a send opportunity and assembled-message lists are all
//! recycled, blocked readers and writers are woken in place, SCTP's send
//! window, reassembly queue and receive window are flat, TCP
//! hands in-order segments to the reader as slices of their payload, and
//! the matcher's two queues are one `VecDeque` each. The tests run the
//! Figure-10 farm at `--quick` scale, a 64 KiB stream and a 1 KiB ping-pong
//! on both transports under the counting allocator and fail if allocations
//! creep back up.
//!
//! Alone in their own integration-test binary and serialized by [`METER`]:
//! metering counts only the thread that turns it on and the cell workers
//! the figure runner spawns from it, into one shared counter, so no two
//! tests may meter at once, and the runner is pinned to one worker thread
//! so every allocation is attributable to the metered cells. The test
//! runner's own threads are never counted, so every printed count repeats
//! exactly from run to run, under the default parallel runner too.
//!
//! Budgets. Every count is deterministic (debug and release alike), so each
//! gate sits 5 % above its measured count: the margin is for rustc and std
//! drift only.
//!
//! Farm: 188 803 allocations over the run's 682 026 `net.packets_offered`,
//! 0.277 per offered packet; gate 0.287. Of these, SCTP's per-stream send
//! queues cost a few per association (the queue table, and each used
//! stream's queue growing to its peak), not any per message. Losing any
//! one pool (payloads, gap lists, packet lists) trips it, and so does TCP
//! parking in-order segments in its out-of-order store again (0.59). Offered packets
//! are the denominator because the protocol fixes them; the event count
//! moves whenever no-op timer wakes are added or removed, and those
//! allocate nothing. The per-event form is printed beside the gated one.
//!
//! Stream: 10.49 (SCTP) and 26.02 (TCP) allocations per 64 KiB message
//! over the run's 200 messages, set-up included. None of SCTP's are in the
//! engine or the event queue (the queue is one heap that reaches its
//! working size in the first few messages); its gate is 11.0. A send window
//! rebuilt per SACK cost 137 here, per-bucket growth in a bucketed event
//! queue 32. TCP's gate is 27.4: an in-order segment inserted into and
//! removed from the reassembly tree, or copied when it spans two send-queue
//! chunks, costs 40.
//!
//! Ping-pong: 5.03 (SCTP) and 5.02 (TCP) allocations per 1 KiB message
//! over 2 000 round trips, set-up included — few packets per message, so
//! what the MPI layer allocates per message shows. SCTP's gate sits at
//! 5.28, TCP's at 5.27: one queue or map entry per posted receive (6.03)
//! trips both, and so does a heap-allocated envelope buffer per TCP
//! message.
//!
//! Live ingress: one 44-frame receive train (the most full-size frames one
//! UDP_GRO read returns), SCTP and TCP, decoded with warmed pools where the
//! kernel wrote it costs the refcount of its buffer and the fresh receive
//! buffer that replaces it — 2 allocations, however many chunks it carries.
//! A payload copied per chunk costs 88 more.

use std::sync::Mutex;

use bench_harness::{alloc_meter, figure, Scale};
use bytes::Bytes;
use mpi_core::MpiCfg;
use netsim::IfAddr;
use transport::ip::{Packet, Proto};
use transport::pool::Pools;
use transport::sctp::{Chunk, DataChunk, SctpPacket};
use transport::tcp::{Flags, TcpSegment};
use transport::wire_bytes::{decode_frame, encode_packet_into};
use workloads::pingpong::{run, run_stream, PingPongCfg, StreamCfg};

const MAX_ALLOCS_PER_PACKET: f64 = 0.287;
const MAX_ALLOCS_PER_STREAM_MSG: f64 = 11.0;
const MAX_ALLOCS_PER_STREAM_MSG_TCP: f64 = 27.4;
const MAX_ALLOCS_PER_PINGPONG_MSG_SCTP: f64 = 5.28;
const MAX_ALLOCS_PER_PINGPONG_MSG_TCP: f64 = 5.27;
const MAX_ALLOCS_PER_INGRESS_TRAIN: u64 = 2;

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

/// Allocations per message of a 200-message one-way 64 KiB stream on
/// `cfg`, set-up included.
fn stream_64k_allocs_per_msg(cfg: MpiCfg) -> f64 {
    const MSGS: u32 = 200;
    alloc_meter::enable(true);
    let before = alloc_meter::allocs();
    let r = run_stream(cfg, StreamCfg { size: 64 * 1024, count: MSGS });
    let allocs = alloc_meter::allocs() - before;
    assert!(r.throughput > 0.0, "stream moved no data");
    let per_msg = allocs as f64 / MSGS as f64;
    eprintln!("allocs={allocs} msgs={MSGS} allocs/msg={per_msg:.2}");
    per_msg
}

#[test]
fn sctp_stream_64k_stays_within_alloc_budget() {
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
    let per_msg = stream_64k_allocs_per_msg(MpiCfg::sctp(2, 0.0));
    assert!(
        per_msg <= MAX_ALLOCS_PER_STREAM_MSG,
        "allocation regression: {per_msg:.1} allocs per 64 KiB SCTP message exceeds budget \
         {MAX_ALLOCS_PER_STREAM_MSG} (baseline 10.49). The send window, reassembly queue or \
         receive window is allocating per chunk again."
    );
}

#[test]
fn tcp_stream_64k_stays_within_alloc_budget() {
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
    let per_msg = stream_64k_allocs_per_msg(MpiCfg::tcp(2, 0.0));
    assert!(
        per_msg <= MAX_ALLOCS_PER_STREAM_MSG_TCP,
        "allocation regression: {per_msg:.1} allocs per 64 KiB TCP message exceeds budget \
         {MAX_ALLOCS_PER_STREAM_MSG_TCP}. Are in-order segments going through the out-of-order \
         store again, or being copied instead of sliced?"
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

/// Frames in one gated receive train: 44 × 1 452 B fits one 65 507-byte
/// UDP_GRO read.
const TRAIN_FRAMES: u64 = 44;
const FRAME: usize = 1452;

/// Frame `i` of a full-size SCTP train: a SACK with one gap block bundled
/// ahead of a DATA chunk, padded to [`FRAME`] bytes.
fn sctp_frame(i: u64) -> Packet {
    // IP 20 + common header 12 + SACK 20 + DATA header 16.
    let data = vec![i as u8; FRAME - 68];
    let chunks = vec![
        Chunk::Sack { cum_tsn: 10, a_rwnd: 1 << 16, gaps: vec![(12, 14)] },
        Chunk::Data(DataChunk {
            tsn: 100 + i,
            stream: 0,
            ssn: 0,
            begin: i == 0,
            end: false,
            unordered: false,
            ppid: 0,
            data: Bytes::from(data),
        }),
    ];
    Packet {
        src: IfAddr::new(0, 0),
        dst: IfAddr::new(1, 0),
        body: Proto::Sctp(SctpPacket { src_port: 5000, dst_port: 5000, vtag: 7, chunks }),
    }
}

/// Frame `i` of a full-size TCP train, with one SACK block.
fn tcp_frame(i: u64) -> Packet {
    // IP 20 + TCP 20 + timestamps 12 + SACK option 12.
    let len = FRAME - 64;
    let seg = TcpSegment {
        src_port: 5001,
        dst_port: 5001,
        flags: Flags::ACK,
        seq: 1 + i * len as u64,
        ack: 1,
        wnd: 65_535,
        sack: vec![(3000, 4000)],
        probe: false,
        payload: vec![Bytes::from(vec![i as u8; len])],
        payload_len: len as u32,
    };
    Packet { src: IfAddr::new(0, 0), dst: IfAddr::new(1, 0), body: Proto::Tcp(seg) }
}

/// What the engines do with a delivered packet's carriers.
fn retire(pool: &mut Pools, pkt: Packet) {
    match pkt.body {
        Proto::Tcp(seg) => {
            pool.put_bytes_vec(seg.payload);
            pool.put_gap_vec(seg.sack);
        }
        Proto::Sctp(mut p) => {
            for chunk in p.chunks.drain(..) {
                if let Chunk::Sack { gaps, .. } = chunk {
                    pool.put_gap_vec(gaps);
                }
            }
            pool.put_chunk_vec(p.chunks);
        }
    }
}

/// Bytes the socket backend receives into; a train of at least half of
/// them is decoded where the kernel wrote it.
const RECV_BUF: usize = 64 * 1024;

/// Ingress of one receive train the kernel wrote into `buf`, as the socket
/// backend does it for a train of half its buffer or more: the buffer
/// becomes the train's shared `Bytes`, a fresh one takes its place, and
/// every frame is decoded as a slice of the train.
fn ingest(buf: &mut Vec<u8>, pool: &mut Pools) {
    assert!(buf.len() >= RECV_BUF / 2, "the backend copies a train under half its buffer");
    let train = Bytes::from(std::mem::replace(buf, Vec::with_capacity(RECV_BUF)));
    for at in (0..train.len()).step_by(FRAME) {
        let pkt = decode_frame(&train.slice(at..at + FRAME), pool).expect("own frames decode");
        retire(pool, pkt);
    }
}

#[test]
fn live_ingress_train_costs_one_copy_not_one_per_chunk() {
    let _metering = METER.lock().unwrap_or_else(|e| e.into_inner());
    alloc_meter::enable(true);
    for (name, frame) in [("sctp", sctp_frame as fn(u64) -> Packet), ("tcp", tcp_frame)] {
        let mut raw = Vec::new();
        for i in 0..TRAIN_FRAMES {
            assert_eq!(encode_packet_into(&frame(i), 0, &mut raw), FRAME);
        }
        let mut pool = Pools::default();
        // What a receive leaves behind: the train in the receive buffer.
        let mut buf = Vec::with_capacity(RECV_BUF);
        let receive = |buf: &mut Vec<u8>| buf.extend_from_slice(&raw);
        receive(&mut buf);
        ingest(&mut buf, &mut pool); // warm the pools
        // Most of five: only this thread is metered, so every train counts
        // the same, and each must stay within the budget.
        let allocs = (0..5)
            .map(|_| {
                receive(&mut buf);
                let before = alloc_meter::allocs();
                ingest(&mut buf, &mut pool);
                alloc_meter::allocs() - before
            })
            .max()
            .expect("five samples");
        eprintln!("{name}: {allocs} allocations per {TRAIN_FRAMES}-frame train");
        assert!(
            allocs <= MAX_ALLOCS_PER_INGRESS_TRAIN,
            "allocation regression: decoding a {TRAIN_FRAMES}-frame {name} train cost {allocs} \
             allocations, budget {MAX_ALLOCS_PER_INGRESS_TRAIN} (the refcount of the train's buffer \
             and the receive buffer that replaces it). Is the decoder copying payloads, or taking \
             carriers outside the pool?"
        );
    }
}
