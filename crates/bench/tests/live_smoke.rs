//! Tier-2 loopback smoke test (`--features live-tests`).
//!
//! Opens real UDP sockets on 127.0.0.1, so it is feature-gated out of the
//! hermetic tier-1 `cargo test`. CI's `live-smoke` job runs it. Covers the
//! three live-path promises: the quick fig8 sweep completes over real
//! sockets, per-iteration latency is sane for loopback, and the emitted
//! BENCH record declares the schema version the sim harness writes.

#![cfg(feature = "live-tests")]

use bench_harness::json::{schema_version, SCHEMA_VERSION};
use bench_harness::live;
use bench_harness::Scale;

#[test]
fn quick_sweep_completes_over_real_sockets() {
    let (rows, report) = live::live_fig8(Scale::Quick);
    assert_eq!(rows.len(), 4, "quick scale sweeps 4 sizes");
    for &(size, tcp_tput, sctp_tput) in &rows {
        assert!(tcp_tput > 0.0 && sctp_tput > 0.0, "size {size}: zero throughput");
    }
    // Larger messages must move more bytes per second than tiny ones — the
    // shape every ping-pong curve (sim or live) has.
    assert!(
        rows.last().unwrap().2 > rows.first().unwrap().2,
        "throughput did not grow with message size"
    );
    assert_eq!(report.cells.len(), 2 * rows.len(), "one TCP and one SCTP cell per size");

    // The record must declare the same schema version the sim
    // harness writes, so `results/` diffing treats live and sim runs alike.
    let dir = std::env::temp_dir().join(format!("live_smoke_{}", std::process::id()));
    report.save_to(&dir);
    assert_eq!(report.fig, "pingpong_live_quick", "a quick run must not claim the paper-scale file");
    let path = dir.join("BENCH_pingpong_live_quick.json");
    let text = std::fs::read_to_string(&path).expect("report written");
    assert_eq!(schema_version(&text), Some(SCHEMA_VERSION));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_latency_is_sane() {
    // One small-message SCTP cell: the full four-way handshake plus 20
    // echoes of 64 bytes. Loopback RTT through two userspace reactors is
    // tens of microseconds; 50 ms of slack absorbs any CI scheduling noise
    // while still catching a stuck timer pump (which would cost a 200 ms
    // delayed-SACK or a 1 s RTO per iteration).
    let c = live::sctp_cell(64, 20, 0xC0FFEE, None);
    assert!(c.rtt > 0.0, "rtt must be measurable");
    assert!(c.rtt < 0.050, "loopback rtt {:.6}s looks wedged", c.rtt);
    assert_eq!(c.udp.rx_bad_crc, 0);
    assert_eq!(c.udp.rx_bad_frame, 0);
    assert!(c.udp.tx_frames > 0, "frames must actually cross the socket");
}

#[test]
fn one_stream_carries_seventy_thousand_messages() {
    // A DATA chunk carries 16 bits of SSN, so stream 0 wraps on the wire at
    // message 65 536; the receiver widens it back against its 32-bit
    // ordered-delivery counter. `sctp_cell` checks every message's SSN and
    // panics if the stream stops delivering.
    let c = live::sctp_cell(1, 70_000, 0x55E, None);
    assert_eq!(c.udp.rx_bad_crc + c.udp.rx_bad_frame, 0);
}

#[test]
fn live_frames_flow_through_the_pcapng_sink() {
    // Trace parity: packets the UDP backend sends and receives must land in
    // the same flight recorder the sim uses, and the pcapng sink must
    // accept the capture — so `analyze` works on live runs too.
    // Snap nothing, so that every captured frame can be decoded below.
    let tracer = trace::Tracer::new(trace::DEFAULT_CAP, 1 << 16);
    let mut c = live::sctp_cell(4096, 5, 0xBEEF, Some(&tracer));
    c.udp += live::tcp_cell(4096, 5, 0xBEEF, Some(&tracer)).udp;
    let dump = tracer.dump(u64::MAX);
    // Egress on one node + ingress mirror on the other: every datagram that
    // crossed the socket appears twice in the shared recorder. And the
    // capture holds the wire, not a re-encoding: each frame decodes, and the
    // bytes one node recorded on egress are the bytes its peer recorded on
    // ingress — so sorted, the frames pair up, but for the few still in the
    // socket when their cell ended.
    let mut frames: Vec<&[u8]> = dump
        .recs
        .iter()
        .filter_map(|r| match &r.ev {
            trace::Event::Pkt(p) => Some(&p.frame[..]),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len() as u64, c.udp.tx_frames + c.udp.rx_frames);
    for f in &frames {
        transport::wire_bytes::decode_packet(f).expect("a captured frame decodes");
    }
    frames.sort_unstable();
    let unpaired = frames.chunk_by(|a, b| a == b).filter(|same| same.len() % 2 == 1).count() as u64;
    assert_eq!(unpaired, c.udp.tx_frames - c.udp.rx_frames, "a received frame differs from the one sent");
    let pcap = dump.write_pcapng();
    assert!(pcap.len() > 1024, "pcapng capture looks empty: {} bytes", pcap.len());
    assert!(!dump.write_jsonl().is_empty());
}

#[test]
fn payload_copies_are_counted_each_way() {
    // Egress copies every payload byte once, into the arena it sends from.
    // Ingress decodes a train of half its 64 KiB receive buffer or more
    // where the kernel wrote it and copies out only shorter trains: at
    // 1 KiB every frame, at 128 KiB the runs under 32 KiB (about half the
    // bytes of a 20-round-trip cell, while the windows open) but not the
    // rest.
    const ITERS: u64 = 20;
    for size in [128 * 1024, 1024] {
        for (name, c) in [
            ("sctp", live::sctp_cell(size, ITERS as u32, 0xC097, None)),
            ("tcp", live::tcp_cell(size, ITERS as u32, 0xC097, None)),
        ] {
            let u = c.udp;
            assert_eq!(u.rx_bad_crc + u.rx_bad_frame + u.tx_errors, 0, "{name} {size} B");
            // Both directions, plus whatever was retransmitted.
            assert!(u.tx_copied >= 2 * ITERS * size as u64, "{name} {size} B: {u:?}");
            if size >= 64 * 1024 {
                assert!(u.rx_copied < u.rx_bytes, "{name} {size} B: no train decoded in place: {u:?}");
            } else {
                assert_eq!(u.rx_copied, u.rx_bytes, "{name} {size} B: every short train is copied: {u:?}");
            }
        }
    }
}
