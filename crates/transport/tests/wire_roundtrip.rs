//! Round-trip properties for the wire codecs (`transport::wire_bytes`).
//!
//! The live backend trusts `decode_packet` to be a right inverse of
//! `encode_packet`: every frame the engines emit must parse back into
//! values that re-encode to the same bytes. The properties here pin that
//! idempotence — `encode(decode(encode(x))) == encode(x)` — over random
//! SCTP chunk sequences and TCP segments, deliberately including values the
//! wire narrows (u64 tags, oversized windows, heartbeat nonces): the
//! narrowing must be *stable*, never lossy twice.
//!
//! Field-exact round-trips for wire-representable values, and the
//! corrupted-CRC reject path, ride along.

use bytes::Bytes;
use netsim::IfAddr;
use proptest::prelude::*;
use transport::ip::{Packet, Proto};
use transport::sctp::{Chunk, Cookie, DataChunk, SctpPacket};
use transport::tcp::{Flags, TcpSegment};
use transport::wire_bytes::{decode_packet, encode_packet, encode_packet_into, DecodeError};

fn arb_cookie() -> impl Strategy<Value = Cookie> {
    (
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>(), any::<u16>()),
        (any::<u64>(), any::<u64>(), 0u8..4),
    )
        .prop_map(|((ph, pp, lp, pt, lt), (rw, ptsn, mtsn, os, is), (at, mac, ext))| Cookie {
            peer_host: ph,
            peer_port: pp,
            local_port: lp,
            peer_tag: pt,
            local_tag: lt,
            peer_rwnd: rw,
            peer_init_tsn: ptsn,
            my_init_tsn: mtsn,
            out_streams: os,
            in_streams: is,
            created_at: simcore::SimTime::from_nanos(at),
            ext_flags: ext,
            mac,
        })
}

fn arb_idata_chunk() -> impl Strategy<Value = Chunk> {
    (
        (0u64..u32::MAX as u64, any::<u16>(), any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<bool>()),
        prop::collection::vec(any::<u8>(), 0..1400),
    )
        .prop_map(|((tsn, stream, mid, slot), (end, unordered), data)| {
            // Model the wire-representable shapes: a B fragment carries the
            // PPID (FSN is 0 by definition); a non-B fragment carries the
            // FSN (PPID rides on the B fragment).
            let begin = slot % 2 == 0;
            let d = DataChunk {
                tsn,
                stream,
                ssn: mid,
                ppid: if begin { slot } else { 0 },
                begin,
                end,
                unordered,
                data: Bytes::from(data),
            };
            Chunk::IData { d, fsn: if begin { 0 } else { slot } }
        })
}

fn arb_forward_tsn() -> impl Strategy<Value = Chunk> {
    (0u64..u32::MAX as u64, prop::collection::vec((any::<u16>(), 0u64..u32::MAX as u64), 0..6))
        .prop_map(|(new_cum, skips)| Chunk::ForwardTsn { new_cum, skips })
}

fn arb_data_chunk() -> impl Strategy<Value = Chunk> {
    (
        (0u64..u32::MAX as u64, any::<u16>(), 0u32..u16::MAX as u32, any::<u32>()),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::collection::vec(any::<u8>(), 0..1400),
    )
        .prop_map(|((tsn, stream, ssn, ppid), (begin, end, unordered), data)| {
            Chunk::Data(DataChunk {
                tsn,
                stream,
                ssn,
                begin,
                end,
                unordered,
                ppid,
                data: Bytes::from(data),
            })
        })
}

fn arb_sack() -> impl Strategy<Value = Chunk> {
    (
        0u64..1_000_000,
        any::<u64>(),
        prop::collection::vec((1u64..60_000, 1u64..1_000), 0..8),
    )
        .prop_map(|(cum_tsn, a_rwnd, rel)| Chunk::Sack {
            cum_tsn,
            a_rwnd,
            gaps: rel.into_iter().map(|(s, l)| (cum_tsn + s, cum_tsn + s + l)).collect(),
        })
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        arb_data_chunk(),
        arb_sack(),
        arb_idata_chunk(),
        arb_forward_tsn(),
        (any::<u64>(), any::<u64>(), any::<u16>(), any::<u16>(), 0u64..u32::MAX as u64, 0u8..4)
            .prop_map(|(init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags)| {
                Chunk::Init { init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags }
            }),
        (
            (any::<u64>(), any::<u64>(), any::<u16>(), any::<u16>(), any::<u64>(), 0u8..4),
            arb_cookie()
        )
            .prop_map(
                |((init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags), cookie)| {
                    Chunk::InitAck {
                        init_tag,
                        a_rwnd,
                        out_streams,
                        in_streams,
                        init_tsn,
                        ext_flags,
                        cookie,
                    }
                }
            ),
        arb_cookie().prop_map(|cookie| Chunk::CookieEcho { cookie }),
        Just(Chunk::CookieAck),
        (0u8..3, any::<u64>()).prop_map(|(path, nonce)| Chunk::Heartbeat { path, nonce }),
        (0u8..3, any::<u64>()).prop_map(|(path, nonce)| Chunk::HeartbeatAck { path, nonce }),
        any::<u64>().prop_map(|cum_tsn| Chunk::Shutdown { cum_tsn }),
        Just(Chunk::ShutdownAck),
        Just(Chunk::ShutdownComplete),
        Just(Chunk::Abort),
    ]
}

fn arb_sctp_packet() -> impl Strategy<Value = Packet> {
    (
        (0u16..512, 0u8..3, 0u16..512, 0u8..3),
        (any::<u16>(), any::<u16>(), any::<u64>()),
        prop::collection::vec(arb_chunk(), 1..6),
    )
        .prop_map(|((sh, si, dh, di), (sp, dp, vtag), chunks)| Packet {
            src: IfAddr::new(sh, si),
            dst: IfAddr::new(dh, di),
            body: Proto::Sctp(SctpPacket { src_port: sp, dst_port: dp, vtag, chunks }),
        })
}

fn arb_tcp_packet() -> impl Strategy<Value = Packet> {
    (
        (0u16..512, 0u16..512, any::<u16>(), any::<u16>()),
        prop_oneof![
            Just(Flags::SYN),
            Just(Flags::SYN | Flags::ACK),
            Just(Flags::ACK),
            Just(Flags::FIN | Flags::ACK),
            Just(Flags::RST),
        ],
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec((1u64..1_000_000, 1u64..10_000), 0..4),
        prop::collection::vec(any::<u8>(), 0..3000),
        1usize..4,
    )
        .prop_map(|((sh, dh, sp, dp), flags, (seq, ack, wnd), mut sack, data, nslices)| {
            // A SYN never carries SACK blocks (the engines agree): with the
            // MSS option aboard, 3 blocks would blow the 60-byte header cap.
            if flags.contains(Flags::SYN) {
                sack.clear();
            }
            // Split the payload into 1..4 zero-copy slices: the wire merges
            // them, and the re-encode must not care.
            let payload_len = data.len() as u32;
            let mut payload = Vec::new();
            let step = (data.len() / nslices).max(1);
            let mut rest = Bytes::from(data);
            while rest.len() > step {
                payload.push(rest.slice(0..step));
                rest = rest.slice(step..rest.len());
            }
            if !rest.is_empty() {
                payload.push(rest);
            }
            Packet {
                src: IfAddr::new(sh, 0),
                dst: IfAddr::new(dh, 0),
                body: Proto::Tcp(TcpSegment {
                    src_port: sp,
                    dst_port: dp,
                    flags,
                    seq,
                    ack,
                    wnd,
                    sack: sack.into_iter().map(|(s, l)| (s, s + l)).collect(),
                    probe: false,
                    payload,
                    payload_len,
                }),
            }
        })
}

proptest! {
    #[test]
    fn sctp_decode_then_reencode_is_byte_identical(pkt in arb_sctp_packet(), now in any::<u64>()) {
        let frame = encode_packet(&pkt, now);
        let decoded = decode_packet(&frame).expect("own frames must decode");
        prop_assert_eq!(encode_packet(&decoded, now), frame);
    }

    #[test]
    fn tcp_decode_then_reencode_is_byte_identical(pkt in arb_tcp_packet(), now in 0u64..u32::MAX as u64) {
        let frame = encode_packet(&pkt, now);
        let decoded = decode_packet(&frame).expect("own frames must decode");
        prop_assert_eq!(encode_packet(&decoded, now), frame);
    }

    #[test]
    fn wire_safe_sctp_fields_round_trip_exactly(
        tsn in 0u64..u32::MAX as u64,
        stream in any::<u16>(),
        ssn in 0u32..u16::MAX as u32,
        ppid in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..1400),
        cum in 0u64..1_000_000,
        rel in prop::collection::vec((1u64..60_000, 1u64..1_000), 0..8),
    ) {
        let gaps: Vec<(u64, u64)> =
            rel.into_iter().map(|(s, l)| (cum + s, cum + s + l)).collect();
        let pkt = Packet {
            src: IfAddr::new(0, 0),
            dst: IfAddr::new(1, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 7,
                dst_port: 8,
                vtag: 0x1234_5678,
                chunks: vec![
                    Chunk::Data(DataChunk {
                        tsn,
                        stream,
                        ssn,
                        begin: true,
                        end: true,
                        unordered: false,
                        ppid,
                        data: Bytes::from(data.clone()),
                    }),
                    Chunk::Sack { cum_tsn: cum, a_rwnd: 220 * 1024, gaps: gaps.clone() },
                ],
            }),
        };
        let decoded = decode_packet(&encode_packet(&pkt, 0)).unwrap();
        let Proto::Sctp(p) = &decoded.body else { panic!("proto flipped") };
        let Chunk::Data(d) = &p.chunks[0] else { panic!("DATA first") };
        prop_assert_eq!((d.tsn, d.stream, d.ssn, d.ppid), (tsn, stream, ssn, ppid));
        prop_assert_eq!(&d.data[..], &data[..]);
        let Chunk::Sack { cum_tsn, gaps: got, .. } = &p.chunks[1] else { panic!("SACK second") };
        prop_assert_eq!(*cum_tsn, cum);
        prop_assert_eq!(got, &gaps);
    }

    #[test]
    fn cookies_round_trip_with_mac_intact(cookie in arb_cookie(), secret in any::<u64>()) {
        // The cookie serializes full-width, so a decoded cookie must still
        // verify under the secret that signed it — the live four-way
        // handshake depends on exactly this.
        let signed = cookie.sign(secret);
        let pkt = Packet {
            src: IfAddr::new(0, 0),
            dst: IfAddr::new(1, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 1,
                dst_port: 2,
                vtag: 99,
                chunks: vec![Chunk::CookieEcho { cookie: signed }],
            }),
        };
        let decoded = decode_packet(&encode_packet(&pkt, 0)).unwrap();
        let Proto::Sctp(p) = &decoded.body else { panic!("proto flipped") };
        let Chunk::CookieEcho { cookie: got } = &p.chunks[0] else { panic!("cookie echo") };
        prop_assert_eq!(*got, signed);
        prop_assert!(got.verify(secret));
        prop_assert!(!got.verify(secret ^ 1));
    }

    #[test]
    fn any_single_byte_corruption_in_the_sctp_body_is_rejected(
        pkt in arb_sctp_packet(),
        pick in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut frame = encode_packet(&pkt, 0);
        // Corrupt one byte anywhere in the SCTP region (past the IP
        // header); the CRC32c gate must reject before any chunk parsing.
        let body = frame.len() - 20;
        let at = 20 + (pick as usize % body);
        frame[at] ^= 1 << bit;
        match decode_packet(&frame) {
            Err(DecodeError::BadCrc(stored, computed)) => prop_assert_ne!(stored, computed),
            other => prop_assert!(false, "corruption at byte {} must fail CRC, got {:?}", at, other),
        }
    }
}

/// `encode_packet_into` must append exactly `encode_packet`'s bytes wherever
/// the arena happens to end: at offsets 0..=3 (every alignment of the CRC
/// and checksum words) and behind another frame.
fn assert_appends_identically(pkt: &Packet, now: u64) -> Result<(), proptest::test_runner::TestCaseError> {
    let frame = encode_packet(pkt, now);
    for lead in 0..4usize {
        let mut arena = vec![0xEE; lead];
        let n = encode_packet_into(pkt, now, &mut arena);
        prop_assert_eq!(n, frame.len());
        prop_assert_eq!(&arena[..lead], &vec![0xEE; lead][..], "bytes before the frame were touched");
        prop_assert_eq!(&arena[lead..], &frame[..], "frame differs at arena offset {}", lead);
    }
    let mut arena = Vec::new();
    encode_packet_into(pkt, now, &mut arena);
    let n = encode_packet_into(pkt, now, &mut arena);
    prop_assert_eq!(arena.len(), 2 * frame.len());
    prop_assert_eq!(&arena[frame.len()..], &frame[..n], "frame differs behind another frame");
    prop_assert_eq!(&arena[..frame.len()], &frame[..], "appending rewrote the frame before it");
    Ok(())
}

proptest! {
    #[test]
    fn sctp_encode_into_matches_encode_at_any_offset(pkt in arb_sctp_packet(), now in any::<u64>()) {
        assert_appends_identically(&pkt, now)?;
    }

    #[test]
    fn tcp_encode_into_matches_encode_at_any_offset(pkt in arb_tcp_packet(), now in 0u64..u32::MAX as u64) {
        assert_appends_identically(&pkt, now)?;
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Three frames whose bytes were recorded from `encode_packet` before it
/// became a wrapper over `encode_packet_into`: the sim's pcapng captures go
/// through it, so its output may not move by a byte.
#[test]
fn encode_packet_output_is_pinned() {
    let cookie = Cookie {
        peer_host: 0,
        peer_port: 5000,
        local_port: 5000,
        peer_tag: 0x1111_2222,
        local_tag: 0x3333_4444,
        peer_rwnd: 220 * 1024,
        peer_init_tsn: 7,
        my_init_tsn: 9,
        out_streams: 10,
        in_streams: 10,
        created_at: simcore::SimTime::from_nanos(123_456_789),
        ext_flags: 3,
        mac: 0xFEED_FACE_CAFE_BEEF,
    };
    let data_sack = Packet {
        src: IfAddr::new(0, 1),
        dst: IfAddr::new(3, 1),
        body: Proto::Sctp(SctpPacket {
            src_port: 5600,
            dst_port: 5601,
            vtag: 0xDEAD_BEEF,
            chunks: vec![
                Chunk::Data(DataChunk {
                    tsn: 42,
                    stream: 3,
                    ssn: 7,
                    begin: true,
                    end: false,
                    unordered: false,
                    ppid: 9,
                    data: Bytes::from_static(b"hello world"),
                }),
                Chunk::Sack { cum_tsn: 41, a_rwnd: 220 * 1024, gaps: vec![(44, 46), (50, 51)] },
                Chunk::Heartbeat { path: 1, nonce: 0xFEED_FACE },
            ],
        }),
    };
    let handshake = Packet {
        src: IfAddr::new(1, 0),
        dst: IfAddr::new(0, 0),
        body: Proto::Sctp(SctpPacket {
            src_port: 5000,
            dst_port: 5000,
            vtag: 0x1111_2222,
            chunks: vec![
                Chunk::InitAck {
                    init_tag: 0x3333_4444,
                    a_rwnd: 220 * 1024,
                    out_streams: 10,
                    in_streams: 10,
                    init_tsn: 9,
                    ext_flags: 3,
                    cookie,
                },
                Chunk::IData {
                    d: DataChunk {
                        tsn: 100,
                        stream: 2,
                        ssn: 5,
                        begin: false,
                        end: true,
                        unordered: true,
                        ppid: 0,
                        data: Bytes::from_static(b"odd"),
                    },
                    fsn: 1,
                },
                Chunk::ForwardTsn { new_cum: 99, skips: vec![(2, 4)] },
            ],
        }),
    };
    let tcp = Packet {
        src: IfAddr::new(258, 0),
        dst: IfAddr::new(2, 0),
        body: Proto::Tcp(TcpSegment {
            src_port: 5700,
            dst_port: 5701,
            flags: Flags::SYN | Flags::ACK,
            seq: 1000,
            ack: 2000,
            wnd: 220 * 1024,
            sack: vec![(3000, 4460)],
            probe: false,
            payload: vec![Bytes::from_static(&[0xAB; 7]), Bytes::from_static(&[0xCD; 6])],
            payload_len: 13,
        }),
    };
    for (name, pkt, want) in [
        ("data+sack", &data_sack, PINNED_DATA_SACK),
        ("handshake", &handshake, PINNED_HANDSHAKE),
        ("tcp", &tcp, PINNED_TCP),
    ] {
        assert_eq!(hex(&encode_packet(pkt, 12_345_678_901)), want, "{name} frame moved");
    }
}

const PINNED_DATA_SACK: &str = concat!(
    "4500006000004000408426160a0100000a01000315e015e1deadbeef208d12940002001b0000002a0003000700000009",
    "68656c6c6f20776f726c64000300001800000029000370000002000000030004000900090400000c00010008feedface"
);
const PINNED_HANDSHAKE: &str = concat!(
    "450000b000004000408425ca0a0000010a000000138813881111222235291a01020000683333444400037000000a000a",
    "0000000980080005030000000007004c0000138813880000000011112222000000003333444400000000000370000000",
    "0000000000070000000000000009000a000a00000000075bcd15feedfacecafebeef0300000000004005001700000064",
    "0002000000000005000000016f646400c2000010000000630002000000000004"
);
const PINNED_TCP: &str = concat!(
    "4500005100004000400625a40a0001020a00000216441645000003e8000007d0c01affff76c40000020405b40101080a",
    "00003039000000000101050a00000bb80000116cabababababababcdcdcdcdcdcd"
);
