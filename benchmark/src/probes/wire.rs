//! `transport::wire_bytes` and `transport::crc32c`: what the live path pays
//! per frame that `SimBackend` never does.

use bytes::Bytes;
use netsim::IfAddr;
use transport::crc32c::crc32c;
use transport::ip::{Packet, Proto};
use transport::sctp::{Chunk, DataChunk, SctpPacket};
use transport::wire_bytes::{decode_packet, encode_packet};

use super::BATCHES;
use crate::calib::Calib;

const FRAMES: u64 = 4_000;
/// Bytes around the payload of a one-chunk frame: IP 20 + common 12 + DATA 16.
pub const HEADERS: usize = 48;
/// Payload of a full DATA chunk at PMTU 1500.
pub const MTU_PAYLOAD: usize = 1500 - HEADERS;

fn data_packet(payload: usize) -> Packet {
    let data = DataChunk {
        tsn: 1_000,
        stream: 0,
        ssn: 7,
        begin: true,
        end: true,
        unordered: false,
        ppid: 0,
        data: Bytes::from(vec![0xA5u8; payload]),
    };
    let body = SctpPacket {
        src_port: 5000,
        dst_port: 5000,
        vtag: 0x1234_5678,
        chunks: vec![Chunk::Data(data)],
    };
    Packet {
        src: IfAddr::new(0, 0),
        dst: IfAddr::new(1, 0),
        body: Proto::Sctp(body),
    }
}

/// (encode, decode) cost of one SCTP frame carrying one DATA chunk.
pub fn codec_ns_per_pkt(cal: &mut Calib, payload: usize) -> (f64, f64) {
    let pkt = data_packet(payload);
    let encode = cal.probe(BATCHES, || {
        for _ in 0..FRAMES {
            std::hint::black_box(encode_packet(std::hint::black_box(&pkt), 0));
        }
        FRAMES
    });
    let frame = encode_packet(&pkt, 0);
    let decode = cal.probe(BATCHES, || {
        for _ in 0..FRAMES {
            let back = decode_packet(std::hint::black_box(&frame)).expect("own frame decodes");
            std::hint::black_box(back);
        }
        FRAMES
    });
    (encode, decode)
}

/// CRC32c throughput over a 64 KiB buffer, in 10⁹ bytes per reference second.
pub fn crc32c_gb_per_s(cal: &mut Calib) -> f64 {
    const ROUNDS: u64 = 200;
    let buf = vec![0x5Au8; 64 * 1024];
    let ns_per_byte = cal.probe(BATCHES, || {
        for _ in 0..ROUNDS {
            std::hint::black_box(crc32c(std::hint::black_box(&buf)));
        }
        ROUNDS * buf.len() as u64
    });
    1.0 / ns_per_byte
}
