//! On-wire byte serialization, for the flight recorder's pcapng sink and for
//! the real-socket backend.
//!
//! The simulator keeps segments and chunks as typed Rust values; this module
//! renders them into the real RFC encodings — IPv4 (no options), TCP with
//! MSS/timestamp/SACK options and a correct ones-complement checksum, SCTP
//! per RFC 4960 with a correct CRC32c — so the captures dissect cleanly in
//! wireshark/tshark. In the simulation only the tracer calls this, and only
//! when tracing is on ([`encode_packet`], one `Vec` per frame); the socket
//! backend serializes every frame it sends, appending each to its tx arena
//! ([`encode_packet_into`], the same bytes with no allocation).
//!
//! Fidelity notes, where the model is wider than the wire:
//! - TSNs, tags, sequence numbers are `u64` in the model and truncate to
//!   `u32` here (runs never get near wraparound).
//! - The model charges unpadded TCP option sizes; real headers pad to a
//!   32-bit boundary, so a serialized TCP frame can be up to 2 bytes longer
//!   than the simulated wire size. The capture records both lengths.
//! - SACK gap-ack blocks clamp to the RFC's 16-bit offsets.
//!
//! Since the real-socket backend landed this module also **decodes**:
//! [`decode_packet`] parses a frame produced by [`encode_packet`] (or by any
//! peer speaking the same encodings) back into engine values, verifying the
//! IP header checksum, the TCP ones-complement checksum, and the SCTP CRC32c
//! on the way in. Decoding is a right inverse of encoding: for every frame
//! `f` this module emits, `encode(decode(f)) == f` byte for byte (the
//! round-trip property suite pins this). Fields the wire cannot carry
//! (SACK `dup_count`, the TCP `probe` flag) decode to their neutral values;
//! heartbeat `path` is recovered from the addressing.
//!
//! There is one decoder, [`decode_frame`], over a frame that already sits in
//! a shared [`Bytes`] buffer: DATA, I-DATA and TCP payloads come back as
//! slices of that buffer, the CRC32c is folded over the same bytes, and the
//! chunk bundle, gap and SACK lists and TCP payload list come from the
//! caller's [`Pools`]. The socket backend copies each receive train into one
//! buffer and decodes every datagram in it this way; [`decode_packet`]
//! copies a lone frame and does the same. The cost of not copying is
//! retention: a payload slice keeps its whole buffer alive. A chunk parked
//! out of order, or queued for a reader, pins its train (at most 64 KiB)
//! until it is delivered and dropped, so the memory held is at most one
//! train per chunk the receive window admits.

use std::ops::Range;

use bytes::Bytes;
use netsim::IfAddr;

use crate::crc32c::{crc32c, Crc32c};
use crate::ip::{Packet, Proto, IP_HEADER};
use crate::pool::Pools;
use crate::sctp::{Chunk, Cookie, DataChunk, IDataChunk, SctpPacket};
use crate::tcp::{Flags, TcpSegment};

/// Trace metadata extracted from a packet: (proto, kind, first payload
/// unit, payload extent, stream id).
pub fn pkt_meta(body: &Proto) -> (trace::Proto8, trace::PktKind, u64, u32, i32) {
    match body {
        Proto::Tcp(seg) => {
            let kind = if seg.payload_len > 0 {
                trace::PktKind::Data
            } else if seg.flags.contains(Flags::SYN) || seg.flags.contains(Flags::FIN) || seg.flags.contains(Flags::RST) || seg.probe {
                trace::PktKind::Ctl
            } else {
                trace::PktKind::Ack
            };
            (trace::Proto8::Tcp, kind, seg.seq, seg.payload_len, -1)
        }
        Proto::Sctp(p) => {
            let mut first_data: Option<(u64, u16)> = None;
            let mut ndata = 0u32;
            let mut has_sack = false;
            for c in &p.chunks {
                match c {
                    Chunk::Data(d) => {
                        if first_data.is_none() {
                            first_data = Some((d.tsn, d.stream));
                        }
                        ndata += 1;
                    }
                    Chunk::IData(d) => {
                        if first_data.is_none() {
                            first_data = Some((d.tsn, d.stream));
                        }
                        ndata += 1;
                    }
                    Chunk::Sack { .. } => has_sack = true,
                    _ => {}
                }
            }
            match first_data {
                Some((tsn, stream)) => (trace::Proto8::Sctp, trace::PktKind::Data, tsn, ndata, stream as i32),
                None if has_sack => (trace::Proto8::Sctp, trace::PktKind::Sack, 0, 0, -1),
                None => (trace::Proto8::Sctp, trace::PktKind::Ctl, 0, 0, -1),
            }
        }
    }
}

/// Serialize a packet to a raw-IPv4 frame and snap it: returns
/// `(snapped_frame, full_frame_len)`.
pub fn capture_frame(pkt: &Packet, now_ns: u64, snaplen: usize) -> (Vec<u8>, u32) {
    let mut frame = encode_packet(pkt, now_ns);
    let full = frame.len() as u32;
    frame.truncate(snaplen);
    (frame, full)
}

/// The full serialized frame: IPv4 header + TCP segment or SCTP packet.
pub fn encode_packet(pkt: &Packet, now_ns: u64) -> Vec<u8> {
    // Plus the 32-bit padding of TCP options, which the model does not charge.
    let mut out = Vec::with_capacity((IP_HEADER + pkt.body.wire_len()) as usize + 3);
    encode_packet_into(pkt, now_ns, &mut out);
    out
}

/// Append the serialized frame to `out` — the live backend's tx arena, which
/// already holds earlier frames — and return its length. The bytes appended
/// are exactly [`encode_packet`]'s, at whatever offset `out` ends: every
/// length, padding and checksum is computed relative to the frame's own
/// start.
pub fn encode_packet_into(pkt: &Packet, now_ns: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let src_ip = host_ip(pkt.src.host, pkt.src.iface);
    let dst_ip = host_ip(pkt.dst.host, pkt.dst.iface);
    let proto_num = match &pkt.body {
        Proto::Tcp(_) => 6u8,
        Proto::Sctp(_) => 132u8,
    };
    out.push(0x45); // version 4, IHL 5
    out.push(0); // TOS
    out.extend_from_slice(&0u16.to_be_bytes()); // total length placeholder
    out.extend_from_slice(&0u16.to_be_bytes()); // identification
    out.extend_from_slice(&0x4000u16.to_be_bytes()); // DF, fragment offset 0
    out.push(64); // TTL
    out.push(proto_num);
    out.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    out.extend_from_slice(&src_ip);
    out.extend_from_slice(&dst_ip);
    match &pkt.body {
        Proto::Tcp(seg) => encode_tcp(out, seg, src_ip, dst_ip, now_ns),
        Proto::Sctp(p) => encode_sctp(out, p),
    }
    let total_len = out.len() - start;
    out[start + 2..start + 4].copy_from_slice(&(total_len as u16).to_be_bytes());
    let cks = ones_complement_sum(&out[start..start + IP_HEADER as usize], 0);
    out[start + 10..start + 12].copy_from_slice(&(!cks).to_be_bytes());
    total_len
}

/// Addressing scheme for the capture: interface `i` of host `h` is
/// `10.i.(h >> 8).(h & 0xff)` — one /16 per simulated network.
pub fn host_ip(host: u16, iface: u8) -> [u8; 4] {
    [10, iface, (host >> 8) as u8, (host & 0xff) as u8]
}

/// Ones-complement sum over `data` (big-endian 16-bit words, an odd last
/// byte padded with zero) plus `init`, folded to 16 bits.
///
/// Computed a word at a time: native-endian `u32` words summed into a
/// `u64`, folded, then byte-swapped once into big-endian order. RFC 1071
/// §2(B): the ones-complement sum is byte-order independent up to that one
/// swap, and `2^16 ≡ 1` makes a `u32` word count as its two halves.
fn ones_complement_sum(data: &[u8], init: u32) -> u16 {
    let mut words = data.chunks_exact(4);
    let mut sum: u64 = (&mut words).map(|w| u32::from_ne_bytes([w[0], w[1], w[2], w[3]]) as u64).sum();
    let mut last = [0u8; 4];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    sum += u32::from_ne_bytes(last) as u64;
    let native = fold16(sum) as u16;
    fold16(u16::from_be(native) as u64 + init as u64) as u16
}

/// End-around-carry fold of a sum to at most 16 bits.
fn fold16(mut sum: u64) -> u64 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum
}

fn encode_tcp(out: &mut Vec<u8>, seg: &TcpSegment, src_ip: [u8; 4], dst_ip: [u8; 4], now_ns: u64) {
    let start = out.len();
    let mut flags = 0u8;
    if seg.flags.contains(Flags::FIN) {
        flags |= 0x01;
    }
    if seg.flags.contains(Flags::SYN) {
        flags |= 0x02;
    }
    if seg.flags.contains(Flags::RST) {
        flags |= 0x04;
    }
    if seg.payload_len > 0 {
        flags |= 0x08; // PSH
    }
    if seg.flags.contains(Flags::ACK) {
        flags |= 0x10;
    }

    out.extend_from_slice(&seg.src_port.to_be_bytes());
    out.extend_from_slice(&seg.dst_port.to_be_bytes());
    out.extend_from_slice(&(seg.seq as u32).to_be_bytes());
    out.extend_from_slice(&(seg.ack as u32).to_be_bytes());
    out.push(0); // data offset, patched once the options are down
    out.push(flags);
    out.extend_from_slice(&(seg.wnd.min(u16::MAX as u64) as u16).to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    out.extend_from_slice(&0u16.to_be_bytes()); // urgent pointer

    // Options, kept 32-bit aligned as a real stack would emit them.
    if seg.flags.contains(Flags::SYN) {
        out.extend_from_slice(&[2, 4]); // MSS
        out.extend_from_slice(&1460u16.to_be_bytes());
    }
    // Timestamps (always on, as the model's 12-byte charge assumes).
    out.extend_from_slice(&[1, 1, 8, 10]);
    out.extend_from_slice(&((now_ns / 1_000_000) as u32).to_be_bytes()); // TSval (ms ticks)
    out.extend_from_slice(&0u32.to_be_bytes()); // TSecr
    if !seg.sack.is_empty() {
        out.extend_from_slice(&[1, 1, 5, (2 + 8 * seg.sack.len()) as u8]);
        for &(lo, hi) in &seg.sack {
            out.extend_from_slice(&(lo as u32).to_be_bytes());
            out.extend_from_slice(&(hi as u32).to_be_bytes());
        }
    }
    while (out.len() - start) % 4 != 0 {
        out.push(1); // NOP
    }
    let header_len = out.len() - start;
    out[start + 12] = ((header_len / 4) as u8) << 4;
    for b in &seg.payload {
        out.extend_from_slice(b);
    }

    // Pseudo-header checksum: src, dst, zero/proto, TCP length.
    let mut pseudo = 0u32;
    pseudo += u16::from_be_bytes([src_ip[0], src_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([src_ip[2], src_ip[3]]) as u32;
    pseudo += u16::from_be_bytes([dst_ip[0], dst_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([dst_ip[2], dst_ip[3]]) as u32;
    pseudo += 6; // protocol
    pseudo += (out.len() - start) as u32;
    let cks = ones_complement_sum(&out[start..], pseudo);
    out[start + 16..start + 18].copy_from_slice(&(!cks).to_be_bytes());
}

fn encode_sctp(out: &mut Vec<u8>, p: &SctpPacket) {
    let start = out.len();
    out.extend_from_slice(&p.src_port.to_be_bytes());
    out.extend_from_slice(&p.dst_port.to_be_bytes());
    out.extend_from_slice(&(p.vtag as u32).to_be_bytes());
    out.extend_from_slice(&0u32.to_be_bytes()); // CRC32c placeholder
    for c in &p.chunks {
        encode_chunk(out, c);
    }
    // RFC 4960 Appendix B: compute CRC32c with the checksum field zeroed and
    // transmit the result least-significant byte first.
    let crc = crc32c(&out[start..]);
    out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
}

fn put_chunk_header(out: &mut Vec<u8>, ty: u8, flags: u8, len: u16) {
    out.push(ty);
    out.push(flags);
    out.extend_from_slice(&len.to_be_bytes());
}

fn pad4(out: &mut Vec<u8>, start: usize) {
    while (out.len() - start) % 4 != 0 {
        out.push(0);
    }
}

/// Gap-ack block offsets relative to `cum`, clamped to the RFC's u16.
fn gap_offsets(cum: u64, lo: u64, hi: u64) -> (u16, u16) {
    let start = lo.saturating_sub(cum).min(u16::MAX as u64) as u16;
    let end = (hi - 1).saturating_sub(cum).min(u16::MAX as u64) as u16;
    (start, end)
}

fn encode_chunk(out: &mut Vec<u8>, c: &Chunk) {
    let start = out.len();
    match c {
        Chunk::Data(d) => {
            let mut flags = 0u8;
            if d.end {
                flags |= 0x01;
            }
            if d.begin {
                flags |= 0x02;
            }
            if d.unordered {
                flags |= 0x04;
            }
            put_chunk_header(out, 0, flags, (16 + d.data.len()) as u16);
            out.extend_from_slice(&(d.tsn as u32).to_be_bytes());
            out.extend_from_slice(&d.stream.to_be_bytes());
            out.extend_from_slice(&(d.ssn as u16).to_be_bytes());
            out.extend_from_slice(&d.ppid.to_be_bytes());
            out.extend_from_slice(&d.data);
        }
        Chunk::Sack { cum_tsn, a_rwnd, gaps, dup_count: _ } => {
            put_chunk_header(out, 3, 0, (16 + 4 * gaps.len()) as u16);
            out.extend_from_slice(&(*cum_tsn as u32).to_be_bytes());
            out.extend_from_slice(&((*a_rwnd).min(u32::MAX as u64) as u32).to_be_bytes());
            out.extend_from_slice(&(gaps.len() as u16).to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes()); // dup TSNs carried: none
            for &(lo, hi) in gaps {
                let (s, e) = gap_offsets(*cum_tsn, lo, hi);
                out.extend_from_slice(&s.to_be_bytes());
                out.extend_from_slice(&e.to_be_bytes());
            }
        }
        Chunk::IData(d) => {
            let mut flags = 0u8;
            if d.end {
                flags |= 0x01;
            }
            if d.begin {
                flags |= 0x02;
            }
            if d.unordered {
                flags |= 0x04;
            }
            put_chunk_header(out, 64, flags, (20 + d.data.len()) as u16);
            out.extend_from_slice(&(d.tsn as u32).to_be_bytes());
            out.extend_from_slice(&d.stream.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes()); // reserved
            out.extend_from_slice(&(d.mid as u32).to_be_bytes());
            // RFC 8260 §2.1: the fourth word carries the PPID on the first
            // fragment (B=1, FSN implicitly 0) and the FSN otherwise.
            if d.begin {
                out.extend_from_slice(&d.ppid.to_be_bytes());
            } else {
                out.extend_from_slice(&d.fsn.to_be_bytes());
            }
            out.extend_from_slice(&d.data);
        }
        Chunk::ForwardTsn { new_cum, skips } => {
            // I-FORWARD-TSN (RFC 8260 §2.3.1): new cum TSN + per-stream
            // (sid, reserved, MID) skip entries.
            put_chunk_header(out, 194, 0, (8 + 8 * skips.len()) as u16);
            out.extend_from_slice(&(*new_cum as u32).to_be_bytes());
            for &(sid, mid) in skips {
                out.extend_from_slice(&sid.to_be_bytes());
                out.extend_from_slice(&0u16.to_be_bytes()); // flags/reserved
                out.extend_from_slice(&(mid as u32).to_be_bytes());
            }
        }
        Chunk::Init { init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags } => {
            let len = 20 + if *ext_flags != 0 { 8 } else { 0 };
            put_chunk_header(out, 1, 0, len);
            put_init_body(out, *init_tag, *a_rwnd, *out_streams, *in_streams, *init_tsn);
            put_ext_param(out, *ext_flags);
        }
        Chunk::InitAck { init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags, cookie } => {
            let len = 96 + if *ext_flags != 0 { 8 } else { 0 };
            put_chunk_header(out, 2, 0, len);
            put_init_body(out, *init_tag, *a_rwnd, *out_streams, *in_streams, *init_tsn);
            put_ext_param(out, *ext_flags);
            // State cookie parameter: 4-byte header + 72-byte padded value.
            out.extend_from_slice(&7u16.to_be_bytes());
            out.extend_from_slice(&76u16.to_be_bytes());
            let vstart = out.len();
            put_cookie(out, cookie);
            while out.len() - vstart < 72 {
                out.push(0);
            }
        }
        Chunk::CookieEcho { cookie } => {
            put_chunk_header(out, 10, 0, 80);
            let vstart = out.len();
            put_cookie(out, cookie);
            while out.len() - vstart < 76 {
                out.push(0);
            }
        }
        Chunk::CookieAck => put_chunk_header(out, 11, 0, 4),
        Chunk::Heartbeat { path, nonce } => {
            put_chunk_header(out, 4, 0, 12);
            put_hb_info(out, *path, *nonce);
        }
        Chunk::HeartbeatAck { path, nonce } => {
            put_chunk_header(out, 5, 0, 12);
            put_hb_info(out, *path, *nonce);
        }
        Chunk::Shutdown { cum_tsn } => {
            put_chunk_header(out, 7, 0, 8);
            out.extend_from_slice(&(*cum_tsn as u32).to_be_bytes());
        }
        Chunk::ShutdownAck => put_chunk_header(out, 8, 0, 4),
        Chunk::ShutdownComplete => put_chunk_header(out, 14, 0, 4),
        Chunk::Abort => put_chunk_header(out, 6, 0, 4),
    }
    pad4(out, start);
}

fn put_init_body(out: &mut Vec<u8>, init_tag: u64, a_rwnd: u64, out_streams: u16, in_streams: u16, init_tsn: u64) {
    out.extend_from_slice(&(init_tag as u32).to_be_bytes());
    out.extend_from_slice(&(a_rwnd.min(u32::MAX as u64) as u32).to_be_bytes());
    out.extend_from_slice(&out_streams.to_be_bytes());
    out.extend_from_slice(&in_streams.to_be_bytes());
    out.extend_from_slice(&(init_tsn as u32).to_be_bytes());
}

/// Supported-extensions parameter (type 0x8008): the offered extension
/// bitmask in one value byte, padded to the 8 bytes the model charges.
/// Omitted entirely when no extensions are offered (legacy wire size).
fn put_ext_param(out: &mut Vec<u8>, ext_flags: u8) {
    if ext_flags == 0 {
        return;
    }
    out.extend_from_slice(&0x8008u16.to_be_bytes());
    out.extend_from_slice(&5u16.to_be_bytes());
    out.push(ext_flags);
    out.extend_from_slice(&[0, 0, 0]); // pad to a 4-byte boundary
}

/// Heartbeat info parameter (type 1): the nonce, truncated to 4 bytes —
/// enough for the dissector; `path` is implicit in the addresses.
fn put_hb_info(out: &mut Vec<u8>, _path: u8, nonce: u64) {
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&8u16.to_be_bytes());
    out.extend_from_slice(&(nonce as u32).to_be_bytes());
}

/// The cookie's 66-byte field serialization (padded by callers to the
/// modelled [`crate::sctp::wire::COOKIE_WIRE_LEN`]).
fn put_cookie(out: &mut Vec<u8>, c: &Cookie) {
    out.extend_from_slice(&c.peer_host.to_be_bytes());
    out.extend_from_slice(&c.peer_port.to_be_bytes());
    out.extend_from_slice(&c.local_port.to_be_bytes());
    out.extend_from_slice(&c.peer_tag.to_be_bytes());
    out.extend_from_slice(&c.local_tag.to_be_bytes());
    out.extend_from_slice(&c.peer_rwnd.to_be_bytes());
    out.extend_from_slice(&c.peer_init_tsn.to_be_bytes());
    out.extend_from_slice(&c.my_init_tsn.to_be_bytes());
    out.extend_from_slice(&c.out_streams.to_be_bytes());
    out.extend_from_slice(&c.in_streams.to_be_bytes());
    out.extend_from_slice(&c.created_at.as_nanos().to_be_bytes());
    out.extend_from_slice(&c.mac.to_be_bytes());
    // Negotiated extension set, packed into what used to be padding (after
    // the mac, so every pre-extension field keeps its offset and legacy
    // frames — zero padding here — decode to ext_flags 0).
    out.push(c.ext_flags);
}

// ---------------------------------------------------------------------------
// Decoding (ingress path of the real-socket backend)
// ---------------------------------------------------------------------------

/// Why a received frame failed to parse. Ingress drops carry this so the
/// live backend can count (and a test can assert) the reject reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than a header or a declared length.
    Truncated,
    /// Not IPv4 with a 20-byte header (the only shape this module emits).
    BadIpHeader,
    /// IP header checksum did not validate.
    BadIpChecksum,
    /// Source or destination address outside the simulator's 10.x/8 plan.
    BadAddress,
    /// IP protocol number is neither TCP (6) nor SCTP (132).
    UnknownProto(u8),
    /// SCTP CRC32c mismatch: (stored, computed).
    BadCrc(u32, u32),
    /// TCP ones-complement checksum did not validate.
    BadTcpChecksum,
    /// Unknown or malformed SCTP chunk of this type.
    BadChunk(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::BadIpHeader => write!(f, "not a plain IPv4 header"),
            DecodeError::BadIpChecksum => write!(f, "IP header checksum mismatch"),
            DecodeError::BadAddress => write!(f, "address outside the 10.x/8 plan"),
            DecodeError::UnknownProto(p) => write!(f, "unknown IP protocol {p}"),
            DecodeError::BadCrc(s, c) => {
                write!(f, "SCTP CRC32c mismatch: stored {s:#010x}, computed {c:#010x}")
            }
            DecodeError::BadTcpChecksum => write!(f, "TCP checksum mismatch"),
            DecodeError::BadChunk(t) => write!(f, "bad SCTP chunk type {t}"),
        }
    }
}

/// Invert [`host_ip`]: recover `(host, iface)` from a capture address.
pub fn addr_of_ip(ip: [u8; 4]) -> Result<IfAddr, DecodeError> {
    if ip[0] != 10 {
        return Err(DecodeError::BadAddress);
    }
    Ok(IfAddr::new(((ip[2] as u16) << 8) | ip[3] as u16, ip[1]))
}

fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn be64(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes([
        b[at], b[at + 1], b[at + 2], b[at + 3], b[at + 4], b[at + 5], b[at + 6], b[at + 7],
    ])
}

/// Parse a full IPv4 frame (as produced by [`encode_packet`]) back into a
/// [`Packet`], verifying every checksum on the way. Snapped captures do not
/// decode — the frame must carry its full declared length.
///
/// The frame is copied once into a fresh buffer and handed to
/// [`decode_frame`]; the live ingress path skips this copy's per-frame
/// allocation by decoding slices of one copied receive train instead.
pub fn decode_packet(frame: &[u8]) -> Result<Packet, DecodeError> {
    decode_frame(&Bytes::copy_from_slice(frame), &mut Pools::default())
}

/// [`decode_packet`] over a frame already in a shared buffer: DATA, I-DATA
/// and TCP payloads come back as [`Bytes::slice`]s of `frame`, not copies,
/// and the chunk bundle, gap-ack / SACK block lists and TCP payload list
/// are taken from `pool` (the engines retire them there after input).
pub fn decode_frame(frame: &Bytes, pool: &mut Pools) -> Result<Packet, DecodeError> {
    if frame.len() < IP_HEADER as usize {
        return Err(DecodeError::Truncated);
    }
    if frame[0] != 0x45 {
        return Err(DecodeError::BadIpHeader);
    }
    if be16(frame, 2) as usize != frame.len() {
        return Err(DecodeError::Truncated);
    }
    if ones_complement_sum(&frame[..IP_HEADER as usize], 0) != 0xFFFF {
        return Err(DecodeError::BadIpChecksum);
    }
    let src_ip = [frame[12], frame[13], frame[14], frame[15]];
    let dst_ip = [frame[16], frame[17], frame[18], frame[19]];
    let src = addr_of_ip(src_ip)?;
    let dst = addr_of_ip(dst_ip)?;
    let body = match frame[9] {
        6 => Proto::Tcp(decode_tcp(frame, src_ip, dst_ip, pool)?),
        132 => {
            let mut p = decode_sctp(frame, pool)?;
            // The heartbeat `path` index is not on the wire ("implicit in
            // the addresses"): path i runs over interface i on both ends,
            // so the sending interface recovers it.
            for c in &mut p.chunks {
                match c {
                    Chunk::Heartbeat { path, .. } | Chunk::HeartbeatAck { path, .. } => {
                        *path = src.iface;
                    }
                    _ => {}
                }
            }
            Proto::Sctp(p)
        }
        other => return Err(DecodeError::UnknownProto(other)),
    };
    Ok(Packet { src, dst, body })
}

/// Parse the SCTP packet (common header + chunks) after `frame`'s IP
/// header, verifying the CRC32c stored per RFC 4960 Appendix B
/// (little-endian, computed with the checksum field zeroed) before any
/// chunk is parsed.
fn decode_sctp(frame: &Bytes, pool: &mut Pools) -> Result<SctpPacket, DecodeError> {
    let b = &frame[IP_HEADER as usize..];
    if b.len() < 12 {
        return Err(DecodeError::Truncated);
    }
    let stored = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
    // The checksum covers the packet with its own field zeroed: fold the
    // header, four zero bytes, then the chunks, without copying the packet.
    let mut crc = Crc32c::new();
    crc.update(&b[..8]);
    crc.update(&[0; 4]);
    crc.update(&b[12..]);
    let computed = crc.finalize();
    if stored != computed {
        return Err(DecodeError::BadCrc(stored, computed));
    }
    let mut chunks = pool.take_chunk_vec();
    if let Err(e) = decode_chunks(frame, pool, &mut chunks) {
        pool.put_chunk_vec(chunks);
        return Err(e);
    }
    Ok(SctpPacket { src_port: be16(b, 0), dst_port: be16(b, 2), vtag: be32(b, 4) as u64, chunks })
}

/// Append every chunk after `frame`'s SCTP common header to `out`.
fn decode_chunks(frame: &Bytes, pool: &mut Pools, out: &mut Vec<Chunk>) -> Result<(), DecodeError> {
    let mut off = IP_HEADER as usize + 12;
    while off < frame.len() {
        if off + 4 > frame.len() {
            return Err(DecodeError::Truncated);
        }
        let ty = frame[off];
        let flags = frame[off + 1];
        let len = be16(frame, off + 2) as usize;
        if len < 4 || off + len > frame.len() {
            return Err(DecodeError::Truncated);
        }
        out.push(decode_chunk(ty, flags, frame, off + 4..off + len, pool)?);
        off += len.div_ceil(4) * 4;
    }
    Ok(())
}

/// Decode the chunk whose value is `frame[at]`; a DATA or I-DATA payload is
/// a slice of `frame`.
fn decode_chunk(ty: u8, flags: u8, frame: &Bytes, at: Range<usize>, pool: &mut Pools) -> Result<Chunk, DecodeError> {
    let v = &frame[at.clone()];
    let short = || DecodeError::BadChunk(ty);
    Ok(match ty {
        0 => {
            if v.len() < 12 {
                return Err(short());
            }
            Chunk::Data(DataChunk {
                tsn: be32(v, 0) as u64,
                stream: be16(v, 4),
                ssn: be16(v, 6) as u32,
                ppid: be32(v, 8),
                begin: flags & 0x02 != 0,
                end: flags & 0x01 != 0,
                unordered: flags & 0x04 != 0,
                data: frame.slice(at.start + 12..at.end),
            })
        }
        3 => {
            if v.len() < 12 {
                return Err(short());
            }
            let cum_tsn = be32(v, 0) as u64;
            let ngaps = be16(v, 8) as usize;
            if v.len() < 12 + 4 * ngaps {
                return Err(short());
            }
            let mut gaps = pool.take_gap_vec();
            gaps.extend((0..ngaps).map(|i| {
                let s = be16(v, 12 + 4 * i) as u64;
                let e = be16(v, 14 + 4 * i) as u64;
                (cum_tsn + s, cum_tsn + e + 1)
            }));
            // The wire carries the number of duplicate-TSN entries (the
            // encoder writes none); the model's "duplicates seen since the
            // last SACK" count decodes to its neutral zero.
            Chunk::Sack { cum_tsn, a_rwnd: be32(v, 4) as u64, gaps, dup_count: 0 }
        }
        1 => {
            if v.len() < 16 {
                return Err(short());
            }
            let (init_tag, a_rwnd, out_streams, in_streams, init_tsn) = decode_init_body(v);
            let ext_flags = decode_ext_param(v, 16);
            Chunk::Init { init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags }
        }
        2 => {
            // INIT body + optional supported-extensions parameter + the
            // state-cookie parameter (type 7).
            if v.len() < 16 {
                return Err(short());
            }
            let (init_tag, a_rwnd, out_streams, in_streams, init_tsn) = decode_init_body(v);
            let ext_flags = decode_ext_param(v, 16);
            let coff = if ext_flags != 0 { 24 } else { 16 };
            if v.len() < coff + 4 + COOKIE_BYTES || be16(v, coff) != 7 {
                return Err(short());
            }
            let cookie = decode_cookie(&v[coff + 4..coff + 4 + COOKIE_BYTES]);
            Chunk::InitAck { init_tag, a_rwnd, out_streams, in_streams, init_tsn, ext_flags, cookie }
        }
        10 => {
            if v.len() < COOKIE_BYTES {
                return Err(short());
            }
            Chunk::CookieEcho { cookie: decode_cookie(&v[..COOKIE_BYTES]) }
        }
        11 => Chunk::CookieAck,
        4 | 5 => {
            // Heartbeat info parameter: the nonce, u32 on the wire. The
            // path index is fixed up from the addressing by the caller.
            if v.len() < 8 || be16(v, 0) != 1 {
                return Err(short());
            }
            let nonce = be32(v, 4) as u64;
            if ty == 4 {
                Chunk::Heartbeat { path: 0, nonce }
            } else {
                Chunk::HeartbeatAck { path: 0, nonce }
            }
        }
        7 => {
            if v.len() < 4 {
                return Err(short());
            }
            Chunk::Shutdown { cum_tsn: be32(v, 0) as u64 }
        }
        8 => Chunk::ShutdownAck,
        14 => Chunk::ShutdownComplete,
        6 => Chunk::Abort,
        64 => {
            if v.len() < 16 {
                return Err(short());
            }
            let begin = flags & 0x02 != 0;
            let slot = be32(v, 12);
            Chunk::IData(IDataChunk {
                tsn: be32(v, 0) as u64,
                stream: be16(v, 4),
                mid: be32(v, 8) as u64,
                // The shared word: PPID on the B fragment (whose FSN is 0
                // by definition), FSN elsewhere (whose PPID rides on the B
                // fragment) — each decodes to its neutral value otherwise.
                fsn: if begin { 0 } else { slot },
                ppid: if begin { slot } else { 0 },
                begin,
                end: flags & 0x01 != 0,
                unordered: flags & 0x04 != 0,
                data: frame.slice(at.start + 16..at.end),
            })
        }
        194 => {
            if v.len() < 4 || (v.len() - 4) % 8 != 0 {
                return Err(short());
            }
            let new_cum = be32(v, 0) as u64;
            let skips = (0..(v.len() - 4) / 8)
                .map(|i| (be16(v, 4 + 8 * i), be32(v, 8 + 8 * i) as u64))
                .collect();
            Chunk::ForwardTsn { new_cum, skips }
        }
        other => return Err(DecodeError::BadChunk(other)),
    })
}

/// Parse a supported-extensions parameter (type 0x8008) at `off`, if
/// present; absent (legacy frame) decodes to no extensions.
fn decode_ext_param(v: &[u8], off: usize) -> u8 {
    if v.len() >= off + 8 && be16(v, off) == 0x8008 && be16(v, off + 2) == 5 {
        v[off + 4]
    } else {
        0
    }
}

fn decode_init_body(v: &[u8]) -> (u64, u64, u16, u16, u64) {
    (be32(v, 0) as u64, be32(v, 4) as u64, be16(v, 8), be16(v, 10), be32(v, 12) as u64)
}

/// Bytes [`put_cookie`] writes before padding: every field full-width, so
/// the cookie (and its MAC) round-trips exactly.
const COOKIE_BYTES: usize = 67;

fn decode_cookie(v: &[u8]) -> Cookie {
    debug_assert!(v.len() >= COOKIE_BYTES);
    Cookie {
        ext_flags: v[66],
        peer_host: be16(v, 0),
        peer_port: be16(v, 2),
        local_port: be16(v, 4),
        peer_tag: be64(v, 6),
        local_tag: be64(v, 14),
        peer_rwnd: be64(v, 22),
        peer_init_tsn: be64(v, 30),
        my_init_tsn: be64(v, 38),
        out_streams: be16(v, 46),
        in_streams: be16(v, 48),
        created_at: simcore::SimTime::from_nanos(be64(v, 50)),
        mac: be64(v, 58),
    }
}

/// Parse the TCP segment after `frame`'s IP header, verifying the
/// ones-complement checksum over the pseudo-header. Fields the wire cannot
/// carry come back neutral: `probe` is false, the payload arrives as one
/// contiguous slice of `frame`.
fn decode_tcp(frame: &Bytes, src_ip: [u8; 4], dst_ip: [u8; 4], pool: &mut Pools) -> Result<TcpSegment, DecodeError> {
    let b = &frame[IP_HEADER as usize..];
    if b.len() < 20 {
        return Err(DecodeError::Truncated);
    }
    let mut pseudo = 0u32;
    pseudo += u16::from_be_bytes([src_ip[0], src_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([src_ip[2], src_ip[3]]) as u32;
    pseudo += u16::from_be_bytes([dst_ip[0], dst_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([dst_ip[2], dst_ip[3]]) as u32;
    pseudo += 6 + b.len() as u32;
    if ones_complement_sum(b, pseudo) != 0xFFFF {
        return Err(DecodeError::BadTcpChecksum);
    }
    let header_len = (b[12] >> 4) as usize * 4;
    if header_len < 20 || header_len > b.len() {
        return Err(DecodeError::Truncated);
    }
    let wire_flags = b[13];
    let mut flags = Flags::EMPTY;
    if wire_flags & 0x01 != 0 {
        flags = flags | Flags::FIN;
    }
    if wire_flags & 0x02 != 0 {
        flags = flags | Flags::SYN;
    }
    if wire_flags & 0x04 != 0 {
        flags = flags | Flags::RST;
    }
    if wire_flags & 0x10 != 0 {
        flags = flags | Flags::ACK;
    }
    let mut sack = pool.take_gap_vec();
    let opts = &b[20..header_len];
    let mut i = 0usize;
    while i < opts.len() {
        match opts[i] {
            0 => break,    // end of options
            1 => i += 1,   // NOP
            kind => {
                if i + 1 >= opts.len() {
                    pool.put_gap_vec(sack);
                    return Err(DecodeError::Truncated);
                }
                let olen = opts[i + 1] as usize;
                if olen < 2 || i + olen > opts.len() {
                    pool.put_gap_vec(sack);
                    return Err(DecodeError::Truncated);
                }
                if kind == 5 {
                    let blocks = &opts[i + 2..i + olen];
                    for w in blocks.chunks_exact(8) {
                        sack.push((be32(w, 0) as u64, be32(w, 4) as u64));
                    }
                }
                i += olen;
            }
        }
    }
    let payload_len = (b.len() - header_len) as u32;
    let mut payload = pool.take_bytes_vec();
    if payload_len > 0 {
        payload.push(frame.slice(IP_HEADER as usize + header_len..));
    }
    Ok(TcpSegment {
        src_port: be16(b, 0),
        dst_port: be16(b, 2),
        flags,
        seq: be32(b, 4) as u64,
        ack: be32(b, 8) as u64,
        wnd: be16(b, 14) as u64,
        sack,
        probe: false,
        payload,
        payload_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::IfAddr;
    use crate::sctp::DataChunk;

    fn sctp_packet() -> Packet {
        Packet {
            src: IfAddr::new(0, 1),
            dst: IfAddr::new(3, 1),
            body: Proto::Sctp(SctpPacket {
                src_port: 5600,
                dst_port: 5600,
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
                    Chunk::Sack { cum_tsn: 41, a_rwnd: 220 * 1024, gaps: vec![(44, 46)], dup_count: 1 },
                ],
            }),
        }
    }

    #[test]
    fn sctp_frame_layout_and_lengths() {
        let pkt = sctp_packet();
        let frame = encode_packet(&pkt, 5_000_000);
        // IPv4 header.
        assert_eq!(frame[0], 0x45);
        assert_eq!(frame[9], 132, "IP proto = SCTP");
        assert_eq!(&frame[12..16], &[10, 1, 0, 0], "src 10.1.0.0");
        assert_eq!(&frame[16..20], &[10, 1, 0, 3], "dst 10.1.0.3");
        assert_eq!(
            u16::from_be_bytes([frame[2], frame[3]]) as usize,
            frame.len(),
            "IP total length matches"
        );
        // SCTP common header at offset 20.
        assert_eq!(u16::from_be_bytes([frame[20], frame[21]]), 5600);
        assert_eq!(u32::from_be_bytes([frame[24], frame[25], frame[26], frame[27]]), 0xDEAD_BEEF);
        // Chunk sizes: DATA 16 + 11 = 27 padded 28; SACK 16 + 4 = 20.
        let body = &pkt.body;
        assert_eq!(frame.len() as u32, IP_HEADER + body_wire_len(body));
        // DATA chunk header at offset 32: type 0, flags B=0x02.
        assert_eq!(frame[32], 0);
        assert_eq!(frame[33], 0x02);
        assert_eq!(u16::from_be_bytes([frame[34], frame[35]]), 27, "unpadded chunk length");
        // SACK at 32 + 28 = 60: type 3, one gap block [3, 4] rel cum 41.
        assert_eq!(frame[60], 3);
        assert_eq!(u32::from_be_bytes([frame[64], frame[65], frame[66], frame[67]]), 41, "cum TSN");
        assert_eq!(u16::from_be_bytes([frame[72], frame[73]]), 1, "one gap block");
        assert_eq!(u16::from_be_bytes([frame[76], frame[77]]), 3, "gap start offset");
        assert_eq!(u16::from_be_bytes([frame[78], frame[79]]), 4, "gap end offset");
    }

    fn body_wire_len(b: &Proto) -> u32 {
        match b {
            Proto::Tcp(s) => s.wire_len(),
            Proto::Sctp(p) => p.wire_len(),
        }
    }

    #[test]
    fn sctp_crc32c_round_trips() {
        // The stored checksum must equal crc32c over the SCTP bytes with the
        // checksum field zeroed — the round-trip the satellite task pins to
        // `transport/src/crc32c.rs`.
        let frame = encode_packet(&sctp_packet(), 0);
        let sctp = &frame[IP_HEADER as usize..];
        let stored = u32::from_le_bytes([sctp[8], sctp[9], sctp[10], sctp[11]]);
        let mut zeroed = sctp.to_vec();
        zeroed[8..12].fill(0);
        assert_eq!(stored, crc32c(&zeroed));
        // And it is a real CRC: flipping any byte breaks it.
        zeroed[0] ^= 0xFF;
        assert_ne!(stored, crc32c(&zeroed));
    }

    /// The 16-bit big-endian loop the word-wide sum replaced: the oracle.
    fn ones_complement_sum_by_u16(data: &[u8], init: u32) -> u16 {
        let mut sum = init;
        let mut chunks = data.chunks_exact(2);
        for w in &mut chunks {
            sum += u16::from_be_bytes([w[0], w[1]]) as u32;
        }
        if let [b] = chunks.remainder() {
            sum += (*b as u32) << 8;
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum as u16
    }

    #[test]
    fn ones_complement_sum_matches_rfc1071_example() {
        // RFC 1071 §3: 0001 + f203 + f4f5 + f6f7 = 2ddf0, folded ddf2.
        assert_eq!(ones_complement_sum(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7], 0), 0xddf2);
    }

    #[test]
    fn word_wide_sum_matches_the_u16_loop() {
        let mut x: u32 = 0x9E37_79B9;
        let noise: Vec<u8> = (0..1600 + 4)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        // All-zero and all-ones data hit the fold's 0 / 0xFFFF edges.
        for backing in [noise, vec![0u8; 1604], vec![0xFFu8; 1604]] {
            for align in 0..4 {
                for len in 0..=1600 {
                    let data = &backing[align..align + len];
                    for init in [0, 0xFFFF, 0x2_FFFD] {
                        assert_eq!(
                            ones_complement_sum(data, init),
                            ones_complement_sum_by_u16(data, init),
                            "align={align} len={len} init={init:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ip_header_checksum_is_valid() {
        let frame = encode_packet(&sctp_packet(), 0);
        // Summing the full header including the stored checksum yields 0xFFFF.
        assert_eq!(ones_complement_sum(&frame[..20], 0), 0xFFFF);
    }

    #[test]
    fn tcp_frame_checksum_and_options() {
        let seg = TcpSegment {
            src_port: 5700,
            dst_port: 5700,
            flags: Flags::ACK,
            seq: 1000,
            ack: 2000,
            wnd: 220 * 1024, // larger than u16: clamps on the wire
            sack: vec![(3000, 4460)],
            probe: false,
            payload: vec![Bytes::from_static(&[0xAB; 16])],
            payload_len: 16,
        };
        let pkt = Packet { src: IfAddr::new(1, 0), dst: IfAddr::new(2, 0), body: Proto::Tcp(seg) };
        let frame = encode_packet(&pkt, 12_000_000);
        assert_eq!(frame[9], 6, "IP proto = TCP");
        let tcp = &frame[20..];
        assert_eq!(u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]), 1000);
        let header_len = (tcp[12] >> 4) as usize * 4;
        // 20 base + 12 ts + (2 NOP + 10 sack) = 44.
        assert_eq!(header_len, 44);
        assert_eq!(tcp[13] & 0x10, 0x10, "ACK set");
        assert_eq!(u16::from_be_bytes([tcp[14], tcp[15]]), u16::MAX, "window clamped");
        // Verify the transport checksum over the pseudo-header.
        let src_ip = [10, 0, 0, 1];
        let dst_ip = [10, 0, 0, 2];
        let mut pseudo = 0u32;
        pseudo += u16::from_be_bytes([src_ip[0], src_ip[1]]) as u32;
        pseudo += u16::from_be_bytes([src_ip[2], src_ip[3]]) as u32;
        pseudo += u16::from_be_bytes([dst_ip[0], dst_ip[1]]) as u32;
        pseudo += u16::from_be_bytes([dst_ip[2], dst_ip[3]]) as u32;
        pseudo += 6 + tcp.len() as u32;
        assert_eq!(ones_complement_sum(tcp, pseudo), 0xFFFF, "checksum validates");
    }

    #[test]
    fn meta_classifies_packets() {
        let (proto, kind, tsn, ntsn, stream) = pkt_meta(&sctp_packet().body);
        assert_eq!(proto, trace::Proto8::Sctp);
        assert_eq!(kind, trace::PktKind::Data);
        assert_eq!((tsn, ntsn, stream), (42, 1, 3));

        let ack = Proto::Tcp(TcpSegment {
            src_port: 1,
            dst_port: 1,
            flags: Flags::ACK,
            seq: 0,
            ack: 10,
            wnd: 1000,
            sack: vec![],
            probe: false,
            payload: vec![],
            payload_len: 0,
        });
        let (proto, kind, ..) = pkt_meta(&ack);
        assert_eq!(proto, trace::Proto8::Tcp);
        assert_eq!(kind, trace::PktKind::Ack);
    }

    #[test]
    fn capture_snaps_but_reports_full_length() {
        let pkt = sctp_packet();
        let full = encode_packet(&pkt, 0).len() as u32;
        let (frame, orig) = capture_frame(&pkt, 0, 40);
        assert_eq!(frame.len(), 40);
        assert_eq!(orig, full);
    }

    #[test]
    fn sctp_decode_inverts_encode() {
        let pkt = sctp_packet();
        let frame = encode_packet(&pkt, 5_000_000);
        let back = decode_packet(&frame).expect("own frames must decode");
        assert_eq!(back.src, IfAddr::new(0, 1));
        assert_eq!(back.dst, IfAddr::new(3, 1));
        let Proto::Sctp(p) = &back.body else { panic!("proto flipped") };
        assert_eq!((p.src_port, p.dst_port, p.vtag), (5600, 5600, 0xDEAD_BEEF));
        assert_eq!(p.chunks.len(), 2);
        let Chunk::Data(d) = &p.chunks[0] else { panic!("DATA first") };
        assert_eq!((d.tsn, d.stream, d.ssn, d.ppid), (42, 3, 7, 9));
        assert!(d.begin && !d.end && !d.unordered);
        assert_eq!(&d.data[..], b"hello world");
        let Chunk::Sack { cum_tsn, a_rwnd, gaps, dup_count } = &p.chunks[1] else {
            panic!("SACK second")
        };
        assert_eq!((*cum_tsn, *a_rwnd, *dup_count), (41, 220 * 1024, 0));
        assert_eq!(gaps, &vec![(44, 46)], "absolute [start, end) reconstructed from offsets");
        // Byte-level: re-encoding the decoded packet reproduces the frame.
        assert_eq!(encode_packet(&back, 5_000_000), frame);
    }

    #[test]
    fn corrupted_crc_is_rejected() {
        // Golden regression for the ingress reject path: flip one payload
        // byte (IP header checksum still validates — it covers only the
        // header) and the SCTP CRC32c must catch it.
        let mut frame = encode_packet(&sctp_packet(), 0);
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        match decode_packet(&frame) {
            Err(DecodeError::BadCrc(stored, computed)) => assert_ne!(stored, computed),
            other => panic!("corrupt frame must be rejected with BadCrc, got {other:?}"),
        }
        // And un-flipping restores decodability.
        frame[last] ^= 0x01;
        assert!(decode_packet(&frame).is_ok());
    }

    #[test]
    fn corrupted_ip_header_is_rejected() {
        let mut frame = encode_packet(&sctp_packet(), 0);
        frame[8] ^= 0x10; // TTL
        assert_eq!(decode_packet(&frame).unwrap_err(), DecodeError::BadIpChecksum);
    }

    #[test]
    fn tcp_decode_inverts_encode() {
        let seg = TcpSegment {
            src_port: 5700,
            dst_port: 5701,
            flags: Flags::ACK,
            seq: 1000,
            ack: 2000,
            wnd: 30_000,
            sack: vec![(3000, 4460), (6000, 7448)],
            probe: false,
            payload: vec![Bytes::from_static(&[0xAB; 7]), Bytes::from_static(&[0xCD; 9])],
            payload_len: 16,
        };
        let pkt = Packet { src: IfAddr::new(1, 0), dst: IfAddr::new(2, 0), body: Proto::Tcp(seg) };
        let frame = encode_packet(&pkt, 12_000_000);
        let back = decode_packet(&frame).expect("own frames must decode");
        let Proto::Tcp(s) = &back.body else { panic!("proto flipped") };
        assert_eq!((s.src_port, s.dst_port), (5700, 5701));
        assert_eq!((s.seq, s.ack, s.wnd), (1000, 2000, 30_000));
        assert_eq!(s.sack, vec![(3000, 4460), (6000, 7448)]);
        assert_eq!(s.payload_len, 16, "split payload slices merge on decode");
        assert_eq!(encode_packet(&back, 12_000_000), frame, "re-encode is byte-identical");
    }

    #[test]
    fn corrupted_tcp_checksum_is_rejected() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            flags: Flags::SYN,
            seq: 0,
            ack: 0,
            wnd: 1000,
            sack: vec![],
            probe: false,
            payload: vec![],
            payload_len: 0,
        };
        let pkt = Packet { src: IfAddr::new(0, 0), dst: IfAddr::new(1, 0), body: Proto::Tcp(seg) };
        let mut frame = encode_packet(&pkt, 0);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert_eq!(decode_packet(&frame).unwrap_err(), DecodeError::BadTcpChecksum);
    }

    #[test]
    fn addr_mapping_inverts() {
        for (host, iface) in [(0u16, 0u8), (7, 2), (300, 1), (65535, 255)] {
            assert_eq!(addr_of_ip(host_ip(host, iface)), Ok(IfAddr::new(host, iface)));
        }
        assert_eq!(addr_of_ip([192, 168, 0, 1]), Err(DecodeError::BadAddress));
    }

    #[test]
    fn heartbeat_path_recovered_from_addresses() {
        let pkt = Packet {
            src: IfAddr::new(2, 1),
            dst: IfAddr::new(5, 1),
            body: Proto::Sctp(SctpPacket {
                src_port: 7000,
                dst_port: 7000,
                vtag: 77,
                chunks: vec![Chunk::Heartbeat { path: 1, nonce: 0xFEED_FACE }],
            }),
        };
        let back = decode_packet(&encode_packet(&pkt, 0)).unwrap();
        let Proto::Sctp(p) = &back.body else { panic!() };
        let Chunk::Heartbeat { path, nonce } = &p.chunks[0] else { panic!() };
        assert_eq!((*path, *nonce), (1, 0xFEED_FACE));
    }

    #[test]
    fn idata_and_forward_tsn_round_trip() {
        let pkt = Packet {
            src: IfAddr::new(0, 0),
            dst: IfAddr::new(1, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 5600,
                dst_port: 5600,
                vtag: 7,
                chunks: vec![
                    Chunk::IData(IDataChunk {
                        tsn: 100,
                        stream: 2,
                        mid: 5,
                        fsn: 0,
                        begin: true,
                        end: false,
                        unordered: false,
                        ppid: 0xC0FE,
                        data: Bytes::from_static(b"first"),
                    }),
                    Chunk::IData(IDataChunk {
                        tsn: 101,
                        stream: 2,
                        mid: 5,
                        fsn: 1,
                        begin: false,
                        end: true,
                        unordered: false,
                        ppid: 0, // non-B fragment: PPID rides on the wire's B fragment
                        data: Bytes::from_static(b"second"),
                    }),
                    Chunk::ForwardTsn { new_cum: 99, skips: vec![(2, 4), (5, 0)] },
                ],
            }),
        };
        let frame = encode_packet(&pkt, 0);
        let back = decode_packet(&frame).expect("own frames must decode");
        let Proto::Sctp(p) = &back.body else { panic!("proto flipped") };
        let Chunk::IData(b) = &p.chunks[0] else { panic!("I-DATA first") };
        assert_eq!((b.tsn, b.stream, b.mid, b.fsn, b.ppid), (100, 2, 5, 0, 0xC0FE));
        assert!(b.begin && !b.end);
        let Chunk::IData(e) = &p.chunks[1] else { panic!("I-DATA second") };
        assert_eq!((e.tsn, e.mid, e.fsn, e.ppid), (101, 5, 1, 0));
        assert!(!e.begin && e.end);
        assert_eq!(&e.data[..], b"second");
        let Chunk::ForwardTsn { new_cum, skips } = &p.chunks[2] else { panic!("FWD-TSN third") };
        assert_eq!((*new_cum, skips.as_slice()), (99, &[(2u16, 4u64), (5, 0)][..]));
        assert_eq!(encode_packet(&back, 0), frame, "re-encode is byte-identical");
        // The serialized sizes match the model's accounting.
        assert_eq!(frame.len() as u32, IP_HEADER + body_wire_len(&pkt.body));
    }

    #[test]
    fn ext_handshake_round_trips() {
        use crate::sctp::{EXT_INTERLEAVE, EXT_PR_SCTP};
        let cookie = Cookie {
            peer_host: 0,
            peer_port: 5600,
            local_port: 5600,
            peer_tag: 11,
            local_tag: 22,
            peer_rwnd: 1 << 16,
            peer_init_tsn: 1,
            my_init_tsn: 1,
            out_streams: 10,
            in_streams: 10,
            created_at: simcore::SimTime::from_nanos(5),
            ext_flags: EXT_INTERLEAVE | EXT_PR_SCTP,
            mac: 0xFACE,
        };
        let pkt = Packet {
            src: IfAddr::new(1, 0),
            dst: IfAddr::new(0, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 5600,
                dst_port: 5600,
                vtag: 11,
                chunks: vec![
                    Chunk::Init {
                        init_tag: 1,
                        a_rwnd: 1 << 16,
                        out_streams: 10,
                        in_streams: 10,
                        init_tsn: 1,
                        ext_flags: EXT_INTERLEAVE,
                    },
                    Chunk::InitAck {
                        init_tag: 2,
                        a_rwnd: 1 << 16,
                        out_streams: 10,
                        in_streams: 10,
                        init_tsn: 1,
                        ext_flags: EXT_INTERLEAVE | EXT_PR_SCTP,
                        cookie,
                    },
                    Chunk::CookieEcho { cookie },
                ],
            }),
        };
        let frame = encode_packet(&pkt, 0);
        let back = decode_packet(&frame).expect("own frames must decode");
        let Proto::Sctp(p) = &back.body else { panic!() };
        let Chunk::Init { ext_flags, .. } = &p.chunks[0] else { panic!("INIT first") };
        assert_eq!(*ext_flags, EXT_INTERLEAVE);
        let Chunk::InitAck { ext_flags, cookie: c2, .. } = &p.chunks[1] else { panic!() };
        assert_eq!(*ext_flags, EXT_INTERLEAVE | EXT_PR_SCTP);
        assert_eq!(*c2, cookie, "cookie round-trips including ext_flags and mac");
        let Chunk::CookieEcho { cookie: c3 } = &p.chunks[2] else { panic!() };
        assert_eq!(*c3, cookie);
        assert_eq!(encode_packet(&back, 0), frame);
        assert_eq!(frame.len() as u32, IP_HEADER + body_wire_len(&pkt.body));
    }

    #[test]
    fn legacy_handshake_wire_size_unchanged() {
        // ext_flags = 0 emits no supported-extensions parameter: the frame
        // is byte-for-byte the pre-extension encoding.
        let pkt = Packet {
            src: IfAddr::new(1, 0),
            dst: IfAddr::new(0, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 5600,
                dst_port: 5600,
                vtag: 0,
                chunks: vec![Chunk::Init {
                    init_tag: 1,
                    a_rwnd: 1 << 16,
                    out_streams: 10,
                    in_streams: 10,
                    init_tsn: 1,
                    ext_flags: 0,
                }],
            }),
        };
        let frame = encode_packet(&pkt, 0);
        // IP 20 + SCTP common 12 + INIT 20.
        assert_eq!(frame.len(), 52);
        let back = decode_packet(&frame).unwrap();
        let Proto::Sctp(p) = &back.body else { panic!() };
        let Chunk::Init { ext_flags, .. } = &p.chunks[0] else { panic!() };
        assert_eq!(*ext_flags, 0);
    }

    #[test]
    fn snapped_frames_do_not_decode() {
        let (snapped, _) = capture_frame(&sctp_packet(), 0, 40);
        assert_eq!(decode_packet(&snapped).unwrap_err(), DecodeError::Truncated);
    }
}
