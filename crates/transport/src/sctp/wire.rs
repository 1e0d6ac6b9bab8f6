//! SCTP wire format: the common header, chunks, and the signed state
//! cookie (RFC 4960 §3, §5.1.3).
//!
//! Sizes are modelled faithfully (common header 12 B, DATA chunk header
//! 16 B, etc.) so that bundling and PMTU behaviour match the real protocol;
//! field encodings are kept as typed Rust values rather than byte blobs —
//! the simulator never needs to parse untrusted bytes, only to account for
//! them. TSNs and tags are widened to `u64` (no wraparound bookkeeping;
//! orthogonal to everything the paper measures).

use bytes::Bytes;
use simcore::SimTime;

/// A DATA chunk: one fragment of one user message on one stream.
#[derive(Debug, Clone)]
pub struct DataChunk {
    /// Transmission sequence number.
    pub tsn: u64,
    /// Stream the fragment belongs to.
    pub stream: u16,
    /// Stream sequence number. The engine counts in 32 bits; the wire
    /// carries the low 16 and the receiver widens them back (RFC 1982).
    pub ssn: u32,
    /// First fragment of its user message (B bit).
    pub begin: bool,
    /// Last fragment of its user message (E bit).
    pub end: bool,
    /// Unordered delivery (U bit).
    pub unordered: bool,
    /// Payload protocol identifier — passed through opaquely (the paper
    /// §2.3 suggests mapping MPI contexts onto it).
    pub ppid: u32,
    /// Fragment payload.
    pub data: Bytes,
}

/// An I-DATA chunk (RFC 8260): one fragment of one user message on one
/// stream, interleavable with fragments of *other* messages because the
/// fragment sequence number (FSN) — not TSN adjacency — names its position
/// within the message.
#[derive(Debug, Clone)]
pub struct IDataChunk {
    /// Transmission sequence number.
    pub tsn: u64,
    /// Stream the fragment belongs to.
    pub stream: u16,
    /// Message identifier: replaces the SSN for ordering; per-stream,
    /// assigned at `sendmsg` time (u64: the real u32 wraps, we don't).
    pub mid: u64,
    /// Fragment sequence number within the message (0 for the first
    /// fragment; the real chunk carries the PPID in this slot when B=1).
    pub fsn: u32,
    /// First fragment of its user message (B bit).
    pub begin: bool,
    /// Last fragment of its user message (E bit).
    pub end: bool,
    /// Unordered delivery (U bit).
    pub unordered: bool,
    /// Payload protocol identifier — carried on the B fragment.
    pub ppid: u32,
    /// Fragment payload.
    pub data: Bytes,
}

/// Extension bit: peer supports RFC 8260 I-DATA (negotiated via the INIT /
/// INIT-ACK supported-extensions parameter).
pub const EXT_INTERLEAVE: u8 = 0x01;
/// Extension bit: peer supports RFC 3758 PR-SCTP (FORWARD-TSN).
pub const EXT_PR_SCTP: u8 = 0x02;

/// The state cookie carried in INIT-ACK and echoed in COOKIE-ECHO. Signed
/// with the listener's secret so that no state is allocated until the
/// initiator proves reachability (§3.5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cookie {
    /// Initiator's host.
    pub peer_host: u16,
    /// Initiator's port.
    pub peer_port: u16,
    /// Listener's port.
    pub local_port: u16,
    /// Tag the initiator chose (we send packets to it with this tag).
    pub peer_tag: u64,
    /// Tag we chose for ourselves.
    pub local_tag: u64,
    /// Initiator's advertised receive window.
    pub peer_rwnd: u64,
    /// Initiator's initial TSN.
    pub peer_init_tsn: u64,
    /// Listener's initial TSN.
    pub my_init_tsn: u64,
    /// Negotiated outbound stream count.
    pub out_streams: u16,
    /// Negotiated inbound stream count.
    pub in_streams: u16,
    /// Issue instant (staleness check).
    pub created_at: SimTime,
    /// Negotiated extension set ([`EXT_INTERLEAVE`] | [`EXT_PR_SCTP`]):
    /// the intersection of both sides' supported-extensions offers, packed
    /// into the cookie's existing wire padding (COOKIE_WIRE_LEN unchanged).
    pub ext_flags: u8,
    /// MAC over all fields under the listener's secret.
    pub mac: u64,
}

impl Cookie {
    /// Compute the MAC for this cookie's fields under `secret`.
    pub fn compute_mac(&self, secret: u64) -> u64 {
        // A simple keyed mix — stands in for HMAC; unforgeable within the
        // simulation because the secret never leaves the host.
        let mut h = secret ^ 0x6a09_e667_f3bc_c908;
        for v in [
            self.peer_host as u64,
            self.peer_port as u64,
            self.local_port as u64,
            self.peer_tag,
            self.local_tag,
            self.peer_rwnd,
            self.peer_init_tsn,
            self.my_init_tsn,
            self.out_streams as u64,
            self.in_streams as u64,
            self.created_at.as_nanos(),
        ] {
            h ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = h.rotate_left(23).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        // Mixed only when an extension is negotiated: legacy cookies (and
        // the goldens capturing them) keep their exact MAC bytes.
        if self.ext_flags != 0 {
            h ^= (self.ext_flags as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = h.rotate_left(23).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        h
    }

    /// Sign the cookie under `secret`, filling `mac`.
    pub fn sign(mut self, secret: u64) -> Cookie {
        self.mac = 0;
        self.mac = self.compute_mac(secret);
        self
    }

    /// Check `mac` against `secret`.
    pub fn verify(&self, secret: u64) -> bool {
        let mut c = *self;
        c.mac = 0;
        c.compute_mac(secret) == self.mac
    }
}

/// An SCTP chunk.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// A DATA chunk (one message fragment).
    Data(DataChunk),
    /// An I-DATA chunk (RFC 8260 interleavable fragment).
    IData(IDataChunk),
    /// FORWARD-TSN (RFC 3758 / RFC 8260 §2.3.1 I-FORWARD-TSN): tells the
    /// receiver to advance its cumulative TSN past abandoned chunks, with
    /// per-stream skip entries naming the highest abandoned MID (or SSN in
    /// non-interleaved mode) so partial reassemblies can be discarded.
    ForwardTsn {
        /// New cumulative TSN the receiver should jump to.
        new_cum: u64,
        /// Per-stream skips: (stream id, highest abandoned MID/SSN).
        skips: Vec<(u16, u64)>,
    },
    /// Selective acknowledgment.
    Sack {
        /// Cumulative TSN ack.
        cum_tsn: u64,
        /// Advertised receiver window.
        a_rwnd: u64,
        /// Gap-ack blocks, absolute `[start, end)` — unlike TCP's SACK
        /// option, the count is bounded only by the PMTU (§4.1.1).
        gaps: Vec<(u64, u64)>,
        /// Count of duplicate TSNs seen since the last SACK.
        dup_count: u32,
    },
    /// Association initiation (first handshake leg).
    Init {
        /// Tag the peer must echo in every packet to us.
        init_tag: u64,
        /// Our advertised receive window.
        a_rwnd: u64,
        /// Outbound streams we request.
        out_streams: u16,
        /// Inbound streams we accept.
        in_streams: u16,
        /// Our initial TSN.
        init_tsn: u64,
        /// Extensions we support ([`EXT_INTERLEAVE`] | [`EXT_PR_SCTP`]);
        /// 0 = legacy INIT with no supported-extensions parameter (and the
        /// exact pre-extension wire size).
        ext_flags: u8,
    },
    /// Listener's reply to INIT (second handshake leg).
    InitAck {
        /// Tag the initiator must echo back to the listener.
        init_tag: u64,
        /// Listener's advertised receive window.
        a_rwnd: u64,
        /// Outbound streams granted.
        out_streams: u16,
        /// Inbound streams granted.
        in_streams: u16,
        /// Listener's initial TSN.
        init_tsn: u64,
        /// Extensions the listener supports (see [`EXT_INTERLEAVE`]).
        ext_flags: u8,
        /// Signed state cookie (no listener state allocated yet).
        cookie: Cookie,
    },
    /// Initiator echoes the cookie (third handshake leg).
    CookieEcho {
        /// The cookie from INIT-ACK, returned verbatim.
        cookie: Cookie,
    },
    /// Listener confirms the cookie (fourth handshake leg).
    CookieAck,
    /// Path liveness probe.
    Heartbeat {
        /// Path index being probed.
        path: u8,
        /// Random nonce echoed by the ACK.
        nonce: u64,
    },
    /// Heartbeat reply.
    HeartbeatAck {
        /// Path index probed.
        path: u8,
        /// Nonce from the heartbeat.
        nonce: u64,
    },
    /// Orderly shutdown request.
    Shutdown {
        /// Sender's cumulative TSN ack.
        cum_tsn: u64,
    },
    /// Shutdown acknowledgment.
    ShutdownAck,
    /// Final leg of orderly shutdown.
    ShutdownComplete,
    /// Unrecoverable error; association torn down.
    Abort,
}

impl Chunk {
    /// Wire size of this chunk (header + value, 4-byte padded).
    pub fn wire_len(&self) -> u32 {
        let raw = match self {
            Chunk::Data(d) => 16 + d.data.len() as u32,
            // RFC 8260 §2.1: I-DATA header is 20 B (TSN, sid, reserved,
            // MID, then PPID/FSN) vs DATA's 16.
            Chunk::IData(d) => 20 + d.data.len() as u32,
            // Type/flags/len (4) + new cum TSN (4) + 8 B per skip entry
            // (sid, reserved, MID — the I-FORWARD-TSN layout).
            Chunk::ForwardTsn { skips, .. } => 8 + 8 * skips.len() as u32,
            Chunk::Sack { gaps, .. } => 16 + 4 * gaps.len() as u32,
            // A supported-extensions parameter adds 8 B — only when the
            // sender actually offers extensions, so legacy INITs keep
            // their exact pre-extension size.
            Chunk::Init { ext_flags, .. } => 20 + if *ext_flags != 0 { 8 } else { 0 },
            Chunk::InitAck { ext_flags, .. } => {
                20 + COOKIE_WIRE_LEN + if *ext_flags != 0 { 8 } else { 0 }
            }
            Chunk::CookieEcho { .. } => 4 + COOKIE_WIRE_LEN,
            Chunk::CookieAck => 4,
            Chunk::Heartbeat { .. } | Chunk::HeartbeatAck { .. } => 4 + 8,
            Chunk::Shutdown { .. } => 8,
            Chunk::ShutdownAck | Chunk::ShutdownComplete | Chunk::Abort => 4,
        };
        raw.div_ceil(4) * 4
    }
}

/// Serialized size of the state cookie.
pub const COOKIE_WIRE_LEN: u32 = 76;

/// SCTP common header size.
pub const COMMON_HEADER: u32 = 12;

/// An SCTP packet: common header + bundled chunks.
#[derive(Debug)]
pub struct SctpPacket {
    /// Sending port.
    pub src_port: u16,
    /// Receiving port.
    pub dst_port: u16,
    /// Verification tag: must equal the receiver's local tag (except INIT).
    pub vtag: u64,
    /// Bundled chunks, control before data.
    pub chunks: Vec<Chunk>,
}

impl SctpPacket {
    /// Wire size: common header plus every bundled chunk.
    pub fn wire_len(&self) -> u32 {
        COMMON_HEADER + self.chunks.iter().map(|c| c.wire_len()).sum::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cookie() -> Cookie {
        Cookie {
            peer_host: 1,
            peer_port: 7000,
            local_port: 7000,
            peer_tag: 0xAAAA,
            local_tag: 0xBBBB,
            peer_rwnd: 220 * 1024,
            peer_init_tsn: 1,
            my_init_tsn: 1,
            out_streams: 10,
            in_streams: 10,
            created_at: SimTime::from_nanos(42),
            ext_flags: 0,
            mac: 0,
        }
    }

    #[test]
    fn cookie_sign_verify_roundtrip() {
        let c = cookie().sign(123);
        assert!(c.verify(123));
        assert!(!c.verify(124), "wrong secret must fail");
    }

    #[test]
    fn cookie_tamper_detected() {
        let mut c = cookie().sign(123);
        c.peer_tag ^= 1;
        assert!(!c.verify(123), "forged field must invalidate the MAC");
    }

    #[test]
    fn chunk_sizes_padded_to_four() {
        let d = Chunk::Data(DataChunk {
            tsn: 1,
            stream: 0,
            ssn: 0,
            begin: true,
            end: true,
            unordered: false,
            ppid: 0,
            data: Bytes::from_static(b"xyz"),
        });
        assert_eq!(d.wire_len(), 20, "16 hdr + 3 data padded to 20");
        assert_eq!(Chunk::CookieAck.wire_len(), 4);
        let s = Chunk::Sack { cum_tsn: 5, a_rwnd: 1, gaps: vec![(7, 9), (12, 13)], dup_count: 0 };
        assert_eq!(s.wire_len(), 24);
    }

    #[test]
    fn idata_and_fwd_tsn_sizes() {
        let i = Chunk::IData(IDataChunk {
            tsn: 1,
            stream: 0,
            mid: 0,
            fsn: 0,
            begin: true,
            end: true,
            unordered: false,
            ppid: 0,
            data: Bytes::from_static(b"xyz"),
        });
        assert_eq!(i.wire_len(), 24, "20 hdr + 3 data padded to 24");
        let f = Chunk::ForwardTsn { new_cum: 9, skips: vec![(0, 3), (2, 1)] };
        assert_eq!(f.wire_len(), 8 + 16);
        assert_eq!(Chunk::ForwardTsn { new_cum: 9, skips: vec![] }.wire_len(), 8);
    }

    #[test]
    fn ext_flags_grow_init_only_when_offered() {
        let legacy = Chunk::Init {
            init_tag: 1,
            a_rwnd: 1,
            out_streams: 10,
            in_streams: 10,
            init_tsn: 1,
            ext_flags: 0,
        };
        assert_eq!(legacy.wire_len(), 20, "no extensions: pre-8260 size");
        let ext = Chunk::Init {
            init_tag: 1,
            a_rwnd: 1,
            out_streams: 10,
            in_streams: 10,
            init_tsn: 1,
            ext_flags: EXT_INTERLEAVE | EXT_PR_SCTP,
        };
        assert_eq!(ext.wire_len(), 28, "supported-extensions param adds 8");
    }

    #[test]
    fn cookie_mac_ignores_zero_ext_flags() {
        // A zero ext_flags cookie must keep the exact legacy MAC: mixing
        // the new field unconditionally would invalidate golden captures.
        let c = cookie().sign(123);
        let mut with_ext = cookie();
        with_ext.ext_flags = EXT_INTERLEAVE;
        let with_ext = with_ext.sign(123);
        assert!(c.verify(123));
        assert!(with_ext.verify(123));
        assert_ne!(c.mac, with_ext.mac, "flags participate when nonzero");
    }

    #[test]
    fn packet_size_sums_chunks() {
        let p = SctpPacket {
            src_port: 1,
            dst_port: 2,
            vtag: 9,
            chunks: vec![Chunk::CookieAck, Chunk::ShutdownAck],
        };
        assert_eq!(p.wire_len(), 12 + 4 + 4);
    }
}
