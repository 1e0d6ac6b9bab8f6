//! Userspace SCTP-over-UDP (and TCP-over-UDP) socket driver.
//!
//! Encapsulation is RFC 6951 in spirit: the *entire* IPv4 frame the sim
//! would have put on the wire ([`wire_bytes::encode_packet`]) travels as
//! the payload of one UDP datagram. Carrying the IP header too keeps the
//! datagram self-describing — ingress recovers src/dst [`IfAddr`]s from the
//! `10.iface.host_hi.host_lo` address plan without any out-of-band framing
//! — and lets both checksums (IP header, SCTP CRC32c / TCP checksum) guard
//! the real path end to end.
//!
//! The driver has no loss model, no latency model and no reordering — the
//! real network supplies those. What it does own is how frames reach the
//! socket, and it writes **trains, not frames**:
//!
//! * **Egress** encodes each packet straight into one reusable tx arena
//!   ([`wire_bytes::encode_packet_into`]) and notes `(len, peer)`. A flush
//!   walks the arena and sends every maximal *run* — consecutive frames to
//!   one peer, equal length except a shorter last one, at most
//!   64 segments and 65 507 bytes — as one `sendmsg` carrying
//!   a `UDP_SEGMENT` cmsg, directly from the contiguous arena bytes. The
//!   kernel cuts the run back into the datagrams it was planned from, so
//!   the socket emits byte for byte the datagrams, in the order, that one
//!   `sendto` per frame would have. A run of one frame is a plain `sendmsg`.
//! * **Cork.** A `send` flushes before it returns, unless an ingress batch
//!   is being dispatched: [`Backend::poll_ingress`] returning packets corks
//!   the driver and [`Backend::flush`] (called by
//!   [`pump_ingress`](crate::backend::pump_ingress) after the dispatch
//!   loop) uncorks it. The SACKs a receiver emits while digesting a train
//!   of DATA, and the DATA those SACKs release, therefore leave in one or
//!   two calls. The arena also flushes itself once it holds 256 KiB.
//! * **Ingress** enables `UDP_GRO`, so one `recvmsg` returns a whole train
//!   and the segment size in a cmsg. The train is copied once out of the
//!   receive scratch into one shared [`Bytes`] buffer (one allocation and
//!   its refcount), split at that stride, and every segment goes through
//!   [`wire_bytes::decode_frame`] on its own (IP length, IP checksum,
//!   CRC32c / TCP checksum). DATA, I-DATA and TCP payloads come back as
//!   slices of the shared buffer, and the decoder's carriers come from the
//!   world's pool, so a train costs two allocations however many chunks it
//!   holds. Malformed or corrupted segments are counted and dropped, never
//!   delivered: the CRC32c gate rejects before any chunk parsing, exactly
//!   the discard rule RFC 4960 §6.8 prescribes. A payload slice keeps its
//!   whole train alive while the engine holds it (see [`wire_bytes`]).
//!
//! Where the kernel offers neither option (the probe at `bind` fails, a
//! segmented send is refused with `EIO`/`EINVAL`, or the OS is not Linux)
//! the same planner runs with a segment limit of one: every run is one
//! frame and every receive one datagram.
//!
//! Peer routing is a tiny linear map from destination [`IfAddr`] to socket
//! address — cluster-scale fan-out would want a hash map, but a ping-pong
//! pair wants two entries and zero hashing.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::AddAssign;

use bytes::Bytes;
use netsim::IfAddr;

use crate::backend::Backend;
use crate::ip::{self, Packet, Proto};
use crate::pool::Pools;
use crate::sctp::Chunk;
use crate::{wire_bytes, World, Wx};

/// Largest datagram (or coalesced train of datagrams) one receive returns:
/// the UDP payload limit, rounded up.
const RECV_BUF: usize = 64 * 1024;

/// Most segments the kernel accepts in one `UDP_SEGMENT` send.
const MAX_SEGMENTS: usize = 64;

/// Largest UDP payload, which bounds a whole segmented send.
const MAX_RUN_BYTES: usize = 65_507;

/// How a segmented send is refused on a route that cannot segment: `EIO`
/// without checksum offload, `EINVAL` when a segment exceeds the path MTU.
const EIO: i32 = 5;
const EINVAL: i32 = 22;

/// Arena size at which egress flushes even while corked, so a long dispatch
/// cannot grow the arena without bound.
const ARENA_FLUSH_BYTES: usize = 256 * 1024;

/// Ingress/egress counters, readable after a run for sanity reporting.
#[derive(Debug, Default, Clone, Copy)]
pub struct UdpStats {
    /// Datagrams written.
    pub tx_frames: u64,
    /// Bytes written (encapsulated frames, headers included).
    pub tx_bytes: u64,
    /// Send syscalls made; each carries one run of `tx_frames`.
    pub tx_calls: u64,
    /// Egress packets dropped: no route for the destination address.
    pub tx_no_route: u64,
    /// Frames not written because their send failed (including `WouldBlock`
    /// on a full socket buffer — the transport's own retransmission
    /// machinery recovers, exactly as it would from real loss). A failed
    /// segmented send counts every frame of its run.
    pub tx_errors: u64,
    /// Datagrams that arrived and decoded cleanly.
    pub rx_frames: u64,
    /// Bytes in cleanly decoded datagrams.
    pub rx_bytes: u64,
    /// Receive syscalls made, the `WouldBlock` that ends each drain included.
    pub rx_calls: u64,
    /// Receive errors other than `WouldBlock` (e.g. `ECONNREFUSED` relayed
    /// from a vanished peer); the drain continues past them.
    pub rx_errors: u64,
    /// Datagrams rejected by the SCTP CRC32c gate.
    pub rx_bad_crc: u64,
    /// Datagrams rejected for any other reason (short, bad IP checksum,
    /// bad TCP checksum, unknown chunk/proto, foreign address plan).
    pub rx_bad_frame: u64,
}

impl AddAssign for UdpStats {
    fn add_assign(&mut self, other: Self) {
        // Destructured so that a new counter does not compile until it is
        // summed here.
        let UdpStats {
            tx_frames,
            tx_bytes,
            tx_calls,
            tx_no_route,
            tx_errors,
            rx_frames,
            rx_bytes,
            rx_calls,
            rx_errors,
            rx_bad_crc,
            rx_bad_frame,
        } = other;
        self.tx_frames += tx_frames;
        self.tx_bytes += tx_bytes;
        self.tx_calls += tx_calls;
        self.tx_no_route += tx_no_route;
        self.tx_errors += tx_errors;
        self.rx_frames += rx_frames;
        self.rx_bytes += rx_bytes;
        self.rx_calls += rx_calls;
        self.rx_errors += rx_errors;
        self.rx_bad_crc += rx_bad_crc;
        self.rx_bad_frame += rx_bad_frame;
    }
}

/// One encoded frame waiting in the tx arena: its length and destination.
type Queued = (usize, SocketAddr);

/// The run that starts `frames` (non-empty), as (frames, bytes): the first
/// frame, then frames to the same peer that are as long as it — a shorter
/// one joins and closes the run — within `seg_limit` segments and
/// [`MAX_RUN_BYTES`].
fn next_run(frames: &[Queued], seg_limit: usize) -> (usize, usize) {
    let (stride, peer) = frames[0];
    let (mut n, mut bytes) = (1, stride);
    for &(len, to) in frames[1..].iter().take(seg_limit.saturating_sub(1)) {
        if to != peer || len > stride || bytes + len > MAX_RUN_BYTES {
            break;
        }
        n += 1;
        bytes += len;
        if len < stride {
            break;
        }
    }
    (n, bytes)
}

/// Copy what one receive returned into one shared buffer, split it into
/// datagrams `stride` bytes apart (the last may be shorter), decode each on
/// its own and append the survivors to `out`; rejects are counted in
/// `stats`. Payloads are slices of the shared buffer, so `train` may be
/// overwritten as soon as this returns.
fn ingest_train(
    train: &[u8],
    stride: usize,
    ctx: &mut Wx,
    pool: &mut Pools,
    stats: &mut UdpStats,
    out: &mut Vec<Packet>,
) {
    let train = Bytes::copy_from_slice(train);
    let stride = stride.max(1);
    let mut at = 0;
    loop {
        let end = (at + stride).min(train.len());
        let frame = train.slice(at..end);
        match wire_bytes::decode_frame(&frame, pool) {
            Ok(pkt) => {
                stats.rx_frames += 1;
                stats.rx_bytes += frame.len() as u64;
                // Mirror the arrived bytes into this node's flight recorder,
                // so a live pcapng holds both directions as the wire had them.
                ip::trace_wire(ctx, &pkt, &frame);
                out.push(pkt);
            }
            Err(wire_bytes::DecodeError::BadCrc(..)) => stats.rx_bad_crc += 1,
            Err(_) => stats.rx_bad_frame += 1,
        }
        if end == train.len() {
            return;
        }
        at = end;
    }
}

/// A [`Backend`] that puts the engines on real (UDP) sockets.
#[derive(Debug)]
pub struct UdpBackend {
    sock: UdpSocket,
    /// Destination routes: simulated interface address → socket address.
    peers: Vec<(IfAddr, SocketAddr)>,
    /// Encoded frames not yet written, back to back.
    arena: Vec<u8>,
    /// Length and destination of each frame in `arena`, in order.
    queued: Vec<Queued>,
    /// An ingress batch is being dispatched: `send` queues without flushing.
    corked: bool,
    /// Most frames one send may carry: [`MAX_SEGMENTS`] while the kernel
    /// takes `UDP_SEGMENT`, 1 once it is known not to.
    seg_limit: usize,
    /// Receive scratch: one train at a time, copied out before the next.
    buf: Box<[u8; RECV_BUF]>,
    /// Counters (see [`UdpStats`]).
    pub stats: UdpStats,
}

impl UdpBackend {
    /// Bind a nonblocking socket on `bind` (use port 0 for an ephemeral
    /// port, then [`UdpBackend::local_addr`] to learn it).
    pub fn bind(bind: SocketAddr) -> io::Result<Self> {
        let sock = UdpSocket::bind(bind)?;
        sock.set_nonblocking(true)?;
        let seg_limit = if sys::enable_batching(&sock) { MAX_SEGMENTS } else { 1 };
        Ok(UdpBackend {
            sock,
            peers: Vec::new(),
            arena: Vec::new(),
            queued: Vec::new(),
            corked: false,
            seg_limit,
            buf: Box::new([0u8; RECV_BUF]),
            stats: UdpStats::default(),
        })
    }

    /// The socket's bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Route packets destined for simulated interface `addr` to `to`.
    /// Re-adding an address replaces its route.
    pub fn add_peer(&mut self, addr: IfAddr, to: SocketAddr) {
        if let Some(slot) = self.peers.iter_mut().find(|(a, _)| *a == addr) {
            slot.1 = to;
        } else {
            self.peers.push((addr, to));
        }
    }

    fn route(&self, dst: IfAddr) -> Option<SocketAddr> {
        self.peers.iter().find(|(a, _)| *a == dst).map(|&(_, to)| to)
    }

    /// Encode `pkt` onto the end of the arena and queue it.
    fn enqueue(&mut self, ctx: &mut Wx, pkt: &Packet) {
        let Some(to) = self.route(pkt.dst) else {
            self.stats.tx_no_route += 1;
            return;
        };
        let start = self.arena.len();
        let len = wire_bytes::encode_packet_into(pkt, ctx.now().as_nanos(), &mut self.arena);
        // Flight-recorder parity with the sim path: the frame is captured
        // as offered.
        ip::trace_wire(ctx, pkt, &self.arena[start..]);
        self.queued.push((len, to));
        if self.arena.len() >= ARENA_FLUSH_BYTES {
            self.write_queued();
        }
    }

    /// Write every queued frame, one send per run, and empty the arena.
    fn write_queued(&mut self) {
        let (mut at, mut off) = (0, 0);
        while at < self.queued.len() {
            let (n, bytes) = next_run(&self.queued[at..], self.seg_limit);
            let (stride, to) = self.queued[at];
            self.stats.tx_calls += 1;
            match sys::send_run(&self.sock, &self.arena[off..off + bytes], stride, to) {
                Ok(()) => {
                    self.stats.tx_frames += n as u64;
                    self.stats.tx_bytes += bytes as u64;
                }
                // This route cannot segment: plan this run again, and every
                // later one, as single frames.
                Err(e) if n > 1 && matches!(e.raw_os_error(), Some(EIO | EINVAL)) => {
                    self.seg_limit = 1;
                    continue;
                }
                Err(_) => self.stats.tx_errors += n as u64,
            }
            at += n;
            off += bytes;
        }
        self.queued.clear();
        self.arena.clear();
    }
}

/// Only a packet's encoded bytes travel, so once it is enqueued its pooled
/// carriers go back where they came from (the sim path retires them at the
/// receiver).
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

impl Backend for UdpBackend {
    fn send(&mut self, w: &mut World, ctx: &mut Wx, pkt: Packet) {
        self.enqueue(ctx, &pkt);
        retire(&mut w.pool, pkt);
        if !self.corked {
            self.write_queued();
        }
    }

    fn send_train(&mut self, w: &mut World, ctx: &mut Wx, mut pkts: Vec<Packet>) {
        for pkt in pkts.drain(..) {
            self.enqueue(ctx, &pkt);
            retire(&mut w.pool, pkt);
        }
        w.pool.put_packet_vec(pkts);
        if !self.corked {
            self.write_queued();
        }
    }

    fn poll_ingress(&mut self, ctx: &mut Wx, pool: &mut Pools) -> Vec<Packet> {
        let mut out = pool.take_packet_vec();
        loop {
            self.stats.rx_calls += 1;
            match sys::recv_train(&self.sock, &mut self.buf[..]) {
                Ok((n, stride)) => ingest_train(&self.buf[..n], stride, ctx, pool, &mut self.stats, &mut out),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => self.stats.rx_errors += 1,
            }
        }
        // Replies to this batch gather in the arena until `flush`.
        self.corked = !out.is_empty();
        out
    }

    fn flush(&mut self) {
        self.corked = false;
        self.write_queued();
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The three socket calls `std::net::UdpSocket` does not wrap, declared by
/// hand (std already links libc): `sendmsg` with a `UDP_SEGMENT` cmsg,
/// `recvmsg` with a `UDP_GRO` cmsg, and the `setsockopt` that enables the
/// latter. The only `unsafe` in the backend lives here, behind safe
/// functions over slices the caller owns for the duration of the call.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::mem::size_of;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::ptr;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const UDP_GRO: c_int = 104;

    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    #[repr(C)]
    struct CmsgHdr {
        len: usize,
        level: c_int,
        ty: c_int,
    }

    /// Room for one cmsg with up to eight bytes of data: `UDP_SEGMENT`
    /// carries a `u16`, `UDP_GRO` an `int`.
    #[repr(C)]
    struct Cmsg {
        hdr: CmsgHdr,
        data: [u8; 8],
    }

    extern "C" {
        fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
        fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
        fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    }

    /// Turn on `UDP_GRO` and check `UDP_SEGMENT` exists (setting it to 0
    /// keeps segmentation per call, by cmsg). False if either is missing.
    pub fn enable_batching(sock: &UdpSocket) -> bool {
        let set = |name: c_int, val: c_int| {
            let (val, len) = (ptr::from_ref(&val).cast(), size_of::<c_int>() as u32);
            // SAFETY: `val` points at a live `c_int` and `len` is its size.
            unsafe { setsockopt(sock.as_raw_fd(), SOL_UDP, name, val, len) == 0 }
        };
        set(UDP_GRO, 1) && set(UDP_SEGMENT, 0)
    }

    /// `to` as the bytes of a `sockaddr_in` / `sockaddr_in6`, and how many.
    fn sockaddr(to: SocketAddr) -> ([u8; 28], u32) {
        let mut sa = [0u8; 28];
        sa[2..4].copy_from_slice(&to.port().to_be_bytes());
        match to {
            SocketAddr::V4(a) => {
                sa[..2].copy_from_slice(&AF_INET.to_ne_bytes());
                sa[4..8].copy_from_slice(&a.ip().octets());
                (sa, 16)
            }
            SocketAddr::V6(a) => {
                sa[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                sa[8..24].copy_from_slice(&a.ip().octets());
                sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                (sa, 28)
            }
        }
    }

    /// Send `bytes` to `to` in one call: as one datagram if they fit in
    /// `stride`, else as datagrams `stride` bytes apart (`UDP_SEGMENT`).
    pub fn send_run(sock: &UdpSocket, bytes: &[u8], stride: usize, to: SocketAddr) -> io::Result<()> {
        let (mut name, namelen) = sockaddr(to);
        let mut iov = IoVec { base: bytes.as_ptr().cast_mut().cast(), len: bytes.len() };
        let mut ctl = Cmsg {
            hdr: CmsgHdr { len: size_of::<CmsgHdr>() + size_of::<u16>(), level: SOL_UDP, ty: UDP_SEGMENT },
            data: [0; 8],
        };
        ctl.data[..2].copy_from_slice(&(stride as u16).to_ne_bytes());
        let segmented = bytes.len() > stride;
        let msg = MsgHdr {
            name: name.as_mut_ptr().cast(),
            namelen,
            iov: &mut iov,
            iovlen: 1,
            control: if segmented { ptr::from_mut(&mut ctl).cast() } else { ptr::null_mut() },
            controllen: if segmented { size_of::<Cmsg>() } else { 0 },
            flags: 0,
        };
        // SAFETY: `msg` points at `name`, `iov` and `ctl`, locals that outlive
        // the call; `iov` covers exactly `bytes`, which the kernel only reads;
        // `namelen` and `controllen` do not exceed the buffers they describe.
        let rc = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Receive into `buf`. Returns the bytes received and the distance
    /// between the datagrams in them (`UDP_GRO`), which is the whole length
    /// when the kernel delivered a single datagram.
    pub fn recv_train(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
        let mut ctl = Cmsg { hdr: CmsgHdr { len: 0, level: 0, ty: 0 }, data: [0; 8] };
        let mut msg = MsgHdr {
            name: ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: ptr::from_mut(&mut ctl).cast(),
            controllen: size_of::<Cmsg>(),
            flags: 0,
        };
        // SAFETY: `msg` points at `iov` and `ctl`, locals that outlive the
        // call; `iov` covers exactly `buf`, borrowed mutably for the call;
        // `controllen` is the size of `ctl`, so the kernel writes inside both.
        let rc = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = rc as usize;
        let gro = msg.controllen >= size_of::<CmsgHdr>() + size_of::<c_int>()
            && ctl.hdr.level == SOL_UDP
            && ctl.hdr.ty == UDP_GRO;
        let stride = if gro { c_int::from_ne_bytes([ctl.data[0], ctl.data[1], ctl.data[2], ctl.data[3]]) } else { 0 };
        Ok((n, if stride > 0 { stride as usize } else { n }))
    }
}

/// Without `UDP_SEGMENT`/`UDP_GRO`: every run is one frame, every receive
/// one datagram.
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    pub fn enable_batching(_sock: &UdpSocket) -> bool {
        false
    }

    pub fn send_run(sock: &UdpSocket, bytes: &[u8], _stride: usize, to: SocketAddr) -> io::Result<()> {
        sock.send_to(bytes, to).map(|_| ())
    }

    pub fn recv_train(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        sock.recv_from(buf).map(|(n, _)| (n, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Proto;
    use crate::sctp::{Chunk, DataChunk, IDataChunk, SctpPacket};
    use netsim::NetCfg;
    use simcore::rng::derive_rng;

    fn peer(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Split `frames` into runs the way `write_queued` does.
    fn plan(frames: &[Queued], seg_limit: usize) -> Vec<usize> {
        let (mut runs, mut at) = (Vec::new(), 0);
        while at < frames.len() {
            let (n, bytes) = next_run(&frames[at..], seg_limit);
            assert_eq!(bytes, frames[at..at + n].iter().map(|f| f.0).sum::<usize>());
            runs.push(n);
            at += n;
        }
        runs
    }

    #[test]
    fn planner_coalesces_equal_sizes_and_cuts_everywhere_else() {
        let (a, b) = (peer(1), peer(2));
        assert_eq!(plan(&[(1500, a)], 64), [1], "a single frame is a run of one");
        assert_eq!(plan(&[(1500, a); 5], 64), [5], "equal sizes coalesce");
        assert_eq!(
            plan(&[(1500, a), (1500, a), (700, a), (700, a)], 64),
            [3, 1],
            "a shorter frame joins its run and closes it"
        );
        assert_eq!(plan(&[(48, a), (1500, a), (1500, a)], 64), [1, 2], "a longer frame starts a new run");
        assert_eq!(plan(&[(1500, a), (1500, b), (1500, b)], 64), [1, 2], "a peer change starts a new run");
        assert_eq!(plan(&[(100, a); 130], 64), [64, 64, 2], "at most 64 segments");
        // 43 × 1500 = 64 500 fits under 65 507; the 44th frame would not.
        assert_eq!(plan(&[(1500, a); 50], 64), [43, 7], "at most 65 507 bytes");
        assert_eq!(plan(&[(1500, a); 5], 1), [1; 5], "segment limit 1 degenerates to frame by frame");
    }

    fn data_packet(tsn: u64, len: usize) -> Packet {
        Packet {
            src: IfAddr::new(0, 0),
            dst: IfAddr::new(1, 0),
            body: Proto::Sctp(SctpPacket {
                src_port: 5000,
                dst_port: 5000,
                vtag: 77,
                chunks: vec![Chunk::Data(DataChunk {
                    tsn,
                    stream: 0,
                    ssn: 0,
                    begin: true,
                    end: true,
                    unordered: false,
                    ppid: 0,
                    data: Bytes::from((0..len).map(|i| (i as u64 ^ tsn) as u8).collect::<Vec<u8>>()),
                })],
            }),
        }
    }

    fn tsn_of(pkt: &Packet) -> u64 {
        let Proto::Sctp(p) = &pkt.body else { panic!("SCTP expected") };
        let Chunk::Data(d) = &p.chunks[0] else { panic!("DATA expected") };
        d.tsn
    }

    #[test]
    fn splitter_cuts_at_the_stride_and_drops_only_the_corrupt_segment() {
        // What one UDP_GRO receive hands back: three full segments and a
        // shorter last one, back to back, stride = the full segments' size.
        let mut train = Vec::new();
        let stride = wire_bytes::encode_packet_into(&data_packet(1, 400), 0, &mut train);
        wire_bytes::encode_packet_into(&data_packet(2, 400), 0, &mut train);
        wire_bytes::encode_packet_into(&data_packet(3, 400), 0, &mut train);
        let last = wire_bytes::encode_packet_into(&data_packet(4, 100), 0, &mut train);
        assert!(last < stride);
        train[stride + 60] ^= 0x01; // one payload bit of the second segment

        let mut ctx = Wx::standalone(derive_rng(1, 0));
        let mut pool = Pools::default();
        let (mut stats, mut out) = (UdpStats::default(), Vec::new());
        ingest_train(&train, stride, &mut ctx, &mut pool, &mut stats, &mut out);
        assert_eq!(out.iter().map(tsn_of).collect::<Vec<_>>(), [1, 3, 4], "neighbours of the bad segment survive");
        assert_eq!((stats.rx_bad_crc, stats.rx_bad_frame), (1, 0));
        assert_eq!(stats.rx_frames, 3);
        assert_eq!(stats.rx_bytes as usize, 2 * stride + last);

        // No cmsg: the stride is the whole length and the buffer one datagram.
        let (mut stats, mut out) = (UdpStats::default(), Vec::new());
        ingest_train(&train[..stride], stride, &mut ctx, &mut pool, &mut stats, &mut out);
        assert_eq!((out.len(), stats.rx_frames), (1, 1));
        // An empty datagram is a malformed frame, not nothing.
        ingest_train(&[], 0, &mut ctx, &mut pool, &mut stats, &mut out);
        assert_eq!(stats.rx_bad_frame, 1);
    }

    /// Length of every frame [`mixed_train`] builds.
    const STRIDE: usize = 364;

    /// One [`STRIDE`]-byte frame of every payload-carrying shape — two
    /// bundled DATA chunks, one I-DATA chunk, one TCP segment — back to back
    /// as one `UDP_GRO` receive would return them. Returns the train and
    /// `(offset in train, bytes)` of every payload in decode order. `seed`
    /// varies the payload bytes.
    fn mixed_train(seed: u8) -> (Vec<u8>, Vec<(usize, Vec<u8>)>) {
        let bytes = |len: usize, salt: u8| -> Vec<u8> {
            (0..len).map(|i| (i as u8).wrapping_mul(7) ^ salt ^ seed).collect()
        };
        let data = |tsn: u64, payload: &[u8]| {
            Chunk::Data(DataChunk {
                tsn,
                stream: 1,
                ssn: 0,
                begin: true,
                end: true,
                unordered: false,
                ppid: 0,
                data: Bytes::from(payload.to_vec()),
            })
        };
        let sctp = |chunks: Vec<Chunk>| Packet {
            src: IfAddr::new(0, 0),
            dst: IfAddr::new(1, 0),
            body: Proto::Sctp(SctpPacket { src_port: 5000, dst_port: 5000, vtag: 77, chunks }),
        };
        let (d1, d2, idata, tcp) = (bytes(100, 1), bytes(200, 2), bytes(312, 3), bytes(312, 4));
        // IP 20 + common header 12 + DATA headers 16 each; I-DATA header
        // 20; TCP header 20 + timestamps 12.
        let frames = [
            (sctp(vec![data(1, &d1), data(2, &d2)]), vec![(48, d1), (164, d2)]),
            (
                sctp(vec![Chunk::IData(IDataChunk {
                    tsn: 3,
                    stream: 1,
                    mid: 0,
                    fsn: 0,
                    begin: true,
                    end: true,
                    unordered: false,
                    ppid: 0,
                    data: Bytes::from(idata.clone()),
                })]),
                vec![(52, idata)],
            ),
            (
                Packet {
                    src: IfAddr::new(0, 0),
                    dst: IfAddr::new(1, 0),
                    body: Proto::Tcp(crate::tcp::TcpSegment {
                        src_port: 5001,
                        dst_port: 5001,
                        flags: crate::tcp::Flags::ACK,
                        seq: 1,
                        ack: 1,
                        wnd: 65_535,
                        sack: vec![],
                        probe: false,
                        payload: vec![Bytes::from(tcp.clone())],
                        payload_len: 312,
                    }),
                },
                vec![(52, tcp)],
            ),
        ];
        let (mut train, mut payloads) = (Vec::new(), Vec::new());
        for (pkt, at) in frames {
            let start = train.len();
            assert_eq!(wire_bytes::encode_packet_into(&pkt, 0, &mut train), STRIDE);
            payloads.extend(at.into_iter().map(|(off, b)| (start + off, b)));
        }
        (train, payloads)
    }

    /// Every DATA, I-DATA and TCP payload of `pkts`, in order.
    fn payloads_of(pkts: &[Packet]) -> Vec<Bytes> {
        let mut out = Vec::new();
        for pkt in pkts {
            match &pkt.body {
                Proto::Sctp(p) => out.extend(p.chunks.iter().filter_map(|c| match c {
                    Chunk::Data(d) => Some(d.data.clone()),
                    Chunk::IData(d) => Some(d.data.clone()),
                    _ => None,
                })),
                Proto::Tcp(seg) => out.extend(seg.payload.iter().cloned()),
            }
        }
        out
    }

    #[test]
    fn ingress_payloads_alias_one_shared_copy_of_the_train() {
        let (train, want) = mixed_train(0);
        // The backend's receive scratch, as `recv_train` leaves it.
        let mut scratch = vec![0u8; RECV_BUF];
        scratch[..train.len()].copy_from_slice(&train);
        let mut ctx = Wx::standalone(derive_rng(3, 0));
        let mut pool = Pools::default();
        let (mut stats, mut out) = (UdpStats::default(), Vec::new());
        ingest_train(&scratch[..train.len()], STRIDE, &mut ctx, &mut pool, &mut stats, &mut out);
        assert_eq!((stats.rx_frames, stats.rx_bad_crc + stats.rx_bad_frame), (3, 0));

        let got = payloads_of(&out);
        assert_eq!(got.len(), want.len());
        // Every payload sits at its frame offset from one common base: they
        // are slices of one buffer holding the whole train, and that buffer
        // is a copy, not the scratch.
        let base = got[0].as_ptr() as usize - want[0].0;
        for (g, (off, bytes)) in got.iter().zip(&want) {
            assert_eq!(&g[..], &bytes[..]);
            assert_eq!(g.as_ptr() as usize, base + off, "payload at offset {off} is not a slice of the train copy");
        }
        let scratch_at = scratch.as_ptr() as usize;
        assert!(base + train.len() <= scratch_at || base >= scratch_at + scratch.len(), "payloads alias the scratch");
    }

    #[test]
    fn ingress_payloads_survive_the_next_receive_into_the_scratch() {
        let (first, want) = mixed_train(0);
        let (second, _) = mixed_train(0x5A);
        assert_ne!(first, second);
        let mut scratch = vec![0u8; RECV_BUF];
        let mut ctx = Wx::standalone(derive_rng(4, 0));
        let mut pool = Pools::default();
        let (mut stats, mut kept, mut next) = (UdpStats::default(), Vec::new(), Vec::new());
        scratch[..first.len()].copy_from_slice(&first);
        ingest_train(&scratch[..first.len()], STRIDE, &mut ctx, &mut pool, &mut stats, &mut kept);
        scratch[..second.len()].copy_from_slice(&second);
        ingest_train(&scratch[..second.len()], STRIDE, &mut ctx, &mut pool, &mut stats, &mut next);
        assert_eq!((kept.len(), next.len()), (3, 3));
        let got = payloads_of(&kept);
        assert_eq!(got.len(), want.len());
        for (g, (_, bytes)) in got.iter().zip(&want) {
            assert_eq!(&g[..], &bytes[..], "a payload changed when the scratch was reused");
        }
        assert_ne!(payloads_of(&next), got);
    }

    /// 100 frames of mixed sizes to two peers, sent inside one corked batch,
    /// must arrive in order and byte-identical however they were batched.
    fn corked_batch_arrives_intact(force_single: bool) {
        let lo = peer(0);
        let mut tx = UdpBackend::bind(lo).expect("bind");
        let mut rx = [UdpBackend::bind(lo).expect("bind"), UdpBackend::bind(lo).expect("bind")];
        tx.add_peer(IfAddr::new(1, 0), rx[0].local_addr().unwrap());
        tx.add_peer(IfAddr::new(2, 0), rx[1].local_addr().unwrap());
        let batching = tx.seg_limit > 1 && !force_single;
        if force_single {
            tx.seg_limit = 1;
        }
        let mut w = World::new(NetCfg::paper_cluster(0.0), Default::default(), Default::default());
        let mut ctx = Wx::standalone(derive_rng(2, 0));

        // SACK-sized, full-MTU and short-tail frames, switching peers now
        // and then; per peer the TSNs count up.
        let mut sent: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
        tx.corked = true;
        for i in 0..100u64 {
            let to = usize::from(i % 23 >= 15);
            let len = match i % 10 {
                0 => 16,
                9 => 333,
                _ => 1400,
            };
            let mut pkt = data_packet(sent[to].len() as u64, len);
            pkt.dst = IfAddr::new(1 + to as u16, 0);
            sent[to].push(wire_bytes::encode_packet(&pkt, 0));
            tx.send(&mut w, &mut ctx, pkt);
        }
        assert_eq!(tx.stats.tx_calls, 0, "a corked backend holds its frames");
        tx.flush();
        assert_eq!((tx.stats.tx_frames, tx.stats.tx_errors), (100, 0));
        if batching {
            assert!(tx.stats.tx_calls < tx.stats.tx_frames, "{:?}", tx.stats);
        } else {
            assert_eq!(tx.stats.tx_calls, tx.stats.tx_frames);
        }

        for (rx, sent) in rx.iter_mut().zip(&sent) {
            let got = rx.poll_ingress(&mut ctx, &mut w.pool);
            let got: Vec<Vec<u8>> = got.iter().map(|p| wire_bytes::encode_packet(p, 0)).collect();
            assert_eq!(&got, sent, "frames reordered, lost or altered");
            assert_eq!(rx.stats.rx_bad_crc + rx.stats.rx_bad_frame + rx.stats.rx_errors, 0);
            if batching {
                assert!(rx.stats.rx_calls < rx.stats.rx_frames, "{:?}", rx.stats);
            }
        }

        // Outside a batch a send is written before it returns.
        let calls = tx.stats.tx_calls;
        tx.send(&mut w, &mut ctx, data_packet(1000, 64));
        assert_eq!((tx.stats.tx_calls, tx.stats.tx_frames), (calls + 1, 101));
        assert_eq!(rx[0].poll_ingress(&mut ctx, &mut w.pool).len(), 1);
    }

    #[test]
    #[ignore = "opens loopback sockets; CI's live-smoke job runs it"]
    fn udp_loopback_corked_batch_is_segmented_and_arrives_intact() {
        corked_batch_arrives_intact(false);
    }

    #[test]
    #[ignore = "opens loopback sockets; CI's live-smoke job runs it"]
    fn udp_loopback_segment_limit_one_sends_frame_by_frame() {
        corked_batch_arrives_intact(true);
    }
}
