//! The fig8 ping-pong sweep over **real UDP sockets** on loopback.
//!
//! Two [`LiveNode`]s live in this process, each with its own [`World`],
//! standalone scheduler context, and nonblocking
//! [`transport::backend::udp::UdpBackend`] bound to `127.0.0.1:0`. Every
//! frame between them is a real datagram through the kernel: serialized by
//! `wire_bytes::encode_packet_into`, written a run of datagrams per syscall,
//! CRC32c/checksum-verified and decoded on the far side, and dispatched
//! into the *unmodified* TCP and SCTP engines.
//! Nothing here is deterministic — the kernel schedules the datagrams and
//! the wall clock drives the timers — which is exactly the point: it is the
//! repo's first datapoint that the simulated engines speak a coherent wire
//! protocol end to end.
//!
//! The sweep mirrors `bench fig8` (same sizes, same iteration
//! counts, same one-way-throughput metric, same BENCH report schema) so the
//! live and simulated curves land side by side in EXPERIMENTS.md.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use backend::LiveNode;
use bytes::Bytes;
use netsim::{IfAddr, NetCfg};
use transport::backend::udp::{UdpBackend, UdpStats};
use transport::sctp::{self, SctpCfg};
use transport::tcp::{self, TcpCfg};
use transport::World;

use crate::paper::{fig8_sweep, Fig8Point};
use crate::runner::{BenchReport, CellMeter};
use crate::{Scale, SEED_BASE};

/// Engine-side port both endpoints use (the OS-side ports are ephemeral).
const PORT: u16 = 5000;

/// Per-cell wall-clock budget before the harness declares the pair wedged.
/// Generous: a healthy loopback cell finishes in well under a second.
const CELL_TIMEOUT: Duration = Duration::from_secs(30);

/// One ping-pong cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LiveCell {
    /// One-way payload throughput, bytes/second (the fig8 metric).
    pub throughput: f64,
    /// Mean round-trip time per iteration, seconds.
    pub rtt: f64,
    /// Reactor events fired across both nodes (timers + deliveries).
    pub events: u64,
    /// Wall seconds the whole cell took (handshake + timed loop).
    pub wall_secs: f64,
    /// Virtual seconds the initiator's clock covered (tracks wall).
    pub sim_secs: f64,
    /// Combined socket-driver counters for both nodes.
    pub udp: UdpStats,
}

struct LivePair {
    a: LiveNode,
    b: LiveNode,
}

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address")
}

/// Build two worlds wired to each other through real loopback sockets.
/// `wire_safe_ids` keeps the SCTP verification tags inside the wire's
/// 32-bit fields (see [`SctpCfg::wire_safe_ids`]); everything else is the
/// paper configuration both engines run under in the simulator.
fn live_pair(seed: u64, tracer: Option<&trace::Tracer>) -> LivePair {
    let sctp_cfg = SctpCfg { wire_safe_ids: true, ..SctpCfg::default() };
    let mut wa = World::new(NetCfg::paper_cluster(0.0), TcpCfg::default(), sctp_cfg.clone());
    let mut wb = World::new(NetCfg::paper_cluster(0.0), TcpCfg::default(), sctp_cfg);
    let mut ua = UdpBackend::bind(loopback()).expect("bind loopback");
    let mut ub = UdpBackend::bind(loopback()).expect("bind loopback");
    let addr_a = ua.local_addr().expect("bound");
    let addr_b = ub.local_addr().expect("bound");
    // Host 0 lives in world A, host 1 in world B; route every interface of
    // the peer host to its one socket (singlehomed runs use iface 0 only).
    for iface in 0..3u8 {
        ua.add_peer(IfAddr::new(1, iface), addr_b);
        ub.add_peer(IfAddr::new(0, iface), addr_a);
    }
    wa.install_backend(Box::new(ua));
    wb.install_backend(Box::new(ub));
    let mut a = LiveNode::new(wa, seed);
    let mut b = LiveNode::new(wb, seed + 1);
    // Trace parity with the sim: both nodes share one flight recorder, so
    // a live pcapng holds egress and ingress of both directions.
    if let Some(t) = tracer {
        t.set_topology(2, 1);
        a.ctx.set_tracer(Some(t.clone()));
        b.ctx.set_tracer(Some(t.clone()));
    }
    LivePair { a, b }
}

impl LivePair {
    /// Poll both reactors until `done` or the deadline. Returns whether
    /// `done` was reached.
    fn spin(&mut self, deadline: Instant, mut done: impl FnMut(&mut LivePair) -> bool) -> bool {
        loop {
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            let worked_a = self.a.poll();
            let worked_b = self.b.poll();
            if !worked_a && !worked_b {
                std::thread::yield_now();
            }
        }
    }

    /// Timers fired plus packets dispatched: live deliveries arrive through
    /// the ingress pump, not as scheduler events.
    fn events(&self) -> u64 {
        [&self.a, &self.b].iter().map(|n| n.events_fired + n.ingress_delivered).sum()
    }

    /// The cell's outcome, its timed loop having started at `t0`.
    fn finish(&mut self, size: usize, iters: u32, t0: Instant, t_cell: Instant) -> LiveCell {
        let secs = t0.elapsed().as_secs_f64();
        LiveCell {
            throughput: size as f64 * iters as f64 / secs,
            rtt: secs / iters as f64,
            events: self.events(),
            wall_secs: t_cell.elapsed().as_secs_f64(),
            sim_secs: self.a.sim_secs(),
            udp: self.udp_stats(),
        }
    }

    fn udp_stats(&mut self) -> UdpStats {
        let mut total = UdpStats::default();
        for node in [&mut self.a, &mut self.b] {
            let b = node.world.backend.as_mut().expect("backend installed");
            if let Some(u) = b.as_any().downcast_mut::<UdpBackend>() {
                total += u.stats;
            }
        }
        total
    }
}

/// One live SCTP ping-pong cell: four-way handshake, then `iters` echoes of
/// a `size`-byte message on stream 0.
pub fn sctp_cell(size: usize, iters: u32, seed: u64, tracer: Option<&trace::Tracer>) -> LiveCell {
    let t_cell = Instant::now();
    let deadline = t_cell + CELL_TIMEOUT;
    let mut p = live_pair(seed, tracer);
    let ea = sctp::socket(&mut p.a.world, 0, PORT, false);
    let eb = sctp::socket(&mut p.b.world, 1, PORT, false);
    sctp::listen(&mut p.b.world, eb);
    let aa = sctp::connect(&mut p.a.world, &mut p.a.ctx, ea, 1, PORT);
    let ok = p.spin(deadline, |p| {
        matches!(sctp::assoc_state(&p.a.world, aa), sctp::AssocState::Established)
    });
    assert!(ok, "live SCTP handshake did not complete within {CELL_TIMEOUT:?}");
    let ab = sctp::lookup_peer(&p.b.world, eb, 0, PORT).expect("passive side established");

    let payload = Bytes::from(vec![0xA5u8; size]);
    let t0 = Instant::now();
    for i in 0..iters {
        sctp::sendmsg(&mut p.a.world, &mut p.a.ctx, aa, 0, 0, payload.clone())
            .unwrap_or_else(|e| panic!("ping {i} rejected: {e:?}"));
        let ok = p.spin(deadline, |p| sctp::readable(&p.b.world, eb));
        assert!(ok, "ping {i} never reached the echo side");
        let msg = sctp::recvmsg(&mut p.b.world, &mut p.b.ctx, eb).expect("readable");
        assert_eq!((msg.ssn, msg.len as usize), (i, size), "ping {i} arrived out of order or wrong-sized");
        sctp::sendmsg_v(&mut p.b.world, &mut p.b.ctx, ab, 0, 0, &msg.data)
            .unwrap_or_else(|e| panic!("echo {i} rejected: {e:?}"));
        let ok = p.spin(deadline, |p| sctp::readable(&p.a.world, ea));
        assert!(ok, "echo {i} never returned");
        let back = sctp::recvmsg(&mut p.a.world, &mut p.a.ctx, ea).expect("readable");
        assert_eq!((back.ssn, back.len as usize), (i, size), "echo {i} returned out of order or wrong-sized");
    }
    p.finish(size, iters, t0, t_cell)
}

/// One live TCP ping-pong cell: three-way handshake, then `iters` echoes of
/// `size` bytes each way over the byte stream.
pub fn tcp_cell(size: usize, iters: u32, seed: u64, tracer: Option<&trace::Tracer>) -> LiveCell {
    let t_cell = Instant::now();
    let deadline = t_cell + CELL_TIMEOUT;
    let mut p = live_pair(seed, tracer);
    tcp::listen(&mut p.b.world, 1, PORT);
    let sa = tcp::connect(&mut p.a.world, &mut p.a.ctx, 0, 1, PORT);
    let mut sb = None;
    let ok = p.spin(deadline, |p| {
        if sb.is_none() {
            sb = tcp::accept(&mut p.b.world, 1, PORT);
        }
        sb.is_some() && tcp::is_established(&p.a.world, sa)
    });
    assert!(ok, "live TCP handshake did not complete within {CELL_TIMEOUT:?}");
    let sb = sb.expect("accepted");

    let payload = Bytes::from(vec![0x5Au8; size]);
    let t0 = Instant::now();
    for i in 0..iters {
        // A → B: stream `size` bytes (retrying partial sends as the buffer
        // drains) while B swallows them.
        let (mut sent, mut got) = (0usize, 0usize);
        let ok = p.spin(deadline, |p| {
            if sent < size {
                let chunk = payload.slice(sent..size);
                sent += tcp::send(&mut p.a.world, &mut p.a.ctx, sa, std::iter::once(&chunk));
            }
            for b in tcp::recv(&mut p.b.world, &mut p.b.ctx, sb, size - got) {
                got += b.len();
            }
            got >= size
        });
        assert!(ok, "ping {i} never fully reached the echo side");
        // B → A: echo the same volume back.
        let (mut sent, mut got) = (0usize, 0usize);
        let ok = p.spin(deadline, |p| {
            if sent < size {
                let chunk = payload.slice(sent..size);
                sent += tcp::send(&mut p.b.world, &mut p.b.ctx, sb, std::iter::once(&chunk));
            }
            for b in tcp::recv(&mut p.a.world, &mut p.a.ctx, sa, size - got) {
                got += b.len();
            }
            got >= size
        });
        assert!(ok, "echo {i} never fully returned");
    }
    p.finish(size, iters, t0, t_cell)
}

/// The full fig8-style sweep over loopback: same sizes and iteration counts
/// as the sim's `bench fig8`, TCP and SCTP cells per size, one
/// [`BenchReport`] in the standard schema (fig `pingpong_live`).
pub fn live_fig8(scale: Scale) -> (Vec<Fig8Point>, BenchReport) {
    let t0 = Instant::now();
    let (sizes, iters) = fig8_sweep(scale);
    let tracer = trace::Tracer::from_env();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let seed = SEED_BASE + 2 * i as u64;
        let t = tcp_cell(size, iters, seed, tracer.as_ref());
        let s = sctp_cell(size, iters, seed + 1, tracer.as_ref());
        for (label, c) in [("tcp", &t), ("sctp", &s)] {
            assert_eq!(c.udp.rx_bad_crc, 0, "loopback must not corrupt frames");
            assert_eq!(c.udp.rx_bad_frame, 0, "own frames must decode");
            cells.push(CellMeter::new(format!("size={size} rpi={label} live"), c.wall_secs, 0, c));
        }
        rows.push((size, t.throughput, s.throughput));
    }
    if let Some(t) = &tracer {
        flush_live_trace(t);
    }
    let wall = t0.elapsed().as_secs_f64();
    (rows, BenchReport::new("pingpong_live", scale, 1, wall, None, cells))
}

/// `TRACE=1` file sink for live runs, mirroring the sim launcher's:
/// `traces/pingpong_live.{pcapng,jsonl}`. `analyze` reads these exactly
/// like a simulated capture.
fn flush_live_trace(t: &trace::Tracer) {
    let end = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(u64::MAX);
    let dump = t.dump(end);
    let dir = std::path::Path::new("traces");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join("pingpong_live.pcapng"), dump.write_pcapng());
    let _ = std::fs::write(dir.join("pingpong_live.jsonl"), dump.write_jsonl());
}
