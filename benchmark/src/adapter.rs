//! The one file that names the repo's workload, MPI and socket types; the
//! layer probes under `probes/` each name only their own layer.
//!
//! The timed path sticks to what ROADMAP's refactors keep:
//! `workloads::{pingpong::run, pingpong::run_stream, farm::run}`,
//! `MpiCfg::{tcp, sctp, with_seed}`, the result fields
//! `secs`/`events`/`tasks_done`/`net`/`sctp`, and for the live path the
//! `transport::{sctp, tcp}` socket calls, `backend::LiveNode` and
//! `UdpBackend`. It never reads `handoffs`, `wakes_coalesced` or the
//! wheel/burst meters (ROADMAP item 1 deletes them). Two things outside
//! that list are used off the timed path only: `MpiCfg.trace` (recorder
//! overhead) and `mpirun` + `farm::run_inline` (the farm's `NetStats` and
//! engine counters, which `FarmResult` does not carry).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use backend::LiveNode;
use bytes::Bytes;
use mpi_core::MpiCfg;
use netsim::{IfAddr, NetCfg, NetStats};
use transport::backend::udp::UdpBackend;
use transport::sctp::{self, AssocStats, SctpCfg};
use transport::tcp::{self, SockStats, TcpCfg};
use transport::World;
use workloads::{farm, pingpong};

use crate::span::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Sctp,
    Tcp,
}

impl Transport {
    pub const BOTH: [Transport; 2] = [Transport::Sctp, Transport::Tcp];

    pub fn name(self) -> &'static str {
        match self {
            Transport::Sctp => "sctp",
            Transport::Tcp => "tcp",
        }
    }
}

/// `NetStats`, reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    pub offered: u64,
    pub delivered: u64,
    pub drops: u64,
}

impl From<NetStats> for NetCounts {
    fn from(n: NetStats) -> Self {
        NetCounts {
            offered: n.packets_offered,
            delivered: n.packets_delivered,
            drops: n.drops_loss + n.drops_queue + n.drops_down,
        }
    }
}

/// One engine's counters. `data_out` is DATA chunks for SCTP and segments
/// for TCP (whose stats do not separate pure ACKs), retransmissions included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Payload bytes the engine handed to its reader.
    pub bytes_in: u64,
    pub data_out: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub sacks_out: u64,
}

impl From<AssocStats> for EngineCounts {
    fn from(s: AssocStats) -> Self {
        EngineCounts {
            bytes_in: s.bytes_in,
            data_out: s.data_chunks_out,
            retransmits: s.retransmits,
            timeouts: s.timeouts,
            sacks_out: s.sacks_out,
        }
    }
}

impl From<SockStats> for EngineCounts {
    fn from(s: SockStats) -> Self {
        EngineCounts {
            bytes_in: s.bytes_in,
            data_out: s.segs_out,
            retransmits: s.retransmits,
            timeouts: s.timeouts,
            sacks_out: 0,
        }
    }
}

impl std::ops::AddAssign for EngineCounts {
    fn add_assign(&mut self, o: Self) {
        self.bytes_in += o.bytes_in;
        self.data_out += o.data_out;
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.sacks_out += o.sacks_out;
    }
}

/// Everything a simulated run reports that one seed must reproduce exactly.
/// Fields a result type does not expose stay zero (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOut {
    pub events: u64,
    pub sim_ns: u64,
    pub tasks_done: u32,
    pub unexpected_peak: u32,
    pub net: NetCounts,
    pub engine: EngineCounts,
}

fn sim_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

fn mpi_cfg(t: Transport, ranks: u16, loss: f64, seed: u64, recorder: bool) -> MpiCfg {
    let mut cfg = match t {
        Transport::Sctp => MpiCfg::sctp(ranks, loss),
        Transport::Tcp => MpiCfg::tcp(ranks, loss),
    }
    .with_seed(seed);
    cfg.trace = recorder;
    cfg
}

fn pingpong_out(r: pingpong::PingPongResult, t: Transport) -> SimOut {
    SimOut {
        events: r.events,
        sim_ns: sim_ns(r.secs),
        net: r.net.into(),
        // `PingPongResult` carries the SCTP counters only.
        engine: if t == Transport::Sctp {
            r.sctp.into()
        } else {
            EngineCounts::default()
        },
        ..SimOut::default()
    }
}

/// 2-rank MPI ping-pong in the simulator, loss 0.
pub fn sim_pingpong(t: Transport, seed: u64, size: usize, iters: u32, recorder: bool) -> SimOut {
    let r = pingpong::run(
        mpi_cfg(t, 2, 0.0, seed, recorder),
        pingpong::PingPongCfg { size, iters },
    );
    pingpong_out(r, t)
}

/// 2-rank one-way MPI stream in the simulator, loss 0.
pub fn sim_stream(t: Transport, seed: u64, size: usize, count: u32, recorder: bool) -> SimOut {
    let r = pingpong::run_stream(
        mpi_cfg(t, 2, 0.0, seed, recorder),
        pingpong::StreamCfg { size, count },
    );
    pingpong_out(r, t)
}

/// The farm rep: short (eager) tasks, then long (rendezvous) tasks.
#[derive(Debug, Clone, Copy)]
pub struct FarmShape {
    pub ranks: u16,
    pub fanout: u32,
    pub loss: f64,
    /// (task count, task bytes) of each of the two halves.
    pub halves: [(u32, usize); 2],
}

impl FarmShape {
    fn cfg(&self, half: usize) -> farm::FarmCfg {
        let (num_tasks, task_bytes) = self.halves[half];
        farm::FarmCfg {
            num_tasks,
            ..farm::FarmCfg::paper(task_bytes, self.fanout)
        }
    }

    pub fn tasks(&self) -> u64 {
        self.halves.iter().map(|h| h.0 as u64).sum()
    }

    pub fn payload_bytes(&self) -> u64 {
        self.halves.iter().map(|h| h.0 as u64 * h.1 as u64).sum()
    }

    /// User messages one rep completes: every task, every worker request
    /// (one per batch plus the initial `outstanding` per worker), and one
    /// termination message per initial request.
    pub fn messages(&self) -> u64 {
        let workers = (self.ranks - 1) as u64;
        (0..2)
            .map(|h| {
                let c = self.cfg(h);
                let initial = c.outstanding as u64 * workers;
                c.num_tasks as u64 + (c.num_tasks / c.fanout) as u64 + 2 * initial
            })
            .sum()
    }
}

/// The farm through its public entry point (the timed path).
pub fn sim_farm(t: Transport, seed: u64, shape: &FarmShape, recorder: bool) -> SimOut {
    let mut out = SimOut::default();
    for half in 0..2 {
        let r = farm::run(
            mpi_cfg(t, shape.ranks, shape.loss, seed, recorder),
            shape.cfg(half),
        );
        out.events += r.events;
        out.sim_ns += sim_ns(r.secs);
        out.tasks_done += r.tasks_done;
        out.unexpected_peak = out.unexpected_peak.max(r.unexpected_peak as u32);
    }
    out
}

/// The same farm rep under `mpirun` directly, for the counters `FarmResult`
/// leaves out. `tasks_done` and `unexpected_peak` stay zero here; `events`
/// and `sim_ns` must equal [`sim_farm`]'s for the same seed.
pub fn sim_farm_counts(t: Transport, seed: u64, shape: &FarmShape) -> SimOut {
    let mut out = SimOut::default();
    for half in 0..2 {
        let fcfg = shape.cfg(half);
        let r = mpi_core::mpirun(
            mpi_cfg(t, shape.ranks, shape.loss, seed, false),
            move |mpi| farm::run_inline(mpi, fcfg),
        );
        out.events += r.events;
        out.sim_ns += sim_ns(r.secs());
        let n: NetCounts = r.net.into();
        out.net.offered += n.offered;
        out.net.delivered += n.delivered;
        out.net.drops += n.drops;
        out.engine += match t {
            Transport::Sctp => r.sctp.into(),
            Transport::Tcp => r.tcp.into(),
        };
    }
    out
}

// ---------------------------------------------------------------------------
// Live path: two `LiveNode`s in this thread over UDP on 127.0.0.1.
// ---------------------------------------------------------------------------

/// Engine-side port both endpoints use (the OS ports are ephemeral).
const PORT: u16 = 5000;
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);
/// A round trip that takes longer than this has failed.
const ROUND_TRIP_DEADLINE: Duration = Duration::from_secs(1);
/// SCTP DATA carries a `u32` SSN in the engine but `wire_bytes.rs` writes
/// 16 bits, so the 65 537th message on a stream is never delivered. Stay
/// well below on one association.
pub const MAX_LIVE_ROUND_TRIPS: u32 = 50_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct UdpCounts {
    pub tx_frames: u64,
    pub rx_bad: u64,
    pub tx_errors: u64,
}

#[derive(Debug, Default)]
pub struct LiveOut {
    /// Round trips whose echo came back intact and in time.
    pub completed: u64,
    /// Why a round trip failed, if one did; the rep stops there.
    pub error: Option<String>,
    /// Wall time of the round-trip loop (binds and handshake excluded).
    pub loop_ns: u64,
    pub rtt_ns: Vec<u32>,
    /// Reactor events fired on both nodes.
    pub events: u64,
    /// `LiveNode::poll` calls, and how many of them found nothing to do.
    pub polls: u64,
    pub empty_polls: u64,
    pub udp: UdpCounts,
    pub engine: EngineCounts,
}

struct Pair {
    a: LiveNode,
    b: LiveNode,
    polls: u64,
    empty_polls: u64,
}

impl Pair {
    /// Two worlds wired to each other through loopback sockets: host 0
    /// lives in world A, host 1 in world B. `wire_safe_ids` keeps SCTP
    /// verification tags inside the wire's 32-bit fields.
    fn bind(seed: u64) -> std::io::Result<Pair> {
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
        let sctp_cfg = SctpCfg {
            wire_safe_ids: true,
            ..SctpCfg::default()
        };
        let mut wa = World::new(
            NetCfg::paper_cluster(0.0),
            TcpCfg::default(),
            sctp_cfg.clone(),
        );
        let mut wb = World::new(NetCfg::paper_cluster(0.0), TcpCfg::default(), sctp_cfg);
        let mut ua = UdpBackend::bind(loopback)?;
        let mut ub = UdpBackend::bind(loopback)?;
        ua.add_peer(IfAddr::new(1, 0), ub.local_addr()?);
        ub.add_peer(IfAddr::new(0, 0), ua.local_addr()?);
        wa.install_backend(Box::new(ua));
        wb.install_backend(Box::new(ub));
        Ok(Pair {
            a: LiveNode::new(wa, seed),
            b: LiveNode::new(wb, seed ^ 0x5EED),
            polls: 0,
            empty_polls: 0,
        })
    }

    /// Poll both reactors once.
    fn sweep(&mut self, rec: &mut Recorder) {
        rec.enter("poll");
        let worked_a = self.a.poll();
        let worked_b = self.b.poll();
        rec.exit();
        self.polls += 2;
        self.empty_polls += !worked_a as u64 + !worked_b as u64;
        if !worked_a && !worked_b {
            std::thread::yield_now();
        }
    }

    fn sweep_until(
        &mut self,
        rec: &mut Recorder,
        deadline: Instant,
        what: &str,
        mut done: impl FnMut(&mut Pair) -> bool,
    ) -> Result<(), String> {
        while !done(self) {
            if Instant::now() >= deadline {
                return Err(format!("{what}: deadline passed"));
            }
            self.sweep(rec);
        }
        Ok(())
    }

    fn udp_counts(&mut self) -> UdpCounts {
        let mut total = UdpCounts::default();
        for node in [&mut self.a, &mut self.b] {
            let backend = node.world.backend.as_mut().expect("backend installed");
            if let Some(u) = backend.as_any().downcast_mut::<UdpBackend>() {
                total.tx_frames += u.stats.tx_frames;
                total.rx_bad += u.stats.rx_bad_crc + u.stats.rx_bad_frame;
                total.tx_errors += u.stats.tx_errors + u.stats.tx_no_route;
            }
        }
        total
    }
}

/// Do the fragments of `got` spell out `want[at..at + len]`?
fn same_bytes(got: &[Bytes], want: &[u8]) -> bool {
    let mut at = 0;
    for frag in got {
        let Some(w) = want.get(at..at + frag.len()) else {
            return false;
        };
        if frag[..] != *w {
            return false;
        }
        at += frag.len();
    }
    at == want.len()
}

/// Closed-loop ping-pong of `payload` over a fresh association: `iters`
/// round trips, each checked byte for byte. Spans go to `rec` (iteration →
/// send / poll / recv); pass an off recorder for the untraced runs.
pub fn live_pingpong(
    t: Transport,
    seed: u64,
    payload: &Bytes,
    iters: u32,
    rec: &mut Recorder,
) -> LiveOut {
    assert!(
        iters <= MAX_LIVE_ROUND_TRIPS,
        "SSN wraps on the wire after 65 536 messages"
    );
    let mut out = LiveOut {
        rtt_ns: Vec::with_capacity(iters as usize),
        ..LiveOut::default()
    };
    let mut pair = match Pair::bind(seed) {
        Ok(p) => p,
        Err(e) => {
            out.error = Some(format!("bind 127.0.0.1: {e}"));
            return out;
        }
    };
    let result = match t {
        Transport::Sctp => sctp_loop(&mut pair, payload, iters, rec, &mut out),
        Transport::Tcp => tcp_loop(&mut pair, payload, iters, rec, &mut out),
    };
    out.error = result.err();
    out.events = pair.a.events_fired + pair.b.events_fired;
    out.polls = pair.polls;
    out.empty_polls = pair.empty_polls;
    out.udp = pair.udp_counts();
    out
}

/// The timed loop both transports share: `iters` round trips, each one a
/// span, a deadline and an RTT sample. Stops at the first failure.
fn round_trips(
    p: &mut Pair,
    iters: u32,
    rec: &mut Recorder,
    out: &mut LiveOut,
    mut trip: impl FnMut(&mut Pair, &mut Recorder, Instant) -> Result<(), String>,
) -> Result<(), String> {
    (p.polls, p.empty_polls) = (0, 0);
    let t_loop = Instant::now();
    for i in 0..iters {
        rec.set_iter(i);
        rec.enter("iteration");
        let t0 = Instant::now();
        let result = trip(p, rec, t0 + ROUND_TRIP_DEADLINE);
        out.rtt_ns.push(t0.elapsed().as_nanos() as u32);
        rec.exit();
        result.map_err(|e| format!("round trip {i}: {e}"))?;
        out.completed += 1;
    }
    out.loop_ns = t_loop.elapsed().as_nanos() as u64;
    Ok(())
}

fn sctp_loop(
    p: &mut Pair,
    payload: &Bytes,
    iters: u32,
    rec: &mut Recorder,
    out: &mut LiveOut,
) -> Result<(), String> {
    let ea = sctp::socket(&mut p.a.world, 0, PORT, false);
    let eb = sctp::socket(&mut p.b.world, 1, PORT, false);
    sctp::listen(&mut p.b.world, eb);
    let aa = sctp::connect(&mut p.a.world, &mut p.a.ctx, ea, 1, PORT);
    let handshake = Instant::now() + HANDSHAKE_DEADLINE;
    p.sweep_until(
        &mut Recorder::new(false),
        handshake,
        "SCTP handshake",
        |p| {
            matches!(
                sctp::assoc_state(&p.a.world, aa),
                sctp::AssocState::Established
            )
        },
    )?;
    let ab = sctp::lookup_peer(&p.b.world, eb, 0, PORT).ok_or("no passive association")?;

    round_trips(p, iters, rec, out, |p, rec, deadline| {
        rec.enter("send");
        let sent = sctp::sendmsg(&mut p.a.world, &mut p.a.ctx, aa, 0, 0, payload.clone());
        rec.exit();
        sent.map_err(|e| format!("ping rejected: {e:?}"))?;
        p.sweep_until(rec, deadline, "ping", |p| sctp::readable(&p.b.world, eb))?;
        rec.enter("recv");
        let msg = sctp::recvmsg(&mut p.b.world, &mut p.b.ctx, eb);
        rec.exit();
        let msg = msg.ok_or("readable endpoint had no message")?;
        rec.enter("send");
        let sent = sctp::sendmsg_v(&mut p.b.world, &mut p.b.ctx, ab, 0, 0, &msg.data);
        rec.exit();
        sent.map_err(|e| format!("echo rejected: {e:?}"))?;
        p.sweep_until(rec, deadline, "echo", |p| sctp::readable(&p.a.world, ea))?;
        rec.enter("recv");
        let back = sctp::recvmsg(&mut p.a.world, &mut p.a.ctx, ea);
        rec.exit();
        let back = back.ok_or("readable endpoint had no message")?;
        if !same_bytes(&back.data, payload) {
            return Err("echo returned different bytes".into());
        }
        Ok(())
    })?;
    out.engine += sctp::stats(&p.a.world, aa).into();
    out.engine += sctp::stats(&p.b.world, ab).into();
    Ok(())
}

/// Stream `payload` one way over TCP, checking the bytes as they arrive.
#[allow(clippy::too_many_arguments)]
fn tcp_transfer(
    p: &mut Pair,
    a_to_b: bool,
    sa: tcp::SockId,
    sb: tcp::SockId,
    payload: &Bytes,
    scratch: &mut Vec<Bytes>,
    rec: &mut Recorder,
    deadline: Instant,
) -> Result<(), String> {
    let size = payload.len();
    let (mut sent, mut got) = (0usize, 0usize);
    loop {
        let (src, dst, s_src, s_dst) = if a_to_b {
            (&mut p.a, &mut p.b, sa, sb)
        } else {
            (&mut p.b, &mut p.a, sb, sa)
        };
        if sent < size {
            rec.enter("send");
            let rest = payload.slice(sent..size);
            sent += tcp::send(&mut src.world, &mut src.ctx, s_src, std::iter::once(&rest));
            rec.exit();
        }
        rec.enter("recv");
        scratch.clear();
        tcp::recv_into(&mut dst.world, &mut dst.ctx, s_dst, size - got, scratch);
        rec.exit();
        for chunk in scratch.iter() {
            if payload.get(got..got + chunk.len()) != Some(&chunk[..]) {
                return Err("stream delivered different bytes".into());
            }
            got += chunk.len();
        }
        if got >= size {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("transfer: deadline passed".into());
        }
        p.sweep(rec);
    }
}

fn tcp_loop(
    p: &mut Pair,
    payload: &Bytes,
    iters: u32,
    rec: &mut Recorder,
    out: &mut LiveOut,
) -> Result<(), String> {
    tcp::listen(&mut p.b.world, 1, PORT);
    let sa = tcp::connect(&mut p.a.world, &mut p.a.ctx, 0, 1, PORT);
    let mut accepted = None;
    let handshake = Instant::now() + HANDSHAKE_DEADLINE;
    p.sweep_until(&mut Recorder::new(false), handshake, "TCP handshake", |p| {
        if accepted.is_none() {
            accepted = tcp::accept(&mut p.b.world, 1, PORT);
        }
        accepted.is_some() && tcp::is_established(&p.a.world, sa)
    })?;
    let sb = accepted.expect("handshake completed");

    let mut scratch = Vec::new();
    round_trips(p, iters, rec, out, |p, rec, deadline| {
        tcp_transfer(p, true, sa, sb, payload, &mut scratch, rec, deadline)?;
        tcp_transfer(p, false, sa, sb, payload, &mut scratch, rec, deadline)
    })?;
    out.engine += tcp::stats(&p.a.world, sa).into();
    out.engine += tcp::stats(&p.b.world, sb).into();
    Ok(())
}
