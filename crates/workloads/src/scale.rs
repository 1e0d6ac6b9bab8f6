//! Fan-in workloads on the real engines: incast (N senders into one
//! receiver) and many-tenant sharing (T flows over S receivers).
//!
//! Each flow is one SCTP association or one TCP connection carrying one
//! block, driven through the raw `transport::{sctp,tcp}` socket API on the
//! ordinary [`Runtime`], as [`crate::media`] drives it: no MPI layer.
//! Engine settings are the defaults every other figure runs with (the
//! era's RTOs, 3 s initial and 1 s minimum; 220 KiB buffers). Every host
//! has one interface: the paper cluster's three would give SCTP two
//! alternate retransmission paths that TCP cannot use.
//!
//! * SCTP: a sender `sendmsg`s its block in pieces of at most 64 KiB
//!   with `ppid = flow id` (a send is all-or-nothing and a
//!   whole block may not fit the send buffer); one receiver process per
//!   destination endpoint sorts messages by PPID.
//! * TCP: a sender writes with partial `tcp::send`; one accepting reader
//!   per flow reads until its block is in.
//!
//! A flow completes when its last byte reaches the receiving application.

use std::cell::Cell;
use std::rc::Rc;

use mpi_core::MpiReport;
use netsim::{NetCfg, NetStats};
use simcore::{Dur, ProcEnv, Runtime, SchedCounters, SimTime};
use transport::sctp::{self, AssocStats, SctpCfg};
use transport::tcp::{self, SockStats, TcpCfg};
use transport::World;

use crate::zeros;

type Env = ProcEnv<World>;

/// Largest SCTP message a sender offers: a 256 KiB block would not fit
/// the 220 KiB send buffer as one all-or-nothing message.
const PIECE: usize = 64 * 1024;
/// The port every endpoint and listener uses.
const PORT: u16 = 5_001;

/// One transfer: a block from host `src` to host `dst`, offered at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub src: u16,
    pub dst: u16,
    pub start: SimTime,
}

/// A fan-in run. Every flow has its own source host, and no host both
/// sends and receives.
#[derive(Debug, Clone)]
pub struct FanInCfg {
    pub flows: Vec<Flow>,
    /// Payload bytes per flow.
    pub block: usize,
    pub seed: u64,
}

impl FanInCfg {
    /// `senders` synchronized flows into host 0: the incast benchmark.
    pub fn incast(senders: u16, block: usize, seed: u64) -> FanInCfg {
        let flows = (1..=senders).map(|src| Flow { src, dst: 0, start: SimTime::ZERO }).collect();
        FanInCfg { flows, block, seed }
    }

    /// `tenants` flows over `servers` receivers round-robin, the starts
    /// 50 µs apart so arrival waves interleave.
    pub fn tenants(tenants: u16, servers: u16, block: usize, seed: u64) -> FanInCfg {
        let flows = (0..tenants)
            .map(|t| Flow {
                src: servers + t,
                dst: t % servers,
                start: SimTime::ZERO + Dur::from_micros(50 * t as u64),
            })
            .collect();
        FanInCfg { flows, block, seed }
    }
}

/// Which engine carries the flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Sctp,
    Tcp,
}

impl Transport {
    pub fn name(self) -> &'static str {
        match self {
            Transport::Sctp => "sctp",
            Transport::Tcp => "tcp",
        }
    }
}

/// What a fan-in run measured: every layer's counters, as
/// [`MpiReport::collect`] gathers them, plus when each flow completed.
#[derive(Debug, Clone)]
pub struct FanInResult {
    /// Completion instant of each flow, ns, in flow order.
    pub flow_done_ns: Vec<u64>,
    pub secs: f64,
    pub events: u64,
    pub sched: SchedCounters,
    pub net: NetStats,
    /// Zero in an SCTP run.
    pub tcp: SockStats,
    /// Zero in a TCP run.
    pub sctp: AssocStats,
}

impl FanInResult {
    /// Completion instant of the last flow, ns.
    pub fn last_done_ns(&self) -> u64 {
        self.flow_done_ns.iter().copied().max().unwrap_or(0)
    }

    /// Aggregate goodput from time zero to the last completion, Mb/s.
    pub fn goodput_mbps(&self, payload_bytes_total: u64) -> f64 {
        match self.last_done_ns() {
            0 => 0.0,
            t => (payload_bytes_total * 8) as f64 / t as f64 * 1e3,
        }
    }

    /// Retransmission-timer expiries of whichever transport ran.
    pub fn timeouts(&self) -> u64 {
        self.sctp.timeouts + self.tcp.timeouts
    }

    /// Retransmitted DATA chunks or segments, any cause.
    pub fn retransmits(&self) -> u64 {
        self.sctp.retransmits + self.tcp.retransmits
    }

    /// Fast retransmissions.
    pub fn fast_retransmits(&self) -> u64 {
        self.sctp.fast_retransmits + self.tcp.fast_retransmits
    }
}

/// Run every flow of `cfg` to completion over `transport`.
pub fn run(cfg: &FanInCfg, transport: Transport) -> FanInResult {
    let hosts = cfg.flows.iter().map(|f| f.src.max(f.dst) + 1).max().unwrap_or(1);
    // Flow id by source host; receivers use it to name what they accept.
    let mut flow_of = vec![usize::MAX; hosts as usize];
    for (id, f) in cfg.flows.iter().enumerate() {
        assert_eq!(flow_of[f.src as usize], usize::MAX, "host {} sources two flows", f.src);
        flow_of[f.src as usize] = id;
    }
    let mut dsts: Vec<u16> = cfg.flows.iter().map(|f| f.dst).collect();
    dsts.sort_unstable();
    dsts.dedup();
    assert!(dsts.iter().all(|&d| flow_of[d as usize] == usize::MAX), "a host both sends and receives");

    let net = NetCfg { hosts, ifaces_per_host: 1, ..NetCfg::default() };
    let mut world = World::new(net, TcpCfg::default(), SctpCfg::default());
    let done: Rc<[Cell<u64>]> = cfg.flows.iter().map(|_| Cell::new(0)).collect();
    let flow_of: Rc<[usize]> = flow_of.into();
    let block = cfg.block;
    match transport {
        Transport::Sctp => {
            let sinks: Vec<_> = dsts
                .iter()
                .map(|&d| {
                    let ep = sctp::socket(&mut world, d, PORT, true);
                    sctp::listen(&mut world, ep);
                    (d, ep)
                })
                .collect();
            let mut rt = Runtime::new(world, cfg.seed);
            for (d, ep) in sinks {
                let expect = cfg.flows.iter().filter(|f| f.dst == d).count();
                let done = done.clone();
                rt.spawn(format!("sink{d}"), move |env: Env| async move {
                    let me = env.id();
                    let mut got = vec![0usize; done.len()];
                    let mut complete = 0;
                    while complete < expect {
                        let m = env
                            .block_on(|w, ctx| {
                                sctp::recvmsg(w, ctx, ep).or_else(|| {
                                    sctp::register_reader(w, ep, me);
                                    None
                                })
                            })
                            .await;
                        let f = m.ppid as usize;
                        got[f] += m.len as usize;
                        assert!(got[f] <= block, "flow {f} delivered {} of a {block}-byte block", got[f]);
                        if got[f] == block {
                            done[f].set(env.now().as_nanos());
                            complete += 1;
                        }
                    }
                });
            }
            for (id, f) in cfg.flows.iter().copied().enumerate() {
                rt.spawn(format!("flow{id}"), move |env: Env| async move {
                    sleep_until(&env, f.start).await;
                    let me = env.id();
                    let ep = env.with(|w, _| sctp::socket(w, f.src, PORT, true));
                    let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, f.dst, PORT));
                    env.block_on(|w, _| match sctp::assoc_state(w, a) {
                        sctp::AssocState::Established => Some(()),
                        sctp::AssocState::Aborted => panic!("flow {id}: association failed during setup"),
                        _ => {
                            sctp::register_writer(w, ep, me);
                            None
                        }
                    })
                    .await;
                    for at in (0..block).step_by(PIECE) {
                        let n = PIECE.min(block - at);
                        env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, 0, id as u32, zeros(n)) {
                            Ok(()) => Some(()),
                            Err(sctp::SendErr::WouldBlock) => {
                                sctp::register_writer_for(w, a, n as u64, me);
                                None
                            }
                            Err(e) => panic!("flow {id}: sendmsg failed: {e:?}"),
                        })
                        .await;
                    }
                });
            }
            finish(rt, &done)
        }
        Transport::Tcp => {
            for &d in &dsts {
                tcp::listen(&mut world, d, PORT);
            }
            let mut rt = Runtime::new(world, cfg.seed);
            for (id, f) in cfg.flows.iter().copied().enumerate() {
                let (done, flow_of) = (done.clone(), flow_of.clone());
                rt.spawn(format!("reader{id}"), move |env: Env| async move {
                    let me = env.id();
                    let s = env
                        .block_on(|w, _| {
                            tcp::accept(w, f.dst, PORT).or_else(|| {
                                tcp::register_acceptor(w, f.dst, PORT, me);
                                None
                            })
                        })
                        .await;
                    let from = env.with(|w, _| flow_of[tcp::peer_of(w, s).0 as usize]);
                    let (mut got, mut scratch) = (0, Vec::new());
                    while got < block {
                        got += env
                            .block_on(|w, ctx| {
                                scratch.clear();
                                tcp::recv_into(w, ctx, s, block - got, &mut scratch);
                                let n: usize = scratch.iter().map(|b| b.len()).sum();
                                assert!(!tcp::is_failed(w, s), "flow {from}: connection failed");
                                if n == 0 {
                                    tcp::register_reader(w, s, me);
                                }
                                (n > 0).then_some(n)
                            })
                            .await;
                    }
                    done[from].set(env.now().as_nanos());
                });
            }
            for (id, f) in cfg.flows.iter().copied().enumerate() {
                rt.spawn(format!("flow{id}"), move |env: Env| async move {
                    sleep_until(&env, f.start).await;
                    let me = env.id();
                    let s = env.with(|w, ctx| tcp::connect(w, ctx, f.src, f.dst, PORT));
                    let mut left = block;
                    while left > 0 {
                        let payload = zeros(left);
                        left -= env
                            .block_on(|w, ctx| {
                                assert!(!tcp::is_failed(w, s), "flow {id}: connection failed");
                                match tcp::send(w, ctx, s, [&payload]) {
                                    0 => {
                                        tcp::register_writer(w, s, me);
                                        None
                                    }
                                    n => Some(n),
                                }
                            })
                            .await;
                    }
                });
            }
            finish(rt, &done)
        }
    }
}

async fn sleep_until(env: &Env, at: SimTime) {
    let now = env.now();
    if at > now {
        env.sleep(at.since(now)).await;
    }
}

fn finish(rt: Runtime<World>, done: &[Cell<u64>]) -> FanInResult {
    let out = rt.run();
    let r = MpiReport::collect(&out);
    FanInResult {
        flow_done_ns: done.iter().map(Cell::get).collect(),
        secs: r.secs(),
        events: r.events,
        sched: r.sched,
        net: r.net,
        tcp: r.tcp,
        sctp: r.sctp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [Transport; 2] = [Transport::Sctp, Transport::Tcp];

    /// Every flow completed, and none sooner than its block can cross a
    /// 1 Gb/s link after it started (8 ns a byte). Receivers complete a
    /// flow at exactly its block: an SCTP receiver panics on a byte more,
    /// a TCP reader reads no further.
    fn assert_all_delivered(cfg: &FanInCfg, r: &FanInResult, t: Transport) {
        assert_eq!(r.flow_done_ns.len(), cfg.flows.len());
        for (f, (spec, &done)) in cfg.flows.iter().zip(&r.flow_done_ns).enumerate() {
            let floor = spec.start.as_nanos() + 8 * cfg.block as u64;
            assert!(done >= floor, "{t:?} flow {f}: done at {done} ns, started {:?}", spec.start);
        }
    }

    #[test]
    fn small_incast_delivers_every_block() {
        let cfg = FanInCfg::incast(8, 32 * 1024, 0xC0FFEE);
        for t in BOTH {
            assert_all_delivered(&cfg, &run(&cfg, t), t);
        }
    }

    #[test]
    fn tenants_complete() {
        let cfg = FanInCfg::tenants(16, 4, 32 * 1024, 7);
        for t in BOTH {
            let r = run(&cfg, t);
            assert_all_delivered(&cfg, &r, t);
            assert!(r.goodput_mbps(16 * 32 * 1024) > 0.0);
        }
    }

    #[test]
    fn lossy_run_is_seed_stable() {
        let cfg = FanInCfg::incast(64, 16 * 1024, 42);
        for t in BOTH {
            let (a, b) = (run(&cfg, t), run(&cfg, t));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{t:?}");
        }
    }

    /// The collapse the incast figure exists to show: 64 synchronized
    /// senders overflow the victim's downlink queue, and the loss costs
    /// at least one retransmission timeout.
    #[test]
    fn incast_completes_and_collapses() {
        let cfg = FanInCfg::incast(64, 16 * 1024, 0xBA5E);
        for t in BOTH {
            let r = run(&cfg, t);
            assert_all_delivered(&cfg, &r, t);
            assert!(r.net.drops_queue > 0, "{t:?}: synchronized flows must overflow the victim queue");
            assert!(r.timeouts() > 0, "{t:?}: {r:?}");
        }
    }
}
