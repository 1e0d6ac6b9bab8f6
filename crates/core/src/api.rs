//! The MPI-like user API: point-to-point sends/receives (blocking and
//! nonblocking), waits, and the progression loop that drives the RPI.

use bytes::Bytes;
use simcore::{Dur, ProcEnv, SimTime};
use transport::World;

use crate::comm::CommData;
use crate::cost::{CostCfg, CpuMeter};
use crate::matching::{Core, ReqId, Status};
use crate::rpi_sctp::{ContextMap, RaceFix, SctpRpi};
use crate::rpi_tcp::TcpRpi;

/// MPI_ANY_SOURCE.
pub const ANY_SOURCE: Option<u16> = None;
/// MPI_ANY_TAG.
pub const ANY_TAG: Option<i32> = None;

/// The user-data context (MPI_COMM_WORLD).
pub const CXT_WORLD: u32 = 0;
/// The collectives' reserved context (CXT_WORLD + 1; kept for reference —
/// collective contexts are always `comm.cxt + 1`).
#[allow(dead_code)]
pub(crate) const CXT_COLL: u32 = 1;

/// A received message: zero-copy chunks plus total length.
#[derive(Debug, Default)]
pub struct Msg {
    pub chunks: Vec<Bytes>,
    pub len: usize,
}

impl Msg {
    /// Flatten into one contiguous buffer (copies; tests/reductions only).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for c in &self.chunks {
            v.extend_from_slice(c);
        }
        v
    }
}

/// Which RPI this process runs on.
pub(crate) enum Rpi {
    Tcp(TcpRpi),
    Sctp(SctpRpi),
}

impl Rpi {
    fn progress(
        &mut self,
        w: &mut World,
        ctx: &mut transport::Wx,
        core: &mut Core,
        cost: &CostCfg,
        meter: &mut CpuMeter,
    ) -> bool {
        match self {
            Rpi::Tcp(r) => r.progress(w, ctx, core, cost, meter),
            Rpi::Sctp(r) => r.progress(w, ctx, core, meter),
        }
    }

    fn register(&self, w: &mut World, me: simcore::ProcId) {
        match self {
            Rpi::Tcp(r) => r.register(w, me),
            Rpi::Sctp(r) => r.register(w, me),
        }
    }

    fn enqueue(
        &mut self,
        peer: u16,
        env: crate::envelope::Envelope,
        body: Vec<Bytes>,
        req: Option<ReqId>,
    ) {
        match self {
            Rpi::Tcp(r) => r.enqueue(peer, env, body, req),
            Rpi::Sctp(r) => r.enqueue(peer, env, body, req),
        }
    }

    fn has_pending_writes(&self) -> bool {
        match self {
            Rpi::Tcp(r) => r.has_pending_writes(),
            Rpi::Sctp(r) => r.has_pending_writes(),
        }
    }
}

/// Per-process middleware statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MpiStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Simulated time spent parked waiting for progress.
    pub blocked: Dur,
    /// Progression passes that moved nothing before the rank parked:
    /// every wake that bought no progress shows up here.
    pub idle_passes: u64,
}

impl std::ops::AddAssign for MpiStats {
    fn add_assign(&mut self, other: Self) {
        // Destructured so that a new counter does not compile until it is
        // summed here.
        let MpiStats { sends, recvs, bytes_sent, bytes_received, blocked, idle_passes } = other;
        self.sends += sends;
        self.recvs += recvs;
        self.bytes_sent += bytes_sent;
        self.bytes_received += bytes_received;
        self.blocked += blocked;
        self.idle_passes += idle_passes;
    }
}

/// An MPI process handle: rank, middleware state, and the RPI.
pub struct Mpi {
    pub(crate) env: ProcEnv<World>,
    pub(crate) core: Core,
    pub(crate) rpi: Rpi,
    pub(crate) cost: CostCfg,
    pub(crate) meter: CpuMeter,
    pub(crate) comms: Vec<CommData>,
    pub(crate) coll_seqs: Vec<u32>,
    pub(crate) next_cxt: u32,
    pub stats: MpiStats,
}

/// Options for building an [`Mpi`] inside a process (used by
/// [`crate::launch::mpirun`]).
#[derive(Debug, Clone, Copy)]
pub struct MpiProcCfg {
    pub size: u16,
    pub transport: TransportSel,
    pub cost: CostCfg,
}

/// Eager/rendezvous switchover: LAM's default 64 KiB.
pub(crate) const SHORT_LIMIT: u32 = 64 * 1024;

/// Transport selection for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSel {
    /// LAM-TCP: one socket per peer.
    Tcp,
    /// LAM-SCTP with a stream pool of the given size (paper default 10).
    Sctp { streams: u16, race_fix: RaceFix, ctx_map: ContextMap },
}

impl Mpi {
    /// Initialize the middleware: establish the full interconnect, then
    /// barrier (the association-setup barrier of §3.4).
    pub(crate) async fn init(env: ProcEnv<World>, cfg: MpiProcCfg) -> Mpi {
        let rank = env.id().0 as u16;
        let rpi = match cfg.transport {
            TransportSel::Tcp => Rpi::Tcp(TcpRpi::init(&env, rank, cfg.size).await),
            TransportSel::Sctp { streams, race_fix, ctx_map } => {
                Rpi::Sctp(SctpRpi::init(&env, rank, cfg.size, streams, race_fix, ctx_map).await)
            }
        };
        let mut mpi = Mpi {
            env,
            core: Core::new(rank, cfg.size, SHORT_LIMIT),
            rpi,
            cost: cfg.cost,
            meter: CpuMeter::default(),
            comms: vec![CommData::world(rank, cfg.size)],
            coll_seqs: vec![0],
            next_cxt: 2,
            stats: MpiStats::default(),
        };
        mpi.barrier().await;
        mpi
    }

    /// This process's rank.
    pub fn rank(&self) -> u16 {
        self.core.rank
    }

    /// Number of processes.
    pub fn size(&self) -> u16 {
        self.core.size
    }

    /// Peak live length of this rank's unexpected-message queue so far
    /// (diagnostic; the farm workload asserts it stays bounded).
    pub fn unexpected_peak(&self) -> usize {
        self.core.unexpected_peak
    }

    /// Most queue entries any one of this rank's matching lookups examined
    /// so far (diagnostic: the matcher scans, so this must stay small).
    pub fn match_scan_peak(&self) -> usize {
        self.core.match_scan_peak
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.env.now()
    }

    /// Bump and return the per-communicator collective sequence number.
    pub(crate) fn next_coll_seq(&mut self, comm: crate::comm::Comm) -> u32 {
        if self.coll_seqs.len() <= comm.id {
            self.coll_seqs.resize(comm.id + 1, 0);
        }
        self.coll_seqs[comm.id] += 1;
        self.coll_seqs[comm.id]
    }

    /// Model local computation for `d` of simulated time.
    pub async fn compute(&self, d: Dur) {
        self.env.sleep(d).await;
    }

    /// Direct access to the simulated world — fault injection (link
    /// failures, loss-rate changes) from inside a rank. Not an MPI call.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        self.env.with(|w, _| f(w))
    }

    /// The underlying process environment (used by the daemon plane).
    pub fn proc_env(&self) -> &ProcEnv<World> {
        &self.env
    }

    // -----------------------------------------------------------------
    // Point-to-point
    // -----------------------------------------------------------------

    /// Nonblocking standard send (eager below 64 KB, rendezvous above).
    pub async fn isend(&mut self, dst: u16, tag: i32, data: Bytes) -> ReqId {
        self.isend_cxt(dst, tag, CXT_WORLD, data, false).await
    }

    /// Nonblocking synchronous send.
    pub async fn issend(&mut self, dst: u16, tag: i32, data: Bytes) -> ReqId {
        self.isend_cxt(dst, tag, CXT_WORLD, data, true).await
    }

    pub(crate) async fn isend_cxt(&mut self, dst: u16, tag: i32, cxt: u32, data: Bytes, sync: bool) -> ReqId {
        assert!(dst < self.core.size, "rank {dst} out of range");
        self.stats.sends += 1;
        self.stats.bytes_sent += data.len() as u64;
        if dst == self.core.rank {
            return self.self_send(tag, cxt, data, sync);
        }
        let Mpi { env, core, rpi, cost, meter, .. } = self;
        let (req, charge) = env.with(|w, ctx| {
            let (req, envl, body) = core.submit_send(dst, tag, cxt, data, sync);
            rpi.enqueue(dst, envl, body.unwrap_or_default(), Some(req));
            rpi.progress(w, ctx, core, cost, meter);
            (req, meter.take())
        });
        self.env.sleep(charge).await;
        req
    }

    /// Nonblocking receive with optional source/tag wildcards.
    pub async fn irecv(&mut self, src: Option<u16>, tag: Option<i32>) -> ReqId {
        self.irecv_cxt(src, tag, CXT_WORLD).await
    }

    pub(crate) async fn irecv_cxt(&mut self, src: Option<u16>, tag: Option<i32>, cxt: u32) -> ReqId {
        self.stats.recvs += 1;
        let Mpi { env, core, rpi, cost, meter, .. } = self;
        let (req, charge) = env.with(|w, ctx| {
            let (req, ctrl) = core.post_recv(src, tag, cxt);
            if ctx.tracing() {
                ctx.trace_emit(trace::Event::MpiPost(trace::MpiPostEv {
                    rank: core.rank,
                    src: src.map_or(-1, |s| s as i32),
                    tag: tag.unwrap_or(-1),
                    cxt,
                    matched: core.matched_at_post(req),
                }));
            }
            let have_ctrl = !ctrl.is_empty();
            for (peer, e) in ctrl {
                rpi.enqueue(peer, e, Vec::new(), None);
            }
            if have_ctrl {
                rpi.progress(w, ctx, core, cost, meter);
            }
            (req, meter.take())
        });
        self.env.sleep(charge).await;
        req
    }

    /// Blocking standard send.
    pub async fn send(&mut self, dst: u16, tag: i32, data: Bytes) {
        let r = self.isend(dst, tag, data).await;
        self.wait(r).await;
    }

    /// Blocking synchronous send.
    pub async fn ssend(&mut self, dst: u16, tag: i32, data: Bytes) {
        let r = self.issend(dst, tag, data).await;
        self.wait(r).await;
    }

    /// Blocking receive.
    pub async fn recv(&mut self, src: Option<u16>, tag: Option<i32>) -> (Status, Msg) {
        let r = self.irecv(src, tag).await;
        self.wait(r).await
    }

    /// Wait for one request.
    pub async fn wait(&mut self, req: ReqId) -> (Status, Msg) {
        self.progress_until(|core| core.is_done(req)).await;
        self.take(req)
    }

    /// Wait for any of `reqs` to complete; returns its index.
    pub async fn waitany(&mut self, reqs: &[ReqId]) -> (usize, Status, Msg) {
        assert!(!reqs.is_empty());
        self.progress_until(|core| reqs.iter().any(|&r| core.is_done(r))).await;
        let idx = reqs.iter().position(|&r| self.core.is_done(r)).unwrap();
        let (st, msg) = self.take(reqs[idx]);
        (idx, st, msg)
    }

    /// Wait for all of `reqs`; returns statuses+messages in order.
    pub async fn waitall(&mut self, reqs: &[ReqId]) -> Vec<(Status, Msg)> {
        self.progress_until(|core| reqs.iter().all(|&r| core.is_done(r))).await;
        reqs.iter().map(|&r| self.take(r)).collect()
    }

    /// Reap completed send requests from `reqs` (one progression pass, no
    /// blocking). Lets latency-tolerant programs keep many sends in flight.
    pub async fn reap_sends(&mut self, reqs: &mut Vec<ReqId>) {
        self.progress_once().await;
        let core = &mut self.core;
        reqs.retain(|&r| {
            if core.is_done(r) {
                let _ = core.take_done(r);
                false
            } else {
                true
            }
        });
    }

    /// Nonblocking probe: is a matching message already here? Returns its
    /// envelope metadata without receiving it (MPI_Iprobe).
    pub async fn iprobe(&mut self, src: Option<u16>, tag: Option<i32>) -> Option<Status> {
        self.progress_once().await;
        self.core.probe_unexpected(src, tag, CXT_WORLD)
    }

    /// Blocking probe: wait until a matching message is buffered, return
    /// its envelope metadata without receiving it (MPI_Probe).
    pub async fn probe(&mut self, src: Option<u16>, tag: Option<i32>) -> Status {
        self.progress_until(|core| core.probe_unexpected(src, tag, CXT_WORLD).is_some()).await;
        self.core.probe_unexpected(src, tag, CXT_WORLD).unwrap()
    }

    /// Nonblocking completion test.
    pub async fn test(&mut self, req: ReqId) -> Option<(Status, Msg)> {
        self.progress_once().await;
        if self.core.is_done(req) {
            Some(self.take(req))
        } else {
            None
        }
    }

    fn take(&mut self, req: ReqId) -> (Status, Msg) {
        let (st, chunks) = self.core.take_done(req);
        self.stats.bytes_received += st.len as u64;
        (st, Msg { len: st.len as usize, chunks })
    }

    // -----------------------------------------------------------------
    // Progression
    // -----------------------------------------------------------------

    /// Drive the RPI until `cond` holds, parking when nothing can move.
    pub(crate) async fn progress_until(&mut self, mut cond: impl FnMut(&mut Core) -> bool) {
        let me = self.env.id();
        // Simulated time only advances inside this loop through sleep/park,
        // so the blocked-time stat reads the clock lazily: a call whose
        // condition holds on the first pass with no CPU charge never locks
        // the world for `now()` at all.
        let mut block_start: Option<SimTime> = None;
        loop {
            let Mpi { env, core, rpi, cost, meter, .. } = self;
            let (done, progressed, charge) = env.with(|w, ctx| {
                let progressed = rpi.progress(w, ctx, core, cost, meter);
                (cond(core), progressed, meter.take())
            });
            // Pay CPU only for passes that did work; an idle poll models a
            // *blocking* select()/recvmsg, which burns no CPU. (Sleeping on
            // idle passes would also lose wakeups delivered mid-sleep.)
            if progressed && !charge.is_zero() {
                if block_start.is_none() {
                    block_start = Some(self.env.now());
                }
                self.env.sleep(charge).await;
            }
            if done {
                // Before returning, flush any control replies this pass
                // generated (e.g. a sync ACK emitted by the completing
                // receive) as far as the transport will take them. Stopping
                // at EAGAIN is fine — later calls or finalize drain it.
                if !progressed || !self.rpi.has_pending_writes() {
                    break;
                }
                continue;
            }
            if !progressed {
                // Nothing moved: wait for the transport to wake us.
                if block_start.is_none() {
                    block_start = Some(self.env.now());
                }
                self.stats.idle_passes += 1;
                let Mpi { env, rpi, .. } = self;
                env.with(|w, _| rpi.register(w, me));
                env.park().await;
            }
        }
        if let Some(start) = block_start {
            self.stats.blocked += self.env.now().since(start);
        }
    }

    /// Drain all queued outbound traffic (run by `mpirun` after the user
    /// program returns, like LAM's finalize, so late ACKs reach peers that
    /// are still waiting on them).
    pub(crate) async fn finalize(&mut self) {
        self.progress_until(|_| true).await;
        let me = self.env.id();
        loop {
            let Mpi { env, core, rpi, cost, meter, .. } = self;
            if !rpi.has_pending_writes() {
                break;
            }
            let (progressed, charge) = env.with(|w, ctx| {
                let p = rpi.progress(w, ctx, core, cost, meter);
                (p, meter.take())
            });
            if progressed && !charge.is_zero() {
                self.env.sleep(charge).await;
            }
            if !progressed {
                self.stats.idle_passes += 1;
                let Mpi { env, rpi, .. } = self;
                env.with(|w, _| rpi.register(w, me));
                env.park().await;
            }
        }
    }

    /// One nonblocking progression pass.
    pub(crate) async fn progress_once(&mut self) {
        let Mpi { env, core, rpi, cost, meter, .. } = self;
        let charge = env.with(|w, ctx| {
            rpi.progress(w, ctx, core, cost, meter);
            meter.take()
        });
        self.env.sleep(charge).await;
    }

    // -----------------------------------------------------------------
    // Self sends (loopback inside the middleware, as LAM does)
    // -----------------------------------------------------------------

    fn self_send(&mut self, tag: i32, cxt: u32, data: Bytes, _sync: bool) -> ReqId {
        // Deliver locally by synthesizing an eager arrival (any size): LAM
        // short-circuits self sends in the middleware too. A synchronous
        // self send completes immediately — the local delivery *is* the
        // receipt.
        use crate::envelope::{EnvKind, Envelope};
        let me = self.core.rank;
        let len = data.len() as u32;
        let seq = self.core.fresh_seq();
        let env = Envelope { kind: EnvKind::Eager, src: me, tag, cxt, len, seq };
        let out = self.core.on_envelope(me, env);
        if let Some(sink) = out.sink {
            if len > 0 {
                self.core.body_chunks(sink, [data]);
            }
            let ctrl = self.core.body_done(sink);
            debug_assert!(ctrl.is_empty());
        }
        self.core.mk_done_send(me, tag, cxt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mpirun, MpiCfg};

    #[test]
    fn stats_add_field_by_field() {
        let mut t = MpiStats { sends: 1, blocked: Dur::from_nanos(5), ..Default::default() };
        t += MpiStats { sends: 2, recvs: 3, bytes_sent: 4, bytes_received: 6, blocked: Dur::from_nanos(7), idle_passes: 8 };
        let want = MpiStats { sends: 3, recvs: 3, bytes_sent: 4, bytes_received: 6, blocked: Dur::from_nanos(12), idle_passes: 8 };
        assert_eq!(t, want);
    }

    /// A taken request gives its slot back: however many messages a rank
    /// exchanges, its request table holds the most it ever had in flight
    /// (here a posted receive plus one send), not one entry per message.
    #[test]
    fn request_table_is_bounded_by_requests_in_flight() {
        const ITERS: u32 = 50_000;
        for cfg in [MpiCfg::tcp(2, 0.0), MpiCfg::sctp(2, 0.0)] {
            mpirun(cfg, |mpi| {
                Box::pin(async move {
                    let peer = 1 - mpi.rank();
                    let ball = Bytes::from(vec![7u8; 1024]);
                    for _ in 0..ITERS {
                        let r = mpi.irecv(Some(peer), Some(0)).await;
                        if mpi.rank() == 0 {
                            mpi.send(peer, 0, ball.clone()).await;
                            mpi.wait(r).await;
                        } else {
                            mpi.wait(r).await;
                            mpi.send(peer, 0, ball.clone()).await;
                        }
                    }
                    let slots = mpi.core.reqs.len();
                    assert!(slots <= 2, "rank {}: {slots} request slots", mpi.rank());
                })
            });
        }
    }
}
