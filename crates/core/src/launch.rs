//! `mpirun` — build a simulated cluster, spawn one virtual process per
//! rank, run the program, and collect a report.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use netsim::{NetCfg, NetStats};
use simcore::{ProcEnv, RunOutcome, Runtime, SchedCounters, SimTime};
use transport::sctp::{AssocStats, SctpCfg};
use transport::tcp::{SockStats, TcpCfg};
use transport::World;

use crate::api::{Mpi, MpiProcCfg, MpiStats, TransportSel};
use crate::cost::CostCfg;
use crate::rpi_sctp::{ContextMap, RaceFix};

/// What a rank program returns: its body as a boxed future borrowing the
/// rank's [`Mpi`] handle. Write programs as
/// `|mpi| Box::pin(async move { … })`.
pub type RankFut<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// Full configuration of one MPI run.
#[derive(Debug, Clone)]
pub struct MpiCfg {
    pub nprocs: u16,
    pub transport: TransportSel,
    pub net: NetCfg,
    pub tcp: TcpCfg,
    pub sctp: SctpCfg,
    pub cost: CostCfg,
    pub seed: u64,
    /// Enable the flight recorder (crates/trace) for this run. `TRACE=1`
    /// in the environment also turns it on; this flag lets tests toggle
    /// tracing in-process without env races. File sinks (traces/*.pcapng,
    /// traces/*.jsonl) are written only under `TRACE=1`.
    pub trace: bool,
    /// Scripted faults (bursty loss, link flaps, jitter, degradation)
    /// installed on the network before the run starts. The default empty
    /// plan is exactly equivalent to no fault plane at all — bit-identical
    /// figure output, zero extra RNG draws.
    pub fault_plan: netsim::FaultPlan,
}

impl MpiCfg {
    /// LAM-TCP over the paper's cluster at the given loss rate.
    pub fn tcp(nprocs: u16, loss: f64) -> Self {
        MpiCfg {
            nprocs,
            transport: TransportSel::Tcp,
            net: NetCfg::paper_cluster(loss),
            tcp: TcpCfg::default(),
            sctp: SctpCfg::default(),
            cost: CostCfg::default(),
            seed: 1,
            trace: false,
            fault_plan: netsim::FaultPlan::default(),
        }
    }

    /// LAM-TCP on an era-faithful stack: FreeBSD 5.3's SACK recovery was
    /// brand new and had no RFC 6675-style scoreboard retransmission, so
    /// multi-loss windows degenerate into RTO chains — the regime behind
    /// the paper's TCP loss numbers.
    pub fn tcp_era(nprocs: u16, loss: f64) -> Self {
        let mut c = MpiCfg::tcp(nprocs, loss);
        c.tcp.sack_hole_repair = false;
        c
    }

    /// LAM-SCTP (10-stream pool, Option B) over the paper's cluster.
    pub fn sctp(nprocs: u16, loss: f64) -> Self {
        MpiCfg {
            transport: TransportSel::Sctp {
                streams: 10,
                race_fix: RaceFix::OptionB,
                ctx_map: ContextMap::StreamHash,
            },
            ..MpiCfg::tcp(nprocs, loss)
        }
    }

    /// The single-stream SCTP variant used to isolate head-of-line
    /// blocking (paper §4.2.2 / Figure 12).
    pub fn sctp_single_stream(nprocs: u16, loss: f64) -> Self {
        MpiCfg {
            transport: TransportSel::Sctp {
                streams: 1,
                race_fix: RaceFix::OptionB,
                ctx_map: ContextMap::StreamHash,
            },
            ..MpiCfg::tcp(nprocs, loss)
        }
    }

    /// LAM-SCTP with the §2.3 PPID context mapping: the stream pool is
    /// keyed by tag alone and the context rides in the SCTP PPID field.
    pub fn sctp_ppid(nprocs: u16, loss: f64) -> Self {
        MpiCfg {
            transport: TransportSel::Sctp {
                streams: 10,
                race_fix: RaceFix::OptionB,
                ctx_map: ContextMap::Ppid,
            },
            ..MpiCfg::tcp(nprocs, loss)
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the SCTP send/receive buffer sizes (bytes); the default is the
    /// paper testbed's 220 KB. The `cmt` figure sweeps this knob to check
    /// that the 3-path stripe stays BDP- rather than window-limited.
    pub fn with_sctp_bufs(mut self, sndbuf: u64, rcvbuf: u64) -> Self {
        self.sctp.sndbuf = sndbuf;
        self.sctp.rcvbuf = rcvbuf;
        self
    }

    /// Enable CMT (concurrent multipath transfer) on every association.
    pub fn with_cmt(mut self, cmt: bool) -> Self {
        self.sctp.cmt = cmt;
        self
    }

    /// Offer RFC 8260 message interleaving (I-DATA) on every association.
    /// Takes effect only when both peers offer it — which inside one
    /// simulated cluster means: always, when this flag is set.
    pub fn with_interleave(mut self, on: bool) -> Self {
        self.sctp.interleave = on;
        self
    }

    /// Select the sender-side stream scheduler (effective only with
    /// interleaving negotiated; without I-DATA the engine forces FCFS so
    /// fragments stay TSN-contiguous for the legacy reassembler).
    pub fn with_scheduler(mut self, sched: transport::sctp::SchedKind) -> Self {
        self.sctp.sched = sched;
        self
    }

    fn validate(&self) {
        assert!(self.nprocs as usize <= self.net.hosts as usize, "more ranks than hosts");
        if let TransportSel::Sctp { streams, .. } = self.transport {
            assert!(streams >= 1);
        }
    }
}

/// Build the run's flight recorder: `cfg.trace` forces one on (tests);
/// otherwise `TRACE=1` decides. Returns None when tracing is off.
fn make_tracer(cfg: &MpiCfg) -> Option<trace::Tracer> {
    match trace::Tracer::from_env() {
        Some(t) => Some(t),
        None if cfg.trace => Some(trace::Tracer::new(trace::DEFAULT_CAP, trace::DEFAULT_SNAP)),
        None => None,
    }
}

/// Write the capture files after a run — only under `TRACE=1`, so runs that
/// trace in-process (cfg.trace) stay filesystem-silent. Nothing is printed:
/// figure stdout/stderr must stay bit-identical with tracing on or off.
fn flush_trace(tracer: &Option<trace::Tracer>, end: SimTime, seed: u64) {
    let Some(t) = tracer else { return };
    if !trace::Tracer::env_enabled() {
        return;
    }
    let dump = t.dump(end.as_nanos());
    let label = trace::run_label().unwrap_or_else(|| format!("run-{seed:#x}"));
    let name = trace::sanitize_label(&label);
    let dir = std::path::Path::new("traces");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("{name}.pcapng")), dump.write_pcapng());
    let _ = std::fs::write(dir.join(format!("{name}.jsonl")), dump.write_jsonl());
}

/// What every kind of run starts from: the validated world with its fault
/// plan and flight recorder installed, the runtime over it (debug env aids
/// applied), and the per-rank configuration.
fn build(cfg: &MpiCfg) -> (Runtime<World>, Option<trace::Tracer>, MpiProcCfg) {
    cfg.validate();
    let mut sctp_cfg = cfg.sctp.clone();
    if let TransportSel::Sctp { streams, .. } = cfg.transport {
        sctp_cfg.out_streams = sctp_cfg.out_streams.max(streams);
    }
    let mut world = World::new(cfg.net, cfg.tcp, sctp_cfg);
    world.net.set_fault_plan(cfg.fault_plan.clone());
    let tracer = make_tracer(cfg);
    if let Some(t) = &tracer {
        t.set_topology(world.net.hosts(), world.net.ifaces());
        world.net.tracer = Some(t.clone());
    }
    let mut rt = Runtime::new(world, cfg.seed);
    rt.set_tracer(tracer.clone());
    let proc_cfg = MpiProcCfg { size: cfg.nprocs, transport: cfg.transport, cost: cfg.cost };
    (rt, tracer, proc_cfg)
}

/// Result of one MPI run.
#[derive(Debug, Clone, Copy)]
pub struct MpiReport {
    /// Simulated wall time until the last rank finished.
    pub sim_time: SimTime,
    /// Events fired (diagnostic).
    pub events: u64,
    /// What the run cost the scheduler and the rank driver (diagnostic).
    pub sched: SchedCounters,
    pub net: NetStats,
    /// Aggregate TCP socket stats across hosts (zero for SCTP runs).
    pub tcp: SockStats,
    /// Aggregate SCTP association stats across hosts (zero for TCP runs).
    pub sctp: AssocStats,
    /// Middleware counters summed over every rank, finalize included (zero
    /// for runs without ranks).
    pub mpi: MpiStats,
}

impl MpiReport {
    /// Every layer's counters out of a finished run, each block copied whole
    /// (`mpi` stays zero: ranks hand theirs over as they exit).
    pub fn collect(out: &RunOutcome<World>) -> MpiReport {
        let (mut tcp, mut sctp) = (SockStats::default(), AssocStats::default());
        for h in &out.world.hosts {
            tcp += h.tcp.total_stats();
            sctp += h.sctp.total_stats();
        }
        MpiReport {
            sim_time: out.sim_time,
            events: out.events,
            sched: out.sched,
            net: out.world.net.stats,
            tcp,
            sctp,
            mpi: MpiStats::default(),
        }
    }

    /// Total run time in seconds (the farm figures' metric).
    pub fn secs(&self) -> f64 {
        self.sim_time.as_secs_f64()
    }
}

/// Like [`mpirun`], but with the paper's §3.5.3 environment: one SCTP
/// daemon per host (lamboot star rooted at host 0), ranks reporting
/// start / progress / end to their local daemon, and a clean `lamhalt`
/// when the job finishes. Returns the aggregated job table alongside the
/// report — what an `mpitask`-style monitor would have observed.
pub fn mpirun_monitored<F>(cfg: MpiCfg, f: F) -> (MpiReport, crate::daemon::JobTable)
where
    F: for<'a> Fn(&'a mut Mpi) -> RankFut<'a> + 'static,
{
    use crate::daemon::{daemon_main, DaemonClient, DaemonMsg, JobTable};
    let (mut rt, tracer, proc_cfg) = build(&cfg);
    let shared = Rc::new((f, Cell::new(MpiStats::default())));
    let table = Rc::new(std::cell::RefCell::new(JobTable::default()));
    let n = cfg.nprocs;
    for rank in 0..n {
        let shared = Rc::clone(&shared);
        rt.spawn(format!("rank{rank}"), move |env: ProcEnv<World>| async move {
            let (f, totals) = &*shared;
            // Report to the local daemon over SCTP (stock LAM used UDP).
            let client = DaemonClient::connect(&env, rank, rank).await;
            client.report(&env, DaemonMsg::JobStart { rank }).await;
            let mut mpi = Mpi::init(env, proc_cfg).await;
            f(&mut mpi).await;
            let sent = mpi.stats.sends as u32;
            client.report(mpi.proc_env(), DaemonMsg::Heartbeat { rank, msgs_sent: sent }).await;
            client.report(mpi.proc_env(), DaemonMsg::JobEnd { rank }).await;
            mpi.finalize().await;
            add_stats(totals, mpi.stats);
        });
    }
    for host in 0..n {
        let table = Rc::clone(&table);
        rt.spawn(format!("lamd{host}"), move |env: ProcEnv<World>| daemon_main(env, host, n, n, table));
    }
    let out = rt.run();
    flush_trace(&tracer, out.sim_time, cfg.seed);
    let report = MpiReport { mpi: shared.1.get(), ..MpiReport::collect(&out) };
    let table = Rc::try_unwrap(table).expect("daemons exited").into_inner();
    (report, table)
}

/// Fold one exiting rank's middleware counters into the run's total.
fn add_stats(totals: &Cell<MpiStats>, s: MpiStats) {
    let mut t = totals.get();
    t += s;
    totals.set(t);
}

/// Like [`mpirun`], but force the flight recorder on and hand the caller
/// the finished capture alongside the report. The bench binaries use this
/// to assert HOL accounting (e.g. "I-DATA strictly reduces sender-side
/// blocked time") in-process, without the TRACE=1 file sinks.
pub fn mpirun_traced<F>(mut cfg: MpiCfg, f: F) -> (MpiReport, trace::TraceDump)
where
    F: for<'a> Fn(&'a mut Mpi) -> RankFut<'a> + 'static,
{
    cfg.trace = true;
    let mut dump_slot: Option<trace::TraceDump> = None;
    let report = mpirun_inner(cfg, f, Some(&mut dump_slot));
    (report, dump_slot.expect("tracer was forced on"))
}

/// Run `f` as an `nprocs`-rank MPI program on the simulated cluster.
///
/// `f` is invoked once per rank with an initialized [`Mpi`] handle
/// (connections established, init barrier passed) and returns the rank's
/// body as a [`RankFut`]; every rank runs on the calling thread.
pub fn mpirun<F>(cfg: MpiCfg, f: F) -> MpiReport
where
    F: for<'a> Fn(&'a mut Mpi) -> RankFut<'a> + 'static,
{
    mpirun_inner(cfg, f, None)
}

fn mpirun_inner<F>(
    cfg: MpiCfg,
    f: F,
    dump_slot: Option<&mut Option<trace::TraceDump>>,
) -> MpiReport
where
    F: for<'a> Fn(&'a mut Mpi) -> RankFut<'a> + 'static,
{
    let (mut rt, tracer, proc_cfg) = build(&cfg);
    // The program and the counters each rank adds as it exits share one
    // allocation.
    let shared = Rc::new((f, Cell::new(MpiStats::default())));
    for rank in 0..cfg.nprocs {
        let shared = Rc::clone(&shared);
        rt.spawn(format!("rank{rank}"), move |env: ProcEnv<World>| async move {
            let (f, totals) = &*shared;
            let mut mpi = Mpi::init(env, proc_cfg).await;
            f(&mut mpi).await;
            mpi.finalize().await;
            add_stats(totals, mpi.stats);
        });
    }
    let out = rt.run();
    flush_trace(&tracer, out.sim_time, cfg.seed);
    if let Some(slot) = dump_slot {
        *slot = tracer.as_ref().map(|t| t.dump(out.sim_time.as_nanos()));
    }
    MpiReport { mpi: shared.1.get(), ..MpiReport::collect(&out) }
}
