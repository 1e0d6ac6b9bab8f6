//! A media-like deadline workload on the raw SCTP API — the PR-SCTP
//! (RFC 3758) study.
//!
//! A source emits fixed-size frames at a fixed cadence on one stream, each
//! tagged with its frame number in the PPID. Under loss, a reliable
//! transport retransmits old frames at the expense of fresh ones: the
//! receiver falls behind and every delivered frame grows *staler*. A media
//! sender instead marks each frame with a lifetime — a frame not delivered
//! within its lifetime is abandoned, the sender emits FORWARD-TSN, and the
//! receiver skips ahead to current data. The end-of-run sentinel is sent
//! with an explicit `None` lifetime (fully reliable): the run can only
//! terminate through PR-SCTP's reliable/partial coexistence working.
//!
//! Metrics: frames delivered vs abandoned, FORWARD-TSN traffic, and the
//! *staleness* of each delivered frame — delivery instant minus the
//! frame's scheduled emission instant. `max_staleness` bounded by roughly
//! the lifetime (plus one retransmission round) is the acceptance property;
//! a reliable run under the same loss shows the unbounded alternative.

use bytes::Bytes;
use netsim::NetCfg;
use simcore::{Dur, ProcEnv, Runtime, SimTime};
use transport::sctp::{self, SctpCfg};
use transport::tcp::TcpCfg;
use transport::World;

use crate::zeros;

type Env = ProcEnv<World>;

/// Media-source parameters.
#[derive(Debug, Clone, Copy)]
pub struct MediaCfg {
    /// Number of frames to emit (excluding the sentinel).
    pub frames: u32,
    /// Payload bytes per frame.
    pub frame_bytes: usize,
    /// Emission cadence: frame `i` is offered at `i * interval`.
    pub interval: Dur,
    /// Per-frame PR-SCTP lifetime; `None` = fully reliable source.
    pub lifetime: Option<Dur>,
    /// Bernoulli loss rate on every path.
    pub loss: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Offer RFC 8260 interleaving (exercises I-DATA + FORWARD-TSN
    /// together; the semantics of the workload do not depend on it).
    pub interleave: bool,
}

impl MediaCfg {
    /// A 2 Mframe/s source of 32 KB frames — intentionally near the 1 Gb/s
    /// link's capacity so loss-recovery stalls back the queue up.
    pub fn new(frames: u32, lifetime: Option<Dur>, loss: f64) -> MediaCfg {
        MediaCfg {
            frames,
            frame_bytes: 32 * 1024,
            interval: Dur::from_micros(500),
            lifetime,
            loss,
            seed: 0xBA5E,
            interleave: false,
        }
    }
}

/// What the run measured.
#[derive(Debug, Clone, Copy)]
pub struct MediaResult {
    /// Frames accepted by the transport at the source.
    pub frames_sent: u32,
    /// Frames the source skipped because the send buffer was full (the
    /// encoder's drop-at-source path; only a backlogged reliable run hits
    /// it).
    pub frames_skipped: u32,
    /// Frames that reached the receiving application.
    pub frames_delivered: u32,
    /// Worst delivered-frame staleness: delivery instant minus scheduled
    /// emission instant, ns.
    pub max_staleness_ns: u64,
    /// Mean delivered-frame staleness, ns.
    pub mean_staleness_ns: u64,
    /// Simulated seconds until the sentinel arrived.
    pub secs: f64,
    /// Simulator events fired (self-metering).
    pub events: u64,
    /// Scheduler/driver cost of the run (self-metering).
    pub sched: simcore::SchedCounters,
    /// Network and SCTP counters of the run, each copied whole
    /// (`sctp.msgs_abandoned`, `sctp.fwd_tsn_out`/`_in` are the PR-SCTP view).
    pub net: netsim::NetStats,
    pub sctp: sctp::AssocStats,
}

/// Sentinel PPID: the last message of the run, always sent reliable.
const SENTINEL: u32 = u32::MAX;
/// Port both endpoints use.
const PORT: u16 = 5_004;

/// Run the media source host 0 → host 1 and collect delivery metrics.
pub fn run(cfg: MediaCfg) -> MediaResult {
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    let mut sctp_cfg = SctpCfg {
        pr_sctp: true,
        pr_lifetime: cfg.lifetime,
        interleave: cfg.interleave,
        ..SctpCfg::default()
    };
    // A deep send buffer: the reliable comparison run must be allowed to
    // build a real backlog (that backlog *is* the staleness the deadline
    // variant abandons away).
    sctp_cfg.sndbuf = 2 * 1024 * 1024;
    sctp_cfg.rcvbuf = 2 * 1024 * 1024;
    let world = World::new(NetCfg::paper_cluster(cfg.loss), TcpCfg::default(), sctp_cfg);
    let mut rt = Runtime::new(world, cfg.seed);

    let sent = Arc::new(AtomicU32::new(0));
    let skipped = Arc::new(AtomicU32::new(0));
    let delivered = Arc::new(AtomicU32::new(0));
    let max_stale = Arc::new(AtomicU64::new(0));
    let sum_stale = Arc::new(AtomicU64::new(0));

    let (s_sent, s_skip) = (sent.clone(), skipped.clone());
    rt.spawn("source", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, PORT, true));
        let a = {
            let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, 1, PORT));
            let me = env.id();
            env.block_on(|w, _| match sctp::assoc_state(w, a) {
                sctp::AssocState::Established => Some(()),
                sctp::AssocState::Aborted => panic!("association failed during setup"),
                _ => {
                    sctp::register_writer(w, ep, me);
                    None
                }
            }).await;
            a
        };
        for i in 0..cfg.frames {
            // Hold the cadence: sleep until this frame's emission instant.
            let due = SimTime::ZERO + Dur::from_nanos(cfg.interval.as_nanos() * i as u64);
            let now = env.with(|_, ctx| ctx.now());
            if due > now {
                env.sleep(due.since(now)).await;
            }
            let frame = zeros(cfg.frame_bytes);
            let r = env.with(|w, ctx| sctp::sendmsg_pr(w, ctx, a, 0, i, frame, cfg.lifetime));
            match r {
                Ok(()) => {
                    s_sent.fetch_add(1, Ordering::Relaxed);
                }
                // Encoder semantics: a full buffer drops the frame at the
                // source rather than stalling the capture pipeline.
                Err(sctp::SendErr::WouldBlock) => {
                    s_skip.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("sendmsg_pr failed: {e:?}"),
            }
        }
        // The sentinel must arrive no matter what: explicit None lifetime
        // overrides the association's default (RFC 3758 §3.4 coexistence).
        let me = env.id();
        env.block_on(|w, ctx| {
            match sctp::sendmsg_pr(w, ctx, a, 0, SENTINEL, Bytes::from_static(b"eos"), None) {
                Ok(()) => Some(()),
                Err(sctp::SendErr::WouldBlock) => {
                    sctp::register_writer(w, ep, me);
                    None
                }
                Err(e) => panic!("sentinel send failed: {e:?}"),
            }
        }).await;
    });

    let (r_del, r_max, r_sum) = (delivered.clone(), max_stale.clone(), sum_stale.clone());
    let interval_ns = cfg.interval.as_nanos();
    rt.spawn("sink", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, PORT, true);
            sctp::listen(w, ep);
            ep
        });
        loop {
            let me = env.id();
            let m = env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
                Some(m) => Some(m),
                None => {
                    sctp::register_reader(w, ep, me);
                    None
                }
            }).await;
            if m.ppid == SENTINEL {
                break;
            }
            let due_ns = interval_ns * m.ppid as u64;
            let stale = env.with(|_, ctx| ctx.now().as_nanos()).saturating_sub(due_ns);
            r_del.fetch_add(1, Ordering::Relaxed);
            r_max.fetch_max(stale, Ordering::Relaxed);
            r_sum.fetch_add(stale, Ordering::Relaxed);
        }
    });

    let out = rt.run();
    let report = mpi_core::MpiReport::collect(&out);
    let n_del = delivered.load(std::sync::atomic::Ordering::Relaxed);
    MediaResult {
        frames_sent: sent.load(std::sync::atomic::Ordering::Relaxed),
        frames_skipped: skipped.load(std::sync::atomic::Ordering::Relaxed),
        frames_delivered: n_del,
        max_staleness_ns: max_stale.load(std::sync::atomic::Ordering::Relaxed),
        mean_staleness_ns: sum_stale.load(std::sync::atomic::Ordering::Relaxed)
            / n_del.max(1) as u64,
        secs: report.secs(),
        events: report.events,
        sched: report.sched,
        net: report.net,
        sctp: report.sctp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_run_delivers_every_frame() {
        let r = run(MediaCfg::new(100, None, 0.0));
        assert_eq!(r.frames_delivered, 100);
        assert_eq!(r.frames_skipped, 0);
        assert_eq!(r.sctp.msgs_abandoned, 0);
        assert_eq!(r.sctp.fwd_tsn_out, 0);
    }

    #[test]
    fn deadline_run_abandons_under_loss_and_terminates() {
        let r = run(MediaCfg::new(300, Some(Dur::from_millis(20)), 0.02));
        assert!(r.sctp.msgs_abandoned > 0, "tight deadlines under loss must abandon: {r:?}");
        assert!(r.sctp.fwd_tsn_out > 0, "abandonment must emit FORWARD-TSN: {r:?}");
        assert!(
            r.frames_delivered as u64 + r.sctp.msgs_abandoned + r.frames_skipped as u64
                >= r.frames_sent as u64,
            "every frame is delivered, abandoned, or source-dropped: {r:?}"
        );
    }

    #[test]
    fn deadlines_bound_staleness_vs_reliable() {
        let lifetime = Dur::from_millis(20);
        let reliable = run(MediaCfg::new(300, None, 0.02));
        let deadline = run(MediaCfg::new(300, Some(lifetime), 0.02));
        assert!(
            deadline.max_staleness_ns < reliable.max_staleness_ns,
            "abandoning stale frames must reduce worst staleness: {} vs {} ns",
            deadline.max_staleness_ns,
            reliable.max_staleness_ns
        );
    }

    #[test]
    fn interleaved_media_behaves_the_same() {
        let mut cfg = MediaCfg::new(100, Some(Dur::from_millis(50)), 0.01);
        cfg.interleave = true;
        let r = run(cfg);
        assert!(r.frames_delivered > 0);
        assert!(r.secs > 0.0);
    }
}
