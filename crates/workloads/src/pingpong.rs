//! The MPBench ping-pong test (paper §4.1.1).
//!
//! Two processes repeatedly exchange a message of a given size, all
//! messages on a single tag. The reported metric is throughput: one-way
//! payload bytes divided by total time.

use mpi_core::{mpirun, MpiCfg, MpiStats};

use crate::zeros;

/// Parameters of one ping-pong run.
#[derive(Debug, Clone, Copy)]
pub struct PingPongCfg {
    /// Message size in bytes.
    pub size: usize,
    /// Number of exchanges (MPBench uses repetitions to stabilize).
    pub iters: u32,
}

/// Result of one ping-pong run.
#[derive(Debug, Clone, Copy)]
pub struct PingPongResult {
    pub size: usize,
    pub iters: u32,
    pub secs: f64,
    /// One-way payload throughput (bytes/second) — the paper's metric.
    pub throughput: f64,
    /// Simulator events fired during the run (self-metering, see
    /// `bench-harness`).
    pub events: u64,
    /// Scheduler/driver cost of the run (self-metering).
    pub sched: simcore::SchedCounters,
    /// Aggregate SCTP association stats (per-path packet balance, rescue
    /// probes, spurious marks — the CMT scheduler's observables). Zero for
    /// TCP runs.
    pub sctp: transport::sctp::AssocStats,
    /// Aggregate TCP socket stats. Zero for SCTP runs.
    pub tcp: transport::tcp::SockStats,
    /// Network-wide counters (loss/queue/down drop taxonomy).
    pub net: netsim::NetStats,
    /// Middleware counters summed over both ranks.
    pub mpi: MpiStats,
}

/// Run the ping-pong between ranks 0 and 1 of a 2-process job.
pub fn run(mpi_cfg: MpiCfg, cfg: PingPongCfg) -> PingPongResult {
    assert!(mpi_cfg.nprocs >= 2);
    let report = mpirun(mpi_cfg, move |mpi| {
        Box::pin(async move {
            let data = zeros(cfg.size);
            match mpi.rank() {
                0 => {
                    for _ in 0..cfg.iters {
                        mpi.send(1, 0, data.clone()).await;
                        let (_, msg) = mpi.recv(Some(1), Some(0)).await;
                        debug_assert_eq!(msg.len, cfg.size);
                    }
                }
                1 => {
                    for _ in 0..cfg.iters {
                        let (_, msg) = mpi.recv(Some(0), Some(0)).await;
                        debug_assert_eq!(msg.len, cfg.size);
                        mpi.send(0, 0, data.clone()).await;
                    }
                }
                _ => {}
            }
        })
    });
    let secs = report.secs();
    PingPongResult {
        size: cfg.size,
        iters: cfg.iters,
        secs,
        // One-way payload bytes transferred per second of round-trip time:
        // iters messages of `size` in each direction; MPBench counts the
        // one-way volume over the elapsed time.
        throughput: (cfg.size as f64 * cfg.iters as f64) / secs,
        events: report.events,
        sched: report.sched,
        sctp: report.sctp,
        tcp: report.tcp,
        net: report.net,
        mpi: report.mpi,
    }
}

/// Parameters of one one-way bulk stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamCfg {
    /// Message size in bytes.
    pub size: usize,
    /// Number of back-to-back messages.
    pub count: u32,
}

/// One-way bulk stream between ranks 0 and 1: rank 0 sends `count`
/// messages back to back, rank 1 drains them and returns a single
/// zero-length completion ack. Unlike the strict ping-pong, successive
/// messages pipeline — per-message middleware costs overlap wire time, so
/// the measured rate reflects path capacity, which is what a CMT stripe
/// multiplies. Throughput is payload bytes over total time.
pub fn run_stream(mpi_cfg: MpiCfg, cfg: StreamCfg) -> PingPongResult {
    assert!(mpi_cfg.nprocs >= 2);
    let report = mpirun(mpi_cfg, move |mpi| {
        Box::pin(async move {
            let data = zeros(cfg.size);
            match mpi.rank() {
                0 => {
                    for _ in 0..cfg.count {
                        mpi.send(1, 0, data.clone()).await;
                    }
                    let (_, ack) = mpi.recv(Some(1), Some(1)).await;
                    debug_assert_eq!(ack.len, 0);
                }
                1 => {
                    for _ in 0..cfg.count {
                        let (_, msg) = mpi.recv(Some(0), Some(0)).await;
                        debug_assert_eq!(msg.len, cfg.size);
                    }
                    mpi.send(0, 1, zeros(0)).await;
                }
                _ => {}
            }
        })
    });
    let secs = report.secs();
    PingPongResult {
        size: cfg.size,
        iters: cfg.count,
        secs,
        throughput: (cfg.size as f64 * cfg.count as f64) / secs,
        events: report.events,
        sched: report.sched,
        sctp: report.sctp,
        tcp: report.tcp,
        net: report.net,
        mpi: report.mpi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_pipelines_past_pingpong() {
        let pp = run(MpiCfg::sctp(2, 0.0), PingPongCfg { size: 64 * 1024, iters: 10 });
        let st = run_stream(MpiCfg::sctp(2, 0.0), StreamCfg { size: 64 * 1024, count: 20 });
        assert!(
            st.throughput > pp.throughput,
            "one-way stream should beat strict alternation: {} vs {}",
            st.throughput,
            pp.throughput
        );
    }

    #[test]
    fn throughput_is_positive_and_size_monotone_at_top() {
        let small = run(MpiCfg::tcp(2, 0.0), PingPongCfg { size: 1024, iters: 10 });
        let big = run(MpiCfg::tcp(2, 0.0), PingPongCfg { size: 131072, iters: 10 });
        assert!(small.throughput > 0.0);
        assert!(
            big.throughput > small.throughput,
            "larger messages amortize per-message cost: {} vs {}",
            big.throughput,
            small.throughput
        );
    }

    #[test]
    fn sctp_and_tcp_both_complete_under_loss() {
        for cfg in [MpiCfg::tcp(2, 0.01), MpiCfg::sctp(2, 0.01)] {
            let r = run(cfg.with_seed(5), PingPongCfg { size: 30 * 1024, iters: 5 });
            assert!(r.secs > 0.0);
        }
    }
}
