//! Synthetic kernels reproducing the *communication patterns* of the seven
//! NAS Parallel Benchmarks the paper runs (NPB 3.2, class B, 8 processes;
//! §4.1.2 / Figure 9).
//!
//! Substitution note (DESIGN.md): the real NPB codes are Fortran numerics;
//! what drives Figure 9 is their communication structure — message sizes,
//! partner topology, collective mix — and the compute/communication ratio.
//! Each kernel here reproduces that structure, with computation modelled
//! as simulated time and a nominal total operation count so results are
//! reported in Mop/s like the paper. The paper's own analysis is encoded
//! here: datasets `S`/`W` are short-message dominated, `A`/`B` shift toward
//! long messages, and **MG and BT keep a greater proportion of short
//! messages even in class B** — which is why TCP keeps a slight edge on
//! exactly those two benchmarks.
//!
//! Operation counts are nominal (order-of-magnitude NPB class B); only the
//! TCP-vs-SCTP *ratio* per kernel is meaningful, exactly as in the paper.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mpi_core::{mpirun, Mpi, MpiCfg, ReduceOp};
use simcore::Dur;

use crate::zeros;

/// The seven benchmarks the paper runs (FT is skipped there too — it did
/// not compile with mpif77).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    LU,
    SP,
    EP,
    CG,
    BT,
    MG,
    IS,
}

impl Kernel {
    pub const ALL: [Kernel; 7] = [
        Kernel::LU,
        Kernel::SP,
        Kernel::EP,
        Kernel::CG,
        Kernel::BT,
        Kernel::MG,
        Kernel::IS,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::LU => "LU",
            Kernel::SP => "SP",
            Kernel::EP => "EP",
            Kernel::CG => "CG",
            Kernel::BT => "BT",
            Kernel::MG => "MG",
            Kernel::IS => "IS",
        }
    }

    /// Nominal total operation count (Mop) for the class, used only to
    /// express results in Mop/s.
    fn mops(self, class: Class) -> f64 {
        let b = match self {
            Kernel::LU => 54_000.0,
            Kernel::SP => 44_000.0,
            Kernel::EP => 2_100.0,
            Kernel::CG => 55_000.0,
            Kernel::BT => 15_000.0,
            Kernel::MG => 7_000.0,
            Kernel::IS => 1_000.0,
        };
        b * class.scale()
    }
}

/// Dataset class. The paper sweeps S, W, A, B; messages grow with class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    S,
    W,
    A,
    B,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
        }
    }

    /// Work scale relative to class B.
    fn scale(self) -> f64 {
        match self {
            Class::S => 0.002,
            Class::W => 0.02,
            Class::A => 0.25,
            Class::B => 1.0,
        }
    }

    /// Message-size scale relative to class B (sizes shrink with the
    /// dataset; S/W are short-message dominated — §4.1.2).
    fn msg_scale(self) -> f64 {
        match self {
            Class::S => 1.0 / 32.0,
            Class::W => 1.0 / 12.0,
            Class::A => 0.5,
            Class::B => 1.0,
        }
    }

    /// Iteration-count scale (sublinear: bigger classes mostly grow
    /// per-iteration work).
    fn iter_scale(self) -> f64 {
        match self {
            Class::S => 0.12,
            Class::W => 0.25,
            Class::A => 0.6,
            Class::B => 1.0,
        }
    }
}

/// One benchmark result, in the paper's metric.
#[derive(Debug, Clone, Copy)]
pub struct NasResult {
    pub kernel: Kernel,
    pub class: Class,
    pub secs: f64,
    pub mops_total: f64,
    pub mops_per_sec: f64,
    /// Simulator events fired during the run (self-metering, see
    /// `bench-harness`).
    pub events: u64,
    /// Scheduler/driver cost of the run (self-metering).
    pub sched: simcore::SchedCounters,
    /// Network, TCP and SCTP counters of the run, each copied whole.
    pub net: netsim::NetStats,
    pub tcp: transport::tcp::SockStats,
    pub sctp: transport::sctp::AssocStats,
    /// Most queue entries one matching lookup examined, across all ranks.
    pub match_scan_peak: usize,
}

/// Run one kernel at one class.
pub fn run(mpi_cfg: MpiCfg, kernel: Kernel, class: Class) -> NasResult {
    let scan_peak = Rc::new(Cell::new(0usize));
    let sp = scan_peak.clone();
    let report = mpirun(mpi_cfg, move |mpi| {
        let sp = sp.clone();
        Box::pin(async move {
            dispatch(mpi, kernel, class).await;
            sp.set(sp.get().max(mpi.match_scan_peak()));
        })
    });
    let secs = report.secs();
    let mops_total = kernel.mops(class);
    NasResult {
        kernel,
        class,
        secs,
        mops_total,
        mops_per_sec: mops_total / secs,
        events: report.events,
        sched: report.sched,
        net: report.net,
        tcp: report.tcp,
        sctp: report.sctp,
        match_scan_peak: scan_peak.get(),
    }
}

async fn dispatch(mpi: &mut Mpi, kernel: Kernel, class: Class) {
    match kernel {
        Kernel::LU => lu(mpi, class).await,
        Kernel::SP => sp(mpi, class).await,
        Kernel::EP => ep(mpi, class).await,
        Kernel::CG => cg(mpi, class).await,
        Kernel::BT => bt(mpi, class).await,
        Kernel::MG => mg(mpi, class).await,
        Kernel::IS => is(mpi, class).await,
    }
}

fn iters(base: u32, class: Class) -> u32 {
    ((base as f64 * class.iter_scale()).round() as u32).max(2)
}

fn msg(base: usize, class: Class) -> usize {
    ((base as f64 * class.msg_scale()) as usize).max(64)
}

/// Blocking pairwise exchange (sendrecv) used by the grid kernels.
async fn exchange(mpi: &mut Mpi, partner: u16, tag: i32, bytes: usize) {
    let s = mpi.isend(partner, tag, zeros(bytes)).await;
    let r = mpi.irecv(Some(partner), Some(tag)).await;
    mpi.waitall(&[s, r]).await;
}

/// Process-grid helpers: 4×2 for 8 ranks, degrading to a line.
fn grid(rank: u16, n: u16) -> (i32, i32, i32, i32) {
    let cols = if n >= 8 { 4 } else { n as i32 };
    let rows = ((n as i32) / cols).max(1);
    (rank as i32 % cols, rank as i32 / cols, cols, rows)
}

fn at(col: i32, row: i32, cols: i32) -> u16 {
    (row * cols + col) as u16
}

/// **LU** — wavefront (pipelined SSOR): many *small* messages along the
/// 2D process grid, two sweeps per iteration.
async fn lu(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let (col, row, cols, rows) = grid(me, n);
    let niter = iters(60, class);
    let m = msg(4096, class);
    // Per-sweep compute per rank; the wavefront pipeline multiplies the
    // critical path ~5x, so this is sized for class B totals ≈ 12 s.
    let sweep_compute = Dur::from_secs_f64(2.4 * class.scale() / (2.0 * niter as f64));
    for it in 0..niter {
        let tag = (it as i32) << 2;
        // Forward sweep: wait on north/west, compute, send south/east.
        if col > 0 {
            let _ = mpi.recv(Some(at(col - 1, row, cols)), Some(tag)).await;
        }
        if row > 0 {
            let _ = mpi.recv(Some(at(col, row - 1, cols)), Some(tag)).await;
        }
        mpi.compute(sweep_compute).await;
        if col + 1 < cols {
            mpi.send(at(col + 1, row, cols), tag, zeros(m)).await;
        }
        if row + 1 < rows {
            mpi.send(at(col, row + 1, cols), tag, zeros(m)).await;
        }
        // Backward sweep.
        let tag = tag | 1;
        if col + 1 < cols {
            let _ = mpi.recv(Some(at(col + 1, row, cols)), Some(tag)).await;
        }
        if row + 1 < rows {
            let _ = mpi.recv(Some(at(col, row + 1, cols)), Some(tag)).await;
        }
        mpi.compute(sweep_compute).await;
        if col > 0 {
            mpi.send(at(col - 1, row, cols), tag, zeros(m)).await;
        }
        if row > 0 {
            mpi.send(at(col, row - 1, cols), tag, zeros(m)).await;
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]).await; // residual norms
}

/// **SP** — scalar-pentadiagonal ADI: large face exchanges in three
/// directions per iteration (long messages in class B).
async fn sp(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(100, class);
    let m = msg(100 * 1024, class);
    let per_iter = Dur::from_secs_f64(10.0 * class.scale() / niter as f64);
    for it in 0..niter {
        for dir in 0..3u16 {
            let shift = 1 + dir;
            let to = (me + shift) % n;
            let from = (me + n - shift) % n;
            let tag = ((it as i32) << 4) | dir as i32;
            let s = mpi.isend(to, tag, zeros(m)).await;
            let r = mpi.irecv(Some(from), Some(tag)).await;
            mpi.compute(per_iter / 3).await;
            mpi.waitall(&[s, r]).await;
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]).await;
}

/// **EP** — embarrassingly parallel: almost pure compute, tiny reductions
/// at the end.
async fn ep(mpi: &mut Mpi, class: Class) {
    mpi.compute(Dur::from_secs_f64(10.0 * class.scale())).await;
    for _ in 0..3 {
        let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 10]).await;
    }
}

/// **CG** — conjugate gradient: transpose-partner exchanges of long
/// vectors plus a tiny dot-product allreduce every inner iteration.
async fn cg(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let outer = iters(15, class);
    let inner = 25;
    let m = msg(120 * 1024, class);
    let per_inner = Dur::from_secs_f64(40.0 * class.scale() / (outer as f64 * inner as f64));
    // Transpose partner: reflect across half the machine.
    let partner = me ^ (n / 2).max(1);
    for _o in 0..outer {
        for i in 0..inner {
            if partner < n && partner != me {
                exchange(mpi, partner, i, m).await;
            }
            mpi.compute(per_inner).await;
            let _ = mpi.allreduce(ReduceOp::Sum, &[1.0]).await;
        }
    }
}

/// **BT** — block-tridiagonal ADI. The paper notes BT keeps a greater
/// proportion of *short* messages even in class B: faces move as several
/// sub-block messages below the eager limit.
async fn bt(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(60, class);
    let m = msg(15 * 1024, class); // short (< 64 KB eager limit) in class B
    let per_iter = Dur::from_secs_f64(4.0 * class.scale() / niter as f64);
    for it in 0..niter {
        for dir in 0..3u16 {
            let shift = 1 + dir;
            let to = (me + shift) % n;
            let from = (me + n - shift) % n;
            let tag = ((it as i32) << 4) | dir as i32;
            // Four sub-block messages per face: short-message heavy (the
            // property the paper credits for TCP's slight edge on BT).
            let mut sends = Vec::with_capacity(4);
            for _ in 0..4 {
                sends.push(mpi.isend(to, tag, zeros(m)).await);
            }
            let mut recvs = Vec::with_capacity(4);
            for _ in 0..4 {
                recvs.push(mpi.irecv(Some(from), Some(tag)).await);
            }
            mpi.compute(per_iter / 3).await;
            mpi.waitall(&sends).await;
            mpi.waitall(&recvs).await;
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]).await;
}

/// **MG** — multigrid V-cycles: neighbor exchanges whose size shrinks with
/// every grid level, so traffic is dominated by *short* messages.
async fn mg(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(20, class);
    // Faces move as half-planes (64 KB at class B): even MG's largest
    // messages stay under the eager limit — the short-message-heavy
    // profile the paper calls out for MG.
    let top = msg(64 * 1024, class);
    let per_level = Dur::from_secs_f64(2.0 * class.scale() / (niter as f64 * 7.0));
    for it in 0..niter {
        let mut level_bytes = top;
        let mut level = 0i32;
        while level_bytes >= 64 {
            // Exchange with ±1 and ±2 ring neighbors at each level.
            for shift in [1u16, 2] {
                let to = (me + shift) % n;
                let from = (me + n - shift) % n;
                let tag = ((it as i32) << 8) | (level << 2) | shift as i32;
                let s = mpi.isend(to, tag, zeros(level_bytes)).await;
                let r = mpi.irecv(Some(from), Some(tag)).await;
                mpi.waitall(&[s, r]).await;
            }
            mpi.compute(per_level).await;
            level_bytes /= 4;
            level += 1;
        }
    }
    let _ = mpi.allreduce(ReduceOp::Max, &[1.0]).await;
}

/// **IS** — integer sort: a bucket-size reduction then an all-to-all key
/// redistribution (the heavy phase), per iteration.
async fn is(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let niter = iters(10, class);
    let keys_per_pair = msg(512 * 1024, class);
    let per_iter = Dur::from_secs_f64(1.2 * class.scale() / niter as f64);
    for _ in 0..niter {
        // Bucket-size exchange (small).
        let _ = mpi.allreduce(ReduceOp::Sum, &[0.0; 64]).await;
        // Key redistribution (large, all-to-all).
        let data: Vec<Bytes> = (0..n).map(|_| zeros(keys_per_pair)).collect();
        let _ = mpi.alltoall(data).await;
        mpi.compute(per_iter).await;
    }
    let _ = mpi.allreduce(ReduceOp::Max, &[1.0]).await;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_complete_class_s_both_transports() {
        for k in Kernel::ALL {
            for cfg in [MpiCfg::tcp(8, 0.0), MpiCfg::sctp(8, 0.0)] {
                let r = run(cfg, k, Class::S);
                assert!(r.secs > 0.0, "{} produced no time", k.name());
                assert!(r.mops_per_sec.is_finite());
            }
        }
    }

    #[test]
    fn class_w_scales_up_from_s() {
        let s = run(MpiCfg::sctp(8, 0.0), Kernel::CG, Class::S);
        let w = run(MpiCfg::sctp(8, 0.0), Kernel::CG, Class::W);
        assert!(w.secs > s.secs, "bigger class must take longer");
    }

    #[test]
    fn kernels_survive_loss() {
        for k in [Kernel::LU, Kernel::IS] {
            let r = run(MpiCfg::sctp(8, 0.01).with_seed(4), k, Class::S);
            assert!(r.secs > 0.0);
        }
    }
}
