//! **A4 — §3.3 scalability**: LAM-TCP maintains one socket per peer and
//! polls them all with `select()`, whose cost grows linearly in the number
//! of descriptors; the SCTP module's single one-to-many socket pays O(1).
//!
//! The experiment isolates the select()-attributable cost: each process
//! count runs a ring-exchange program twice on TCP — once with the
//! modelled per-descriptor select cost, once with it zeroed — and reports
//! the delta. The SCTP column (no select at all) is the reference.
//!
//! Usage: `scalability [--quick]`

use bench_harness::{render_table, save_json, Scale};
use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg};
use netsim::NetCfg;

struct Row {
    nprocs: u16,
    tcp_us: f64,
    tcp_noselect_us: f64,
    select_share_pct: f64,
    sctp_us: f64,
}

bench_harness::impl_to_json!(Row { nprocs, tcp_us, tcp_noselect_us, select_share_pct, sctp_us });

async fn ring(mpi: &mut mpi_core::Mpi, iters: u32, bytes: usize) {
    let n = mpi.size();
    let me = mpi.rank();
    let to = (me + 1) % n;
    let from = (me + n - 1) % n;
    for it in 0..iters {
        let s = mpi.isend(to, it as i32, Bytes::from(vec![0u8; bytes])).await;
        let r = mpi.irecv(Some(from), Some(it as i32)).await;
        mpi.waitall(&[s, r]).await;
    }
}

fn run_one(mut cfg: MpiCfg, n: u16, iters: u32) -> f64 {
    cfg.nprocs = n;
    cfg.net = NetCfg { hosts: n, ..NetCfg::paper_cluster(0.0) };
    let report = mpirun(cfg, move |mpi| Box::pin(ring(mpi, iters, 16 * 1024)));
    report.secs() / iters as f64 * 1e6
}

fn main() {
    let scale = Scale::from_args();
    let (sizes, iters): (&[u16], u32) = match scale {
        Scale::Paper => (&[2, 4, 8, 16, 32, 64, 96], 60),
        Scale::Quick => (&[2, 8, 24], 10),
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let tcp = run_one(MpiCfg::tcp(n, 0.0), n, iters);
        let mut no_sel = MpiCfg::tcp(n, 0.0);
        no_sel.cost.select_base = simcore::Dur::ZERO;
        no_sel.cost.select_per_sock = simcore::Dur::ZERO;
        let tcp_ns = run_one(no_sel, n, iters);
        let sctp = run_one(MpiCfg::sctp(n, 0.0), n, iters);
        rows.push(Row {
            nprocs: n,
            tcp_us: tcp,
            tcp_noselect_us: tcp_ns,
            select_share_pct: (tcp - tcp_ns) / tcp * 100.0,
            sctp_us: sctp,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nprocs.to_string(),
                format!("{:.1}", r.tcp_us),
                format!("{:.1}", r.tcp_noselect_us),
                format!("{:.1}%", r.select_share_pct),
                format!("{:.1}", r.sctp_us),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "A4: ring exchange cost vs process count (us/iteration, 16K msgs)",
            &["procs", "TCP", "TCP no-select", "select share", "SCTP"],
            &table,
        )
    );
    println!("expected: the select() share grows with the process count (§3.3)");
    save_json(&scale.tag("scalability"), &rows);
}
