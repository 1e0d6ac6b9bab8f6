//! Diagnostic probe: farm run with full transport stats.

use mpi_core::MpiCfg;
use workloads::farm::FarmCfg;

fn main() {
    let loss: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let fanout: u32 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let task: usize = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(300 * 1024);
    let mut cfg = FarmCfg::small(task, fanout);
    if std::env::args().any(|a| a == "--nocompute") {
        cfg.compute_per_task = simcore::Dur::ZERO;
    }
    let big_q = std::env::args().any(|a| a == "--bigq");
    for (name, mut m) in [("tcp", MpiCfg::tcp(8, loss)), ("sctp", MpiCfg::sctp(8, loss))] {
        if big_q {
            m.net.link.queue_cap_bytes = 4 << 20;
        }
        if std::env::args().any(|a| a == "--noburst") {
            m.sctp.max_burst = u32::MAX;
        }
        let blocked = std::sync::Arc::new(std::sync::Mutex::new((0.0f64, 0.0f64)));
        let b2 = blocked.clone();
        let rep = mpi_core::mpirun(m.with_seed(std::env::var("FARM_SEED").ok().and_then(|x| x.parse().ok()).unwrap_or(7)), move |mpi| {
            let b2 = b2.clone();
            Box::pin(async move {
                workloads::farm::run_inline(mpi, cfg).await;
                let mut g = b2.lock().unwrap();
                if mpi.rank() == 0 {
                    g.0 = mpi.stats.blocked.as_secs_f64();
                } else if mpi.rank() == 1 {
                    g.1 = mpi.stats.blocked.as_secs_f64();
                }
            })
        });
        let (mb, wb) = *blocked.lock().unwrap();
        println!("  manager blocked {mb:.3}s; worker1 blocked {wb:.3}s");
        println!(
            "{name}: sim={:.3}s events={} tcp[rtx={} fast={} to={}] sctp[rtx={} fast={} to={}] drops={}",
            rep.secs(),
            rep.events,
            rep.tcp.retransmits,
            rep.tcp.fast_retransmits,
            rep.tcp.timeouts,
            rep.sctp.retransmits,
            rep.sctp.fast_retransmits,
            rep.sctp.timeouts,
            rep.net.drops_loss,
        );
        println!("  queue_drops={} delivered={} offered={}", rep.net.drops_queue, rep.net.packets_delivered, rep.net.packets_offered);
    }
}
