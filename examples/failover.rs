//! SCTP multihoming failover, two ways.
//!
//! **Part 1 — the paper's §3.5.1:** a long transfer between two multihomed
//! hosts survives the primary network dying mid-run — data transparently
//! moves to an alternate path. The same failure kills a single-homed run's
//! progress until the network returns.
//!
//! **Part 2 — a scripted link flap (the fault plane):** instead of killing
//! the network from inside the workload, we install a [`netsim::FaultPlan`]
//! that takes every host's primary interface down for a fixed window, and
//! walk through *how long failure detection takes* and what it costs:
//!
//! * SCTP declares a path failed after `path_max_retrans` consecutive T3
//!   retransmission timeouts on it (RFC 4960 §8.2), so detection latency is
//!   roughly the sum of the first `pmr + 1` backed-off RTOs — seconds, not
//!   microseconds, and tunable.
//! * A 3-path association then just *moves*: the transfer finishes on an
//!   alternate path long before the primary returns.
//! * A 1-path association has nowhere to go: it keeps backing off until the
//!   link comes back, so its makespan is pinned by the flap window, not by
//!   the data.
//!
//! The same plan + seed replays byte-identically; the `flap` bench binary
//! runs the full version of this experiment (farm workload, heartbeat ×
//! path-max-retrans sweep) and `TRACE=1` captures the flap edges for
//! `analyze`.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use bytes::Bytes;
use mpi_core::{mpirun, MpiCfg, MpiReport};
use netsim::{FaultPlan, FlapRule, Scope};
use simcore::Dur;

const N_MSGS: u32 = 30;
const SIZE: usize = 100 * 1024;

/// The transfer both parts run: rank 0 streams `N_MSGS` × `SIZE` bytes to
/// rank 1, which checks every message arrives intact and in order.
fn transfer(cfg: MpiCfg, kill_primary_at_msg: Option<u32>) -> MpiReport {
    mpirun(cfg, move |mpi| {
        Box::pin(async move {
            match mpi.rank() {
                0 => {
                    for i in 0..N_MSGS {
                        if Some(i) == kill_primary_at_msg {
                            println!(
                                "[{:.3}s] killing network 0 (the primary path)",
                                mpi.now().as_secs_f64()
                            );
                            mpi.with_world(|w| w.net.set_network_up(0, false));
                        }
                        mpi.send(1, 0, Bytes::from(vec![i as u8; SIZE])).await;
                    }
                }
                1 => {
                    for i in 0..N_MSGS {
                        let (_, msg) = mpi.recv(Some(0), Some(0)).await;
                        assert_eq!(msg.len, SIZE);
                        assert_eq!(msg.to_vec()[0], i as u8, "ordered across failover");
                    }
                    println!(
                        "[{:.3}s] receiver: all {} messages intact and in order",
                        mpi.now().as_secs_f64(),
                        N_MSGS
                    );
                }
                _ => {}
            }
        })
    })
}

/// 3 paths, aggressive failure detection — the configuration both parts use.
fn multihomed_cfg() -> MpiCfg {
    let mut cfg = MpiCfg::sctp(2, 0.0);
    cfg.sctp.num_paths = 3; // the testbed's three independent networks
    cfg.sctp.heartbeat_interval = Some(Dur::from_secs(2));
    cfg.sctp.path_max_retrans = 2; // fail over quickly (tunable, §3.5.1)
    cfg
}

fn main() {
    // ── Part 1: ad-hoc kill from inside the workload (§3.5.1) ──────────
    println!("== part 1: primary network dies mid-run (never returns) ==");
    let report = transfer(multihomed_cfg(), Some(5));
    println!(
        "run completed in {:.3}s with {} failover(s)",
        report.secs(),
        report.sctp.failovers
    );
    println!("(failover cost = a few retransmission timeouts; then full speed on path 1)\n");

    // ── Part 2: a scripted flap via the fault plane ────────────────────
    // The plan is data, not workload code: primary interface (iface 0 on
    // every host) down from 5 ms to 2 s, then back up. Installed through
    // `MpiCfg::fault_plan`, it drives `LinkDrop::LinkDown` inside netsim —
    // the transport sees exactly what it would see from a real dead link.
    // The window has to outlast detection *and* the retransmission tail:
    // with `path_max_retrans = 2` the sender declares the path dead after
    // ~3 consecutive backed-off T3/heartbeat failures (≈1.5 s here), and
    // chunks already outstanding on the dead path still wait out their
    // backed-off T3 before being retried on the new primary — a flap
    // shorter than that is just a stall, never a demonstrated failover.
    let flap_from = Dur::from_millis(5);
    let flap_until = Dur::from_secs(8);
    let plan = FaultPlan {
        flaps: vec![FlapRule {
            scope: Scope::on_iface(0),
            from_ns: flap_from.as_nanos(),
            until_ns: flap_until.as_nanos(),
        }],
        ..FaultPlan::default()
    };
    println!(
        "== part 2: scripted flap — iface 0 down {:.0} ms .. {:.0} ms ==",
        flap_from.as_secs_f64() * 1e3,
        flap_until.as_secs_f64() * 1e3
    );
    println!("plan (replayable via FaultPlan::from_json): {}", plan.to_json());

    // 2a: multihomed. The transfer stalls when the flap hits, eats
    // `path_max_retrans + 1` backed-off T3/heartbeat failures on the dead
    // path, fails over, drains the stalled chunks onto an alternate
    // network at their next T3, and finishes — while the primary is still
    // down.
    let mut cfg = multihomed_cfg();
    cfg.sctp.heartbeat_interval = Some(Dur::from_millis(500)); // probe the dead path often
    cfg.fault_plan = plan.clone();
    let multi = transfer(cfg, None);
    let detect_ms =
        multi.sctp.first_failover_ns.saturating_sub(flap_from.as_nanos()) as f64 / 1e6;
    println!(
        "3-path: {:.3}s total, {} failover(s), dead path detected {:.0} ms after the flap",
        multi.secs(),
        multi.sctp.failovers,
        detect_ms
    );
    assert!(multi.sctp.failovers >= 1, "the flap must force a failover");
    assert!(
        multi.secs() < flap_until.as_secs_f64(),
        "3-path must finish while the primary is still down"
    );

    // 2b: single-homed. Same flap, nowhere to fail over to: the sender
    // backs off until the link returns at 2 s, so the makespan is the flap
    // window plus the tail of the last backoff, not the 30 messages.
    let mut cfg = MpiCfg::sctp(2, 0.0);
    cfg.sctp.num_paths = 1;
    cfg.fault_plan = plan;
    let single = transfer(cfg, None);
    println!(
        "1-path: {:.3}s total, {} failover(s) — pinned by the flap window, not the data",
        single.secs(),
        single.sctp.failovers
    );
    assert!(
        single.secs() >= flap_until.as_secs_f64(),
        "1-path cannot finish before the link returns"
    );

    println!("\ndetection latency ≈ the first pmr+1 backed-off RTOs (RFC 4960 §8.2/§8.3);");
    println!(
        "sweep heartbeat_interval × path_max_retrans with: \
         cargo run --release -p bench-harness --bin bench -- flap"
    );
}
