//! RFC 8260 / RFC 3758 integration tests: interleave-off bit-identity,
//! scheduler determinism, per-(stream, MID) reassembly equivalence, the
//! FORWARD-TSN vs SACK-accounting invariants, and the pinned engine cells
//! that hold every timer-scope / reassembly-keying combination bit-identical.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use netsim::NetCfg;
use simcore::{Dur, ProcEnv, Runtime, SimTime};
use transport::sctp::{self, AssocId, AssocState, AssocStats, EpId, RecvMsg, SchedKind, SctpCfg};
use transport::tcp::TcpCfg;
use transport::World;

type Env = ProcEnv<World>;

/// Delivered-message record: receipt order within its stream is the index
/// in the per-stream vector; payload equality via a cheap rolling digest.
type Delivered = BTreeMap<u16, Vec<(u32, u32, u32, u64)>>; // stream → [(ssn, ppid, len, digest)]

fn digest<'a>(chunks: impl IntoIterator<Item = &'a Bytes>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk.iter() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn pattern(len: usize, tag: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag)).collect::<Vec<u8>>(),
    )
}

async fn connect_blocking(env: &Env, ep: EpId, dst_host: u16, dst_port: u16) -> AssocId {
    let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, dst_host, dst_port));
    let me = env.id();
    env.block_on(|w, _| match sctp::assoc_state(w, a) {
        AssocState::Established => Some(()),
        AssocState::Aborted => panic!("association failed during setup"),
        _ => {
            sctp::register_writer(w, ep, me);
            None
        }
    }).await;
    a
}

/// Queue one message, blocking on send-buffer space. `lifetime` as in the
/// engine: `None` = the config default, `Some(l)` = explicit via `sendmsg_pr`.
async fn sendmsg_blocking(
    env: &Env,
    a: AssocId,
    stream: u16,
    ppid: u32,
    data: Bytes,
    lifetime: Option<Option<Dur>>,
) {
    let me = env.id();
    let ep = a.endpoint();
    env.block_on(|w, ctx| {
        let sent = match lifetime {
            None => sctp::sendmsg(w, ctx, a, stream, ppid, data.clone()),
            Some(l) => sctp::sendmsg_pr(w, ctx, a, stream, ppid, data.clone(), l),
        };
        match sent {
            Ok(()) => Some(()),
            Err(sctp::SendErr::WouldBlock) => {
                sctp::register_writer(w, ep, me);
                None
            }
            Err(e) => panic!("sendmsg failed: {e:?}"),
        }
    }).await;
}

async fn recvmsg_blocking(env: &Env, ep: EpId) -> RecvMsg {
    let me = env.id();
    env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
        Some(m) => Some(m),
        None => {
            sctp::register_reader(w, ep, me);
            None
        }
    }).await
}

/// PPID of the fully reliable end-of-stream marker: with PR-SCTP on, any
/// other message may be abandoned, so receivers run until every stream has
/// delivered its marker (streams are unordered against each other — one
/// marker says nothing about the other streams' tails).
const SENTINEL: u32 = u32::MAX;

async fn send_sentinels(env: &Env, a: AssocId, streams: impl IntoIterator<Item = u16>) {
    for sid in streams {
        sendmsg_blocking(env, a, sid, SENTINEL, Bytes::from_static(b"eos"), Some(None)).await;
    }
}

/// Receive until `streams` sentinels arrived, handing every other message
/// to `on_msg`.
async fn recv_until_sentinels(env: &Env, ep: EpId, streams: u16, mut on_msg: impl FnMut(RecvMsg)) {
    let mut open = streams;
    while open > 0 {
        let m = recvmsg_blocking(env, ep).await;
        if m.ppid == SENTINEL {
            open -= 1;
        } else {
            on_msg(m);
        }
    }
}

/// A stuck ordered-delivery gate does not end a run — heartbeats keep the
/// simulation alive forever — so every run here carries a deadline, and
/// asserts the outcome did not hit it (naming the cell that stalled).
const DEADLINE: SimTime = SimTime::from_nanos(600_000_000_000);

/// Every `AssocStats` counter of both hosts summed, in declaration order
/// (the struct has no `PartialEq`; a flat array also diffs readably).
fn stat_vec(w: &World) -> [u64; 24] {
    let mut v = [0u64; 24];
    for h in &w.hosts {
        let s: AssocStats = h.sctp.total_stats();
        let flat = [
            s.packets_out,
            s.packets_in,
            s.data_chunks_out,
            s.data_chunks_in,
            s.bytes_out,
            s.bytes_in,
            s.retransmits,
            s.fast_retransmits,
            s.timeouts,
            s.dup_tsns_in,
            s.sacks_out,
            s.sacks_in,
            s.msgs_delivered,
            s.failovers,
            s.per_path_pkts[0],
            s.per_path_pkts[1],
            s.per_path_pkts[2],
            s.per_path_pkts[3],
            s.spurious_frtx,
            s.rescue_rtx,
            s.msgs_abandoned,
            s.fwd_tsn_out,
            s.fwd_tsn_in,
            s.first_failover_ns,
        ];
        for (t, x) in v.iter_mut().zip(flat) {
            *t += x;
        }
    }
    v
}

/// What one [`run_mixed`] produced.
struct MixedRun {
    delivered: Delivered,
    events: u64,
    sim_ns: u64,
    stats: [u64; 24],
}

/// The mixed-size multistream workload every test here drives: `n_msgs`
/// messages round-robined over `streams` streams, every fourth message
/// large enough to fragment (70 KB > sndbuf-independent PMTU), the rest
/// 1 KB, under the config's default lifetime; then the reliable sentinels.
fn run_mixed(cfg: SctpCfg, loss: f64, seed: u64, n_msgs: u32, streams: u16) -> MixedRun {
    let what = format!(
        "run_mixed(interleave={} sched={:?} cmt={} num_paths={} pr_lifetime={:?}, loss={loss}, \
         seed={seed}, n_msgs={n_msgs}, streams={streams})",
        cfg.interleave, cfg.sched, cfg.cmt, cfg.num_paths, cfg.pr_lifetime
    );
    let world = World::new(NetCfg::paper_cluster(loss), TcpCfg::default(), cfg);
    let mut rt = Runtime::new(world, seed);
    rt.set_deadline(DEADLINE);
    let delivered: Arc<Mutex<Delivered>> = Arc::new(Mutex::new(BTreeMap::new()));

    rt.spawn("client", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = connect_blocking(&env, ep, 1, 4000).await;
        for i in 0..n_msgs {
            let sid = (i % streams as u32) as u16;
            sendmsg_blocking(&env, a, sid, i, mixed_payload(i, sid), None).await;
        }
        send_sentinels(&env, a, 0..streams).await;
    });

    let d = delivered.clone();
    rt.spawn("server", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        recv_until_sentinels(&env, ep, streams, |m| {
            let rec = (m.ssn, m.ppid, m.len, digest(&m.data));
            d.lock().unwrap().entry(m.stream).or_default().push(rec);
        }).await;
    });

    let out = rt.run();
    assert!(!out.hit_deadline, "{what}: deadline passed with a process still blocked");
    MixedRun {
        delivered: Arc::try_unwrap(delivered).unwrap().into_inner().unwrap(),
        events: out.events,
        sim_ns: out.sim_time.as_nanos(),
        stats: stat_vec(&out.world),
    }
}

/// Message `i` of the mixed workload, as sent on stream `sid`.
fn mixed_payload(i: u32, sid: u16) -> Bytes {
    pattern(if i % 4 == 0 { 70 * 1024 } else { 1024 }, sid as u8)
}

fn base_cfg() -> SctpCfg {
    SctpCfg { out_streams: 4, ..SctpCfg::default() }
}

/// With interleaving off the engine forces FCFS regardless of the
/// configured scheduler — a non-FIFO scheduler must not change one event of
/// the run (the bit-identity guarantee that keeps pre-8260 experiments
/// reproducible whatever `SCTP_SCHED` is set to).
#[test]
fn interleave_off_ignores_scheduler_bit_identically() {
    let mut runs = Vec::new();
    for sched in [
        SchedKind::Fcfs,
        SchedKind::RoundRobin,
        SchedKind::WeightedFair,
        SchedKind::StrictPriority,
    ] {
        let cfg = SctpCfg { interleave: false, sched, ..base_cfg() };
        runs.push(run_mixed(cfg, 0.01, 7, 64, 4));
    }
    for r in &runs[1..] {
        assert_eq!(
            runs[0].events, r.events,
            "event counts must be identical with interleaving off"
        );
        assert_eq!(
            runs[0].delivered, r.delivered,
            "delivered messages must be identical with interleaving off"
        );
    }
}

/// Each scheduler is deterministic: the same seed replays the same run.
#[test]
fn schedulers_are_deterministic() {
    for sched in [
        SchedKind::Fcfs,
        SchedKind::RoundRobin,
        SchedKind::WeightedFair,
        SchedKind::StrictPriority,
    ] {
        let cfg = || SctpCfg { interleave: true, sched, ..base_cfg() };
        let r1 = run_mixed(cfg(), 0.01, 11, 64, 4);
        let r2 = run_mixed(cfg(), 0.01, 11, 64, 4);
        assert_eq!(r1.events, r2.events, "{sched:?} must replay the same event count");
        assert_eq!(r1.delivered, r2.delivered, "{sched:?} must replay the same deliveries");
    }
}

/// The same workload with interleaving off, then on (round-robin).
fn off_and_on(cfg: SctpCfg, loss: f64) -> [MixedRun; 2] {
    let on = SctpCfg { interleave: true, sched: SchedKind::RoundRobin, ..cfg.clone() };
    [
        run_mixed(SctpCfg { interleave: false, ..cfg }, loss, 23, 64, 4),
        run_mixed(on, loss, 23, 64, 4),
    ]
}

/// Per-(stream, MID) reassembly delivers exactly what classic per-stream
/// reassembly delivers: same messages, same payloads, same per-stream
/// order — only cross-stream arrival order may differ. With PR-SCTP
/// abandoning messages the two modes may lose *different* ones (their wire
/// timing differs), so there the shared contract is checked against the
/// offered sequence: each stream delivers an in-order subsequence of it,
/// every survivor intact under its original SSN/MID.
#[test]
fn reassembly_equivalent_interleave_on_vs_off() {
    for loss in [0.0, 0.02] {
        let [off, on] = off_and_on(base_cfg(), loss);
        assert_eq!(off.delivered, on.delivered, "per-stream deliveries must match at loss={loss}");
    }
    let pr = SctpCfg { pr_sctp: true, pr_lifetime: Some(Dur::from_millis(2)), ..base_cfg() };
    for run in off_and_on(pr, 0.02) {
        let survivors: usize = run.delivered.values().map(Vec::len).sum();
        assert!(survivors < 64, "2 ms lifetimes at 2% loss must abandon something");
        for (&sid, recs) in &run.delivered {
            for pair in recs.windows(2) {
                assert!(pair[0].1 < pair[1].1, "stream {sid} delivered out of order: {pair:?}");
            }
            for &(ssn, ppid, len, dig) in recs {
                let want = mixed_payload(ppid, sid);
                assert_eq!((ssn, len), (ppid / 4, want.len() as u32), "message {ppid}");
                assert_eq!(dig, digest([&want]), "payload of message {ppid} on stream {sid}");
            }
        }
    }
}

/// Refactor guard: `(events, sim_ns, counters)` of five lossy (1 %) two-host
/// cells, one per timer-scope / reassembly-keying combination the engine
/// has — association-wide T3 (with an RTO), failover-only multihoming
/// (retransmissions on the alternates), per-destination T3 with rescue
/// probes (CMT), (MID, FSN) reassembly under a non-FIFO scheduler, and
/// PR-SCTP abandonment with FORWARD-TSN. Seeds are picked so each cell hits
/// its path; the simulation is deterministic, so any drift in these numbers
/// is a behaviour change. Expected values were generated at the commit
/// before the engine's CMT/non-CMT and DATA/I-DATA forks were collapsed; on
/// a mismatch the test prints the actual rows in table form.
#[test]
fn engine_cells_are_pinned() {
    let cells: [(&str, u64, SctpCfg); 5] = [
        ("single-homed", 27, base_cfg()),
        ("failover-only x3", 20, SctpCfg { num_paths: 3, ..base_cfg() }),
        ("cmt x3", 11, SctpCfg { num_paths: 3, cmt: true, ..base_cfg() }),
        ("i-data rr", 11, SctpCfg { interleave: true, sched: SchedKind::RoundRobin, ..base_cfg() }),
        (
            "pr-sctp 3ms",
            27,
            SctpCfg { pr_sctp: true, pr_lifetime: Some(Dur::from_millis(3)), ..base_cfg() },
        ),
    ];
    #[rustfmt::skip]
    let want: [(u64, u64, [u64; 24]); 5] = [
        (3328, 1040957424, [3369, 3322, 2124, 2124, 2990092, 2990092, 31, 22, 1, 0, 1214, 1199, 164, 0, 3369, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (3410, 14033402800, [3447, 3398, 2124, 2124, 2990092, 2990092, 29, 22, 3, 0, 1294, 1275, 164, 0, 3418, 29, 0, 0, 0, 0, 0, 0, 0, 0]),
        (4179, 1010387578, [4153, 4105, 2124, 2124, 2990092, 2990092, 25, 14, 0, 6, 2002, 1976, 164, 0, 2778, 598, 777, 0, 0, 7, 0, 0, 0, 0]),
        (3309, 2040099280, [3341, 3302, 2124, 2124, 2990092, 2990092, 23, 21, 1, 0, 1192, 1179, 164, 0, 3341, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (2812, 1033880304, [2846, 2806, 1776, 1774, 2520124, 2517220, 17, 16, 1, 0, 1030, 1010, 99, 0, 2846, 0, 0, 0, 0, 0, 65, 23, 23, 0]),
    ];
    let got = cells.map(|(name, seed, cfg)| (name, run_mixed(cfg, 0.01, seed, 160, 4)));
    let mut drift = false;
    for ((name, r), w) in got.iter().zip(want) {
        if (r.events, r.sim_ns, r.stats) != w {
            drift = true;
            eprintln!("{name}: ({}, {}, {:?}),", r.events, r.sim_ns, r.stats);
        }
    }
    assert!(!drift, "pinned engine cells drifted (actual rows above)");
}

mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_sched() -> impl Strategy<Value = SchedKind> {
        prop_oneof![
            Just(SchedKind::Fcfs),
            Just(SchedKind::RoundRobin),
            Just(SchedKind::WeightedFair),
            Just(SchedKind::StrictPriority),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Interleave-off bit-identity holds for every scheduler, seed, and
        /// loss rate — not just the hand-picked cases above.
        #[test]
        fn interleave_off_identity_any_seed(
            sched in arb_sched(),
            seed in 0u64..1000,
            lossy in any::<bool>(),
        ) {
            let loss = if lossy { 0.01 } else { 0.0 };
            let fcfs = run_mixed(
                SctpCfg { interleave: false, sched: SchedKind::Fcfs, ..base_cfg() },
                loss, seed, 32, 4,
            );
            let other = run_mixed(
                SctpCfg { interleave: false, sched, ..base_cfg() },
                loss, seed, 32, 4,
            );
            prop_assert_eq!(fcfs.events, other.events, "event count must not depend on sched");
            prop_assert_eq!(fcfs.delivered, other.delivered, "deliveries must not depend on sched");
        }

        /// Per-(stream, MID) reassembly equivalence holds for every
        /// scheduler and seed: interleaving may reorder *streams* on the
        /// wire but never what a stream delivers.
        #[test]
        fn reassembly_equivalence_any_sched(
            sched in arb_sched(),
            seed in 0u64..1000,
            streams in 1u16..5,
        ) {
            let cfg = SctpCfg { out_streams: streams, ..SctpCfg::default() };
            let off = run_mixed(
                SctpCfg { interleave: false, ..cfg.clone() }, 0.01, seed, 32, streams,
            );
            let on = run_mixed(
                SctpCfg { interleave: true, sched, ..cfg }, 0.01, seed, 32, streams,
            );
            prop_assert_eq!(off.delivered, on.delivered, "per-stream deliveries must match");
        }
    }
}

/// FORWARD-TSN vs SACK accounting: a lossy PR-SCTP run terminates, conserves
/// messages (delivered + abandoned ≥ offered), pairs abandonment with
/// FORWARD-TSN traffic, and every stream's reliable sentinel still arrives —
/// under the association-wide T3 and under CMT's per-destination timers
/// alike. The `blackout` runs also force the one loss random drops rarely
/// produce: a FORWARD-TSN lost with no data in flight to clock its resend,
/// which whichever T3 guards it must re-emit or the peer's ordered gate
/// stays shut for good.
#[test]
fn forward_tsn_accounting_invariants() {
    for (cmt, num_paths, blackout) in [(false, 1, false), (false, 1, true), (true, 2, true)] {
        forward_tsn_accounting(SctpCfg { cmt, num_paths, ..base_cfg() }, blackout);
    }
}

fn forward_tsn_accounting(paths: SctpCfg, blackout: bool) {
    const N: u32 = 200;
    let what = format!("cmt={} num_paths={} blackout={blackout}", paths.cmt, paths.num_paths);
    let num_paths = paths.num_paths;
    let cfg = SctpCfg { pr_sctp: true, pr_lifetime: Some(Dur::from_millis(20)), ..paths };
    let world = World::new(NetCfg::paper_cluster(0.02), TcpCfg::default(), cfg);
    let mut rt = Runtime::new(world, 31);
    rt.set_deadline(DEADLINE);
    let delivered = Arc::new(Mutex::new(Vec::<u32>::new()));

    rt.spawn("client", move |env: Env| async move {
        let ep = env.with(|w, _| sctp::socket(w, 0, 4000, true));
        let a = connect_blocking(&env, ep, 1, 4000).await;
        let life = Some(Some(Dur::from_millis(20)));
        for i in 0..N {
            // A near-line-rate source: 32 KB every 500 µs ≈ 512 Mb/s offered;
            // loss-recovery stalls back the queue up past the 20 ms lifetime.
            env.sleep(Dur::from_micros(500)).await;
            sendmsg_blocking(&env, a, (i % 4) as u16, i, pattern(32 * 1024, i as u8), life).await;
        }
        if !blackout {
            send_sentinels(&env, a, 0..4).await;
            return;
        }
        // Stream 1 ends differently. Its last message M goes into dead
        // networks; its sentinel, sent the same instant into live ones,
        // arrives and waits behind M at the peer's ordered gate. Once the
        // sentinel is SACKed the networks die again, so M's retransmission
        // is lost, M is abandoned at its RTO, and the FORWARD-TSN
        // announcing that is lost too. When the networks return nothing is
        // outstanding and nothing more will be sent (any later data would
        // carry a fresh FORWARD-TSN out with its own ack): only the T3
        // guarding the lost chunk can still open the gate.
        let all_networks = |up: bool| {
            env.with(|w, _| (0..num_paths).for_each(|i| w.net.set_network_up(i, up)))
        };
        send_sentinels(&env, a, [0, 2, 3]).await;
        env.sleep(Dur::from_secs(5)).await;
        env.with(|w, _| w.net.set_loss(0.0));
        all_networks(false);
        sendmsg_blocking(&env, a, 1, N, pattern(1024, 0), life).await;
        all_networks(true);
        send_sentinels(&env, a, [1]).await;
        let sacks = |env: &Env| env.with(|w, _| sctp::stats(w, a).sacks_in);
        let before = sacks(&env);
        while sacks(&env) == before {
            env.sleep(Dur::from_micros(10)).await;
        }
        all_networks(false);
        env.sleep(Dur::from_secs(2)).await;
        all_networks(true);
    });

    let d = delivered.clone();
    rt.spawn("server", move |env: Env| async move {
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, 4000, true);
            sctp::listen(w, ep);
            ep
        });
        recv_until_sentinels(&env, ep, 4, |m| d.lock().unwrap().push(m.ppid)).await;
    });

    let out = rt.run();
    assert!(!out.hit_deadline, "{what}: deadline passed with a process still blocked");
    let got = delivered.lock().unwrap().clone();
    let stats = out
        .world
        .hosts
        .iter()
        .map(|h| h.sctp.total_stats())
        .fold(sctp::AssocStats::default(), |mut acc, s| {
            acc.msgs_abandoned += s.msgs_abandoned;
            acc.fwd_tsn_out += s.fwd_tsn_out;
            acc.fwd_tsn_in += s.fwd_tsn_in;
            acc
        });

    assert!(stats.msgs_abandoned > 0, "{what}: 20 ms lifetimes at 2% loss must abandon something");
    assert!(stats.fwd_tsn_out > 0, "{what}: abandonment must emit FORWARD-TSN");
    assert!(stats.fwd_tsn_in > 0, "{what}: the peer must process FORWARD-TSN");
    assert!(
        got.len() as u64 + stats.msgs_abandoned >= N as u64,
        "{what}: every message is delivered or abandoned: {} delivered + {} abandoned < {N}",
        got.len(),
        stats.msgs_abandoned
    );
    // No message is both delivered and abandoned-counted twice: dedup check
    // on the receiver side (ppids are unique by construction).
    let mut sorted = got.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), got.len(), "{what}: no ppid may be delivered twice");
}
