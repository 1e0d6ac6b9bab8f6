//! Property-based tests for the network model.

use netsim::{IfAddr, LinkCfg, Net, NetCfg, Verdict};
use proptest::prelude::*;
use simcore::{derive_rng, Dur, SimTime};

proptest! {
    /// FIFO invariant: packets offered to the same path in time order are
    /// delivered in time order (no reordering inside one network).
    #[test]
    fn links_never_reorder(
        sizes in prop::collection::vec(40u32..1500, 1..60),
        gaps in prop::collection::vec(0u64..20_000, 1..60),
    ) {
        let mut net = Net::new(NetCfg::paper_cluster(0.0));
        let mut rng = derive_rng(1, 1);
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (i, &sz) in sizes.iter().enumerate() {
            now += Dur::from_nanos(*gaps.get(i).unwrap_or(&0));
            match net.transmit(now, IfAddr::new(0, 0), IfAddr::new(1, 0), sz, &mut rng) {
                Verdict::Deliver { at } => {
                    prop_assert!(at >= last_arrival, "reordered: {} < {}", at, last_arrival);
                    prop_assert!(at > now, "arrival not after send");
                    last_arrival = at;
                }
                Verdict::Drop(_) => {} // tail drop is fine; order still holds
            }
        }
    }

    /// Latency lower bound: nothing arrives faster than serialization on
    /// two hops plus propagation plus switch latency.
    #[test]
    fn latency_never_beats_physics(sz in 40u32..1500) {
        let cfg = NetCfg::paper_cluster(0.0);
        let mut net = Net::new(cfg);
        let mut rng = derive_rng(2, 2);
        let now = SimTime::from_nanos(1_000_000);
        if let Verdict::Deliver { at } =
            net.transmit(now, IfAddr::new(2, 1), IfAddr::new(5, 1), sz, &mut rng)
        {
            let ser = simcore::transmission_time(sz as u64, netsim::LINK_BPS);
            let floor = ser + ser + netsim::PROP_DELAY + netsim::PROP_DELAY + netsim::SWITCH_LATENCY;
            prop_assert!(at.since(now) >= floor);
        }
    }

    /// Full loss drops everything; zero loss (uncongested) drops nothing.
    #[test]
    fn loss_extremes(sz in 40u32..1500, t in 0u64..1_000_000) {
        let mut rng = derive_rng(3, 3);
        let mut all = Net::new(NetCfg::paper_cluster(1.0));
        let v = all.transmit(SimTime::from_nanos(t), IfAddr::new(0, 0), IfAddr::new(1, 0), sz, &mut rng);
        let dropped = matches!(v, Verdict::Drop(netsim::DropReason::Loss));
        prop_assert!(dropped);
        let mut none = Net::new(NetCfg::paper_cluster(0.0));
        let v = none.transmit(SimTime::from_nanos(t), IfAddr::new(0, 0), IfAddr::new(1, 0), sz, &mut rng);
        let delivered = matches!(v, Verdict::Deliver { .. });
        prop_assert!(delivered);
    }

    /// Stats bookkeeping: offered = delivered + dropped, always.
    #[test]
    fn stats_balance(ops in prop::collection::vec((0u16..8, 0u16..8, 40u32..1500), 0..100)) {
        let mut cfg = NetCfg::paper_cluster(0.3);
        cfg.link = LinkCfg { queue_cap_bytes: 5_000 };
        let mut net = Net::new(cfg);
        let mut rng = derive_rng(4, 4);
        for (src, dst, sz) in ops {
            let _ = net.transmit(
                SimTime::ZERO,
                IfAddr::new(src, 0),
                IfAddr::new(dst, 0),
                sz,
                &mut rng,
            );
        }
        let s = net.stats;
        prop_assert_eq!(
            s.packets_offered,
            s.packets_delivered + s.drops_loss + s.drops_queue + s.drops_down
        );
    }
}

proptest! {
    /// Train equivalence: offering K packets through `transmit_burst`
    /// produces exactly the per-packet verdicts, the same stats, and leaves
    /// the loss RNG at the same stream position as K sequential `transmit`
    /// calls. Loss probability, queue pressure, and packet sizes are all
    /// randomized so every verdict arm (deliver, loss, queue-full) is hit.
    #[test]
    fn burst_matches_per_packet(
        sizes in prop::collection::vec(40u32..1500, 1..40),
        loss_pm in 0u32..200,
        cap in 2_000u32..60_000,
        t in 0u64..1_000_000,
        seed in 0u64..32,
        loopback in any::<bool>(),
    ) {
        let mut cfg = NetCfg::paper_cluster(loss_pm as f64 / 1000.0);
        cfg.link = LinkCfg { queue_cap_bytes: cap as u64 };
        let mut ref_net = Net::new(cfg);
        let mut burst_net = ref_net.clone();
        let mut ref_rng = derive_rng(7, seed);
        let mut burst_rng = ref_rng.clone();
        let now = SimTime::from_nanos(t);
        let (src, dst) = if loopback {
            (IfAddr::new(3, 0), IfAddr::new(3, 1))
        } else {
            (IfAddr::new(0, 0), IfAddr::new(1, 0))
        };

        let expected: Vec<Verdict> = sizes
            .iter()
            .map(|&sz| ref_net.transmit(now, src, dst, sz, &mut ref_rng))
            .collect();
        let got = burst_net.transmit_burst(now, src, dst, &sizes, &mut burst_rng);

        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(burst_net.stats, ref_net.stats);
        // Same stream position: the next draw from each generator agrees.
        use rand::Rng;
        prop_assert_eq!(burst_rng.gen::<u64>(), ref_rng.gen::<u64>());
    }

    /// Train equivalence holds under an installed fault plan too: the
    /// per-packet fault sequence (flap → Gilbert–Elliott → Bernoulli →
    /// degraded links → jitter) draws from the RNG in the same order both
    /// ways, and all per-rule state (chain phase, jitter reorder window)
    /// advances identically.
    #[test]
    fn burst_matches_per_packet_under_fault_plan(
        sizes in prop::collection::vec(40u32..1500, 1..40),
        loss_pm in 0u32..100,
        p_gb in 0.0f64..0.2,
        p_bg in 0.05f64..1.0,
        loss_bad in 0.1f64..1.0,
        flap_from in 0u64..800_000,
        flap_len in 0u64..600_000,
        jitter_ns in 0u64..40_000,
        bound in 0u32..6,
        factor in 0.2f64..1.0,
        t in 0u64..1_000_000,
        seed in 0u64..32,
    ) {
        use netsim::{BurstLossRule, DegradeRule, FaultPlan, FlapRule, JitterRule, Scope};
        let mut cfg = NetCfg::paper_cluster(loss_pm as f64 / 1000.0);
        cfg.link = LinkCfg { queue_cap_bytes: 20_000 };
        let plan = FaultPlan {
            burst_loss: vec![BurstLossRule { scope: Scope::ALL, p_gb, p_bg, loss_good: 0.0, loss_bad }],
            flaps: vec![FlapRule { scope: Scope::on_iface(0), from_ns: flap_from, until_ns: flap_from + flap_len }],
            jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: jitter_ns, reorder_bound: bound }],
            degrade: vec![DegradeRule { scope: Scope::ALL, from_ns: 200_000, until_ns: 900_000, factor }],
        };
        let mut ref_net = Net::new(cfg);
        ref_net.set_fault_plan(plan.clone());
        let mut burst_net = Net::new(cfg);
        burst_net.set_fault_plan(plan);
        let mut ref_rng = derive_rng(13, seed);
        let mut burst_rng = ref_rng.clone();
        let now = SimTime::from_nanos(t);
        let (src, dst) = (IfAddr::new(0, 0), IfAddr::new(1, 0));

        let expected: Vec<Verdict> = sizes
            .iter()
            .map(|&sz| ref_net.transmit(now, src, dst, sz, &mut ref_rng))
            .collect();
        let got = burst_net.transmit_burst(now, src, dst, &sizes, &mut burst_rng);

        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(burst_net.stats, ref_net.stats);
        use rand::Rng;
        prop_assert_eq!(burst_rng.gen::<u64>(), ref_rng.gen::<u64>());
    }
}
