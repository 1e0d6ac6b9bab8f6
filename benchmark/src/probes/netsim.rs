//! `netsim`: the network model alone — verdicts for MTU packet trains.

use netsim::{IfAddr, Net, NetCfg, Verdict};
use simcore::{derive_rng, SimTime};

use super::BATCHES;
use crate::calib::Calib;

const TRAINS: u64 = 600;
const TRAIN: [u32; 32] = [1500; 32];

/// Cost per packet of `Net::transmit_burst` on the paper cluster at the
/// given Bernoulli loss. Time advances to each train's last arrival, so the
/// link queue never fills.
pub fn net_ns_per_pkt(cal: &mut Calib, loss: f64) -> f64 {
    let mut net = Net::new(NetCfg::paper_cluster(loss));
    let mut rng = derive_rng(7, 1);
    let (src, dst) = (IfAddr::new(0, 0), IfAddr::new(1, 0));
    let mut now = SimTime::ZERO;
    let ns = cal.probe(BATCHES, || {
        for _ in 0..TRAINS {
            let verdicts = net.transmit_burst(now, src, dst, &TRAIN, &mut rng);
            for v in &verdicts {
                if let Verdict::Deliver { at } = v {
                    now = now.max(*at);
                }
            }
            std::hint::black_box(&verdicts);
        }
        TRAINS * TRAIN.len() as u64
    });
    assert_eq!(
        net.stats.drops_queue, 0,
        "the probe must not overrun the link queue"
    );
    ns
}
