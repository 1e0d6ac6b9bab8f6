//! `MpiReport::collect` totals every association's counters exactly once.

use bytes::Bytes;
use mpi_core::MpiReport;
use netsim::NetCfg;
use simcore::{ProcEnv, Runtime};
use transport::sctp::{self, AssocStats, EpId, SctpCfg, SendErr};
use transport::tcp::TcpCfg;
use transport::World;

type Env = ProcEnv<World>;

const PORT: u16 = 4000;
const MSGS: u8 = 40;

#[test]
fn collect_adds_every_association_on_a_lossy_run() {
    let world = World::new(NetCfg::paper_cluster(0.03), TcpCfg::default(), SctpCfg::default());
    let mut rt = Runtime::new(world, 11);
    rt.spawn("client", |env: Env| async move {
        let me = env.id();
        let ep = env.with(|w, _| sctp::socket(w, 0, PORT, true));
        let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, 1, PORT));
        for i in 0..MSGS {
            let msg = Bytes::from(vec![i; 6000]);
            env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, u16::from(i % 4), 0, msg.clone()) {
                Ok(()) => Some(()),
                Err(SendErr::WouldBlock) => {
                    sctp::register_writer(w, ep, me);
                    None
                }
                Err(e) => panic!("sendmsg failed: {e:?}"),
            })
            .await;
        }
    });
    rt.spawn("server", |env: Env| async move {
        let me = env.id();
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, 1, PORT, true);
            sctp::listen(w, ep);
            ep
        });
        for _ in 0..MSGS {
            env.block_on(|w, ctx| {
                let m = sctp::recvmsg(w, ctx, ep);
                if m.is_none() {
                    sctp::register_reader(w, ep, me);
                }
                m
            })
            .await;
        }
    });
    let out = rt.run();

    let mut want = AssocStats::default();
    for (host, peer) in [(0, 1), (1, 0)] {
        let a = sctp::lookup_peer(&out.world, EpId { host, idx: 0 }, peer, PORT).expect("association");
        want += sctp::stats(&out.world, a);
    }
    assert!(want.retransmits > 0 && want.sacks_in > 0, "the run must recover from loss: {want:?}");
    assert_eq!(MpiReport::collect(&out).sctp, want);
}
