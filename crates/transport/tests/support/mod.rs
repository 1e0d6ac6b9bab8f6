//! Test support shared by the integration tests: a simulated network that
//! loses exactly the packets a test names.

use transport::backend::{Backend, SimBackend};
use transport::ip::Packet;
use transport::{World, Wx};

/// The simulator's backend, except that it numbers every packet the
/// engines send — from 0, across all hosts, retransmissions included — and
/// drops each packet its rule picks by number and content. The rest reach
/// the simulated network unchanged.
pub struct DropEgress<F> {
    lose: F,
    sent: usize,
}

impl<F: FnMut(usize, &Packet) -> bool> DropEgress<F> {
    /// Drop the egress packets for which `lose(number, packet)` holds.
    pub fn new(lose: F) -> Self {
        DropEgress { lose, sent: 0 }
    }
}

/// Drop the egress packets numbered in `schedule`.
pub fn drop_numbered(schedule: &[usize]) -> DropEgress<impl FnMut(usize, &Packet) -> bool> {
    let schedule = schedule.to_vec();
    DropEgress::new(move |k, _: &Packet| schedule.contains(&k))
}

impl<F: FnMut(usize, &Packet) -> bool + 'static> Backend for DropEgress<F> {
    fn send(&mut self, w: &mut World, ctx: &mut Wx, pkt: Packet) {
        let k = self.sent;
        self.sent += 1;
        if !(self.lose)(k, &pkt) {
            SimBackend.send(w, ctx, pkt);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Every schedule of one or two drops among the first `packets` egress
/// packets, each ascending.
pub fn one_or_two_drops(packets: usize) -> Vec<Vec<usize>> {
    let ones = (0..packets).map(|k| vec![k]);
    let twos = (0..packets).flat_map(|i| (i + 1..packets).map(move |j| vec![i, j]));
    ones.chain(twos).collect()
}
