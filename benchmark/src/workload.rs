//! The five workloads: fixed sizes, one rep of each, and the output checks
//! every rep must pass. All are closed-loop (MPI callers wait for their
//! completions) in one process with one runnable thread at a time.
//!
//! Sizes are fixed; a run measures as many reps as fit its `--seconds`.
//! They are the issue's shapes cut to about a quarter of a second per rep,
//! so that a 10 s run takes the median of ~20 reps per transport.

use bytes::Bytes;

use crate::adapter::{self, EngineCounts, FarmShape, LiveOut, SimOut, Transport};
use crate::span::Recorder;
use crate::spec::WORKLOADS;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    SimPingpong { size: usize, iters: u32 },
    SimStream { size: usize, count: u32 },
    SimFarm(FarmShape),
    LivePingpong { size: usize, iters: u32 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const KINDS: [Kind; 5] = [
    Kind::SimPingpong {
        size: 1024,
        iters: 20_000,
    },
    Kind::SimStream {
        size: 64 * 1024,
        count: 1_500,
    },
    Kind::SimFarm(FarmShape {
        ranks: 8,
        fanout: 10,
        loss: 0.01,
        // Equal payload halves: eager 30 KiB tasks, rendezvous 300 KiB tasks.
        halves: [(2_000, 30 * 1024), (200, 300 * 1024)],
    }),
    Kind::LivePingpong {
        size: 1024,
        iters: 20_000,
    },
    Kind::LivePingpong {
        size: 128 * 1024,
        iters: 200,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    let at = WORKLOADS.iter().position(|(n, _)| *n == name)?;
    Some(Workload {
        name: WORKLOADS[at].0,
        kind: KINDS[at],
    })
}

/// What one rep did, and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Rep {
    /// User messages completed and payload bytes they delivered.
    pub msgs: u64,
    pub payload_bytes: u64,
    /// Operations attempted (round trips, stream messages, farm tasks) and
    /// how many of them count as failed.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub sim: Option<SimOut>,
    pub live: Option<LiveOut>,
}

impl Rep {
    /// A failed check condemns every operation of the rep.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = self.attempted;
            self.errors.push(what());
        }
    }
}

/// Inputs generated from the seed before any rep runs. The simulated
/// workloads send the repo's shared zero buffer (`workloads::zeros`), so
/// only the live echo payload is seeded.
pub struct Inputs {
    pub payload: Bytes,
}

impl Workload {
    pub fn is_live(&self) -> bool {
        matches!(self.kind, Kind::LivePingpong { .. })
    }

    pub fn is_pingpong(&self) -> bool {
        matches!(
            self.kind,
            Kind::SimPingpong { .. } | Kind::LivePingpong { .. }
        )
    }

    /// RTT samples one live rep yields (0 for the simulated workloads).
    pub fn rep_round_trips(&self) -> usize {
        match self.kind {
            Kind::LivePingpong { iters, .. } => iters as usize,
            _ => 0,
        }
    }

    pub fn loss(&self) -> f64 {
        match self.kind {
            Kind::SimFarm(shape) => shape.loss,
            _ => 0.0,
        }
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        let size = match self.kind {
            Kind::LivePingpong { size, .. } => size,
            _ => 0,
        };
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..size)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        Inputs {
            payload: Bytes::from(bytes),
        }
    }

    /// Run one rep. `rec` receives the live driver's spans; `recorder`
    /// turns the repo's own flight recorder on (simulated workloads only).
    pub fn rep(
        &self,
        t: Transport,
        seed: u64,
        inputs: &Inputs,
        rec: &mut Recorder,
        recorder: bool,
    ) -> Rep {
        match self.kind {
            Kind::SimPingpong { size, iters } => {
                let out = adapter::sim_pingpong(t, seed, size, iters, recorder);
                sim_rep(
                    2 * iters as u64,
                    2 * iters as u64 * size as u64,
                    iters as u64,
                    out,
                    t,
                    true,
                )
            }
            Kind::SimStream { size, count } => {
                let out = adapter::sim_stream(t, seed, size, count, recorder);
                // `count` payload messages and the zero-length completion ack.
                sim_rep(
                    count as u64 + 1,
                    count as u64 * size as u64,
                    count as u64,
                    out,
                    t,
                    true,
                )
            }
            Kind::SimFarm(shape) => {
                let out = adapter::sim_farm(t, seed, &shape, recorder);
                let mut rep = sim_rep(
                    shape.messages(),
                    shape.payload_bytes(),
                    shape.tasks(),
                    out,
                    t,
                    shape.loss == 0.0,
                );
                rep.check(out.tasks_done as u64 == shape.tasks(), || {
                    format!(
                        "{}: {} tasks done of {} sent",
                        t.name(),
                        out.tasks_done,
                        shape.tasks()
                    )
                });
                rep
            }
            Kind::LivePingpong { size, iters } => {
                let out = adapter::live_pingpong(t, seed, &inputs.payload, iters, rec);
                // The round trip that failed, if any, ended the rep.
                let failed = out.error.is_some() as u64;
                let mut rep = Rep {
                    msgs: 2 * out.completed,
                    payload_bytes: 2 * out.completed * size as u64,
                    attempted: out.completed + failed,
                    failed,
                    errors: out
                        .error
                        .iter()
                        .map(|e| format!("{}: {e}", t.name()))
                        .collect(),
                    ..Rep::default()
                };
                let (udp, engine) = (out.udp, out.engine);
                rep.check(udp.rx_bad == 0 && udp.tx_errors == 0, || {
                    format!(
                        "{}: {} bad frames received, {} send errors on loopback",
                        t.name(),
                        udp.rx_bad,
                        udp.tx_errors
                    )
                });
                rep.check(engine.retransmits == 0 && engine.timeouts == 0, || {
                    loss_free(t, &engine)
                });
                rep.live = Some(out);
                rep
            }
        }
    }

    /// The farm's network and engine counters, which its public result
    /// leaves out (one extra rep under `mpirun`; off the timed path).
    pub fn farm_counts(&self, t: Transport, seed: u64) -> Option<SimOut> {
        match self.kind {
            Kind::SimFarm(shape) => Some(adapter::sim_farm_counts(t, seed, &shape)),
            _ => None,
        }
    }
}

fn loss_free(t: Transport, e: &EngineCounts) -> String {
    format!(
        "{}: {} retransmits and {} timeouts on a loss-free path",
        t.name(),
        e.retransmits,
        e.timeouts
    )
}

fn sim_rep(
    msgs: u64,
    payload_bytes: u64,
    attempted: u64,
    out: SimOut,
    t: Transport,
    lossless: bool,
) -> Rep {
    let mut rep = Rep {
        msgs,
        payload_bytes,
        attempted,
        sim: Some(out),
        ..Rep::default()
    };
    rep.check(out.events > 0 && out.sim_ns > 0, || {
        format!("{}: the run reports no events or no time", t.name())
    });
    // Nothing may be lost or resent at loss 0, and where the result carries
    // the engine's counters it must have delivered at least the payload.
    if lossless {
        rep.check(
            out.net.drops == 0 && out.net.delivered == out.net.offered,
            || {
                format!(
                    "{}: {} of {} packets dropped at loss 0",
                    t.name(),
                    out.net.drops,
                    out.net.offered
                )
            },
        );
        rep.check(
            out.engine.retransmits == 0 && out.engine.timeouts == 0,
            || loss_free(t, &out.engine),
        );
    }
    if out.engine.bytes_in > 0 {
        rep.check(out.engine.bytes_in >= payload_bytes, || {
            format!(
                "{}: engine delivered {} bytes, payload is {payload_bytes}",
                t.name(),
                out.engine.bytes_in
            )
        });
    }
    rep
}

/// Hash of what the simulator must reproduce exactly for one seed, folded to
/// 48 bits so it survives a trip through a JSON number.
pub fn fingerprint(outs: &[SimOut]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outs {
        for v in [
            o.events,
            o.sim_ns,
            o.tasks_done as u64,
            o.net.offered,
            o.net.delivered,
            o.net.drops,
        ] {
            mix(v);
        }
    }
    (h ^ (h >> 48)) & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_a_shape() {
        for (name, _) in WORKLOADS {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn live_reps_stay_below_the_ssn_wrap() {
        for k in KINDS {
            if let Kind::LivePingpong { iters, .. } = k {
                assert!(iters <= adapter::MAX_LIVE_ROUND_TRIPS);
            }
        }
    }

    #[test]
    fn farm_halves_carry_equal_payload_and_whole_batches() {
        let Kind::SimFarm(shape) = KINDS[2] else {
            panic!("third workload is the farm")
        };
        let [(n0, b0), (n1, b1)] = shape.halves;
        assert_eq!(n0 as usize * b0, n1 as usize * b1);
        assert!(n0 % shape.fanout == 0 && n1 % shape.fanout == 0);
        // 2 000 + 200 tasks, 220 batches, 2 × 2 × 70 initial requests and DONEs.
        assert_eq!(shape.messages(), 2_200 + 220 + 280);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let w = by_name("live_pingpong_1k").unwrap();
        assert_eq!(w.inputs(5).payload, w.inputs(5).payload);
        assert_ne!(w.inputs(5).payload, w.inputs(6).payload);
        assert_eq!(w.inputs(5).payload.len(), 1024);
        assert!(by_name("sim_stream_64k")
            .unwrap()
            .inputs(5)
            .payload
            .is_empty());
    }

    #[test]
    fn fingerprint_moves_with_any_field_and_fits_48_bits() {
        let a = SimOut {
            events: 10,
            sim_ns: 20,
            ..SimOut::default()
        };
        let mut b = a;
        b.net.drops = 1;
        assert_eq!(fingerprint(&[a, b]), fingerprint(&[a, b]));
        assert_ne!(fingerprint(&[a, b]), fingerprint(&[b, a]));
        assert_ne!(fingerprint(&[a]), fingerprint(&[b]));
        assert!(fingerprint(&[a, b]) < 1 << 48);
    }

    #[test]
    fn a_failed_check_condemns_the_whole_rep() {
        let lossy = SimOut {
            events: 1,
            sim_ns: 1,
            net: adapter::NetCounts {
                offered: 10,
                delivered: 9,
                drops: 1,
            },
            ..SimOut::default()
        };
        let rep = sim_rep(20, 1000, 10, lossy, Transport::Tcp, true);
        assert_eq!((rep.attempted, rep.failed), (10, 10));
        assert_eq!(rep.errors.len(), 1);
        let clean = SimOut {
            net: adapter::NetCounts {
                offered: 10,
                delivered: 10,
                drops: 0,
            },
            ..lossy
        };
        assert_eq!(sim_rep(20, 1000, 10, clean, Transport::Tcp, true).failed, 0);
        assert_eq!(
            sim_rep(20, 1000, 10, lossy, Transport::Tcp, false).failed,
            0
        );
    }
}
