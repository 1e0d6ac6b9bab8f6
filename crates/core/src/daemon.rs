//! LAM-style daemons over SCTP (paper §3.5.3).
//!
//! LAM runs a user-level daemon on every node for job launch, external
//! monitoring of running jobs, remote I/O, and cleanup when a user aborts.
//! Stock LAM daemons speak **UDP**; the paper converts them to SCTP so that
//! "the entire execution now uses SCTP and all the components in the LAM
//! environment can take advantage of the features of SCTP".
//!
//! This module reproduces that environment:
//! * one daemon per host, listening on a one-to-many SCTP socket (its own
//!   port, out-of-band from RPI traffic);
//! * a star overlay rooted at host 0 (the `lamboot` topology): daemon 0
//!   connects to every other daemon and aggregates job status;
//! * MPI ranks report `JobStart` / periodic `Heartbeat` / `JobEnd` to their
//!   **local** daemon over a loopback SCTP association; local daemons
//!   forward summaries to daemon 0;
//! * `lamhalt`: daemon 0 broadcasts a halt and every daemon exits.
//!
//! The aggregated [`JobTable`] is exposed so tests (and the monitoring
//! example) can assert what an `mpitask`-style client would observe.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use simcore::ProcEnv;
use transport::sctp::{self, AssocId, AssocState, EpId};
use transport::World;

/// Daemon control port (out of band from the RPI ports).
pub const DAEMON_PORT: u16 = 5700;
/// Base port for rank-side daemon clients.
pub const CLIENT_PORT_BASE: u16 = 5800;

/// Messages on the daemon plane. 16-byte wire records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonMsg {
    /// A rank came up on this node.
    JobStart { rank: u16 },
    /// Periodic liveness + progress report.
    Heartbeat { rank: u16, msgs_sent: u32 },
    /// A rank finished cleanly.
    JobEnd { rank: u16 },
    /// Daemon-0 → all: shut down ("lamhalt").
    Halt,
    /// Local daemon → daemon 0: forwarded status for `rank` on `host`.
    Forward { host: u16, rank: u16, kind: u8, msgs_sent: u32 },
}

impl DaemonMsg {
    pub fn to_bytes(self) -> Bytes {
        let mut v = vec![0u8; 16];
        match self {
            DaemonMsg::JobStart { rank } => {
                v[0] = 1;
                v[2..4].copy_from_slice(&rank.to_le_bytes());
            }
            DaemonMsg::Heartbeat { rank, msgs_sent } => {
                v[0] = 2;
                v[2..4].copy_from_slice(&rank.to_le_bytes());
                v[4..8].copy_from_slice(&msgs_sent.to_le_bytes());
            }
            DaemonMsg::JobEnd { rank } => {
                v[0] = 3;
                v[2..4].copy_from_slice(&rank.to_le_bytes());
            }
            DaemonMsg::Halt => v[0] = 4,
            DaemonMsg::Forward { host, rank, kind, msgs_sent } => {
                v[0] = 5;
                v[1] = kind;
                v[2..4].copy_from_slice(&rank.to_le_bytes());
                v[4..8].copy_from_slice(&msgs_sent.to_le_bytes());
                v[8..10].copy_from_slice(&host.to_le_bytes());
            }
        }
        Bytes::from(v)
    }

    pub fn from_bytes(b: &[u8]) -> DaemonMsg {
        let rank = u16::from_le_bytes([b[2], b[3]]);
        let msgs = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        match b[0] {
            1 => DaemonMsg::JobStart { rank },
            2 => DaemonMsg::Heartbeat { rank, msgs_sent: msgs },
            3 => DaemonMsg::JobEnd { rank },
            4 => DaemonMsg::Halt,
            5 => DaemonMsg::Forward {
                host: u16::from_le_bytes([b[8], b[9]]),
                rank,
                kind: b[1],
                msgs_sent: msgs,
            },
            k => panic!("bad daemon message kind {k}"),
        }
    }
}

/// What the monitoring plane knows about one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobEntry {
    pub host: u16,
    pub started: bool,
    pub ended: bool,
    pub heartbeats: u32,
    pub last_msgs_sent: u32,
}

/// Aggregated job status at daemon 0 (what `mpitask` would print).
#[derive(Debug, Default)]
pub struct JobTable {
    pub ranks: HashMap<u16, JobEntry>,
}

impl JobTable {
    pub fn all_started(&self, n: u16) -> bool {
        (0..n).all(|r| self.ranks.get(&r).is_some_and(|e| e.started))
    }

    pub fn all_ended(&self, n: u16) -> bool {
        (0..n).all(|r| self.ranks.get(&r).is_some_and(|e| e.ended))
    }
}

type Env = ProcEnv<World>;

async fn recv_blocking(env: &Env, ep: EpId) -> (u16, DaemonMsg) {
    let me = env.id();
    env.block_on(|w, ctx| match sctp::recvmsg(w, ctx, ep) {
        Some(m) => {
            // Identify the sending host from the association.
            let peer = sctp_peer_host(w, m.assoc);
            // Control messages almost always arrive as a single chunk;
            // parse in place and only flatten multi-chunk deliveries.
            let msg = match m.data.as_slice() {
                [one] => DaemonMsg::from_bytes(one),
                chunks => {
                    let raw: Vec<u8> = chunks.iter().flat_map(|b| b.iter().copied()).collect();
                    DaemonMsg::from_bytes(&raw)
                }
            };
            Some((peer, msg))
        }
        None => {
            sctp::register_reader(w, ep, me);
            None
        }
    }).await
}

fn sctp_peer_host(w: &World, a: AssocId) -> u16 {
    sctp::peer_addrs(w, a)[0].host
}

async fn send_blocking(env: &Env, a: AssocId, msg: DaemonMsg) {
    let me = env.id();
    env.block_on(|w, ctx| match sctp::sendmsg(w, ctx, a, 0, 0, msg.to_bytes()) {
        Ok(()) => Some(()),
        Err(sctp::SendErr::WouldBlock) => {
            sctp::register_writer(w, a.endpoint(), me);
            None
        }
        Err(e) => panic!("daemon send failed: {e:?}"),
    }).await
}

async fn connect_blocking(env: &Env, ep: EpId, host: u16, port: u16) -> AssocId {
    let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, host, port));
    let me = env.id();
    env.block_on(|w, _| match sctp::assoc_state(w, a) {
        AssocState::Established => Some(()),
        AssocState::Aborted => panic!("daemon association failed"),
        _ => {
            sctp::register_writer(w, ep, me);
            sctp::register_reader(w, ep, me);
            None
        }
    }).await;
    a
}

/// The daemon process for `host` (0 = the root/aggregator). Runs until a
/// `Halt` arrives (root: until all ranks ended, then self-halts and
/// broadcasts). `expected_local` ranks run on this host.
pub async fn daemon_main(env: Env, host: u16, n_hosts: u16, n_ranks: u16, table: Rc<RefCell<JobTable>>) {
    let ep = env.with(|w, _| {
        let ep = sctp::socket(w, host, DAEMON_PORT, true);
        sctp::listen(w, ep);
        ep
    });
    if host == 0 {
        // lamboot: the root daemon dials every other daemon.
        let mut peers: Vec<AssocId> = Vec::new();
        for h in 1..n_hosts {
            peers.push(connect_blocking(&env, ep, h, DAEMON_PORT).await);
        }
        let mut ended = 0u16;
        loop {
            let (from, msg) = recv_blocking(&env, ep).await;
            {
                let mut t = table.borrow_mut();
                match msg {
                    // Local ranks on host 0 report directly.
                    DaemonMsg::JobStart { rank } => {
                        let e = t.ranks.entry(rank).or_default();
                        e.host = 0;
                        e.started = true;
                    }
                    DaemonMsg::Heartbeat { rank, msgs_sent } => {
                        let e = t.ranks.entry(rank).or_default();
                        e.heartbeats += 1;
                        e.last_msgs_sent = msgs_sent;
                    }
                    DaemonMsg::JobEnd { rank } => {
                        t.ranks.entry(rank).or_default().ended = true;
                        ended += 1;
                    }
                    // Remote daemons forward their ranks' reports.
                    DaemonMsg::Forward { host, rank, kind, msgs_sent } => {
                        let e = t.ranks.entry(rank).or_default();
                        e.host = host;
                        match kind {
                            1 => e.started = true,
                            2 => {
                                e.heartbeats += 1;
                                e.last_msgs_sent = msgs_sent;
                            }
                            3 => {
                                e.ended = true;
                                ended += 1;
                            }
                            k => panic!("bad forward kind {k}"),
                        }
                    }
                    DaemonMsg::Halt => break,
                }
            }
            let _ = from;
            if ended == n_ranks {
                // lamhalt: job finished; stop the daemon plane.
                for &p in &peers {
                    send_blocking(&env, p, DaemonMsg::Halt).await;
                }
                break;
            }
        }
    } else {
        // Leaf daemon: wait for the root's lamboot association, then
        // forward every local report upward.
        let me = env.id();
        let root: AssocId = env.block_on(|w, _| match sctp::lookup_peer(w, ep, 0, DAEMON_PORT) {
            Some(a) if sctp::assoc_state(w, a) == AssocState::Established => Some(a),
            _ => {
                sctp::register_reader(w, ep, me);
                None
            }
        }).await;
        loop {
            let (_from, msg) = recv_blocking(&env, ep).await;
            match msg {
                DaemonMsg::Halt => break,
                DaemonMsg::JobStart { rank } => {
                    send_blocking(&env, root, DaemonMsg::Forward { host, rank, kind: 1, msgs_sent: 0 }).await;
                }
                DaemonMsg::Heartbeat { rank, msgs_sent } => {
                    send_blocking(&env, root, DaemonMsg::Forward { host, rank, kind: 2, msgs_sent }).await;
                }
                DaemonMsg::JobEnd { rank } => {
                    send_blocking(&env, root, DaemonMsg::Forward { host, rank, kind: 3, msgs_sent: 0 }).await;
                }
                DaemonMsg::Forward { .. } => panic!("leaf daemon received a forward"),
            }
        }
    }
}

/// Rank-side client: a tiny SCTP endpoint used to talk to the local daemon
/// (stock LAM would use UDP here; the paper's point is that it is SCTP).
pub struct DaemonClient {
    assoc: AssocId,
}

impl DaemonClient {
    /// Connect rank `rank` (on `host`) to its local daemon.
    pub async fn connect(env: &Env, host: u16, rank: u16) -> DaemonClient {
        let ep = env.with(|w, _| sctp::socket(w, host, CLIENT_PORT_BASE + rank, true));
        let assoc = connect_blocking(env, ep, host, DAEMON_PORT).await;
        DaemonClient { assoc }
    }

    pub async fn report(&self, env: &Env, msg: DaemonMsg) {
        send_blocking(env, self.assoc, msg).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_msgs_roundtrip() {
        for m in [
            DaemonMsg::JobStart { rank: 7 },
            DaemonMsg::Heartbeat { rank: 3, msgs_sent: 12345 },
            DaemonMsg::JobEnd { rank: 0 },
            DaemonMsg::Halt,
            DaemonMsg::Forward { host: 5, rank: 2, kind: 2, msgs_sent: 99 },
        ] {
            assert_eq!(DaemonMsg::from_bytes(&m.to_bytes()), m);
        }
    }

    #[test]
    fn job_table_queries() {
        let mut t = JobTable::default();
        t.ranks.insert(0, JobEntry { started: true, ..Default::default() });
        assert!(t.all_started(1));
        assert!(!t.all_started(2));
        assert!(!t.all_ended(1));
    }
}
