//! `transport`: the engines alone. Both hosts live in one `LiveNode` world
//! over `SimBackend`; virtual time jumps from event to event
//! (`poll_at(next_event_time)`), so there are no ranks, no MPI, no sockets —
//! just the socket API, the engines, and the scheduler and network model
//! they cannot run without.

use backend::LiveNode;
use bytes::Bytes;
use transport::{sctp, tcp, World};

use super::BATCHES;
use crate::calib::Calib;

const PORT: u16 = 6000;
const BULK_BYTES: usize = 64 * 1024;
const BULK_MSGS: u64 = 150;
const PING_BYTES: usize = 1024;
const ROUND_TRIPS: u64 = 3_000;

fn rig(seed: u64) -> LiveNode {
    LiveNode::new(World::paper_cluster(0.0), seed)
}

/// Jump to the next scheduled event and fire everything due then.
fn advance(node: &mut LiveNode) {
    let next = node
        .ctx
        .next_event_time()
        .expect("engines idle with work outstanding");
    node.poll_at(next);
}

fn advance_until(node: &mut LiveNode, mut done: impl FnMut(&mut LiveNode) -> bool) {
    while !done(node) {
        advance(node);
    }
}

fn packets(node: &LiveNode) -> u64 {
    node.world.net.stats.packets_offered
}

struct SctpRig {
    node: LiveNode,
    ea: sctp::EpId,
    eb: sctp::EpId,
    aa: sctp::AssocId,
    ab: sctp::AssocId,
}

fn sctp_rig(seed: u64) -> SctpRig {
    let mut node = rig(seed);
    let ea = sctp::socket(&mut node.world, 0, PORT, false);
    let eb = sctp::socket(&mut node.world, 1, PORT, false);
    sctp::listen(&mut node.world, eb);
    let aa = sctp::connect(&mut node.world, &mut node.ctx, ea, 1, PORT);
    advance_until(&mut node, |n| {
        matches!(
            sctp::assoc_state(&n.world, aa),
            sctp::AssocState::Established
        )
    });
    let ab = sctp::lookup_peer(&node.world, eb, 0, PORT).expect("passive side established");
    SctpRig {
        node,
        ea,
        eb,
        aa,
        ab,
    }
}

/// SCTP engine cost per packet offered to the network (DATA and SACKs, both
/// directions) while streaming 64 KiB messages one way.
pub fn sctp_bulk_ns_per_pkt(cal: &mut Calib) -> f64 {
    let SctpRig {
        mut node, eb, aa, ..
    } = sctp_rig(11);
    let msg = Bytes::from(vec![0u8; BULK_BYTES]);
    cal.probe(BATCHES, || {
        let before = packets(&node);
        let (mut sent, mut got) = (0, 0);
        while got < BULK_MSGS {
            while sent < BULK_MSGS && sctp::can_send(&node.world, aa, BULK_BYTES as u32) {
                sctp::sendmsg(&mut node.world, &mut node.ctx, aa, 0, 0, msg.clone())
                    .expect("can_send said yes");
                sent += 1;
            }
            while let Some(m) = sctp::recvmsg(&mut node.world, &mut node.ctx, eb) {
                assert_eq!(m.len as usize, BULK_BYTES);
                got += 1;
            }
            if got < BULK_MSGS {
                advance(&mut node);
            }
        }
        packets(&node) - before
    })
}

/// SCTP engine cost per 1 KiB message in a strict ping-pong.
pub fn sctp_pingpong_ns_per_msg(cal: &mut Calib) -> f64 {
    let SctpRig {
        mut node,
        ea,
        eb,
        aa,
        ab,
    } = sctp_rig(12);
    let msg = Bytes::from(vec![0u8; PING_BYTES]);
    cal.probe(BATCHES, || {
        for _ in 0..ROUND_TRIPS {
            for (assoc, at) in [(aa, eb), (ab, ea)] {
                sctp::sendmsg(&mut node.world, &mut node.ctx, assoc, 0, 0, msg.clone())
                    .expect("one message fits the send buffer");
                advance_until(&mut node, |n| sctp::readable(&n.world, at));
                let m = sctp::recvmsg(&mut node.world, &mut node.ctx, at).expect("readable");
                assert_eq!(m.len as usize, PING_BYTES);
            }
        }
        2 * ROUND_TRIPS
    })
}

fn tcp_rig(seed: u64) -> (LiveNode, tcp::SockId, tcp::SockId) {
    let mut node = rig(seed);
    tcp::listen(&mut node.world, 1, PORT);
    let sa = tcp::connect(&mut node.world, &mut node.ctx, 0, 1, PORT);
    let mut sb = None;
    advance_until(&mut node, |n| {
        if sb.is_none() {
            sb = tcp::accept(&mut n.world, 1, PORT);
        }
        sb.is_some() && tcp::is_established(&n.world, sa)
    });
    (node, sa, sb.expect("accepted"))
}

/// Move `data` from `from` to `to` over the byte stream, event by event.
fn tcp_move(
    node: &mut LiveNode,
    from: tcp::SockId,
    to: tcp::SockId,
    data: &Bytes,
    scratch: &mut Vec<Bytes>,
) {
    let size = data.len();
    let (mut sent, mut got) = (0, 0);
    loop {
        if sent < size {
            let rest = data.slice(sent..size);
            sent += tcp::send(&mut node.world, &mut node.ctx, from, std::iter::once(&rest));
        }
        scratch.clear();
        tcp::recv_into(&mut node.world, &mut node.ctx, to, size - got, scratch);
        got += scratch.iter().map(|b| b.len()).sum::<usize>();
        if got >= size {
            return;
        }
        advance(node);
    }
}

/// TCP engine cost per packet offered to the network (segments and ACKs)
/// while streaming the same byte volume as the SCTP bulk probe.
pub fn tcp_bulk_ns_per_pkt(cal: &mut Calib) -> f64 {
    let (mut node, sa, sb) = tcp_rig(13);
    let data = Bytes::from(vec![0u8; BULK_BYTES * BULK_MSGS as usize]);
    let mut scratch = Vec::new();
    cal.probe(BATCHES, || {
        let before = packets(&node);
        tcp_move(&mut node, sa, sb, &data, &mut scratch);
        packets(&node) - before
    })
}

/// TCP engine cost per 1 KiB message in a strict ping-pong.
pub fn tcp_pingpong_ns_per_msg(cal: &mut Calib) -> f64 {
    let (mut node, sa, sb) = tcp_rig(14);
    let msg = Bytes::from(vec![0u8; PING_BYTES]);
    let mut scratch = Vec::new();
    cal.probe(BATCHES, || {
        for _ in 0..ROUND_TRIPS {
            tcp_move(&mut node, sa, sb, &msg, &mut scratch);
            tcp_move(&mut node, sb, sa, &msg, &mut scratch);
        }
        2 * ROUND_TRIPS
    })
}
