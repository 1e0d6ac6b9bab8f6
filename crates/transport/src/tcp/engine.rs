//! The TCP protocol engine: segment input, output, congestion control, and
//! timers. See `mod.rs` for the feature inventory.

use bytes::Bytes;
use netsim::IfAddr;
use simcore::Dur;

use crate::buf::total_len;
use crate::ip::{self, Packet, Proto};
use crate::{Timer, World, Wx};

use super::{
    sock, sock_mut, sock_pool_mut, Flags, SockId, TcpCfg, TcpSegment, TcpSock, TcpState,
    INIT_CWND_MSS,
};

/// Delayed-ACK timeout.
const DELACK: Dur = Dur::from_millis(100);
/// Dup-ACK threshold for fast retransmit.
const DUPACK_THRESH: u32 = 3;
/// Max SACK blocks carried per ACK: what is left of TCP's 40 bytes of
/// option space beside the timestamp option — the limit the paper (§4.1.1)
/// contrasts with SCTP's PMTU-bounded gap-ack blocks.
const MAX_SACK_BLOCKS: usize = 3;
/// Restart cwnd after the connection idles longer than one RTO.
const IDLE_RESTART: bool = true;
/// SYN (and SYN-ACK) retransmission limit before the connect fails.
const MAX_SYN_RETRIES: u32 = 6;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn cfg_of(w: &World, s: SockId) -> TcpCfg {
    w.hosts[s.host as usize].tcp.cfg
}

/// Flight-recorder snapshot of the congestion state. Callers guard with
/// `ctx.tracing()` so the off path costs one branch.
fn trace_cwnd(ctx: &Wx, s: SockId, sk: &TcpSock) {
    ctx.trace_emit(trace::Event::Cwnd(trace::CwndEv {
        proto: trace::Proto8::Tcp,
        host: s.host,
        peer: sk.remote.0.host,
        path: 0,
        cwnd: sk.cc.cwnd,
        ssthresh: sk.cc.ssthresh,
        flight: sk.flight(),
    }));
}

/// Advertised receive window with receiver-side silly-window avoidance:
/// never advertise a dribble smaller than one MSS.
fn adv_wnd(sk: &TcpSock, cfg: &TcpCfg) -> u64 {
    let w = sk.rcv_wnd(cfg.rcvbuf);
    if w < cfg.mss as u64 {
        0
    } else {
        w
    }
}

/// SACK blocks to attach: most recent ranges first, capped by option space.
/// Appends into `blocks` (pooled by the caller).
fn sack_blocks_into(sk: &TcpSock, blocks: &mut Vec<(u64, u64)>) {
    for &start in &sk.sack_recent {
        if blocks.len() >= MAX_SACK_BLOCKS {
            break;
        }
        // Re-resolve the (possibly merged/extended) containing range.
        if let Some((s0, e0)) = sk.have.iter().find(|&(s0, e0)| s0 <= start && start < e0) {
            if s0 >= sk.rcv_nxt && !blocks.contains(&(s0, e0)) {
                blocks.push((s0, e0));
            }
        }
    }
}

/// Build one segment's wire packet; updates stats and delayed-ACK state.
/// Emission is the caller's business (immediate or buffered into a train).
fn build_segment(
    w: &mut World,
    ctx: &mut Wx,
    s: SockId,
    flags: Flags,
    seq: u64,
    payload: Vec<Bytes>,
    probe: bool,
) -> Packet {
    let cfg = cfg_of(w, s);
    let (sk, pool) = sock_pool_mut(w, s);
    let payload_len = total_len(&payload) as u32;
    let wnd = adv_wnd(sk, &cfg);
    let sack = if flags.contains(Flags::SYN) {
        Vec::new()
    } else {
        let mut b = pool.take_gap_vec();
        sack_blocks_into(sk, &mut b);
        b
    };
    let seg = TcpSegment {
        src_port: sk.local.1,
        dst_port: sk.remote.1,
        flags: flags | Flags::ACK,
        seq,
        ack: sk.rcv_nxt,
        wnd,
        sack,
        probe,
        payload,
        payload_len,
    };
    sk.last_adv_wnd = wnd;
    sk.adv_edge = sk.adv_edge.max(sk.rcv_nxt + wnd);
    sk.delack_pending = 0;
    sk.delack_timer.clear();
    sk.stats.segs_out += 1;
    sk.stats.bytes_out += payload_len as u64;
    sk.last_send = ctx.now();
    let (src, dst) = (sk.local.0, sk.remote.0);
    Packet { src, dst, body: Proto::Tcp(seg) }
}

/// Build and transmit one segment.
fn emit(w: &mut World, ctx: &mut Wx, s: SockId, flags: Flags, seq: u64, payload: Vec<Bytes>, probe: bool) {
    let pkt = build_segment(w, ctx, s, flags, seq, payload, probe);
    ip::send(w, ctx, pkt);
}

/// The initial SYN carries no ACK flag.
pub(crate) fn send_syn(w: &mut World, ctx: &mut Wx, s: SockId) {
    let cfg = cfg_of(w, s);
    let sk = sock_mut(w, s);
    let seg = TcpSegment {
        src_port: sk.local.1,
        dst_port: sk.remote.1,
        flags: Flags::SYN,
        seq: 0,
        ack: 0,
        wnd: cfg.rcvbuf,
        sack: Vec::new(),
        probe: false,
        payload: Vec::new(),
        payload_len: 0,
    };
    sk.stats.segs_out += 1;
    sk.snd_nxt = 1;
    sk.syn_sent_at = if sk.syn_retries == 0 { Some(ctx.now()) } else { None };
    let (src, dst) = (sk.local.0, sk.remote.0);
    ip::send(w, ctx, Packet { src, dst, body: Proto::Tcp(seg) });
    arm_rto(w, ctx, s);
}

fn send_syn_ack(w: &mut World, ctx: &mut Wx, s: SockId) {
    let cfg = cfg_of(w, s);
    let sk = sock_mut(w, s);
    let seg = TcpSegment {
        src_port: sk.local.1,
        dst_port: sk.remote.1,
        flags: Flags::SYN | Flags::ACK,
        seq: 0,
        ack: sk.rcv_nxt,
        wnd: cfg.rcvbuf,
        sack: Vec::new(),
        probe: false,
        payload: Vec::new(),
        payload_len: 0,
    };
    sk.stats.segs_out += 1;
    sk.snd_nxt = 1;
    let (src, dst) = (sk.local.0, sk.remote.0);
    ip::send(w, ctx, Packet { src, dst, body: Proto::Tcp(seg) });
    arm_rto(w, ctx, s);
}

/// Send an immediate pure ACK (dup-ACK, window update, FIN ack, ...).
pub(crate) fn send_ack_now(w: &mut World, ctx: &mut Wx, s: SockId) {
    let seq = sock(w, s).snd_nxt;
    emit(w, ctx, s, Flags::EMPTY, seq, Vec::new(), false);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

fn arm_rto(w: &mut World, ctx: &mut Wx, s: SockId) {
    let sk = sock_mut(w, s);
    let d = sk.rto.current();
    if ctx.tracing() {
        ctx.trace_emit(trace::Event::RtoArm(trace::RtoArmEv {
            proto: trace::Proto8::Tcp,
            host: s.host,
            peer: sk.remote.0.host,
            path: 0,
            rto_ns: d.as_nanos(),
            srtt_ns: sk.rto.srtt().map_or(-1, |x| x.as_nanos() as i64),
            rttvar_ns: sk.rto.rttvar().as_nanos() as i64,
        }));
    }
    sk.rto_timer.set(ctx, d, Timer::Rto(s));
}

pub(crate) fn on_rto(w: &mut World, ctx: &mut Wx, s: SockId) {
    let cfg = cfg_of(w, s);
    let mss = cfg.mss as u64;
    {
        let sk = sock_mut(w, s);
        if !sk.rto_timer.expired(ctx, Timer::Rto(s)) {
            return;
        }
        match sk.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                sk.syn_retries += 1;
                if sk.syn_retries > MAX_SYN_RETRIES {
                    sk.state = TcpState::Closed;
                    ctx.wake_all(&sk.writers);
                    sk.writers.clear();
                    return;
                }
                sk.rto.backoff();
                let synsent = sk.state == TcpState::SynSent;
                if synsent {
                    send_syn(w, ctx, s);
                } else {
                    send_syn_ack(w, ctx, s);
                }
                return; // send_syn/send_syn_ack re-armed the timer
            }
            TcpState::Closed | TcpState::TimeWait => return,
            _ => {}
        }
        let fin_unacked = sk.fin_sent && sk.snd_una <= sk.snd.end_seq();
        if sk.flight() == 0 && !fin_unacked {
            sk.rto_timer.clear();
            return;
        }
        // Timeout: collapse to one segment, clear the scoreboard, back off.
        let marked = sk.flight();
        sk.stats.timeouts += 1;
        sk.rto.backoff();
        sk.cc.ssthresh = (marked / 2).max(2 * mss);
        sk.cc.cwnd = mss;
        sk.cc.in_recovery = false;
        sk.cc.dupacks = 0;
        sk.sacked.clear();
        sk.hole_rtx.clear();
        sk.rtt_probe = None;
        // Go-back-N (4.4BSD: snd_nxt = snd_una): everything unacked is
        // re-sent by the normal output path as the window reopens. Without
        // this, every lost segment beyond the first needs its own
        // backed-off RTO — seconds each.
        sk.rtx_until = sk.rtx_until.max(sk.snd_nxt);
        sk.snd_nxt = sk.snd_una;
        if sk.fin_sent && sk.snd_una <= sk.snd.end_seq() {
            // The FIN (if any) rides again on the re-sent tail.
            sk.fin_sent = false;
        }
        if ctx.tracing() {
            ctx.trace_emit(trace::Event::RtoFire(trace::RtoFireEv {
                proto: trace::Proto8::Tcp,
                host: s.host,
                peer: sk.remote.0.host,
                path: 0,
                backoff: sk.rto.backoff_shift(),
                marked: marked.min(u32::MAX as u64) as u32,
            }));
            trace_cwnd(ctx, s, sk);
        }
    }
    output(w, ctx, s);
    arm_rto(w, ctx, s);
}

fn arm_delack(w: &mut World, ctx: &mut Wx, s: SockId) {
    let sk = sock_mut(w, s);
    if !sk.delack_timer.is_set() {
        sk.delack_timer.set(ctx, DELACK, Timer::Delack(s));
    }
}

pub(crate) fn on_delack(w: &mut World, ctx: &mut Wx, s: SockId) {
    let sk = sock_mut(w, s);
    if !sk.delack_timer.expired(ctx, Timer::Delack(s)) {
        return;
    }
    sk.delack_timer.clear();
    if sk.delack_pending > 0 {
        send_ack_now(w, ctx, s);
    }
}

fn arm_persist(w: &mut World, ctx: &mut Wx, s: SockId) {
    let sk = sock_mut(w, s);
    if sk.persist_timer.is_set() {
        return;
    }
    let d = sk
        .rto
        .current()
        .saturating_mul(1u64 << sk.persist_shift.min(6))
        .min(Dur::from_secs(60));
    sk.persist_timer.set(ctx, d, Timer::Persist(s));
}

pub(crate) fn on_persist(w: &mut World, ctx: &mut Wx, s: SockId) {
    {
        let sk = sock_mut(w, s);
        if !sk.persist_timer.expired(ctx, Timer::Persist(s)) {
            return;
        }
        sk.persist_timer.clear();
        let has_pending = sk.snd.end_seq() > sk.snd_nxt || (sk.fin_queued && !sk.fin_sent);
        if sk.peer_wnd > 0 || !has_pending || sk.state == TcpState::Closed {
            sk.persist_shift = 0;
            return;
        }
        sk.persist_shift += 1;
    }
    // Window probe: a flagged zero-length segment that elicits an immediate
    // ACK carrying the peer's current window.
    let seq = sock(w, s).snd_nxt;
    emit(w, ctx, s, Flags::EMPTY, seq, Vec::new(), true);
    arm_persist(w, ctx, s);
}

// ---------------------------------------------------------------------------
// Retransmission
// ---------------------------------------------------------------------------

/// Retransmit up to `max_len` bytes starting at `seq` (clamped to one MSS
/// and to the buffered data). Poisons the RTT probe per Karn's rule.
fn retransmit_seg(w: &mut World, ctx: &mut Wx, s: SockId, seq: u64, max_len: usize) {
    let cfg = cfg_of(w, s);
    let (payload, fin_now) = {
        let (sk, pool) = sock_pool_mut(w, s);
        sk.rtt_probe = None;
        sk.stats.retransmits += 1;
        let data_end = sk.snd.end_seq();
        if seq >= data_end {
            // Only the FIN is outstanding.
            (Vec::new(), sk.fin_sent)
        } else {
            let len = (cfg.mss as usize).min(max_len).min((data_end - seq) as usize);
            let mut p = pool.take_bytes_vec();
            sk.snd.slice_into(seq, len, &mut p);
            let covers_end = seq + len as u64 == data_end;
            (p, covers_end && sk.fin_sent)
        }
    };
    let flags = if fin_now { Flags::FIN } else { Flags::EMPTY };
    emit(w, ctx, s, flags, seq, payload, false);
}

// ---------------------------------------------------------------------------
// Output path
// ---------------------------------------------------------------------------

/// Transmit as much queued data as the congestion and peer windows allow.
pub(crate) fn output(w: &mut World, ctx: &mut Wx, s: SockId) {
    let cfg = cfg_of(w, s);
    let mss = cfg.mss as u64;
    let now = ctx.now();
    let mut need_persist = false;
    let mut segs = w.pool.take_seg_vec();
    {
        let (sk, pool) = sock_pool_mut(w, s);
        if !matches!(
            sk.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing | TcpState::LastAck
        ) {
            return;
        }
        // Congestion-window restart after idle (4.4BSD behaviour).
        if IDLE_RESTART
            && sk.flight() == 0
            && sk.snd_una > 1
            && now.since(sk.last_send) > sk.rto.current()
        {
            sk.cc.cwnd = sk.cc.cwnd.min(INIT_CWND_MSS * mss);
        }
        loop {
            let wnd = sk.cc.cwnd.min(sk.peer_wnd);
            let flight = sk.flight();
            let avail = sk.snd.end_seq().saturating_sub(sk.snd_nxt);
            let fin_pending = sk.fin_queued && !sk.fin_sent;
            if avail == 0 && !fin_pending {
                break;
            }
            if sk.peer_wnd == 0 && flight == 0 {
                need_persist = true;
                break;
            }
            if flight >= wnd {
                break;
            }
            let len = avail.min(wnd - flight).min(mss);
            if len > 0 {
                // Sender silly-window avoidance: don't send a window-limited
                // dribble while data is outstanding.
                let window_limited = len < mss && len < avail;
                if window_limited && flight > 0 {
                    break;
                }
                // Nagle: one outstanding small segment at a time.
                if cfg.nagle && len < mss && flight > 0 {
                    break;
                }
            }
            let seq = sk.snd_nxt;
            let payload = if len > 0 {
                let mut p = pool.take_bytes_vec();
                sk.snd.slice_into(seq, len as usize, &mut p);
                p
            } else {
                Vec::new()
            };
            sk.snd_nxt += len;
            // Bundle FIN onto the segment that exhausts the send queue.
            let mut fin_now = false;
            if fin_pending && sk.snd_nxt == sk.snd.end_seq() {
                fin_now = true;
                sk.fin_sent = true;
                sk.snd_nxt += 1;
                sk.state = match sk.state {
                    TcpState::Established => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    other => other,
                };
            }
            if len == 0 && !fin_now {
                break;
            }
            if sk.rtt_probe.is_none() && seq >= sk.rtx_until {
                sk.rtt_probe = Some((sk.snd_nxt, now));
            }
            if seq < sk.rtx_until {
                sk.stats.retransmits += 1;
            }
            segs.push((seq, payload, fin_now));
        }
    }
    let any = !segs.is_empty();
    // A cwnd's worth of segments leaves as one train (one syscall on the socket backend).
    let mut train = w.pool.take_packet_vec();
    train.reserve(segs.len());
    for (seq, payload, fin) in segs.drain(..) {
        let flags = if fin { Flags::FIN } else { Flags::EMPTY };
        train.push(build_segment(w, ctx, s, flags, seq, payload, false));
    }
    w.pool.put_seg_vec(segs);
    ip::send_train(w, ctx, train);
    {
        let sk = sock_mut(w, s);
        let outstanding = sk.flight() > 0;
        if any && outstanding && !sk.rto_timer.is_set() {
            arm_rto(w, ctx, s);
        }
    }
    if need_persist {
        arm_persist(w, ctx, s);
    }
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

/// Entry point from the IP layer.
pub(crate) fn input(w: &mut World, ctx: &mut Wx, src: IfAddr, dst: IfAddr, seg: TcpSegment) {
    let host = dst.host;
    let key = (seg.dst_port, src.host, seg.src_port);
    let existing = w.hosts[host as usize].tcp.conn_map.get(&key).copied();
    match existing {
        Some(idx) => sock_input(w, ctx, SockId { host, idx }, seg),
        None => {
            if seg.flags.contains(Flags::SYN)
                && !seg.flags.contains(Flags::ACK)
                && w.hosts[host as usize].tcp.listeners.contains_key(&seg.dst_port)
            {
                passive_open(w, ctx, host, src, seg);
            }
            // Anything else to an unknown connection is silently dropped.
        }
    }
}

fn passive_open(w: &mut World, ctx: &mut Wx, host: u16, src: IfAddr, seg: TcpSegment) {
    let cfg = w.hosts[host as usize].tcp.cfg;
    let local = (IfAddr::new(host, 0), seg.dst_port);
    let remote = (src, seg.src_port);
    let mut sk = TcpSock::new(local, remote, TcpState::SynRcvd, &cfg);
    sk.rcv_nxt = 1;
    sk.peer_wnd = seg.wnd;
    let th = &mut w.hosts[host as usize].tcp;
    let idx = th.socks.len() as u32;
    th.socks.push(sk);
    th.conn_map.insert((seg.dst_port, src.host, seg.src_port), idx);
    send_syn_ack(w, ctx, SockId { host, idx });
}

fn sock_input(w: &mut World, ctx: &mut Wx, s: SockId, seg: TcpSegment) {
    sock_mut(w, s).stats.segs_in += 1;

    if seg.flags.contains(Flags::RST) {
        let sk = sock_mut(w, s);
        sk.state = TcpState::Closed;
        ctx.wake_all(&sk.readers);
        ctx.wake_all(&sk.writers);
        sk.readers.clear();
        sk.writers.clear();
        return;
    }

    match sock(w, s).state {
        TcpState::SynSent => {
            if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) && seg.ack == 1 {
                {
                    let sk = sock_mut(w, s);
                    sk.snd_una = 1;
                    sk.rcv_nxt = seg.seq + 1;
                    sk.peer_wnd = seg.wnd;
                    sk.state = TcpState::Established;
                    sk.syn_retries = 0;
                    // Handshake RTT sample (unretransmitted SYNs only).
                    if let Some(t0) = sk.syn_sent_at.take() {
                        let now = ctx.now();
                        sk.rto.sample(now.since(t0));
                    }
                    sk.rto_timer.clear();
                    ctx.wake_all(&sk.writers);
                    sk.writers.clear();
                }
                send_ack_now(w, ctx, s);
            }
        }
        TcpState::SynRcvd => {
            if seg.flags.contains(Flags::ACK) && !seg.flags.contains(Flags::SYN) && seg.ack >= 1 {
                let port = {
                    let sk = sock_mut(w, s);
                    sk.snd_una = 1;
                    sk.peer_wnd = seg.wnd;
                    sk.state = TcpState::Established;
                    sk.rto_timer.clear();
                    sk.local.1
                };
                if let Some(l) = w.hosts[s.host as usize].tcp.listeners.get_mut(&port) {
                    l.backlog.push_back(s.idx);
                    let acceptors = std::mem::take(&mut l.acceptors);
                    ctx.wake_all(&acceptors);
                }
                // Piggybacked data on the final handshake ACK.
                if seg.payload_len > 0 || seg.flags.contains(Flags::FIN) {
                    established_input(w, ctx, s, seg);
                }
            }
        }
        TcpState::Closed => {}
        _ => {
            // A retransmitted SYN-ACK means our final handshake ACK was
            // lost; re-ack it.
            if seg.flags.contains(Flags::SYN) {
                send_ack_now(w, ctx, s);
                return;
            }
            established_input(w, ctx, s, seg);
        }
    }
}

fn established_input(w: &mut World, ctx: &mut Wx, s: SockId, seg: TcpSegment) {
    if seg.flags.contains(Flags::ACK) {
        process_ack(w, ctx, s, &seg);
    }
    let mut ack_now = seg.probe;
    if seg.payload_len > 0 || seg.flags.contains(Flags::FIN) {
        ack_now |= process_data(w, ctx, s, &seg);
    }
    // The payload slices the reassembly store needed were cloned (cheap
    // refcounted handles); retire the segment's carrier buffers.
    let TcpSegment { payload, sack, .. } = seg;
    w.pool.put_bytes_vec(payload);
    w.pool.put_gap_vec(sack);
    if ack_now {
        send_ack_now(w, ctx, s);
    } else {
        let pending = sock(w, s).delack_pending;
        if pending >= 2 {
            send_ack_now(w, ctx, s);
        } else if pending > 0 {
            arm_delack(w, ctx, s);
        }
    }
    // New acks / window changes may unblock sending.
    output(w, ctx, s);
}

fn process_ack(w: &mut World, ctx: &mut Wx, s: SockId, seg: &TcpSegment) {
    let cfg = cfg_of(w, s);
    let mss = cfg.mss as u64;
    let now = ctx.now();
    let mut wake_writers = w.pool.take_proc_vec();
    let mut new_ack = false;
    {
        let sk = sock_mut(w, s);
        // Fold in SACK blocks, noting whether they tell us anything new.
        let mut sack_new = false;
        for &(b0, b1) in &seg.sack {
            if b0 > sk.snd_una && !sk.sacked.contains_range(b0, b1) {
                sk.sacked.insert(b0, b1);
                sack_new = true;
            }
        }

        let old_peer_wnd = sk.peer_wnd;
        if seg.ack > sk.snd_una {
            new_ack = true;
            let acked = seg.ack - sk.snd_una;
            sk.snd_una = seg.ack;
            // A stale ack may land after a go-back-N rewind: never let
            // snd_nxt fall behind snd_una.
            sk.snd_nxt = sk.snd_nxt.max(seg.ack);
            sk.snd.advance_to(seg.ack.min(sk.snd.end_seq()));
            sk.sacked.remove_below(seg.ack);
            sk.hole_rtx.remove_below(seg.ack);
            sk.persist_shift = 0;
            if let Some((pseq, t0)) = sk.rtt_probe {
                if seg.ack >= pseq {
                    sk.rto.sample(now.since(t0));
                    sk.rtt_probe = None;
                }
            }
            if sk.cc.in_recovery {
                if seg.ack >= sk.cc.recover {
                    // Full ack: recovery complete.
                    sk.cc.in_recovery = false;
                    sk.cc.cwnd = sk.cc.ssthresh.max(2 * mss);
                    sk.cc.dupacks = 0;
                } else {
                    // NewReno partial ack: deflate; the hole-repair rule
                    // below retransmits the next hole.
                    sk.cc.cwnd = sk.cc.cwnd.saturating_sub(acked).saturating_add(mss).max(mss);
                }
            } else {
                sk.cc.dupacks = 0;
                if sk.cc.cwnd <= sk.cc.ssthresh {
                    // Slow start, classic per-ACK growth (the ack-counting
                    // the paper contrasts with SCTP's byte counting).
                    sk.cc.cwnd += mss;
                } else {
                    sk.cc.cwnd += (mss * mss / sk.cc.cwnd).max(1);
                }
                // Growth beyond the send buffer is useless; cap it.
                sk.cc.cwnd = sk.cc.cwnd.min(cfg.sndbuf * 4);
            }
            if ctx.tracing() {
                trace_cwnd(ctx, s, sk);
            }
            // Stop the retransmission timer; it restarts fresh below while
            // anything is still unacked.
            sk.rto_timer.clear();
            std::mem::swap(&mut wake_writers, &mut sk.writers);

            // FIN acknowledged?
            if sk.fin_sent && seg.ack == sk.snd.end_seq() + 1 {
                sk.state = match sk.state {
                    TcpState::FinWait1 => TcpState::FinWait2,
                    TcpState::Closing => TcpState::TimeWait,
                    TcpState::LastAck => TcpState::Closed,
                    other => other,
                };
            }
        } else if seg.ack == sk.snd_una {
            let is_dup = (sk.flight() > 0
                && seg.payload_len == 0
                && !seg.flags.intersects(Flags::SYN | Flags::FIN)
                && seg.wnd == old_peer_wnd)
                || sack_new;
            if is_dup {
                sk.stats.dup_acks_in += 1;
                if sk.cc.in_recovery {
                    sk.cc.cwnd += mss; // inflation during recovery
                    if ctx.tracing() {
                        trace_cwnd(ctx, s, sk);
                    }
                } else {
                    sk.cc.dupacks += 1;
                    if sk.cc.dupacks >= DUPACK_THRESH {
                        // Fast retransmit: enter recovery; the hole-repair
                        // rule below sends the retransmission.
                        sk.cc.ssthresh = (sk.flight() / 2).max(2 * mss);
                        sk.cc.recover = sk.snd_nxt;
                        sk.cc.in_recovery = true;
                        sk.cc.cwnd = sk.cc.ssthresh + 3 * mss;
                        sk.stats.fast_retransmits += 1;
                        if ctx.tracing() {
                            ctx.trace_emit(trace::Event::FastRtx(trace::FastRtxEv {
                                proto: trace::Proto8::Tcp,
                                host: s.host,
                                peer: sk.remote.0.host,
                                path: 0,
                                tsn: sk.snd_una,
                                count: sk.cc.dupacks,
                            }));
                            trace_cwnd(ctx, s, sk);
                        }
                    }
                }
            }
        }
        sk.peer_wnd = seg.wnd;
        if sk.peer_wnd > 0 {
            // Cancel persist probing.
            sk.persist_timer.clear();
        }
    }
    ctx.wake_all(&wake_writers);
    w.pool.put_proc_vec(wake_writers);

    // SACK-scoreboard hole repair: when the scoreboard proves a hole at
    // snd_una (data above it was received) and we are either in fast
    // recovery or just took a new cumulative ack (the post-RTO continuation
    // — the receiver sends no dup-ACK stream then), retransmit the first
    // hole, at most once per hole per recovery episode. Without this, a
    // lost retransmission or a multi-hole window degenerates into a chain
    // of backed-off RTOs.
    let rtx = {
        let sk = sock_mut(w, s);
        let hole_exists = sk.sacked.max_end().is_some_and(|e| e > sk.snd_una);
        // RFC 6675-style loss evidence: enough bytes SACKed above the hole
        // (the dup-ACK threshold expressed in scoreboard terms). Without
        // this, a single out-of-order SACK block would trigger repair.
        let evidence = sk.sacked.covered() >= DUPACK_THRESH as u64 * mss;
        // During a timeout episode (Karn backoff still in force) the
        // receiver generates no dup-ACK stream, so the scoreboard is the
        // only signal left: repair holes on every cumulative ack or the
        // remaining losses each cost a full backed-off RTO.
        let rto_episode = sk.rto.backoff_shift() > 0;
        let allowed = if cfg.sack_hole_repair {
            sk.cc.in_recovery || (new_ack && (evidence || rto_episode))
        } else {
            // Era NewReno: retransmit only at recovery entry and on partial
            // acks; no scoreboard-driven continuation after an RTO.
            sk.cc.in_recovery
        };
        if hole_exists && allowed && !sk.hole_rtx.contains(sk.snd_una) {
            let hole_end = sk
                .sacked
                .iter()
                .next()
                .map(|(s0, _)| s0)
                .unwrap_or(sk.snd_una + mss)
                .min(sk.snd_una + mss);
            let len = hole_end - sk.snd_una;
            sk.hole_rtx.insert(sk.snd_una, hole_end);
            Some((sk.snd_una, len))
        } else {
            None
        }
    };
    if let Some((seq, len)) = rtx {
        retransmit_seg(w, ctx, s, seq, len as usize);
    }

    {
        let sk = sock_mut(w, s);
        let fin_unacked = sk.fin_sent && sk.snd_una <= sk.snd.end_seq();
        if (sk.flight() > 0 || fin_unacked) && !sk.rto_timer.is_set() {
            // fresh RTO after forward progress
        } else {
            return;
        }
    }
    arm_rto(w, ctx, s);
}

/// Buffer arriving payload; returns true if an immediate ACK is required.
fn process_data(w: &mut World, ctx: &mut Wx, s: SockId, seg: &TcpSegment) -> bool {
    let cfg = cfg_of(w, s);
    let mut ack_now = false;
    let mut wake_readers = w.pool.take_proc_vec();
    {
        let (sk, pool) = sock_pool_mut(w, s);
        let seq = seg.seq;
        let len = seg.payload_len as u64;
        if len > 0 {
            let end = seq + len;
            // Acceptance edge: the window must never shrink (RFC 793/1122),
            // so anything below the highest edge we ever advertised is
            // accepted — even if the application has not drained the buffer
            // since. (The *advertised* window stays conservative.)
            let wnd_edge = sk.adv_edge.max(sk.rcv_nxt + cfg.rcvbuf.saturating_sub(sk.in_order_bytes));
            if end <= sk.rcv_nxt {
                // Entirely old: pure duplicate.
                ack_now = true;
            } else if seq >= wnd_edge {
                // Entirely beyond our window: drop, but tell the sender
                // where we stand (this answers zero-window probes too).
                ack_now = true;
            } else {
                let had_gap = !sk.have.is_empty();
                let out_of_order = seq > sk.rcv_nxt;
                // Clamp to window; only the sub-ranges not yet held are new.
                let lo = seq.max(sk.rcv_nxt);
                let hi = end.min(wnd_edge);
                let mut holes = pool.take_gap_vec();
                sk.have.holes_within_into(lo, hi, &mut holes);
                if holes.is_empty() {
                    // Nothing new (a duplicate of buffered data, or a
                    // segment the window clamps to nothing).
                    ack_now = true;
                } else {
                    let mut drained = false;
                    for &(h0, h1) in &holes {
                        let off = (h0 - seq) as usize;
                        let n = (h1 - h0) as usize;
                        sk.stats.bytes_in += h1 - h0;
                        if h0 == sk.rcv_nxt {
                            // In order: straight to the reader, as slices of
                            // the payload. Only bytes above `rcv_nxt` are
                            // ever parked.
                            sk.in_order.extend(payload_slices(&seg.payload, off, n));
                            sk.in_order_bytes += h1 - h0;
                            sk.rcv_nxt = h1;
                            drained = true;
                        } else {
                            sk.store.insert(h0, slice_payload(&seg.payload, off, n));
                            sk.have.insert(h0, h1);
                            sk.ooo_bytes += h1 - h0;
                        }
                    }
                    if out_of_order {
                        // Out of order: remember recency for SACK, ack now.
                        sk.sack_recent.retain(|&r| r != lo);
                        sk.sack_recent.insert(0, lo);
                        sk.sack_recent.truncate(8);
                        ack_now = true;
                    }
                    // Parked pieces the delivery made contiguous follow it.
                    while sk.have.contains(sk.rcv_nxt) {
                        let chunk = sk
                            .store
                            .remove(&sk.rcv_nxt)
                            .expect("store chunks partition `have`");
                        let clen = chunk.len() as u64;
                        sk.rcv_nxt += clen;
                        sk.ooo_bytes -= clen;
                        sk.in_order_bytes += clen;
                        sk.in_order.push_back(chunk);
                        drained = true;
                    }
                    if drained {
                        sk.have.remove_below(sk.rcv_nxt);
                        sk.sack_recent.retain(|&r| r >= sk.rcv_nxt);
                        std::mem::swap(&mut wake_readers, &mut sk.readers);
                        if had_gap {
                            // Filling a gap: ack immediately (RFC 5681).
                            ack_now = true;
                        } else {
                            sk.delack_pending += 1;
                        }
                    }
                }
                pool.put_gap_vec(holes);
            }
        }

        // FIN processing: the FIN sits after the segment's payload.
        if seg.flags.contains(Flags::FIN) {
            sk.fin_rcvd = Some(seg.seq + len);
        }
        if let Some(fs) = sk.fin_rcvd {
            if sk.rcv_nxt == fs && !sk.eof_delivered {
                sk.rcv_nxt += 1;
                sk.eof_delivered = true;
                ack_now = true;
                sk.state = match sk.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => TcpState::Closing,
                    TcpState::FinWait2 => TcpState::TimeWait,
                    other => other,
                };
                wake_readers.append(&mut sk.readers);
            }
        }
    }
    ctx.wake_all(&wake_readers);
    w.pool.put_proc_vec(wake_readers);
    ack_now
}

/// Zero-copy slices of the `len` bytes at `off` of a chunked payload, one
/// per chunk they touch.
fn payload_slices(chunks: &[Bytes], mut off: usize, mut len: usize) -> impl Iterator<Item = Bytes> + '_ {
    chunks.iter().filter_map(move |c| {
        if len == 0 {
            return None;
        }
        if off >= c.len() {
            off -= c.len();
            return None;
        }
        let take = (c.len() - off).min(len);
        let piece = c.slice(off..off + take);
        len -= take;
        off = 0;
        Some(piece)
    })
}

/// The `len` bytes at `off` of a chunked payload as one buffer, for the
/// out-of-order store: zero-copy when they lie in one chunk, copied when
/// they span several (a segment cut across two send-queue chunks).
fn slice_payload(chunks: &[Bytes], off: usize, len: usize) -> Bytes {
    let mut parts = payload_slices(chunks, off, len);
    let first = parts.next().unwrap_or_default();
    let Some(second) = parts.next() else { return first };
    let mut v = Vec::with_capacity(len);
    for p in [first, second].into_iter().chain(parts) {
        v.extend_from_slice(&p);
    }
    Bytes::from(v)
}
