//! The TCP request-progression module — a re-implementation of LAM's TCP
//! RPI (paper §2.2, §3.3).
//!
//! One socket per peer process (full mesh), `select()`-style readiness
//! polling with its linear per-descriptor cost, per-socket read/write state
//! machines over the byte stream, and strictly serialized writes per
//! socket (which is why TCP suffers head-of-line blocking at the
//! process-pair level).

use std::collections::VecDeque;

use bytes::Bytes;
use simcore::ProcId;
use transport::tcp::{self, SockId};
use transport::{World, Wx};

use crate::cost::{CostCfg, CpuMeter};
use crate::envelope::{Envelope, ENV_SIZE};
use crate::matching::{trace_match, Core, CtrlOut, ReqId, Sink};

/// An outbound message: envelope + optional body, written as one byte run.
struct WriteItem {
    chunks: VecDeque<Bytes>,
    /// Send request to advance when the last byte is accepted by the wire.
    req: Option<ReqId>,
}

enum ReadState {
    /// Accumulating the fixed-size envelope in place: `len` bytes of `buf`
    /// have arrived.
    Env { buf: [u8; ENV_SIZE], len: usize },
    /// Streaming `remaining` of `total` body bytes into `sink`.
    Body { sink: Sink, remaining: usize, total: usize },
}

impl ReadState {
    /// Waiting for the next envelope, none of it read yet.
    const ENV: ReadState = ReadState::Env { buf: [0; ENV_SIZE], len: 0 };
}

pub(crate) struct TcpRpi {
    me: u16,
    socks: Vec<Option<SockId>>,
    rd: Vec<ReadState>,
    wq: Vec<VecDeque<WriteItem>>,
    /// Total queued [`WriteItem`]s across all peers, so the hot
    /// `has_pending_writes` check (every `progress_until` done-pass and the
    /// finalize drain loop) is O(1) instead of a scan over all queues.
    wq_items: usize,
    /// The mesh is fixed after `init`, so the select() descriptor count the
    /// cost model charges per pass is a constant, not a per-pass scan.
    nlive: usize,
    /// Reused receive scratch: every readiness pass reads into this one
    /// list instead of allocating a fresh `Vec<Bytes>` per `recv` call.
    rd_scratch: Vec<Bytes>,
}

/// Listen port for the RPI mesh.
pub(crate) const TCP_RPI_PORT: u16 = 5500;

impl TcpRpi {
    /// Establish the full mesh: lower ranks connect to higher ranks.
    /// Awaits the handshakes (runs inside process context via closures over
    /// `env`).
    pub(crate) async fn init(env: &simcore::ProcEnv<World>, me: u16, n: u16) -> TcpRpi {
        let me_pid = env.id();
        env.with(|w, _| tcp::listen(w, me, TCP_RPI_PORT));
        let mut socks: Vec<Option<SockId>> = vec![None; n as usize];

        // Active opens toward higher ranks.
        for peer in (me + 1)..n {
            let s = env.with(|w, ctx| tcp::connect(w, ctx, me, peer, TCP_RPI_PORT));
            socks[peer as usize] = Some(s);
        }
        // Wait for all active opens.
        for peer in (me + 1)..n {
            let s = socks[peer as usize].unwrap();
            env.block_on(|w, _| {
                if tcp::is_established(w, s) {
                    Some(())
                } else {
                    assert!(!tcp::is_failed(w, s), "RPI connect failed");
                    tcp::register_writer(w, s, me_pid);
                    None
                }
            }).await;
        }
        // Passive opens from lower ranks; identify peers by address.
        for _ in 0..me {
            let s = env.block_on(|w, _| match tcp::accept(w, me, TCP_RPI_PORT) {
                Some(s) => Some(s),
                None => {
                    tcp::register_acceptor(w, me, TCP_RPI_PORT, me_pid);
                    None
                }
            }).await;
            let (peer, _) = env.with(|w, _| tcp::peer_of(w, s));
            assert!(socks[peer as usize].is_none(), "duplicate connection from {peer}");
            socks[peer as usize] = Some(s);
        }

        let rd = (0..n).map(|_| ReadState::ENV).collect();
        let wq = (0..n).map(|_| VecDeque::new()).collect();
        let nlive = socks.iter().flatten().count();
        TcpRpi { me, socks, rd, wq, wq_items: 0, nlive, rd_scratch: Vec::new() }
    }

    /// Queue an envelope (+ body) to `peer`.
    pub(crate) fn enqueue(&mut self, peer: u16, env: Envelope, body: Vec<Bytes>, req: Option<ReqId>) {
        let mut chunks = VecDeque::with_capacity(1 + body.len());
        chunks.push_back(env.to_bytes());
        for b in body {
            if !b.is_empty() {
                chunks.push_back(b);
            }
        }
        self.wq[peer as usize].push_back(WriteItem { chunks, req });
        self.wq_items += 1;
    }

    pub(crate) fn enqueue_ctrl(&mut self, ctrl: Vec<CtrlOut>) {
        for (peer, env) in ctrl {
            self.enqueue(peer, env, Vec::new(), None);
        }
    }

    /// Queue the long-message body release produced by a RndvAck.
    fn enqueue_body_send(&mut self, peer: u16, req: ReqId, env: Envelope, body: Vec<Bytes>) {
        self.enqueue(peer, env, body, Some(req));
    }

    /// One full progression pass over every socket. Returns true if
    /// anything moved. CPU costs accumulate in `meter`.
    pub(crate) fn progress(
        &mut self,
        w: &mut World,
        ctx: &mut Wx,
        core: &mut Core,
        cost: &CostCfg,
        meter: &mut CpuMeter,
    ) -> bool {
        // LAM-TCP polls all descriptors; model the select() cost.
        meter.charge(cost.select(self.nlive));
        let mut progressed = false;
        for peer in 0..self.socks.len() as u16 {
            if self.socks[peer as usize].is_none() || peer == self.me {
                continue;
            }
            progressed |= self.progress_writes(w, ctx, core, cost, meter, peer);
            progressed |= self.progress_reads(w, ctx, core, cost, meter, peer);
        }
        progressed
    }

    fn progress_writes(
        &mut self,
        w: &mut World,
        ctx: &mut Wx,
        core: &mut Core,
        cost: &CostCfg,
        meter: &mut CpuMeter,
        peer: u16,
    ) -> bool {
        let s = self.socks[peer as usize].unwrap();
        let mut progressed = false;
        while let Some(front) = self.wq[peer as usize].front_mut() {
            let accepted = tcp::send(w, ctx, s, front.chunks.iter());
            if accepted == 0 {
                break; // EAGAIN
            }
            meter.charge(cost.syscall + cost.tcp_tx_bytes(accepted));
            progressed = true;
            advance_chunks(&mut front.chunks, accepted);
            if front.chunks.is_empty() {
                let done = self.wq[peer as usize].pop_front().unwrap();
                self.wq_items -= 1;
                if let Some(r) = done.req {
                    core.send_written(r);
                }
            }
        }
        progressed
    }

    fn progress_reads(
        &mut self,
        w: &mut World,
        ctx: &mut Wx,
        core: &mut Core,
        cost: &CostCfg,
        meter: &mut CpuMeter,
        peer: u16,
    ) -> bool {
        let s = self.socks[peer as usize].unwrap();
        let mut progressed = false;
        loop {
            let want = match &self.rd[peer as usize] {
                ReadState::Env { len, .. } => ENV_SIZE - len,
                ReadState::Body { remaining, .. } => (*remaining).min(220 * 1024),
            };
            tcp::recv_into(w, ctx, s, want, &mut self.rd_scratch);
            if self.rd_scratch.is_empty() {
                break; // EAGAIN
            }
            let got: usize = self.rd_scratch.iter().map(|c| c.len()).sum();
            meter.charge(cost.syscall + cost.tcp_rx_bytes(got));
            progressed = true;
            match &mut self.rd[peer as usize] {
                ReadState::Env { buf, len } => {
                    for c in self.rd_scratch.drain(..) {
                        buf[*len..*len + c.len()].copy_from_slice(&c);
                        *len += c.len();
                    }
                    if *len == ENV_SIZE {
                        let env = Envelope::from_bytes(buf);
                        self.handle_envelope(ctx, core, peer, env);
                    }
                }
                ReadState::Body { sink, remaining, total } => {
                    let sink = *sink;
                    let total = *total;
                    *remaining -= got;
                    let finished = *remaining == 0;
                    for c in self.rd_scratch.drain(..) {
                        core.body_chunk(sink, c);
                    }
                    if finished {
                        // Serial re-framing/staging copy at completion.
                        meter.charge(cost.tcp_frame_bytes(total));
                        let ctrl = core.body_done(sink);
                        self.enqueue_ctrl(ctrl);
                        self.rd[peer as usize] = ReadState::ENV;
                    }
                }
            }
        }
        progressed
    }

    fn handle_envelope(&mut self, ctx: &Wx, core: &mut Core, peer: u16, env: Envelope) {
        let out = core.on_envelope(peer, env);
        trace_match(ctx, core, &env, &out);
        self.enqueue_ctrl(out.ctrl);
        if let Some((req, benv, body)) = out.body_send {
            self.enqueue_body_send(peer, req, benv, body);
        }
        let next = match out.sink {
            Some(sink) if env.kind.has_body() && env.len > 0 => {
                ReadState::Body { sink, remaining: env.len as usize, total: env.len as usize }
            }
            Some(sink) => {
                // Zero-length body completes immediately.
                let ctrl = core.body_done(sink);
                self.enqueue_ctrl(ctrl);
                ReadState::ENV
            }
            None => ReadState::ENV,
        };
        self.rd[peer as usize] = next;
    }

    /// True if any outbound item is still queued. O(1) via `wq_items`.
    pub(crate) fn has_pending_writes(&self) -> bool {
        self.wq_items > 0
    }

    /// Register this process for wakeups on every socket.
    pub(crate) fn register(&self, w: &mut World, me: ProcId) {
        for (peer, s) in self.socks.iter().enumerate() {
            if let Some(s) = *s {
                tcp::register_reader(w, s, me);
                if !self.wq[peer].is_empty() {
                    tcp::register_writer(w, s, me);
                }
            }
        }
    }
}

/// Drop `n` bytes from the front of a chunk queue.
fn advance_chunks(q: &mut VecDeque<Bytes>, mut n: usize) {
    while n > 0 {
        let front = q.front_mut().expect("advance beyond queued bytes");
        if front.len() <= n {
            n -= front.len();
            q.pop_front();
        } else {
            let _ = front.split_to(n);
            n = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_chunks_handles_partials() {
        let mut q: VecDeque<Bytes> =
            [Bytes::from_static(b"abc"), Bytes::from_static(b"defgh")].into_iter().collect();
        advance_chunks(&mut q, 5);
        assert_eq!(q.len(), 1);
        assert_eq!(&q[0][..], b"fgh");
        advance_chunks(&mut q, 3);
        assert!(q.is_empty());
    }
}
