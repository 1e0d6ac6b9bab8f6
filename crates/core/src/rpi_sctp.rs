//! The SCTP request-progression module — the paper's contribution (§3).
//!
//! Design points reproduced from the paper:
//! * one **one-to-many socket** per process; associations map to peer ranks
//!   (§3.1), so there is no `select()` over N descriptors (§3.3);
//! * messages with different (tag, rank, context) map onto a fixed pool of
//!   **streams** (default 10) for independent delivery (§3.2.1) —
//!   eliminating head-of-line blocking between unrelated messages;
//! * two-level demultiplexing of arrivals: association → stream (§3.1);
//! * long messages are split into pieces no larger than the send buffer
//!   and re-framed at the RPI level, all on one stream (§3.4);
//! * the long-message race (Figure 6) is prevented with **Option B**
//!   (§3.4.2): writes to a (peer, stream) pair are strictly serialized —
//!   an ACK for a second message cannot interleave with an in-progress
//!   body. **Option A** (spin until the whole body is written) is also
//!   implemented for the A2 ablation;
//! * a single-stream mode isolates the head-of-line-blocking effect
//!   (Figure 12).

use std::collections::VecDeque;

use bytes::Bytes;
use simcore::ProcId;
use transport::sctp::{self, AssocId, AssocState, EpId, SendErr};
use transport::{World, Wx};

use crate::cost::{self, CpuMeter};
use crate::envelope::{Envelope, ENV_SIZE};
use crate::matching::{trace_match, Core, CtrlOut, ReqId, Sink};

/// SCTP RPI port.
pub(crate) const SCTP_RPI_PORT: u16 = 5600;

/// Long-message piece size (≤ SO_SNDBUF; LAM splits long bodies into
/// 64 KiB `sendmsg` calls at the RPI level, §3.4).
const LONG_PIECE: usize = 64 * 1024;

/// How MPI contexts map onto SCTP (§2.3): either fold the context into the
/// stream hash (the paper's shipped design), or carry the context in the
/// packet's PPID field and hash only the tag onto the stream pool — the
/// alternative the paper notes "can be easily incorporated ... with minor
/// modifications", which supports dynamic context creation without extra
/// sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextMap {
    /// stream = hash(context, tag) — the default.
    StreamHash,
    /// stream = hash(tag); PPID = context.
    Ppid,
}

/// How the long-message write race is avoided (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceFix {
    /// Spin until the whole body is written (kills concurrency).
    OptionA,
    /// Serialize writes per (peer, stream) — the shipped design.
    OptionB,
}

/// One unit the writer can pass to `sctp_sendmsg`.
struct OutMsg {
    chunks: Vec<Bytes>,
    /// Total bytes of `chunks`, summed once at enqueue.
    len: usize,
    /// Advance this request when the final piece of its item is written.
    req: Option<ReqId>,
    /// Last piece of a multi-piece item?
    last: bool,
    /// Payload protocol id (carries the context in PPID mode).
    ppid: u32,
}

/// Inbound per-(peer, stream) state: an in-progress long body.
#[derive(Default)]
struct InBody {
    sink: Option<Sink>,
    remaining: usize,
}

pub(crate) struct SctpRpi {
    me: u16,
    ep: EpId,
    assocs: Vec<Option<AssocId>>,
    nstreams: u16,
    /// Outbound FIFO per (peer, stream): Option B serialization.
    wq: Vec<Vec<VecDeque<OutMsg>>>,
    /// Inbound body state per (peer, stream).
    rd: Vec<Vec<InBody>>,
    race_fix: RaceFix,
    ctx_map: ContextMap,
    /// Total queued [`OutMsg`]s, so `has_pending_writes` (checked on every
    /// completing `progress_until` pass and in the finalize drain) is O(1).
    wq_total: usize,
    /// Queued [`OutMsg`]s per peer, so a progression pass skips the
    /// per-stream write scan for peers with nothing queued. Skipping empty
    /// peers cannot reorder anything: the relative order of non-empty
    /// (peer, stream) visits is unchanged.
    wq_peer: Vec<usize>,
    /// Option A only: the (peer, stream) whose long body must finish before
    /// any other write proceeds (§3.4.1's concurrency loss).
    a_lock: Option<(u16, u16)>,
}

impl SctpRpi {
    /// Establish associations with every peer: lower ranks initiate, higher
    /// ranks learn of the association on their one-to-many socket. A
    /// barrier at the end of setup is run by the caller (§3.4's second race).
    pub(crate) async fn init(
        env: &simcore::ProcEnv<World>,
        me: u16,
        n: u16,
        nstreams: u16,
        race_fix: RaceFix,
        ctx_map: ContextMap,
    ) -> SctpRpi {
        let me_pid = env.id();
        let ep = env.with(|w, _| {
            let ep = sctp::socket(w, me, SCTP_RPI_PORT, true);
            sctp::listen(w, ep);
            ep
        });
        let mut assocs: Vec<Option<AssocId>> = vec![None; n as usize];
        for peer in (me + 1)..n {
            let a = env.with(|w, ctx| sctp::connect(w, ctx, ep, peer, SCTP_RPI_PORT));
            assocs[peer as usize] = Some(a);
        }
        for peer in 0..n {
            if peer == me {
                continue;
            }
            let a = env.block_on(|w, _| {
                let a = if peer > me {
                    assocs[peer as usize]
                } else {
                    sctp::lookup_peer(w, ep, peer, SCTP_RPI_PORT)
                };
                match a {
                    Some(a) if sctp::assoc_state(w, a) == AssocState::Established => Some(a),
                    Some(a) if sctp::assoc_state(w, a) == AssocState::Aborted => {
                        panic!("association with rank {peer} failed during init")
                    }
                    _ => {
                        sctp::register_reader(w, ep, me_pid);
                        sctp::register_writer(w, ep, me_pid);
                        None
                    }
                }
            }).await;
            assocs[peer as usize] = Some(a);
        }
        let wq = (0..n).map(|_| (0..nstreams).map(|_| VecDeque::new()).collect()).collect();
        let rd = (0..n).map(|_| (0..nstreams).map(|_| InBody::default()).collect()).collect();
        let wq_peer = vec![0; n as usize];
        SctpRpi {
            me,
            ep,
            assocs,
            nstreams,
            wq,
            rd,
            race_fix,
            ctx_map,
            wq_total: 0,
            wq_peer,
            a_lock: None,
        }
    }

    /// The paper's TRC→stream mapping: hash (context, tag) onto the pool —
    /// or, in PPID mode, hash the tag only (the context rides in the PPID).
    pub(crate) fn stream_of(&self, cxt: u32, tag: i32) -> u16 {
        let h = match self.ctx_map {
            ContextMap::StreamHash => {
                (cxt as u64).wrapping_mul(0x9E37_79B9).wrapping_add(tag as u32 as u64)
            }
            ContextMap::Ppid => tag as u32 as u64,
        };
        (h % self.nstreams as u64) as u16
    }

    /// The PPID to stamp on outbound messages for `cxt`.
    fn ppid_of(&self, cxt: u32) -> u32 {
        match self.ctx_map {
            ContextMap::StreamHash => 0,
            ContextMap::Ppid => cxt,
        }
    }

    /// Queue an envelope (+ inline short body) as one SCTP message.
    pub(crate) fn enqueue(&mut self, peer: u16, env: Envelope, body: Vec<Bytes>, req: Option<ReqId>) {
        let sid = self.stream_of(env.cxt, env.tag);
        let mut chunks = Vec::with_capacity(1 + body.len());
        chunks.push(env.to_bytes());
        chunks.extend(body.into_iter().filter(|b| !b.is_empty()));
        let len = chunks.iter().map(|c| c.len()).sum();
        let ppid = self.ppid_of(env.cxt);
        self.wq[peer as usize][sid as usize].push_back(OutMsg { chunks, len, req, last: true, ppid });
        self.note_queued(peer, 1);
    }

    pub(crate) fn enqueue_ctrl(&mut self, ctrl: Vec<CtrlOut>) {
        for (peer, env) in ctrl {
            self.enqueue(peer, env, Vec::new(), None);
        }
    }

    /// Queue a long body: the RndvBody envelope, then pieces ≤ `LONG_PIECE`
    /// bytes, all on one stream (in-order), per §3.4.
    fn enqueue_body_send(&mut self, peer: u16, req: ReqId, env: Envelope, body: Vec<Bytes>) {
        let sid = self.stream_of(env.cxt, env.tag) as usize;
        let ppid = self.ppid_of(env.cxt);
        let q = &mut self.wq[peer as usize][sid];
        let header = OutMsg { chunks: vec![env.to_bytes()], len: ENV_SIZE, req: None, last: false, ppid };
        q.push_back(header);
        // Split at RPI level into sendmsg-sized pieces.
        let mut pieces: Vec<(Vec<Bytes>, usize)> = Vec::new();
        let mut cur: Vec<Bytes> = Vec::new();
        let mut cur_len = 0usize;
        for chunk in body {
            let mut off = 0;
            while off < chunk.len() {
                let take = (LONG_PIECE - cur_len).min(chunk.len() - off);
                cur.push(chunk.slice(off..off + take));
                cur_len += take;
                off += take;
                if cur_len == LONG_PIECE {
                    pieces.push((std::mem::take(&mut cur), cur_len));
                    cur_len = 0;
                }
            }
        }
        if !cur.is_empty() {
            pieces.push((cur, cur_len));
        }
        let n = pieces.len();
        for (i, (chunks, len)) in pieces.into_iter().enumerate() {
            q.push_back(OutMsg { chunks, len, req: Some(req), last: i + 1 == n, ppid });
        }
        // env.to_bytes() header message + n body pieces.
        self.note_queued(peer, 1 + n);
    }

    fn note_queued(&mut self, peer: u16, n: usize) {
        self.wq_total += n;
        self.wq_peer[peer as usize] += n;
    }

    /// One progression pass: drain arrivals, then push queued writes on
    /// every (peer, stream). Returns true if anything moved.
    pub(crate) fn progress(
        &mut self,
        w: &mut World,
        ctx: &mut Wx,
        core: &mut Core,
        meter: &mut CpuMeter,
    ) -> bool {
        let mut progressed = false;
        // Reads first: sctp_recvmsg until EAGAIN (no select, §3.3).
        loop {
            let Some(mut msg) = sctp::recvmsg(w, ctx, self.ep) else { break };
            meter.charge(cost::SYSCALL + cost::SCTP_PER_MSG + cost::sctp_bytes(msg.len as usize));
            progressed = true;
            // Any host can associate with the RPI port; a message that did
            // not come from a rank's association is dropped unread, and the
            // association is shut down so that its state and heartbeats do
            // not outlive the message.
            match self.peer_of_assoc(msg.assoc) {
                Some(peer) => {
                    self.handle_message(ctx, core, peer, msg.stream, &mut msg.data, msg.len as usize)
                }
                None => sctp::shutdown(w, ctx, msg.assoc),
            }
            // The chunk list came from the transport's pool (reassembly);
            // its contents were consumed or dropped above, so retire the carrier.
            w.pool.put_bytes_vec(msg.data);
        }
        // Writes: every peer, every stream — a blocked stream does not
        // block the others (§3.2). Peers with nothing queued are skipped.
        if self.wq_total > 0 {
            for peer in 0..self.assocs.len() as u16 {
                if peer == self.me
                    || self.wq_peer[peer as usize] == 0
                    || self.assocs[peer as usize].is_none()
                {
                    continue;
                }
                progressed |= self.progress_writes(w, ctx, core, meter, peer);
            }
        }
        progressed
    }

    /// The rank at the far end of `a`, if `a` is one of the job's associations.
    fn peer_of_assoc(&self, a: AssocId) -> Option<u16> {
        self.assocs.iter().position(|x| *x == Some(a)).map(|p| p as u16)
    }

    fn progress_writes(
        &mut self,
        w: &mut World,
        ctx: &mut Wx,
        core: &mut Core,
        meter: &mut CpuMeter,
        peer: u16,
    ) -> bool {
        let a = self.assocs[peer as usize].unwrap();
        let mut progressed = false;
        for sid in 0..self.nstreams {
            // Option A: while a long body is mid-write, no other
            // (peer, stream) may transmit — the concurrency loss §3.4.1
            // describes. (We still drain arrivals to stay deadlock-free.)
            if let Some(lock) = self.a_lock {
                if lock != (peer, sid) {
                    continue;
                }
            }
            while let Some(front) = self.wq[peer as usize][sid as usize].front() {
                // Ask first: a message that does not fit waits for the wake
                // sized to it (see `register`) instead of probing with a
                // sendmsg that fails. Any other error falls through to
                // sendmsg, which reports it.
                if sctp::check_send(w, a, sid, front.len as u64) == Err(SendErr::WouldBlock) {
                    break; // this stream is blocked; try the next one
                }
                let sent = sctp::sendmsg_v(w, ctx, a, sid, front.ppid, &front.chunks);
                debug_assert_ne!(sent, Err(SendErr::WouldBlock), "check_send admitted it");
                if let Err(e) = sent {
                    panic!("sctp sendmsg failed: {e:?}");
                }
                meter.charge(cost::SYSCALL + cost::SCTP_PER_MSG + cost::sctp_bytes(front.len));
                progressed = true;
                let item = self.wq[peer as usize][sid as usize].pop_front().unwrap();
                self.wq_total -= 1;
                self.wq_peer[peer as usize] -= 1;
                if self.race_fix == RaceFix::OptionA {
                    self.a_lock = if item.last { None } else { Some((peer, sid)) };
                }
                if item.last {
                    if let Some(r) = item.req {
                        core.send_written(r);
                    }
                }
            }
        }
        progressed
    }

    /// Two-level demux (association → stream), then the per-stream state
    /// machine: either an in-progress long body or a fresh envelope.
    fn handle_message(
        &mut self,
        ctx: &Wx,
        core: &mut Core,
        peer: u16,
        sid: u16,
        data: &mut Vec<Bytes>,
        len: usize,
    ) {
        let st = &mut self.rd[peer as usize][sid as usize];
        if let Some(sink) = st.sink {
            // A long body is in flight on this stream: this message is the
            // next piece (Option B guarantees nothing interleaves).
            debug_assert!(len <= st.remaining, "piece overruns announced body");
            st.remaining -= len;
            let finished = st.remaining == 0;
            core.body_chunks(sink, data.drain(..));
            if finished {
                st.sink = None;
                let ctrl = core.body_done(sink);
                self.enqueue_ctrl(ctrl);
            }
            return;
        }
        // Fresh message: envelope in the first chunk (sendmsg framing
        // preserves our chunk boundaries through fragmentation).
        debug_assert!(data[0].len() >= ENV_SIZE, "first chunk must hold the envelope");
        let env = Envelope::from_bytes(&data[0]);
        let out = core.on_envelope(peer, env);
        trace_match(ctx, core, &env, &out);
        self.enqueue_ctrl(out.ctrl);
        if let Some((req, benv, body)) = out.body_send {
            self.enqueue_body_send(peer, req, benv, body);
        }
        if let Some(sink) = out.sink {
            match env.kind {
                crate::envelope::EnvKind::RndvBody => {
                    // Envelope-only message; pieces follow on this stream.
                    if env.len == 0 {
                        let ctrl = core.body_done(sink);
                        self.enqueue_ctrl(ctrl);
                    } else {
                        let st = &mut self.rd[peer as usize][sid as usize];
                        st.sink = Some(sink);
                        st.remaining = env.len as usize;
                    }
                }
                _ => {
                    // Short body rides in this same message after the
                    // envelope.
                    debug_assert_eq!(
                        data[1..].iter().map(|c| c.len()).sum::<usize>(),
                        env.len as usize,
                        "eager body length mismatch"
                    );
                    core.body_chunks(sink, data.drain(..).skip(1));
                    let ctrl = core.body_done(sink);
                    self.enqueue_ctrl(ctrl);
                }
            }
        }
    }

    /// O(1) via `wq_total`.
    pub(crate) fn has_pending_writes(&self) -> bool {
        self.wq_total > 0
    }

    /// Register for wakeups: one endpoint covers every peer (§3.3). A
    /// blocked writer asks each association for the free space its
    /// smallest queued front message needs, so a SACK that frees less
    /// wakes nobody: the pass it would start could send nothing there.
    pub(crate) fn register(&self, w: &mut World, me: ProcId) {
        sctp::register_reader(w, self.ep, me);
        if !self.has_pending_writes() {
            return;
        }
        for (q, a) in self.wq.iter().zip(&self.assocs) {
            let Some(a) = *a else { continue };
            let need = q.iter().filter_map(|s| s.front()).map(|m| m.len as u64).min();
            sctp::register_writer_for(w, a, need.unwrap_or(u64::MAX), me);
        }
    }
}
