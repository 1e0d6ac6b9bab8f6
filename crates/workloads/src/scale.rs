//! Scale workloads: incast fan-in and many-tenant switch sharing, run on
//! the sharded engine at thousands of ranks.
//!
//! The paper's farm tops out at 8 nodes; the data-centre follow-on
//! literature (incast collapse, multi-tenant fabrics) is exactly the regime
//! that needs 1k–10k ranks and the sharded engine. The workload here is a
//! deliberately lean reliable-flow transport — windowed go-back-N with
//! slow start, AIMD, fast retransmit and an exponentially backed-off RTO —
//! because at this scale the interesting dynamics are *collective*
//! (synchronized windows overflowing one FIFO), not per-byte protocol
//! detail, and because the sharded engine drives flat per-node state
//! machines. (Rank count is not the obstacle: `simcore::process` ranks are
//! futures on one thread, and a 10 000-process job starts in one process —
//! see `simcore/tests/runtime_props.rs`. Running the real engines here is
//! ROADMAP item 2.)
//!
//! Three design rules keep the model bit-identical at any shard count
//! (see `simcore::shard` for the engine's contract):
//!
//! * nodes touch only their own NIC ([`netsim::shardnet::NodeNic`]) and
//!   per-flow state, and talk through the engine's mailbox;
//! * all randomness (loss, jitter) is drawn from per-*node* RNG streams at
//!   the source;
//! * the congestion window is kept to an even number of packets and the
//!   receiver acks every [`ScaleCfg::ack_every`] in-order arrivals (plus
//!   immediately on any out-of-order or final packet), so the receiver
//!   needs no delayed-ack timer at all — parity guarantees a full window
//!   always generates an ack.
//!
//! The RTO timer is *lazy*: acks just slide a deadline forward; the single
//! armed timer re-arms itself when it wakes early. A window of acks costs
//! zero event-queue traffic.

use std::sync::Arc;

use netsim::link::LinkDrop;
use netsim::shardnet::{NodeNic, SendVerdict, ShardNetCfg};
use simcore::{
    local_ix, run_sharded, shard_of, Ctx, Dur, Inbound, Mailbox, ShardCfg, ShardSim, ShardWorld,
    SimTime, TimerId,
};
use transport::rto::{RtoCfg, RtoEstimator};

/// One unidirectional transfer: `bytes` of payload from `src` to `dst`,
/// first packet offered at `start`.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    pub start: SimTime,
}

/// Scale-experiment configuration.
#[derive(Debug, Clone)]
pub struct ScaleCfg {
    /// Node count (every node gets a NIC; flows pick src/dst among them).
    pub nodes: u32,
    /// The transfers.
    pub flows: Vec<FlowSpec>,
    /// Star-network parameters; `net.lookahead()` is the engine's bound.
    pub net: ShardNetCfg,
    /// Payload bytes per packet.
    pub mss: u32,
    /// Per-packet wire overhead (headers).
    pub hdr: u32,
    /// Wire size of a pure ack.
    pub ack_bytes: u32,
    /// Ack every k-th in-order packet (out-of-order and flow-final packets
    /// are acked immediately). Keep `k` ≤ 2·initial window.
    pub ack_every: u32,
    /// Initial congestion window, in packet *pairs* (window = 2·pairs).
    pub init_pairs: u32,
    /// Window cap, in pairs.
    pub max_pairs: u32,
    /// RTO estimator parameters.
    pub rto: RtoCfg,
    /// Master seed (per-node streams derived from it).
    pub seed: u64,
    /// Safety stop; [`SimTime::MAX`] to run to completion.
    pub deadline: SimTime,
}

impl ScaleCfg {
    /// N synchronized senders, one victim (node 0): the incast benchmark.
    pub fn incast(senders: u32, block_bytes: u64, seed: u64) -> ScaleCfg {
        let flows = (1..=senders)
            .map(|s| FlowSpec { src: s, dst: 0, bytes: block_bytes, start: SimTime::ZERO })
            .collect();
        ScaleCfg::base(senders + 1, flows, seed)
    }

    /// `tenants` flows sharing `servers` receivers round-robin, starts
    /// staggered by `stagger` so arrival waves interleave.
    pub fn tenants(tenants: u32, servers: u32, block_bytes: u64, stagger: Dur, seed: u64) -> ScaleCfg {
        let flows = (0..tenants)
            .map(|t| FlowSpec {
                src: servers + t,
                dst: t % servers,
                bytes: block_bytes,
                start: SimTime::ZERO + Dur::from_nanos(stagger.as_nanos() * t as u64),
            })
            .collect();
        ScaleCfg::base(servers + tenants, flows, seed)
    }

    fn base(nodes: u32, flows: Vec<FlowSpec>, seed: u64) -> ScaleCfg {
        ScaleCfg {
            nodes,
            flows,
            // Every packet this model offers is either a full `mss + hdr`
            // data frame or an `ack_bytes` ack; the smaller of the two
            // legally widens the engine's lookahead (its serialization is a
            // latency every send pays).
            net: ShardNetCfg { nodes, min_wire_bytes: 64, ..ShardNetCfg::default() },
            mss: 1448,
            hdr: 52,
            ack_bytes: 64,
            ack_every: 2,
            init_pairs: 1,
            max_pairs: 32,
            // Data-centre-ish timers: much tighter than the era BSD stack,
            // still coarse enough that an incast RTO stall is catastrophic
            // relative to a ~66 µs RTT.
            rto: RtoCfg {
                initial: Dur::from_millis(200),
                min: Dur::from_millis(200),
                max: Dur::from_secs(60),
                granularity: Dur::from_millis(1),
                rtt_quantum: Dur::ZERO,
            },
            seed,
            deadline: SimTime::MAX,
        }
    }

    /// Packets a flow of `bytes` needs at this MSS.
    fn pkts(&self, bytes: u64) -> u32 {
        (bytes.div_ceil(self.mss as u64)).max(1) as u32
    }
}

/// Inter-node message. Arrival instants are stamped by the sender's NIC;
/// the receiving downlink FIFO is applied in merged order at the victim.
#[derive(Debug, Clone, Copy)]
pub enum Pkt {
    Data { flow: u32, seq: u32 },
    Ack { flow: u32, cum: u32 },
}

/// Sender half of one flow.
struct Sender {
    flow: u32,
    src: u32,
    dst: u32,
    total: u32,
    /// Next packet to (re)send.
    next: u32,
    /// Cumulative ack point.
    cum: u32,
    /// Lowest sequence never transmitted (Karn: only sample below it is a
    /// retransmission).
    fresh: u32,
    /// Congestion window in pairs (window = 2·pairs — even by
    /// construction, which is what lets the receiver ack every 2nd packet
    /// without a delayed-ack timer).
    pairs: u32,
    ssthresh: u32,
    /// Congestion-avoidance ack counter.
    ca_cnt: u32,
    dupacks: u32,
    rto: RtoEstimator,
    /// Lazy RTO deadline; acks slide it forward without touching the queue.
    rto_deadline: SimTime,
    timer: Option<TimerId>,
    /// Outstanding RTT sample (Karn-clean), `None` when invalidated.
    sample: Option<(u32, SimTime)>,
    retrans: u64,
    timeouts: u64,
    fast_rtx: u64,
    done: bool,
}

/// Receiver half of one flow (pure reactive state machine — no timers).
struct Recv {
    expected: u32,
    total: u32,
    /// In-order arrivals not yet acked.
    pending: u32,
    /// Delivery instant of the final packet (0 = incomplete).
    done_at: u64,
    /// Out-of-order or duplicate arrivals discarded (go-back-N receiver).
    dups: u64,
}

/// One shard's state: the NICs of its nodes plus the sender/receiver halves
/// of flows whose endpoint it owns.
pub struct ScaleWorld {
    cfg: Arc<ScaleCfg>,
    /// NICs of owned nodes, indexed by `local_ix`.
    nics: Vec<NodeNic>,
    senders: Vec<Sender>,
    /// flow id → index into `senders` (u32::MAX when not owned).
    flow_sender: Vec<u32>,
    rx: Vec<Recv>,
    /// flow id → index into `rx` (u32::MAX when not owned).
    flow_rx: Vec<u32>,
}

impl ScaleWorld {
    fn new(shard: u32, shards: u32, cfg: Arc<ScaleCfg>) -> ScaleWorld {
        let nics = (0..cfg.nodes)
            .filter(|n| shard_of(*n, shards) == shard)
            .map(|n| NodeNic::new(&cfg.net, n, cfg.seed))
            .collect();
        let mut senders = Vec::new();
        let mut rx = Vec::new();
        let mut flow_sender = vec![u32::MAX; cfg.flows.len()];
        let mut flow_rx = vec![u32::MAX; cfg.flows.len()];
        for (f, spec) in cfg.flows.iter().enumerate() {
            assert!(spec.src < cfg.nodes && spec.dst < cfg.nodes && spec.src != spec.dst);
            let total = cfg.pkts(spec.bytes);
            if shard_of(spec.src, shards) == shard {
                flow_sender[f] = senders.len() as u32;
                senders.push(Sender {
                    flow: f as u32,
                    src: spec.src,
                    dst: spec.dst,
                    total,
                    next: 0,
                    cum: 0,
                    fresh: 0,
                    pairs: cfg.init_pairs.max(1),
                    ssthresh: cfg.max_pairs,
                    ca_cnt: 0,
                    dupacks: 0,
                    rto: RtoEstimator::new(cfg.rto),
                    rto_deadline: SimTime::ZERO,
                    timer: None,
                    sample: None,
                    retrans: 0,
                    timeouts: 0,
                    fast_rtx: 0,
                    done: false,
                });
            }
            if shard_of(spec.dst, shards) == shard {
                flow_rx[f] = rx.len() as u32;
                rx.push(Recv { expected: 0, total, pending: 0, done_at: 0, dups: 0 });
            }
        }
        ScaleWorld { cfg, nics, senders, flow_sender, flow_rx, rx }
    }
}

type Sim = ShardSim<ScaleWorld>;

/// Transmit every packet the window currently admits. Runs on the sender's
/// shard against sender-owned state only.
fn pump(cfg: &ScaleCfg, s: &mut Sender, nic: &mut NodeNic, mail: &mut Mailbox<Pkt>, now: SimTime) {
    let wnd = 2 * s.pairs;
    let wire = cfg.mss + cfg.hdr;
    while s.next < s.total && s.next < s.cum.saturating_add(wnd) {
        if s.next < s.fresh {
            s.retrans += 1;
        }
        match nic.send(now, s.dst, wire) {
            SendVerdict::InFlight { at_dst } => {
                mail.send(s.src, s.dst, at_dst, Pkt::Data { flow: s.flow, seq: s.next });
            }
            SendVerdict::Dropped(_) => {} // lost at source; timers recover
        }
        if s.sample.is_none() && s.next >= s.fresh {
            s.sample = Some((s.next, now));
        }
        s.next += 1;
        s.fresh = s.fresh.max(s.next);
    }
}

/// (Re-)arm the lazy RTO timer at `s.rto_deadline`.
fn arm_rto(s: &mut Sender, ctx: &mut Ctx<Sim>, flow: u32) {
    let at = s.rto_deadline;
    s.timer = Some(ctx.schedule_at(at, move |sim, ctx| rto_fire(sim, ctx, flow)));
}

/// The armed RTO timer woke up: either slide forward (acks moved the
/// deadline) or declare a timeout and go back N.
fn rto_fire(sim: &mut Sim, ctx: &mut Ctx<Sim>, flow: u32) {
    let w = &mut sim.world;
    let mail = &mut sim.mail;
    let ix = w.flow_sender[flow as usize] as usize;
    let s = &mut w.senders[ix];
    s.timer = None;
    if s.done {
        return;
    }
    let now = ctx.now();
    if now < s.rto_deadline {
        arm_rto(s, ctx, flow);
        return;
    }
    // Timeout: multiplicative decrease to one pair, go-back-N, backoff.
    s.timeouts += 1;
    s.rto.backoff();
    s.ssthresh = (s.pairs / 2).max(1);
    s.pairs = 1;
    s.ca_cnt = 0;
    s.dupacks = 0;
    s.next = s.cum;
    s.sample = None;
    let nic = &mut w.nics[local_ix(s.src, mail.shards())];
    pump(&w.cfg, s, nic, mail, now);
    s.rto_deadline = now + s.rto.current();
    arm_rto(s, ctx, flow);
}

/// First packet of a flow: arm the timer and open the window.
fn start_flow(sim: &mut Sim, ctx: &mut Ctx<Sim>, flow: u32) {
    let w = &mut sim.world;
    let mail = &mut sim.mail;
    let ix = w.flow_sender[flow as usize] as usize;
    let s = &mut w.senders[ix];
    let now = ctx.now();
    let nic = &mut w.nics[local_ix(s.src, mail.shards())];
    pump(&w.cfg, s, nic, mail, now);
    s.rto_deadline = now + s.rto.current();
    arm_rto(s, ctx, flow);
}

/// A data packet cleared the receiver's downlink at `t_d`. Go-back-N
/// receive discipline: in-order is consumed, anything else is discarded
/// and triggers an immediate (dup)ack.
fn recv_data(sim: &mut Sim, flow: u32, seq: u32, node: u32, t_d: SimTime) {
    let w = &mut sim.world;
    let mail = &mut sim.mail;
    let ack_every = w.cfg.ack_every;
    let ack_bytes = w.cfg.ack_bytes;
    let src_node = w.cfg.flows[flow as usize].src;
    let r = &mut w.rx[w.flow_rx[flow as usize] as usize];
    let mut ack_now = false;
    if seq == r.expected && r.done_at == 0 {
        r.expected += 1;
        r.pending += 1;
        if r.expected == r.total {
            r.done_at = t_d.as_nanos();
            ack_now = true;
        } else if r.pending >= ack_every {
            ack_now = true;
        }
    } else {
        // Duplicate, out-of-order, or post-completion straggler.
        r.dups += 1;
        ack_now = true;
    }
    if ack_now {
        r.pending = 0;
        let cum = r.expected;
        let nic = &mut w.nics[local_ix(node, mail.shards())];
        if let SendVerdict::InFlight { at_dst } = nic.send(t_d, src_node, ack_bytes) {
            mail.send(node, src_node, at_dst, Pkt::Ack { flow, cum });
        }
    }
}

/// An ack cleared the sender's downlink at `t_d`.
fn recv_ack(sim: &mut Sim, ctx: &mut Ctx<Sim>, flow: u32, cum: u32, t_d: SimTime) {
    let w = &mut sim.world;
    let mail = &mut sim.mail;
    let ix = w.flow_sender[flow as usize] as usize;
    let s = &mut w.senders[ix];
    if s.done {
        return;
    }
    if cum > s.cum {
        // Fresh progress.
        if let Some((seq, sent)) = s.sample {
            if cum > seq {
                s.rto.sample(t_d.since(sent));
                s.sample = None;
            }
        }
        s.cum = cum;
        s.dupacks = 0;
        if s.next < s.cum {
            s.next = s.cum;
        }
        if s.cum >= s.total {
            s.done = true;
            if let Some(t) = s.timer.take() {
                ctx.cancel(t);
            }
            return;
        }
        // Slow start below ssthresh, +1 pair per window above it.
        if s.pairs < s.ssthresh {
            s.pairs += 1;
        } else {
            s.ca_cnt += 1;
            if s.ca_cnt >= s.pairs {
                s.pairs += 1;
                s.ca_cnt = 0;
            }
        }
        s.pairs = s.pairs.min(w.cfg.max_pairs);
        s.rto_deadline = t_d + s.rto.current();
    } else if cum == s.cum {
        s.dupacks += 1;
        if s.dupacks == 3 {
            // Fast retransmit: halve the window and go back N without
            // waiting for (or backing off) the timer.
            s.fast_rtx += 1;
            s.ssthresh = (s.pairs / 2).max(1);
            s.pairs = s.ssthresh;
            s.ca_cnt = 0;
            s.dupacks = 0;
            s.next = s.cum;
            s.sample = None;
            s.rto_deadline = t_d + s.rto.current();
        }
    } else {
        return; // stale ack from before a go-back-N
    }
    let nic = &mut w.nics[local_ix(s.src, mail.shards())];
    pump(&w.cfg, s, nic, mail, t_d);
}

impl ShardWorld for ScaleWorld {
    type Msg = Pkt;

    fn init(sim: &mut Sim, ctx: &mut Ctx<Sim>) {
        let specs: Vec<(u32, SimTime)> = sim
            .world
            .cfg
            .flows
            .iter()
            .enumerate()
            .filter(|(f, _)| sim.world.flow_sender[*f] != u32::MAX)
            .map(|(f, spec)| (f as u32, spec.start))
            .collect();
        for (flow, start) in specs {
            ctx.schedule_at(start, move |sim, ctx| start_flow(sim, ctx, flow));
        }
    }

    fn deliver(sim: &mut Sim, ctx: &mut Ctx<Sim>, m: Inbound<Pkt>) {
        // Every arrival first clears the destination's downlink FIFO; the
        // merged (at, src, sseq) order makes its occupancy — and so which
        // packet tail-drops during collapse — partition-invariant.
        let wire = match m.msg {
            Pkt::Data { .. } => sim.world.cfg.mss + sim.world.cfg.hdr,
            Pkt::Ack { .. } => sim.world.cfg.ack_bytes,
        };
        let shards = sim.shards();
        let nic = &mut sim.world.nics[local_ix(m.dst, shards)];
        match nic.recv(m.at, wire) {
            Ok(t_d) => match m.msg {
                Pkt::Data { flow, seq } => recv_data(sim, flow, seq, m.dst, t_d),
                Pkt::Ack { flow, cum } => recv_ack(sim, ctx, flow, cum, t_d),
            },
            Err(LinkDrop::QueueFull | LinkDrop::LinkDown) => {
                // Incast collapse in one line: the victim's FIFO said no.
            }
        }
    }
}

/// Aggregated, partition-invariant results of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Per-flow completion instant in ns (0 = incomplete at deadline).
    pub flow_done_ns: Vec<u64>,
    /// Flows that completed.
    pub completed: u32,
    /// Completion instant of the last flow to finish.
    pub last_done_ns: u64,
    /// Retransmitted data packets.
    pub retrans: u64,
    /// RTO expiries.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_rtx: u64,
    /// Tail drops at downlink FIFOs (the collapse signal).
    pub drops_queue: u64,
    /// Source-side random/fault losses.
    pub drops_loss: u64,
    /// Out-of-order/duplicate packets the go-back-N receivers discarded.
    pub dups: u64,
    /// Events fired (partition-invariant).
    pub events: u64,
    /// Mailbox messages (partition-invariant).
    pub sends: u64,
    /// Barrier rounds that executed an epoch.
    pub epochs: u64,
    /// Messages that crossed a shard boundary (partition-dependent).
    pub cross_shard_pkts: u64,
    /// Scheduler cost counters, summed over shards (partition-dependent).
    pub sched: simcore::SchedCounters,
    /// Shards the run actually used.
    pub shards: u32,
    /// The conservative lookahead bound, ns.
    pub lookahead_ns: u64,
    /// Final simulated instant, ns.
    pub end_ns: u64,
    /// True when the deadline stopped the run first.
    pub hit_deadline: bool,
}

/// Run a scale workload on `shards_requested` shards (forced to 1 under
/// the `SIM_CHECK=1` reference discipline).
pub fn run_scale(cfg: ScaleCfg, shards_requested: usize) -> ScaleResult {
    let shards = simcore::effective_shards(shards_requested);
    let lookahead = cfg.net.lookahead();
    let n_flows = cfg.flows.len();
    let cfg = Arc::new(cfg);
    let worlds: Vec<ScaleWorld> =
        (0..shards).map(|s| ScaleWorld::new(s as u32, shards as u32, cfg.clone())).collect();
    let mut shard_cfg = ShardCfg::new(shards, lookahead, cfg.seed);
    shard_cfg.deadline = cfg.deadline;
    let out = run_sharded(shard_cfg, worlds);

    let mut res = ScaleResult {
        flow_done_ns: vec![0; n_flows],
        completed: 0,
        last_done_ns: 0,
        retrans: 0,
        timeouts: 0,
        fast_rtx: 0,
        drops_queue: 0,
        drops_loss: 0,
        dups: 0,
        events: out.events,
        sends: out.sends_total,
        epochs: out.epochs,
        cross_shard_pkts: out.cross_shard_pkts,
        sched: out.sched,
        shards: out.shards,
        lookahead_ns: out.lookahead.as_nanos(),
        end_ns: out.end_time.as_nanos(),
        hit_deadline: out.hit_deadline,
    };
    for w in &out.worlds {
        for (f, &ix) in w.flow_rx.iter().enumerate() {
            if ix != u32::MAX {
                let r = &w.rx[ix as usize];
                res.flow_done_ns[f] = r.done_at;
                res.dups += r.dups;
                if r.done_at > 0 {
                    res.completed += 1;
                    res.last_done_ns = res.last_done_ns.max(r.done_at);
                }
            }
        }
        for s in &w.senders {
            res.retrans += s.retrans;
            res.timeouts += s.timeouts;
            res.fast_rtx += s.fast_rtx;
        }
        for nic in &w.nics {
            res.drops_queue += nic.down.stats.drops_queue;
            res.drops_loss += nic.stats.drops_loss;
        }
    }
    res
}

impl ScaleResult {
    /// Aggregate goodput over the whole run, Mb/s.
    pub fn goodput_mbps(&self, payload_bytes_total: u64) -> f64 {
        if self.last_done_ns == 0 {
            return 0.0;
        }
        (payload_bytes_total * 8) as f64 / self.last_done_ns as f64 * 1e9 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_incast(shards: usize) -> ScaleResult {
        let cfg = ScaleCfg::incast(24, 32 * 1024, 0xC0FFEE);
        run_scale(cfg, shards)
    }

    #[test]
    fn incast_completes_and_collapses() {
        let r = small_incast(1);
        assert_eq!(r.completed, 24, "all flows finish");
        assert!(!r.hit_deadline);
        assert!(r.drops_queue > 0, "synchronized windows must overflow the victim FIFO");
        assert!(r.retrans > 0);
        assert!(r.last_done_ns > 0);
    }

    #[test]
    fn shard_invariant_results() {
        let base = small_incast(1);
        for shards in [2, 4] {
            let got = small_incast(shards);
            assert_eq!(got.flow_done_ns, base.flow_done_ns, "completion times at shards={shards}");
            assert_eq!(got.events, base.events);
            assert_eq!(got.sends, base.sends);
            assert_eq!(got.retrans, base.retrans);
            assert_eq!(got.drops_queue, base.drops_queue);
            assert_eq!(got.dups, base.dups);
            assert_eq!(got.epochs, base.epochs);
            assert_eq!(got.end_ns, base.end_ns);
        }
    }

    #[test]
    fn tenants_complete() {
        let cfg = ScaleCfg::tenants(32, 4, 64 * 1024, Dur::from_micros(50), 7);
        let r1 = run_scale(cfg.clone(), 1);
        assert_eq!(r1.completed, 32);
        let r3 = run_scale(cfg, 3);
        assert_eq!(r3.flow_done_ns, r1.flow_done_ns);
        assert_eq!(r3.events, r1.events);
    }

    #[test]
    fn lossy_run_is_seed_stable() {
        let mut cfg = ScaleCfg::incast(8, 16 * 1024, 42);
        cfg.net.loss_prob = 0.02;
        let a = run_scale(cfg.clone(), 1);
        let b = run_scale(cfg.clone(), 2);
        assert_eq!(a.flow_done_ns, b.flow_done_ns, "loss draws are per-node, partition-invariant");
        assert_eq!(a.drops_loss, b.drops_loss);
        assert_eq!(a.completed, 8);
    }
}
