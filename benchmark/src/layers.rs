//! The per-layer run: exact counters of one rep, one pass of alternating
//! traced and untraced reps, the flight-recorder and pinning ratios, every
//! layer probe, and the estimates that tie them together.
//!
//! On `live_*` the spans are real: iteration → send / poll… / recv around
//! the benchmark's own calls. On `sim_*` a rank's wall time cannot be
//! attributed from outside the program, so the run prices the rep's exact
//! counts (events, packets, messages) with the stacked probes — scheduler →
//! netsim → engine-only rig → full MPI run — and reports each layer's share
//! by differencing. Those are estimates and are named `bench.est_share.*`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{SimOut, Transport};
use crate::calib::{Calib, NOMINAL_S};
use crate::json::Value;
use crate::measure::{median_of, Outcome, Sample, Session};
use crate::os;
use crate::probes;
use crate::span::{self, Recorder, Span};
use crate::stats::{highest_supported_percentile, median, percentile_sorted};
use crate::workload::{fingerprint, Inputs, Rep, Workload};

/// Share of `--seconds` given to the alternating traced/untraced pass;
/// counters, ratios and probes are a fixed amount of work on top.
const TRACED_SHARE: f64 = 0.4;
/// Spans kept per transport in the trace file.
const TRACE_FILE_SPANS: usize = 20_000;
/// The spans the live driver records inside a rep, and the metric each
/// one's self time feeds (`backend.<metric>_ns_per_msg.*`).
const LIVE_SPANS: [(&str, &str); 4] = [
    ("send", "send"),
    ("poll", "poll"),
    ("recv", "recv"),
    ("iteration", "loop"),
];

/// Exact counters of one rep, taken off the timed path.
struct Counts {
    msgs: f64,
    sim: Option<SimOut>,
    rusage: os::Rusage,
    allocs: u64,
    alloc_bytes: u64,
}

/// One rep with the allocator and rusage counters around it. For the farm,
/// a second rep under `mpirun` supplies what `FarmResult` leaves out.
fn count_rep(s: &mut Session, t: Transport, inputs: &Inputs) -> Counts {
    let before = (os::rusage(), os::allocs());
    os::count_allocs(true);
    let mut rep = s.w.rep(t, s.seed, inputs, &mut Recorder::new(false), false);
    os::count_allocs(false);
    let after = (os::rusage(), os::allocs());
    s.judge(t, 0, &mut rep);
    let mut sim = rep.sim;
    if let (Some(sim), Some(full)) = (sim.as_mut(), s.w.farm_counts(t, s.seed)) {
        if (full.events, full.sim_ns) != (sim.events, sim.sim_ns) {
            s.out.fail(format!(
                "{}: the farm under mpirun diverged from farm::run",
                t.name()
            ));
        }
        sim.net = full.net;
        sim.engine = full.engine;
    }
    Counts {
        msgs: rep.msgs.max(1) as f64,
        sim,
        rusage: after.0.since(&before.0),
        allocs: after.1 .0 - before.1 .0,
        alloc_bytes: after.1 .1 - before.1 .1,
    }
}

/// One transport's side of the alternating traced/untraced pass. The live
/// fields hold one value per rep and stay empty on `sim_*`.
#[derive(Default)]
struct Pass {
    plain: Vec<Sample>,
    traced: Vec<Sample>,
    /// RTT percentiles (µs) of the untraced reps.
    rtt_p50_us: Vec<f64>,
    rtt_tail_us: Vec<f64>,
    /// Reference ns of self time per message, by span name (traced reps).
    self_ns_per_msg: BTreeMap<&'static str, Vec<f64>>,
    polls_per_msg: Vec<f64>,
    empty_poll_share: Vec<f64>,
    events_per_msg: Vec<f64>,
    frames_per_msg: Vec<f64>,
    rx_bad: u64,
    last_spans: Vec<Span>,
}

impl Pass {
    fn untraced(&mut self, rep: Rep, sample: Sample) {
        if let Some(live) = rep.live {
            let mut rtts = live.rtt_ns;
            rtts.sort_unstable();
            if !rtts.is_empty() {
                let tail = highest_supported_percentile(rtts.len());
                self.rtt_p50_us
                    .push(percentile_sorted(&rtts, 50.0) as f64 / 1e3);
                self.rtt_tail_us
                    .push(percentile_sorted(&rtts, tail) as f64 / 1e3);
            }
        }
        self.plain.push(sample);
    }

    /// Returns a complaint if the spans do not account for the iterations.
    fn traced(&mut self, rep: &Rep, sample: Sample, spans: Vec<Span>) -> Option<String> {
        let mut complaint = None;
        if let Some(live) = &rep.live {
            let msgs = rep.msgs.max(1) as f64;
            let by_name = span::self_times(&spans);
            let iterations = by_name.get("iteration").map_or(0, |x| x.total_ns) as f64;
            let covered = LIVE_SPANS
                .iter()
                .filter_map(|(name, _)| by_name.get(name))
                .map(|x| x.self_ns)
                .sum::<u64>() as f64;
            if (covered - iterations).abs() > 0.05 * iterations {
                complaint = Some(format!(
                    "span self times cover {covered} ns of {iterations} ns of iterations"
                ));
            }
            for (name, x) in &by_name {
                let ref_ns = sample.timed.to_ref(x.self_ns as f64);
                self.self_ns_per_msg
                    .entry(name)
                    .or_default()
                    .push(ref_ns / msgs);
            }
            self.polls_per_msg.push(live.polls as f64 / msgs);
            self.empty_poll_share
                .push(live.empty_polls as f64 / live.polls.max(1) as f64);
            self.events_per_msg.push(live.events as f64 / msgs);
            self.frames_per_msg.push(live.udp.tx_frames as f64 / msgs);
            self.rx_bad += live.udp.rx_bad;
        }
        self.traced.push(sample);
        self.last_spans = spans;
        complaint
    }
}

/// Untraced and traced reps, alternating, for about `seconds` (at least two
/// of each per transport).
fn traced_pass(s: &mut Session, inputs: &Inputs, seconds: f64) -> [Pass; 2] {
    let mut passes = [Pass::default(), Pass::default()];
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || i < 2 {
        for t in Transport::BOTH {
            let pass = &mut passes[t as usize];
            let (rep, sample) = s.timed_rep(t, i, inputs, &mut Recorder::new(false), false);
            pass.untraced(rep, sample);
            let mut rec = Recorder::new(true);
            let (rep, sample) = s.timed_rep(t, i, inputs, &mut rec, false);
            if let Some(complaint) = pass.traced(&rep, sample, rec.into_spans()) {
                s.out.fail(format!("{}: {complaint}", t.name()));
            }
        }
        i += 1;
    }
    passes
}

/// One rep per transport with the repo's flight recorder on, over the
/// untraced median: what `MpiCfg.trace` costs.
fn recorder_overhead_ratio(s: &mut Session, inputs: &Inputs, passes: &[Pass; 2]) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for t in Transport::BOTH {
        let (_, sample) = s.timed_rep(t, 0, inputs, &mut Recorder::new(false), true);
        on += sample.timed.ref_s;
        off += median_of(&passes[t as usize].plain, |x| x.timed.ref_s);
    }
    on / off
}

/// One rep per transport with the affinity mask opened again, over the
/// pinned median (raw wall time on both sides): how much the thread-per-rank
/// runtime depends on where the kernel puts its threads.
fn unpinned_ratio(s: &mut Session, inputs: &Inputs, passes: &[Pass; 2]) -> f64 {
    let Some(mask) = s.unpinned else { return 0.0 };
    let (mut open, mut pinned) = (0.0, 0.0);
    os::set_affinity(&mask);
    for t in Transport::BOTH {
        let t0 = Instant::now();
        let mut rep = s.w.rep(t, s.seed, inputs, &mut Recorder::new(false), false);
        open += t0.elapsed().as_secs_f64();
        s.judge(t, 0, &mut rep);
        pinned += median_of(&passes[t as usize].plain, |x| x.timed.wall_s);
    }
    os::pin_to_highest_cpu();
    open / pinned
}

/// What the estimates need back from the probes (reference ns).
struct ProbeCosts {
    sched_per_event: f64,
    net_per_pkt: f64,
    net_per_pkt_loss1: f64,
    /// Engine-only rig, per transport: per packet (64 KiB bulk) and per
    /// message (1 KiB ping-pong).
    engine_per_pkt: [f64; 2],
    engine_per_msg_1k: [f64; 2],
}

/// Every layer's standalone probe; the same on every workload.
fn run_probes(cal: &mut Calib, out: &mut Outcome) -> ProbeCosts {
    let costs = ProbeCosts {
        sched_per_event: probes::simcore::sched_ns_per_event(cal),
        net_per_pkt: probes::netsim::net_ns_per_pkt(cal, 0.0),
        net_per_pkt_loss1: probes::netsim::net_ns_per_pkt(cal, 0.01),
        engine_per_pkt: [
            probes::transport::sctp_bulk_ns_per_pkt(cal),
            probes::transport::tcp_bulk_ns_per_pkt(cal),
        ],
        engine_per_msg_1k: [
            probes::transport::sctp_pingpong_ns_per_msg(cal),
            probes::transport::tcp_pingpong_ns_per_msg(cal),
        ],
    };
    out.set("simcore.sched.ns_per_event", costs.sched_per_event);
    out.set("netsim.net.ns_per_pkt", costs.net_per_pkt);
    out.set("netsim.net.ns_per_pkt_loss1", costs.net_per_pkt_loss1);
    for t in Transport::BOTH {
        let per_pkt = costs.engine_per_pkt[t as usize];
        let per_msg = costs.engine_per_msg_1k[t as usize];
        out.set(&format!("transport.{}.ns_per_pkt", t.name()), per_pkt);
        out.set(&format!("transport.{}.ns_per_msg_1k", t.name()), per_msg);
    }
    // 1 KiB of payload and a full MTU; the bare-socket probe sends frames of
    // the sizes those packets have on the wire.
    for (size, payload) in [("1k", 1024), ("mtu", probes::wire::MTU_PAYLOAD)] {
        let (encode, decode) = probes::wire::codec_ns_per_pkt(cal, payload);
        out.set(&format!("transport.wire.encode_ns_per_pkt_{size}"), encode);
        out.set(&format!("transport.wire.decode_ns_per_pkt_{size}"), decode);
        match probes::udp::syscall_ns_per_pkt(cal, payload + probes::wire::HEADERS) {
            Ok(ns) => out.set(&format!("transport.udp.syscall_ns_per_pkt_{size}"), ns),
            Err(e) => out.fail(format!("UDP loopback probe: {e}")),
        }
    }
    out.set(
        "transport.crc32c.gb_per_s",
        probes::wire::crc32c_gb_per_s(cal),
    );
    out.set(
        "mpi-core.matching.ns_per_match",
        probes::matching::ns_per_match(cal, false),
    );
    out.set(
        "mpi-core.matching.ns_per_match_unexpected",
        probes::matching::ns_per_match(cal, true),
    );
    costs
}

/// Counts of one simulated rep, and the estimates by differencing: price the
/// counts with the stacked probes (the engine rig contains the scheduler and
/// netsim work below it) and charge the rest of the rep's host time to MPI
/// and the rank runtime.
fn report_sim(
    out: &mut Outcome,
    w: &Workload,
    t: Transport,
    c: &Counts,
    sim: &SimOut,
    pass: &Pass,
    p: &ProbeCosts,
) {
    let (events, pkts) = (sim.events as f64, sim.net.offered as f64);
    out.set_t("simcore.sched.events_per_msg", t, events / c.msgs);
    out.set_t("netsim.net.pkts_per_msg", t, pkts / c.msgs);
    let data_out = sim.engine.data_out.max(1) as f64;
    let rtx_share = sim.engine.retransmits as f64 / data_out;
    out.set(&format!("transport.{}.rtx_share", t.name()), rtx_share);
    out.set(
        &format!("transport.{}.timeouts", t.name()),
        sim.engine.timeouts as f64,
    );
    if t == Transport::Sctp {
        let sacks = sim.engine.sacks_out as f64 / data_out;
        out.set("transport.sctp.sacks_per_data_pkt", sacks);
    }

    let rep_ns = median_of(&pass.plain, |x| x.timed.ref_s) * 1e9;
    let sched = events * p.sched_per_event;
    let net = pkts
        * if w.loss() > 0.0 {
            p.net_per_pkt_loss1
        } else {
            p.net_per_pkt
        };
    let rig = if w.is_pingpong() {
        c.msgs * p.engine_per_msg_1k[t as usize]
    } else {
        pkts * p.engine_per_pkt[t as usize]
    };
    out.set_t("bench.est_share.sched", t, sched / rep_ns);
    out.set_t("bench.est_share.netsim", t, net / rep_ns);
    out.set_t("bench.est_share.engine", t, (rig - sched - net) / rep_ns);
    out.set_t("bench.est_share.mpi_runtime", t, (rep_ns - rig) / rep_ns);
    out.set_t("mpi-core.rpi.ns_per_msg", t, (rep_ns - rig) / c.msgs);
}

fn report_live(out: &mut Outcome, t: Transport, pass: &Pass) {
    out.set_t("backend.events_per_msg", t, median(&pass.events_per_msg));
    out.set_t("backend.polls_per_msg", t, median(&pass.polls_per_msg));
    out.set_t(
        "backend.empty_poll_share",
        t,
        median(&pass.empty_poll_share),
    );
    out.set_t(
        "transport.udp.frames_per_msg",
        t,
        median(&pass.frames_per_msg),
    );
    out.set_t("backend.rtt_p50_us", t, median(&pass.rtt_p50_us));
    out.set_t("backend.rtt_tail_us", t, median(&pass.rtt_tail_us));
    for (span, metric) in LIVE_SPANS {
        let self_ns = pass.self_ns_per_msg.get(span).map_or(0.0, |v| median(v));
        out.set_t(&format!("backend.{metric}_ns_per_msg"), t, self_ns);
    }
}

pub fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut s = Session::new(w, seed);
    let (inputs, _setup_s) = s.set_up();
    let counts = Transport::BOTH.map(|t| count_rep(&mut s, t, &inputs));
    let passes = traced_pass(&mut s, &inputs, seconds * TRACED_SHARE);
    // The live driver is one thread and does not go through `MpiCfg`, so the
    // two ratios exist for the simulated workloads only.
    if !w.is_live() {
        let recorder = recorder_overhead_ratio(&mut s, &inputs, &passes);
        let unpinned = unpinned_ratio(&mut s, &inputs, &passes);
        s.out.set("trace.recorder_overhead_ratio", recorder);
        s.out.set("simcore.process.unpinned_ratio", unpinned);
    }
    let Session {
        mut cal,
        mut out,
        warm,
        ..
    } = s;
    let probe_costs = run_probes(&mut cal, &mut out);

    let (mut sys_s, mut cpu_s) = (0.0, 0.0);
    let (mut drops, mut offered) = (0, 0);
    for t in Transport::BOTH {
        let (c, pass) = (&counts[t as usize], &passes[t as usize]);
        let ctxsw = c.rusage.nvcsw as f64 / c.msgs;
        out.set_t("simcore.process.ctxsw_per_msg", t, ctxsw);
        out.set_t("transport.pool.allocs_per_msg", t, c.allocs as f64 / c.msgs);
        let alloc_bytes = c.alloc_bytes as f64 / c.msgs;
        out.set_t("transport.pool.alloc_bytes_per_msg", t, alloc_bytes);
        sys_s += c.rusage.sys_s;
        cpu_s += c.rusage.sys_s + c.rusage.user_s;

        let rate = median_of(&pass.plain, |x| x.msgs as f64 / x.busy_ref_s());
        let raw_rate = median_of(&pass.plain, |x| x.msgs as f64 / x.busy_wall_s);
        let traced_rate = median_of(&pass.traced, |x| x.msgs as f64 / x.busy_ref_s());
        let events_per_s = median_of(&pass.plain, |x| x.events as f64 / x.busy_ref_s());
        out.set_t("bench.ref.msgs_per_s", t, rate);
        out.set_t("bench.raw.msgs_per_s", t, raw_rate);
        out.set_t("bench.trace_overhead_ratio", t, traced_rate / rate);
        out.set_t("simcore.sched.events_per_s", t, events_per_s);

        match &c.sim {
            Some(sim) => {
                report_sim(&mut out, w, t, c, sim, pass, &probe_costs);
                drops += sim.net.drops;
                offered += sim.net.offered;
            }
            None => report_live(&mut out, t, pass),
        }
    }
    let sys_share = if cpu_s > 0.0 { sys_s / cpu_s } else { 0.0 };
    out.set("simcore.process.sys_cpu_share", sys_share);
    if w.is_live() {
        let rtts = w.rep_round_trips();
        let tail = highest_supported_percentile(rtts);
        out.set("backend.rtt_tail_percentile", tail);
        out.set("backend.rtt_samples_per_rep", rtts as f64);
        let rx_bad = passes.iter().map(|p| p.rx_bad).sum::<u64>();
        out.set("transport.udp.rx_bad", rx_bad as f64);
    } else {
        let warm: Vec<SimOut> = warm.iter().flatten().copied().collect();
        let peak = warm.iter().map(|o| o.unexpected_peak).max().unwrap_or(0);
        out.set(
            "netsim.net.drop_share",
            drops as f64 / offered.max(1) as f64,
        );
        out.set("mpi-core.matching.unexpected_peak", peak as f64);
        out.set("bench.sim_fingerprint", fingerprint(&warm) as f64);
    }
    let discarded = cal.unsteady as f64 / cal.timed.max(1) as f64;
    out.set("bench.calib.median_ms", median(&cal.readings) * 1e3);
    out.set("bench.calib.discard_share", discarded);
    let reps = passes.iter().map(|p| p.plain.len()).sum::<usize>();
    out.set("bench.reps", reps as f64);

    out.trace = Some(trace_doc(w, seed, &passes, &out));
    out
}

fn trace_doc(w: &Workload, seed: u64, passes: &[Pass; 2], out: &Outcome) -> Value {
    let spans = |t: Transport| {
        let kept = passes[t as usize].last_spans.iter().take(TRACE_FILE_SPANS);
        Value::Arr(
            kept.map(|s| {
                let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
                Value::obj([
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", parent),
                    ("iter", Value::Num(s.iter as f64)),
                ])
            })
            .collect(),
        )
    };
    let layers = out.values.iter().map(|(k, v)| (k.clone(), Value::Num(*v)));
    Value::obj([
        ("workload", Value::Str(w.name.into())),
        ("seed", Value::Num(seed as f64)),
        ("calibration_nominal_ms", Value::Num(NOMINAL_S * 1e3)),
        (
            "note",
            Value::Str(
                "spans: the last traced rep of each transport (first 20000 spans), in wall ns \
                 since the rep began; parent is an index into the same list. On sim_* the only \
                 span is the rep itself, and the bench.est_share.* values under layers are \
                 estimates from probes, not measured spans."
                    .into(),
            ),
        ),
        (
            "spans",
            Value::obj(Transport::BOTH.map(|t| (t.name(), spans(t)))),
        ),
        ("layers", Value::Obj(layers.collect())),
    ])
}
