//! The benchmark's contract with the driver: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! this module printed (`mpi-benchmark spec`); a test keeps the two equal.

use crate::json::Value;

pub const RUN_SECONDS: u64 = 15;
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// (name, why) of each workload, in the order `run.sh` runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sim_pingpong_1k",
        "2 ranks, 1 KiB round trips, loss 0: few packets per message, so rank handoffs, matching/RPI and per-message engine cost dominate",
    ),
    (
        "sim_stream_64k",
        "2 ranks, one-way 64 KiB eager stream, loss 0: ~45 packets per message, so engine fast path, netsim packet trains and pools dominate; matching is idle",
    ),
    (
        "sim_farm_loss1",
        "8-rank farm, fanout 10, 1 % loss, 30 KiB eager then 300 KiB rendezvous tasks: SACK/retransmit/RTO paths and wildcard matching, so a fast-path gain that costs recovery shows",
    ),
    (
        "live_pingpong_1k",
        "two LiveNodes over UDP loopback, 1 KiB: syscalls, wire encode/decode, CRC and engine per packet; bypasses the rank runtime and netsim",
    ),
    (
        "live_pingpong_128k",
        "same live driver at 128 KiB: per-byte costs (CRC32c, encode and socket copies, fragmentation/reassembly) dominate",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every workload reports every one of them.
pub const END_TO_END: [(Metric, f64); 6] = [
    (lo("setup_s", "s"), 0.25),
    (hi("msgs_per_s.sctp", "1/s"), 0.12),
    (hi("msgs_per_s.tcp", "1/s"), 0.12),
    (hi("payload_mb_per_s.sctp", "MB/s"), 0.12),
    (hi("payload_mb_per_s.tcp", "MB/s"), 0.12),
    (lo("peak_rss_mb", "MiB"), 0.25),
];

/// Per-layer metrics, grouped by the crate or module they describe. A
/// metric that does not apply to a workload (its layer is bypassed, or the
/// public results do not expose it there) reads 0 on that workload.
pub const PER_LAYER: [Metric; 81] = [
    // simcore
    lo("simcore.sched.ns_per_event", "ns"),
    lo("simcore.sched.events_per_msg.sctp", "count"),
    lo("simcore.sched.events_per_msg.tcp", "count"),
    hi("simcore.sched.events_per_s.sctp", "1/s"),
    hi("simcore.sched.events_per_s.tcp", "1/s"),
    lo("simcore.process.ctxsw_per_msg.sctp", "count"),
    lo("simcore.process.ctxsw_per_msg.tcp", "count"),
    lo("simcore.process.sys_cpu_share", "share"),
    lo("simcore.process.unpinned_ratio", "ratio"),
    // netsim
    lo("netsim.net.ns_per_pkt", "ns"),
    lo("netsim.net.ns_per_pkt_loss1", "ns"),
    lo("netsim.net.pkts_per_msg.sctp", "count"),
    lo("netsim.net.pkts_per_msg.tcp", "count"),
    lo("netsim.net.drop_share", "share"),
    // transport
    lo("transport.sctp.ns_per_pkt", "ns"),
    lo("transport.tcp.ns_per_pkt", "ns"),
    lo("transport.sctp.ns_per_msg_1k", "ns"),
    lo("transport.tcp.ns_per_msg_1k", "ns"),
    lo("transport.sctp.rtx_share", "share"),
    lo("transport.tcp.rtx_share", "share"),
    lo("transport.sctp.timeouts", "count"),
    lo("transport.tcp.timeouts", "count"),
    lo("transport.sctp.sacks_per_data_pkt", "count"),
    lo("transport.wire.encode_ns_per_pkt_1k", "ns"),
    lo("transport.wire.decode_ns_per_pkt_1k", "ns"),
    lo("transport.wire.encode_ns_per_pkt_mtu", "ns"),
    lo("transport.wire.decode_ns_per_pkt_mtu", "ns"),
    hi("transport.crc32c.gb_per_s", "GB/s"),
    lo("transport.udp.syscall_ns_per_pkt_1k", "ns"),
    lo("transport.udp.syscall_ns_per_pkt_mtu", "ns"),
    lo("transport.udp.frames_per_msg.sctp", "count"),
    lo("transport.udp.frames_per_msg.tcp", "count"),
    lo("transport.udp.rx_bad", "count"),
    lo("transport.pool.allocs_per_msg.sctp", "count"),
    lo("transport.pool.allocs_per_msg.tcp", "count"),
    lo("transport.pool.alloc_bytes_per_msg.sctp", "B"),
    lo("transport.pool.alloc_bytes_per_msg.tcp", "B"),
    // mpi-core
    lo("mpi-core.matching.ns_per_match", "ns"),
    lo("mpi-core.matching.ns_per_match_unexpected", "ns"),
    lo("mpi-core.matching.unexpected_peak", "count"),
    lo("mpi-core.rpi.ns_per_msg.sctp", "ns"),
    lo("mpi-core.rpi.ns_per_msg.tcp", "ns"),
    // backend (live path)
    lo("backend.send_ns_per_msg.sctp", "ns"),
    lo("backend.send_ns_per_msg.tcp", "ns"),
    lo("backend.poll_ns_per_msg.sctp", "ns"),
    lo("backend.poll_ns_per_msg.tcp", "ns"),
    lo("backend.recv_ns_per_msg.sctp", "ns"),
    lo("backend.recv_ns_per_msg.tcp", "ns"),
    lo("backend.loop_ns_per_msg.sctp", "ns"),
    lo("backend.loop_ns_per_msg.tcp", "ns"),
    lo("backend.polls_per_msg.sctp", "count"),
    lo("backend.polls_per_msg.tcp", "count"),
    lo("backend.empty_poll_share.sctp", "share"),
    lo("backend.empty_poll_share.tcp", "share"),
    lo("backend.events_per_msg.sctp", "count"),
    lo("backend.events_per_msg.tcp", "count"),
    lo("backend.rtt_p50_us.sctp", "us"),
    lo("backend.rtt_p50_us.tcp", "us"),
    lo("backend.rtt_tail_us.sctp", "us"),
    lo("backend.rtt_tail_us.tcp", "us"),
    hi("backend.rtt_tail_percentile", "%"),
    hi("backend.rtt_samples_per_rep", "count"),
    // trace (the repo's flight recorder)
    lo("trace.recorder_overhead_ratio", "ratio"),
    // the benchmark itself
    hi("bench.trace_overhead_ratio.sctp", "ratio"),
    hi("bench.trace_overhead_ratio.tcp", "ratio"),
    lo("bench.sim_fingerprint", "count"),
    hi("bench.raw.msgs_per_s.sctp", "1/s"),
    hi("bench.raw.msgs_per_s.tcp", "1/s"),
    hi("bench.ref.msgs_per_s.sctp", "1/s"),
    hi("bench.ref.msgs_per_s.tcp", "1/s"),
    lo("bench.calib.median_ms", "ms"),
    lo("bench.calib.discard_share", "share"),
    hi("bench.reps", "count"),
    lo("bench.est_share.sched.sctp", "share"),
    lo("bench.est_share.sched.tcp", "share"),
    lo("bench.est_share.netsim.sctp", "share"),
    lo("bench.est_share.netsim.tcp", "share"),
    lo("bench.est_share.engine.sctp", "share"),
    lo("bench.est_share.engine.tcp", "share"),
    lo("bench.est_share.mpi_runtime.sctp", "share"),
    lo("bench.est_share.mpi_runtime.tcp", "share"),
];

/// Per-layer metrics that are exact counts of the simulation: one seed must
/// give the same value in every run of the same tree (`selfcheck.sh`).
pub const EXACT: [&str; 13] = [
    "bench.sim_fingerprint",
    "simcore.sched.events_per_msg.sctp",
    "simcore.sched.events_per_msg.tcp",
    "netsim.net.pkts_per_msg.sctp",
    "netsim.net.pkts_per_msg.tcp",
    "netsim.net.drop_share",
    "transport.sctp.rtx_share",
    "transport.tcp.rtx_share",
    "transport.sctp.timeouts",
    "transport.tcp.timeouts",
    "transport.sctp.sacks_per_data_pkt",
    "transport.udp.rx_bad",
    "mpi-core.matching.unexpected_peak",
];

fn metric_obj(m: &Metric, bound: Option<f64>) -> Value {
    let mut fields = vec![
        ("name", Value::Str(m.name.into())),
        ("unit", Value::Str(m.unit.into())),
        ("better", Value::Str(m.better.name().into())),
    ];
    if let Some(b) = bound {
        fields.push(("bound", Value::Num(b)));
    }
    Value::obj(fields)
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect());
    Value::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([
                            ("name", Value::Str((*name).into())),
                            ("why", Value::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, b)| metric_obj(m, Some(*b)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric_obj(m, None)).collect()),
        ),
    ])
}

fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn name_ok(s: &str) -> bool {
    charset_ok(s, "_.-", 64) && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn check_keys(v: &Value, want: &[&str], what: &str) -> Result<(), String> {
    let got: Vec<&str> = v
        .as_obj()
        .ok_or(format!("{what} is not an object"))?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = (got.clone(), want.to_vec());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    if sorted.0 != sorted.1 {
        return Err(format!("{what} has keys {got:?}, wants exactly {want:?}"));
    }
    Ok(())
}

fn str_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("{what}.{key} is not a string"))
}

/// The limits the driver's contract puts on a `BENCHMARK.json` document.
pub fn validate(doc: &Value) -> Result<(), String> {
    check_keys(
        doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "document",
    )?;
    let arr = |key: &str, min: usize, max: usize| -> Result<&[Value], String> {
        let a = doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("{key} is not an array"))?;
        if a.len() < min || a.len() > max {
            return Err(format!(
                "{key} has {} entries, wants {min} to {max}",
                a.len()
            ));
        }
        Ok(a)
    };
    for c in arr("command", 1, 32)? {
        let s = c.as_str().ok_or("command entry is not a string")?;
        if s.len() > 200 || s.starts_with('/') || s.split('/').any(|part| part == "..") {
            return Err(format!(
                "command entry {s:?} is too long or leaves the repo"
            ));
        }
    }
    for p in arr("paths", 1, 16)? {
        let s = p.as_str().ok_or("path is not a string")?;
        if !charset_ok(s, "_.-/", 200)
            || s.starts_with('/')
            || s.split('/').any(|part| part == "..")
        {
            return Err(format!("path {s:?} is not a plain relative path"));
        }
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("run_seconds is not a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err(format!(
            "run_seconds {secs} is not a whole number from 1 to 60"
        ));
    }

    let mut names: Vec<&str> = Vec::new();
    for w in arr("workloads", 2, 8)? {
        check_keys(w, &["name", "why"], "workload")?;
        names.push(str_field(w, "name", "workload")?);
        let why = str_field(w, "why", "workload")?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "why of {:?} is not one line of at most 200 characters",
                names.last()
            ));
        }
    }
    let mut has_setup = false;
    for (list, max, keys) in [
        ("end_to_end", 16, &["name", "unit", "better", "bound"][..]),
        ("per_layer", 128, &["name", "unit", "better"][..]),
    ] {
        for m in arr(list, 1, max)? {
            check_keys(m, keys, list)?;
            let name = str_field(m, "name", list)?;
            names.push(name);
            let unit = str_field(m, "unit", name)?;
            if !charset_ok(unit, "_/%.-", 16) {
                return Err(format!("unit {unit:?} of {name} is not allowed"));
            }
            let better = str_field(m, "better", name)?;
            if better != "higher" && better != "lower" {
                return Err(format!(
                    "better {better:?} of {name} is neither higher nor lower"
                ));
            }
            if list == "end_to_end" {
                let bound = m.get("bound").and_then(Value::as_f64);
                if !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
                    return Err(format!(
                        "bound of {name} is {bound:?}, wants a number from 0 to 0.25"
                    ));
                }
                has_setup |= (name, unit, better) == ("setup_s", "s", "lower");
            }
        }
    }
    if !has_setup {
        return Err("end_to_end lacks setup_s with unit s, better lower".into());
    }
    for (i, n) in names.iter().enumerate() {
        if !name_ok(n) {
            return Err(format!(
                "name {n:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if names[..i].contains(n) {
            return Err(format!("name {n:?} is used twice"));
        }
    }
    if doc.to_json().len() > 64 * 1024 {
        return Err("document is larger than 64 KiB".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn the_spec_meets_the_contract() {
        validate(&benchmark_json()).unwrap();
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        validate(&doc).unwrap();
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate it with `mpi-benchmark spec`"
        );
    }

    #[test]
    fn exact_metrics_are_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn validator_rejects_what_the_contract_refuses() {
        type Fields = Vec<(String, Value)>;
        let edit = |f: &dyn Fn(&mut Fields)| {
            let Value::Obj(mut fields) = benchmark_json() else {
                unreachable!()
            };
            f(&mut fields);
            validate(&Value::Obj(fields))
        };
        let set = |fields: &mut Fields, key: &str, v: Value| {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
        };
        let metric = |name: &str, unit: &str, bound: f64| {
            Value::obj([
                ("name", Value::Str(name.into())),
                ("unit", Value::Str(unit.into())),
                ("better", Value::Str("lower".into())),
                ("bound", Value::Num(bound)),
            ])
        };
        assert!(edit(&|_| {}).is_ok());
        assert!(
            edit(&|f| f.push(("extra".into(), Value::Null))).is_err(),
            "unknown key"
        );
        assert!(
            edit(&|f| set(f, "run_seconds", Value::Num(61.0))).is_err(),
            "run too long"
        );
        assert!(
            edit(&|f| set(f, "run_seconds", Value::Num(1.5))).is_err(),
            "fractional seconds"
        );
        assert!(
            edit(&|f| set(f, "workloads", Value::Arr(vec![]))).is_err(),
            "fewer than 2 workloads"
        );
        assert!(edit(&|f| set(f, "paths", Value::Arr(vec![Value::Str("../x".into())]))).is_err());
        assert!(
            edit(&|f| set(f, "command", Value::Arr(vec![Value::Str("/bin/sh".into())]))).is_err()
        );
        assert!(
            edit(&|f| set(
                f,
                "end_to_end",
                Value::Arr(vec![metric("latency", "ms", 0.1)])
            ))
            .is_err(),
            "setup_s is required"
        );
        assert!(
            edit(&|f| set(
                f,
                "end_to_end",
                Value::Arr(vec![metric("setup_s", "s", 0.3)])
            ))
            .is_err(),
            "bound above 0.25"
        );
        assert!(
            edit(&|f| set(
                f,
                "end_to_end",
                Value::Arr(vec![metric("setup_s", "s", 0.1), metric("a b", "s", 0.1)])
            ))
            .is_err(),
            "space in a name"
        );
        assert!(
            edit(&|f| set(
                f,
                "end_to_end",
                Value::Arr(vec![
                    metric("setup_s", "s", 0.1),
                    metric("sim_pingpong_1k", "s", 0.1)
                ])
            ))
            .is_err(),
            "a name used twice"
        );
        assert!(
            edit(&|f| set(
                f,
                "end_to_end",
                Value::Arr(vec![metric("setup_s", "s", 0.1), metric("x", "µs", 0.1)])
            ))
            .is_err(),
            "unit outside the charset"
        );
    }
}
