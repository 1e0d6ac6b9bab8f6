//! Transport analytics over a parsed JSONL capture.
//!
//! Everything here consumes the flat event objects produced by
//! [`crate::jsonl`] and reduces them to the accounting the paper argues
//! from: per-stream HOL-block time, recovery time split fast-rtx vs RTO,
//! cwnd evolution, and a per-cell "where did the bytes stall" summary.

use crate::json::Json;
use std::collections::BTreeMap;

fn u(v: &Json, k: &str) -> u64 {
    v.get(k).and_then(|x| x.as_u64()).unwrap_or(0)
}

fn i(v: &Json, k: &str) -> i64 {
    v.get(k).and_then(|x| x.as_i64()).unwrap_or(0)
}

fn s<'a>(v: &'a Json, k: &str) -> &'a str {
    v.get(k).and_then(|x| x.as_str()).unwrap_or("")
}

/// Histogram bucket upper bounds for HOL-block durations (ns).
pub const HOL_BUCKETS_NS: [u64; 5] = [100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

pub fn bucket_labels() -> [&'static str; 6] {
    ["<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s"]
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct HolRow {
    pub host: u16,
    pub peer: u16,
    pub stream: u16,
    /// "snd" (outbound-queue block) or "rcv" (reassembly/ordering block).
    /// Captures older than the I-DATA work carry no side field and default
    /// to "rcv", which is what they measured.
    pub side: String,
    pub blocks: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub released: u64,
    /// Block-duration histogram over [`HOL_BUCKETS_NS`] (last = overflow).
    pub hist: [u64; 6],
}

/// Per-(host, peer, stream, side) HOL-block aggregation, sorted by key.
pub fn hol_rows(events: &[Json]) -> Vec<HolRow> {
    let mut map: BTreeMap<(u16, u16, u16, String), HolRow> = BTreeMap::new();
    for ev in events {
        if s(ev, "ev") != "hol_end" {
            continue;
        }
        let side = match s(ev, "side") {
            "snd" => "snd",
            _ => "rcv",
        };
        let key =
            (u(ev, "host") as u16, u(ev, "peer") as u16, u(ev, "stream") as u16, side.to_string());
        let dur = u(ev, "dur");
        let row = map.entry(key.clone()).or_insert_with(|| HolRow {
            host: key.0,
            peer: key.1,
            stream: key.2,
            side: key.3,
            ..HolRow::default()
        });
        row.blocks += 1;
        row.total_ns += dur;
        row.max_ns = row.max_ns.max(dur);
        row.released += u(ev, "released");
        let b = HOL_BUCKETS_NS.iter().position(|&ub| dur < ub).unwrap_or(HOL_BUCKETS_NS.len());
        row.hist[b] += 1;
    }
    map.into_values().collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryClass {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl RecoveryClass {
    fn add(&mut self, dt: u64) {
        self.count += 1;
        self.total_ns += dt;
        self.max_ns = self.max_ns.max(dt);
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    /// Dropped data packets whose payload was later re-sent.
    pub fast: RecoveryClass,
    pub rto: RecoveryClass,
    /// Dropped data packets never seen re-sent (e.g. capture truncated or
    /// the run ended first).
    pub unrecovered: u64,
    /// Pure control/ack drops — no payload to recover.
    pub ctl_drops: u64,
}

/// Per-loss-event recovery accounting. A loss event is a dropped data
/// packet; its recovery time is the gap until the first later send whose
/// payload range covers the dropped packet's first unit (TSN for SCTP,
/// sequence byte for TCP). The event is classified "rto" when the sender
/// armed timer fired on that flow inside the gap, else "fast-rtx".
pub fn recovery(events: &[Json]) -> Recovery {
    // flow key: (proto, src, dst)
    type Flow = (u8, u16, u16);
    let proto_code = |p: &str| if p == "sctp" { 1u8 } else { 0u8 };

    struct Send {
        t: u64,
        lo: u64,
        hi: u64, // [lo, hi): TSNs or sequence bytes
    }
    let mut sends: BTreeMap<Flow, Vec<Send>> = BTreeMap::new();
    let mut fires: BTreeMap<Flow, Vec<u64>> = BTreeMap::new();
    let mut drops: Vec<(Flow, u64, u64)> = Vec::new(); // (flow, t, first unit)
    let mut out = Recovery::default();

    for ev in events {
        match s(ev, "ev") {
            "pkt" => {
                let proto = proto_code(s(ev, "proto"));
                let flow = (proto, u(ev, "src") as u16, u(ev, "dst") as u16);
                let kind = s(ev, "kind");
                let dropped = s(ev, "verdict") != "deliver";
                if kind != "data" {
                    if dropped {
                        out.ctl_drops += 1;
                    }
                    continue;
                }
                let lo = u(ev, "tsn");
                // ntsn is chunk-count for SCTP and payload-bytes for TCP,
                // but for SCTP chunks in one packet TSNs are consecutive,
                // so [tsn, tsn+ntsn) is the covered range either way.
                let hi = lo + u(ev, "ntsn").max(1);
                sends.entry(flow).or_default().push(Send { t: u(ev, "t"), lo, hi });
                if dropped {
                    drops.push((flow, u(ev, "t"), lo));
                }
            }
            "rto_fire" => {
                let proto = proto_code(s(ev, "proto"));
                // The firing host is the sender of the flow being recovered.
                let flow_host = u(ev, "host") as u16;
                let peer = u(ev, "peer") as u16;
                fires.entry((proto, flow_host, peer)).or_default().push(u(ev, "t"));
            }
            _ => {}
        }
    }

    for (flow, t_drop, unit) in drops {
        let resend = sends
            .get(&flow)
            .and_then(|v| v.iter().find(|snd| snd.t > t_drop && snd.lo <= unit && unit < snd.hi));
        match resend {
            None => out.unrecovered += 1,
            Some(snd) => {
                let dt = snd.t - t_drop;
                let fired = fires
                    .get(&flow)
                    .map(|f| f.iter().any(|&tf| tf > t_drop && tf <= snd.t))
                    .unwrap_or(false);
                if fired {
                    out.rto.add(dt);
                } else {
                    out.fast.add(dt);
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct CwndCurve {
    pub proto: String,
    pub host: u16,
    pub peer: u16,
    pub path: u16,
    pub samples: u64,
    pub min: u64,
    pub max: u64,
    pub last: u64,
    /// Multiplicative decreases observed (cwnd dropped to <= half).
    pub collapses: u64,
}

/// Cwnd evolution summary per (proto, host, peer, path), sorted by key.
pub fn cwnd_curves(events: &[Json]) -> Vec<CwndCurve> {
    let mut map: BTreeMap<(String, u16, u16, u16), CwndCurve> = BTreeMap::new();
    for ev in events {
        if s(ev, "ev") != "cwnd" {
            continue;
        }
        let key = (s(ev, "proto").to_string(), u(ev, "host") as u16, u(ev, "peer") as u16, u(ev, "path") as u16);
        let cwnd = u(ev, "cwnd");
        let c = map.entry(key.clone()).or_insert_with(|| CwndCurve {
            proto: key.0.clone(),
            host: key.1,
            peer: key.2,
            path: key.3,
            min: u64::MAX,
            ..CwndCurve::default()
        });
        if c.samples > 0 && cwnd * 2 <= c.last {
            c.collapses += 1;
        }
        c.samples += 1;
        c.min = c.min.min(cwnd);
        c.max = c.max.max(cwnd);
        c.last = cwnd;
    }
    map.into_values().collect()
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stall {
    pub makespan_ns: u64,
    pub pkts: u64,
    pub data_pkts: u64,
    pub drops_loss: u64,
    pub drops_queue: u64,
    pub drops_down: u64,
    /// Receiver-side HOL blocks (reassembly/ordering stalls; the classic
    /// metric — captures without a side field count here).
    pub hol_blocks: u64,
    pub hol_ns: u64,
    /// Sender-side HOL blocks (outbound-queue monopolization; only emitted
    /// by traced runs since the I-DATA work).
    pub snd_hol_blocks: u64,
    pub snd_hol_ns: u64,
    pub rto_fires: u64,
    pub fast_rtx: u64,
    pub rto_recovery_ns: u64,
    pub fast_recovery_ns: u64,
    pub mpi_unexpected: u64,
    pub mpi_matched_posted: u64,
    /// Fault-plane state transitions (GE chain flips, flap/degrade edges)
    /// observed in the capture.
    pub fault_edges: u64,
}

/// The "where did the bytes stall" roll-up for one capture (= one cell).
pub fn stall(events: &[Json]) -> Stall {
    let mut st = Stall::default();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for ev in events {
        let kind = s(ev, "ev");
        if kind == "header" {
            continue;
        }
        let t = u(ev, "t");
        t_min = t_min.min(t);
        t_max = t_max.max(t);
        match kind {
            "pkt" => {
                st.pkts += 1;
                if s(ev, "kind") == "data" {
                    st.data_pkts += 1;
                }
                match s(ev, "verdict") {
                    "loss" => st.drops_loss += 1,
                    "queue" => st.drops_queue += 1,
                    "down" => st.drops_down += 1,
                    _ => {}
                }
            }
            "hol_end" => {
                if s(ev, "side") == "snd" {
                    st.snd_hol_blocks += 1;
                    st.snd_hol_ns += u(ev, "dur");
                } else {
                    st.hol_blocks += 1;
                    st.hol_ns += u(ev, "dur");
                }
            }
            "rto_fire" => st.rto_fires += 1,
            "fast_rtx" => st.fast_rtx += 1,
            "fault" => st.fault_edges += 1,
            "mpi_match" => {
                if ev.get("posted") == Some(&Json::Bool(true)) {
                    st.mpi_matched_posted += 1;
                } else {
                    st.mpi_unexpected += 1;
                }
            }
            _ => {}
        }
        let _ = i(ev, "q");
    }
    if t_max >= t_min {
        st.makespan_ns = t_max - t_min;
    }
    let rec = recovery(events);
    st.rto_recovery_ns = rec.rto.total_ns;
    st.fast_recovery_ns = rec.fast.total_ns;
    st
}

/// One closed fault window: the span between a fault rule's "on" edge and
/// its matching "off" edge, plus what went wrong inside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultWindow {
    /// Fault family: "ge" (bad-state visit), "flap" (link down), "degrade"
    /// (bandwidth window).
    pub kind: String,
    /// Rule index within its family (the plan's vec position).
    pub rule: u64,
    pub from_ns: u64,
    pub until_ns: u64,
    /// Packet drops (any reason) whose offer time fell inside the window.
    pub drops: u64,
    /// Retransmission-timer expiries inside the window.
    pub rto_fires: u64,
}

/// Pair the capture's fault edges into windows and correlate: how many
/// drops and RTO expiries landed inside each. Fault edges are emitted
/// lazily at packet-offer time, so a window's `from_ns` is the first packet
/// that *saw* the state, not the scripted boundary — exactly the span that
/// could have affected traffic. A window still open when the capture ends
/// is closed at the last event's timestamp.
pub fn fault_windows(events: &[Json]) -> Vec<FaultWindow> {
    let mut open: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    let mut windows: Vec<FaultWindow> = Vec::new();
    let mut drops: Vec<u64> = Vec::new();
    let mut rtos: Vec<u64> = Vec::new();
    let mut t_max = 0u64;
    for ev in events {
        let t = u(ev, "t");
        t_max = t_max.max(t);
        match s(ev, "ev") {
            "fault" => {
                let (family, on) = match s(ev, "kind") {
                    "ge_bad" => ("ge", true),
                    "ge_good" => ("ge", false),
                    "flap_down" => ("flap", true),
                    "flap_up" => ("flap", false),
                    "degrade_on" => ("degrade", true),
                    "degrade_off" => ("degrade", false),
                    _ => continue,
                };
                let rule = u(ev, "rule");
                if on {
                    open.entry((family, rule)).or_insert(t);
                } else if let Some(from) = open.remove(&(family, rule)) {
                    windows.push(FaultWindow {
                        kind: family.to_string(),
                        rule,
                        from_ns: from,
                        until_ns: t,
                        ..FaultWindow::default()
                    });
                }
            }
            "pkt" => {
                if s(ev, "verdict") != "deliver" {
                    drops.push(t);
                }
            }
            "rto_fire" => rtos.push(t),
            _ => {}
        }
    }
    for ((family, rule), from) in open {
        windows.push(FaultWindow {
            kind: family.to_string(),
            rule,
            from_ns: from,
            until_ns: t_max,
            ..FaultWindow::default()
        });
    }
    windows.sort_by_key(|w| (w.from_ns, w.kind.clone(), w.rule));
    for w in &mut windows {
        w.drops = drops.iter().filter(|&&t| w.from_ns <= t && t <= w.until_ns).count() as u64;
        w.rto_fires = rtos.iter().filter(|&&t| w.from_ns <= t && t <= w.until_ns).count() as u64;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_lines;

    fn evs(text: &str) -> Vec<Json> {
        parse_lines(text).unwrap()
    }

    #[test]
    fn hol_rows_aggregate_and_bucket() {
        let events = evs(concat!(
            "{\"t\":1,\"ev\":\"hol_end\",\"host\":1,\"peer\":0,\"stream\":2,\"dur\":50000,\"released\":1}\n",
            "{\"t\":2,\"ev\":\"hol_end\",\"host\":1,\"peer\":0,\"stream\":2,\"dur\":5000000,\"released\":2}\n",
            "{\"t\":3,\"ev\":\"hol_end\",\"host\":1,\"peer\":0,\"stream\":9,\"dur\":2000000000,\"released\":1}\n",
        ));
        let rows = hol_rows(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].blocks, 2);
        assert_eq!(rows[0].total_ns, 5_050_000);
        assert_eq!(rows[0].max_ns, 5_000_000);
        assert_eq!(rows[0].hist, [1, 0, 1, 0, 0, 0]);
        assert_eq!(rows[0].side, "rcv", "side-less capture defaults to rcv");
        assert_eq!(rows[1].hist, [0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn hol_rows_split_by_side() {
        let events = evs(concat!(
            "{\"t\":1,\"ev\":\"hol_end\",\"host\":0,\"peer\":1,\"stream\":2,\"side\":\"snd\",\"dur\":100,\"released\":0}\n",
            "{\"t\":2,\"ev\":\"hol_end\",\"host\":0,\"peer\":1,\"stream\":2,\"side\":\"rcv\",\"dur\":900,\"released\":1}\n",
            "{\"t\":3,\"ev\":\"hol_end\",\"host\":0,\"peer\":1,\"stream\":2,\"side\":\"snd\",\"dur\":300,\"released\":0}\n",
        ));
        let rows = hol_rows(&events);
        assert_eq!(rows.len(), 2);
        // BTreeMap order: "rcv" < "snd".
        assert_eq!((rows[0].side.as_str(), rows[0].blocks, rows[0].total_ns), ("rcv", 1, 900));
        assert_eq!((rows[1].side.as_str(), rows[1].blocks, rows[1].total_ns), ("snd", 2, 400));
        let st = stall(&events);
        assert_eq!((st.hol_blocks, st.hol_ns), (1, 900));
        assert_eq!((st.snd_hol_blocks, st.snd_hol_ns), (2, 400));
    }

    #[test]
    fn recovery_classifies_fast_vs_rto() {
        let events = evs(concat!(
            // TSN 10 dropped at t=100, resent at t=300, no RTO fire: fast.
            "{\"t\":100,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":10,\"ntsn\":1}\n",
            "{\"t\":300,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"deliver\",\"at\":350,\"tsn\":10,\"ntsn\":1}\n",
            // TSN 20 dropped at t=400, RTO fires at 900, resent at t=1000: rto.
            "{\"t\":400,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":20,\"ntsn\":2}\n",
            "{\"t\":900,\"ev\":\"rto_fire\",\"proto\":\"sctp\",\"host\":0,\"peer\":1,\"backoff\":0,\"marked\":2}\n",
            "{\"t\":1000,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"deliver\",\"at\":1050,\"tsn\":20,\"ntsn\":2}\n",
            // Sack drop: counted as ctl, not a loss event.
            "{\"t\":1100,\"ev\":\"pkt\",\"src\":1,\"dst\":0,\"proto\":\"sctp\",\"kind\":\"sack\",\"verdict\":\"loss\",\"tsn\":0,\"ntsn\":0}\n",
            // TSN 99 dropped, never resent: unrecovered.
            "{\"t\":1200,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":99,\"ntsn\":1}\n",
        ));
        let r = recovery(&events);
        assert_eq!(r.fast.count, 1);
        assert_eq!(r.fast.total_ns, 200);
        assert_eq!(r.rto.count, 1);
        assert_eq!(r.rto.total_ns, 600);
        assert_eq!(r.ctl_drops, 1);
        assert_eq!(r.unrecovered, 1);
    }

    #[test]
    fn cwnd_curves_count_collapses() {
        let events = evs(concat!(
            "{\"t\":1,\"ev\":\"cwnd\",\"proto\":\"tcp\",\"host\":0,\"peer\":1,\"path\":0,\"cwnd\":10000,\"ssthresh\":99,\"flight\":0}\n",
            "{\"t\":2,\"ev\":\"cwnd\",\"proto\":\"tcp\",\"host\":0,\"peer\":1,\"path\":0,\"cwnd\":20000,\"ssthresh\":99,\"flight\":0}\n",
            "{\"t\":3,\"ev\":\"cwnd\",\"proto\":\"tcp\",\"host\":0,\"peer\":1,\"path\":0,\"cwnd\":10000,\"ssthresh\":99,\"flight\":0}\n",
            "{\"t\":4,\"ev\":\"cwnd\",\"proto\":\"tcp\",\"host\":0,\"peer\":1,\"path\":0,\"cwnd\":2920,\"ssthresh\":99,\"flight\":0}\n",
        ));
        let curves = cwnd_curves(&events);
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].samples, 4);
        assert_eq!(curves[0].min, 2920);
        assert_eq!(curves[0].max, 20000);
        assert_eq!(curves[0].last, 2920);
        assert_eq!(curves[0].collapses, 2);
    }

    #[test]
    fn fault_windows_pair_edges_and_correlate() {
        let events = evs(concat!(
            // Flap window [100, 900]: two drops and one RTO inside.
            "{\"t\":100,\"ev\":\"fault\",\"kind\":\"flap_down\",\"rule\":0,\"host\":-1,\"iface\":0}\n",
            "{\"t\":200,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"down\",\"tsn\":1,\"ntsn\":1}\n",
            "{\"t\":300,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"down\",\"tsn\":2,\"ntsn\":1}\n",
            "{\"t\":800,\"ev\":\"rto_fire\",\"proto\":\"sctp\",\"host\":0,\"peer\":1,\"backoff\":0,\"marked\":1}\n",
            "{\"t\":900,\"ev\":\"fault\",\"kind\":\"flap_up\",\"rule\":0,\"host\":-1,\"iface\":0}\n",
            // Drop outside every window.
            "{\"t\":1000,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":3,\"ntsn\":1}\n",
            // GE bad-state visit left open: closes at capture end (1500).
            "{\"t\":1200,\"ev\":\"fault\",\"kind\":\"ge_bad\",\"rule\":1,\"host\":-1,\"iface\":-1}\n",
            "{\"t\":1500,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":4,\"ntsn\":1}\n",
        ));
        let ws = fault_windows(&events);
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].kind.as_str(), ws[0].from_ns, ws[0].until_ns), ("flap", 100, 900));
        assert_eq!((ws[0].drops, ws[0].rto_fires), (2, 1));
        assert_eq!((ws[1].kind.as_str(), ws[1].from_ns, ws[1].until_ns), ("ge", 1200, 1500));
        assert_eq!((ws[1].drops, ws[1].rto_fires), (1, 0));
        let st = stall(&events);
        assert_eq!(st.fault_edges, 3);
        assert_eq!(st.drops_down, 2);
    }

    #[test]
    fn stall_rolls_up() {
        let events = evs(concat!(
            "{\"t\":0,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"deliver\",\"at\":10,\"tsn\":1,\"ntsn\":1}\n",
            "{\"t\":5,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"loss\",\"tsn\":2,\"ntsn\":1}\n",
            "{\"t\":50,\"ev\":\"pkt\",\"src\":0,\"dst\":1,\"proto\":\"sctp\",\"kind\":\"data\",\"verdict\":\"deliver\",\"at\":60,\"tsn\":2,\"ntsn\":1}\n",
            "{\"t\":60,\"ev\":\"hol_end\",\"host\":1,\"peer\":0,\"stream\":0,\"dur\":55,\"released\":1}\n",
            "{\"t\":70,\"ev\":\"mpi_match\",\"rank\":1,\"src\":0,\"tag\":0,\"cxt\":0,\"len\":100,\"kind\":\"eager\",\"posted\":false}\n",
        ));
        let st = stall(&events);
        assert_eq!(st.pkts, 3);
        assert_eq!(st.data_pkts, 3);
        assert_eq!(st.drops_loss, 1);
        assert_eq!(st.hol_blocks, 1);
        assert_eq!(st.hol_ns, 55);
        assert_eq!(st.fast_recovery_ns, 45);
        assert_eq!(st.mpi_unexpected, 1);
        assert_eq!(st.makespan_ns, 70);
    }
}
