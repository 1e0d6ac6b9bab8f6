//! JSONL sink: one flat JSON object per event line. Field names are short
//! and stable — the analyzer (`bench/src/bin/analyze.rs`) and the tests
//! parse them back with [`crate::json`].

use crate::{Event, PktVerdict, Rec};
use std::fmt::Write;

/// Render one record as a single JSON object (no trailing newline).
pub fn render_record(out: &mut String, rec: &Rec) {
    let t = rec.t_ns;
    let q = rec.seq;
    match &rec.ev {
        Event::Pkt(p) => {
            let (verdict, at) = match p.verdict {
                PktVerdict::Deliver { at_ns } => ("deliver", at_ns),
                PktVerdict::Drop(k) => (k.as_str(), 0),
            };
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"pkt\",\"src\":{},\"sif\":{},\"dst\":{},\"dif\":{},\"proto\":\"{}\",\"kind\":\"{}\",\"len\":{},\"verdict\":\"{verdict}\",\"at\":{at},\"tsn\":{},\"ntsn\":{},\"stream\":{}}}",
                p.src_host, p.src_if, p.dst_host, p.dst_if,
                p.proto.as_str(), p.kind.as_str(), p.wire_len,
                p.tsn, p.ntsn, p.stream
            );
        }
        Event::LinkDrop(d) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"linkdrop\",\"src\":{},\"sif\":{},\"dst\":{},\"len\":{},\"reason\":\"{}\",\"backlog\":{}}}",
                d.src_host, d.src_if, d.dst_host, d.wire_bytes, d.reason.as_str(), d.backlog_ns
            );
        }
        Event::Cwnd(c) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"cwnd\",\"proto\":\"{}\",\"host\":{},\"peer\":{},\"path\":{},\"cwnd\":{},\"ssthresh\":{},\"flight\":{}}}",
                c.proto.as_str(), c.host, c.peer, c.path, c.cwnd, c.ssthresh, c.flight
            );
        }
        Event::RtoArm(r) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"rto_arm\",\"proto\":\"{}\",\"host\":{},\"peer\":{},\"path\":{},\"rto\":{},\"srtt\":{},\"rttvar\":{}}}",
                r.proto.as_str(), r.host, r.peer, r.path, r.rto_ns, r.srtt_ns, r.rttvar_ns
            );
        }
        Event::RtoFire(r) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"rto_fire\",\"proto\":\"{}\",\"host\":{},\"peer\":{},\"path\":{},\"backoff\":{},\"marked\":{}}}",
                r.proto.as_str(), r.host, r.peer, r.path, r.backoff, r.marked
            );
        }
        Event::FastRtx(f) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"fast_rtx\",\"proto\":\"{}\",\"host\":{},\"peer\":{},\"path\":{},\"tsn\":{},\"count\":{}}}",
                f.proto.as_str(), f.host, f.peer, f.path, f.tsn, f.count
            );
        }
        Event::HolBegin(h) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"hol_begin\",\"host\":{},\"peer\":{},\"stream\":{},\"side\":\"{}\"}}",
                h.host, h.peer, h.stream, h.side.as_str()
            );
        }
        Event::HolEnd(h) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"hol_end\",\"host\":{},\"peer\":{},\"stream\":{},\"side\":\"{}\",\"dur\":{},\"released\":{}}}",
                h.host, h.peer, h.stream, h.side.as_str(), h.dur_ns, h.released
            );
        }
        Event::MpiPost(m) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"mpi_post\",\"rank\":{},\"src\":{},\"tag\":{},\"cxt\":{},\"matched\":{}}}",
                m.rank, m.src, m.tag, m.cxt, m.matched
            );
        }
        Event::MpiMatch(m) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"mpi_match\",\"rank\":{},\"src\":{},\"tag\":{},\"cxt\":{},\"len\":{},\"kind\":\"{}\",\"posted\":{}}}",
                m.rank, m.src, m.tag, m.cxt, m.len, m.kind, m.posted
            );
        }
        Event::Fault(f) => {
            let _ = write!(
                out,
                "{{\"t\":{t},\"q\":{q},\"ev\":\"fault\",\"kind\":\"{}\",\"rule\":{},\"host\":{},\"iface\":{}}}",
                f.kind.as_str(), f.rule, f.host, f.iface
            );
        }
    }
}

/// Parse a JSONL document into per-line values, skipping blank lines.
pub fn parse_lines(text: &str) -> Result<Vec<crate::json::Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(crate::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::*;

    #[test]
    fn every_variant_renders_parseable_json() {
        let recs = vec![
            Rec {
                t_ns: 1,
                seq: 1,
                ev: Event::Pkt(PktEv {
                    src_host: 0,
                    src_if: 1,
                    dst_host: 3,
                    dst_if: 0,
                    proto: Proto8::Sctp,
                    kind: PktKind::Data,
                    wire_len: 1500,
                    verdict: PktVerdict::Drop(DropKind::Loss),
                    tsn: 42,
                    ntsn: 2,
                    stream: 7,
                    frame: vec![1, 2, 3],
                    frame_orig_len: 1500,
                }),
            },
            Rec { t_ns: 2, seq: 2, ev: Event::LinkDrop(LinkDropEv { src_host: 0, src_if: 1, dst_host: 3, wire_bytes: 1500, reason: DropKind::QueueFull, backlog_ns: 900 }) },
            Rec { t_ns: 3, seq: 3, ev: Event::Cwnd(CwndEv { proto: Proto8::Tcp, host: 1, peer: 2, path: 0, cwnd: 2920, ssthresh: 8760, flight: 1460 }) },
            Rec { t_ns: 4, seq: 4, ev: Event::RtoArm(RtoArmEv { proto: Proto8::Sctp, host: 1, peer: 2, path: 1, rto_ns: 1_000_000_000, srtt_ns: -1, rttvar_ns: -1 }) },
            Rec { t_ns: 5, seq: 5, ev: Event::RtoFire(RtoFireEv { proto: Proto8::Sctp, host: 1, peer: 2, path: 2, backoff: 2, marked: 5 }) },
            Rec { t_ns: 6, seq: 6, ev: Event::FastRtx(FastRtxEv { proto: Proto8::Tcp, host: 1, peer: 2, path: 0, tsn: 1460, count: 1 }) },
            Rec { t_ns: 7, seq: 7, ev: Event::HolBegin(HolEv { host: 2, peer: 1, stream: 4, side: HolSide::Snd }) },
            Rec { t_ns: 8, seq: 8, ev: Event::HolEnd(HolEndEv { host: 2, peer: 1, stream: 4, side: HolSide::Rcv, dur_ns: 123, released: 3 }) },
            Rec { t_ns: 9, seq: 9, ev: Event::MpiPost(MpiPostEv { rank: 0, src: -1, tag: 5, cxt: 1, matched: true }) },
            Rec { t_ns: 10, seq: 10, ev: Event::MpiMatch(MpiMatchEv { rank: 0, src: 3, tag: 5, cxt: 1, len: 30720, kind: "eager", posted: false }) },
            Rec { t_ns: 11, seq: 11, ev: Event::Fault(FaultEv { kind: FaultKind::FlapDown, rule: 0, host: -1, iface: 0 }) },
        ];
        let mut text = String::new();
        for r in &recs {
            render_record(&mut text, r);
            text.push('\n');
        }
        let vals = parse_lines(&text).unwrap();
        assert_eq!(vals.len(), recs.len());
        assert_eq!(vals[0].get("verdict").unwrap().as_str(), Some("loss"));
        assert_eq!(vals[0].get("tsn").unwrap().as_u64(), Some(42));
        assert_eq!(vals[6].get("side").unwrap().as_str(), Some("snd"));
        assert_eq!(vals[7].get("side").unwrap().as_str(), Some("rcv"));
        assert_eq!(vals[7].get("dur").unwrap().as_u64(), Some(123));
        assert_eq!(vals[9].get("posted"), Some(&crate::json::Json::Bool(false)));
        assert_eq!(vals[10].get("kind").unwrap().as_str(), Some("flap_down"));
        assert_eq!(vals[10].get("host").unwrap().as_i64(), Some(-1));
        // The frame never leaks into the JSONL sink (it lives in the pcapng).
        assert!(vals[0].get("frame").is_none());
    }
}
