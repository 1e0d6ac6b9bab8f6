//! **Trace analyzer** — turns flight-recorder captures into the transport
//! accounting the paper argues from (§4): per-stream HOL-block time,
//! recovery time split fast-rtx vs RTO, cwnd evolution, and a per-cell
//! "where did the bytes stall" table explaining the Table 1 magnitude gap.
//!
//! Usage: `analyze [TRACES_DIR] [--expect-hol] [--expect-hol-split] [--markdown]`
//!
//! * `TRACES_DIR` defaults to `traces/` (where `TRACE=1 fig10 --quick`
//!   leaves one `<fig>_<cell>.jsonl` per cell).
//! * `--expect-hol` makes the exit status assert the captures contain at
//!   least one head-of-line block (the CI trace job uses this: a lossy
//!   SCTP run whose captures show zero HOL blocks means the recorder's
//!   receive-side hooks are broken).
//! * `--expect-hol-split` additionally asserts both *sender*-side and
//!   *receiver*-side HOL blocks appear across the captures (the
//!   interleave-smoke CI job uses this: an interleave experiment whose
//!   traces never distinguish the two sides means the RFC 8260 sender-HOL
//!   hooks are broken).
//! * `--markdown` renders the stall summary as a Markdown table (the
//!   EXPERIMENTS.md "E-trace" section is generated this way).

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench_harness::render_table;
use trace::analyze::{self, bucket_labels, cwnd_curves, fault_windows, hol_rows, recovery, stall};
use trace::jsonl::parse_lines;

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn mean_ms(total_ns: u64, count: u64) -> String {
    if count == 0 {
        "-".into()
    } else {
        format!("{:.2}", total_ns as f64 / count as f64 / 1e6)
    }
}

/// One capture = one figure cell's JSONL file.
struct Capture {
    name: String,
    events: Vec<trace::json::Json>,
}

fn load_captures(dir: &std::path::Path) -> Result<Vec<Capture>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<_> = rd
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = parse_lines(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        out.push(Capture { name, events });
    }
    Ok(out)
}

/// Returns (total blocks, snd-side blocks, rcv-side blocks).
fn print_hol(cap: &Capture) -> (u64, u64, u64) {
    let rows = hol_rows(&cap.events);
    if rows.is_empty() {
        return (0, 0, 0);
    }
    let (mut blocks, mut snd, mut rcv) = (0, 0, 0);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            blocks += r.blocks;
            if r.side == "snd" {
                snd += r.blocks;
            } else {
                rcv += r.blocks;
            }
            let mut row = vec![
                format!("{}<-{}", r.host, r.peer),
                r.stream.to_string(),
                r.side.clone(),
                r.blocks.to_string(),
                ms(r.total_ns),
                ms(r.max_ns),
                r.released.to_string(),
            ];
            row.extend(r.hist.iter().map(|h| h.to_string()));
            row
        })
        .collect();
    let mut header = vec!["host<-peer", "stream", "side", "blocks", "total ms", "max ms", "msgs"];
    header.extend(bucket_labels());
    print!("{}", render_table(&format!("HOL blocks: {}", cap.name), &header, &table));
    (blocks, snd, rcv)
}

fn print_recovery(cap: &Capture) {
    let r = recovery(&cap.events);
    if r.fast.count + r.rto.count + r.unrecovered + r.ctl_drops == 0 {
        return;
    }
    let row = |name: &str, c: &analyze::RecoveryClass| {
        vec![name.to_string(), c.count.to_string(), ms(c.total_ns), mean_ms(c.total_ns, c.count), ms(c.max_ns)]
    };
    let table = vec![
        row("fast-rtx", &r.fast),
        row("rto", &r.rto),
        vec!["unrecovered".into(), r.unrecovered.to_string(), "-".into(), "-".into(), "-".into()],
        vec!["ctl-drop".into(), r.ctl_drops.to_string(), "-".into(), "-".into(), "-".into()],
    ];
    print!(
        "{}",
        render_table(
            &format!("Loss recovery: {}", cap.name),
            &["class", "losses", "total ms", "mean ms", "max ms"],
            &table,
        )
    );
}

fn print_cwnd(cap: &Capture) {
    let curves = cwnd_curves(&cap.events);
    if curves.is_empty() {
        return;
    }
    let table: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            vec![
                c.proto.clone(),
                format!("{}->{}", c.host, c.peer),
                c.path.to_string(),
                c.samples.to_string(),
                c.min.to_string(),
                c.max.to_string(),
                c.last.to_string(),
                c.collapses.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("Cwnd evolution: {}", cap.name),
            &["proto", "flow", "path", "samples", "min B", "max B", "last B", "collapses"],
            &table,
        )
    );
}

/// Fault windows (from the fault plane's trace edges) correlated with the
/// drops and timer expiries that landed inside them.
fn print_faults(cap: &Capture) {
    let ws = fault_windows(&cap.events);
    if ws.is_empty() {
        return;
    }
    let table: Vec<Vec<String>> = ws
        .iter()
        .map(|w| {
            vec![
                w.kind.clone(),
                w.rule.to_string(),
                ms(w.from_ns),
                ms(w.until_ns),
                ms(w.until_ns - w.from_ns),
                w.drops.to_string(),
                w.rto_fires.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("Fault windows: {}", cap.name),
            &["fault", "rule", "from ms", "until ms", "span ms", "drops", "rto fires"],
            &table,
        )
    );
}

/// The cross-capture roll-up: one row per cell, stall time by cause.
fn stall_summary(caps: &[Capture], markdown: bool) -> String {
    let header = [
        "cell", "makespan ms", "pkts", "drops", "rcv hol blk", "rcv hol ms", "snd hol blk",
        "snd hol ms", "fast rtx", "fast ms", "rto fires", "rto ms", "unexp msgs", "faults",
    ];
    let rows: Vec<Vec<String>> = caps
        .iter()
        .map(|cap| {
            let st = stall(&cap.events);
            vec![
                cap.name.clone(),
                ms(st.makespan_ns),
                st.pkts.to_string(),
                (st.drops_loss + st.drops_queue + st.drops_down).to_string(),
                st.hol_blocks.to_string(),
                ms(st.hol_ns),
                st.snd_hol_blocks.to_string(),
                ms(st.snd_hol_ns),
                st.fast_rtx.to_string(),
                ms(st.fast_recovery_ns),
                st.rto_fires.to_string(),
                ms(st.rto_recovery_ns),
                st.mpi_unexpected.to_string(),
                st.fault_edges.to_string(),
            ]
        })
        .collect();
    if markdown {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
        for row in &rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    } else {
        render_table("Where did the bytes stall (per cell)", &header, &rows)
    }
}

fn main() -> ExitCode {
    let mut dir = String::from("traces");
    let mut expect_hol = false;
    let mut expect_split = false;
    let mut markdown = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--expect-hol" => expect_hol = true,
            "--expect-hol-split" => expect_split = true,
            "--markdown" => markdown = true,
            other if !other.starts_with('-') => dir = other.to_string(),
            other => {
                eprintln!("unknown flag {other}; usage: analyze [TRACES_DIR] [--expect-hol] [--expect-hol-split] [--markdown]");
                return ExitCode::from(2);
            }
        }
    }
    let caps = match load_captures(std::path::Path::new(&dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if caps.is_empty() {
        eprintln!("analyze: no .jsonl captures in {dir}/ (run a figure with TRACE=1 first)");
        return ExitCode::from(2);
    }

    let mut hol_blocks_total: BTreeMap<String, u64> = BTreeMap::new();
    let (mut snd_total, mut rcv_total) = (0u64, 0u64);
    for cap in &caps {
        let (blocks, snd, rcv) = print_hol(cap);
        if blocks > 0 {
            hol_blocks_total.insert(cap.name.clone(), blocks);
        }
        snd_total += snd;
        rcv_total += rcv;
        print_recovery(cap);
        print_cwnd(cap);
        print_faults(cap);
    }
    print!("{}", stall_summary(&caps, markdown));
    println!(
        "{} captures, {} with HOL blocks ({} blocks total: {} snd-side, {} rcv-side)",
        caps.len(),
        hol_blocks_total.len(),
        hol_blocks_total.values().sum::<u64>(),
        snd_total,
        rcv_total,
    );
    if expect_hol && hol_blocks_total.is_empty() {
        eprintln!("analyze: --expect-hol set but no capture contains a HOL block");
        return ExitCode::FAILURE;
    }
    if expect_split && (snd_total == 0 || rcv_total == 0) {
        eprintln!(
            "analyze: --expect-hol-split set but captures show {snd_total} snd-side / \
             {rcv_total} rcv-side HOL blocks (need both > 0)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
