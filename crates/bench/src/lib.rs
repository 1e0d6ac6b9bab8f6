//! The experiment harness: every table and figure of the paper (and of the
//! repo's extensions) is one row of [`FIGURES`], run by the one `bench`
//! binary — `bench <figure> [--quick] [args…]`, `bench --list`,
//! `bench all [--quick]`.
//!
//! A figure is one function `fn(Scale, &[String]) -> FigureOutput`: it
//! builds its cells — one (message size × loss rate × transport × seed)
//! combination each, an independent deterministic simulation — fans them
//! across the [`runner`] worker pool, folds the typed results into rows in
//! cell order (so the figure is bit-identical to a sequential run), and
//! returns the text it prints, the row files it saves and the
//! self-metering [`runner::BenchReport`] (`results/BENCH_<fig>.json`,
//! schema in EXPERIMENTS.md). A figure's rows are a [`Table`]: one [`Col`]
//! list names each column once — its key in the row file, its header in
//! the text table, its print format — next to the figure's "paper:" note.

use json::{Json, ToJson};
use runner::BenchReport;

pub mod alloc_meter;
mod cmt;
mod faults;
mod interleave;
pub mod json;
pub mod live;
mod paper;
pub mod runner;
mod scale;

pub use faults::flap_plan;
pub use paper::farm_cfg;

/// How much of the paper-scale workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper-scale runs (the default).
    Paper,
    /// Reduced iteration counts for CI (`--quick`).
    Quick,
}

impl Scale {
    /// Result-file stem for this scale: quick runs get a `_quick` suffix so
    /// they never overwrite the committed paper-scale `results/*.json`.
    pub fn tag(self, name: &str) -> String {
        match self {
            Scale::Paper => name.to_string(),
            Scale::Quick => format!("{name}_quick"),
        }
    }
}

/// The seed base every figure derives its per-run seeds from.
pub const SEED_BASE: u64 = 0xBA5E;

/// Mean of `f` over a chunk of per-seed results (the paper runs each farm
/// configuration six times and reports the mean).
fn mean<R>(xs: &[R], f: impl Fn(&R) -> f64) -> f64 {
    xs.iter().map(f).sum::<f64>() / xs.len().max(1) as f64
}

/// What one figure run produced; nothing is written until
/// [`FigureOutput::save`].
pub struct FigureOutput {
    /// Exactly the text the figure prints.
    pub stdout: String,
    /// Row files as (stem, JSON text): each becomes `results/<stem>.json`.
    pub files: Vec<(String, String)>,
    pub report: BenchReport,
}

impl FigureOutput {
    fn new(report: BenchReport) -> FigureOutput {
        FigureOutput { stdout: String::new(), files: Vec::new(), report }
    }

    /// Append `table` as text, one line per row.
    fn table(mut self, title: &str, table: &Table) -> Self {
        self.stdout.push_str(&table.render(title));
        self
    }

    /// Append one line of text (the "paper:" / "expected:" notes).
    fn line(mut self, text: &str) -> Self {
        self.stdout.push_str(text);
        self.stdout.push('\n');
        self
    }

    /// Add `table` as the row file `results/<name>[_quick].json`.
    fn file(mut self, scale: Scale, name: &str, table: &Table) -> Self {
        self.files.push((scale.tag(name), table.to_json().render() + "\n"));
        self
    }

    /// Write the row files and the report under `results/`, and put the
    /// harness summary on stderr.
    pub fn save(&self) {
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            for (stem, text) in &self.files {
                let _ = std::fs::write(dir.join(format!("{stem}.json")), text);
            }
        }
        self.report.save();
        eprintln!("{}", self.report.summary());
    }
}

/// A row of a [`Table`]: its values as JSON, in column order.
macro_rules! row {
    ($($x:expr),* $(,)?) => { vec![$($crate::json::ToJson::to_json(&$x)),*] };
}
use row;

/// How a column prints in the text table.
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// As is (integers, booleans, strings, lists).
    Plain,
    /// A byte count: `30K` for whole KiB.
    Size,
    /// Fixed decimals (floats) or as is (integers), then a unit: `1.35x`.
    Fix(usize, &'static str),
    /// A fraction as a percentage with fixed decimals: `0.01` → `1%`.
    Pct(usize),
}

/// One column of a figure: its key in the row file (`""`: not saved), its
/// header in the text table (`""`: not printed), and its print format.
pub struct Col(pub &'static str, pub &'static str, pub Fmt);

/// A figure's rows, saved as a JSON array of objects and printed as an
/// aligned text table, both in column order.
pub struct Table {
    cols: &'static [Col],
    rows: Vec<Vec<Json>>,
}

impl Table {
    fn new(cols: &'static [Col], rows: impl IntoIterator<Item = Vec<Json>>) -> Table {
        let rows: Vec<Vec<Json>> = rows.into_iter().collect();
        assert!(rows.iter().all(|r| r.len() == cols.len()), "row arity differs from its columns");
        Table { cols, rows }
    }

    fn render(&self, title: &str) -> String {
        fn show(fmt: Fmt, v: &Json) -> String {
            match (fmt, v) {
                (Fmt::Size, Json::UInt(n)) => human_size(*n as usize),
                (Fmt::Fix(d, unit), Json::Num(x)) => format!("{x:.d$}{unit}"),
                (Fmt::Fix(_, unit), Json::UInt(n)) => format!("{n}{unit}"),
                (Fmt::Pct(d), Json::Num(x)) => format!("{:.d$}%", x * 100.0),
                (_, Json::Str(s)) => s.clone(),
                (_, Json::Arr(items)) => {
                    format!("[{}]", items.iter().map(|v| show(fmt, v)).collect::<Vec<_>>().join(", "))
                }
                (_, v) => v.render(),
            }
        }
        let shown = || self.cols.iter().enumerate().filter(|(_, c)| !c.1.is_empty());
        let header: Vec<&str> = shown().map(|(_, c)| c.1).collect();
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| shown().map(|(i, c)| show(c.2, &r[i])).collect()).collect();
        render_table(title, &header, &rows)
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        let saved = || self.cols.iter().enumerate().filter(|(_, c)| !c.0.is_empty());
        let row = |r: &Vec<Json>| Json::Obj(saved().map(|(i, c)| (c.0, r[i].clone())).collect());
        Json::Arr(self.rows.iter().map(row).collect())
    }
}

/// One entry of the `bench` CLI.
pub struct Figure {
    pub name: &'static str,
    /// One line for `bench --list` (and the README table).
    pub about: &'static str,
    /// `false`: the wall clock and the kernel drive it, so no two runs
    /// print the same numbers and `bench all` leaves it out.
    pub deterministic: bool,
    pub run: Run,
}

/// How an entry runs, and so what may follow its name on the command line.
pub enum Run {
    /// Takes nothing but `--quick`.
    Fixed(fn(Scale) -> FigureOutput),
    /// Reads what followed its name (`--quick` removed) before it runs
    /// anything; `Err` says which argument it could not use.
    Args(fn(Scale, &[String]) -> Result<FigureOutput, String>),
}

impl Figure {
    /// Run the entry with `args`. `Err` — an argument the entry does not
    /// take — means nothing ran and nothing was written.
    pub fn run(&self, scale: Scale, args: &[String]) -> Result<FigureOutput, String> {
        match (&self.run, args) {
            (Run::Fixed(run), []) => Ok(run(scale)),
            (Run::Fixed(_), [stray, ..]) => Err(format!("takes no argument, got `{stray}`")),
            (Run::Args(run), _) => run(scale, args),
        }
    }
}

/// Every figure, table, ablation and probe, in `bench all` order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig8",
        about: "Figure 8: ping-pong throughput vs message size at 0% loss (crossover ~22 KB)",
        deterministic: true,
        run: Run::Fixed(paper::fig8),
    },
    Figure {
        name: "table1",
        about: "Table 1: ping-pong throughput under 1%/2% loss, 30 KB and 300 KB messages",
        deterministic: true,
        run: Run::Fixed(paper::table1),
    },
    Figure {
        name: "fig9",
        about: "Figure 9: NAS kernels on 8 processes, Mop/s [--class S|W|A|B, default B]",
        deterministic: true,
        run: Run::Args(paper::fig9),
    },
    Figure {
        name: "fig10",
        about: "Figure 10: Bulk Processor Farm, fanout 1, 0/1/2% loss",
        deterministic: true,
        run: Run::Fixed(|s| paper::farm_figure(s, 1)),
    },
    Figure {
        name: "fig11",
        about: "Figure 11: Bulk Processor Farm, fanout 10",
        deterministic: true,
        run: Run::Fixed(|s| paper::farm_figure(s, 10)),
    },
    Figure {
        name: "fig12",
        about: "Figure 12: SCTP 10 streams vs 1 stream (HOL isolation), farm fanout 10",
        deterministic: true,
        run: Run::Fixed(paper::fig12),
    },
    Figure {
        name: "ablate_cc",
        about: "A1: SCTP congestion-control features under loss (gap blocks, byte counting, CRC32c)",
        deterministic: true,
        run: Run::Fixed(paper::ablate_cc),
    },
    Figure {
        name: "ablate_race",
        about: "A2: the §3.4 long-message race fix, Option A vs Option B",
        deterministic: true,
        run: Run::Fixed(paper::ablate_race),
    },
    Figure {
        name: "failover",
        about: "A3: §3.5.1 multihoming failover, primary network killed mid-farm",
        deterministic: true,
        run: Run::Fixed(faults::failover),
    },
    Figure {
        name: "scalability",
        about: "A4: §3.3 select() cost vs process count (ring exchange, TCP vs one-to-many SCTP)",
        deterministic: true,
        run: Run::Fixed(paper::scalability),
    },
    Figure {
        name: "cmt",
        about: "A5: Concurrent Multipath Transfer: stream, ping-pong, buffer sweep, fault composition",
        deterministic: true,
        run: Run::Fixed(cmt::cmt),
    },
    Figure {
        name: "fig10_burst",
        about: "E-faults: Figure 10 under Gilbert–Elliott bursty loss at matched average rates",
        deterministic: true,
        run: Run::Fixed(|s| faults::farm_burst_figure(s, 1)),
    },
    Figure {
        name: "fig11_burst",
        about: "E-faults: Figure 11 (fanout 10) under the same bursty loss",
        deterministic: true,
        run: Run::Fixed(|s| faults::farm_burst_figure(s, 10)),
    },
    Figure {
        name: "flap",
        about: "E-faults: failover timeline under a scripted primary-interface flap (hb × pmr sweep)",
        deterministic: true,
        run: Run::Fixed(faults::flap),
    },
    Figure {
        name: "interleave",
        about: "E-interleave: I-DATA stream schedulers on a mixed-size farm + PR-SCTP lifetime sweep",
        deterministic: true,
        run: Run::Fixed(interleave::interleave),
    },
    Figure {
        name: "incast",
        about: "E-scale: synchronized N→1 incast, up to 1024 senders, sharded engine [SHARDS=n]",
        deterministic: true,
        run: Run::Fixed(scale::incast),
    },
    Figure {
        name: "tenants",
        about: "E-scale: many-tenant fabric sharing, p99/p50 completion tail [SHARDS=n]",
        deterministic: true,
        run: Run::Fixed(scale::tenants),
    },
    Figure {
        name: "pingpong_live",
        about: "Figure 8 over real UDP loopback sockets [BACKEND=udp|sim]",
        deterministic: false,
        run: Run::Fixed(paper::pingpong_live),
    },
    Figure {
        name: "probe_cmt",
        about: "one CMT cell, full counters: [loss] [paths] [count] [seed] [bufs_kb] [--nocmt] [--pingpong] [--flap]",
        deterministic: true,
        run: Run::Args(cmt::probe_cmt),
    },
    Figure {
        name: "probe_interleave",
        about: "one mixed-size farm run, HOL accounting: [loss] [tasks] [--nointl], scheduler from SCTP_SCHED",
        deterministic: true,
        run: Run::Args(interleave::probe_interleave),
    },
];

/// Look a figure up by its `bench` name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// One section of `bench all`'s output.
pub fn section(name: &str, stdout: &str) -> String {
    format!("===== {name} =====\n{stdout}\n")
}

/// Render a text table: header + rows of equal arity.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let line = |cells: Vec<String>, widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        s.trim_end().to_string() + "\n"
    };
    out.push_str(&line(header.iter().map(|s| s.to_string()).collect(), &widths));
    for row in rows {
        out.push_str(&line(row.clone(), &widths));
    }
    out
}

/// The positional arguments of a probe, in order. Refuses a `--flag` not in
/// `flags` and more than `max` positionals, so a typo cannot pass for a
/// default.
fn positionals<'a>(args: &'a [String], flags: &[&str], max: usize) -> Result<Vec<&'a str>, String> {
    let (dashed, pos): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    if let Some(unknown) = dashed.iter().find(|f| !flags.contains(f)) {
        return Err(format!("unknown flag `{unknown}`"));
    }
    match pos.get(max) {
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
        None => Ok(pos),
    }
}

/// Positional argument `n` of a probe: `default` when absent, `Err` when
/// present and unparsable.
fn arg<T: std::str::FromStr>(pos: &[&str], n: usize, default: T) -> Result<T, String> {
    pos.get(n).map_or(Ok(default), |s| s.parse().map_err(|_| format!("cannot read argument `{s}`")))
}

/// Human-readable byte sizes for table cells.
fn human_size(n: usize) -> String {
    if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}K", n / 1024)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== T =="));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn a_table_prints_and_saves_each_column_as_declared() {
        const COLS: &[Col] = &[
            Col("size", "size", Fmt::Size),
            Col("fanout", "", Fmt::Plain),
            Col("loss", "loss", Fmt::Pct(0)),
            Col("secs", "s", Fmt::Fix(1, "")),
            Col("", "ratio", Fmt::Fix(2, "x")),
            Col("pkts", "pkts", Fmt::Plain),
        ];
        let t = Table::new(COLS, [row![30 * 1024usize, 10u32, 0.01, 2.0, 1.357, vec![5u64, 3]]]);
        let text = t.render("T");
        assert_eq!(text, "== T ==\nsize  loss    s  ratio    pkts\n 30K    1%  2.0  1.36x  [5, 3]\n");
        let json = t.to_json().render();
        assert!(json.contains("\"size\": 30720") && json.contains("\"fanout\": 10"), "{json}");
        assert!(json.contains("\"loss\": 0.01") && json.contains("\"secs\": 2.0"), "{json}");
        assert!(!json.contains("ratio") && !json.contains("1.357"), "{json}");
        assert_eq!(human_size(100), "100");
    }

    /// Every figure name `text` invokes the binary with: the identifier
    /// after `bench ` where that word opens inline code, ends a path or
    /// follows `--bin ` (with cargo's `-- ` skipped). `all`, flags and
    /// placeholders like `<figure>` are not names.
    fn bench_names(text: &str) -> Vec<&str> {
        text.match_indices("bench ")
            .filter(|&(at, _)| {
                let before = &text[..at];
                before.ends_with(['`', '/']) || before.ends_with("--bin ")
            })
            .map(|(at, word)| {
                let rest = &text[at + word.len()..];
                let rest = rest.strip_prefix("-- ").unwrap_or(rest);
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|name| !name.is_empty() && *name != "all")
            .collect()
    }

    #[test]
    fn arguments_an_entry_does_not_take_are_refused_before_it_runs() {
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let fixed = Figure {
            name: "fixed",
            about: "",
            deterministic: true,
            run: Run::Fixed(|_| panic!("a refused entry must not run")),
        };
        for stray in ["--quik", "-quick", "10"] {
            let err = fixed.run(Scale::Quick, &args(&[stray])).err().expect(stray);
            assert!(err.contains(stray), "{err}");
        }
        // Every table entry that takes no argument refuses one; none runs.
        for f in FIGURES.iter().filter(|f| matches!(f.run, Run::Fixed(_))) {
            assert!(f.run(Scale::Quick, &args(&["--quik"])).is_err(), "{}", f.name);
        }
        let run = |name: &str, words: &[&str]| figure(name).unwrap().run(Scale::Quick, &args(words));
        assert!(run("probe_cmt", &["abc"]).is_err());
        assert!(run("probe_cmt", &["0.01", "3", "--flpa"]).is_err());
        assert!(run("probe_cmt", &["0.01", "3", "256", "1", "64", "9"]).is_err(), "a sixth positional");
        assert!(run("probe_interleave", &["0.01", "many"]).is_err());
        assert!(run("fig9", &["--class", "Z"]).is_err());
        assert!(run("fig9", &["--clas", "S"]).is_err());
        let out = run("probe_cmt", &["0.01", "3"]).expect("`probe_cmt 0.01 3` still parses");
        assert!(out.stdout.contains("loss=0.01 paths=3"), "{}", out.stdout);
    }

    #[test]
    fn figure_names_are_unique_and_every_documented_name_resolves() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.name != f.name), "duplicate entry {}", f.name);
        }
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let mut seen = 0;
        for doc in [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(format!("{root}{doc}")).expect(doc);
            for name in bench_names(&text) {
                assert!(figure(name).is_some(), "{doc} names `bench {name}`, not in FIGURES");
                seen += 1;
            }
        }
        assert!(seen >= FIGURES.len(), "the scan found only {seen} `bench <name>` mentions");
    }
}
