//! The one experiment binary: every figure, table, ablation and probe of
//! `bench_harness::FIGURES`.
//!
//! Usage: `bench <figure> [--quick] [args…]` · `bench --list` ·
//! `bench --help` · `bench all [--quick]` (every deterministic figure in
//! table order, also written to `results/all_figures[_quick].txt`). An
//! argument the entry does not take exits 2 before anything runs.

use bench_harness::{figure, section, Scale, FIGURES};

const USAGE: &str = "usage: bench <figure> [--quick] [args…] | --list | --help | all [--quick]";

fn list() -> String {
    let w = FIGURES.iter().map(|f| f.name.len()).max().unwrap_or(0);
    FIGURES.iter().map(|f| format!("{:<w$}  {}\n", f.name, f.about)).collect()
}

fn refuse(why: &str) -> ! {
    eprintln!("bench: {why}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") { Scale::Quick } else { Scale::Paper };
    args.retain(|a| a != "--quick");
    let Some((name, rest)) = args.split_first() else { refuse(&format!("no figure named\n{}", list())) };
    match name.as_str() {
        "--help" | "-h" => print!("{USAGE}\n{}", list()),
        "--list" => print!("{}", list()),
        "all" => {
            if let Some(stray) = rest.first() {
                refuse(&format!("all: takes no argument, got `{stray}`"));
            }
            let mut all = String::new();
            for f in FIGURES.iter().filter(|f| f.deterministic) {
                let out = f.run(scale, &[]).expect("every entry runs without arguments");
                let text = section(f.name, &out.stdout);
                print!("{text}");
                out.save();
                all.push_str(&text);
            }
            let path = format!("results/{}.txt", scale.tag("all_figures"));
            std::fs::write(&path, all).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        name => match figure(name) {
            Some(f) => match f.run(scale, rest) {
                Ok(out) => {
                    print!("{}", out.stdout);
                    out.save();
                }
                Err(why) => refuse(&format!("{name}: {why}")),
            },
            None => refuse(&format!("no figure `{name}`; the entries are:\n{}", list())),
        },
    }
}
