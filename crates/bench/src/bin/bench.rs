//! The one experiment binary: every figure, table, ablation and probe of
//! `bench_harness::FIGURES`.
//!
//! Usage: `bench <figure> [--quick] [args…]` · `bench --list` ·
//! `bench all [--quick]` (every deterministic figure in table order, also
//! written to `results/all_figures[_quick].txt`).

use bench_harness::{figure, section, Scale, FIGURES};

fn list() -> String {
    let w = FIGURES.iter().map(|f| f.name.len()).max().unwrap_or(0);
    FIGURES.iter().map(|f| format!("{:<w$}  {}\n", f.name, f.about)).collect()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") { Scale::Quick } else { Scale::Paper };
    args.retain(|a| a != "--quick");
    match args.first().map(String::as_str) {
        Some("--list") => print!("{}", list()),
        Some("all") => {
            let mut all = String::new();
            for f in FIGURES.iter().filter(|f| f.deterministic) {
                let out = (f.run)(scale, &[]);
                let text = section(f.name, &out.stdout);
                print!("{text}");
                out.save();
                all.push_str(&text);
            }
            let path = format!("results/{}.txt", scale.tag("all_figures"));
            std::fs::write(&path, all).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        Some(name) => match figure(name) {
            Some(f) => {
                let out = (f.run)(scale, &args[1..]);
                print!("{}", out.stdout);
                out.save();
            }
            None => {
                eprintln!("bench: no figure `{name}`; the entries are:\n{}", list());
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("usage: bench <figure> [--quick] [args…] | --list | all [--quick]\n{}", list());
            std::process::exit(2);
        }
    }
}
