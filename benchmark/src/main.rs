//! `mpi-benchmark`: one measured run of one workload, as the driver's
//! contract wants it (see README.md), plus two helpers:
//!
//! ```text
//! mpi-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out-dir D]
//! mpi-benchmark spec                  # print BENCHMARK.json
//! mpi-benchmark workloads             # print the workload names
//! mpi-benchmark compare SET1 SET2     # selfcheck.sh: do two sets of runs agree?
//! ```

mod adapter;
mod calib;
mod compare;
mod json;
mod layers;
mod measure;
mod os;
mod probes;
mod span;
mod spec;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;

const DEFAULT_SEED: u64 = 0xBA5E;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| bad())?,
                    None => value.parse().map_err(|_| bad())?,
                }
            }
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => parsed.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn run(args: Args) -> Result<bool, String> {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
    let w = workload::by_name(&args.workload).ok_or(format!(
        "unknown workload {:?}; one of {names:?}",
        args.workload
    ))?;
    let outcome = if args.trace {
        layers::per_layer(&w, args.seed, args.seconds)
    } else {
        measure::end_to_end(&w, args.seed, args.seconds)
    };

    let wanted: Vec<spec::Metric> = if args.trace {
        spec::PER_LAYER.to_vec()
    } else {
        spec::END_TO_END.iter().map(|(m, _)| *m).collect()
    };
    for name in outcome.values.keys() {
        assert!(
            wanted.iter().any(|m| m.name == name),
            "{name} is not in the spec"
        );
    }
    let mut metrics = Vec::new();
    for m in &wanted {
        // A per-layer metric this workload does not exercise reads 0; an
        // end-to-end metric must always be measured.
        let v = outcome.values.get(m.name).copied();
        let v = if args.trace {
            v.unwrap_or(0.0)
        } else {
            v.ok_or(format!("{} was not measured", m.name))?
        };
        println!("{} {} {}", m.name, v, m.unit);
        metrics.push((
            m.name,
            Value::obj([
                ("value", Value::Num(v)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        ));
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    if let (Some(dir), Some(trace)) = (&args.out_dir, &outcome.trace) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, trace.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("spec") => {
            let doc = spec::benchmark_json();
            spec::validate(&doc).map(|()| {
                let mut text = String::new();
                doc.write_pretty(0, &mut text);
                println!("{text}");
                true
            })
        }
        Some("workloads") => {
            spec::WORKLOADS
                .iter()
                .for_each(|(name, _)| println!("{name}"));
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare::sets(args[1].as_ref(), args[2].as_ref()),
        _ => parse_args(&args).and_then(run),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mpi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "sim_farm_loss1",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_farm_loss1", 7, 10.0, true)
        );
        let d = args(&["--workload", "x"]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (0xBA5E, spec::RUN_SECONDS as f64, false)
        );
        assert_eq!(
            args(&["--workload", "x", "--seed", "0xff"]).unwrap().seed,
            255
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }
}
