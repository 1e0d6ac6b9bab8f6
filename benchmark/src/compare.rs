//! `selfcheck.sh`'s judge: do two sets of runs of the same tree agree?
//!
//! A set is a directory of result lines, one file per run, named
//! `<workload>.<seed>.<trace>.json`. Every end-to-end median of set 2 must
//! be within its bound of set 1, every spread (interquartile distance over
//! the median, as the driver computes it) except `setup_s`'s must be within
//! its bound, and every metric in [`spec::EXACT`] must read the same in both
//! sets for the same seed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats::quartiles;

/// Result lines of one set: (workload, trace) → seed → parsed line.
type Set = BTreeMap<(String, bool), BTreeMap<String, Value>>;

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let parts: Vec<&str> = name.split('.').collect();
        let [workload, seed, trace, "json"] = parts[..] else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let line = text.lines().last().ok_or(format!("{name} is empty"))?;
        let value = json::parse(line).map_err(|e| format!("{name}: {e}"))?;
        set.entry((workload.to_string(), trace == "1"))
            .or_default()
            .insert(seed.to_string(), value);
    }
    Ok(set)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

struct Summary {
    median: f64,
    /// None with fewer than two runs.
    quartiles: Option<(f64, f64)>,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        match quartiles(values) {
            Some([q1, q2, q3]) => Summary {
                median: q2,
                quartiles: Some((q1, q3)),
            },
            None => Summary {
                median: values.first().copied().unwrap_or(0.0),
                quartiles: None,
            },
        }
    }

    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| (q3 - q1) / self.median.abs())
    }

    fn text(&self) -> String {
        match (self.quartiles, self.spread()) {
            (Some((q1, q3)), Some(spread)) => format!(
                "{:.6} [{q1:.6}, {q3:.6}] spread {:.2} %",
                self.median,
                100.0 * spread
            ),
            _ => format!("{:.6} [one run]", self.median),
        }
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

pub fn sets(dir1: &Path, dir2: &Path) -> Result<bool, String> {
    let (set1, set2) = (load(dir1)?, load(dir2)?);
    let mut ok = true;
    let mut complain = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    let empty = BTreeMap::new();
    for (workload, _) in spec::WORKLOADS {
        println!("== {workload}");
        let runs = |set: &'_ Set, trace: bool| {
            set.get(&(workload.to_string(), trace))
                .unwrap_or(&empty)
                .clone()
        };
        let (e1, e2) = (runs(&set1, false), runs(&set2, false));
        if e1.is_empty() || e2.is_empty() {
            complain(format!("{workload}: a set has no end-to-end runs"));
            continue;
        }
        for (seed, result) in e1
            .iter()
            .chain(&e2)
            .chain(&runs(&set1, true))
            .chain(&runs(&set2, true))
        {
            if result.get("correct") != Some(&Value::Bool(true)) {
                complain(format!(
                    "{workload} seed {seed}: a run reports failed checks"
                ));
            }
        }
        for (m, bound) in spec::END_TO_END {
            let values = |runs: &BTreeMap<String, Value>| {
                runs.values()
                    .filter_map(|r| metric(r, m.name))
                    .collect::<Vec<f64>>()
            };
            let (s1, s2) = (Summary::of(&values(&e1)), Summary::of(&values(&e2)));
            let worse = worsening(m.better, s1.median, s2.median);
            println!(
                "{:<24} set1 {}  set2 {}  set2 worse by {:+.2} %  bound {:.0} %",
                m.name,
                s1.text(),
                s2.text(),
                100.0 * worse,
                100.0 * bound
            );
            if worse > bound {
                complain(format!(
                    "{workload} {}: set 2 is worse than set 1 by more than the bound",
                    m.name
                ));
            }
            for (which, s) in [(1, &s1), (2, &s2)] {
                if m.name != "setup_s" && s.spread().is_some_and(|sp| sp > bound) {
                    complain(format!(
                        "{workload} {}: spread of set {which} is wider than the bound",
                        m.name
                    ));
                }
            }
        }
        let (l1, l2) = (runs(&set1, true), runs(&set2, true));
        for (seed, first) in &l1 {
            let Some(second) = l2.get(seed) else { continue };
            for name in spec::EXACT {
                let (a, b) = (metric(first, name), metric(second, name));
                if a != b {
                    complain(format!(
                        "{workload} seed {seed} {name}: {a:?} in set 1, {b:?} in set 2"
                    ));
                }
            }
            println!(
                "{} exact metrics compared for seed {seed}",
                spec::EXACT.len()
            );
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_spread_only_with_two_or_more_runs() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert!((s.spread().unwrap() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[5.0]).spread().is_none());
    }

    #[test]
    fn sets_agree_with_themselves_and_notice_a_moved_count() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        let (d1, d2) = (dir.join("set1"), dir.join("set2"));
        for d in [&d1, &d2] {
            std::fs::create_dir_all(d).unwrap();
        }
        let line = |rate: f64, fingerprint: f64, trace: bool| {
            let metrics: Vec<(String, Value)> = if trace {
                spec::PER_LAYER
                    .iter()
                    .map(|m| (m.name.to_string(), fingerprint))
                    .collect::<Vec<_>>()
            } else {
                spec::END_TO_END
                    .iter()
                    .map(|(m, _)| (m.name.to_string(), rate))
                    .collect::<Vec<_>>()
            }
            .into_iter()
            .map(|(n, v)| {
                (
                    n,
                    Value::obj([("value", Value::Num(v)), ("unit", Value::Str("x".into()))]),
                )
            })
            .collect();
            Value::obj([
                ("correct", Value::Bool(true)),
                ("attempted", Value::Num(1.0)),
                ("failed", Value::Num(0.0)),
                ("metrics", Value::Obj(metrics)),
            ])
            .to_json()
        };
        let write = |d: &Path, fingerprint: f64| {
            for (w, _) in spec::WORKLOADS {
                for (seed, rate) in [(1, 100.0), (2, 101.0), (3, 102.0)] {
                    std::fs::write(d.join(format!("{w}.{seed}.0.json")), line(rate, 0.0, false))
                        .unwrap();
                }
                std::fs::write(
                    d.join(format!("{w}.1.1.json")),
                    line(0.0, fingerprint, true),
                )
                .unwrap();
            }
        };
        write(&d1, 42.0);
        write(&d2, 42.0);
        assert_eq!(sets(&d1, &d2), Ok(true));
        write(&d2, 43.0);
        assert_eq!(sets(&d1, &d2), Ok(false), "an exact metric moved");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
