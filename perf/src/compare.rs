//! `collect` and `compare`: result sets and the regression verdicts.
//!
//! A **set** is one JSON file holding, per workload, the result files of
//! several untraced runs (and of the traced runs) plus where they came from.
//! One run says little on a host that slows whole runs down by a third, and
//! the median over a handful of runs says little more: two interleaved sets
//! of five runs of one build had medians 29 % apart while their best runs
//! agreed within 1 %. The host only ever slows a run down, so `compare` takes
//! a set's **best run** as its estimate of a measured metric, judges B's
//! against A's workload by workload and metric by metric with the directions
//! and bounds of `BENCHMARK.json`, and takes as a set's uncertainty the
//! **gap** between its best run and its second best (as a share of the
//! best): a best run that no other run confirms is luck, or the only clean
//! moment the set saw.
//!
//! * `ok` — B is no worse than A by more than the bound;
//! * `regressed` — B is worse by more than the bound and by more than the
//!   wider gap, or a number that is exact at equal inputs (a count or a
//!   virtual-clock number) is worse at all, or a run failed its checks;
//! * `unresolved` — a gap is wider than the bound and B is not worse by
//!   more than that gap, so these sets cannot decide either way.
//!
//! The medians over the runs and the spread between their quartiles (the
//! benchmark driver's statistics) are printed beside each verdict.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::NAMES;
use dbvirt_calibrate::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `collect OUT.json [--meta key=value]... FILE.json...`
pub fn collect(args: &[String]) -> ExitCode {
    let Some((out, rest)) = args.split_first() else {
        eprintln!("collect needs an output path");
        return ExitCode::from(2);
    };
    let mut meta = BTreeMap::new();
    let mut workloads: BTreeMap<String, BTreeMap<String, Vec<Json>>> = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--meta" {
            let Some((k, v)) = it.next().and_then(|kv| kv.split_once('=')) else {
                eprintln!("--meta needs key=value");
                return ExitCode::from(2);
            };
            meta.insert(k.to_string(), Json::Str(v.to_string()));
            continue;
        }
        let run = match read_json(arg) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (Some(name), Some(traced)) = (
            run.get("workload").and_then(Json::as_str),
            run.get("trace").and_then(Json::as_bool),
        ) else {
            eprintln!("{arg}: not a workload result file");
            return ExitCode::FAILURE;
        };
        let kind = if traced { "traced" } else { "untraced" };
        workloads
            .entry(name.to_string())
            .or_default()
            .entry(kind.to_string())
            .or_default()
            .push(run);
    }
    let set = Json::obj([
        ("meta", Json::Obj(meta)),
        (
            "workloads",
            Json::Obj(
                workloads
                    .into_iter()
                    .map(|(name, kinds)| {
                        let kinds = kinds.into_iter().map(|(k, runs)| (k, Json::Arr(runs)));
                        (name, Json::Obj(kinds.collect()))
                    })
                    .collect(),
            ),
        ),
    ]);
    match std::fs::write(out, set.pretty() + "\n") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(name), Some(unit), Some(better), Some(bound)) => Ok(Bound {
                    name,
                    unit,
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The runs of `kind` (`"untraced"` / `"traced"`) a set holds for a workload.
fn runs<'a>(set: &'a Json, workload: &str, kind: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(|w| w.get(workload)?.get(kind)?.as_arr())
        .unwrap_or(&[])
}

/// The one inputs hash every run of both sides carries, if there is one:
/// the sets were asked the same questions, so everything deterministic must
/// agree bit for bit.
fn shared_inputs<'a>(a: &'a [Json], b: &'a [Json]) -> Option<&'a str> {
    let mut hashes = a
        .iter()
        .chain(b)
        .map(|r| r.get("inputs_hash").and_then(Json::as_str));
    let first = hashes.next()??;
    hashes.all(|h| h == Some(first)).then_some(first)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A set's estimate of a measured metric and how far it is from being
/// confirmed: the best of `values` and the gap to the second best as a share
/// of the best (0 for a single run, which has nothing to confirm it with).
fn best_and_gap(values: &[f64], higher_is_better: bool) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let gap = v.get(1).map_or(0.0, |second| (second - v[0]).abs() / v[0]);
    (v[0], gap)
}

/// B against A for a measured metric. `worse` is the share of A's best run
/// by which B's best run is worse (negative when B is better); `gap` is the
/// wider of the two sets' gaps.
fn judge(worse: f64, bound: f64, gap: f64) -> Verdict {
    if gap > bound && worse <= gap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// B against A for a metric that is exact at equal inputs: every run of
/// both sets must carry the same bits; a set that disagrees with itself or a
/// B that is worse at all has regressed.
fn judge_exact(a: &[f64], b: &[f64], worse: f64) -> (Verdict, &'static str) {
    let constant = |v: &[f64]| v.iter().all(|x| x.to_bits() == v[0].to_bits());
    if !constant(a) || !constant(b) {
        (Verdict::Regressed, "differs between runs of one set")
    } else if a[0].to_bits() == b[0].to_bits() {
        (Verdict::Ok, "identical")
    } else if worse > 0.0 {
        (Verdict::Regressed, "exact at equal inputs, and worse")
    } else {
        (Verdict::Ok, "changed for the better")
    }
}

/// `compare A.json B.json`
pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("compare needs exactly two set files");
        return ExitCode::from(2);
    };
    match compare(a_path, b_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; `Ok(false)` if anything regressed.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = bounds(&read_json("BENCHMARK.json")?)?;
    println!("A = {a_path}\nB = {b_path}");
    let mut regressed = 0;
    let mut unresolved = 0;
    for name in NAMES {
        let (ua, ub) = (runs(&a, name, "untraced"), runs(&b, name, "untraced"));
        let (ta, tb) = (runs(&a, name, "traced"), runs(&b, name, "traced"));
        let same_inputs = shared_inputs(ua, ub).is_some();
        if !ua.is_empty() && !ub.is_empty() {
            println!(
                "\n{name} (A {} runs, B {} runs, {})",
                ua.len(),
                ub.len(),
                if same_inputs {
                    "same inputs"
                } else {
                    "different inputs"
                }
            );
            for m in &bounds {
                let values = |runs: &[Json]| {
                    runs.iter()
                        .map(|r| metric(r, &m.name))
                        .collect::<Option<Vec<f64>>>()
                        .ok_or_else(|| format!("{name}: {} missing from a run", m.name))
                };
                let (va, vb) = (values(ua)?, values(ub)?);
                let (best_a, gap_a) = best_and_gap(&va, m.higher_is_better);
                let (best_b, gap_b) = best_and_gap(&vb, m.higher_is_better);
                let worse = if m.higher_is_better {
                    (best_a - best_b) / best_a
                } else {
                    (best_b - best_a) / best_a
                };
                let gap = gap_a.max(gap_b);
                let exact = END_TO_END.iter().any(|&(n, _, exact)| exact && n == m.name);
                let (verdict, note) = if exact && same_inputs {
                    judge_exact(&va, &vb, worse)
                } else {
                    (judge(worse, m.bound, gap), "")
                };
                regressed += usize::from(verdict == Verdict::Regressed);
                unresolved += usize::from(verdict == Verdict::Unresolved);
                println!(
                    "  {:<20} A {best_a:>14.6} B {best_b:>14.6} {:<6} B/A {:>7.4} (base {best_a:.6}) \
                     bound {:>5.1}% gap {:>5.1}%  {} {note}\n\
                     \x20 {:<20} medians B/A {:.4} (base {:.6}), quartile spread A {:.1}% B {:.1}%",
                    m.name,
                    m.unit,
                    best_b / best_a,
                    m.bound * 100.0,
                    gap * 100.0,
                    verdict.label(),
                    "",
                    median(&vb) / median(&va),
                    median(&va),
                    quartile_spread(&va) * 100.0,
                    quartile_spread(&vb) * 100.0,
                );
            }
        }
        for r in ua.iter().chain(ub).chain(ta).chain(tb) {
            if r.get("failed").and_then(Json::as_f64) != Some(0.0) {
                println!("  a run of {name} failed correctness checks  regressed");
                regressed += 1;
            }
        }
        if ta.is_empty() || tb.is_empty() {
            continue;
        }
        if shared_inputs(ta, tb).is_none() {
            println!("  exact per-layer metrics: different inputs, not compared");
            continue;
        }
        let differing: Vec<String> = PER_LAYER
            .iter()
            .filter(|&&(_, _, exact)| exact)
            .filter_map(|&(metric_name, unit, _)| {
                let mut values = ta.iter().chain(tb).map(|r| metric(r, metric_name));
                let first = values.next()??;
                values
                    .any(|v| v.map(f64::to_bits) != Some(first.to_bits()))
                    .then(|| format!("{metric_name} ({unit}) is not {first} in every traced run"))
            })
            .collect();
        println!(
            "  exact per-layer metrics: {}",
            if differing.is_empty() {
                "identical  ok"
            } else {
                "differ  regressed"
            }
        );
        for d in &differing {
            println!("    {d}");
        }
        regressed += usize::from(!differing.is_empty());
    }
    println!("\n{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(0.05, 0.10, 0.02), Verdict::Ok);
        assert_eq!(judge(-0.30, 0.10, 0.02), Verdict::Ok);
        assert_eq!(judge(0.11, 0.10, 0.02), Verdict::Regressed);
        // A best run too lonely to tell 11 % or 1 % from nothing ...
        assert_eq!(judge(0.11, 0.10, 0.12), Verdict::Unresolved);
        assert_eq!(judge(0.01, 0.10, 0.12), Verdict::Unresolved);
        // ... but not 40 %.
        assert_eq!(judge(0.40, 0.10, 0.12), Verdict::Regressed);
    }

    #[test]
    fn a_set_is_its_best_run_and_the_gap_to_the_next() {
        assert_eq!(best_and_gap(&[1.25, 1.0, 1.5, 1.125], false), (1.0, 0.125));
        assert_eq!(best_and_gap(&[6.0, 8.0, 7.0], true), (8.0, 0.125));
        assert_eq!(best_and_gap(&[3.0], false), (3.0, 0.0));
    }

    #[test]
    fn exact_metrics_must_repeat_and_may_only_improve() {
        let v = |x: f64| vec![x; 3];
        assert_eq!(judge_exact(&v(2.0), &v(2.0), 0.0).0, Verdict::Ok);
        assert_eq!(judge_exact(&v(2.0), &v(1.9), -0.05).0, Verdict::Ok);
        assert_eq!(
            judge_exact(&v(2.0), &v(2.0 + 1e-12), 5e-13).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge_exact(&[2.0, 2.0, 2.1], &v(2.0), 0.0).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn inputs_are_shared_only_when_every_run_agrees() {
        let run = |hash: &str| Json::obj([("inputs_hash", Json::Str(hash.to_string()))]);
        let same = [run("00ab"), run("00ab")];
        let mixed = [run("00ab"), run("00cd")];
        assert_eq!(shared_inputs(&same, &same[..1]), Some("00ab"));
        assert_eq!(shared_inputs(&mixed, &same), None);
        assert_eq!(shared_inputs(&[], &same), Some("00ab"));
    }
}
