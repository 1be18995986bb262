//! `dbvirt-perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! dbvirt-perf --workload W [--seed S] [--seconds T] [--trace 0|1]
//! dbvirt-perf compare A.json B.json
//! dbvirt-perf collect OUT.json [--meta key=value]... FILE.json...
//! ```
//!
//! Run from the repository root: results go to `perf/out/` and `compare`
//! reads `BENCHMARK.json`. A workload run prints every metric by name with
//! its unit and, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; it exits non-zero if any
//! correctness check failed.

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::Args;
use std::path::Path;
use std::process::ExitCode;

/// The seed a bare `perf/run.sh` uses (and `perf/baseline.json` was taken at).
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dbvirt-perf --workload <{}> [--seed N] [--seconds T] [--trace 0|1]\n\
         \x20      dbvirt-perf compare A.json B.json\n\
         \x20      dbvirt-perf collect OUT.json [--meta key=value]... FILE.json...",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("collect") => return compare::collect(&argv[1..]),
        _ => {}
    }

    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| args.seconds = v)
                .is_ok_and(|()| args.seconds.is_finite() && args.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }

    let Some(report) = workloads::run(&args) else {
        eprintln!("unknown workload {:?}", args.workload);
        return usage();
    };

    report.print_table();
    let stem = if args.trace { "traced_" } else { "" };
    let out_dir = Path::new("perf/out");
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}{}.json", args.workload)),
                report.file_json().pretty() + "\n",
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    out_dir.join(format!("trace_{}.json", args.workload)),
                    &report.chrome_trace,
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
