//! `perf_report` — the repo's scoreboard.
//!
//! One process measures one workload:
//!
//! ```text
//! perf_report --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <dir>]
//! perf_report --selfcheck
//! perf_report --benchmark-json
//! ```
//!
//! An untraced run prints every end-to-end metric, a traced run every
//! per-layer metric (and writes `trace-<workload>.json` under `--out`),
//! each with name, unit, sample count, quartiles and the verdict of the
//! output checks. The last line of standard output is the one JSON
//! object `BENCHMARK.json`'s contract asks for. See `perfbench/README.md`.

mod family;
mod kit;
mod layers;
mod selfcheck;
mod serve;

use std::path::PathBuf;

use kit::gen::Family;
use kit::names::{benchmark_json, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use kit::report::Report;
use kit::trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_report --workload <{}> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <dir>]\n       perf_report --selfcheck\n       perf_report --benchmark-json",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name"),
            "--seed" => args.seed = value("a u64").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("a number of seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                // Both `--trace` and `--trace <0|1>` are accepted.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")),
            "--selfcheck" => std::process::exit(selfcheck::run()),
            "--benchmark-json" => {
                print!("{}", benchmark_json());
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        usage()
    }
    args
}

fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let family = match args.workload.as_str() {
        "packing-dense" => Family::Packing,
        "mpc-chain" => Family::Mpc,
        "svm-chain" => Family::Svm,
        _ => return serve::run(args.seed, args.seconds, args.trace, tracer),
    };
    family::run(family, args.seed, args.seconds, args.trace, tracer)
}

fn main() {
    let args = parse_args();
    let mut tracer = Tracer::new(args.trace);
    let report = run(&args, &mut tracer);
    if args.trace {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&args.workload)));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report.table());
    let mismatches = report.name_mismatches();
    if !mismatches.is_empty() {
        eprintln!("harness bug, metric names differ from BENCHMARK.json: {mismatches:?}");
        std::process::exit(3);
    }
    println!("{}", report.json_line());
}
