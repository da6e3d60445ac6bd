//! `perf_report --selfcheck`: runs every workload twice, untraced and
//! traced, one child process per run, and checks that the scoreboard
//! agrees with itself. The runs use the full window: at half of it a
//! slow spell of the baseline host put single runs 21 % apart.

use std::process::Command;

use crate::kit::names::{Better, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};

/// Per-layer metrics that are exact counts: two runs of one commit on
/// one seed must agree on them to the last digit.
const EXACT: [&str; 13] = [
    "solver.iterations",
    "prox.calls",
    "kernels.bytes_per_iter",
    "residuals.checks",
    "plan.barriers_per_iter",
    "graph.halo_vars",
    "batch.repacks",
    "batch.plans_built",
    "engine.joins",
    "engine.repacks",
    "engine.max_pack",
    "engine.mean_pack",
    "engine.cache_hit_share",
];

/// The driver's line, parsed back.
#[derive(Debug, PartialEq)]
pub struct Line {
    /// `correct`.
    pub correct: bool,
    /// `failed`.
    pub failed: u64,
    /// `(name, value)` of every metric.
    pub metrics: Vec<(String, f64)>,
}

/// Parses the JSON object `Report::json_line` prints. Not a JSON parser:
/// it knows the one shape this program emits.
pub fn parse_line(line: &str) -> Option<Line> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(&line[at..])
    };
    let number_prefix = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect()
    };
    let correct = after("\"correct\": ")?.starts_with("true");
    let failed = number_prefix(after("\"failed\": ")?).parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\": {")?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_key = "{\"value\": ";
        let value_at = name_end + rest[name_end..].find(value_key)? + value_key.len();
        let value = number_prefix(&rest[value_at..]).parse().ok()?;
        metrics.push((name.to_string(), value));
        rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
    }
    Some(Line {
        correct,
        failed,
        metrics,
    })
}

fn run_once(workload: &str, trace: &str) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", trace])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--seed", &DEFAULT_SEED.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exit {:?}", out.status.code()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    parse_line(last).ok_or_else(|| format!("unparseable result line: {last}"))
}

/// Runs the selfcheck; returns the process exit code.
pub fn run() -> i32 {
    let mut problems: Vec<String> = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            eprintln!("# selfcheck: {workload} --trace {trace}, twice");
            let pair = (run_once(workload, trace), run_once(workload, trace));
            let (a, b) = match pair {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    problems.push(format!(
                        "{workload} trace={trace}: {:?} / {:?}",
                        a.err(),
                        b.err()
                    ));
                    continue;
                }
            };
            for run in [&a, &b] {
                if !run.correct || run.failed > 0 {
                    problems.push(format!(
                        "{workload} trace={trace}: {} ops failed, correct={}",
                        run.failed, run.correct
                    ));
                }
            }
            let value = |line: &Line, name: &str| {
                line.metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
            };
            if trace == "0" {
                for m in END_TO_END {
                    let (Some(x), Some(y)) = (value(&a, m.name), value(&b, m.name)) else {
                        problems.push(format!("{workload}: {} missing", m.name));
                        continue;
                    };
                    // Worse of the two over the better, by the metric's direction.
                    let worsening = match m.better {
                        Better::Lower => x.max(y) / x.min(y) - 1.0,
                        Better::Higher => 1.0 - x.min(y) / x.max(y),
                    };
                    if worsening > m.bound {
                        problems.push(format!(
                            "{workload}: {} differs by {:.1}% (bound {:.0}%): {x} vs {y}",
                            m.name,
                            worsening * 100.0,
                            m.bound * 100.0
                        ));
                    }
                }
            } else {
                for name in EXACT {
                    if value(&a, name) != value(&b, name) {
                        problems.push(format!(
                            "{workload}: exact count {name} differs: {:?} vs {:?}",
                            value(&a, name),
                            value(&b, name)
                        ));
                    }
                }
                for run in [&a, &b] {
                    match value(run, "solver.coverage") {
                        Some(c) if c >= 0.95 => {}
                        other => {
                            problems.push(format!("{workload}: solver.coverage {other:?} < 0.95"))
                        }
                    }
                }
            }
        }
    }
    if problems.is_empty() {
        println!("selfcheck: PASS");
        0
    } else {
        for p in &problems {
            println!("selfcheck: FAIL — {p}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kit::report::Report;

    #[test]
    fn the_result_line_parses_back() {
        let mut r = Report::new("mpc-chain", 1, false);
        for (i, m) in END_TO_END.iter().enumerate() {
            r.value(m.name, 0.001 * (i + 1) as f64, "");
        }
        r.attempted = 12;
        let line = parse_line(&r.json_line()).expect("parses");
        assert!(line.correct);
        assert_eq!(line.failed, 0);
        assert_eq!(line.metrics.len(), END_TO_END.len());
        assert_eq!(line.metrics[0], ("setup_s".to_string(), 0.001));
        assert_eq!(line.metrics[6].0, "latency_p50_ms");
        r.failed = 2;
        let line = parse_line(&r.json_line()).expect("parses");
        assert!(!line.correct);
        assert_eq!(line.failed, 2);
        assert_eq!(parse_line("not json"), None);
    }
}
