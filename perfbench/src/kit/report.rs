//! What one run reports: metrics with their samples, output checks,
//! operation counts — printed as a table for people and as one JSON
//! line for the driver.

use super::names::{per_layer, END_TO_END};
use super::stats::{summarize, Summary};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the tables in [`super::names`].
    pub name: String,
    /// The value reported: the fastest sample, the highest rate or the
    /// median of `samples`, by the method that reported it.
    pub value: f64,
    /// Quartiles and count of the in-process samples behind `value`;
    /// `None` for single readings and exact counts.
    pub samples: Option<Summary>,
    /// How the number was obtained, when the name does not say it all.
    pub note: String,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted (one solve or one served request each).
    pub attempted: u64,
    /// Operations that errored, did not converge or failed a check.
    pub failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn sampled(&mut self, name: &str, samples: &[f64], pick: fn(&Summary) -> f64, note: &str) {
        let s = summarize(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            value: pick(&s),
            samples: Some(s),
            note: note.to_string(),
        });
    }

    /// Reports the median of `samples` under `name`: for a distribution
    /// over requests or items, where the middle is the quantity.
    pub fn median(&mut self, name: &str, samples: &[f64], note: &str) {
        self.sampled(name, samples, |s| s.median, note);
    }

    /// Reports the fastest of `samples` under `name`: for repeats of one
    /// timing (see [`super::stats`] for why not the median).
    pub fn fastest(&mut self, name: &str, samples: &[f64], note: &str) {
        self.sampled(name, samples, |s| s.min, note);
    }

    /// Reports the highest of `samples` under `name`: [`Report::fastest`]
    /// for repeats of one rate.
    pub fn highest(&mut self, name: &str, samples: &[f64], note: &str) {
        self.sampled(name, samples, |s| s.max, note);
    }

    /// Reports a single reading or an exact count under `name`.
    pub fn value(&mut self, name: &str, value: f64, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples: None,
            note: note.to_string(),
        });
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail,
        });
    }

    /// The reported value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// `(name, unit)` of every metric this kind of run must report.
    fn expected(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        }
    }

    /// Metric names that are declared but missing, or reported but not
    /// declared — both are harness bugs.
    pub fn name_mismatches(&self) -> Vec<String> {
        let expected = self.expected();
        let mut bad = Vec::new();
        for (name, _) in &expected {
            let times = self.metrics.iter().filter(|m| &m.name == name).count();
            if times != 1 {
                bad.push(format!("{name}: declared, reported {times}×"));
            }
        }
        for m in &self.metrics {
            if !expected.iter().any(|(name, _)| name == &m.name) {
                bad.push(format!("{}: reported, not declared", m.name));
            }
        }
        bad
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let units = self.expected();
        let unit_of = |name: &str| {
            units
                .iter()
                .find(|(n, _)| n == name)
                .map_or("?", |(_, unit)| *unit)
        };
        let mut out = format!(
            "# perf_report  workload={}  seed={}  run={}\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        out.push_str(&format!(
            "{:<32} {:>16} {:<7} {:>6} {:>12} {:>12} {:>12}  {}\n",
            "metric", "value", "unit", "n", "q1", "median", "q3", "note"
        ));
        for m in &self.metrics {
            let dash = || "-".to_string();
            let (n, q1, median, q3) = match m.samples {
                Some(s) => (s.n.to_string(), fmt(s.q1), fmt(s.median), fmt(s.q3)),
                None => (dash(), dash(), dash(), dash()),
            };
            out.push_str(&format!(
                "{:<32} {:>16} {:<7} {:>6} {:>12} {:>12} {:>12}  {}\n",
                m.name,
                fmt(m.value),
                unit_of(&m.name),
                n,
                q1,
                median,
                q3,
                m.note
            ));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "# {}: {} — {}\n",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out.push_str(&format!(
            "# ops_attempted={} ops_failed={} correct={}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        out
    }

    /// The driver's line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let units = self.expected();
        let metrics: Vec<String> = units
            .iter()
            .filter_map(|(name, unit)| {
                let value = self.get(name)?;
                assert!(value.is_finite(), "{name} is not finite: {value}");
                Some(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Compact number formatting for the table: all significant digits the
/// JSON line carries are not needed by a reader.
fn fmt(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.4e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report(traced: bool) -> Report {
        let mut r = Report::new("packing-dense", 1, traced);
        for (i, (name, _)) in r.expected().into_iter().enumerate() {
            r.value(&name, 1.5 + i as f64, "");
        }
        r.attempted = 3;
        r
    }

    #[test]
    fn a_run_prints_exactly_the_declared_names() {
        for traced in [false, true] {
            let r = full_report(traced);
            assert!(r.name_mismatches().is_empty());
            let line = r.json_line();
            for (name, unit) in r.expected() {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn missing_and_stray_names_are_caught() {
        let mut r = full_report(false);
        r.metrics.remove(0);
        r.value("not.declared", 1.0, "");
        let bad = r.name_mismatches();
        assert_eq!(bad.len(), 2, "{bad:?}");
    }

    #[test]
    fn a_failed_check_or_op_makes_the_run_incorrect() {
        let mut r = full_report(false);
        assert!(r.correct());
        r.check("bit-identical", false, "z differs".to_string());
        assert!(!r.correct());
        let mut r = full_report(false);
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.json_line().contains("\"correct\": false"));
    }

    #[test]
    fn sampled_metrics_carry_their_quartiles() {
        let mut r = Report::new("mpc-chain", 1, false);
        r.median("latency_p50_ms", &[3.0, 1.0, 2.0], "");
        r.fastest("solve_serial_s", &[3.0, 1.0, 2.0], "");
        r.highest("throughput_rps", &[3.0, 1.0, 2.0], "");
        let values: Vec<f64> = r.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [2.0, 1.0, 3.0]);
        for m in &r.metrics {
            assert_eq!(m.samples.map(|s| (s.n, s.q1, s.q3)), Some((3, 1.0, 3.0)));
        }
        assert!(r.table().contains("solve_serial_s"));
    }
}
