//! Per-pass wall-clock accounting and the measured sweep cost model the
//! [`crate::plan::Planner`] compiles schedules from.
//!
//! Every executor runs the three fused passes `x+m | z | u+n`, so time is
//! booked per [`PassKind`]. The paper's per-sweep percentages (packing on
//! the GPU: x 31% + z 40%; MPC on CPUs: m+u+n = 60%) split the iteration
//! into its five sweeps; those are priced by the machine models in
//! `paradmm-gpusim`, which keep the five-sweep vocabulary.

use std::time::Duration;

use crate::plan::PassKind;

/// Measured per-item costs of the sweeps on this machine — the input to
/// [`crate::plan::Planner`]'s chunk-size and split decisions.
///
/// The x sweep is resolved *per factor* (proximal operators are the only
/// heterogeneous work in an iteration; the paper's future-work item 2 is
/// exactly tuning around them); the element-wise m, z and fused u+n
/// bodies are summarized by a mean per-item cost.
#[derive(Debug, Clone)]
pub struct SweepCosts {
    /// Measured seconds of each factor's proximal operator, in factor
    /// order (min over repetitions).
    pub factor_seconds: Vec<f64>,
    /// Mean seconds per edge of the `m = x + u` sweep.
    pub m_per_edge: f64,
    /// Mean seconds per variable of the z consensus average.
    pub z_per_var: f64,
    /// Mean seconds per edge of the fused u+n pass.
    pub un_per_edge: f64,
}

impl SweepCosts {
    /// Total measured x-sweep seconds (sum over factors).
    pub(crate) fn x_total(&self) -> f64 {
        self.factor_seconds.iter().sum()
    }

    /// Largest single proximal-operator cost — the indivisible task that
    /// bounds any schedule's critical path.
    pub(crate) fn max_factor(&self) -> f64 {
        self.factor_seconds.iter().fold(0.0f64, |m, &c| m.max(c))
    }

    /// Ratio of the heaviest operator to the mean (1.0 = perfectly
    /// homogeneous) — the imbalance number the planner keys weighted
    /// splits on.
    pub fn factor_imbalance(&self) -> f64 {
        if self.factor_seconds.is_empty() {
            return 1.0;
        }
        let mean = self.x_total() / self.factor_seconds.len() as f64;
        if mean > 0.0 {
            self.max_factor() / mean
        } else {
            1.0
        }
    }

    /// Predicted serial seconds of one full iteration (all three passes).
    pub(crate) fn predicted_iteration_seconds(&self, num_edges: usize, num_vars: usize) -> f64 {
        self.x_total()
            + (self.m_per_edge + self.un_per_edge) * num_edges as f64
            + self.z_per_var * num_vars as f64
    }
}

/// Accumulated wall-clock time per pass of the fused schedule.
#[derive(Debug, Clone, Default)]
pub struct UpdateTimings {
    /// Seconds per [`PassKind`], indexed by its declaration order.
    seconds: [f64; 3],
    /// Number of complete iterations these timings cover.
    pub iterations: usize,
}

impl UpdateTimings {
    /// Fresh, zeroed timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dur` to the accumulator of `pass`.
    #[inline]
    pub(crate) fn add(&mut self, pass: PassKind, dur: Duration) {
        self.seconds[pass as usize] += dur.as_secs_f64();
    }

    /// Total seconds spent in `pass`.
    #[inline]
    pub(crate) fn seconds(&self, pass: PassKind) -> f64 {
        self.seconds[pass as usize]
    }

    /// Total seconds across all three passes.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of total time spent in `pass` (0 if nothing recorded).
    pub(crate) fn fraction(&self, pass: PassKind) -> f64 {
        let t = self.total_seconds();
        if t > 0.0 {
            self.seconds(pass) / t
        } else {
            0.0
        }
    }

    /// Merges another accumulator into this one.
    pub(crate) fn merge(&mut self, other: &UpdateTimings) {
        for (s, o) in self.seconds.iter_mut().zip(other.seconds) {
            *s += o;
        }
        self.iterations += other.iterations;
    }

    /// Formats a one-line percentage breakdown like
    /// `x+m 43.2% | z 29.8% | u+n 27.0%`.
    pub fn breakdown(&self) -> String {
        PassKind::ORDER
            .iter()
            .map(|&k| format!("{} {:.1}%", k.label(), 100.0 * self.fraction(k)))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_fractions() {
        let mut t = UpdateTimings::new();
        t.add(PassKind::Xm, Duration::from_millis(30));
        t.add(PassKind::Z, Duration::from_millis(70));
        assert!((t.total_seconds() - 0.1).abs() < 1e-9);
        assert!((t.fraction(PassKind::Z) - 0.7).abs() < 1e-9);
        assert_eq!(t.fraction(PassKind::Un), 0.0);
    }

    #[test]
    fn empty_fraction_is_zero() {
        let t = UpdateTimings::new();
        assert_eq!(t.fraction(PassKind::Xm), 0.0);
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = UpdateTimings::new();
        a.add(PassKind::Un, Duration::from_secs(1));
        a.iterations = 5;
        let mut b = UpdateTimings::new();
        b.add(PassKind::Un, Duration::from_secs(2));
        b.iterations = 7;
        a.merge(&b);
        assert!((a.seconds(PassKind::Un) - 3.0).abs() < 1e-12);
        assert_eq!(a.iterations, 12);
    }

    #[test]
    fn sweep_costs_aggregate_sanely() {
        let c = SweepCosts {
            factor_seconds: vec![1e-6, 1e-6, 8e-6],
            m_per_edge: 1e-8,
            z_per_var: 2e-8,
            un_per_edge: 2e-8,
        };
        assert!((c.x_total() - 1e-5).abs() < 1e-12);
        assert_eq!(c.max_factor(), 8e-6);
        assert!((c.factor_imbalance() - 2.4).abs() < 1e-9);
        let it = c.predicted_iteration_seconds(100, 10);
        assert!((it - (1e-5 + 3e-6 + 2e-7)).abs() < 1e-12);
        let empty = SweepCosts {
            factor_seconds: vec![],
            m_per_edge: 0.0,
            z_per_var: 0.0,
            un_per_edge: 0.0,
        };
        assert_eq!(empty.factor_imbalance(), 1.0);
    }

    #[test]
    fn breakdown_formats_all_kinds() {
        let mut t = UpdateTimings::new();
        t.add(PassKind::Xm, Duration::from_secs(1));
        assert_eq!(t.breakdown(), "x+m 100.0% | z 0.0% | u+n 0.0%");
    }
}
