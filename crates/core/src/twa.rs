//! Three-weight message weighting (Derbinsky, Bento, Elser, Yedidia —
//! paper reference \[9\]).
//!
//! The three-weight algorithm (TWA) replaces the uniform penalty `ρ` with
//! per-edge weight *classes*: a factor that is **certain** about a value
//! sends it with (conceptually) infinite weight, one with **no opinion**
//! sends zero weight, and everything else uses the standard weight. The
//! z-average then becomes a certainty-weighted consensus, which is what
//! makes ADMM competitive on hard non-convex problems like packing.
//!
//! Implementation: classes are realized as finite `ρ` values
//! (`ZERO_RHO`/`INF_RHO`) so the unmodified Algorithm 2 kernels apply —
//! the weighted z-average then reproduces TWA semantics to floating-point
//! accuracy. This mirrors how the reference C implementation realizes the
//! scheme, and is exactly the "improved update schemes (e.g. \[9\]) which
//! parADMM can also implement" the paper mentions.

use paradmm_graph::{EdgeId, EdgeParams, FactorGraph};

/// Weight class of an edge's outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightClass {
    /// "No opinion": the message is excluded from the consensus average.
    Zero,
    /// Standard weight `ρ₀`.
    Standard,
    /// "Certain": the message dominates the consensus average.
    Infinite,
}

/// Effective ρ used for a [`WeightClass::Zero`] edge.
pub(crate) const ZERO_RHO: f64 = 1e-12;
/// Effective ρ used for a [`WeightClass::Infinite`] edge.
pub(crate) const INF_RHO: f64 = 1e12;

/// Per-edge weight-class assignment.
#[derive(Debug, Clone)]
pub struct TwaWeights {
    classes: Vec<WeightClass>,
}

impl TwaWeights {
    /// All edges standard.
    pub fn standard(graph: &FactorGraph) -> Self {
        TwaWeights {
            classes: vec![WeightClass::Standard; graph.num_edges()],
        }
    }

    /// Sets the class of edge `e`.
    pub fn set(&mut self, e: EdgeId, class: WeightClass) {
        self.classes[e.idx()] = class;
    }

    /// The class of edge `e`.
    pub fn get(&self, e: EdgeId) -> WeightClass {
        self.classes[e.idx()]
    }

    /// Materializes the classes into per-edge ρ values with base weight
    /// `rho0`, leaving α untouched.
    pub fn apply(&self, params: &mut EdgeParams, rho0: f64) {
        assert!(rho0 > 0.0 && rho0.is_finite());
        assert_eq!(params.rho.len(), self.classes.len());
        for (r, c) in params.rho.iter_mut().zip(&self.classes) {
            *r = match c {
                WeightClass::Zero => ZERO_RHO,
                WeightClass::Standard => rho0,
                WeightClass::Infinite => INF_RHO,
            };
        }
    }

    /// Number of edges in each class: `(zero, standard, infinite)`.
    #[cfg(test)]
    pub(crate) fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.classes {
            match c {
                WeightClass::Zero => counts.0 += 1,
                WeightClass::Standard => counts.1 += 1,
                WeightClass::Infinite => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::z_update_swapped_range;
    use paradmm_graph::GraphBuilder;

    /// Two factors sharing one variable; messages 10 and 2.
    fn setup() -> (FactorGraph, EdgeParams, Vec<f64>) {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let g = b.build();
        let p = EdgeParams::uniform(&g, 1.0, 1.0);
        let m = vec![10.0, 2.0];
        (g, p, m)
    }

    #[test]
    fn standard_weights_average_evenly() {
        let (g, mut p, m) = setup();
        TwaWeights::standard(&g).apply(&mut p, 1.0);
        let mut z = [0.0f64];
        z_update_swapped_range(&g, &p, &m, &[0.0], &mut z, 0, 1);
        assert!((z[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_weight_dominates_consensus() {
        let (g, mut p, m) = setup();
        let mut w = TwaWeights::standard(&g);
        w.set(EdgeId(0), WeightClass::Infinite);
        w.apply(&mut p, 1.0);
        let mut z = [0.0f64];
        z_update_swapped_range(&g, &p, &m, &[0.0], &mut z, 0, 1);
        assert!(
            (z[0] - 10.0).abs() < 1e-6,
            "certain message must win, z = {}",
            z[0]
        );
    }

    #[test]
    fn zero_weight_is_excluded_from_consensus() {
        let (g, mut p, m) = setup();
        let mut w = TwaWeights::standard(&g);
        w.set(EdgeId(0), WeightClass::Zero);
        w.apply(&mut p, 1.0);
        let mut z = [0.0f64];
        z_update_swapped_range(&g, &p, &m, &[0.0], &mut z, 0, 1);
        assert!(
            (z[0] - 2.0).abs() < 1e-6,
            "no-opinion message must vanish, z = {}",
            z[0]
        );
    }

    #[test]
    fn census_counts() {
        let (g, _, _) = setup();
        let mut w = TwaWeights::standard(&g);
        w.set(EdgeId(1), WeightClass::Infinite);
        assert_eq!(w.census(), (0, 1, 1));
        assert_eq!(w.get(EdgeId(1)), WeightClass::Infinite);
    }
}
