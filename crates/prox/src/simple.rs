//! Separable closed-form operators: zero, linear, quadratic, box, ℓ₁,
//! semi-lasso.

use crate::{ProxCtx, ProxOp};

/// `f ≡ 0`: the prox is the identity, `x = n`. Useful for pass-through
/// factors and as a baseline in scheduler benchmarks.
#[derive(Debug, Clone, Default)]
pub struct ZeroProx;

impl ProxOp for ZeroProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        ctx.copy_n_to_x();
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::Zero)
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        (degree * dims) as f64
    }
    fn name(&self) -> &'static str {
        "zero"
    }
}

/// Linear objective `f(s) = gᵀ s` over the flattened block:
/// `xⱼ = nⱼ − gⱼ/ρⱼ` (with `ρ` expanded per component).
#[derive(Debug, Clone)]
pub struct LinearProx {
    /// Gradient vector, one entry per flattened component.
    pub g: Vec<f64>,
}

impl LinearProx {
    /// Creates the operator; `g` must match the factor's flattened length.
    pub fn new(g: Vec<f64>) -> Self {
        LinearProx { g }
    }
}

impl ProxOp for LinearProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(self.g.len(), ctx.n.len(), "gradient length mismatch");
        let d = ctx.dims;
        for (i, &rho) in ctx.rho.iter().enumerate() {
            for j in i * d..(i + 1) * d {
                ctx.x[j] = ctx.n[j] - self.g[j] / rho;
            }
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        3.0 * (degree * dims) as f64
    }
    fn name(&self) -> &'static str {
        "linear"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::Linear { g: self.g.clone() })
    }
}

/// Diagonal quadratic `f(s) = ½ sᵀ diag(q) s − gᵀ s + ½ Σ cᵢ‖sᵢ − tᵢ‖²`
/// expressed in its most general separable form: per flattened component
/// `f_j(s_j) = ½ q_j s_j² − g_j s_j`, giving
///
/// `x_j = (ρ_j n_j + g_j) / (q_j + ρ_j)`.
///
/// `q_j` may be negative (non-convex, e.g. the packing radius-maximization
/// PO `−½r²`) as long as `q_j + ρ_j > 0`, which the operator asserts.
#[derive(Debug, Clone)]
pub struct QuadraticProx {
    /// Per-component curvature `q`.
    pub q: Vec<f64>,
    /// Per-component linear term `g`.
    pub g: Vec<f64>,
}

impl QuadraticProx {
    /// General diagonal quadratic.
    pub fn diagonal(q: Vec<f64>, g: Vec<f64>) -> Self {
        assert_eq!(q.len(), g.len());
        QuadraticProx { q, g }
    }

    /// Isotropic tracking cost `(weight/2)·‖s − target‖²` over a block of
    /// `len` components: `q = weight`, `g = weight·target`.
    pub fn isotropic(len: usize, weight: f64, target: &[f64]) -> Self {
        assert!(weight >= 0.0, "tracking weight must be non-negative");
        assert_eq!(target.len(), len);
        QuadraticProx {
            q: vec![weight; len],
            g: target.iter().map(|t| weight * t).collect(),
        }
    }
}

impl QuadraticProx {
    /// The closed form over `rho.len()` edges of `d` components each: the
    /// body for every shape. Inlined into [`Self::solve_fixed`] it *is*
    /// the fixed-shape body, so the two cannot differ in a rounded
    /// operation.
    #[inline(always)]
    fn solve(q: &[f64], g: &[f64], n: &[f64], rho: &[f64], x: &mut [f64], d: usize) {
        for (i, &rho) in rho.iter().enumerate() {
            for j in i * d..(i + 1) * d {
                let denom = q[j] + rho;
                assert!(denom > 0.0, "q + rho must stay positive (got {denom})");
                x[j] = (rho * n[j] + g[j]) / denom;
            }
        }
    }

    /// [`Self::solve`] for a factor of `K` edges of `D` components: every
    /// slice is cut to its compile-time length first, so the loops unroll
    /// and the per-component bounds checks fold away.
    fn solve_fixed<const K: usize, const D: usize>(&self, ctx: &mut ProxCtx<'_>) {
        let (q, g) = (&self.q[..K * D], &self.g[..K * D]);
        let (n, x) = (&ctx.n[..K * D], &mut ctx.x[..K * D]);
        Self::solve(q, g, n, &ctx.rho[..K], x, D);
    }
}

impl ProxOp for QuadraticProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(self.q.len(), ctx.n.len(), "quadratic length mismatch");
        // The shapes the paper families instantiate: packing's radius
        // factor, the SVM's norm factor, MPC's stage cost.
        match (ctx.rho.len(), ctx.dims) {
            (1, 2) => self.solve_fixed::<1, 2>(ctx),
            (1, 3) => self.solve_fixed::<1, 3>(ctx),
            (1, 5) => self.solve_fixed::<1, 5>(ctx),
            (_, d) => Self::solve(&self.q, &self.g, ctx.n, ctx.rho, ctx.x, d),
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        8.0 * (degree * dims) as f64 + 10.0
    }
    fn name(&self) -> &'static str {
        "quadratic"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::Quadratic {
            q: self.q.clone(),
            g: self.g.clone(),
        })
    }
}

/// Indicator of the box `[lo, hi]` applied component-wise: `x = clamp(n)`.
#[derive(Debug, Clone)]
pub struct BoxProx {
    /// Lower bound per component (broadcast if length 1).
    pub lo: f64,
    /// Upper bound per component.
    pub hi: f64,
}

impl BoxProx {
    /// Creates a box prox; requires `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "box bounds inverted");
        BoxProx { lo, hi }
    }
}

impl ProxOp for BoxProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        for j in 0..ctx.n.len() {
            ctx.x[j] = ctx.n[j].clamp(self.lo, self.hi);
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        2.0 * (degree * dims) as f64
    }
    fn name(&self) -> &'static str {
        "box"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::Box {
            lo: self.lo,
            hi: self.hi,
        })
    }
}

/// `f(s) = λ‖s‖₁`: per-component soft-thresholding
/// `x_j = sign(n_j)·max(0, |n_j| − λ/ρ_j)`.
#[derive(Debug, Clone)]
pub struct L1Prox {
    /// Regularization strength λ ≥ 0.
    pub lambda: f64,
}

impl L1Prox {
    /// Creates the operator; λ must be non-negative.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        L1Prox { lambda }
    }
}

impl ProxOp for L1Prox {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let d = ctx.dims;
        for (i, &rho) in ctx.rho.iter().enumerate() {
            let t = self.lambda / rho;
            for j in i * d..(i + 1) * d {
                let n = ctx.n[j];
                ctx.x[j] = n.signum() * (n.abs() - t).max(0.0);
            }
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        5.0 * (degree * dims) as f64
    }
    fn name(&self) -> &'static str {
        "l1"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::L1 {
            lambda: self.lambda,
        })
    }
}

/// The paper's *minimal-error* SVM operator (Appendix C-1, eq. 4–5):
/// `f(ξ) = λ Σ ξ_j + indicator(ξ ≥ 0)`, whose prox is the "semi-lasso"
/// `ξ̂_j = (n_j − λ/ρ_j)⁺`.
#[derive(Debug, Clone)]
pub struct SemiLassoProx {
    /// Slack penalty λ ≥ 0.
    pub lambda: f64,
}

impl SemiLassoProx {
    /// Creates the operator; λ must be non-negative.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        SemiLassoProx { lambda }
    }
}

impl ProxOp for SemiLassoProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let d = ctx.dims;
        for (i, &rho) in ctx.rho.iter().enumerate() {
            let t = self.lambda / rho;
            for j in i * d..(i + 1) * d {
                ctx.x[j] = (ctx.n[j] - t).max(0.0);
            }
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        4.0 * (degree * dims) as f64
    }
    fn name(&self) -> &'static str {
        "semi-lasso"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::SemiLasso {
            lambda: self.lambda,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_is_minimizer, output_bits, seeded_blocks};

    fn run(op: &dyn ProxOp, n: &[f64], rho: &[f64], dims: usize) -> Vec<f64> {
        let mut x = vec![0.0; n.len()];
        let mut ctx = ProxCtx::new(n, rho, &mut x, dims);
        op.prox(&mut ctx);
        x
    }

    /// On the shapes with a fixed-shape body, `prox` must agree bit for
    /// bit with the any-shape body run at a shape the compiler cannot
    /// see, and with the formula as it stood before either existed (ρ
    /// looked up per component) — curvatures of both signs and zero,
    /// ±0 inputs and linear terms.
    #[test]
    fn quadratic_fixed_shapes_match_the_any_shape_body_bitwise() {
        for (k, d) in [(1usize, 2usize), (1, 3), (1, 5)] {
            let len = k * d;
            for (case, (n, rho)) in seeded_blocks(k, d, 64).into_iter().enumerate() {
                // q + ρ stays positive: ρ ≥ 0.25 and q > −0.2.
                let q: Vec<f64> = n.iter().map(|v| 0.1 * v).collect();
                let mut g: Vec<f64> = n.iter().rev().map(|v| 1.0 - v).collect();
                g[case % len] = if case % 2 == 0 { 0.0 } else { -0.0 };
                let op = QuadraticProx::diagonal(q, g);

                let fixed = output_bits(len, |x| op.prox(&mut ProxCtx::new(&n, &rho, x, d)));
                let any_shape = output_bits(len, |x| {
                    let d = std::hint::black_box(d);
                    QuadraticProx::solve(&op.q, &op.g, &n, &rho, x, d)
                });
                let before = output_bits(len, |x| {
                    for j in 0..len {
                        let rho = rho[j / d];
                        x[j] = (rho * n[j] + op.g[j]) / (op.q[j] + rho);
                    }
                });
                assert_eq!(fixed, any_shape, "({k}, {d}) case {case}");
                assert_eq!(fixed, before, "({k}, {d}) case {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "quadratic length mismatch")]
    fn quadratic_fixed_shape_still_rejects_a_short_curvature() {
        let op = QuadraticProx::diagonal(vec![1.0; 2], vec![0.0; 2]);
        let _ = run(&op, &[0.0; 3], &[1.0], 3); // a fast-path shape, (1, 3)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn quadratic_fixed_shape_still_rejects_degenerate_curvature() {
        let op = QuadraticProx::diagonal(vec![0.0, 0.0, -1.0], vec![0.0; 3]);
        let _ = run(&op, &[1.0; 3], &[1.0], 3); // q + rho = 0 in the last component
    }

    #[test]
    fn zero_is_identity() {
        let x = run(&ZeroProx, &[1.0, -2.0, 3.0], &[1.0, 2.0, 0.5], 1);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn linear_shifts_by_gradient_over_rho() {
        let op = LinearProx::new(vec![2.0, -4.0]);
        let x = run(&op, &[1.0, 1.0], &[2.0, 2.0], 1);
        assert_eq!(x, vec![0.0, 3.0]);
    }

    #[test]
    fn linear_is_minimizer() {
        let op = LinearProx::new(vec![0.7, -0.3]);
        let n = [0.2, -1.0];
        let rho = [1.5, 0.8];
        let x = run(&op, &n, &rho, 1);
        assert_is_minimizer(|s| 0.7 * s[0] - 0.3 * s[1], &n, &rho, 1, &x, 1e-7);
    }

    #[test]
    fn quadratic_isotropic_average() {
        // (1/2)(s-5)^2 with rho=1, n=1 → x = (1·1 + 5)/(1+1) = 3.
        let op = QuadraticProx::isotropic(1, 1.0, &[5.0]);
        let x = run(&op, &[1.0], &[1.0], 1);
        assert!((x[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_nonconvex_radius_po() {
        // Paper packing PO: argmin −½r² + ρ/2(r−n)² = ρn/(ρ−1), ρ>1.
        let op = QuadraticProx::diagonal(vec![-1.0], vec![0.0]);
        let (rho, n) = (3.0, 2.0);
        let x = run(&op, &[n], &[rho], 1);
        assert!((x[0] - rho * n / (rho - 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn quadratic_rejects_degenerate_curvature() {
        let op = QuadraticProx::diagonal(vec![-1.0], vec![0.0]);
        let _ = run(&op, &[1.0], &[1.0], 1); // q + rho = 0
    }

    #[test]
    fn quadratic_is_minimizer() {
        let op = QuadraticProx::diagonal(vec![2.0, 0.5], vec![1.0, -1.0]);
        let n = [0.3, 0.9];
        let rho = [1.2, 3.4];
        let x = run(&op, &n, &rho, 1);
        assert_is_minimizer(
            |s| 0.5 * (2.0 * s[0] * s[0] + 0.5 * s[1] * s[1]) - (s[0] - s[1]),
            &n,
            &rho,
            1,
            &x,
            1e-7,
        );
    }

    #[test]
    fn box_clamps() {
        let op = BoxProx::new(-1.0, 1.0);
        let x = run(&op, &[-5.0, 0.5, 5.0], &[1.0, 1.0, 1.0], 1);
        assert_eq!(x, vec![-1.0, 0.5, 1.0]);
    }

    #[test]
    fn l1_soft_threshold() {
        let op = L1Prox::new(1.0);
        let x = run(&op, &[2.0, -0.5, -3.0], &[1.0, 1.0, 1.0], 1);
        assert_eq!(x, vec![1.0, 0.0, -2.0]);
    }

    #[test]
    fn l1_respects_per_edge_rho() {
        let op = L1Prox::new(1.0);
        // With rho=2 the threshold halves.
        let x = run(&op, &[2.0], &[2.0], 1);
        assert_eq!(x, vec![1.5]);
    }

    #[test]
    fn semilasso_matches_paper_eq5() {
        let op = SemiLassoProx::new(0.6);
        let x = run(&op, &[1.0, 0.1, -2.0], &[2.0, 1.0, 1.0], 1);
        assert_eq!(x, vec![0.7, 0.0, 0.0]);
    }

    #[test]
    fn semilasso_is_minimizer() {
        let op = SemiLassoProx::new(0.3);
        let n = [0.8, -0.2];
        let rho = [1.0, 2.0];
        let x = run(&op, &n, &rho, 1);
        assert_is_minimizer(
            |s| {
                if s.iter().any(|&v| v < 0.0) {
                    f64::INFINITY
                } else {
                    0.3 * s.iter().sum::<f64>()
                }
            },
            &n,
            &rho,
            1,
            &x,
            1e-7,
        );
    }

    #[test]
    fn multidim_blocks_use_edge_rho() {
        // dims=2, two edges with different rho; quadratic isotropic target 0.
        let op = QuadraticProx::isotropic(4, 1.0, &[0.0; 4]);
        let n = [2.0, 2.0, 2.0, 2.0];
        let x = run(&op, &n, &[1.0, 3.0], 2);
        assert!((x[0] - 1.0).abs() < 1e-12); // rho 1: 2·1/2
        assert!((x[2] - 1.5).abs() < 1e-12); // rho 3: 2·3/4
    }
}
