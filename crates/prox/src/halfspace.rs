//! Half-space indicator operators, including the SVM hinge factor.

use crate::{ProxCtx, ProxOp};

/// Indicator of the half-space `{s : aᵀ s ≥ b}` over the factor's flattened
/// block, solved under the weighted metric:
///
/// `argmin Σⱼ ρⱼ/2 (sⱼ − nⱼ)²  s.t.  aᵀ s ≥ b`
///
/// has the closed form `s = n + λ W⁻¹ a` with
/// `λ = max(0, (b − aᵀn) / Σⱼ aⱼ²/ρⱼ)` — a single dual multiplier, exactly
/// the Lagrangian solution the paper uses for its wall constraints
/// (Appendix A) and hinge constraints (Appendix C-3, eq. 9).
#[derive(Debug, Clone)]
pub struct HalfspaceProx {
    /// Normal vector over the flattened block.
    pub a: Vec<f64>,
    /// Offset: feasibility is `aᵀ s ≥ b`.
    pub b: f64,
}

impl HalfspaceProx {
    /// Creates the operator; `a` must be non-zero.
    pub fn new(a: Vec<f64>, b: f64) -> Self {
        assert!(
            a.iter().any(|&v| v != 0.0),
            "half-space normal must be non-zero"
        );
        HalfspaceProx { a, b }
    }

    /// Signed constraint slack `aᵀ s − b` (≥ 0 means feasible).
    pub fn slack(&self, s: &[f64]) -> f64 {
        paradmm_linalg::ops::dot(&self.a, s) - self.b
    }

    /// The closed form over `rho.len()` edges of `d` components each: the
    /// body for every shape. Inlined into [`Self::project_fixed`] it *is*
    /// the fixed-shape body, so the two cannot differ in a rounded
    /// operation; both sums run in ascending component order.
    #[inline(always)]
    fn project(a: &[f64], b: f64, n: &[f64], rho: &[f64], x: &mut [f64], d: usize) {
        let mut a_dot_n = 0.0;
        let mut quad = 0.0;
        for (i, &rho) in rho.iter().enumerate() {
            for j in i * d..(i + 1) * d {
                a_dot_n += a[j] * n[j];
                quad += a[j] * a[j] / rho;
            }
        }
        let lambda = ((b - a_dot_n) / quad).max(0.0);
        for (i, &rho) in rho.iter().enumerate() {
            for j in i * d..(i + 1) * d {
                x[j] = n[j] + lambda * a[j] / rho;
            }
        }
    }

    /// [`Self::project`] for a factor of `K` edges of `D` components:
    /// every slice is cut to its compile-time length first, so the loops
    /// unroll and the per-component bounds checks fold away.
    fn project_fixed<const K: usize, const D: usize>(&self, ctx: &mut ProxCtx<'_>) {
        let (n, x) = (&ctx.n[..K * D], &mut ctx.x[..K * D]);
        Self::project(&self.a[..K * D], self.b, n, &ctx.rho[..K], x, D);
    }
}

impl ProxOp for HalfspaceProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(self.a.len(), ctx.n.len(), "normal length mismatch");
        // The shapes the paper families instantiate: packing's wall
        // factor and the SVM's hinge over (plane, slack).
        match (ctx.rho.len(), ctx.dims) {
            (2, 2) => self.project_fixed::<2, 2>(ctx),
            (2, 3) => self.project_fixed::<2, 3>(ctx),
            (_, d) => Self::project(&self.a, self.b, ctx.n, ctx.rho, ctx.x, d),
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        // Two weighted passes over the block plus a guarded division.
        10.0 * (degree * dims) as f64 + 30.0
    }
    fn name(&self) -> &'static str {
        "halfspace"
    }
}

/// The paper's *one-point minimal-margin* SVM operator (Appendix C-3):
/// blocks `(w, b, ξ)` subject to `y(wᵀx + b) ≥ 1 − ξ`.
///
/// Layout: the factor has three edges, each a `dims`-vector —
/// edge 0 = `w` (first `data_dim` components used), edge 1 = `b`
/// (component 0), edge 2 = `ξ` (component 0). This matches the paper's
/// engine, where every edge carries the same global `dims`.
///
/// Internally this is [`HalfspaceProx`] with normal
/// `a = (y·x, 0…, y, 0…, 1, 0…)` and offset 1; the closed form is the
/// paper's eq. (9).
#[derive(Debug, Clone)]
pub struct HingeProx {
    inner: HalfspaceProx,
}

impl HingeProx {
    /// Builds the operator for data point `x` with label `y ∈ {−1, +1}`,
    /// where each edge block has `dims ≥ x.len()` components.
    pub fn new(x: &[f64], y: f64, dims: usize) -> Self {
        assert!(y == 1.0 || y == -1.0, "label must be ±1");
        assert!(dims >= x.len(), "dims must hold the data vector");
        assert!(!x.is_empty(), "data point must be non-empty");
        let mut a = vec![0.0; 3 * dims];
        for (j, &xj) in x.iter().enumerate() {
            a[j] = y * xj; // w block
        }
        a[dims] = y; // b block, component 0
        a[2 * dims] = 1.0; // ξ block, component 0
        HingeProx {
            inner: HalfspaceProx::new(a, 1.0),
        }
    }
}

impl ProxOp for HingeProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(ctx.degree(), 3, "hinge factor must touch (w, b, xi)");
        self.inner.prox(ctx);
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        self.inner.cost_estimate(degree, dims)
    }
    fn name(&self) -> &'static str {
        "hinge"
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
    /// looked up per component) — on feasible (λ = 0) and infeasible
    /// (λ > 0) points, normals with zero components, ±0 inputs.
    #[test]
    fn fixed_shapes_match_the_any_shape_body_bitwise() {
        for (k, d) in [(2usize, 2usize), (2, 3)] {
            let len = k * d;
            let (mut feasible, mut infeasible) = (0, 0);
            for (case, (n, rho)) in seeded_blocks(k, d, 96).into_iter().enumerate() {
                // The SVM hinge's normal has zero padding; every third
                // case plants one, of either sign.
                let mut a: Vec<f64> = n.iter().rev().map(|v| 0.5 - v).collect();
                if case % 3 == 0 {
                    a[case % len] = if case % 2 == 0 { 0.0 } else { -0.0 };
                }
                let op = HalfspaceProx::new(a, if case % 2 == 0 { -1.5 } else { 2.5 });
                if op.slack(&n) >= 0.0 {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }

                let fixed = output_bits(len, |x| op.prox(&mut ProxCtx::new(&n, &rho, x, d)));
                let any_shape = output_bits(len, |x| {
                    let d = std::hint::black_box(d);
                    HalfspaceProx::project(&op.a, op.b, &n, &rho, x, d)
                });
                let before = output_bits(len, |x| {
                    let (mut a_dot_n, mut quad) = (0.0, 0.0);
                    for j in 0..len {
                        a_dot_n += op.a[j] * n[j];
                        quad += op.a[j] * op.a[j] / rho[j / d];
                    }
                    let lambda = ((op.b - a_dot_n) / quad).max(0.0);
                    for j in 0..len {
                        x[j] = n[j] + lambda * op.a[j] / rho[j / d];
                    }
                });
                assert_eq!(fixed, any_shape, "({k}, {d}) case {case}");
                assert_eq!(fixed, before, "({k}, {d}) case {case}");
            }
            assert!(
                feasible > 8 && infeasible > 8,
                "({k}, {d}): {feasible} / {infeasible}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "normal length mismatch")]
    fn fixed_shape_still_rejects_a_short_normal() {
        let op = HalfspaceProx::new(vec![1.0; 5], 0.0);
        let _ = run(&op, &[0.0; 6], &[1.0, 2.0], 3); // a fast-path shape, (2, 3)
    }

    #[test]
    fn feasible_point_untouched() {
        let op = HalfspaceProx::new(vec![1.0, 0.0], 0.0); // s0 ≥ 0
        let n = [2.0, 5.0];
        let x = run(&op, &n, &[1.0, 1.0], 1);
        assert_eq!(x, n.to_vec());
    }

    #[test]
    fn infeasible_point_lands_on_boundary() {
        let op = HalfspaceProx::new(vec![1.0, 1.0], 2.0); // s0+s1 ≥ 2
        let x = run(&op, &[0.0, 0.0], &[1.0, 1.0], 1);
        assert!((op.slack(&x)).abs() < 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_projection_tilts_toward_light_rho() {
        let op = HalfspaceProx::new(vec![1.0, 1.0], 2.0);
        // Heavy rho on block 0 → block 1 absorbs the correction.
        let x = run(&op, &[0.0, 0.0], &[100.0, 1.0], 1);
        assert!(x[0] < 0.1);
        assert!(x[1] > 1.8);
        assert!(op.slack(&x).abs() < 1e-10);
    }

    #[test]
    fn halfspace_is_minimizer() {
        let op = HalfspaceProx::new(vec![1.0, -2.0, 0.5], -1.0);
        let n = [-3.0, 1.0, 0.0];
        let rho = [1.0, 2.0, 0.7];
        let x = run(&op, &n, &rho, 1);
        let a = op.a.clone();
        assert_is_minimizer(
            move |s| {
                let v: f64 = s.iter().zip(&a).map(|(si, ai)| si * ai).sum();
                if v >= -1.0 - 1e-9 {
                    0.0
                } else {
                    f64::INFINITY
                }
            },
            &n,
            &rho,
            1,
            &x,
            1e-6,
        );
    }

    #[test]
    fn hinge_matches_paper_eq9() {
        // dims = data_dim = 2 so blocks are exactly (w, b, ξ)-shaped with
        // padding only in b/ξ blocks.
        let xdata = [1.5, -0.5];
        let y = 1.0;
        let op = HingeProx::new(&xdata, y, 2);
        let n = [0.1, 0.2, -0.3, 0.0, 0.05, 0.0]; // w=(0.1,0.2), b=-0.3, ξ=0.05
        let rho = [2.0, 3.0, 4.0];
        let got = run(&op, &n, &rho, 2);

        // Paper eq. (9): α = (1 − y(n1·x + n2) − n3)⁺ / (‖x‖²/ρ1 + 1/ρ2 + 1/ρ3)
        let (r1, r2, r3) = (rho[0], rho[1], rho[2]);
        let n1 = [n[0], n[1]];
        let (n2, n3) = (n[2], n[4]);
        let margin = y * (n1[0] * xdata[0] + n1[1] * xdata[1] + n2) + n3 - 1.0;
        let xnorm2 = xdata[0] * xdata[0] + xdata[1] * xdata[1];
        let alpha = (-margin).max(0.0) / (xnorm2 / r1 + 1.0 / r2 + 1.0 / r3);
        let expect_w = [
            n1[0] + alpha / r1 * y * xdata[0],
            n1[1] + alpha / r1 * y * xdata[1],
        ];
        let expect_b = n2 + alpha / r2 * y;
        let expect_xi = n3 + alpha / r3;
        assert!((got[0] - expect_w[0]).abs() < 1e-12);
        assert!((got[1] - expect_w[1]).abs() < 1e-12);
        assert!((got[2] - expect_b).abs() < 1e-12);
        assert!((got[4] - expect_xi).abs() < 1e-12);
    }

    #[test]
    fn hinge_feasible_point_unchanged() {
        let op = HingeProx::new(&[1.0], 1.0, 1);
        // w=2, b=0, ξ=0: margin y(wx+b)=2 ≥ 1−0 ✓
        let n = [2.0, 0.0, 0.0];
        let x = run(&op, &n, &[1.0, 1.0, 1.0], 1);
        assert_eq!(x, n.to_vec());
    }

    #[test]
    fn hinge_is_minimizer() {
        let xdata = [0.8, -1.2];
        let op = HingeProx::new(&xdata, -1.0, 2);
        let n = [0.4, 0.1, 0.6, 0.0, -0.2, 0.0];
        let rho = [1.0, 2.0, 0.5];
        let x = run(&op, &n, &rho, 2);
        assert_is_minimizer(
            move |s| {
                // s = (w0,w1, b,_, ξ,_); y = −1.
                let margin = -(s[0] * xdata[0] + s[1] * xdata[1] + s[2]);
                if margin >= 1.0 - s[4] - 1e-9 {
                    0.0
                } else {
                    f64::INFINITY
                }
            },
            &n,
            &rho,
            2,
            &x,
            1e-6,
        );
    }

    #[test]
    #[should_panic(expected = "label must be")]
    fn hinge_rejects_bad_label() {
        let _ = HingeProx::new(&[1.0], 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn halfspace_rejects_zero_normal() {
        let _ = HalfspaceProx::new(vec![0.0, 0.0], 1.0);
    }
}
