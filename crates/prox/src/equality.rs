//! Equality-constrained operators: pairwise/chain consensus and general
//! affine subspaces.

use paradmm_linalg::{project_affine_weighted, Matrix};

use crate::{ProxCtx, ProxOp};

/// Indicator of `s₁ = s₂ = … = s_k` across all edge blocks — the paper's
/// Appendix C-4 *equality* operator, generalized from 2 to `k` blocks:
///
/// `x_i = (Σ_j ρ_j n_j) / (Σ_j ρ_j)`  for every block `i`.
#[derive(Debug, Clone, Default)]
pub struct ConsensusEqualityProx;

impl ConsensusEqualityProx {
    /// The weighted average over `rho.len()` blocks of `d` components
    /// each: the body for every shape. Inlined into
    /// [`Self::average_fixed`] it *is* the fixed-shape body, so the two
    /// cannot differ in a rounded operation; every sum runs in ascending
    /// edge order.
    #[inline(always)]
    fn average(n: &[f64], rho: &[f64], x: &mut [f64], d: usize) {
        let k = rho.len();
        let rho_sum: f64 = rho.iter().sum();
        assert!(rho_sum > 0.0, "consensus needs positive total weight");
        for c in 0..d {
            let mut acc = 0.0;
            for i in 0..k {
                acc += rho[i] * n[i * d + c];
            }
            let avg = acc / rho_sum;
            for i in 0..k {
                x[i * d + c] = avg;
            }
        }
    }

    /// [`Self::average`] for a factor of `K` edges of `D` components:
    /// every slice is cut to its compile-time length first, so the loops
    /// unroll and the per-component bounds checks fold away.
    fn average_fixed<const K: usize, const D: usize>(ctx: &mut ProxCtx<'_>) {
        let (n, x) = (&ctx.n[..K * D], &mut ctx.x[..K * D]);
        Self::average(n, &ctx.rho[..K], x, D);
    }
}

impl ProxOp for ConsensusEqualityProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        // The shape the SVM's copy chain instantiates.
        match (ctx.rho.len(), ctx.dims) {
            (2, 3) => Self::average_fixed::<2, 3>(ctx),
            (_, d) => Self::average(ctx.n, ctx.rho, ctx.x, d),
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        6.0 * (degree * dims) as f64 + 10.0
    }
    fn name(&self) -> &'static str {
        "consensus"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::Consensus)
    }
}

/// Indicator of the affine set `{s : M s = c}` over the factor's flattened
/// block — used by the MPC dynamics factor
/// `q(t+1) − q(t) = A q(t) + B u(t)` and any other linear-equality coupling.
///
/// Solves the weighted projection
/// `argmin Σⱼ ρⱼ/2 ‖sⱼ − nⱼ‖² s.t. M s = c` via a Cholesky factorization of
/// `M W⁻¹ Mᵀ`. Nothing is precomputed or cached: every call expands ρ over
/// the components, rebuilds `M W⁻¹ Mᵀ`, factors it and solves, through
/// seven heap allocations ([`project_affine_weighted`]) — also in classical
/// fixed-ρ ADMM, where the factor would be the same every time.
#[derive(Debug, Clone)]
pub struct AffineEqualityProx {
    m: Matrix,
    c: Vec<f64>,
}

impl AffineEqualityProx {
    /// Creates the operator from the constraint `M s = c`; `M` is
    /// `(#constraints) × (degree·dims)` over the flattened block and must
    /// have full row rank.
    pub fn new(m: Matrix, c: Vec<f64>) -> Self {
        assert_eq!(m.rows(), c.len(), "constraint rhs length mismatch");
        AffineEqualityProx { m, c }
    }

    /// The constraint matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.m
    }
}

impl ProxOp for AffineEqualityProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(self.m.cols(), ctx.n.len(), "constraint width mismatch");
        // Expand per-edge rho over components.
        let mut w = vec![0.0; ctx.n.len()];
        for (wi, &rho) in w.chunks_exact_mut(ctx.dims).zip(ctx.rho) {
            wi.fill(rho);
        }
        let s = project_affine_weighted(&self.m, &self.c, ctx.n, &w)
            .expect("affine constraint must have full row rank");
        ctx.x.copy_from_slice(&s);
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        // One small Cholesky + two mat-vecs; dominated by rows² · cols.
        let n = (degree * dims) as f64;
        let r = self.m.rows() as f64;
        r * r * n + r * r * r / 3.0 + 2.0 * r * n
    }
    fn name(&self) -> &'static str {
        "affine-eq"
    }
    fn spec(&self) -> Option<crate::ProxSpec> {
        Some(crate::ProxSpec::AffineEquality {
            rows: self.m.rows(),
            cols: self.m.cols(),
            data: self.m.as_slice().to_vec(),
            c: self.c.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_is_minimizer, output_bits, seeded_blocks};
    use paradmm_linalg::ops;

    fn run(op: &dyn ProxOp, n: &[f64], rho: &[f64], dims: usize) -> Vec<f64> {
        let mut x = vec![0.0; n.len()];
        let mut ctx = ProxCtx::new(n, rho, &mut x, dims);
        op.prox(&mut ctx);
        x
    }

    /// On the shape with a fixed-shape body, `prox` must agree bit for bit
    /// with the any-shape body run at a shape the compiler cannot see —
    /// non-uniform per-edge ρ, ±0 inputs.
    #[test]
    fn consensus_fixed_shape_matches_the_any_shape_body_bitwise() {
        let (k, d) = (2usize, 3usize);
        for (case, (n, rho)) in seeded_blocks(k, d, 64).into_iter().enumerate() {
            let fixed = output_bits(k * d, |x| {
                ConsensusEqualityProx.prox(&mut ProxCtx::new(&n, &rho, x, d))
            });
            let any_shape = output_bits(k * d, |x| {
                ConsensusEqualityProx::average(&n, &rho, x, std::hint::black_box(d))
            });
            assert_eq!(fixed, any_shape, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn consensus_fixed_shape_still_rejects_zero_weight() {
        let _ = run(&ConsensusEqualityProx, &[1.0; 6], &[0.0, 0.0], 3);
    }

    #[test]
    fn consensus_two_blocks_matches_paper_eq11() {
        let (r1, r2) = (2.0, 3.0);
        let x = run(&ConsensusEqualityProx, &[4.0, -1.0], &[r1, r2], 1);
        let expect = (r1 * 4.0 + -r2) / (r1 + r2);
        assert!((x[0] - expect).abs() < 1e-12);
        assert_eq!(x[0], x[1]);
    }

    #[test]
    fn consensus_multidim() {
        let n = [1.0, 10.0, 3.0, 20.0]; // two blocks of dims=2
        let x = run(&ConsensusEqualityProx, &n, &[1.0, 1.0], 2);
        assert_eq!(x, vec![2.0, 15.0, 2.0, 15.0]);
    }

    #[test]
    fn consensus_is_minimizer() {
        let n = [0.5, -2.0, 1.5];
        let rho = [1.0, 2.0, 0.5];
        let x = run(&ConsensusEqualityProx, &n, &rho, 1);
        assert_is_minimizer(
            |s| {
                let eq = (s[0] - s[1]).abs() < 1e-9 && (s[1] - s[2]).abs() < 1e-9;
                if eq {
                    0.0
                } else {
                    f64::INFINITY
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
    fn consensus_weighted_toward_heavy_edge() {
        let x = run(&ConsensusEqualityProx, &[0.0, 10.0], &[1.0, 9.0], 1);
        assert!((x[0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn affine_projects_onto_constraint() {
        // s0 + s1 = 4
        let op = AffineEqualityProx::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![4.0]);
        let x = run(&op, &[0.0, 0.0], &[1.0, 1.0], 1);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn affine_equals_consensus_on_equality_constraint() {
        // The pairwise consensus is the affine constraint s0 − s1 = 0.
        let op = AffineEqualityProx::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.0]);
        let n = [4.0, -1.0];
        let rho = [2.0, 3.0];
        let a = run(&op, &n, &rho, 1);
        let b = run(&ConsensusEqualityProx, &n, &rho, 1);
        assert!(ops::dist2(&a, &b) < 1e-12);
    }

    #[test]
    fn affine_respects_weights() {
        let op = AffineEqualityProx::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.0]);
        let x = run(&op, &[0.0, 10.0], &[1e6, 1.0], 1);
        assert!(x[0].abs() < 0.01, "heavy-rho block should barely move");
    }

    #[test]
    fn affine_is_minimizer() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, -1.0, 0.5]]);
        let op = AffineEqualityProx::new(m.clone(), vec![1.0]);
        let n = [0.3, -0.7, 1.9, 0.0];
        let rho = [1.0, 2.5]; // dims=2 → 2 edges
        let x = run(&op, &n, &rho, 2);
        assert_is_minimizer(
            |s| {
                let r = m.matvec(s)[0] - 1.0;
                if r.abs() < 1e-8 {
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
    fn affine_multirow_constraint() {
        // s0 = 1, s1 = 2 exactly.
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let op = AffineEqualityProx::new(m, vec![1.0, 2.0]);
        let x = run(&op, &[9.0, -9.0], &[1.0, 1.0], 1);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
