//! Numeric fallback proximal operator.
//!
//! Minimizes `F(s) = f(s) + Σᵢ ρᵢ/2 ‖sᵢ − nᵢ‖²` by gradient descent with
//! numerical gradients and backtracking line search. The strong convexity
//! added by the penalty term makes this robust for any smooth (or mildly
//! kinked) `f`. It exists so that
//!
//! 1. users can prototype a factor before deriving its closed form, and
//! 2. every closed-form operator in this workspace can be cross-checked
//!    against an independent solver in tests.

use crate::{ProxCtx, ProxOp};

/// Objective function type for [`NumericProx`].
pub(crate) type Objective = dyn Fn(&[f64]) -> f64 + Send + Sync;

/// Gradient-descent proximal operator for a black-box smooth objective.
pub struct NumericProx {
    f: Box<Objective>,
    max_iters: usize,
    grad_eps: f64,
    tol: f64,
}

impl NumericProx {
    /// Wraps `f` with default solver settings (500 iterations, tolerance
    /// `1e-10` on the gradient norm).
    pub fn new(f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        NumericProx {
            f: Box::new(f),
            max_iters: 500,
            grad_eps: 1e-7,
            tol: 1e-10,
        }
    }

    fn augmented(&self, s: &[f64], n: &[f64], rho: &[f64], dims: usize) -> f64 {
        let mut acc = (self.f)(s);
        for (i, &rho) in rho.iter().enumerate() {
            for j in i * dims..(i + 1) * dims {
                let d = s[j] - n[j];
                acc += 0.5 * rho * d * d;
            }
        }
        acc
    }
}

impl ProxOp for NumericProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let len = ctx.n.len();
        let mut s = ctx.n.to_vec(); // warm start at the prox center
        let mut grad = vec![0.0; len];
        let mut trial = vec![0.0; len];

        for _ in 0..self.max_iters {
            let f0 = self.augmented(&s, ctx.n, ctx.rho, ctx.dims);
            // Central-difference gradient.
            let mut gnorm2 = 0.0;
            for j in 0..len {
                let h = self.grad_eps * (1.0 + s[j].abs());
                let orig = s[j];
                s[j] = orig + h;
                let fp = self.augmented(&s, ctx.n, ctx.rho, ctx.dims);
                s[j] = orig - h;
                let fm = self.augmented(&s, ctx.n, ctx.rho, ctx.dims);
                s[j] = orig;
                grad[j] = (fp - fm) / (2.0 * h);
                gnorm2 += grad[j] * grad[j];
            }
            if gnorm2.sqrt() < self.tol {
                break;
            }
            // Backtracking line search on the steepest-descent direction.
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..40 {
                for j in 0..len {
                    trial[j] = s[j] - step * grad[j];
                }
                let ft = self.augmented(&trial, ctx.n, ctx.rho, ctx.dims);
                if ft < f0 - 1e-4 * step * gnorm2 {
                    s.copy_from_slice(&trial);
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                break; // stationary to line-search resolution
            }
        }
        ctx.x.copy_from_slice(&s);
    }

    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        // Iterative: far heavier than any closed form.
        200.0 * (degree * dims) as f64 * (degree * dims) as f64
    }

    fn name(&self) -> &'static str {
        "numeric"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{LinearProx, QuadraticProx};

    fn run(op: &dyn ProxOp, n: &[f64], rho: &[f64], dims: usize) -> Vec<f64> {
        let mut x = vec![0.0; n.len()];
        let mut ctx = ProxCtx::new(n, rho, &mut x, dims);
        op.prox(&mut ctx);
        x
    }

    #[test]
    fn zero_objective_returns_center() {
        let op = NumericProx::new(|_| 0.0);
        let n = [1.0, -2.0, 0.5];
        let x = run(&op, &n, &[1.0, 2.0, 0.5], 1);
        for j in 0..3 {
            assert!((x[j] - n[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_quadratic_closed_form() {
        let closed = QuadraticProx::diagonal(vec![2.0, 0.5], vec![1.0, -1.0]);
        let numeric =
            NumericProx::new(|s| 0.5 * (2.0 * s[0] * s[0] + 0.5 * s[1] * s[1]) - s[0] + s[1]);
        let n = [0.3, 0.9];
        let rho = [1.2, 3.4];
        let a = run(&closed, &n, &rho, 1);
        let b = run(&numeric, &n, &rho, 1);
        for j in 0..2 {
            assert!((a[j] - b[j]).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matches_linear_closed_form() {
        let closed = LinearProx::new(vec![0.7, -0.3]);
        let numeric = NumericProx::new(|s| 0.7 * s[0] - 0.3 * s[1]);
        let n = [0.2, -1.0];
        let rho = [1.5, 0.8];
        let a = run(&closed, &n, &rho, 1);
        let b = run(&numeric, &n, &rho, 1);
        for j in 0..2 {
            assert!((a[j] - b[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn handles_smooth_nonquadratic() {
        // f(s) = cosh(s) has prox-gradient fixed point solving
        // sinh(s) + ρ(s − n) = 0; verify first-order optimality numerically.
        let op = NumericProx::new(|s| s[0].cosh());
        let (n, rho) = ([2.0], [1.0]);
        let x = run(&op, &n, &rho, 1);
        let resid = x[0].sinh() + rho[0] * (x[0] - n[0]);
        assert!(resid.abs() < 1e-4, "stationarity residual {resid}");
    }

    #[test]
    fn respects_per_edge_rho_multidim() {
        // Pure quadratic f(s)=½‖s‖²: x_j = ρ n_j/(1+ρ).
        let op = NumericProx::new(|s| 0.5 * s.iter().map(|v| v * v).sum::<f64>());
        let n = [1.0, 1.0, 1.0, 1.0];
        let rho = [1.0, 3.0];
        let x = run(&op, &n, &rho, 2);
        assert!((x[0] - 0.5).abs() < 1e-5);
        assert!((x[2] - 0.75).abs() < 1e-5);
    }
}
