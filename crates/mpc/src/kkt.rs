//! Exact QP reference solver via the KKT system.
//!
//! The MPC problem is an equality-constrained convex QP, so its unique
//! optimum solves the linear KKT system
//!
//! ```text
//! [ H  Cᵀ ] [ s ]   [ 0 ]
//! [ C  0  ] [ λ ] = [ c ]
//! ```
//!
//! with `H = 2·blkdiag(Q, R, …)` and `C` stacking the dynamics and
//! initial-condition rows. For small horizons this is solved densely with
//! the in-tree LU and used as the ground truth the ADMM must reach.

use paradmm_linalg::{Lu, Matrix};

use crate::pendulum::LinearSystem;
use crate::problem::MpcConfig;

/// Solves the MPC QP exactly. Returns the stacked solution
/// `(q(0), u(0), …, q(K), u(K))` of length `(K+1)·(n+m)`.
///
/// Only intended for small `K` (dense O(((K+1)(n+m))³) solve).
pub(crate) fn solve_exact(config: &MpcConfig, sys: &LinearSystem) -> Vec<f64> {
    let n = sys.state_dim();
    let m = sys.input_dim();
    let blk = n + m;
    let k = config.horizon;
    let nv = (k + 1) * blk;
    let nc = k * n + n;
    let dim = nv + nc;
    assert!(dim <= 2000, "exact KKT solver is for small horizons only");

    let mut kkt = Matrix::zeros(dim, dim);
    let mut rhs = vec![0.0; dim];

    // H = 2·diag(Q…, R…) per block.
    for t in 0..=k {
        for i in 0..n {
            kkt[(t * blk + i, t * blk + i)] = 2.0 * config.q_weight[i];
        }
        for j in 0..m {
            let idx = t * blk + n + j;
            kkt[(idx, idx)] = 2.0 * config.r_weight;
        }
    }
    // Dynamics rows: (A+I) q_t + B u_t − q_{t+1} = 0.
    for t in 0..k {
        for row in 0..n {
            let r = nv + t * n + row;
            for col in 0..n {
                let v = sys.a[(row, col)] + if row == col { 1.0 } else { 0.0 };
                kkt[(r, t * blk + col)] = v;
                kkt[(t * blk + col, r)] = v;
            }
            for col in 0..m {
                let v = sys.b[(row, col)];
                kkt[(r, t * blk + n + col)] = v;
                kkt[(t * blk + n + col, r)] = v;
            }
            kkt[(r, (t + 1) * blk + row)] = -1.0;
            kkt[((t + 1) * blk + row, r)] = -1.0;
        }
    }
    // Initial condition rows: q(0) = q0.
    for row in 0..n {
        let r = nv + k * n + row;
        kkt[(r, row)] = 1.0;
        kkt[(row, r)] = 1.0;
        rhs[r] = config.q0[row];
    }

    let lu = Lu::factor(&kkt).expect("KKT system must be nonsingular");
    let sol = lu.solve(&rhs);
    sol[..nv].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pendulum::paper_plant;

    fn config(k: usize) -> MpcConfig {
        MpcConfig {
            horizon: k,
            q0: [0.1, 0.0, 0.05, 0.0],
            q_weight: [1.0, 0.1, 1.0, 0.1],
            r_weight: 0.1,
            rho: 2.0,
            alpha: 1.0,
        }
    }

    #[test]
    fn solution_satisfies_initial_condition() {
        let sys = paper_plant();
        let c = config(5);
        let s = solve_exact(&c, &sys);
        for i in 0..4 {
            assert!((s[i] - c.q0[i]).abs() < 1e-9, "q(0)[{i}]");
        }
    }

    #[test]
    fn solution_satisfies_dynamics() {
        let sys = paper_plant();
        let c = config(6);
        let s = solve_exact(&c, &sys);
        for t in 0..6 {
            let q: Vec<f64> = s[t * 5..t * 5 + 4].to_vec();
            let u = [s[t * 5 + 4]];
            let qn: Vec<f64> = s[(t + 1) * 5..(t + 1) * 5 + 4].to_vec();
            assert!(sys.residual(&q, &u, &qn) < 1e-8, "dynamics at t = {t}");
        }
    }

    #[test]
    fn controller_beats_doing_nothing() {
        // The plant is unstable and the horizon has no terminal cost, so
        // the *end* state may drift (turnpike effect); the optimal cost,
        // however, must beat the uncontrolled rollout by a wide margin.
        let sys = paper_plant();
        let k = 40;
        let c = config(k);
        let s = solve_exact(&c, &sys);
        let stage = |q: &[f64], u: f64| -> f64 {
            q.iter()
                .zip(&c.q_weight)
                .map(|(qi, wi)| wi * qi * qi)
                .sum::<f64>()
                + c.r_weight * u * u
        };
        let mut opt_cost = 0.0;
        for t in 0..=k {
            opt_cost += stage(&s[t * 5..t * 5 + 4], s[t * 5 + 4]);
        }
        let mut q = c.q0.to_vec();
        let mut free_cost = stage(&q, 0.0);
        for _ in 0..k {
            q = sys.step(&q, &[0.0]);
            free_cost += stage(&q, 0.0);
        }
        assert!(
            opt_cost < 0.5 * free_cost,
            "optimal cost {opt_cost} should beat uncontrolled {free_cost}"
        );
    }

    #[test]
    fn zero_initial_state_gives_zero_plan() {
        let sys = paper_plant();
        let mut c = config(8);
        c.q0 = [0.0; 4];
        let s = solve_exact(&c, &sys);
        assert!(s.iter().all(|v| v.abs() < 1e-10));
    }
}
