//! Writing your own proximal operator: Lasso regression on a factor graph.
//!
//! Solves `minimize ½‖Aw − y‖² + λ‖w‖₁` by splitting the objective into a
//! least-squares factor (a *custom* operator whose prox solves a small
//! linear system with the in-tree Cholesky) and the library ℓ₁ factor,
//! coupled through one variable node. This is the workflow the paper's
//! §III describes: the user writes only this serial operator and gets the
//! parallel engine for free.
//!
//! Run: `cargo run --release --example custom_prox`

use paradmm::linalg::{Cholesky, Matrix};
use paradmm::prelude::*;

/// Prox of `f(w) = ½‖Aw − y‖²`:
/// `argmin ½‖Aw − y‖² + ρ/2‖w − n‖² = (AᵀA + ρI)⁻¹(Aᵀy + ρn)`.
struct LeastSquaresProx {
    ata: Matrix,
    aty: Vec<f64>,
}

impl LeastSquaresProx {
    fn new(a: &Matrix, y: &[f64]) -> Self {
        LeastSquaresProx {
            ata: a.transpose().matmul(a),
            aty: a.matvec_t(y),
        }
    }
}

impl ProxOp for LeastSquaresProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let rho = ctx.rho[0];
        let d = self.ata.rows();
        let mut m = self.ata.clone();
        for i in 0..d {
            m[(i, i)] += rho;
        }
        let rhs: Vec<f64> = (0..d).map(|i| self.aty[i] + rho * ctx.n[i]).collect();
        let sol = Cholesky::factor(&m).expect("AᵀA + ρI is SPD").solve(&rhs);
        ctx.x.copy_from_slice(&sol);
    }
    fn cost_estimate(&self, _degree: usize, dims: usize) -> f64 {
        (dims * dims * dims) as f64 / 3.0
    }
    fn name(&self) -> &'static str {
        "least-squares"
    }
}

fn main() {
    // Ground truth: sparse w* = (3, 0, −2, 0, 0); A is a fixed 20×5 design.
    let d = 5;
    let rows = 20;
    let mut a_data = Vec::with_capacity(rows * d);
    let mut state = 1234567_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1_u64 << 53) as f64) * 2.0 - 1.0
    };
    for _ in 0..rows * d {
        a_data.push(next());
    }
    let a = Matrix::from_vec(rows, d, a_data);
    let w_true = [3.0, 0.0, -2.0, 0.0, 0.0];
    let y = a.matvec(&w_true);

    // Factor graph: one d-dimensional variable, two factors.
    let lambda = 0.5;
    let mut builder = GraphBuilder::new(d);
    let w = builder.add_var();
    builder.add_factor(&[w]); // least-squares factor (custom)
    builder.add_factor(&[w]); // λ‖w‖₁ factor (library)
    let graph = builder.build();
    let proxes: Vec<Box<dyn ProxOp>> = vec![
        Box::new(LeastSquaresProx::new(&a, &y)),
        Box::new(L1Prox::new(lambda)),
    ];

    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria {
            max_iters: 5000,
            eps_abs: 1e-10,
            eps_rel: 1e-9,
            check_every: 20,
        },
    };
    let mut solver = Solver::new(graph, proxes, options);
    let report = solver.run_default();
    let w_hat = solver.store().z_var(VarId(0));

    println!(
        "lasso via custom prox, stopped after {} iterations ({:?})",
        report.iterations, report.stop_reason
    );
    println!("w_true = {w_true:?}");
    println!(
        "w_hat  = [{}]",
        w_hat
            .iter()
            .map(|v| format!("{v:+.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // The ℓ₁ penalty biases magnitudes down but must recover the support.
    assert!(
        w_hat[0] > 1.5 && w_hat[2] < -1.0,
        "support components recovered"
    );
    assert!(w_hat[1].abs() < 0.3 && w_hat[3].abs() < 0.3 && w_hat[4].abs() < 0.3);
    println!("sparse support recovered ✓");
}
