//! Convergence-behavior integration tests: residual decrease and warm
//! starting.

use paradmm::core::{
    AdmmProblem, BackendSpec, Solver, SolverOptions, StopReason, StoppingCriteria,
};
use paradmm::graph::{GraphBuilder, VarId};
use paradmm::prox::{ProxOp, QuadraticProx};

fn consensus_chain(k: usize, targets: &[f64]) -> (AdmmProblem, Vec<VarId>) {
    // k variables in a chain, each with a quadratic anchor.
    let mut b = GraphBuilder::new(1);
    let vars = b.add_vars(k);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..k {
        b.add_factor(&[vars[i]]);
        proxes.push(Box::new(QuadraticProx::isotropic(1, 1.0, &[targets[i]])));
    }
    for i in 0..k - 1 {
        b.add_factor(&[vars[i], vars[i + 1]]);
        proxes.push(Box::new(paradmm::prox::ConsensusEqualityProx));
    }
    (AdmmProblem::new(b.build(), proxes, 1.0, 1.0), vars)
}

#[test]
fn residuals_shrink_monotonically_ish() {
    let (problem, _) = consensus_chain(5, &[1.0, 2.0, 3.0, 4.0, 5.0]);
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria {
            max_iters: 10_000,
            eps_abs: 1e-10,
            eps_rel: 1e-8,
            check_every: 1,
        },
    };
    let mut solver = Solver::from_problem(problem, options);
    let mut history = Vec::new();
    for _ in 0..30 {
        solver.run(10);
        let r = solver.residuals();
        history.push(r.primal + r.dual);
    }
    // Combined residual after 300 iterations ≪ after 10.
    assert!(
        history.last().unwrap() < &(history[0] * 1e-2 + 1e-12),
        "residuals should decay: {history:?}"
    );
}

#[test]
fn chain_consensus_converges_to_global_mean() {
    // Consensus chain forces all variables equal; anchors pull to targets;
    // optimum of Σ(s − tᵢ)² under s shared = mean(t).
    let targets = [2.0, 4.0, 6.0, 8.0];
    let (problem, vars) = consensus_chain(4, &targets);
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria {
            max_iters: 50_000,
            eps_abs: 1e-11,
            eps_rel: 1e-10,
            check_every: 50,
        },
    };
    let mut solver = Solver::from_problem(problem, options);
    let report = solver.run_default();
    assert_eq!(report.stop_reason, StopReason::Converged);
    for &v in &vars {
        let z = solver.store().z_var(v)[0];
        assert!((z - 5.0).abs() < 1e-3, "z = {z}");
    }
}

#[test]
fn warm_start_converges_faster_than_cold() {
    let (problem, _) = consensus_chain(8, &[1.0; 8]);
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria {
            max_iters: 100_000,
            eps_abs: 1e-10,
            eps_rel: 1e-9,
            check_every: 5,
        },
    };
    let mut solver = Solver::from_problem(problem, options);
    let cold = solver.run_default();
    assert_eq!(cold.stop_reason, StopReason::Converged);
    // Re-run from the converged state: should stop almost immediately.
    let warm = solver.run_default();
    assert!(
        warm.iterations <= cold.iterations / 2 + 5,
        "warm start {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
}

#[test]
fn fixed_iteration_budget_is_respected_exactly() {
    let (problem, _) = consensus_chain(3, &[1.0, 2.0, 3.0]);
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria::fixed_iterations(123),
    };
    let mut solver = Solver::from_problem(problem, options);
    let report = solver.run(123);
    assert_eq!(report.iterations, 123);
    assert_eq!(report.timings.iterations, 123);
}
