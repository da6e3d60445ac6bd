//! Convergence-behavior integration tests: residual decrease, adaptive ρ,
//! three-weight propagation, and warm starting.

use paradmm::core::{
    AdmmProblem, BackendSpec, ResidualBalancing, SerialBackend, Solver, SolverOptions, StopReason,
    StoppingCriteria, SweepExecutor, TwaWeights, UpdateTimings, WeightClass,
};
use paradmm::graph::{EdgeId, EdgeParams, GraphBuilder, VarId, VarStore};
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
fn adaptive_rho_accelerates_badly_scaled_problem() {
    // A deliberately mis-scaled ρ: residual balancing must fix it and
    // converge in fewer iterations than the fixed-ρ run.
    let build = || {
        let (p, _) = consensus_chain(6, &[10.0, -10.0, 10.0, -10.0, 10.0, -10.0]);
        p
    };
    let iterations_with = |adapt: bool| -> usize {
        let problem = build();
        let mut store = VarStore::zeros(problem.graph());
        let mut problem = problem;
        // Mis-scale: tiny rho.
        let rho0 = EdgeParams::uniform(problem.graph(), 0.01, 1.0);
        *problem.params_mut() = rho0;
        let balancer = ResidualBalancing::default();
        let mut acc = 1.0;
        let mut t = UpdateTimings::new();
        for outer in 0..200 {
            SerialBackend.run_block(&problem, &mut store, 10, &mut t);
            let r = paradmm::core::Residuals::compute(problem.graph(), problem.params(), &store);
            let n_comp = problem.graph().num_edges();
            if r.converged(n_comp, 1e-8, 1e-6) {
                return (outer + 1) * 10;
            }
            if adapt {
                balancer.adapt(&mut problem, &mut store, &r, &mut acc);
            }
        }
        2000
    };
    let fixed = iterations_with(false);
    let adaptive = iterations_with(true);
    assert!(
        adaptive < fixed,
        "adaptive ρ should converge faster: adaptive {adaptive} vs fixed {fixed}"
    );
}

#[test]
fn twa_infinite_weight_pins_variable() {
    // Factor 0 is *certain* (a near-hard constraint s = 7, strong enough
    // to pin its output even against an infinite-weight prox input);
    // factor 1 is a soft anchor at 1. TWA semantics: broadcasting the
    // certain factor's message with infinite weight makes the consensus
    // follow it; with standard weights the soft anchor still tugs z away.
    let build = |certain: bool| {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1e15, &[7.0])),
            Box::new(QuadraticProx::isotropic(1, 10.0, &[1.0])),
        ];
        let graph = b.build();
        let mut weights = TwaWeights::standard(&graph);
        if certain {
            weights.set(EdgeId(0), WeightClass::Infinite);
        }
        let mut problem = AdmmProblem::new(graph, proxes, 1.0, 1.0);
        weights.apply(problem.params_mut(), 1.0);
        let _ = (v, VarId(0));
        problem
    };
    // Both weightings converge to ~7 in the limit (the anchor is near-
    // hard); TWA's value is the *transient* — the certain message takes
    // over the consensus immediately instead of being averaged in.
    let run = |problem: &AdmmProblem, iters: usize| {
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(problem, &mut store, iters, &mut t);
        store.z_var(VarId(0))[0]
    };
    let z_twa = run(&build(true), 5);
    let z_std = run(&build(false), 5);
    let (err_twa, err_std) = ((z_twa - 7.0).abs(), (z_std - 7.0).abs());
    assert!(
        err_twa < 0.01,
        "TWA must pin z to 7 within a few iterations, z = {z_twa}"
    );
    assert!(
        err_std > 10.0 * err_twa,
        "standard weights should still be compromising after 5 iterations: twa {z_twa} vs std {z_std}"
    );
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
