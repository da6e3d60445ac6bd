//! Factor-graph construction for MPC (paper Figure 9).

use std::sync::Arc;

use paradmm_core::{
    AdmmProblem, BackendSpec, ProxOp, Solver, SolverOptions, StoppingCriteria, SweepExecutor,
};
use paradmm_graph::{GraphBuilder, VarId, VarStore};
use paradmm_linalg::Matrix;
use paradmm_prox::{AffineEqualityProx, QuadraticProx};

use crate::pendulum::LinearSystem;

/// Parameters of an MPC instance.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Prediction horizon `K` (the paper sweeps 200 … 10⁵).
    pub horizon: usize,
    /// Known initial state `q₀`.
    pub q0: [f64; 4],
    /// Diagonal of the state cost `Q` (the paper uses diagonal `Q`, `R`).
    pub q_weight: [f64; 4],
    /// Input cost `R` (scalar input).
    pub r_weight: f64,
    /// Penalty weight ρ.
    pub rho: f64,
    /// Dual step α.
    pub alpha: f64,
}

impl MpcConfig {
    /// Paper-style defaults for horizon `k`.
    pub fn new(k: usize) -> Self {
        MpcConfig {
            horizon: k,
            q0: [0.1, 0.0, 0.05, 0.0],
            q_weight: [1.0, 0.1, 1.0, 0.1],
            r_weight: 0.1,
            rho: 2.0,
            alpha: 1.0,
        }
    }
}

/// A built MPC instance.
pub struct MpcProblem {
    config: MpcConfig,
    sys: LinearSystem,
    step_vars: Vec<VarId>,
    init_factor: paradmm_graph::FactorId,
}

/// An extracted state/input trajectory.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// `q(t)` for `t = 0..=K`.
    pub states: Vec<[f64; 4]>,
    /// `u(t)` for `t = 0..=K`.
    pub inputs: Vec<f64>,
}

impl Trajectory {
    /// The quadratic objective `Σ qᵀQq + uᵀRu`.
    pub fn cost(&self, config: &MpcConfig) -> f64 {
        let mut acc = 0.0;
        for (q, &u) in self.states.iter().zip(&self.inputs) {
            for i in 0..4 {
                acc += config.q_weight[i] * q[i] * q[i];
            }
            acc += config.r_weight * u * u;
        }
        acc
    }

    /// Worst dynamics violation across the horizon.
    pub fn max_dynamics_residual(&self, sys: &LinearSystem) -> f64 {
        let mut worst = 0.0_f64;
        for t in 0..self.states.len() - 1 {
            worst =
                worst.max(sys.residual(&self.states[t], &[self.inputs[t]], &self.states[t + 1]));
        }
        worst
    }
}

impl MpcProblem {
    /// Builds the factor graph of paper Figure 9: one variable node per
    /// time step holding `(q(t), u(t))` (`dims = 5`), `K+1` cost factors,
    /// `K` dynamics factors, one initial-condition factor —
    /// `3K + 2` edges, linear in `K`. As in the paper, the horizon
    /// repeats one stage-cost operator and one dynamics operator: the
    /// factors of each kind share a single instance.
    pub fn build(config: MpcConfig, sys: LinearSystem) -> (Self, AdmmProblem) {
        assert!(config.horizon >= 1, "horizon must be at least 1");
        assert_eq!(sys.state_dim(), 4, "paper plant has 4 states");
        assert_eq!(sys.input_dim(), 1, "paper plant has 1 input");
        let k = config.horizon;
        let dims = 5;
        let mut b = GraphBuilder::with_capacity(dims, 2 * k + 2, 3 * k + 2);
        let step_vars = b.add_vars(k + 1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::with_capacity(2 * k + 2);

        // Cost factors: q(t)ᵀQq(t) + R u(t)² = ½ sᵀ diag(2Q, 2R) s. Every
        // step has the same cost, so the K+1 factors share one operator.
        let stage_cost = Arc::new(QuadraticProx::diagonal(
            vec![
                2.0 * config.q_weight[0],
                2.0 * config.q_weight[1],
                2.0 * config.q_weight[2],
                2.0 * config.q_weight[3],
                2.0 * config.r_weight,
            ],
            vec![0.0; 5],
        ));
        for t in 0..=k {
            b.add_factor(&[step_vars[t]]);
            proxes.push(Box::new(Arc::clone(&stage_cost)));
        }
        // Dynamics factors: (A+I) q_t + B u_t − q_{t+1} = 0 over the
        // stacked block s = (q_t, u_t, q_{t+1}, u_{t+1}) ∈ R¹⁰, one
        // operator shared by the K steps.
        let mut m = Matrix::zeros(4, 10);
        for row in 0..4 {
            for col in 0..4 {
                m[(row, col)] = sys.a[(row, col)] + if row == col { 1.0 } else { 0.0 };
            }
            m[(row, 4)] = sys.b[(row, 0)];
            m[(row, 5 + row)] = -1.0;
        }
        let dynamics = Arc::new(AffineEqualityProx::new(m, vec![0.0; 4]));
        for t in 0..k {
            b.add_factor(&[step_vars[t], step_vars[t + 1]]);
            proxes.push(Box::new(Arc::clone(&dynamics)));
        }
        // Initial condition: q(0) = q₀ over block (q_0, u_0).
        let init_factor = {
            let f = b.add_factor(&[step_vars[0]]);
            proxes.push(Box::new(init_condition_prox(config.q0)));
            f
        };

        let graph = b.build();
        debug_assert_eq!(graph.num_edges(), 3 * k + 2);
        debug_assert_eq!(graph.num_vars(), k + 1);
        let problem = AdmmProblem::new(graph, proxes, config.rho, config.alpha);
        (
            MpcProblem {
                config,
                sys,
                step_vars,
                init_factor,
            },
            problem,
        )
    }

    /// The instance parameters.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// The plant.
    pub fn system(&self) -> &LinearSystem {
        &self.sys
    }

    /// Reads the trajectory out of the consensus variables.
    pub fn extract(&self, store: &VarStore) -> Trajectory {
        let mut states = Vec::with_capacity(self.step_vars.len());
        let mut inputs = Vec::with_capacity(self.step_vars.len());
        for &v in &self.step_vars {
            let z = store.z_var(v);
            states.push([z[0], z[1], z[2], z[3]]);
            inputs.push(z[4]);
        }
        Trajectory { states, inputs }
    }

    /// Prepares a warm start for the next receding-horizon cycle: shifts
    /// the consensus trajectory one step left (cell `t` takes cell
    /// `t+1`'s plan, the tail repeats), overwrites `q(0)` with the newly
    /// measured state, and re-broadcasts the shifted consensus into every
    /// edge's `x/m/n` with zero duals. This is the paper's real-time loop:
    /// "update the value … of the current state of the system … and then
    /// run a few more ADMM iterations on the factor-graph already on the
    /// GPU starting from the ADMM solution of the previous cycle".
    pub fn shift_warm_start(
        &self,
        problem: &mut AdmmProblem,
        store: &mut VarStore,
        new_q0: [f64; 4],
    ) {
        // Refresh the initial-condition factor's target (the paper's
        // per-cycle device update).
        problem.set_prox(self.init_factor, Box::new(init_condition_prox(new_q0)));
        let k = self.config.horizon;
        // Shift z one step left.
        for t in 0..k {
            let src = store.var_range(self.step_vars[t + 1]);
            let src_vals: Vec<f64> = store.z[src].to_vec();
            let dst = store.var_range(self.step_vars[t]);
            store.z[dst].copy_from_slice(&src_vals);
        }
        // New initial state.
        let r0 = store.var_range(self.step_vars[0]);
        store.z[r0.clone()][..4].copy_from_slice(&new_q0);
        // Broadcast consensus into edges and reset duals.
        let g = problem.graph();
        let d = g.dims();
        for e in g.edges() {
            let b = g.edge_var(e);
            for c in 0..d {
                let zv = store.z[b.idx() * d + c];
                store.x[e.idx() * d + c] = zv;
                store.m[e.idx() * d + c] = zv;
                store.n[e.idx() * d + c] = zv;
                store.u[e.idx() * d + c] = 0.0;
            }
        }
        store.snapshot_z();
    }

    /// Convenience: build and solve for `iters` iterations on one of the
    /// built-in backends.
    #[cfg(test)]
    pub(crate) fn solve(
        config: MpcConfig,
        sys: LinearSystem,
        iters: usize,
        backend: BackendSpec,
    ) -> (Trajectory, MpcProblem) {
        Self::solve_with_backend(config, sys, iters, backend.to_backend())
    }

    /// Build and solve for `iters` iterations on any [`SweepExecutor`]
    /// backend.
    pub fn solve_with_backend(
        config: MpcConfig,
        sys: LinearSystem,
        iters: usize,
        backend: Box<dyn SweepExecutor>,
    ) -> (Trajectory, MpcProblem) {
        let (mpc, admm) = MpcProblem::build(config, sys);
        let options = SolverOptions {
            backend: BackendSpec::Serial, // ignored by from_problem_with_backend
            rho: mpc.config.rho,
            alpha: mpc.config.alpha,
            stopping: StoppingCriteria {
                max_iters: iters,
                eps_abs: 1e-10,
                eps_rel: 1e-9,
                check_every: 50,
            },
        };
        let mut solver = Solver::from_problem_with_backend(admm, options, backend);
        solver.run(iters);
        let traj = mpc.extract(solver.store());
        (traj, mpc)
    }
}

/// The initial-condition operator `q(0) = q0` over the block `(q_0, u_0)`.
fn init_condition_prox(q0: [f64; 4]) -> AffineEqualityProx {
    let mut m = Matrix::zeros(4, 5);
    for row in 0..4 {
        m[(row, row)] = 1.0;
    }
    AffineEqualityProx::new(m, q0.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kkt::solve_exact;
    use crate::pendulum::paper_plant;

    #[test]
    fn graph_counts_linear_in_k() {
        for k in [1usize, 10, 100] {
            let (_, admm) = MpcProblem::build(MpcConfig::new(k), paper_plant());
            let g = admm.graph();
            assert_eq!(g.num_vars(), k + 1);
            assert_eq!(g.num_edges(), 3 * k + 2);
            assert_eq!(g.num_factors(), 2 * k + 2);
            assert_eq!(g.dims(), 5);
        }
    }

    #[test]
    fn admm_matches_exact_qp() {
        let k = 8;
        let config = MpcConfig::new(k);
        let exact = solve_exact(&config, &paper_plant());
        let (traj, _) = MpcProblem::solve(config, paper_plant(), 20_000, BackendSpec::Serial);
        for t in 0..=k {
            for i in 0..4 {
                let a = traj.states[t][i];
                let e = exact[t * 5 + i];
                assert!(
                    (a - e).abs() < 5e-4,
                    "state mismatch at t={t} i={i}: admm {a} vs exact {e}"
                );
            }
            let (a, e) = (traj.inputs[t], exact[t * 5 + 4]);
            assert!((a - e).abs() < 5e-4, "input mismatch at t={t}: {a} vs {e}");
        }
    }

    #[test]
    fn solution_respects_initial_state_and_dynamics() {
        let config = MpcConfig::new(20);
        let (traj, mpc) = MpcProblem::solve(config, paper_plant(), 20_000, BackendSpec::Serial);
        for i in 0..4 {
            assert!(
                (traj.states[0][i] - mpc.config().q0[i]).abs() < 1e-3,
                "q(0)[{i}] = {} vs {}",
                traj.states[0][i],
                mpc.config().q0[i]
            );
        }
        assert!(
            traj.max_dynamics_residual(mpc.system()) < 1e-3,
            "dynamics residual {}",
            traj.max_dynamics_residual(mpc.system())
        );
    }

    #[test]
    fn cost_lower_than_uncontrolled() {
        let config = MpcConfig::new(30);
        let (traj, mpc) =
            MpcProblem::solve(config.clone(), paper_plant(), 15_000, BackendSpec::Serial);
        // Uncontrolled rollout from the same q0.
        let sys = mpc.system();
        let mut q = config.q0.to_vec();
        let mut states = vec![[q[0], q[1], q[2], q[3]]];
        for _ in 0..30 {
            q = sys.step(&q, &[0.0]);
            states.push([q[0], q[1], q[2], q[3]]);
        }
        let uncontrolled = Trajectory {
            states,
            inputs: vec![0.0; 31],
        };
        assert!(
            traj.cost(&config) < uncontrolled.cost(&config),
            "MPC {} must beat doing nothing {}",
            traj.cost(&config),
            uncontrolled.cost(&config)
        );
    }

    #[test]
    fn rayon_matches_serial() {
        let (a, _) = MpcProblem::solve(MpcConfig::new(5), paper_plant(), 300, BackendSpec::Serial);
        let (b, _) = MpcProblem::solve(
            MpcConfig::new(5),
            paper_plant(),
            300,
            BackendSpec::Rayon { threads: Some(2) },
        );
        for t in 0..=5 {
            assert_eq!(a.states[t], b.states[t]);
            assert_eq!(a.inputs[t], b.inputs[t]);
        }
    }

    #[test]
    #[should_panic(expected = "horizon must be at least 1")]
    fn zero_horizon_rejected() {
        let _ = MpcProblem::build(MpcConfig::new(0), paper_plant());
    }

    #[test]
    fn warm_start_shifts_and_repins() {
        use paradmm_core::{Solver, SolverOptions};
        let config = MpcConfig::new(10);
        let (mpc, admm) = MpcProblem::build(config.clone(), paper_plant());
        let options = SolverOptions {
            backend: BackendSpec::Serial,
            rho: config.rho,
            alpha: config.alpha,
            stopping: paradmm_core::StoppingCriteria::fixed_iterations(4000),
        };
        let mut solver = Solver::from_problem(admm, options);
        solver.run(4000);
        let before = mpc.extract(solver.store());

        let new_q0 = [0.2, 0.1, -0.05, 0.0];
        {
            let (problem, store) = solver.parts_mut();
            mpc.shift_warm_start(problem, store, new_q0);
        }
        let after = mpc.extract(solver.store());
        // q(0) replaced, remainder shifted one step left.
        assert_eq!(after.states[0], new_q0);
        for t in 1..10 {
            assert_eq!(after.states[t], before.states[t + 1]);
        }
        // Duals reset; the state is a consistent broadcast.
        assert!(solver.store().u.iter().all(|&v| v == 0.0));

        // Warm-started re-solve re-pins the new initial state.
        solver.run(4000);
        let traj = mpc.extract(solver.store());
        assert!(
            (traj.states[0][0] - new_q0[0]).abs() < 1e-2,
            "warm re-solve should re-pin the new initial state"
        );
    }
}
