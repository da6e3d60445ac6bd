//! High-level driver: iterate Algorithm 2 until convergence or budget.

use std::time::{Duration, Instant};

use paradmm_graph::{FactorGraph, VarStore};
use paradmm_prox::ProxOp;

use crate::backend::SweepExecutor;
use crate::problem::AdmmProblem;
use crate::residuals::{Residuals, RunState, StopReason, StoppingCriteria};
use crate::spec::BackendSpec;
use crate::timing::UpdateTimings;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Which built-in backend to construct (ignored by
    /// [`Solver::from_problem_with_backend`], which receives one
    /// directly).
    pub backend: BackendSpec,
    /// Uniform penalty weight ρ (ignored by
    /// [`Solver::from_problem`], which takes parameters from the problem).
    pub rho: f64,
    /// Uniform dual step α.
    pub alpha: f64,
    /// Convergence / budget policy.
    pub stopping: StoppingCriteria,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            backend: BackendSpec::Serial,
            rho: 1.0,
            alpha: 1.0,
            stopping: StoppingCriteria::default(),
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct SolverReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Why iteration stopped.
    pub stop_reason: StopReason,
    /// Total wall-clock time of the run: update sweeps plus residual
    /// checks.
    pub elapsed: Duration,
    /// Per-pass timing breakdown (`x+m | z | u+n`).
    pub timings: UpdateTimings,
    /// Residuals at the final check (if any check ran).
    pub final_residuals: Option<Residuals>,
}

impl SolverReport {}

/// Owns the problem, the ADMM state, and the execution backend.
pub struct Solver {
    problem: AdmmProblem,
    store: VarStore,
    options: SolverOptions,
    backend: Box<dyn SweepExecutor>,
}

impl Solver {
    /// Builds a solver from a graph and per-factor operators, with uniform
    /// `ρ/α` taken from `options` and the backend from
    /// [`SolverOptions::backend`].
    pub fn new(graph: FactorGraph, proxes: Vec<Box<dyn ProxOp>>, options: SolverOptions) -> Self {
        let problem = AdmmProblem::new(graph, proxes, options.rho, options.alpha);
        Self::from_problem(problem, options)
    }

    /// Builds a solver from a fully-specified problem (custom per-edge
    /// parameters preserved), backend from [`SolverOptions::backend`].
    /// The solver starts from a zero store, which costs no resident
    /// memory until it is written: a caller that installs its own initial
    /// state through [`Solver::store_mut`] pays for one store, not two.
    pub fn from_problem(problem: AdmmProblem, options: SolverOptions) -> Self {
        let store = VarStore::zeros(problem.graph());
        let backend = options.backend.to_backend();
        Solver {
            problem,
            store,
            options,
            backend,
        }
    }

    /// Builds a solver from a problem and an already-boxed backend.
    /// [`SolverOptions::backend`] is ignored — `backend` is the
    /// execution strategy. The zero store is lazy, as in
    /// [`Solver::from_problem`].
    pub fn from_problem_with_backend(
        problem: AdmmProblem,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
    ) -> Self {
        let store = VarStore::zeros(problem.graph());
        Solver {
            problem,
            store,
            options,
            backend,
        }
    }

    /// Replaces the backend with any [`SweepExecutor`] implementation.
    pub fn set_backend(&mut self, backend: Box<dyn SweepExecutor>) {
        self.backend = backend;
    }

    /// The execution backend.
    #[cfg(test)]
    pub(crate) fn backend(&self) -> &dyn SweepExecutor {
        self.backend.as_ref()
    }

    /// The ADMM state.
    pub fn store(&self) -> &VarStore {
        &self.store
    }

    /// Mutable ADMM state (warm starts, custom initialization).
    pub fn store_mut(&mut self) -> &mut VarStore {
        &mut self.store
    }

    /// Simultaneous shared problem + mutable store access (custom
    /// initialization that reads the topology while writing state).
    pub fn problem_and_store_mut(&mut self) -> (&AdmmProblem, &mut VarStore) {
        (&self.problem, &mut self.store)
    }

    /// Simultaneous mutable access to problem and store (operator
    /// refresh + warm-start in one step, e.g. receding-horizon MPC).
    pub fn parts_mut(&mut self) -> (&mut AdmmProblem, &mut VarStore) {
        (&mut self.problem, &mut self.store)
    }

    /// Current residuals (an O(|E|·d) sweep).
    pub fn residuals(&self) -> Residuals {
        Residuals::compute(self.problem.graph(), self.problem.params(), &self.store)
    }

    /// Runs at most `max_iters` more iterations on the configured
    /// stopping criteria's [`RunState`] schedule.
    pub fn run(&mut self, max_iters: usize) -> SolverReport {
        self.run_impl(max_iters, None)
    }

    /// Like [`Solver::run`], additionally appending `(iteration,
    /// residuals)` to `trace` at every convergence check — the residual
    /// trace a [`crate::SolveOutcome`] carries.
    pub(crate) fn run_traced(
        &mut self,
        max_iters: usize,
        trace: &mut Vec<(usize, Residuals)>,
    ) -> SolverReport {
        self.run_impl(max_iters, Some(trace))
    }

    fn run_impl(
        &mut self,
        max_iters: usize,
        mut trace: Option<&mut Vec<(usize, Residuals)>>,
    ) -> SolverReport {
        let mut run = RunState::new(self.options.stopping, max_iters, self.problem.graph());
        let mut timings = UpdateTimings::new();
        let start = Instant::now();
        while !run.is_stopped() {
            let block = run.next_block();
            self.backend
                .run_block(&self.problem, &mut self.store, block, &mut timings);
            if let Some(r) = run.after_block(block, || self.residuals()) {
                if let Some(t) = trace.as_deref_mut() {
                    t.push((run.done(), r));
                }
            }
        }
        let report = run.report();
        SolverReport {
            iterations: report.iterations,
            stop_reason: report.stop_reason,
            elapsed: start.elapsed(),
            timings,
            final_residuals: report.final_residuals,
        }
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> SolverReport {
        self.run(self.options.stopping.max_iters)
    }

    /// Consumes the solver and returns the final ADMM state without
    /// copying it — how [`crate::SolveRequest::solve`] hands the state
    /// to its [`crate::SolveOutcome`].
    pub fn into_store(self) -> VarStore {
        self.store
    }

    /// Serializes the full ADMM state (x, m, u, n, z) into a byte buffer
    /// — a mid-solve checkpoint for warm restarts across processes.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        paradmm_graph::io::encode_store(&self.store, &mut out);
        out
    }

    /// Restores a checkpoint previously produced by
    /// [`Solver::save_checkpoint`] for the same graph shape.
    pub fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), paradmm_graph::io::IoError> {
        let store = paradmm_graph::io::decode_store(bytes, self.problem.graph())?;
        self.store = store;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use crate::pool::PoolBackend;
    use paradmm_graph::{GraphBuilder, VarId};
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn two_quadratics() -> (FactorGraph, Vec<Box<dyn ProxOp>>) {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])),
            Box::new(QuadraticProx::isotropic(1, 1.0, &[5.0])),
        ];
        (b.build(), proxes)
    }

    #[test]
    fn converges_and_reports() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!(report.iterations < 1000);
        assert!(report.final_residuals.is_some());
        let z = solver.store().z_var(VarId(0));
        assert!((z[0] - 3.0).abs() < 1e-5, "z = {}", z[0]);
    }

    #[test]
    fn fixed_iteration_mode_never_converges_early() {
        let (g, p) = two_quadratics();
        let opts = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut solver = Solver::new(g, p, opts);
        let report = solver.run(37);
        assert_eq!(report.iterations, 37);
        assert_eq!(report.stop_reason, StopReason::MaxIterations);
        assert!(report.final_residuals.is_none());
    }

    #[test]
    fn seconds_per_iteration_sane() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        let report = solver.run(20);
        assert!(report.elapsed.as_secs_f64() < 10.0);
    }

    #[test]
    fn random_init_still_converges_to_optimum() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        // Deterministic LCG draws in [0, 1).
        let mut state = 7.0_f64;
        solver.store_mut().init_uniform(-10.0, 10.0, move || {
            state = (state * 9301.0 + 49297.0) % 233280.0;
            state / 233280.0
        });
        let report = solver.run(2000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!((solver.store().z_var(VarId(0))[0] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let (g, p) = two_quadratics();
        let mut a = Solver::new(g, p, SolverOptions::default());
        a.run(25);
        let snapshot = a.save_checkpoint();
        a.run(25);
        let z_final = a.store().z.clone();

        let (g2, p2) = two_quadratics();
        let mut b = Solver::new(g2, p2, SolverOptions::default());
        b.load_checkpoint(&snapshot).unwrap();
        b.run(25);
        assert_eq!(b.store().z, z_final, "resumed run must be bit-identical");
    }

    #[test]
    fn checkpoint_shape_mismatch_rejected() {
        let (g, p) = two_quadratics();
        let a = Solver::new(g, p, SolverOptions::default());
        let snapshot = a.save_checkpoint();

        let mut builder = paradmm_graph::GraphBuilder::new(2);
        let v = builder.add_var();
        builder.add_factor(&[v]);
        let other: Vec<Box<dyn ProxOp>> = vec![Box::new(paradmm_prox::ZeroProx)];
        let mut b = Solver::new(builder.build(), other, SolverOptions::default());
        assert!(b.load_checkpoint(&snapshot).is_err());
    }

    #[test]
    fn scheduler_swap_preserves_state() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        solver.run(10);
        let z_mid = solver.store().z[0];
        solver.set_backend(BackendSpec::Rayon { threads: Some(2) }.to_backend());
        solver.run(10);
        // State continued from z_mid, not reset.
        assert_ne!(solver.store().z[0], 0.0);
        let _ = z_mid;
    }

    #[test]
    fn set_backend_swaps_execution_strategy() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        solver.run(5);
        solver.set_backend(Box::new(PoolBackend::new(2)));
        assert_eq!(solver.backend().name(), "pool");
        solver.set_backend(Box::new(SerialBackend));
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
    }

    #[test]
    fn all_synchronous_backends_agree_through_solver() {
        let run_with = |backend: BackendSpec| {
            let (g, p) = two_quadratics();
            let opts = SolverOptions {
                backend,
                stopping: StoppingCriteria::fixed_iterations(40),
                ..SolverOptions::default()
            };
            let mut solver = Solver::new(g, p, opts);
            solver.run(40);
            solver.store().z.clone()
        };
        let serial = run_with(BackendSpec::Serial);
        for spec in [
            BackendSpec::Rayon { threads: Some(2) },
            BackendSpec::Barrier { threads: Some(2) },
            BackendSpec::Sharded { parts: Some(2) },
            BackendSpec::Fleet { threads: Some(2) },
            BackendSpec::Auto { threads: Some(2) },
        ] {
            assert_eq!(serial, run_with(spec), "{spec}");
        }
    }

    #[test]
    fn sharded_solver_converges_with_residual_checks() {
        // Residuals are computed from the global store between blocks;
        // the sharded backend's scatter/gather must keep that store (and
        // z_prev, which the dual residual reads) exact.
        let (g, p) = two_quadratics();
        let opts = SolverOptions {
            backend: BackendSpec::Sharded { parts: Some(2) },
            ..SolverOptions::default()
        };
        let mut solver = Solver::new(g, p, opts);
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!(report.final_residuals.is_some());
        let z = solver.store().z_var(VarId(0));
        assert!((z[0] - 3.0).abs() < 1e-5, "z = {}", z[0]);

        // Block-by-block residuals must match a serial solve exactly.
        let (g2, p2) = two_quadratics();
        let mut serial = Solver::new(g2, p2, SolverOptions::default());
        let serial_report = serial.run(1000);
        assert_eq!(report.iterations, serial_report.iterations);
        let (a, b) = (
            report.final_residuals.unwrap(),
            serial_report.final_residuals.unwrap(),
        );
        assert_eq!(a.primal, b.primal);
        assert_eq!(a.dual, b.dual);
    }

    #[test]
    fn auto_backend_typed_access_reports_selection() {
        use crate::backend::AutoBackend;
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut auto = AutoBackend::new(2);
        assert_eq!(auto.selected(), None);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        auto.run_block(&problem, &mut store, 500, &mut t);
        assert_eq!(t.iterations, 500);
        assert!((store.z[0] - 3.0).abs() < 1e-5, "z = {}", store.z[0]);
        assert!(auto.selected().is_some(), "probe ran");
    }

    #[test]
    fn worksteal_solver_converges_and_checkpoints() {
        // `worksteal` names the fleet executor: a solver built from the
        // old spec still checkpoints and resumes bit-identically.
        let worksteal = || BackendSpec::WorkSteal { threads: Some(3) }.to_backend();
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut solver =
            Solver::from_problem_with_backend(problem, SolverOptions::default(), worksteal());
        solver.run(25);
        let snapshot = solver.save_checkpoint();
        solver.run(25);
        let z_final = solver.store().z.clone();

        let (g2, p2) = two_quadratics();
        let problem2 = AdmmProblem::new(g2, p2, 1.0, 1.0);
        let mut resumed =
            Solver::from_problem_with_backend(problem2, SolverOptions::default(), worksteal());
        resumed.load_checkpoint(&snapshot).unwrap();
        resumed.run(25);
        assert_eq!(resumed.store().z, z_final);
    }
}
