//! Heterogeneous instance fleets: outer parallelism *across*
//! independent problems, inner parallelism *within* whichever problem
//! still has sweep work.
//!
//! [`crate::BatchSolver`] (block-diagonal fusion) is the right tool for
//! fleets of near-uniform instances: one fused store, one pass boundary
//! per pass, launches amortized over everything. Its weakness is exactly
//! the heterogeneous case — a pack-wide pass boundary means one large or
//! slow-converging instance stalls every worker, and every early-exit
//! freeze pays a dense repack (full state copy + fused-graph rebuild).
//! [`FleetSolver`] keeps the instances **separate** and hands each round
//! to the pool's round driver (see `crate::pool`), whose synchronization
//! is instance-local:
//!
//! * **Outer level** — each instance has its own resolved
//!   [`crate::SweepPlan`],
//!   its own claim words and its own pass/iteration watermark, so
//!   workers advancing instance A never wait on instance B.
//! * **Inner level** — a worker drains its own share of its instance's
//!   open pass, assists the other shares, and then moves to the instance
//!   with the most unclaimed chunks, so big instances attract many
//!   workers while small ones run solo. Converged instances simply
//!   retire from the round — no repack.
//!
//! Per-instance iterates are **bit-identical** to a solo serial solve
//! (chunks tile each pass exactly, passes run in plan order per
//! instance, and Algorithm 2's Jacobi data flow is schedule-independent),
//! which `tests/backend_equivalence.rs` pins. Unlike
//! [`crate::BatchSolver`], the instances may even disagree on `dims`,
//! since nothing is fused.

use std::time::{Duration, Instant};

use paradmm_graph::VarStore;

use crate::batch::BatchReport;
use crate::diagnostics::FleetDiagnostics;
use crate::pool::{run_round, RoundInstance};
use crate::problem::AdmmProblem;
use crate::residuals::{InstanceReport, Residuals, RunState};
use crate::solver::SolverOptions;
use crate::spec::{default_threads, BackendSpec};

/// One fleet instance's problem, state, and bookkeeping.
struct FleetSlot {
    problem: AdmmProblem,
    store: VarStore,
    run: RunState,
}

/// Drives a fleet of independent [`AdmmProblem`]s to convergence on
/// the work-assisting pool — the heterogeneous-fleet counterpart of
/// [`crate::BatchSolver`].
///
/// Differences from batching, all consequences of *not* fusing:
///
/// * instances may disagree on `dims` (nothing is packed);
/// * residual checks are instance-local and a converged instance
///   retires from the assist index immediately — no freeze, no dense
///   repack, no copy;
/// * synchronization is per instance, so one big straggler never
///   stalls the others at a pack-wide barrier — idle workers assist it
///   instead.
///
/// Each instance claims chunks at its own plan's granularity
/// (`crate::Pass::chunk`; install one with [`AdmmProblem::set_plan`]
/// before handing the problem over).
///
/// Each instance follows its own [`RunState`] schedule, as
/// [`crate::Solver::run`] does, which is what makes per-instance
/// iteration counts, stop reasons, and final states bit-identical to
/// solo serial solves. Returns the same
/// [`BatchReport`] shape as batching, so harnesses compare the two
/// directly.
pub struct FleetSolver {
    options: SolverOptions,
    threads: usize,
    slots: Vec<FleetSlot>,
    /// Largest-cost-first instance order for round construction: big
    /// instances open first, so early claims land where assistance
    /// will be needed.
    order: Vec<usize>,
    started: bool,
    diagnostics: FleetDiagnostics,
    elapsed: Duration,
}

impl FleetSolver {
    /// Builds a fleet over `problems` with zero-initialized state. The
    /// worker count comes from [`BackendSpec::Fleet`] when the options
    /// name it, else the same default as a bare `fleet` spec (the
    /// host's available parallelism, 2 if unknown).
    ///
    /// # Panics
    /// If `problems` is empty.
    pub fn new(problems: Vec<AdmmProblem>, options: SolverOptions) -> Self {
        let threads = match options.backend {
            BackendSpec::Fleet { threads } => threads.unwrap_or_else(default_threads),
            _ => default_threads(),
        };
        Self::with_threads(problems, options, threads)
    }

    /// Builds a fleet with an explicit worker count and zero-initialized
    /// state.
    ///
    /// # Panics
    /// If `problems` is empty or `threads == 0`.
    pub fn with_threads(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        threads: usize,
    ) -> Self {
        let instances = problems
            .into_iter()
            .map(|problem| {
                let store = VarStore::zeros(problem.graph());
                (problem, store)
            })
            .collect();
        Self::with_states(instances, options, threads)
    }

    /// Builds a fleet whose instances start from their own stores (warm
    /// starts), with an explicit worker count.
    ///
    /// # Panics
    /// If `instances` is empty, `threads == 0`, or a store is not shaped
    /// for its problem.
    pub fn with_states(
        instances: Vec<(AdmmProblem, VarStore)>,
        options: SolverOptions,
        threads: usize,
    ) -> Self {
        assert!(!instances.is_empty(), "fleet needs at least one instance");
        assert!(threads >= 1, "fleet needs at least one worker");
        // Cost in edge-components (`edges · dims`), the unit every
        // element-wise sweep is linear in; the sort is stable, so
        // equal-cost instances keep fleet order.
        let mut order: Vec<usize> = (0..instances.len()).collect();
        order.sort_by_key(|&i| {
            let g = instances[i].0.graph();
            std::cmp::Reverse(g.num_edges() * g.dims())
        });
        let slots: Vec<FleetSlot> = instances
            .into_iter()
            .map(|(problem, store)| {
                let g = problem.graph();
                assert_eq!(store.dims(), g.dims(), "store dims mismatch");
                assert_eq!(store.num_edges(), g.num_edges(), "store edge count");
                assert_eq!(store.num_vars(), g.num_vars(), "store var count");
                let run = RunState::new(options.stopping, options.stopping.max_iters, g);
                FleetSlot {
                    problem,
                    store,
                    run,
                }
            })
            .collect();
        FleetSolver {
            options,
            threads,
            slots,
            order,
            started: false,
            diagnostics: FleetDiagnostics::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Accumulated per-worker assist telemetry.
    pub fn diagnostics(&self) -> &FleetDiagnostics {
        &self.diagnostics
    }

    /// Current state of instance `i` (always accessible — nothing is
    /// packed away).
    pub fn store(&self, i: usize) -> &VarStore {
        &self.slots[i].store
    }

    /// Report for instance `i`.
    pub(crate) fn report(&self, i: usize) -> InstanceReport {
        self.slots[i].run.report()
    }

    /// Runs every instance for at most `max_iters` iterations on its
    /// [`RunState`] schedule; stopped instances retire from the assist
    /// index (no repack) and the stragglers keep every worker. Every
    /// round runs to the nearest instance's next check point — the
    /// bit-identity contract.
    pub fn run(&mut self, max_iters: usize) -> BatchReport {
        let start = Instant::now();
        if !self.started {
            self.started = true;
            for slot in &mut self.slots {
                slot.run = RunState::new(self.options.stopping, max_iters, slot.problem.graph());
            }
        }

        while let Some(block) = self
            .slots
            .iter()
            .map(|s| s.run.next_block())
            .filter(|&b| b > 0)
            .min()
        {
            // Largest-cost-first: early claims land on the instances
            // that will need assistance.
            let mut slots: Vec<Option<&mut FleetSlot>> = self.slots.iter_mut().map(Some).collect();
            let mut round: Vec<RoundInstance<'_>> = self
                .order
                .iter()
                .filter_map(|&i| {
                    let slot = slots[i].take().filter(|s| !s.run.is_stopped())?;
                    Some(RoundInstance {
                        global: i,
                        problem: &slot.problem,
                        store: &mut slot.store,
                    })
                })
                .collect();
            run_round(&mut round, block, self.threads, &mut self.diagnostics);
            drop(round);

            for slot in self.slots.iter_mut().filter(|s| !s.run.is_stopped()) {
                let (problem, store) = (&slot.problem, &slot.store);
                slot.run.after_block(block, || {
                    Residuals::compute(problem.graph(), problem.params(), store)
                });
            }
        }

        self.elapsed += start.elapsed();
        BatchReport {
            instances: (0..self.slots.len()).map(|i| self.report(i)).collect(),
            elapsed: self.elapsed,
        }
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> BatchReport {
        self.run(self.options.stopping.max_iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SerialBackend, SweepExecutor};
    use crate::plan::SweepPlan;
    use crate::pool::PoolBackend;
    use crate::residuals::{StopReason, StoppingCriteria};
    use crate::solver::Solver;
    use crate::timing::UpdateTimings;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn consensus_problem(targets: &[f64]) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for &t in targets {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 2.0, &[t])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn mixed_instances() -> Vec<AdmmProblem> {
        vec![
            consensus_problem(&[1.0, 5.0, 9.0]),
            consensus_problem(&[2.0, 4.0]),
            consensus_problem(&[-3.0, 0.0, 3.0, 6.0, -1.0]),
        ]
    }

    /// [`consensus_problem`] over targets 1, 5, 9 with a plan claiming
    /// one item per chunk: with more workers than items, every claim
    /// contends.
    fn chunk_one_consensus() -> AdmmProblem {
        let mut problem = consensus_problem(&[1.0, 5.0, 9.0]);
        problem.set_plan(SweepPlan::fused_chunked(&problem, 1));
        problem
    }

    fn solve_with(backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
        solve_on(&consensus_problem(&[1.0, 5.0, 9.0]), backend, iters)
    }

    fn solve_on(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(problem, &mut store, iters, &mut t);
        assert_eq!(t.iterations, iters);
        store.z[0]
    }

    // The `fleet` spec builds the pool: its single-problem form runs here
    // as a one-instance round.
    #[test]
    fn fleet_backend_matches_serial_exactly() {
        for threads in [1usize, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let spec = BackendSpec::Fleet {
                threads: Some(threads),
            };
            let b = solve_with(spec.to_backend().as_mut(), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn fleet_backend_tiny_chunks_force_contention() {
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_on(&chunk_one_consensus(), &mut PoolBackend::new(8), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_backend_odd_blocks_keep_parity() {
        // Odd block lengths exercise the watermark/parity rotation
        // across run_block boundaries (the round restarts at seq 0).
        let problem = chunk_one_consensus();
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut fleet_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        let mut fleet = PoolBackend::new(3);
        for block in [1usize, 3, 7, 2, 5] {
            SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            fleet.run_block(&problem, &mut fleet_store, block, &mut t);
            assert_eq!(serial_store.z, fleet_store.z, "after block {block}");
            assert_eq!(serial_store.u, fleet_store.u, "after block {block}");
            assert_eq!(serial_store.n, fleet_store.n, "after block {block}");
        }
    }

    #[test]
    fn fleet_backend_records_telemetry() {
        let mut fleet = PoolBackend::new(2);
        let _ = solve_with(&mut fleet, 10);
        let d = fleet.diagnostics();
        assert_eq!(d.workers().len(), 2);
        assert!(d.rounds() >= 1);
        assert!(d.total_chunks() > 0, "workers must have claimed chunks");
        let report = crate::diagnostics::fleet_report(d);
        assert!(report.contains("chunks"), "{report}");
    }

    #[test]
    fn fleet_solver_matches_solo_serial_bitwise() {
        let stopping = StoppingCriteria {
            max_iters: 1000,
            eps_abs: 1e-8,
            eps_rel: 1e-6,
            check_every: 10,
        };
        let options = SolverOptions {
            stopping,
            ..SolverOptions::default()
        };
        let mut fleet = FleetSolver::with_threads(mixed_instances(), options, 2);
        let report = fleet.run(1000);
        assert!(report.all_converged());

        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let mut solo = Solver::from_problem(problem, options);
            let solo_report = solo.run(1000);
            assert_eq!(
                report.instances[i].iterations, solo_report.iterations,
                "instance {i} iterations"
            );
            assert_eq!(report.instances[i].stop_reason, solo_report.stop_reason);
            let got = fleet.store(i);
            assert_eq!(got.z, solo.store().z, "instance {i} z");
            assert_eq!(got.x, solo.store().x, "instance {i} x");
            assert_eq!(got.u, solo.store().u, "instance {i} u");
            assert_eq!(got.n, solo.store().n, "instance {i} n");
            assert_eq!(got.m, solo.store().m, "instance {i} m");
            let (a, b) = (
                report.instances[i].final_residuals.unwrap(),
                solo_report.final_residuals.unwrap(),
            );
            assert_eq!(a.primal, b.primal, "instance {i} primal");
            assert_eq!(a.dual, b.dual, "instance {i} dual");
        }
    }

    #[test]
    fn fleet_solver_mixed_dims_unsupported_by_batching() {
        // dims=1 and dims=2 instances in one fleet — BatchSolver
        // rejects this shape outright; the fleet solves both.
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        let two_d = AdmmProblem::new(
            b.build(),
            vec![Box::new(QuadraticProx::isotropic(2, 1.0, &[1.0, -2.0])) as Box<dyn ProxOp>],
            1.0,
            1.0,
        );
        let options = SolverOptions::default();
        let mut fleet =
            FleetSolver::with_threads(vec![consensus_problem(&[1.0, 5.0]), two_d], options, 2);
        let report = fleet.run(2000);
        assert!(report.all_converged());
        assert!((fleet.store(0).z[0] - 3.0).abs() < 1e-5);
        assert!((fleet.store(1).z[0] - 1.0).abs() < 1e-5);
        assert!((fleet.store(1).z[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn fleet_solver_fixed_iteration_mode() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut fleet = FleetSolver::with_threads(mixed_instances(), options, 3);
        let report = fleet.run(37);
        for (i, r) in report.instances.iter().enumerate() {
            assert_eq!(r.iterations, 37, "instance {i}");
            assert_eq!(r.stop_reason, StopReason::MaxIterations);
            assert!(r.final_residuals.is_none());
        }
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let mut solo = Solver::from_problem(problem, options);
            solo.run(37);
            assert_eq!(fleet.store(i).z, solo.store().z, "instance {i}");
        }
    }

    #[test]
    fn fleet_solver_warm_start_carries() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(25),
            ..SolverOptions::default()
        };
        let problem = consensus_problem(&[1.0, 5.0]);
        let mut seed = VarStore::zeros(problem.graph());
        for (j, v) in seed.n.iter_mut().enumerate() {
            *v = (j as f64 * 0.51).sin();
        }
        seed.snapshot_z();
        let mut solo = Solver::from_problem(problem, options);
        *solo.store_mut() = seed.clone();
        solo.run(25);

        let other = consensus_problem(&[7.0]);
        let other_store = VarStore::zeros(other.graph());
        let mut fleet = FleetSolver::with_states(
            vec![(consensus_problem(&[1.0, 5.0]), seed), (other, other_store)],
            options,
            2,
        );
        fleet.run(25);
        assert_eq!(fleet.store(0).z, solo.store().z);
        assert_eq!(fleet.store(0).n, solo.store().n);
    }

    #[test]
    fn fleet_solver_stragglers_retire_independently() {
        let options = SolverOptions {
            stopping: StoppingCriteria {
                max_iters: 2000,
                eps_abs: 1e-10,
                eps_rel: 1e-9,
                check_every: 5,
            },
            ..SolverOptions::default()
        };
        let instances = vec![
            consensus_problem(&[2.0, 2.0]), // converges almost immediately
            consensus_problem(&[1.0, 5.0, 9.0, -7.0, 3.0]),
        ];
        let mut fleet = FleetSolver::with_threads(instances, options, 2);
        let report = fleet.run(2000);
        assert!(report.all_converged());
        assert!(
            report.instances[0].iterations < report.instances[1].iterations,
            "fast instance must retire first ({} vs {})",
            report.instances[0].iterations,
            report.instances[1].iterations
        );
    }

    #[test]
    fn fleet_solver_report_accessors() {
        let mut fleet = FleetSolver::with_threads(mixed_instances(), SolverOptions::default(), 2);
        let report = fleet.run(1000);
        assert_eq!(report.instances.len(), 3);
        assert!(report.instances_per_second() > 0.0);
        assert!(fleet.diagnostics().total_chunks() > 0);
    }

    /// A chain of `vars` variables in `dims` dimensions: `vars - 1`
    /// pairwise factors, so `2 · (vars - 1) · dims` edge-components.
    fn chain(dims: usize, vars: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(dims);
        let ids: Vec<_> = (0..vars).map(|_| b.add_var()).collect();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for w in ids.windows(2) {
            b.add_factor(w);
            proxes.push(Box::new(paradmm_prox::ZeroProx));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn order_of(problems: Vec<AdmmProblem>) -> Vec<usize> {
        FleetSolver::with_threads(problems, SolverOptions::default(), 1).order
    }

    #[test]
    fn layout_orders_largest_first() {
        // Costs 4, 38 and 16 edge-components.
        assert_eq!(
            order_of(vec![chain(1, 3), chain(1, 20), chain(2, 5)]),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn mixed_dims_are_first_class() {
        // Same topology, three times the components: the 3-D one is
        // larger.
        assert_eq!(order_of(vec![chain(1, 4), chain(3, 4)]), vec![1, 0]);
    }

    #[test]
    fn uniform_fleet_is_balanced() {
        // Equal costs keep fleet order.
        assert_eq!(order_of(vec![chain(2, 6), chain(2, 6)]), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_fleet_rejected() {
        let _ = FleetSolver::with_threads(Vec::new(), SolverOptions::default(), 2);
    }
}
