//! Batched multi-instance execution: N independent problems fused into
//! one block-diagonal store, served through any [`SweepExecutor`].
//!
//! The paper's sweeps saturate hardware on one *large* factor-graph; a
//! serving workload is the opposite shape — many *small* independent
//! instances, where per-instance sweep-launch overhead (thread spawns,
//! barriers, kernel launches on a real device) dominates the math.
//! [`FusedPack`] packs instances with [`paradmm_graph::BatchStore`] and
//! drives the fused problem through one backend, so every launch is
//! amortized over the whole pack. It is the one multi-instance block
//! rule: [`BatchSolver`] runs a closed batch on it, and the serve
//! engine runs its continuously-batched lane on it, splicing joiners
//! in at repack boundaries.
//!
//! Two contracts:
//!
//! * **Bit-identity** — the fused graph is block-diagonal, so under any
//!   backend that is bit-identical to [`crate::SerialBackend`] each
//!   member's iterates equal a solo serial solve of that instance,
//!   bit for bit, including residual checks and stop iterations
//!   (pinned by `tests/backend_equivalence.rs`). Each member runs its
//!   own [`crate::RunState`] check schedule and a block runs to the
//!   nearest member's next check point, so every member is checked at
//!   exactly its solo iterations however its blocks are cut.
//! * **Early-exit freezing** — a stopped member is retired (state
//!   extracted, later sweeps never touch it) and the survivors are
//!   repacked into a smaller dense pack, so backends keep their
//!   ordinary `assign_range` / chunk-claim scheduling with no holes to
//!   skip — stragglers get the whole machine.
//!
//! Instances are natural shards: with [`BackendSpec::Sharded`],
//! [`BatchSolver`] installs a fresh [`StaleBoundedBackend`] at `k = 0`
//! over each pack's **zero-cut** partition (whole instances per shard,
//! empty halo).
//!
//! Every pack installs the default fused three-pass [`SweepPlan`] once,
//! so per-block resolution borrows it instead of re-deriving it. The
//! plan is the same one solo solves resolve, so bit-identity is
//! unaffected, and the fused store's `z_prev` stays materialized under
//! the buffer-swap z pass, so [`FusedPack::retire`]'s state extraction
//! is unaffected.

use std::time::{Duration, Instant};

use paradmm_graph::{BatchInstance, BatchLayout, BatchStore, EdgeParams, FactorGraph, VarStore};
use paradmm_prox::ProxOp;

use crate::backend::SweepExecutor;
use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::residuals::{InstanceReport, Residuals, RunState, StopReason};
use crate::solver::SolverOptions;
use crate::spec::{default_threads, BackendSpec};
use crate::stale::StaleBoundedBackend;
use crate::timing::UpdateTimings;

/// One instance outside a [`FusedPack`]: its problem, stopping
/// schedule and state. `tag` is the owner's name for the instance.
pub struct Seat<T> {
    /// The owner's name for this instance.
    pub tag: T,
    /// The instance's graph.
    pub graph: FactorGraph,
    /// The instance's `ρ/α`.
    pub params: EdgeParams,
    /// The instance's stopping schedule.
    pub run: RunState,
    /// The instance's state.
    pub state: VarStore,
    /// The instance's proximal operators, one per factor.
    pub proxes: Vec<Box<dyn ProxOp>>,
}

/// A pack member's bookkeeping; its state and proximal operators live
/// in the fused store and problem until the next [`FusedPack::retire`].
struct Member<T> {
    tag: T,
    graph: FactorGraph,
    params: EdgeParams,
    run: RunState,
}

/// Instances sharing `dims`, fused block-diagonally into one problem
/// and driven one block at a time. See the module docs for the
/// bit-identity and freezing contracts.
pub struct FusedPack<T> {
    problem: AdmmProblem,
    store: VarStore,
    layout: BatchLayout,
    members: Vec<Member<T>>,
}

impl<T> FusedPack<T> {
    /// Fuses `seats` block-diagonally, in order, and installs the
    /// fused plan.
    ///
    /// # Panics
    /// If `seats` is empty, the seats disagree on `dims`, or a seat's
    /// state or parameters are not shaped for its graph.
    pub fn new(seats: Vec<Seat<T>>) -> Self {
        let batch = {
            let views: Vec<BatchInstance<'_>> = seats
                .iter()
                .map(|s| BatchInstance {
                    graph: &s.graph,
                    params: &s.params,
                    store: &s.state,
                })
                .collect();
            BatchStore::pack(&views).expect("seats share dims and each state fits its graph")
        };
        let (graph, params, store, layout) = batch.into_parts();
        let mut proxes = Vec::new();
        let members = seats
            .into_iter()
            .map(|s| {
                proxes.extend(s.proxes);
                Member {
                    tag: s.tag,
                    graph: s.graph,
                    params: s.params,
                    run: s.run,
                }
            })
            .collect();
        let mut problem = AdmmProblem::with_params(graph, proxes, params);
        problem.set_plan(SweepPlan::fused(&problem));
        FusedPack {
            problem,
            store,
            layout,
            members,
        }
    }

    /// Where each member sits in the fused problem.
    pub fn layout(&self) -> &BatchLayout {
        &self.layout
    }

    /// Runs one fused block of the minimum [`RunState::next_block`]
    /// over the members — the iterations to the nearest member's next
    /// check point or budget — then hands each member's
    /// [`RunState::after_block`] its residuals over its own edge range.
    /// Returns whether any member stopped.
    pub fn run_block(
        &mut self,
        backend: &mut dyn SweepExecutor,
        timings: &mut UpdateTimings,
    ) -> bool {
        let block = self
            .members
            .iter()
            .map(|m| m.run.next_block())
            .min()
            .expect("a pack is never empty");
        backend.run_block(&self.problem, &mut self.store, block, timings);
        let mut any_stopped = false;
        for (pos, m) in self.members.iter_mut().enumerate() {
            let er = self.layout.edge_range(pos);
            m.run.after_block(block, || {
                Residuals::compute_edge_range(
                    self.problem.graph(),
                    self.problem.params(),
                    &self.store,
                    er.start,
                    er.end,
                )
            });
            any_stopped |= m.run.is_stopped();
        }
        any_stopped
    }

    /// Extracts every member's seat, splits off the stopped ones, and
    /// repacks the rest followed by `joiners` (a repack boundary).
    /// Returns the stopped seats in pack order and the new pack, if
    /// anything is left to run.
    pub fn retire(self, joiners: Vec<Seat<T>>) -> (Vec<Seat<T>>, Option<FusedPack<T>>) {
        let FusedPack {
            problem,
            store,
            layout,
            members,
        } = self;
        let (_graph, proxes, _params) = problem.into_parts();
        let mut proxes = proxes.into_iter();
        let (stopped, mut running): (Vec<_>, Vec<_>) = members
            .into_iter()
            .enumerate()
            .map(|(pos, m)| Seat {
                tag: m.tag,
                graph: m.graph,
                params: m.params,
                run: m.run,
                state: layout.extract_store(&store, pos),
                proxes: proxes
                    .by_ref()
                    .take(layout.factor_range(pos).len())
                    .collect(),
            })
            .partition(|s| s.run.is_stopped());
        debug_assert!(proxes.next().is_none());
        running.extend(joiners);
        let pack = (!running.is_empty()).then(|| FusedPack::new(running));
        (stopped, pack)
    }
}

/// Outcome of [`BatchSolver::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per instance, in pack order.
    pub instances: Vec<InstanceReport>,
    /// Total wall-clock time spent inside [`BatchSolver::run`].
    pub elapsed: Duration,
}

impl BatchReport {
    /// Number of instances that converged.
    pub fn converged_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|r| r.stop_reason == StopReason::Converged)
            .count()
    }

    /// Whether every instance converged.
    pub fn all_converged(&self) -> bool {
        self.converged_count() == self.instances.len()
    }

    /// The largest per-instance iteration count (what the straggler
    /// cost).
    pub fn max_iterations(&self) -> usize {
        self.instances
            .iter()
            .map(|r| r.iterations)
            .max()
            .unwrap_or(0)
    }

    /// Instances per second of wall-clock — the throughput metric of
    /// batched serving.
    pub fn instances_per_second(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.instances.len() as f64 / s
        } else {
            0.0
        }
    }
}

/// Packs N independent [`AdmmProblem`]s into one [`FusedPack`] and runs
/// them to convergence through a single backend, with per-instance
/// residual tracking and early-exit freezing. See the module docs for
/// the two contracts (bit-identity, freezing).
///
/// [`BatchSolver::run`] is one-shot: it drives every instance to
/// convergence or to the iteration budget, then finalizes. Per-instance
/// results are read back with [`BatchSolver::store`].
pub struct BatchSolver {
    options: SolverOptions,
    backend: Box<dyn SweepExecutor>,
    /// `Some(parts)` when the descriptor asked for sharded execution:
    /// each (re)pack installs a fresh backend over the layout's
    /// zero-cut partition.
    sharded_parts: Option<usize>,
    /// Every instance's seat, tagged and ordered by instance index,
    /// whenever no pack holds them: before and after
    /// [`BatchSolver::run`].
    seats: Vec<Seat<usize>>,
    /// Fused plans built, one per pack.
    plans_built: usize,
    started: bool,
    timings: UpdateTimings,
    elapsed: Duration,
}

impl BatchSolver {
    /// Batches `problems` with zero-initialized state; the backend comes
    /// from [`SolverOptions::backend`]. With [`BackendSpec::Sharded`],
    /// the shard partition is the layout's zero-cut instance partition
    /// instead of BFS growing.
    ///
    /// # Panics
    /// If `problems` is empty or the instances disagree on `dims`.
    pub fn new(problems: Vec<AdmmProblem>, options: SolverOptions) -> Self {
        let sharded_parts = match options.backend {
            BackendSpec::Sharded { parts } => Some(parts.unwrap_or_else(default_threads)),
            _ => None,
        };
        // The sharded backend is (re)built per pack; install a serial
        // placeholder until then.
        let backend: Box<dyn SweepExecutor> = if sharded_parts.is_some() {
            Box::new(crate::backend::SerialBackend)
        } else {
            options.backend.to_backend()
        };
        Self::build(problems, options, backend, sharded_parts)
    }

    /// Batches `problems` behind an explicit backend.
    /// [`SolverOptions::backend`] is ignored. The backend must
    /// tolerate the executed problem changing shape across blocks
    /// (every built-in backend does; a
    /// [`StaleBoundedBackend::with_partition`] pinned to one topology
    /// does not — use [`BackendSpec::Sharded`] through
    /// [`BatchSolver::new`] for sharded batching instead).
    ///
    /// # Panics
    /// If `problems` is empty or the instances disagree on `dims`.
    pub fn with_backend(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
    ) -> Self {
        Self::build(problems, options, backend, None)
    }

    fn build(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
        sharded_parts: Option<usize>,
    ) -> Self {
        assert!(!problems.is_empty(), "batch needs at least one instance");
        let dims = problems[0].graph().dims();
        let seats = problems
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                assert_eq!(
                    p.graph().dims(),
                    dims,
                    "instance {i} disagrees on dims with the batch"
                );
                let (graph, proxes, params) = p.into_parts();
                Seat {
                    tag: i,
                    run: RunState::new(options.stopping, options.stopping.max_iters, &graph),
                    state: VarStore::zeros(&graph),
                    graph,
                    params,
                    proxes,
                }
            })
            .collect();
        BatchSolver {
            options,
            backend,
            sharded_parts,
            seats,
            plans_built: 0,
            started: false,
            timings: UpdateTimings::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// The executing backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Final state of instance `i`.
    ///
    /// # Panics
    /// If [`BatchSolver::run`] has not completed.
    pub fn store(&self, i: usize) -> &VarStore {
        assert!(self.started, "instance state is available after run()");
        &self.seats[i].state
    }

    /// Runs every instance for at most `max_iters` iterations on its
    /// [`RunState`] schedule, freezing each instance as it stops
    /// (frozen instances stop contributing work; stragglers keep the
    /// backend saturated). Every block runs to the nearest member's
    /// next check point, which is what makes per-instance iteration
    /// counts and final states bit-identical to solo solves.
    pub fn run(&mut self, max_iters: usize) -> BatchReport {
        let start = Instant::now();
        if !self.started {
            self.started = true;
            let mut running = Vec::new();
            for mut seat in std::mem::take(&mut self.seats) {
                seat.run = RunState::new(self.options.stopping, max_iters, &seat.graph);
                // A zero budget: the instance never packs.
                if seat.run.is_stopped() {
                    self.seats.push(seat);
                } else {
                    running.push(seat);
                }
            }
            if !running.is_empty() {
                let mut pack = FusedPack::new(running);
                self.adopt(&pack);
                loop {
                    if !pack.run_block(self.backend.as_mut(), &mut self.timings) {
                        continue;
                    }
                    let (stopped, rest) = pack.retire(Vec::new());
                    self.seats.extend(stopped);
                    match rest {
                        Some(next) => pack = next,
                        None => break,
                    }
                    self.adopt(&pack);
                }
            }
            self.seats.sort_by_key(|s| s.tag);
        }

        self.elapsed += start.elapsed();
        BatchReport {
            instances: self.seats.iter().map(|s| s.run.report()).collect(),
            elapsed: self.elapsed,
        }
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> BatchReport {
        self.run(self.options.stopping.max_iters)
    }

    /// Counts `pack`'s plan and, under the sharded descriptor, rebuilds
    /// the backend over its zero-cut instance partition (the fused
    /// topology changes on every repack).
    fn adopt(&mut self, pack: &FusedPack<usize>) {
        self.plans_built += 1;
        if let Some(parts) = self.sharded_parts {
            self.backend = Box::new(StaleBoundedBackend::with_partition(
                pack.layout().partition(parts),
                0,
            ));
        }
    }

    /// Fused plans built so far, one per pack.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolBackend;
    use crate::residuals::StoppingCriteria;
    use crate::solver::Solver;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    /// Consensus of `k` quadratics over one variable; optimum is the
    /// mean of the targets. Varying `k` gives mixed-size instances.
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
            consensus_problem(&[-3.0, 0.0, 3.0, 6.0]),
        ]
    }

    fn solo_solve(
        problem: AdmmProblem,
        options: SolverOptions,
        max_iters: usize,
    ) -> (VarStore, usize, StopReason) {
        let mut solver = Solver::from_problem(problem, options);
        let report = solver.run(max_iters);
        (
            solver.store().clone(),
            report.iterations,
            report.stop_reason,
        )
    }

    #[test]
    fn plans_built_counts_one_plan_per_pack() {
        // One budget for all: every instance retires at once, one pack.
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(12),
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(mixed_instances(), options);
        assert_eq!(batch.plans_built(), 0);
        batch.run(12);
        assert_eq!(batch.plans_built(), 1);

        // Staggered stops: the first pack, then one repack per stop
        // point that leaves survivors.
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
            consensus_problem(&[2.0, 2.0]),
            consensus_problem(&[1.0, 5.0]),
            consensus_problem(&[1.0, 5.0, 9.0, -7.0, 3.0]),
        ];
        let mut batch = BatchSolver::new(instances, options);
        let report = batch.run(2000);
        let mut stops: Vec<usize> = report.instances.iter().map(|r| r.iterations).collect();
        stops.sort_unstable();
        stops.dedup();
        assert!(stops.len() > 1, "the instances stop at distinct iterations");
        assert_eq!(batch.plans_built(), stops.len());
    }

    #[test]
    fn packed_problem_carries_the_fused_plan() {
        let seats = mixed_instances()
            .into_iter()
            .enumerate()
            .map(|(tag, p)| {
                let (graph, proxes, params) = p.into_parts();
                Seat {
                    tag,
                    run: RunState::new(StoppingCriteria::default(), 10, &graph),
                    state: VarStore::zeros(&graph),
                    graph,
                    params,
                    proxes,
                }
            })
            .collect();
        let pack = FusedPack::new(seats);
        // Installed once at pack time; every block's resolve borrows it.
        assert!(pack.problem.plan().is_some());
        assert_eq!(pack.layout().num_instances(), 3);
    }

    #[test]
    fn batch_matches_solo_serial_bitwise() {
        let options = SolverOptions::default();
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(1000);
        assert!(report.all_converged());

        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, iters, reason) = solo_solve(problem, options, 1000);
            assert_eq!(reason, StopReason::Converged);
            assert_eq!(report.instances[i].iterations, iters, "instance {i}");
            let got = batch.store(i);
            assert_eq!(got.z, solo.z, "instance {i} z");
            assert_eq!(got.x, solo.x, "instance {i} x");
            assert_eq!(got.u, solo.u, "instance {i} u");
            assert_eq!(got.n, solo.n, "instance {i} n");
            assert_eq!(got.m, solo.m, "instance {i} m");
        }
    }

    #[test]
    fn freezing_lets_stragglers_continue() {
        // Tight tolerances on a slow instance, loose on fast ones: the
        // fast ones must freeze earlier than the straggler's stop.
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
        let mut batch = BatchSolver::new(instances, options);
        let report = batch.run(2000);
        assert!(report.all_converged());
        assert!(
            report.instances[0].iterations < report.instances[1].iterations,
            "fast instance must freeze first ({} vs {})",
            report.instances[0].iterations,
            report.instances[1].iterations
        );
        assert_eq!(report.max_iterations(), report.instances[1].iterations);
    }

    #[test]
    fn batch_matches_solo_on_every_sync_descriptor() {
        let options_for = |backend| SolverOptions {
            backend,
            ..SolverOptions::default()
        };
        let solo: Vec<(VarStore, usize)> = mixed_instances()
            .into_iter()
            .map(|p| {
                let (s, it, _) = solo_solve(p, SolverOptions::default(), 600);
                (s, it)
            })
            .collect();
        for spec in [
            BackendSpec::Serial,
            BackendSpec::Rayon { threads: Some(2) },
            BackendSpec::Barrier { threads: Some(2) },
            BackendSpec::Fleet { threads: Some(2) },
            BackendSpec::Sharded { parts: Some(2) },
            BackendSpec::Auto { threads: Some(2) },
        ] {
            let mut batch = BatchSolver::new(mixed_instances(), options_for(spec));
            let report = batch.run(600);
            for (i, (store, iters)) in solo.iter().enumerate() {
                assert_eq!(
                    report.instances[i].iterations, *iters,
                    "{spec} instance {i} iterations"
                );
                assert_eq!(batch.store(i).z, store.z, "{spec} instance {i}");
                assert_eq!(batch.store(i).u, store.u, "{spec} instance {i}");
            }
        }
    }

    #[test]
    fn fixed_iteration_mode_runs_every_instance_to_budget() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(37);
        for (i, r) in report.instances.iter().enumerate() {
            assert_eq!(r.iterations, 37, "instance {i}");
            assert_eq!(r.stop_reason, StopReason::MaxIterations);
            assert!(r.final_residuals.is_none());
        }
        // Bitwise equal to solo fixed runs.
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, _, _) = solo_solve(problem, options, 37);
            assert_eq!(batch.store(i).z, solo.z, "instance {i}");
        }
    }

    #[test]
    fn explicit_backend_is_used() {
        let options = SolverOptions::default();
        let mut batch =
            BatchSolver::with_backend(mixed_instances(), options, Box::new(PoolBackend::new(2)));
        assert_eq!(batch.backend_name(), "pool");
        let report = batch.run(1000);
        assert!(report.all_converged());
        let (solo, _, _) = solo_solve(consensus_problem(&[1.0, 5.0, 9.0]), options, 1000);
        assert_eq!(batch.store(0).z, solo.z);
    }

    #[test]
    fn sharded_descriptor_uses_zero_cut_partition() {
        let options = SolverOptions {
            backend: BackendSpec::Sharded { parts: Some(2) },
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(1000);
        assert_eq!(batch.backend_name(), "sharded");
        assert!(report.all_converged());
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, iters, _) = solo_solve(problem, SolverOptions::default(), 1000);
            assert_eq!(report.instances[i].iterations, iters);
            assert_eq!(batch.store(i).z, solo.z, "instance {i}");
        }
    }

    #[test]
    fn report_throughput_accessors() {
        let mut batch = BatchSolver::new(mixed_instances(), SolverOptions::default());
        let report = batch.run(1000);
        assert_eq!(report.instances.len(), 3);
        assert_eq!(report.converged_count(), 3);
        assert!(report.instances_per_second() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_batch_rejected() {
        let _ = BatchSolver::new(Vec::new(), SolverOptions::default());
    }

    #[test]
    #[should_panic(expected = "disagrees on dims")]
    fn mixed_dims_rejected() {
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        let other = AdmmProblem::new(
            b.build(),
            vec![Box::new(QuadraticProx::isotropic(2, 1.0, &[0.0, 0.0])) as Box<dyn ProxOp>],
            1.0,
            1.0,
        );
        let _ = BatchSolver::new(
            vec![consensus_problem(&[1.0]), other],
            SolverOptions::default(),
        );
    }
}
