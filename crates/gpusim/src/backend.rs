//! The simulated-GPU execution backend.
//!
//! [`GpuSimBackend`] implements [`SweepExecutor`], so the *same*
//! [`paradmm_core::Solver`] loop that drives the CPU backends drives the
//! simulated device: numerics run bit-identically to
//! [`paradmm_core::SerialBackend`] on the host, while the per-kind
//! timings recorded into [`UpdateTimings`] are the *simulated* kernel
//! times of the [`SimtDevice`] model — one `<<<nb, ntb>>>` launch **per
//! pass of the problem's [`SweepPlan`]** (`x+m`, `z`, `u+n`: three, where
//! the paper's five sweeps launch five), each priced from the problem's
//! real per-task work profile. Fusion pays off twice on the device
//! model: two launch overheads fewer per iteration, and fused threads
//! reuse operands (the per-task costs are summed, but the launch floor
//! is paid once).

use paradmm_core::{
    AdmmProblem, SerialBackend, SweepExecutor, SweepPlan, UpdateKind, UpdateTimings,
};
use paradmm_graph::VarStore;

use crate::device::{KernelStats, SimtDevice};
use crate::tasks::{TaskCost, WorkloadProfile};

/// Simulated per-iteration time, split by update kind.
#[derive(Debug, Clone, Copy)]
pub struct GpuIterationBreakdown {
    /// Simulated seconds per iteration for each of x, m, z, u, n.
    pub seconds: [f64; 5],
}

impl GpuIterationBreakdown {
    /// Total simulated seconds per iteration.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of iteration time in `kind`.
    pub fn fraction(&self, kind: UpdateKind) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.seconds[kind.index()] / t
        } else {
            0.0
        }
    }
}

/// ADMM execution on a simulated SIMT device: exact host numerics, device
/// clock from the [`SimtDevice`] model, one kernel launch per plan pass.
///
/// The [`SweepPlan`] is captured at construction (the problem's plan, or
/// the default one); every plan has the same three passes, so the priced
/// launches always match what the host executes.
pub struct GpuSimBackend {
    device: SimtDevice,
    profile: WorkloadProfile,
    /// The schedule the launches are priced for.
    plan: SweepPlan,
    /// One fused task list per plan pass, derived from `profile`.
    pass_tasks: Vec<Vec<TaskCost>>,
    /// Threads-per-block per [`UpdateKind`]; a fused pass launches with
    /// its first constituent's setting ([`paradmm_core::PassKind::timing_kind`]).
    ntb: [usize; 5],
    /// One launch's stats per plan pass.
    pass_stats: Vec<KernelStats>,
    sim_seconds: f64,
    iterations: usize,
    host: SerialBackend,
}

impl GpuSimBackend {
    /// Prices `problem` on `device` with the paper's default `ntb = 32`
    /// for every kernel, under the problem's (or the default fused)
    /// [`SweepPlan`].
    pub fn new(problem: &AdmmProblem, device: SimtDevice) -> Self {
        let profile = WorkloadProfile::from_problem(problem);
        let plan = SweepPlan::resolve(problem).into_owned();
        let pass_tasks: Vec<Vec<TaskCost>> = plan
            .passes()
            .iter()
            .map(|p| profile.pass_tasks(p.kind(), problem.graph()))
            .collect();
        let ntb = [32; 5];
        let pass_stats = Self::compute_stats(&device, &plan, &pass_tasks, &ntb);
        GpuSimBackend {
            device,
            profile,
            plan,
            pass_tasks,
            ntb,
            pass_stats,
            sim_seconds: 0.0,
            iterations: 0,
            host: SerialBackend,
        }
    }

    fn compute_stats(
        device: &SimtDevice,
        plan: &SweepPlan,
        pass_tasks: &[Vec<TaskCost>],
        ntb: &[usize; 5],
    ) -> Vec<KernelStats> {
        plan.passes()
            .iter()
            .zip(pass_tasks)
            .map(|(p, tasks)| device.kernel_time(tasks, ntb[p.kind().timing_kind().index()]))
            .collect()
    }

    /// Auto-tunes `ntb` per kernel *launch* (the paper's per-problem
    /// sweep; e.g. MPC's z-update preferring 2–16): each pass is tuned
    /// on its fused task list and the result is written to every
    /// constituent sweep's slot. Returns the settings in x, m, z, u, n
    /// order.
    pub fn tune_ntb(&mut self) -> [usize; 5] {
        for (pass, tasks) in self.plan.passes().iter().zip(&self.pass_tasks) {
            let tuned = self.device.tune_ntb(tasks);
            for k in pass.kind().kinds() {
                self.ntb[k.index()] = tuned;
            }
        }
        self.pass_stats =
            Self::compute_stats(&self.device, &self.plan, &self.pass_tasks, &self.ntb);
        self.ntb
    }

    /// Sets one kernel's threads-per-block explicitly. Under a fused
    /// plan only the pass's *first* constituent setting is launched with
    /// (setting `M` while x+m is fused changes nothing — retune or set
    /// `X` instead).
    pub fn set_ntb(&mut self, kind: UpdateKind, ntb: usize) {
        self.ntb[kind.index()] = ntb;
        self.pass_stats =
            Self::compute_stats(&self.device, &self.plan, &self.pass_tasks, &self.ntb);
    }

    /// Simulated per-iteration breakdown at current `ntb` settings; each
    /// pass's launch is reported under its first constituent kind (fused
    /// constituents' other slots read zero).
    pub fn iteration_breakdown(&self) -> GpuIterationBreakdown {
        let mut seconds = [0.0f64; 5];
        for (pass, stats) in self.plan.passes().iter().zip(&self.pass_stats) {
            seconds[pass.kind().timing_kind().index()] += stats.seconds;
        }
        GpuIterationBreakdown { seconds }
    }

    /// Simulated statistics of the kernel launch that executes `kind` —
    /// the whole fused pass's launch when `kind` is fused into one.
    pub fn kernel_stats(&self, kind: UpdateKind) -> KernelStats {
        self.plan
            .passes()
            .iter()
            .zip(&self.pass_stats)
            .find(|(p, _)| p.kind().kinds().contains(&kind))
            .map(|(_, s)| *s)
            .expect("every legal plan covers all five sweeps")
    }

    /// The schedule the launches are priced for.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Kernel launches the device pays per iteration (= plan passes).
    pub fn launches_per_iteration(&self) -> usize {
        self.plan.passes().len()
    }

    /// Total simulated device seconds accumulated so far.
    pub fn simulated_seconds(&self) -> f64 {
        self.sim_seconds
    }

    /// Iterations executed on the simulated device so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The device model.
    pub fn device(&self) -> &SimtDevice {
        &self.device
    }

    /// The work profile the kernels are priced from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current per-kernel `ntb` settings.
    pub fn ntb(&self) -> [usize; 5] {
        self.ntb
    }

    /// Cheap O(1) shape gate: factor/variable/edge counts match the
    /// profiled problem. Guards every `execute` block; the full per-task
    /// comparison lives in [`SweepExecutor::supports`].
    fn shape_matches(&self, problem: &AdmmProblem) -> bool {
        let g = problem.graph();
        self.profile.sweeps[UpdateKind::X.index()].tasks.len() == g.num_factors()
            && self.profile.sweeps[UpdateKind::Z.index()].tasks.len() == g.num_vars()
            && self.profile.sweeps[UpdateKind::M.index()].tasks.len() == g.num_edges()
    }
}

impl SweepExecutor for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpusim"
    }

    /// `true` only for workloads identical to the one this backend was
    /// profiled for: after the O(1) shape gate, every sweep's per-task
    /// cost vector is compared against a fresh profile of `problem`
    /// (an O(|E|) pass — probing is rare, so exactness beats speed here;
    /// a same-shape graph with different factor degrees or proximal
    /// operators is rejected, not silently mispriced). Probing drivers
    /// ([`paradmm_core::AutoBackend`]) use this to fall through to a
    /// general backend instead of tripping the shape assert in
    /// [`SweepExecutor::execute`].
    fn supports(&self, problem: &AdmmProblem) -> bool {
        if !self.shape_matches(problem) {
            return false;
        }
        let fresh = WorkloadProfile::from_problem(problem);
        (0..5).all(|i| self.profile.sweeps[i].tasks == fresh.sweeps[i].tasks)
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        timings: &mut UpdateTimings,
    ) {
        // The kernel prices were computed from the problem this backend
        // was built for; running a different problem would silently report
        // the wrong simulated times. (Shape gate only — the O(|E|) deep
        // comparison in supports() would tax every block.)
        assert!(
            self.shape_matches(problem),
            "GpuSimBackend was profiled for a different problem (factors/vars/edges mismatch)"
        );

        // Exact numerics on the host; host wall time is not the metric
        // here, so it is measured into a scratch accumulator.
        let mut host_timings = UpdateTimings::new();
        self.host.execute(problem, store, iters, &mut host_timings);

        // Advance the simulated clock and report *simulated* launch time
        // per pass (accounted under the pass's first constituent kind),
        // so `SolverReport::timings` shows the device breakdown through
        // the standard reporting path.
        for (pass, stats) in self.plan.passes().iter().zip(&self.pass_stats) {
            let sim = stats.seconds * iters as f64;
            self.sim_seconds += sim;
            timings.add_seconds(pass.kind().timing_kind(), sim);
        }
        self.iterations += iters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn consensus_problem() -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])),
            Box::new(QuadraticProx::isotropic(1, 1.0, &[5.0])),
        ];
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn backend_numerics_match_serial_exactly() {
        let problem = consensus_problem();
        let mut backend = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());
        let mut gpu_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut gpu_store, 40, &mut t);

        let mut cpu_store = VarStore::zeros(problem.graph());
        let mut tc = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut cpu_store, 40, &mut tc);

        assert_eq!(
            gpu_store.z, cpu_store.z,
            "gpusim must be bit-identical to serial"
        );
        assert_eq!(gpu_store.u, cpu_store.u);
    }

    #[test]
    fn supports_only_the_profiled_problem() {
        let problem = consensus_problem();
        let backend = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());
        assert!(backend.supports(&problem));

        let mut b = paradmm_graph::GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        let other = AdmmProblem::new(
            b.build(),
            vec![Box::new(QuadraticProx::isotropic(1, 1.0, &[0.0])) as Box<dyn ProxOp>],
            1.0,
            1.0,
        );
        assert!(!backend.supports(&other));
    }

    #[test]
    fn supports_rejects_same_counts_different_work() {
        // Same factor/var/edge counts as the profiled problem, but the
        // per-task work differs (heavier prox): the shape gate passes,
        // the deep per-task comparison must not.
        let problem = consensus_problem();
        let backend = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());

        let mut b = paradmm_graph::GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let same_shape_heavier = AdmmProblem::new(
            b.build(),
            vec![
                Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])) as Box<dyn ProxOp>,
                Box::new(paradmm_prox::NumericProx::new(|x: &[f64]| {
                    x.iter().map(|v| v.powi(4)).sum()
                })) as Box<dyn ProxOp>,
            ],
            1.0,
            1.0,
        );
        assert!(backend.shape_matches(&same_shape_heavier));
        assert!(!backend.supports(&same_shape_heavier));
    }

    #[test]
    fn auto_backend_falls_through_mismatched_gpusim_cleanly() {
        use paradmm_core::AutoBackend;
        // A gpusim candidate profiled for a *different* problem must be
        // skipped by the probe (supports() = false) rather than tripping
        // its shape assert, and the run must land on a CPU backend.
        let probe_problem = consensus_problem();
        let mut b = paradmm_graph::GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let other = AdmmProblem::new(
            b.build(),
            (0..3)
                .map(|i| Box::new(QuadraticProx::isotropic(1, 1.0, &[i as f64])) as Box<dyn ProxOp>)
                .collect(),
            1.0,
            1.0,
        );
        let mismatched = GpuSimBackend::new(&other, SimtDevice::tesla_k40());
        let mut auto =
            AutoBackend::with_candidates(vec![Box::new(mismatched), Box::new(SerialBackend)]);

        let mut auto_store = VarStore::zeros(probe_problem.graph());
        let mut serial_store = VarStore::zeros(probe_problem.graph());
        let mut t = UpdateTimings::new();
        auto.run_block(&probe_problem, &mut auto_store, 30, &mut t);
        let mut ts = UpdateTimings::new();
        SerialBackend.run_block(&probe_problem, &mut serial_store, 30, &mut ts);

        assert_eq!(auto.selected(), Some("serial"));
        assert!(auto
            .probe_report()
            .iter()
            .all(|&(name, _)| name != "gpusim"));
        assert_eq!(auto_store.z, serial_store.z);
    }

    #[test]
    fn auto_backend_probes_matching_gpusim_by_wall_clock() {
        use paradmm_core::AutoBackend;
        // A *matching* gpusim candidate enters the probe, ranked by its
        // real host cost (serial numerics + simulation bookkeeping) — not
        // by the simulated device seconds it reports through
        // UpdateTimings, which would let a fictitious K40 clock beat real
        // CPU backends. The probe completes and locks in some backend
        // without panicking.
        let problem = consensus_problem();
        let gpusim = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());
        let mut auto =
            AutoBackend::with_candidates(vec![Box::new(gpusim), Box::new(SerialBackend)]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        auto.run_block(&problem, &mut store, 20, &mut t);
        assert!(auto.selected().is_some());
        assert_eq!(auto.probe_report().len(), 2);
    }

    #[test]
    fn timings_report_simulated_device_seconds() {
        let problem = consensus_problem();
        let mut backend = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());
        let per_iter = backend.iteration_breakdown().total();
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut store, 10, &mut t);
        assert_eq!(t.iterations, 10);
        assert!((t.total_seconds() - 10.0 * per_iter).abs() < 1e-12);
        assert!((backend.simulated_seconds() - 10.0 * per_iter).abs() < 1e-12);
    }

    #[test]
    fn fused_default_prices_three_launches() {
        let problem = consensus_problem();
        let backend = GpuSimBackend::new(&problem, SimtDevice::tesla_k40());
        assert_eq!(backend.launches_per_iteration(), 3);
        // Fused constituents report zero in their own breakdown slot.
        let b = backend.iteration_breakdown();
        assert_eq!(b.seconds[UpdateKind::M.index()], 0.0);
        assert_eq!(b.seconds[UpdateKind::N.index()], 0.0);
        assert!(b.seconds[UpdateKind::X.index()] > 0.0);
    }
}
