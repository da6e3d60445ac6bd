//! Primal/dual residuals, stopping criteria, and the one stopping loop.
//!
//! Standard ADMM convergence monitoring (Boyd et al. §3.3) adapted to the
//! factor-graph form: the primal residual stacks the per-edge consensus
//! gaps `x(a,b) − z_b`, and the dual residual stacks `ρ(a,b)·(z_b − z_b⁻)`.
//!
//! [`RunState`] is Algorithm 2's outer loop — sweep a block, check
//! residuals, stop — for one instance. Every driver ([`crate::Solver`],
//! [`crate::BatchSolver`], [`crate::FleetSolver`] and the serve engine)
//! asks it how far to run and hands it residuals over its own store or
//! edge range, so each instance's check schedule and stop iteration are
//! the same whichever driver ran it.

use paradmm_graph::{EdgeParams, FactorGraph, VarStore};

/// Norms of the primal and dual residuals after an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residuals {
    /// `‖r‖₂` with `r(a,b) = x(a,b) − z_b` stacked over edges.
    pub primal: f64,
    /// `‖s‖₂` with `s(a,b) = ρ(a,b)·(z_b − z_b_prev)` stacked over edges.
    pub dual: f64,
    /// `‖x‖₂`, for relative tolerance scaling.
    pub x_norm: f64,
    /// `‖z‖₂` stacked over edges, for relative tolerance scaling.
    pub z_norm: f64,
    /// `‖u‖₂`, for relative dual tolerance scaling.
    pub u_norm: f64,
}

impl Residuals {
    /// Computes both residual norms from current state.
    pub fn compute(graph: &FactorGraph, params: &EdgeParams, store: &VarStore) -> Self {
        Self::compute_edge_range(graph, params, store, 0, graph.num_edges())
    }

    /// Residual norms restricted to edges `[e_lo, e_hi)` — the
    /// per-instance check of a batched solve, where each instance owns a
    /// contiguous edge range of the fused store. Accumulation visits
    /// edges in the same ascending order as [`Residuals::compute`] over a
    /// solo store, so the restricted norms are bit-identical to solo
    /// residuals.
    pub fn compute_edge_range(
        graph: &FactorGraph,
        params: &EdgeParams,
        store: &VarStore,
        e_lo: usize,
        e_hi: usize,
    ) -> Self {
        let d = graph.dims();
        let mut primal_sq = 0.0;
        let mut dual_sq = 0.0;
        let mut x_sq = 0.0;
        let mut z_sq = 0.0;
        let mut u_sq = 0.0;
        for e in (e_lo..e_hi).map(paradmm_graph::EdgeId::from_usize) {
            let b = graph.edge_var(e);
            let rho = params.rho(e);
            let xe = &store.x[e.idx() * d..(e.idx() + 1) * d];
            let ue = &store.u[e.idx() * d..(e.idx() + 1) * d];
            let zb = &store.z[b.idx() * d..(b.idx() + 1) * d];
            let zp = &store.z_prev[b.idx() * d..(b.idx() + 1) * d];
            for c in 0..d {
                let r = xe[c] - zb[c];
                primal_sq += r * r;
                let s = rho * (zb[c] - zp[c]);
                dual_sq += s * s;
                x_sq += xe[c] * xe[c];
                z_sq += zb[c] * zb[c];
                u_sq += ue[c] * ue[c];
            }
        }
        Residuals {
            primal: primal_sq.sqrt(),
            dual: dual_sq.sqrt(),
            x_norm: x_sq.sqrt(),
            z_norm: z_sq.sqrt(),
            u_norm: u_sq.sqrt(),
        }
    }

    /// Whether both residuals fall below the absolute+relative thresholds.
    pub fn converged(&self, n_components: usize, eps_abs: f64, eps_rel: f64) -> bool {
        let sqrt_n = (n_components as f64).sqrt();
        let eps_pri = sqrt_n * eps_abs + eps_rel * self.x_norm.max(self.z_norm);
        let eps_dual = sqrt_n * eps_abs + eps_rel * self.u_norm;
        self.primal <= eps_pri && self.dual <= eps_dual
    }
}

/// When to stop iterating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingCriteria {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Absolute tolerance ε_abs.
    pub eps_abs: f64,
    /// Relative tolerance ε_rel.
    pub eps_rel: f64,
    /// Evaluate residuals every `check_every` iterations (residual
    /// computation is itself an O(|E|·d) sweep).
    pub check_every: usize,
}

impl Default for StoppingCriteria {
    fn default() -> Self {
        StoppingCriteria {
            max_iters: 1000,
            eps_abs: 1e-8,
            eps_rel: 1e-6,
            check_every: 10,
        }
    }
}

impl StoppingCriteria {
    /// Fixed iteration count, no residual checks — how the paper's speedup
    /// experiments run ("time for 10/100/1000 iterations").
    pub fn fixed_iterations(n: usize) -> Self {
        StoppingCriteria {
            max_iters: n,
            eps_abs: 0.0,
            eps_rel: 0.0,
            check_every: usize::MAX,
        }
    }
}

/// Why an instance stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Residuals fell below tolerance.
    Converged,
    /// The iteration budget was exhausted.
    MaxIterations,
}

/// One instance's outcome: what a [`RunState`] reports.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Iterations this instance executed.
    pub iterations: usize,
    /// Why this instance stopped.
    pub stop_reason: StopReason,
    /// Residuals at the instance's final check (if any check ran).
    pub final_residuals: Option<Residuals>,
}

/// One instance's progress through its block schedule: run
/// [`RunState::next_block`] iterations, then report them with
/// [`RunState::after_block`], until the next block is 0.
///
/// Check points fall at multiples of `check_every` (0 counts as 1) and
/// at the budget; with `check_every == usize::MAX` (fixed iterations)
/// there are none and the whole budget is one block. A driver may run
/// fewer iterations than `next_block` — a pack runs the minimum over
/// its members — and residuals are computed only when `done` lands on a
/// check point, so the schedule does not depend on how blocks are cut.
#[derive(Debug, Clone)]
pub struct RunState {
    criteria: StoppingCriteria,
    budget: usize,
    done: usize,
    n_components: usize,
    final_residuals: Option<Residuals>,
    stop_reason: Option<StopReason>,
}

impl RunState {
    /// A fresh instance over `graph` that may run `budget` iterations
    /// under `criteria` (the budget, not `criteria.max_iters`, caps
    /// it). A zero budget is stopped from the start.
    pub fn new(criteria: StoppingCriteria, budget: usize, graph: &FactorGraph) -> Self {
        RunState {
            criteria,
            budget,
            done: 0,
            n_components: graph.num_edges() * graph.dims(),
            final_residuals: None,
            stop_reason: (budget == 0).then_some(StopReason::MaxIterations),
        }
    }

    /// Iterations to the next check point or to the budget; 0 once
    /// stopped.
    pub fn next_block(&self) -> usize {
        if self.stop_reason.is_some() {
            return 0;
        }
        let left = self.budget - self.done;
        match self.criteria.check_every {
            usize::MAX => left,
            every => {
                let every = every.max(1);
                (every - self.done % every).min(left)
            }
        }
    }

    /// Records `iters` more iterations. At a check point, calls
    /// `residuals` and stops on convergence; at the budget, stops with
    /// [`StopReason::MaxIterations`]. Returns the residuals of this
    /// check, if one ran.
    ///
    /// # Panics
    /// Unless `1 <= iters <= next_block()`.
    pub fn after_block(
        &mut self,
        iters: usize,
        residuals: impl FnOnce() -> Residuals,
    ) -> Option<Residuals> {
        let to_next = self.next_block();
        assert!(
            (1..=to_next).contains(&iters),
            "block of {iters} iterations overruns the schedule ({to_next} to the next stop)"
        );
        // A block that reaches `next_block` lands on a check point,
        // unless the schedule has none.
        let at_check = self.criteria.check_every != usize::MAX && iters == to_next;
        self.done += iters;
        let checked = at_check.then(residuals);
        if let Some(r) = checked {
            self.final_residuals = Some(r);
            let c = &self.criteria;
            if r.converged(self.n_components, c.eps_abs, c.eps_rel) {
                self.stop_reason = Some(StopReason::Converged);
            }
        }
        if self.stop_reason.is_none() && self.done == self.budget {
            self.stop_reason = Some(StopReason::MaxIterations);
        }
        checked
    }

    /// The stopping criteria this instance runs under.
    pub fn criteria(&self) -> &StoppingCriteria {
        &self.criteria
    }

    /// Iterations run so far.
    pub(crate) fn done(&self) -> usize {
        self.done
    }

    /// Whether the instance has stopped (converged or out of budget).
    pub fn is_stopped(&self) -> bool {
        self.stop_reason.is_some()
    }

    /// The outcome so far; an instance that has not stopped reports
    /// [`StopReason::MaxIterations`].
    pub fn report(&self) -> InstanceReport {
        InstanceReport {
            iterations: self.done,
            stop_reason: self.stop_reason.unwrap_or(StopReason::MaxIterations),
            final_residuals: self.final_residuals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;

    fn setup() -> (FactorGraph, EdgeParams, VarStore) {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let g = b.build();
        let p = EdgeParams::uniform(&g, 2.0, 1.0);
        let s = VarStore::zeros(&g);
        (g, p, s)
    }

    #[test]
    fn zero_state_zero_residuals() {
        let (g, p, s) = setup();
        let r = Residuals::compute(&g, &p, &s);
        assert_eq!(r.primal, 0.0);
        assert_eq!(r.dual, 0.0);
        assert!(r.converged(g.num_edges(), 1e-8, 1e-6));
    }

    #[test]
    fn primal_residual_measures_consensus_gap() {
        let (g, p, mut s) = setup();
        s.x[0] = 3.0; // edge 0 disagrees with z=0
        let r = Residuals::compute(&g, &p, &s);
        assert!((r.primal - 3.0).abs() < 1e-12);
        assert_eq!(r.dual, 0.0);
        assert!(!r.converged(g.num_edges(), 1e-8, 1e-6));
    }

    #[test]
    fn dual_residual_measures_z_movement() {
        let (g, p, mut s) = setup();
        s.z[0] = 1.0;
        s.z_prev[0] = 0.0;
        let r = Residuals::compute(&g, &p, &s);
        // Two edges on the variable, each contributing (2·1)² → √8.
        assert!((r.dual - (8.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn relative_tolerance_scales_with_norms() {
        let (g, p, mut s) = setup();
        // Large solution magnitude with proportionally small residual.
        s.x[0] = 1000.0;
        s.x[1] = 1000.0;
        s.z[0] = 1000.0 - 1e-4;
        s.z_prev[0] = s.z[0];
        let r = Residuals::compute(&g, &p, &s);
        assert!(!r.converged(g.num_edges(), 0.0, 1e-9));
        assert!(r.converged(g.num_edges(), 0.0, 1e-3));
    }

    #[test]
    fn fixed_iterations_never_checks() {
        let sc = StoppingCriteria::fixed_iterations(100);
        assert_eq!(sc.max_iters, 100);
        assert_eq!(sc.check_every, usize::MAX);
    }

    /// Steps `run` by its own blocks with fixed `residuals`: the
    /// `(done, checked)` of every block, then the final report.
    fn schedule(mut run: RunState, residuals: Residuals) -> (Vec<(usize, bool)>, InstanceReport) {
        let mut blocks = Vec::new();
        while run.next_block() > 0 {
            let checked = run.after_block(run.next_block(), || residuals).is_some();
            blocks.push((run.done(), checked));
        }
        (blocks, run.report())
    }

    #[test]
    fn run_state_follows_the_solo_schedule() {
        let (g, p, mut s) = setup();
        s.x[0] = 3.0; // never converges
        let far = Residuals::compute(&g, &p, &s);
        let s25 = StoppingCriteria {
            max_iters: 60,
            eps_abs: 0.0,
            eps_rel: 0.0,
            check_every: 25,
        };
        let mut run = RunState::new(s25, 60, &g);
        assert_eq!(run.next_block(), 25);
        let (blocks, report) = schedule(run.clone(), far);
        assert_eq!(
            blocks,
            vec![(25, true), (50, true), (60, true)],
            "checks at 25, 50, and a final partial block checked at max"
        );
        assert_eq!(report.iterations, 60);
        assert_eq!(report.stop_reason, StopReason::MaxIterations);
        assert_eq!(report.final_residuals, Some(far));
        assert!(run.after_block(3, || far).is_none());
        assert_eq!(run.next_block(), 22, "a shorter block keeps the schedule");

        let fixed = StoppingCriteria::fixed_iterations(40);
        let mut run = RunState::new(fixed, 40, &g);
        assert_eq!(run.next_block(), 40, "fixed iterations run as one block");
        assert_eq!(schedule(run.clone(), far).0, vec![(40, false)]);
        assert!(run.after_block(17, || far).is_none());
        assert_eq!(run.next_block(), 23);

        let every = |check_every| StoppingCriteria { check_every, ..s25 };
        let (blocks, _) = schedule(RunState::new(every(0), 5, &g), far);
        assert_eq!(blocks.len(), 5);
        assert_eq!(
            blocks,
            schedule(RunState::new(every(1), 5, &g), far).0,
            "check_every = 0 behaves as 1"
        );

        let empty = RunState::new(s25, 0, &g);
        assert_eq!(empty.next_block(), 0);
        let report = empty.report();
        assert_eq!(report.iterations, 0);
        assert_eq!(report.stop_reason, StopReason::MaxIterations);
        assert!(report.final_residuals.is_none());
    }

    #[test]
    fn run_state_stops_at_the_first_converged_check() {
        let (g, p, s) = setup();
        let zero = Residuals::compute(&g, &p, &s);
        let mut run = RunState::new(StoppingCriteria::default(), 1000, &g);
        assert_eq!(run.after_block(10, || zero), Some(zero));
        assert!(run.is_stopped());
        assert_eq!(run.next_block(), 0);
        let report = run.report();
        assert_eq!(report.iterations, 10);
        assert_eq!(report.stop_reason, StopReason::Converged);
    }
}
