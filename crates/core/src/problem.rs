//! A factor graph paired with one proximal operator per factor.

use std::sync::atomic::{AtomicU64, Ordering};

use paradmm_graph::{EdgeParams, FactorGraph, FactorId, Reordering};
use paradmm_prox::ProxOp;

use crate::plan::SweepPlan;

/// The fully-specified optimization problem the engine iterates on:
/// topology, per-factor proximal operators, and per-edge `ρ/α` parameters.
///
/// This is the Rust analogue of the paper's `Cpu_graph` after all
/// `addNode(...)` calls and `initialize_RHOS_APHAS(...)`.
///
/// A problem may additionally carry an explicit [`SweepPlan`] — the
/// compiled iteration schedule every backend executes. Without one,
/// backends fall back to [`SweepPlan::fused`], the default three-pass
/// (x+m | z | u+n) schedule; [`crate::plan::Planner`] builds
/// measured-cost plans worth installing for heterogeneous operators.
pub struct AdmmProblem {
    graph: FactorGraph,
    proxes: Vec<Box<dyn ProxOp>>,
    params: EdgeParams,
    plan: Option<SweepPlan>,
    key: u64,
}

/// The next [`AdmmProblem::key`]. Keys are never reused, so two equal
/// keys name one problem whose graph and parameters have not changed.
fn next_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // A key publishes no data; the RMW alone keeps keys distinct.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl AdmmProblem {
    /// Pairs a graph with its operators and uniform parameters.
    ///
    /// # Panics
    /// If the number of operators differs from the number of factors.
    pub fn new(graph: FactorGraph, proxes: Vec<Box<dyn ProxOp>>, rho: f64, alpha: f64) -> Self {
        assert_eq!(
            proxes.len(),
            graph.num_factors(),
            "need exactly one proximal operator per factor"
        );
        let params = EdgeParams::uniform(&graph, rho, alpha);
        AdmmProblem {
            graph,
            proxes,
            params,
            plan: None,
            key: next_key(),
        }
    }

    /// Pairs a graph with operators and explicit per-edge parameters.
    pub fn with_params(
        graph: FactorGraph,
        proxes: Vec<Box<dyn ProxOp>>,
        params: EdgeParams,
    ) -> Self {
        assert_eq!(proxes.len(), graph.num_factors());
        params.validate(&graph).expect("invalid edge parameters");
        AdmmProblem {
            graph,
            proxes,
            params,
            plan: None,
            key: next_key(),
        }
    }

    /// The topology.
    #[inline]
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// The proximal operator of factor `a`.
    #[inline]
    pub fn prox(&self, a: FactorId) -> &dyn ProxOp {
        &*self.proxes[a.idx()]
    }

    /// All proximal operators, factor-indexed.
    #[inline]
    pub fn proxes(&self) -> &[Box<dyn ProxOp>] {
        &self.proxes
    }

    /// The edge parameters.
    #[inline]
    pub fn params(&self) -> &EdgeParams {
        &self.params
    }

    /// Mutable edge parameters (a new ρ or α). Draws a new
    /// problem key, so executors rebuild what they derived from the old
    /// parameters.
    #[inline]
    pub fn params_mut(&mut self) -> &mut EdgeParams {
        self.key = next_key();
        &mut self.params
    }

    /// Names this problem's graph and edge parameters as they are now:
    /// drawn fresh at construction and by every
    /// [`AdmmProblem::params_mut`], and left as it is by
    /// [`AdmmProblem::set_prox`], [`AdmmProblem::set_plan`] and every
    /// read. An executor that derives state from the graph or the
    /// parameters keeps the key it derived it for and rebuilds when the
    /// key differs; operators are read live, so replacing one needs no
    /// rebuild.
    #[inline]
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Replaces the proximal operator of factor `a` — the paper's
    /// real-time MPC path ("we only need to update the value in the GPU
    /// of the current state of the system"): constants baked into an
    /// operator, like the initial-condition target, can be refreshed
    /// without rebuilding the graph.
    pub fn set_prox(&mut self, a: FactorId, prox: Box<dyn ProxOp>) {
        self.proxes[a.idx()] = prox;
    }

    /// The explicit iteration schedule, if one was installed. `None`
    /// means backends use the default [`SweepPlan::fused`] schedule.
    #[inline]
    pub(crate) fn plan(&self) -> Option<&SweepPlan> {
        self.plan.as_ref()
    }

    /// Installs an explicit [`SweepPlan`] every backend will execute.
    ///
    /// # Panics
    /// If the plan was built for a different graph shape
    /// (see [`SweepPlan::matches`]).
    pub fn set_plan(&mut self, plan: SweepPlan) {
        assert!(
            plan.matches(&self.graph),
            "sweep plan was built for a different graph shape"
        );
        self.plan = Some(plan);
    }

    /// Removes the explicit plan; backends revert to the default fused
    /// schedule.
    pub fn clear_plan(&mut self) {
        self.plan = None;
    }

    /// Decomposes into parts (used by [`AdmmProblem::reordered`] and by
    /// the batch repacks of [`crate::BatchSolver`] and the serving
    /// engine). Any installed [`SweepPlan`] is dropped — it was compiled
    /// for this problem and must be rebuilt for whatever the parts become.
    pub fn into_parts(self) -> (FactorGraph, Vec<Box<dyn ProxOp>>, EdgeParams) {
        (self.graph, self.proxes, self.params)
    }

    /// The problem with a locality [`Reordering`] applied: graph, per-edge
    /// parameters and proximal operators are permuted consistently (the
    /// operator of old factor `a` moves to `reordering.factor_perm()[a]`).
    /// Any installed [`SweepPlan`] is dropped — it indexed the old layout.
    ///
    /// Iterates on the reordered problem are **bit-identical** to the
    /// original's up to the same permutation of state (see
    /// [`Reordering::apply_store`] / [`Reordering::restore_store`]): the
    /// reordered graph's z-fold order tracks the original var_edges order,
    /// so every floating-point operation sequence is preserved. Pinned by
    /// `tests/reorder_equivalence.rs`.
    ///
    /// # Panics
    /// If the reordering was built for a different graph shape.
    pub fn reordered(self, reordering: &Reordering) -> AdmmProblem {
        let (graph, proxes, params) = self.into_parts();
        assert_eq!(
            reordering.factor_perm().len(),
            graph.num_factors(),
            "reordering was built for a different graph shape"
        );
        let new_graph = reordering.apply_graph(&graph);
        let new_params = reordering.apply_params(&params);
        let mut new_proxes: Vec<Option<Box<dyn ProxOp>>> =
            (0..proxes.len()).map(|_| None).collect();
        for (old, prox) in proxes.into_iter().enumerate() {
            new_proxes[reordering.factor_perm()[old] as usize] = Some(prox);
        }
        let new_proxes = new_proxes
            .into_iter()
            .map(|p| p.expect("factor_perm is a permutation"))
            .collect();
        AdmmProblem::with_params(new_graph, new_proxes, new_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::ZeroProx;

    fn tiny() -> FactorGraph {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.build()
    }

    #[test]
    fn construction_checks_operator_count() {
        let g = tiny();
        let p = AdmmProblem::new(g, vec![Box::new(ZeroProx)], 1.0, 1.0);
        assert_eq!(p.graph().num_factors(), 1);
        assert_eq!(p.prox(paradmm_graph::FactorId(0)).name(), "zero");
    }

    #[test]
    #[should_panic(expected = "one proximal operator per factor")]
    fn wrong_operator_count_panics() {
        let g = tiny();
        let _ = AdmmProblem::new(g, vec![], 1.0, 1.0);
    }

    #[test]
    fn key_names_the_graph_and_params() {
        let mut p = AdmmProblem::new(tiny(), vec![Box::new(ZeroProx)], 1.0, 1.0);
        let q = AdmmProblem::new(tiny(), vec![Box::new(ZeroProx)], 1.0, 1.0);
        assert_ne!(p.key(), q.key(), "fresh at construction");
        let built = p.key();
        p.set_prox(paradmm_graph::FactorId(0), Box::new(ZeroProx));
        p.set_plan(SweepPlan::fused(&p));
        let _ = (p.graph(), p.params(), p.proxes(), p.plan());
        p.clear_plan();
        assert_eq!(p.key(), built, "operators, plans and reads keep the key");
        p.params_mut().scale_rho(2.0);
        let scaled = p.key();
        assert_ne!(scaled, built, "fresh after params_mut");
        assert_ne!(scaled, q.key());
        let _ = p.params_mut();
        assert_ne!(p.key(), scaled, "every params_mut draws a new key");
    }

    #[test]
    fn with_params_validates() {
        let g = tiny();
        let params = EdgeParams::uniform(&g, 2.0, 0.5);
        let p = AdmmProblem::with_params(g, vec![Box::new(ZeroProx)], params);
        assert_eq!(p.params().rho(paradmm_graph::EdgeId(0)), 2.0);
    }
}
