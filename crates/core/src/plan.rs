//! The `SweepPlan` IR: one ADMM iteration compiled into three fused
//! *passes* executed by every backend.
//!
//! The paper's Algorithm 2 is five embarrassingly parallel sweeps
//! (x, m, z, u, n) separated by synchronization points, and its §V
//! experiments show that synchronization — not arithmetic — is what
//! separates the OpenMP approaches. Every executor here runs the same
//! schedule, `x+m | z | u+n`:
//!
//! * a **pass** ([`Pass`]) is a fusion of adjacent sweeps over one index
//!   space — `x+m` over factor-edge ranges, `z` alone over variables
//!   (with a double-buffered `z`/`z_prev` pointer swap instead of the
//!   per-iteration copy), `u+n` over edges;
//! * passes are separated by implicit barriers, so
//!   [`SweepPlan::barriers_per_iteration`] *is* the pass count: 3
//!   synchronization points per iteration instead of the paper's 5;
//! * each pass carries a **chunk size** (the claim granularity of the
//!   work-assisting pool, [`crate::PoolBackend`]; the plan is its only
//!   source) and an optional **measured cost profile** from which the
//!   pool derives cost-balanced per-worker shares ([`Pass::split`]) —
//!   the paper's future-work item 2 ("automatic
//!   per-operator tuning") made concrete. A [`Planner`] measures once and
//!   compiles both; the plan then stays fixed for the solve.
//!
//! Fusion legality rests on Algorithm 2's Jacobi data flow: within a
//! pass, every task reads only arrays the pass does not write (the
//! `x+m` pass writes a factor's own x/m block from `n`/`u`; the `u+n`
//! pass writes an edge's own u/n from `x`/`z` and its freshly written
//! u), so *any* chunking and any split produces iterates
//! **bit-identical** to the paper's literal five sweeps
//! ([`crate::naive::NaiveAdmm`]). `tests/plan_equivalence.rs`
//! property-tests exactly that.

use std::time::Instant;

use paradmm_graph::{FactorGraph, FactorId, VarStore};
use paradmm_prox::ProxCtx;

use crate::kernels;
use crate::problem::AdmmProblem;
use crate::timing::SweepCosts;

/// What one pass computes: a fusion of adjacent sweeps over the same
/// index space. Declared in execution order, which
/// [`crate::UpdateTimings`] indexes its per-pass slots by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Fused x+m over factor-edge ranges: each factor runs its proximal
    /// operator and immediately forms `m = x + u` for its own edges.
    Xm,
    /// Consensus average over variables, with the `z`/`z_prev` buffer
    /// swap standing in for the per-iteration snapshot copy.
    Z,
    /// Fused u+n over edges (see [`kernels::un_update_range_stream`]).
    Un,
}

impl PassKind {
    /// The three passes in execution order: the one order
    /// [`SweepPlan::from_passes`] accepts.
    pub(crate) const ORDER: [PassKind; 3] = [PassKind::Xm, PassKind::Z, PassKind::Un];

    /// Short stable label (`"x+m"`, `"z"`, `"u+n"`).
    pub fn label(self) -> &'static str {
        match self {
            PassKind::Xm => "x+m",
            PassKind::Z => "z",
            PassKind::Un => "u+n",
        }
    }
}

/// One pass of a [`SweepPlan`]: the fused kernel, its index-space size,
/// the chunk granularity for the claim-based fleet executor, and an
/// optional measured per-item cost profile for static splits.
#[derive(Debug, Clone)]
pub struct Pass {
    kind: PassKind,
    items: usize,
    chunk: usize,
    /// Cumulative cost prefix (`len == items + 1`, strictly increasing,
    /// `[0] == 0`). `None` means uniform cost per item.
    cum_cost: Option<Vec<f64>>,
}

/// Cost floor so weighted prefixes stay strictly increasing even when a
/// measured cost underflows to zero.
const MIN_ITEM_COST: f64 = 1e-12;

impl Pass {
    /// A pass whose items all cost the same; static splits fall back to
    /// the count-balanced `kernels::assign_range`.
    ///
    /// # Panics
    /// If `chunk == 0`.
    pub fn uniform(kind: PassKind, items: usize, chunk: usize) -> Self {
        assert!(chunk >= 1, "pass chunk size must be positive");
        Pass {
            kind,
            items,
            chunk,
            cum_cost: None,
        }
    }

    /// A pass with measured per-item costs; static splits balance
    /// cumulative cost instead of item count. Non-positive costs are
    /// floored so the prefix stays strictly increasing.
    ///
    /// # Panics
    /// If `chunk == 0`.
    pub fn weighted(kind: PassKind, chunk: usize, costs: &[f64]) -> Self {
        assert!(chunk >= 1, "pass chunk size must be positive");
        let mut cum = Vec::with_capacity(costs.len() + 1);
        let mut acc = 0.0f64;
        cum.push(0.0);
        for &c in costs {
            acc += c.max(MIN_ITEM_COST);
            cum.push(acc);
        }
        Pass {
            kind,
            items: costs.len(),
            chunk,
            cum_cost: Some(cum),
        }
    }

    /// The fused kernel this pass runs.
    #[inline]
    pub fn kind(&self) -> PassKind {
        self.kind
    }

    /// Number of items (factors / variables / edges) in the pass.
    #[inline]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Items a pool worker claims per atomic increment.
    #[inline]
    pub(crate) fn chunk(&self) -> usize {
        self.chunk
    }

    /// Whether the pass carries a measured cost profile.
    #[inline]
    pub(crate) fn is_weighted(&self) -> bool {
        self.cum_cost.is_some()
    }

    /// The static range `[lo, hi)` worker `part` of `n_parts` owns:
    /// count-balanced via [`kernels::assign_range`] for uniform passes,
    /// cumulative-cost-balanced for weighted ones. Ranges tile
    /// `[0, items)` exactly for any `n_parts`.
    ///
    /// # Panics
    /// If `part >= n_parts`.
    pub(crate) fn split(&self, part: usize, n_parts: usize) -> (usize, usize) {
        assert!(part < n_parts, "part {part} out of range for {n_parts}");
        match &self.cum_cost {
            None => kernels::assign_range(self.items, part, n_parts),
            Some(cum) => {
                let total = *cum.last().expect("prefix is never empty");
                let bound = |i: usize| -> usize {
                    if i == 0 {
                        0
                    } else if i == n_parts {
                        self.items
                    } else {
                        let target = total * i as f64 / n_parts as f64;
                        // Number of items whose cumulative end ≤ target;
                        // cum[1..] is strictly increasing so boundaries
                        // are monotone in i.
                        cum[1..].partition_point(|&c| c <= target)
                    }
                };
                (bound(part), bound(part + 1))
            }
        }
    }
}

/// A compiled iteration schedule: the passes `x+m | z | u+n` in
/// execution order, separated by implicit barriers. Built once per
/// problem (by [`SweepPlan::fused`] or a measuring [`Planner`]) and
/// executed by every [`crate::SweepExecutor`].
#[derive(Debug, Clone)]
pub struct SweepPlan {
    passes: Vec<Pass>,
}

impl SweepPlan {
    /// Builds a plan from explicit passes — custom chunk sizes or
    /// weighted splits. `None` unless the passes are exactly `x+m`, `z`,
    /// `u+n` in that order, i.e. cover the sweeps x→m→z→u→n each once.
    pub fn from_passes(passes: Vec<Pass>) -> Option<Self> {
        let kinds = passes.iter().map(Pass::kind);
        kinds.eq(PassKind::ORDER).then_some(SweepPlan { passes })
    }

    /// The default schedule: `x+m | z | u+n` with uniform chunks of 64
    /// items. This is what every backend executes when the problem
    /// carries no explicit plan.
    pub fn fused(problem: &AdmmProblem) -> Self {
        let g = problem.graph();
        let c = DEFAULT_CHUNK;
        SweepPlan {
            passes: vec![
                Pass::uniform(PassKind::Xm, g.num_factors(), c),
                Pass::uniform(PassKind::Z, g.num_vars(), c),
                Pass::uniform(PassKind::Un, g.num_edges(), c),
            ],
        }
    }

    /// The plan `problem` carries, or (owned) the default fused schedule
    /// — the one resolution rule every backend shares.
    pub fn resolve(problem: &AdmmProblem) -> std::borrow::Cow<'_, SweepPlan> {
        match problem.plan() {
            Some(p) => std::borrow::Cow::Borrowed(p),
            None => std::borrow::Cow::Owned(SweepPlan::fused(problem)),
        }
    }

    /// The passes, in execution order.
    #[inline]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Synchronization points a barrier-style backend pays per
    /// iteration: one per pass (the last barrier doubles as the
    /// iteration boundary — the next iteration's first pass reads what
    /// the final pass wrote).
    #[inline]
    pub fn barriers_per_iteration(&self) -> usize {
        self.passes.len()
    }

    /// Whether this plan's index-space sizes match `graph` — the shape
    /// gate [`AdmmProblem::set_plan`] enforces.
    pub fn matches(&self, graph: &FactorGraph) -> bool {
        self.passes.iter().all(|p| {
            p.items()
                == match p.kind() {
                    PassKind::Xm => graph.num_factors(),
                    PassKind::Z => graph.num_vars(),
                    PassKind::Un => graph.num_edges(),
                }
        })
    }

    /// One-line human summary, e.g.
    /// `x+m[n=12,chunk=64,weighted] | z[n=7,chunk=64] | u+n[n=24,chunk=64]`.
    pub(crate) fn summary(&self) -> String {
        self.passes
            .iter()
            .map(|p| {
                format!(
                    "{}[n={},chunk={}{}]",
                    p.kind().label(),
                    p.items(),
                    p.chunk(),
                    if p.is_weighted() { ",weighted" } else { "" }
                )
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

#[cfg(test)]
impl SweepPlan {
    /// [`SweepPlan::fused`] with every pass claimed `chunk` items at a
    /// time — the plan unit tests install to force fleet claim
    /// contention.
    pub(crate) fn fused_chunked(problem: &AdmmProblem, chunk: usize) -> Self {
        let passes = SweepPlan::fused(problem)
            .passes
            .into_iter()
            .map(|p| Pass::uniform(p.kind, p.items, chunk))
            .collect();
        SweepPlan { passes }
    }
}

/// Builds measured-cost [`SweepPlan`]s: times every proximal operator
/// and every element-wise sweep on scratch state, then chooses chunk
/// sizes (so one fleet claim costs roughly
/// [`Planner::target_chunk_seconds`]) and attaches per-factor cost
/// profiles so static backends split the x+m pass by cumulative operator
/// cost instead of factor count — the difference between one worker
/// owning every expensive operator and each worker owning its fair share
/// (see `examples/heterogeneous_prox.rs`).
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    /// Timing repetitions per factor; the minimum is kept (noise on a
    /// shared machine is strictly additive).
    pub reps: usize,
    /// Desired cost of one claimed chunk, in seconds.
    pub target_chunk_seconds: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            reps: 3,
            target_chunk_seconds: 10e-6,
        }
    }
}

/// Chunk size (graph elements per claim) of the default fused plan and
/// of unmeasurable passes: small enough that a straggling worker sheds
/// load mid-pass, large enough that the claim CAS is noise.
const DEFAULT_CHUNK: usize = 64;

/// Chunk-size clamp: small enough that stragglers shed load, large
/// enough that the claim CAS stays noise.
const MIN_CHUNK_ITEMS: usize = 4;
const MAX_CHUNK_ITEMS: usize = 16_384;

impl Planner {
    /// A planner with default measurement settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures `problem` and compiles the fused three-pass schedule
    /// with measured chunk sizes and a cost-weighted x+m split profile.
    /// The measurement runs on scratch buffers — the caller's state is
    /// never touched.
    pub fn plan(&self, problem: &AdmmProblem) -> SweepPlan {
        let costs = self.measure(problem);
        self.plan_from_costs(problem, &costs)
    }

    /// Compiles the fused schedule from already-measured costs (so
    /// diagnostics can report the same numbers the plan was built from).
    pub fn plan_from_costs(&self, problem: &AdmmProblem, costs: &SweepCosts) -> SweepPlan {
        let g = problem.graph();
        let (nf, nv, ne) = (g.num_factors(), g.num_vars(), g.num_edges());

        // x+m: per-factor cost = measured prox cost + streaming m cost of
        // the factor's own edges.
        let xm_costs: Vec<f64> = (0..nf)
            .map(|a| {
                let deg = g.factor_degree(FactorId::from_usize(a)) as f64;
                costs.factor_seconds[a] + deg * costs.m_per_edge
            })
            .collect();
        let xm_total: f64 = xm_costs.iter().sum();
        let xm_chunk = self.chunk_for(xm_total, nf);
        // A weighted profile only earns its binary searches when the
        // operators are actually heterogeneous.
        let xm_pass = if Self::is_imbalanced(&xm_costs) {
            Pass::weighted(PassKind::Xm, xm_chunk, &xm_costs)
        } else {
            Pass::uniform(PassKind::Xm, nf, xm_chunk)
        };

        // z: cost per variable scales with its degree (the weighted
        // average folds one message per incident edge). Degrees are free
        // to read, so hub-heavy graphs get cost-balanced splits without
        // extra measurement. `z_per_var` is the measured *mean* (degree
        // effects already averaged in), so the degree weights are
        // normalized to keep the pass total at the measured
        // `nv · z_per_var` — otherwise the chunk sizing would see a
        // total inflated by the mean degree.
        let weight_sum: f64 = g.vars().map(|b| g.var_degree(b) as f64 + 1.0).sum();
        let z_total = costs.z_per_var * nv as f64;
        let z_scale = if weight_sum > 0.0 {
            z_total / weight_sum
        } else {
            0.0
        };
        let z_costs: Vec<f64> = g
            .vars()
            .map(|b| (g.var_degree(b) as f64 + 1.0) * z_scale)
            .collect();
        let z_chunk = self.chunk_for(z_total, nv);
        let z_pass = if Self::is_imbalanced(&z_costs) {
            Pass::weighted(PassKind::Z, z_chunk, &z_costs)
        } else {
            Pass::uniform(PassKind::Z, nv, z_chunk)
        };

        // u+n: homogeneous streaming work per edge.
        let un_total = costs.un_per_edge * ne as f64;
        let un_pass = Pass::uniform(PassKind::Un, ne, self.chunk_for(un_total, ne));

        SweepPlan {
            passes: vec![xm_pass, z_pass, un_pass],
        }
    }

    /// Times every proximal operator and the element-wise bodies the
    /// executors run — the `m = x + u` tail of the x+m pass, the swapped
    /// z average and the fused u+n pass over the dense
    /// [`EdgeStream`](paradmm_graph::EdgeStream) — on scratch state (min
    /// over [`Planner::reps`] repetitions), so the chunk sizes and
    /// weighted splits derived from them describe the kernels that will
    /// actually execute.
    pub fn measure(&self, problem: &AdmmProblem) -> SweepCosts {
        let g = problem.graph();
        let d = g.dims();
        let reps = self.reps.max(1);

        // Per-factor prox timing on scratch in/out blocks seeded with a
        // deterministic non-trivial input.
        let max_deg = g.factors().map(|a| g.factor_degree(a)).max().unwrap_or(0);
        let mut n_buf = vec![0.0f64; max_deg * d];
        for (i, v) in n_buf.iter_mut().enumerate() {
            *v = 0.1 + 0.01 * (i % 7) as f64;
        }
        let mut x_buf = vec![0.0f64; max_deg * d];
        let mut factor_seconds = Vec::with_capacity(g.num_factors());
        for a in g.factors() {
            let er = g.factor_edge_range(a);
            let k = er.len();
            let rho = &problem.params().rho[er];
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let mut ctx = ProxCtx::new(&n_buf[..k * d], rho, &mut x_buf[..k * d], d);
                problem.prox(a).prox(&mut ctx);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            factor_seconds.push(best);
        }

        // Element-wise sweep timing on a scratch store; per-item cost is
        // the min-of-reps sweep time divided by the item count.
        let mut scratch = VarStore::zeros(g);
        for (i, v) in scratch.m.iter_mut().enumerate() {
            *v = (i as f64 * 0.13).sin();
        }
        scratch.x.copy_from_slice(&scratch.m);
        scratch.u.copy_from_slice(&scratch.m);
        let (nv, ne) = (g.num_vars(), g.num_edges());
        let flat = ne * d;
        let params = problem.params();
        let time_sweep = |body: &mut dyn FnMut(&mut VarStore)| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                // Clone outside the timed region: only the sweep itself is
                // the cost being measured.
                let mut s = scratch.clone();
                let t0 = Instant::now();
                body(&mut s);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let m_s = time_sweep(&mut |s: &mut VarStore| {
            kernels::m_update_range(&s.x, &s.u, &mut s.m, 0, flat)
        });
        let z_s = time_sweep(&mut |s: &mut VarStore| {
            kernels::z_update_swapped_range(g, params, &s.m, &s.z_prev, &mut s.z, 0, nv)
        });
        let stream = paradmm_graph::EdgeStream::build(g, params);
        let un_s = time_sweep(&mut |s: &mut VarStore| {
            kernels::un_update_range_stream(&stream, &s.x, &s.z, &mut s.u, &mut s.n, 0, ne)
        });
        let per = |total: f64, items: usize| {
            if items == 0 {
                0.0
            } else {
                (total / items as f64).max(MIN_ITEM_COST)
            }
        };
        SweepCosts {
            factor_seconds,
            m_per_edge: per(m_s, ne),
            z_per_var: per(z_s, nv),
            un_per_edge: per(un_s, ne),
        }
    }

    /// Chunk size such that one claim covers ≈ `target_chunk_seconds` of
    /// average-cost items, clamped to sane bounds.
    fn chunk_for(&self, total_seconds: f64, items: usize) -> usize {
        if items == 0 || total_seconds <= 0.0 {
            return DEFAULT_CHUNK;
        }
        let per_item = total_seconds / items as f64;
        let raw = (self.target_chunk_seconds / per_item.max(MIN_ITEM_COST)) as usize;
        raw.clamp(MIN_CHUNK_ITEMS, MAX_CHUNK_ITEMS)
    }

    /// Whether a cost vector is lumpy enough (max > 2× mean) that a
    /// weighted split beats a count split.
    fn is_imbalanced(costs: &[f64]) -> bool {
        if costs.len() < 2 {
            return false;
        }
        let total: f64 = costs.iter().sum();
        let mean = total / costs.len() as f64;
        costs.iter().fold(0.0f64, |m, &c| m.max(c)) > 2.0 * mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn chain_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(n + 1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
            proxes.push(Box::new(QuadraticProx::isotropic(4, 1.0, &[0.0; 4])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn fused_plan_has_three_passes_and_barriers() {
        let p = chain_problem(5);
        let plan = SweepPlan::fused(&p);
        assert_eq!(plan.barriers_per_iteration(), 3);
        assert!(plan.matches(p.graph()));
        assert_eq!(
            plan.passes().iter().map(|x| x.kind()).collect::<Vec<_>>(),
            vec![PassKind::Xm, PassKind::Z, PassKind::Un]
        );
    }

    #[test]
    fn from_passes_rejects_illegal_orders() {
        let (xm, z, un) = (
            Pass::uniform(PassKind::Xm, 3, 8),
            Pass::uniform(PassKind::Z, 2, 8),
            Pass::uniform(PassKind::Un, 4, 8),
        );
        // z before x+m: illegal.
        let bad = vec![z.clone(), xm.clone(), un.clone()];
        assert!(SweepPlan::from_passes(bad).is_none());
        // duplicate coverage: x+m twice.
        let dup = vec![xm.clone(), xm.clone(), z.clone(), un.clone()];
        assert!(SweepPlan::from_passes(dup).is_none());
        // a sweep missing.
        assert!(SweepPlan::from_passes(vec![xm.clone(), z.clone()]).is_none());
        // the one legal shape passes.
        assert!(SweepPlan::from_passes(vec![xm, z, un]).is_some());
    }

    #[test]
    fn uniform_split_matches_assign_range() {
        let pass = Pass::uniform(PassKind::Un, 17, 8);
        for parts in [1usize, 2, 3, 7] {
            for i in 0..parts {
                assert_eq!(pass.split(i, parts), kernels::assign_range(17, i, parts));
            }
        }
    }

    #[test]
    fn weighted_split_tiles_and_balances_cost() {
        // One huge item among tiny ones: the huge item's owner should get
        // (almost) nothing else.
        let mut costs = vec![1.0f64; 64];
        costs[0] = 63.0;
        let pass = Pass::weighted(PassKind::Xm, 8, &costs);
        for parts in [1usize, 2, 4, 5] {
            let mut prev_hi = 0;
            let mut covered = 0;
            for i in 0..parts {
                let (lo, hi) = pass.split(i, parts);
                assert_eq!(lo, prev_hi, "parts={parts} part={i}");
                covered += hi - lo;
                prev_hi = hi;
            }
            assert_eq!(covered, 64, "parts={parts}");
            assert_eq!(prev_hi, 64);
        }
        // With 2 parts the totals are 126/2 = 63 per side: item 0 alone
        // hits the target exactly, so part 0 is exactly {0}.
        assert_eq!(pass.split(0, 2), (0, 1));
        assert_eq!(pass.split(1, 2), (1, 64));
    }

    #[test]
    fn weighted_split_more_parts_than_items_stays_legal() {
        let pass = Pass::weighted(PassKind::Z, 1, &[1.0, 1.0]);
        let mut covered = 0;
        let mut prev_hi = 0;
        for i in 0..5 {
            let (lo, hi) = pass.split(i, 5);
            assert_eq!(lo, prev_hi);
            covered += hi - lo;
            prev_hi = hi;
        }
        assert_eq!(covered, 2);
    }

    #[test]
    fn planner_produces_a_matching_fused_plan() {
        let p = chain_problem(12);
        let plan = Planner::new().plan(&p);
        assert!(plan.matches(p.graph()));
        assert_eq!(plan.barriers_per_iteration(), 3);
        for pass in plan.passes() {
            assert!(pass.chunk() >= 1);
        }
    }

    #[test]
    fn planner_weights_imbalanced_z_spaces() {
        // A hub variable of high degree must trigger the weighted z pass.
        let mut b = GraphBuilder::new(1);
        let hub = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for _ in 0..24 {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
            proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, &[0.0, 0.0])));
        }
        let p = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let plan = Planner::new().plan(&p);
        let z = &plan.passes()[1];
        assert_eq!(z.kind(), PassKind::Z);
        assert!(z.is_weighted(), "hub graph must get a weighted z split");
        // The hub (item 0) dominates: with 2 parts, part 0 is tiny.
        let (lo, hi) = z.split(0, 2);
        assert!(hi - lo < 13, "hub owner got {} items", hi - lo);
    }

    #[test]
    fn summary_mentions_every_pass() {
        let p = chain_problem(3);
        let s = SweepPlan::fused(&p).summary();
        assert!(s.contains("x+m["));
        assert!(s.contains("z["));
        assert!(s.contains("u+n["));
    }

    #[test]
    fn plan_installs_on_problem_and_shape_gates() {
        let mut p = chain_problem(4);
        let plan = SweepPlan::fused(&p);
        p.set_plan(plan);
        assert!(p.plan().is_some());
        p.clear_plan();
        assert!(p.plan().is_none());
        let other = chain_problem(9);
        let foreign = SweepPlan::fused(&other);
        assert!(!foreign.matches(p.graph()));
    }
}
