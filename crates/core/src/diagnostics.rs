//! Schedule and state diagnostics: render what the cost-model planner
//! measured and decided ([`plan_report`]), break the x pass down by
//! operator kind ([`prox_profile`]), summarize how the fleet
//! scheduler's workers moved between instances ([`fleet_report`]), and
//! count the subnormals a state carries ([`subnormal_count`]).
//!
//! A solve's residual trajectory reaches callers through
//! [`crate::SolveOutcome::residual_trace`].

use std::collections::BTreeMap;
use std::time::Instant;

use paradmm_graph::{FactorId, VarStore};
use paradmm_prox::{ProxOp, ZeroProx};

use crate::kernels;
use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::timing::SweepCosts;

/// Renders a human-readable report of a compiled [`SweepPlan`] and the
/// measured [`SweepCosts`] it was built from: pass layout, barrier
/// count, operator imbalance, and the predicted serial iteration cost.
/// Used by `examples/heterogeneous_prox.rs` to show *why* the planner
/// chose its chunks and splits.
pub fn plan_report(plan: &SweepPlan, costs: &SweepCosts, problem: &AdmmProblem) -> String {
    let g = problem.graph();
    let mut out = String::new();
    out.push_str(&format!("plan: {}\n", plan.summary()));
    out.push_str(&format!(
        "barriers/iteration: {}\n",
        plan.barriers_per_iteration()
    ));
    out.push_str(&format!(
        "x sweep: {} factors, {:.3e}s total, heaviest/mean = {:.2}\n",
        costs.factor_seconds.len(),
        costs.x_total(),
        costs.factor_imbalance()
    ));
    out.push_str(&format!(
        "element sweeps: m {:.2e}s/edge | z {:.2e}s/var | u+n {:.2e}s/edge\n",
        costs.m_per_edge, costs.z_per_var, costs.un_per_edge
    ));
    out.push_str(&format!(
        "kernel throughput: m {:.2} | z {:.2} | u+n {:.2} GB/s\n",
        gb_per_s(m_bytes_per_edge(g.dims()), costs.m_per_edge),
        gb_per_s(z_bytes_per_var(g), costs.z_per_var),
        gb_per_s(un_bytes_per_edge(g.dims()), costs.un_per_edge),
    ));
    out.push_str(&format!(
        "predicted serial iteration: {:.3e}s\n",
        costs.predicted_iteration_seconds(g.num_edges(), g.num_vars())
    ));
    // Where the x pass goes, on the planner's kind of scratch input.
    let mut scratch = VarStore::zeros(g);
    for (i, v) in scratch.n.iter_mut().enumerate() {
        *v = 0.1 + 0.01 * (i % 7) as f64;
    }
    out.push_str("x pass by operator (fastest of 5, one factor per kernel call):\n");
    for row in prox_profile(problem, &scratch) {
        out.push_str(&format!(
            "  {:>12} deg {:<3} x {:>8}  {:>9.1} ns/call  {:>5.1} %\n",
            row.name,
            row.degree,
            row.count,
            row.ns_per_call,
            100.0 * row.share
        ));
    }
    out
}

/// One row of [`prox_profile`]: what one kind of factor costs in the x
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxKindCost {
    /// [`ProxOp::name`] of the group's operators — or `"call path"` for
    /// the row that runs [`ZeroProx`] in place of every operator.
    pub name: &'static str,
    /// Factor degree of the group; 0 on the call-path row, which spans
    /// every degree.
    pub degree: usize,
    /// Factors in the group.
    pub count: usize,
    /// Nanoseconds per call: the group's fastest repeat over its calls.
    pub ns_per_call: f64,
    /// The group's time over the summed time of all operator groups. On
    /// the call-path row: the share of that same sum spent reaching an
    /// operator and copying a block, whatever the operator then does.
    pub share: f64,
}

/// Breaks the x pass of `problem` down by operator kind: factors grouped
/// by ([`ProxOp::name`], degree), each group's operators run on the
/// `n` of `store` (into scratch; `store` is not modified), slowest group
/// first, and last a `"call path"` row in which every factor runs
/// [`ZeroProx`] — what the pass costs before any operator does
/// arithmetic.
///
/// A group is timed *as a group*, one timestamp pair around passes over
/// the whole group lasting 20 µs or more, fastest of five repeats: a
/// timestamp pair costs several cheap operator calls (65 ns against
/// 10–30 ns on the scoreboard host), so timing single calls — as
/// [`crate::Planner::measure`] does for its per-factor weights — reads
/// the clock, not the operator. Every row goes through
/// `kernels::x_update_block` one factor at a time (a group's factors
/// are scattered over the graph), so rows compare with each other; the
/// pass proper hands the kernel whole ranges and is a little cheaper per
/// call.
pub fn prox_profile(problem: &AdmmProblem, store: &VarStore) -> Vec<ProxKindCost> {
    let (g, params) = (problem.graph(), problem.params());
    let mut groups: BTreeMap<(&'static str, usize), Vec<FactorId>> = BTreeMap::new();
    for a in g.factors() {
        let kind = (problem.prox(a).name(), g.factor_degree(a));
        groups.entry(kind).or_default().push(a);
    }
    let mut x = store.x.clone();
    // Seconds for one pass over `ids`, each factor running its own
    // operator or the substitute.
    let mut pass_seconds = |ids: &[FactorId], substitute: Option<&dyn ProxOp>| {
        let mut run = |passes: usize| {
            let t0 = Instant::now();
            for _ in 0..passes {
                for &a in ids {
                    let prox = substitute.unwrap_or_else(|| problem.prox(a));
                    let (lo, hi) = (a.idx(), a.idx() + 1);
                    let block = &mut x[kernels::factor_flat_range(g, lo, hi)];
                    kernels::x_update_block(g, |_| prox, params, &store.n, block, lo, hi);
                }
            }
            t0.elapsed().as_secs_f64()
        };
        // A first pass sizes the stretch and warms the caches.
        let passes = (PROFILE_MIN_STRETCH_SECONDS / run(1).max(1e-9)).ceil() as usize;
        let best = (0..PROFILE_REPS)
            .map(|_| run(passes))
            .fold(f64::INFINITY, f64::min);
        best / passes as f64
    };
    let mut rows: Vec<ProxKindCost> = groups
        .iter()
        .map(|(&(name, degree), ids)| {
            ProxKindCost::new(name, degree, ids.len(), pass_seconds(ids, None))
        })
        .collect();
    rows.sort_by(|a, b| b.pass_ns().total_cmp(&a.pass_ns()));
    let operators_ns: f64 = rows.iter().map(ProxKindCost::pass_ns).sum();
    let all: Vec<FactorId> = g.factors().collect();
    if !all.is_empty() {
        let seconds = pass_seconds(&all, Some(&ZeroProx));
        rows.push(ProxKindCost::new("call path", 0, all.len(), seconds));
    }
    for row in &mut rows {
        row.share = row.pass_ns() / operators_ns;
    }
    rows
}

/// Shortest stretch [`prox_profile`] puts under one timestamp pair (some
/// 300 times what the pair itself costs): a small or cheap group is run
/// over and over until it fills it.
const PROFILE_MIN_STRETCH_SECONDS: f64 = 20e-6;
/// Repeats per group in [`prox_profile`]; the fastest is reported.
const PROFILE_REPS: usize = 5;

impl ProxKindCost {
    /// A row from the seconds one pass over its `count` factors took;
    /// `share` is filled in once every group is timed.
    fn new(name: &'static str, degree: usize, count: usize, pass_seconds: f64) -> Self {
        ProxKindCost {
            name,
            degree,
            count,
            ns_per_call: pass_seconds * 1e9 / count as f64,
            share: 0.0,
        }
    }

    /// Nanoseconds of one pass over the group.
    fn pass_ns(&self) -> f64 {
        self.ns_per_call * self.count as f64
    }
}

// Effective memory traffic per item of each element-wise sweep, used to
// turn the planner's measured per-item costs into GB/s figures. These
// count the doubles each kernel body touches, not cache-line traffic:
//  * m: read x_e, u_e; write m_e                      → 3·d·8 bytes/edge
//  * u+n: read u_e, x_e, z_b; write u_e, n_e          → 5·d·8 bytes/edge
//  * z: per edge of the fold read ρ_e + m_e (d+1 doubles), plus read-
//       modify-write of the d-vector accumulator     → (deg·(d+1) + 2·d)·8
//       bytes/var at the variable's degree (mean degree = ne/nv here).

fn m_bytes_per_edge(d: usize) -> f64 {
    (3 * d * 8) as f64
}

fn un_bytes_per_edge(d: usize) -> f64 {
    (5 * d * 8) as f64
}

fn z_bytes_per_var(g: &paradmm_graph::FactorGraph) -> f64 {
    let d = g.dims();
    let mean_deg = if g.num_vars() == 0 {
        0.0
    } else {
        g.num_edges() as f64 / g.num_vars() as f64
    };
    (mean_deg * (d + 1) as f64 + (2 * d) as f64) * 8.0
}

fn gb_per_s(bytes_per_item: f64, seconds_per_item: f64) -> f64 {
    if seconds_per_item <= 0.0 {
        return 0.0;
    }
    bytes_per_item / seconds_per_item / 1e9
}

/// Per-worker counters from one or more pool rounds: how many chunks
/// the worker claimed from each instance and how many of them outside
/// its own share, how often the assist scan moved it to a different
/// instance, and how many scans found nothing claimable (chunks in
/// flight elsewhere).
#[derive(Debug, Clone, Default)]
pub struct FleetWorkerStats {
    /// Chunks this worker executed, indexed by fleet instance id.
    pub chunks_by_instance: Vec<u64>,
    /// Chunks this worker claimed from another worker's share.
    pub assists: u64,
    /// Assist migrations: the scan routed the worker to a *different*
    /// instance than the one it was draining.
    pub migrations: u64,
    /// Scans that found no claimable chunk anywhere (the open passes'
    /// last chunks were in flight on other workers).
    pub idle_spins: u64,
}

impl FleetWorkerStats {
    /// Zeroed counters sized for `instances` fleet slots.
    pub(crate) fn new(instances: usize) -> Self {
        FleetWorkerStats {
            chunks_by_instance: vec![0; instances],
            assists: 0,
            migrations: 0,
            idle_spins: 0,
        }
    }

    /// Total chunks this worker executed across all instances.
    pub(crate) fn total_chunks(&self) -> u64 {
        self.chunks_by_instance.iter().sum()
    }

    fn absorb(&mut self, other: &FleetWorkerStats) {
        if self.chunks_by_instance.len() < other.chunks_by_instance.len() {
            self.chunks_by_instance
                .resize(other.chunks_by_instance.len(), 0);
        }
        for (a, b) in self
            .chunks_by_instance
            .iter_mut()
            .zip(&other.chunks_by_instance)
        {
            *a += b;
        }
        self.assists += other.assists;
        self.migrations += other.migrations;
        self.idle_spins += other.idle_spins;
    }
}

/// Accumulated assist telemetry for a fleet run: one
/// [`FleetWorkerStats`] per worker slot, merged across rounds. Cheap to
/// keep (a handful of counters bumped on already-owned cache lines) and
/// the only way to see *why* a fleet schedule behaved as it did.
#[derive(Debug, Clone, Default)]
pub struct FleetDiagnostics {
    workers: Vec<FleetWorkerStats>,
    rounds: u64,
}

impl FleetDiagnostics {
    /// Empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one round's per-worker stats (worker slot `i` of every
    /// round accumulates into entry `i`).
    pub(crate) fn record_round(&mut self, per_worker: Vec<FleetWorkerStats>) {
        if self.workers.len() < per_worker.len() {
            self.workers
                .resize_with(per_worker.len(), FleetWorkerStats::default);
        }
        for (acc, w) in self.workers.iter_mut().zip(&per_worker) {
            acc.absorb(w);
        }
        self.rounds += 1;
    }

    /// Per-worker accumulated counters.
    pub(crate) fn workers(&self) -> &[FleetWorkerStats] {
        &self.workers
    }

    /// Number of scheduling rounds recorded.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Chunks executed fleet-wide.
    pub fn total_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.total_chunks()).sum()
    }

    /// Assist migrations fleet-wide.
    pub fn total_migrations(&self) -> u64 {
        self.workers.iter().map(|w| w.migrations).sum()
    }

    /// Empty assist scans fleet-wide.
    pub fn total_idle_spins(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_spins).sum()
    }

    /// Chunks executed on instance `i` by all workers combined.
    pub(crate) fn chunks_for_instance(&self, i: usize) -> u64 {
        self.workers
            .iter()
            .map(|w| w.chunks_by_instance.get(i).copied().unwrap_or(0))
            .sum()
    }
}

/// Renders a human-readable report of fleet assist telemetry in the
/// style of [`plan_report`]: per-worker claim/migration/idle counters
/// plus the fleet-wide instance distribution — *where* workers spent
/// their claims.
pub fn fleet_report(diag: &FleetDiagnostics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fleet: {} workers over {} rounds, {} chunks total\n",
        diag.workers().len(),
        diag.rounds(),
        diag.total_chunks()
    ));
    for (i, w) in diag.workers().iter().enumerate() {
        out.push_str(&format!(
            "worker {i}: {} chunks ({} assisted), {} migrations, {} idle spins\n",
            w.total_chunks(),
            w.assists,
            w.migrations,
            w.idle_spins
        ));
    }
    let instances = diag
        .workers()
        .iter()
        .map(|w| w.chunks_by_instance.len())
        .max()
        .unwrap_or(0);
    for i in 0..instances {
        out.push_str(&format!(
            "instance {i}: {} chunks\n",
            diag.chunks_for_instance(i)
        ));
    }
    out
}

/// Number of subnormal values across all six arrays of `store`.
///
/// A healthy run reads 0, or a handful while values decaying to zero
/// cross the range. A count that *stays* above 0 means some kernel keeps
/// subnormals alive and every sweep touching them pays the CPU's denormal
/// assist — see `crate::kernels::flush_subnormal`.
pub fn subnormal_count(store: &VarStore) -> usize {
    [
        &store.x,
        &store.m,
        &store.u,
        &store.n,
        &store.z,
        &store.z_prev,
    ]
    .iter()
    .map(|a| a.iter().filter(|v| v.is_subnormal()).count())
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn problem() -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1.0, &[0.0])),
            Box::new(QuadraticProx::isotropic(1, 1.0, &[4.0])),
        ];
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn subnormal_count_sees_every_array() {
        let p = problem();
        let mut store = paradmm_graph::VarStore::zeros(p.graph());
        assert_eq!(subnormal_count(&store), 0);
        let tiny = f64::MIN_POSITIVE / 2.0;
        store.x[0] = tiny;
        store.m[1] = -tiny;
        store.u[0] = tiny;
        store.n[1] = tiny;
        store.z[0] = -tiny;
        store.z_prev[0] = tiny;
        // Neither zero, the smallest normal, nor NaN is subnormal.
        store.x[1] = -0.0;
        store.u[1] = f64::MIN_POSITIVE;
        store.m[0] = f64::NAN;
        assert_eq!(subnormal_count(&store), 6);
    }

    #[test]
    fn fleet_diagnostics_merge_across_rounds() {
        let mut diag = FleetDiagnostics::new();
        let mut a = FleetWorkerStats::new(2);
        a.chunks_by_instance = vec![3, 1];
        a.migrations = 1;
        let mut b = FleetWorkerStats::new(2);
        b.chunks_by_instance = vec![0, 4];
        b.idle_spins = 2;
        diag.record_round(vec![a.clone(), b]);
        diag.record_round(vec![a]);
        assert_eq!(diag.rounds(), 2);
        assert_eq!(diag.workers().len(), 2);
        assert_eq!(diag.total_chunks(), 12);
        assert_eq!(diag.total_migrations(), 2);
        assert_eq!(diag.total_idle_spins(), 2);
        assert_eq!(diag.chunks_for_instance(0), 6);
        assert_eq!(diag.chunks_for_instance(1), 6);
        let report = fleet_report(&diag);
        assert!(report.contains("2 workers over 2 rounds"), "{report}");
        assert!(report.contains("instance 1: 6 chunks"), "{report}");
    }

    #[test]
    fn plan_report_includes_kernel_throughput() {
        let p = problem();
        let planner = crate::plan::Planner::new();
        let costs = planner.measure(&p);
        let plan = planner.plan_from_costs(&p, &costs);
        let report = plan_report(&plan, &costs, &p);
        assert!(report.contains("kernel throughput"), "{report}");
        assert!(report.contains("GB/s"), "{report}");
        assert!(report.contains("x pass by operator"), "{report}");
        assert!(report.contains("call path"), "{report}");
    }

    #[test]
    fn prox_profile_groups_by_name_and_degree() {
        use paradmm_prox::{ConsensusEqualityProx, QuadraticProx};
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(5);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..4 {
            b.add_factor(&[vs[i], vs[i + 1]]);
            proxes.push(Box::new(ConsensusEqualityProx));
        }
        b.add_factor(&[vs[0], vs[2], vs[4]]);
        proxes.push(Box::new(ConsensusEqualityProx));
        for &v in &vs[..3] {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, &[0.5, -0.5])));
        }
        let p = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let mut store = VarStore::zeros(p.graph());
        store
            .n
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = i as f64);

        let rows = prox_profile(&p, &store);
        let kinds: std::collections::BTreeSet<_> =
            rows.iter().map(|r| (r.name, r.degree, r.count)).collect();
        let want = [
            ("call path", 0, 8),
            ("consensus", 2, 4),
            ("consensus", 3, 1),
            ("quadratic", 1, 3),
        ];
        assert_eq!(kinds, want.into_iter().collect());
        assert_eq!(rows.last().unwrap().name, "call path");
        let operators = &rows[..rows.len() - 1];
        let share: f64 = operators.iter().map(|r| r.share).sum();
        assert!(
            (share - 1.0).abs() < 1e-9,
            "operator shares sum to 1: {share}"
        );
        assert!(rows.iter().all(|r| r.ns_per_call > 0.0 && r.share > 0.0));
    }
}
