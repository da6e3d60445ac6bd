//! Convergence tracing and schedule diagnostics: record residuals per
//! check-point (CSV export), render what the cost-model planner
//! measured and decided ([`plan_report`]), and summarize how the fleet
//! scheduler's workers moved between instances ([`fleet_report`]).
//!
//! The paper's experiments run "for the same number of iterations" and
//! separately verify convergence; this module provides the verification
//! half for downstream users — a ring of residual samples a monitoring
//! loop can inspect or dump.

use paradmm_graph::VarStore;

use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::residuals::Residuals;
use crate::timing::SweepCosts;

/// Renders a human-readable report of a compiled [`SweepPlan`] and the
/// measured [`SweepCosts`] it was built from: pass layout, barrier
/// count, operator imbalance, and the predicted serial iteration cost.
/// Used by `examples/heterogeneous_prox.rs` and the `fused_ablation`
/// bench to show *why* the planner chose its chunks and splits.
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
        "element sweeps: m {:.2e}s/edge | z {:.2e}s/var | u {:.2e}s/edge | n {:.2e}s/edge\n",
        costs.m_per_edge, costs.z_per_var, costs.u_per_edge, costs.n_per_edge
    ));
    out.push_str(&format!(
        "kernel throughput ({:?} dispatch): m {:.2} | z {:.2} | u {:.2} | n {:.2} GB/s\n",
        crate::kernels::kernel_dispatch(),
        gb_per_s(m_bytes_per_edge(g.dims()), costs.m_per_edge),
        gb_per_s(z_bytes_per_var(g), costs.z_per_var),
        gb_per_s(u_bytes_per_edge(g.dims()), costs.u_per_edge),
        gb_per_s(n_bytes_per_edge(g.dims()), costs.n_per_edge),
    ));
    out.push_str(&format!(
        "predicted serial iteration: {:.3e}s\n",
        costs.predicted_iteration_seconds(g.num_edges(), g.num_vars())
    ));
    out
}

// Effective memory traffic per item of each element-wise sweep, used to
// turn the planner's measured per-item costs into GB/s figures. These
// count the doubles each kernel body touches, not cache-line traffic:
//  * m: read x_e, u_e; write m_e                      → 3·d·8 bytes/edge
//  * u: read u_e, x_e, z_b; write u_e                 → 4·d·8 bytes/edge
//  * n: read z_b, u_e; write n_e                      → 3·d·8 bytes/edge
//  * z: per edge of the fold read ρ_e + m_e (d+1 doubles), plus read-
//       modify-write of the d-vector accumulator     → (deg·(d+1) + 2·d)·8
//       bytes/var at the variable's degree (mean degree = ne/nv here).

fn m_bytes_per_edge(d: usize) -> f64 {
    (3 * d * 8) as f64
}

fn u_bytes_per_edge(d: usize) -> f64 {
    (4 * d * 8) as f64
}

fn n_bytes_per_edge(d: usize) -> f64 {
    (3 * d * 8) as f64
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

/// Per-worker counters from one or more fleet scheduling rounds: how
/// many chunks the worker claimed from each instance, how often the
/// assist scan moved it to a different instance, and how many scans
/// found nothing claimable (chunks in flight elsewhere).
#[derive(Debug, Clone, Default)]
pub struct FleetWorkerStats {
    /// Chunks this worker executed, indexed by fleet instance id.
    pub chunks_by_instance: Vec<u64>,
    /// Assist migrations: the scan routed the worker to a *different*
    /// instance than the one it was draining.
    pub migrations: u64,
    /// Scans that found no claimable chunk anywhere (the open passes'
    /// last chunks were in flight on other workers).
    pub idle_spins: u64,
}

impl FleetWorkerStats {
    /// Zeroed counters sized for `instances` fleet slots.
    pub fn new(instances: usize) -> Self {
        FleetWorkerStats {
            chunks_by_instance: vec![0; instances],
            migrations: 0,
            idle_spins: 0,
        }
    }

    /// Total chunks this worker executed across all instances.
    pub fn total_chunks(&self) -> u64 {
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
    pub fn record_round(&mut self, per_worker: Vec<FleetWorkerStats>) {
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
    pub fn workers(&self) -> &[FleetWorkerStats] {
        &self.workers
    }

    /// Number of scheduling rounds recorded.
    pub fn rounds(&self) -> u64 {
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
    pub fn chunks_for_instance(&self, i: usize) -> u64 {
        self.workers
            .iter()
            .map(|w| w.chunks_by_instance.get(i).copied().unwrap_or(0))
            .sum()
    }
}

/// Renders a human-readable report of fleet assist telemetry in the
/// style of [`plan_report`]: per-worker claim/migration/idle counters
/// plus the fleet-wide instance distribution. Used by the
/// `ablation_fleet` bench to show *where* workers spent their claims.
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
            "worker {i}: {} chunks, {} migrations, {} idle spins\n",
            w.total_chunks(),
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
/// assist — see [`crate::kernels::flush_subnormal`].
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

/// One trace sample.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Iteration count at which the sample was taken.
    pub iteration: usize,
    /// Residuals at that point.
    pub residuals: Residuals,
    /// [`subnormal_count`] of the state at that point.
    pub subnormals: usize,
}

/// A growing record of convergence samples.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the current state.
    pub fn record(&mut self, iteration: usize, problem: &AdmmProblem, store: &VarStore) {
        let residuals = Residuals::compute(problem.graph(), problem.params(), store);
        self.points.push(TracePoint {
            iteration,
            residuals,
            subnormals: subnormal_count(store),
        });
    }

    /// All samples, in recording order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Latest sample.
    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Whether the combined residual is (weakly) decreasing over the last
    /// `window` samples — a cheap stall detector.
    pub fn is_improving(&self, window: usize) -> bool {
        if self.points.len() < window.max(2) {
            return true;
        }
        let tail = &self.points[self.points.len() - window..];
        let first = tail
            .first()
            .map(|p| p.residuals.primal + p.residuals.dual)
            .unwrap();
        let last = tail
            .last()
            .map(|p| p.residuals.primal + p.residuals.dual)
            .unwrap();
        last <= first
    }

    /// Renders the trace as CSV (`iteration,primal,dual,x_norm,z_norm,u_norm`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("iteration,primal,dual,x_norm,z_norm,u_norm\n");
        for p in &self.points {
            let r = &p.residuals;
            out.push_str(&format!(
                "{},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e}\n",
                p.iteration, r.primal, r.dual, r.x_norm, r.z_norm, r.u_norm
            ));
        }
        out
    }

    /// Renders the trace as a JSON array of samples (hand-rolled — the
    /// repo carries no serde), one object per recorded point: residuals,
    /// norms and `"subnormals"`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let r = &p.residuals;
            out.push_str(&format!(
                "{{\"iteration\":{},\"primal\":{:e},\"dual\":{:e},\"x_norm\":{:e},\"z_norm\":{:e},\"u_norm\":{:e},\"subnormals\":{}}}",
                p.iteration, r.primal, r.dual, r.x_norm, r.z_norm, r.u_norm, p.subnormals
            ));
        }
        out.push(']');
        out
    }
}

/// Structured per-run telemetry as one JSON document: the residual
/// trajectory ([`Trace::to_json`], each sample with the state's
/// [`subnormal_count`] as `"subnormals"`) plus the per-pass wall-clock
/// breakdown from [`crate::UpdateTimings`] — what the ablation bins
/// write when given `--trace <file>`, and what the StandardRunbook-style
/// observability docs in ROADMAP ask every long run to leave behind.
pub fn run_trace_json(
    label: &str,
    trace: &Trace,
    timings: &crate::timing::UpdateTimings,
) -> String {
    use crate::kernels::UpdateKind;
    let kinds = [
        ("x", UpdateKind::X),
        ("m", UpdateKind::M),
        ("z", UpdateKind::Z),
        ("u", UpdateKind::U),
        ("n", UpdateKind::N),
    ];
    let mut passes = String::from("{");
    for (i, (name, kind)) in kinds.iter().enumerate() {
        if i > 0 {
            passes.push(',');
        }
        passes.push_str(&format!("\"{}\":{:e}", name, timings.seconds(*kind)));
    }
    passes.push('}');
    format!(
        "{{\"label\":{:?},\"iterations\":{},\"total_seconds\":{:e},\"seconds_per_iteration\":{:e},\"pass_seconds\":{},\"residual_trace\":{}}}",
        label,
        timings.iterations,
        timings.total_seconds(),
        timings.seconds_per_iteration(),
        passes,
        trace.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SerialBackend, SweepExecutor};
    use crate::timing::UpdateTimings;
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
    fn records_and_reports() {
        let p = problem();
        let mut store = paradmm_graph::VarStore::zeros(p.graph());
        let mut trace = Trace::new();
        let mut t = UpdateTimings::new();
        let mut done = 0;
        for _ in 0..10 {
            SerialBackend.run_block(&p, &mut store, 20, &mut t);
            done += 20;
            trace.record(done, &p, &store);
        }
        assert_eq!(trace.points().len(), 10);
        assert_eq!(trace.last().unwrap().iteration, 200);
        // Converging problem → residuals improve over the tail.
        assert!(trace.is_improving(5));
        let first = trace.points()[0].residuals.primal + trace.points()[0].residuals.dual;
        let last = trace.last().unwrap().residuals.primal + trace.last().unwrap().residuals.dual;
        assert!(last < first);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let p = problem();
        let store = paradmm_graph::VarStore::zeros(p.graph());
        let mut trace = Trace::new();
        trace.record(0, &p, &store);
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("iteration,primal"));
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn json_trace_round_trips_fields() {
        let p = problem();
        let mut store = paradmm_graph::VarStore::zeros(p.graph());
        let mut trace = Trace::new();
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&p, &mut store, 5, &mut t);
        trace.record(5, &p, &store);
        SerialBackend.run_block(&p, &mut store, 5, &mut t);
        trace.record(10, &p, &store);
        let json = trace.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert_eq!(json.matches("\"iteration\":").count(), 2);
        assert!(json.contains("\"iteration\":5,"), "{json}");
        assert!(json.contains("\"iteration\":10,"), "{json}");
        for field in ["primal", "dual", "x_norm", "z_norm", "u_norm", "subnormals"] {
            assert_eq!(json.matches(&format!("\"{field}\":")).count(), 2, "{json}");
        }
    }

    #[test]
    fn run_trace_json_embeds_timings_and_trajectory() {
        let p = problem();
        let mut store = paradmm_graph::VarStore::zeros(p.graph());
        let mut trace = Trace::new();
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&p, &mut store, 8, &mut t);
        trace.record(8, &p, &store);
        let doc = run_trace_json("consensus-pair", &trace, &t);
        assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
        assert!(doc.contains("\"label\":\"consensus-pair\""), "{doc}");
        assert!(doc.contains("\"iterations\":8"), "{doc}");
        for pass in ["\"x\":", "\"m\":", "\"z\":", "\"u\":", "\"n\":"] {
            assert!(doc.contains(pass), "{doc}");
        }
        assert!(doc.contains("\"residual_trace\":[{"), "{doc}");
        assert!(doc.contains("\"total_seconds\":"), "{doc}");
        assert!(doc.contains("\"seconds_per_iteration\":"), "{doc}");
    }

    #[test]
    fn subnormal_count_sees_every_array_and_reaches_the_trace() {
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
        let mut trace = Trace::new();
        trace.record(0, &p, &store);
        assert_eq!(trace.last().unwrap().subnormals, 6);
        let doc = run_trace_json("stalled", &trace, &UpdateTimings::new());
        assert!(doc.contains("\"subnormals\":6"), "{doc}");
    }

    #[test]
    fn empty_trace_serializes_to_empty_array() {
        let trace = Trace::new();
        assert_eq!(trace.to_json(), "[]");
    }

    #[test]
    fn short_trace_counts_as_improving() {
        let trace = Trace::new();
        assert!(trace.is_improving(5));
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
        assert!(report.contains("Specialized"), "{report}");
    }
}
