//! Per-layer measurements of one problem pair, taken from outside by
//! timing calls into each crate's public functions. Every workload's
//! traced run goes through here: the family workloads with their
//! tolerance-phase and large-phase problems, `serve-mixed` with the
//! fused pack its batch lane runs.

use std::hint::black_box;
use std::time::Instant;

use paradmm_core::{
    kernels, AdmmProblem, AutoBackend, BackendSpec, Planner, Residuals, SerialBackend, Solver,
    SolverOptions, StaleBoundedBackend, StopReason, StoppingCriteria, SweepExecutor, SweepPlan,
    UpdateTimings,
};
use paradmm_graph::{
    io, EdgeStream, FactorGraph, GraphBuilder, Partition, PartitionStats, Reordering, ShardedStore,
    VarStore,
};
use paradmm_linalg::{project_affine_weighted, Matrix};

use crate::kit::host;
use crate::kit::names::EXECUTORS;
use crate::kit::report::Report;
use crate::kit::stats::median;
use crate::kit::trace::Tracer;

/// Share of `--seconds` a traced run spends alternating `Solver::run`
/// with its replay (beyond the minimum two pairs); the other layers do
/// fixed work.
pub const SOLVER_SHARE: f64 = 0.2;

/// The problems a workload's layers are measured on.
pub struct Problems<'a> {
    /// Solved to tolerance (block overheads, solver replay).
    pub tol: &'a AdmmProblem,
    /// State a tolerance solve starts from.
    pub tol_init: &'a VarStore,
    /// A second, identical tolerance problem for `Solver::run` to own.
    pub tol_twin: AdmmProblem,
    /// Iteration budget of a tolerance solve.
    pub max_iters: usize,
    /// Run in fixed blocks (kernels, executors, graph layer).
    pub large: &'a AdmmProblem,
    /// State the large phase starts from.
    pub large_init: &'a VarStore,
    /// Iterations per large-phase block.
    pub block: usize,
}

/// Seconds `f` takes, median over `repeats` calls after one untimed
/// call.
pub fn timed<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The executor named `e` in [`EXECUTORS`], at `threads` workers.
fn executor(e: &str, threads: usize) -> Box<dyn SweepExecutor> {
    let t = Some(threads);
    match e {
        "serial" => BackendSpec::Serial.to_backend(),
        "rayon" => BackendSpec::Rayon { threads: t }.to_backend(),
        "barrier" => BackendSpec::Barrier { threads: t }.to_backend(),
        "worksteal" => BackendSpec::WorkSteal { threads: t }.to_backend(),
        "sharded" => BackendSpec::Sharded { parts: t }.to_backend(),
        "fleet" => BackendSpec::Fleet { threads: t }.to_backend(),
        "stale0" => Box::new(StaleBoundedBackend::new(threads, 0)),
        "async" => BackendSpec::Async { threads: t }.to_backend(),
        other => unreachable!("unknown executor {other}"),
    }
}

/// `host.*`: calibration only — floors for the kernel bandwidth shares
/// and the per-block overheads.
pub fn host_layer(report: &mut Report, working_set_bytes: usize) -> f64 {
    let threads = host::threads();
    let dram_bytes = host::dram_triad_bytes();
    report.value("host.threads", threads as f64, "min(nproc, 4)");
    report.value(
        "host.dram_gbps",
        host::triad_gbps(dram_bytes, 2),
        &format!(
            "1-thread triad over {} MiB (4x the {} MiB LLC, capped at RAM/8 and 512 MiB)",
            dram_bytes >> 20,
            host::llc_bytes() >> 20
        ),
    );
    let ws_gbps = host::triad_gbps(working_set_bytes, 9);
    report.value(
        "host.ws_gbps",
        ws_gbps,
        &format!(
            "1-thread triad over {:.1} MiB, the large-phase working set",
            working_set_bytes as f64 / (1 << 20) as f64
        ),
    );
    report.value(
        "host.spawn_us",
        host::spawn_join_us(threads, 200),
        "thread::scope spawn+join at host.threads",
    );
    report.value(
        "host.barrier_us",
        host::barrier_us(threads, 20_000),
        "std Barrier round trip at host.threads",
    );
    ws_gbps
}

fn rebuild(graph: &FactorGraph) -> FactorGraph {
    let mut b = GraphBuilder::with_capacity(graph.dims(), graph.num_factors(), graph.num_edges());
    b.add_vars(graph.num_vars());
    for a in graph.factors() {
        b.add_factor(graph.factor_vars(a));
    }
    b.build()
}

/// `graph.*` except `graph.pack_s` (which needs an instance set and is
/// reported by the serve layers).
pub fn graph_layer(report: &mut Report, problem: &AdmmProblem, init: &VarStore) {
    let (g, params) = (problem.graph(), problem.params());
    let threads = host::threads();
    report.value(
        "graph.build_s",
        timed(3, || rebuild(g)),
        "GraphBuilder replay: add_vars, add_factor per factor, build",
    );
    let mut partition = Partition::grow(g, threads);
    report.value(
        "graph.partition_s",
        timed(1, || partition = Partition::grow(g, threads)),
        "Partition::grow at host.threads parts",
    );
    report.value(
        "graph.shard_build_s",
        timed(2, || ShardedStore::new(g, params, &partition)),
        "ShardedStore::new over that partition",
    );
    report.value(
        "graph.reorder_s",
        timed(2, || Reordering::rcm(g)),
        "Reordering::rcm",
    );
    let mut bytes = Vec::new();
    let codec_s = timed(3, || {
        bytes.clear();
        io::encode_graph(g, &mut bytes);
        let graph_end = bytes.len();
        io::encode_params(params, &mut bytes);
        let params_end = bytes.len();
        io::encode_store(init, &mut bytes);
        let decoded = io::decode_graph(&bytes[..graph_end]).expect("graph roundtrip");
        io::decode_params(&bytes[graph_end..params_end], &decoded).expect("params roundtrip");
        io::decode_store(&bytes[params_end..], &decoded).expect("store roundtrip");
    });
    report.value(
        "graph.codec_mbps",
        2.0 * bytes.len() as f64 / codec_s / 1e6,
        &format!(
            "io::encode_* + decode_* of graph, params and store ({} bytes each way)",
            bytes.len()
        ),
    );
    let stats = PartitionStats::compute(g, &partition);
    report.value(
        "graph.cut_edges_share",
        stats.cut_edges as f64 / g.num_edges() as f64,
        "edges into halo variables / edges",
    );
    report.value(
        "graph.halo_vars",
        stats.halo_vars as f64,
        "variables touched by more than one part",
    );
}

/// `prox.call_ns`, `prox.imbalance`, `linalg.kkt_solve_ns`, `plan.*`.
/// (`prox.calls` comes from the solver replay.)
pub fn prox_and_plan_layers(report: &mut Report, problem: &AdmmProblem, init: &VarStore) {
    let g = problem.graph();
    let mut store = init.clone();
    let sweep_s = timed(5, || {
        kernels::x_update_range(
            g,
            problem.proxes(),
            problem.params(),
            &store.n,
            &mut store.x,
            0,
            g.num_factors(),
        )
    });
    report.value(
        "prox.call_ns",
        sweep_s * 1e9 / g.num_factors() as f64,
        "kernels::x_update_range over all factors / factors",
    );

    let planner = Planner::new();
    let mut costs = planner.measure(problem);
    report.value(
        "plan.measure_s",
        timed(2, || costs = planner.measure(problem)),
        "Planner::measure",
    );
    report.value(
        "prox.imbalance",
        costs.factor_imbalance(),
        "SweepCosts::factor_imbalance: max factor cost / mean",
    );
    report.value(
        "plan.compile_s",
        timed(3, || planner.plan_from_costs(problem, &costs)),
        "Planner::plan_from_costs",
    );
    report.value(
        "plan.barriers_per_iter",
        SweepPlan::resolve(problem).barriers_per_iteration() as f64,
        "passes of the plan every executor runs",
    );

    // MPC's dynamics factor: 4 constraints over a 10-wide block.
    let mut m = Matrix::zeros(4, 10);
    for row in 0..4 {
        for col in 0..10 {
            m[(row, col)] = if col == row + 5 {
                -1.0
            } else {
                0.01 * (1 + row + col) as f64
            };
        }
    }
    let (c, n, w) = (vec![0.0; 4], vec![0.1; 10], vec![2.0; 10]);
    let reps = 2000;
    let kkt_s = timed(5, || {
        for _ in 0..reps {
            black_box(project_affine_weighted(&m, &c, black_box(&n), &w).expect("full row rank"));
        }
    });
    report.value(
        "linalg.kkt_solve_ns",
        kkt_s * 1e9 / reps as f64,
        "project_affine_weighted at MPC's dynamics size (4x10)",
    );
}

/// Bytes one iteration moves, computed from array sizes (not measured):
/// `(xm, z, un)`.
fn computed_bytes(g: &FactorGraph) -> (f64, f64, f64) {
    let (e, v, d) = (g.num_edges() as f64, g.num_vars() as f64, g.dims() as f64);
    // x+m: read n, u; write x, m; read rho.
    let xm = 32.0 * e * d + 8.0 * e;
    // z: read m, rho and the var→edge index; write z.
    let z = 8.0 * e * d + 12.0 * e + 8.0 * v * d;
    // u+n: read x, gather z, read+write u, write n; read rho, alpha, z_base.
    let un = 40.0 * e * d + 20.0 * e;
    (xm, z, un)
}

/// `kernels.*`: a hand-driven serial iteration from the public kernel
/// functions, asserted bit-identical to `SerialBackend` after the block.
pub fn kernels_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    problem: &AdmmProblem,
    init: &VarStore,
    block: usize,
    ws_gbps: f64,
) {
    let (g, params) = (problem.graph(), problem.params());
    let (nf, nv, ne, d) = (g.num_factors(), g.num_vars(), g.num_edges(), g.dims());
    let mut store = init.clone();
    let stream = EdgeStream::build(g, params);
    let (mut xm, mut z, mut un) = (Vec::new(), Vec::new(), Vec::new());
    let root = tracer.begin("core.kernels.block", 0);
    for _ in 0..block {
        let t0 = Instant::now();
        kernels::xm_update_range(
            g,
            problem.proxes(),
            params,
            &store.n,
            &store.u,
            &mut store.x,
            &mut store.m,
            0,
            nf,
        );
        let t1 = Instant::now();
        store.swap_z();
        kernels::z_update_swapped_range(g, params, &store.m, &store.z_prev, &mut store.z, 0, nv);
        let t2 = Instant::now();
        kernels::un_update_range_stream(
            &stream,
            &store.x,
            &store.z,
            &mut store.u,
            &mut store.n,
            0,
            ne,
        );
        let t3 = Instant::now();
        tracer.record("core.kernels.xm", 0, t0, t1);
        tracer.record("core.kernels.z", 0, t1, t2);
        tracer.record("core.kernels.un", 0, t2, t3);
        xm.push((t1 - t0).as_secs_f64());
        z.push((t2 - t1).as_secs_f64());
        un.push((t3 - t2).as_secs_f64());
    }
    tracer.end(root);

    let mut reference = init.clone();
    SerialBackend.run_block(problem, &mut reference, block, &mut UpdateTimings::new());
    let identical = same_state(&store, &reference);
    report.check(
        "hand-driven kernel iteration ≡ SerialBackend",
        identical,
        format!(
            "{block} iterations of xm_update_range, z_update_swapped_range, un_update_range_stream"
        ),
    );
    report.attempted += 1;
    report.failed += u64::from(!identical);

    let (xm_s, z_s, un_s) = (median(&xm), median(&z), median(&un));
    report.median("kernels.xm_s", &xm, "fused prox + m pass, per iteration");
    report.median(
        "kernels.z_s",
        &z,
        "z pass on swapped buffers, per iteration",
    );
    report.median(
        "kernels.un_s",
        &un,
        "fused u+n pass over the edge stream, per iteration",
    );
    let flat = ne * d;
    let m_s = timed(5, || {
        kernels::m_update_range(&store.x, &store.u, &mut store.m, 0, flat)
    });
    let (xm_bytes, z_bytes, un_bytes) = computed_bytes(g);
    report.value(
        "kernels.m_gbps",
        24.0 * flat as f64 / m_s / 1e9,
        "m_update_range alone; computed 24 B per component",
    );
    report.value(
        "kernels.z_gbps",
        z_bytes / z_s / 1e9,
        "computed bytes / kernels.z_s",
    );
    report.value(
        "kernels.un_gbps",
        un_bytes / un_s / 1e9,
        "computed bytes / kernels.un_s",
    );
    report.value(
        "kernels.z_bw_share",
        z_bytes / z_s / 1e9 / ws_gbps,
        "kernels.z_gbps / host.ws_gbps",
    );
    report.value(
        "kernels.un_bw_share",
        un_bytes / un_s / 1e9 / ws_gbps,
        "kernels.un_gbps / host.ws_gbps",
    );
    report.value(
        "kernels.bytes_per_iter",
        xm_bytes + z_bytes + un_bytes,
        "computed from array sizes, not measured",
    );
    let x_s = timed(5, || {
        kernels::x_update_range(g, problem.proxes(), params, &store.n, &mut store.x, 0, nf)
    });
    report.value(
        "kernels.elementwise_share",
        (1.0 - x_s / (xm_s + z_s + un_s)).max(0.0),
        "1 - x_update_range alone / iteration: what is not prox",
    );
}

/// Whether two states agree bit for bit on every array.
pub fn same_state(a: &VarStore, b: &VarStore) -> bool {
    a.x == b.x && a.m == b.m && a.u == b.u && a.n == b.n && a.z == b.z && a.z_prev == b.z_prev
}

/// `backend.{E}.*` and `backend.auto.probe_s`.
pub fn backend_layer(report: &mut Report, tracer: &mut Tracer, p: &Problems<'_>) {
    let threads = host::threads();
    let mut serial_iter_s = 0.0;
    let mut best_parallel = ("", f64::INFINITY);
    for e in EXECUTORS {
        let root = tracer.begin("core.backend.executor", 0);
        // Large phase: one untimed block (lazy store builds, worker
        // start-up) then three timed ones. The fastest is reported, as for
        // `iter_par_s`: this host lends its second core by the second.
        let mut backend = executor(e, threads);
        let mut store = p.large_init.clone();
        backend.run_block(p.large, &mut store, p.block, &mut UpdateTimings::new());
        let mut timings = UpdateTimings::new();
        let mut samples = Vec::new();
        let mut wall = 0.0;
        for _ in 0..3 {
            let t0 = Instant::now();
            backend.run_block(p.large, &mut store, p.block, &mut timings);
            let t1 = Instant::now();
            tracer.record("core.backend.run_block", 0, t0, t1);
            wall += (t1 - t0).as_secs_f64();
            samples.push((t1 - t0).as_secs_f64() / p.block as f64);
        }
        let iter_s = samples.iter().copied().fold(f64::INFINITY, f64::min);
        if e == "serial" {
            serial_iter_s = iter_s;
        } else if ["barrier", "worksteal", "fleet"].contains(&e) && iter_s < best_parallel.1 {
            best_parallel = (e, iter_s);
        }
        report.value(
            &format!("backend.{e}.iter_s"),
            iter_s,
            "run_block on the large-phase problem, fastest of 3 blocks",
        );
        report.value(
            &format!("backend.{e}.untimed_share"),
            1.0 - timings.total_seconds() / wall,
            "1 - UpdateTimings::total_seconds / wall of those blocks",
        );
        report.value(
            &format!("backend.{e}.efficiency"),
            serial_iter_s / (threads as f64 * iter_s),
            "iter_s(serial) / (host.threads * iter_s)",
        );

        // Tolerance size: a hundred blocks of 2 against one block of 200 on
        // the same executor; the difference is 99 blocks' fixed cost
        // (thread spawn, scatter/gather, stream rebuild). Even block
        // lengths, so no executor pays its odd-block z normalisation.
        let mut backend = executor(e, threads);
        let mut scratch = p.tol_init.clone();
        backend.run_block(p.tol, &mut scratch, 2, &mut UpdateTimings::new());
        let mut overheads = Vec::new();
        for _ in 0..5 {
            let mut t = UpdateTimings::new();
            let mut store = p.tol_init.clone();
            let t0 = Instant::now();
            for _ in 0..100 {
                backend.run_block(p.tol, &mut store, 2, &mut t);
            }
            let short = t0.elapsed().as_secs_f64();
            let mut store = p.tol_init.clone();
            let t0 = Instant::now();
            backend.run_block(p.tol, &mut store, 200, &mut t);
            let long = t0.elapsed().as_secs_f64();
            overheads.push((short - long) / 99.0);
        }
        report.median(
            &format!("backend.{e}.block_overhead_s"),
            &overheads,
            "(100 x run_block(2) - run_block(200)) / 99 at tolerance size",
        );
        tracer.end(root);
    }

    report.value(
        "iter_par_s",
        best_parallel.1,
        &format!(
            "large phase at {threads} threads: best of barrier, worksteal and fleet ({})",
            best_parallel.0
        ),
    );

    let mut auto = AutoBackend::new(threads);
    let mut store = p.large_init.clone();
    let mut t = UpdateTimings::new();
    let t0 = Instant::now();
    auto.run_block(p.large, &mut store, p.block, &mut t);
    let first = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    auto.run_block(p.large, &mut store, p.block, &mut t);
    let steady = t0.elapsed().as_secs_f64();
    report.value(
        "backend.auto.probe_s",
        first - steady,
        &format!(
            "first block - second block of auto:{threads} on the large-phase problem (locked in {})",
            auto.selected().unwrap_or("?")
        ),
    );
}

/// One pass of `Solver::run`'s loop, replayed from outside with a span
/// around each call. Returns `(iterations, converged, wall seconds)`.
fn replay_solve(
    tracer: &mut Tracer,
    problem: &AdmmProblem,
    store: &mut VarStore,
    stopping: StoppingCriteria,
    solve_id: u64,
) -> (usize, bool, f64) {
    let mut backend = SerialBackend;
    let mut timings = UpdateTimings::new();
    let n_components = problem.graph().num_edges() * problem.graph().dims();
    let (mut done, mut converged) = (0usize, false);
    let t0 = Instant::now();
    let root = tracer.begin("core.solver.run", solve_id);
    while done < stopping.max_iters && !converged {
        let block = stopping.check_every.min(stopping.max_iters - done);
        let s = tracer.begin("core.backend.run_block", solve_id);
        backend.run_block(problem, store, block, &mut timings);
        tracer.end(s);
        done += block;
        let s = tracer.begin("core.residuals.compute", solve_id);
        let r = Residuals::compute(problem.graph(), problem.params(), store);
        tracer.end(s);
        let s = tracer.begin("core.residuals.converged", solve_id);
        converged = r.converged(n_components, stopping.eps_abs, stopping.eps_rel);
        tracer.end(s);
    }
    tracer.end(root);
    (done, converged, t0.elapsed().as_secs_f64())
}

/// `solver.*`, `residuals.*`, `prox.calls`, `trace.overhead_share`:
/// alternates `Solver::run` with its traced replay for `budget_s`
/// seconds (at least twice each).
pub fn solver_layer(report: &mut Report, tracer: &mut Tracer, p: Problems<'_>, budget_s: f64) {
    let begun = Instant::now();
    let stopping = crate::kit::gen::stopping(p.max_iters);
    let factors = p.tol.graph().num_factors();
    let mut solver = Solver::from_problem(
        p.tol_twin,
        SolverOptions {
            stopping,
            ..SolverOptions::default()
        },
    );
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut iterations = 0;
    let mut faithful = true;
    let mut all_converged = true;
    let mut pair = 0u64;
    while pair < 2 || begun.elapsed().as_secs_f64() < budget_s {
        *solver.store_mut() = p.tol_init.clone();
        let t0 = Instant::now();
        let reference = solver.run(p.max_iters);
        plain.push(t0.elapsed().as_secs_f64());

        let mut store = p.tol_init.clone();
        let (done, converged, wall) = replay_solve(tracer, p.tol, &mut store, stopping, pair);
        traced.push(wall);
        iterations = done;
        faithful &= done == reference.iterations && same_state(&store, solver.store());
        all_converged &= converged && reference.stop_reason == StopReason::Converged;
        report.attempted += 2;
        report.failed += 2 * u64::from(!(converged && faithful));
        pair += 1;
    }
    report.check(
        "replayed solver loop ≡ Solver::run",
        faithful,
        format!("{iterations} iterations, every array bit-identical, {pair} pairs"),
    );
    report.check(
        "tolerance solves converged",
        all_converged,
        format!("within {} iterations", p.max_iters),
    );

    report.value(
        "solver.iterations",
        iterations as f64,
        "iterations to tolerance, exact",
    );
    report.value(
        "prox.calls",
        (factors * iterations) as f64,
        "factors x solver.iterations, exact",
    );
    let solves = pair as f64;
    report.value(
        "solver.loop_self_s",
        tracer.self_seconds("core.solver.run") / solves,
        "self time of the replayed loop per solve: span minus children",
    );
    report.value(
        "solver.coverage",
        tracer.coverage("core.solver.run"),
        "child spans / replayed solve wall (the layers-sum-to-the-total rule, >= 0.95)",
    );
    let checks = tracer.count("core.residuals.compute") as f64;
    let check_total = tracer.total_seconds("core.residuals.compute");
    report.value(
        "residuals.check_s",
        check_total / checks,
        "mean Residuals::compute span",
    );
    report.value(
        "residuals.checks",
        checks / solves,
        "residual checks per solve, exact",
    );
    report.value(
        "residuals.share",
        check_total / tracer.total_seconds("core.solver.run"),
        "Residuals::compute spans / replayed solve wall",
    );
    report.value(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
        "median traced replay / median Solver::run - 1 (host noise is a few percent)",
    );
}
