//! Backend-equivalence suite.
//!
//! The synchronous backends (serial, pool, sharded, and auto — which
//! locks in one of the former three) implement the same
//! Jacobi-style Algorithm 2 schedule, so their iterates must be
//! **bit-identical** on every problem — the z-average per variable is
//! deterministic regardless of how the sweeps are scheduled or how the
//! fleet claims its chunks, the fused u+n sweep is edge-local, so
//! fusion cannot change results, and the sharded backend's halo exchange folds
//! staged messages in ascending global edge order, replaying the serial
//! z-update's exact floating-point association. This suite pins that contract on all
//! three paper problem generators (packing, MPC, SVM) and on a
//! degree-imbalanced hub graph whose static range splits straggle,
//! against an independent oracle: `NaiveAdmm`, the paper's literal five
//! sweeps over per-edge allocations, which shares no schedule code with
//! any executor.
//! The `async` spec (the halo executor at staleness `k = 1`)
//! deliberately breaks the schedule (workers see bounded-stale `z`), so
//! for it the contract is convergence to the same fixed point on a
//! convex instance, not bitwise equality.

use paradmm::core::{
    AdmmProblem, AutoBackend, BackendSpec, BatchSolver, FleetSolver, Pass, PoolBackend, ProxCtx,
    ProxOp, SerialBackend, Solver, SolverOptions, StaleBoundedBackend, StoppingCriteria,
    SweepExecutor, SweepPlan, UpdateTimings,
};
use paradmm::graph::{Partition, VarStore};
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use rand::SeedableRng;

/// A deterministic non-zero start, so every sweep has real work.
fn seeded_state(problem: &AdmmProblem) -> VarStore {
    let mut store = VarStore::zeros(problem.graph());
    for (i, v) in store.n.iter_mut().enumerate() {
        *v = (i as f64 * 0.37).sin();
    }
    for (i, v) in store.z.iter_mut().enumerate() {
        *v = (i as f64 * 0.11).cos();
    }
    store.snapshot_z();
    store
}

/// The problem's resolved plan with every pass claimed `chunk` items at
/// a time — small chunks force real claim contention in the pool.
fn chunked_plan(problem: &AdmmProblem, chunk: usize) -> SweepPlan {
    let passes = SweepPlan::resolve(problem)
        .passes()
        .iter()
        .map(|p| Pass::uniform(p.kind(), p.items(), chunk))
        .collect();
    SweepPlan::from_passes(passes).expect("same passes, new chunk")
}

/// Runs `iters` iterations of `problem` from [`seeded_state`] on
/// `backend`, returning the full final state.
fn run_from_seeded_state(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    iters: usize,
) -> VarStore {
    let mut store = seeded_state(problem);
    let mut t = UpdateTimings::new();
    backend.run_block(problem, &mut store, iters, &mut t);
    assert_eq!(t.iterations, iters, "backend must account its iterations");
    store
}

fn assert_bit_identical_across_sync_backends(problem: &mut AdmmProblem, iters: usize, label: &str) {
    // The reference is the paper's literal five sweeps, run from the same
    // seeded state: an oracle that shares no schedule code with any
    // executor.
    let oracle = paradmm_bench::naive_reference(problem, &seeded_state(problem), iters);
    assert!(
        SweepPlan::resolve(problem).barriers_per_iteration() <= 3,
        "{label}: the plan must cost ≤ 3 barriers/iteration"
    );
    let assert_matches = |got: &VarStore, which: &str| {
        assert_eq!(oracle.x, got.x, "{label}: {which} x diverged");
        assert_eq!(oracle.m, got.m, "{label}: {which} m diverged");
        assert_eq!(oracle.z, got.z, "{label}: {which} z diverged");
        assert_eq!(oracle.u, got.u, "{label}: {which} u diverged");
        assert_eq!(oracle.n, got.n, "{label}: {which} n diverged");
        assert_eq!(
            oracle.z_prev, got.z_prev,
            "{label}: {which} z_prev diverged"
        );
    };

    let serial = run_from_seeded_state(problem, &mut SerialBackend, iters);
    assert_matches(&serial, "serial");

    for threads in [1usize, 2, 3] {
        // The work-assisting pool: static shares plus watermarked chunk
        // claims instead of barriers, with and without forced chunk
        // contention.
        let pool = run_from_seeded_state(problem, &mut PoolBackend::new(threads), iters);
        assert_matches(&pool, &format!("pool({threads})"));

        problem.set_plan(chunked_plan(problem, 2));
        let pool_tiny = run_from_seeded_state(problem, &mut PoolBackend::new(threads), iters);
        problem.clear_plan();
        assert_matches(&pool_tiny, &format!("pool({threads}, chunk=2)"));
    }
    // Sharded execution: partition-local stores with a real halo
    // exchange per iteration must replay the serial fold exactly, for
    // both the BFS-grown partition and a contiguous one (whose halo
    // variables interleave their edges across shards — the hard case
    // for an ordered reduce).
    for parts in [1usize, 2, 4] {
        let mut sharded = BackendSpec::Sharded { parts: Some(parts) }.to_backend();
        let sharded = run_from_seeded_state(problem, sharded.as_mut(), iters);
        assert_matches(&sharded, &format!("sharded({parts})"));

        let contiguous = Partition::contiguous(problem.graph(), parts);
        let sharded_cont = run_from_seeded_state(
            problem,
            &mut StaleBoundedBackend::with_partition(contiguous, 0),
            iters,
        );
        assert_matches(&sharded_cont, &format!("sharded({parts}, contiguous)"));
    }
    // AutoBackend probes all three sync candidates on the live store and
    // locks in one of them — whichever wins, iterates must match serial
    // bitwise.
    let mut auto = AutoBackend::new(2);
    let auto_store = run_from_seeded_state(problem, &mut auto, iters);
    let selected = auto.selected().expect("auto probe must run");
    assert_matches(&auto_store, &format!("auto→{selected}"));
}

#[test]
fn packing_generator_bit_identical() {
    let (_, mut problem) = PackingProblem::build(PackingConfig::new(10));
    assert_bit_identical_across_sync_backends(&mut problem, 60, "packing");
}

#[test]
fn mpc_generator_bit_identical() {
    let (_, mut problem) = MpcProblem::build(MpcConfig::new(25), paper_plant());
    assert_bit_identical_across_sync_backends(&mut problem, 60, "mpc");
}

#[test]
fn svm_generator_bit_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let data = gaussian_mixture(60, 2, 4.0, &mut rng);
    let (_, mut problem) = SvmProblem::build(&data, SvmConfig::default());
    assert_bit_identical_across_sync_backends(&mut problem, 60, "svm");
}

#[test]
fn imbalanced_degree_graph_bit_identical() {
    // The hub-heavy generator: all hub variables sit
    // at the front of the variable order, so a contiguous static
    // z-partition hands one worker every hub's heavy weighted average.
    // Chunk-claiming backends must still be bit-identical — scheduling
    // may never leak into iterates. 7 hubs of degree 23: indivisible
    // heavy z-tasks, plus leaf counts that don't divide evenly into
    // chunks or thread counts.
    let mut problem = paradmm_bench::imbalanced_problem(7, 23);
    assert_bit_identical_across_sync_backends(&mut problem, 60, "imbalanced");
}

/// An operator that busy-waits before running the one it wraps: the
/// worker holding it up falls behind, so the others drain their own
/// shares and assist.
struct Slow(Box<dyn ProxOp>);

impl ProxOp for Slow {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        self.0.prox(ctx);
    }
}

#[test]
fn assisted_shares_bit_identical() {
    // Every factor of worker 0's x+m share waits, so at 2 and 3 threads
    // the other workers finish their shares first and claim chunks of
    // worker 0's — the assist path, which a balanced problem rarely
    // takes. The result must not depend on who ran which chunk.
    for threads in [2usize, 3] {
        let (_, problem) = MpcProblem::build(MpcConfig::new(25), paper_plant());
        let (graph, proxes, params) = problem.into_parts();
        let share0 = graph.num_factors() / threads;
        let proxes = proxes
            .into_iter()
            .enumerate()
            .map(|(a, p)| {
                if a < share0 {
                    Box::new(Slow(p)) as Box<dyn ProxOp>
                } else {
                    p
                }
            })
            .collect();
        let mut problem = AdmmProblem::with_params(graph, proxes, params);
        problem.set_plan(chunked_plan(&problem, 2));
        let want = run_from_seeded_state(&problem, &mut SerialBackend, 20);
        let got = run_from_seeded_state(&problem, &mut PoolBackend::new(threads), 20);
        let label = format!("pool({threads})");
        assert_eq!(want.x, got.x, "{label} x");
        assert_eq!(want.m, got.m, "{label} m");
        assert_eq!(want.z, got.z, "{label} z");
        assert_eq!(want.u, got.u, "{label} u");
        assert_eq!(want.n, got.n, "{label} n");
        assert_eq!(want.z_prev, got.z_prev, "{label} z_prev");
    }
}

#[test]
fn async_backend_converges_on_seeded_convex_instance() {
    // A strongly convex instance (MPC tracking QP) built from a fixed
    // seed: the asynchronous backend must land on the same optimum the
    // serial backend finds. Both start from the all-zeros state.
    let run_from_zeros = |problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters| {
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(problem, &mut store, iters, &mut t);
        store
    };
    let config = MpcConfig::new(8);
    let (mpc, problem) = MpcProblem::build(config.clone(), paper_plant());
    let sync_store = run_from_zeros(&problem, &mut SerialBackend, 20_000);
    let sync_traj = mpc.extract(&sync_store);

    let (mpc2, problem2) = MpcProblem::build(config, paper_plant());
    let mut async_backend = BackendSpec::Async { threads: Some(3) }.to_backend();
    let async_store = run_from_zeros(&problem2, async_backend.as_mut(), 20_000);
    let async_traj = mpc2.extract(&async_store);

    for t in 0..=8 {
        for i in 0..4 {
            let (a, s) = (async_traj.states[t][i], sync_traj.states[t][i]);
            assert!(
                (a - s).abs() < 5e-3,
                "async vs serial state mismatch at t={t} i={i}: {a} vs {s}"
            );
        }
    }
}

#[test]
fn batched_solves_bit_identical_to_solo_serial_on_every_sync_backend() {
    // Mixed-size MPC instances (horizons cycle, so edge counts differ
    // per instance) packed into one block-diagonal store: under every
    // synchronous backend, each instance's final state, iteration
    // count, and stop reason must equal a solo serial solve with the
    // same stopping criteria — freezing converged instances early may
    // not perturb the stragglers.
    let stopping = StoppingCriteria {
        max_iters: 1200,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 20,
    };
    let instances = || paradmm_bench::many_mpc(5, 2);
    let solo: Vec<(VarStore, usize, paradmm::core::StopReason)> = instances()
        .into_iter()
        .map(|p| {
            let options = SolverOptions {
                stopping,
                ..SolverOptions::default()
            };
            let mut solver = Solver::from_problem(p, options);
            let report = solver.run(stopping.max_iters);
            (
                solver.store().clone(),
                report.iterations,
                report.stop_reason,
            )
        })
        .collect();
    // At least one instance must freeze before another stops, or the
    // test exercises nothing.
    let iters: Vec<usize> = solo.iter().map(|(_, it, _)| *it).collect();
    assert!(
        iters.iter().any(|&i| i != iters[0]),
        "mixed horizons should converge at different checks: {iters:?}"
    );

    for spec in [
        BackendSpec::Serial,
        BackendSpec::Rayon { threads: Some(2) },
        BackendSpec::Barrier { threads: Some(3) },
        BackendSpec::Sharded { parts: Some(2) },
        BackendSpec::Fleet { threads: Some(2) },
        BackendSpec::Auto { threads: Some(2) },
    ] {
        let options = SolverOptions {
            backend: spec,
            stopping,
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(instances(), options);
        let report = batch.run(stopping.max_iters);
        for (i, (store, solo_iters, solo_reason)) in solo.iter().enumerate() {
            let r = &report.instances[i];
            assert_eq!(r.iterations, *solo_iters, "{spec} instance {i} iters");
            assert_eq!(r.stop_reason, *solo_reason, "{spec} instance {i}");
            let got = batch.store(i);
            assert_eq!(got.z, store.z, "{spec} instance {i} z");
            assert_eq!(got.x, store.x, "{spec} instance {i} x");
            assert_eq!(got.u, store.u, "{spec} instance {i} u");
            assert_eq!(got.n, store.n, "{spec} instance {i} n");
            assert_eq!(got.m, store.m, "{spec} instance {i} m");
        }
    }

    // An explicit pool with three workers claiming chunks of the fused
    // pack, whose chunks span instance boundaries. Each pack installs
    // its own default plan, so the claims are 64 items wide; the
    // chunk-2 pool cases above force contention.
    let options = SolverOptions {
        stopping,
        ..SolverOptions::default()
    };
    let mut batch = BatchSolver::with_backend(instances(), options, Box::new(PoolBackend::new(3)));
    let report = batch.run(stopping.max_iters);
    for (i, (store, solo_iters, _)) in solo.iter().enumerate() {
        assert_eq!(report.instances[i].iterations, *solo_iters);
        assert_eq!(batch.store(i).z, store.z, "pool(3) instance {i}");
        assert_eq!(batch.store(i).u, store.u, "pool(3) instance {i}");
    }
}

#[test]
fn fleet_solves_bit_identical_to_solo_serial_across_shapes() {
    // The work-assisting fleet scheduler on random mixed-size fleets:
    // per-instance final states, iteration counts, AND stop reasons
    // must equal solo serial solves for every thread count and chunk
    // size — assist migrations between instances may never leak into
    // iterates. Long-tail fleets (mixed_fleet_mpc) make the big
    // instance attract assists while small ones retire early.
    let stopping = StoppingCriteria {
        max_iters: 1200,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 20,
    };
    let instances = || paradmm_bench::mixed_fleet_mpc(6);
    let solo: Vec<(VarStore, usize, paradmm::core::StopReason)> = instances()
        .into_iter()
        .map(|p| {
            let options = SolverOptions {
                stopping,
                ..SolverOptions::default()
            };
            let mut solver = Solver::from_problem(p, options);
            let report = solver.run(stopping.max_iters);
            (
                solver.store().clone(),
                report.iterations,
                report.stop_reason,
            )
        })
        .collect();
    let iters: Vec<usize> = solo.iter().map(|(_, it, _)| *it).collect();
    assert!(
        iters.iter().any(|&i| i != iters[0]),
        "mixed horizons should converge at different checks: {iters:?}"
    );

    for threads in [1usize, 2, 3] {
        for chunk in [None, Some(2), Some(7)] {
            let options = SolverOptions {
                backend: BackendSpec::Fleet {
                    threads: Some(threads),
                },
                stopping,
                ..SolverOptions::default()
            };
            let mut problems = instances();
            if let Some(c) = chunk {
                for p in &mut problems {
                    p.set_plan(chunked_plan(p, c));
                }
            }
            let mut fleet = FleetSolver::new(problems, options);
            let report = fleet.run(stopping.max_iters);
            for (i, (store, solo_iters, solo_reason)) in solo.iter().enumerate() {
                let label = format!("fleet({threads}, chunk={chunk:?}) instance {i}");
                let r = &report.instances[i];
                assert_eq!(r.iterations, *solo_iters, "{label} iters");
                assert_eq!(r.stop_reason, *solo_reason, "{label} stop reason");
                let got = fleet.store(i);
                assert_eq!(got.z, store.z, "{label} z");
                assert_eq!(got.x, store.x, "{label} x");
                assert_eq!(got.u, store.u, "{label} u");
                assert_eq!(got.n, store.n, "{label} n");
                assert_eq!(got.m, store.m, "{label} m");
            }
        }
    }
}

#[test]
fn fleet_serves_mixed_dims_fleets_batching_cannot_fuse() {
    // Packing (dims=2) and SVM (dims=3) in one fleet: BatchSolver
    // rejects the shape outright, while the fleet solves every instance
    // bit-identically to its solo serial solve — the no-fusion
    // advantage the fleet scheduler exists for.
    let stopping = StoppingCriteria {
        max_iters: 800,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 20,
    };
    let instances = || paradmm_bench::mixed_fleet_pack_svm(5);
    let dims: Vec<usize> = instances().iter().map(|p| p.graph().dims()).collect();
    assert!(
        dims.iter().any(|&d| d != dims[0]),
        "scenario must mix dims: {dims:?}"
    );

    let options = SolverOptions {
        backend: BackendSpec::Fleet { threads: Some(2) },
        stopping,
        ..SolverOptions::default()
    };
    let mut fleet = FleetSolver::new(instances(), options);
    let report = fleet.run(stopping.max_iters);
    for (i, p) in instances().into_iter().enumerate() {
        let solo_options = SolverOptions {
            stopping,
            ..SolverOptions::default()
        };
        let mut solver = Solver::from_problem(p, solo_options);
        let solo_report = solver.run(stopping.max_iters);
        assert_eq!(report.instances[i].iterations, solo_report.iterations);
        assert_eq!(report.instances[i].stop_reason, solo_report.stop_reason);
        assert_eq!(fleet.store(i).z, solver.store().z, "instance {i} z");
        assert_eq!(fleet.store(i).x, solver.store().x, "instance {i} x");
        assert_eq!(fleet.store(i).u, solver.store().u, "instance {i} u");
    }
    assert!(
        fleet.diagnostics().total_chunks() > 0,
        "telemetry must record the fleet's claims"
    );
}
