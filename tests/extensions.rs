//! Integration tests for the future-work extensions: asynchronous
//! scheduling, serialization round-trips through the full pipeline, and
//! the Sudoku combinatorial domain.

use paradmm::core::{BackendSpec, Solver, SolverOptions, StoppingCriteria, UpdateTimings};
use paradmm::graph::{io, VarStore};
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm::sudoku::{Grid, SudokuConfig, SudokuProblem};

#[test]
fn async_solves_mpc() {
    // The async spec (bounded staleness k = 1) must reach the same
    // optimum as synchronous sweeps on a convex problem (different
    // trajectory, same fixed point).
    let config = MpcConfig::new(6);
    let (mpc, admm_sync) = MpcProblem::build(config.clone(), paper_plant());
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: config.rho,
        alpha: config.alpha,
        stopping: StoppingCriteria::fixed_iterations(15_000),
    };
    let mut solver = Solver::from_problem(admm_sync, options);
    solver.run(15_000);
    let sync_traj = mpc.extract(solver.store());

    let (mpc2, admm_async) = MpcProblem::build(config, paper_plant());
    let mut store = VarStore::zeros(admm_async.graph());
    let mut t = UpdateTimings::new();
    BackendSpec::Async { threads: Some(2) }
        .to_backend()
        .run_block(&admm_async, &mut store, 15_000, &mut t);
    let async_traj = mpc2.extract(&store);

    for t in 0..=6 {
        for i in 0..4 {
            let (a, s) = (async_traj.states[t][i], sync_traj.states[t][i]);
            assert!(
                (a - s).abs() < 5e-3,
                "async vs sync state mismatch at t={t} i={i}: {a} vs {s}"
            );
        }
    }
}

#[test]
fn graph_io_roundtrip_through_solver() {
    // Serialize a packing graph + params, reload, and verify the reloaded
    // problem produces identical solver trajectories.
    let (_, admm) = PackingProblem::build(PackingConfig::new(5));
    let mut topo = Vec::new();
    io::encode_graph(admm.graph(), &mut topo);
    let mut params_buf = Vec::new();
    io::encode_params(admm.params(), &mut params_buf);

    let graph2 = io::decode_graph(&topo).unwrap();
    let params2 = io::decode_params(&params_buf, &graph2).unwrap();
    assert_eq!(graph2.num_edges(), admm.graph().num_edges());
    assert_eq!(params2.rho, admm.params().rho);

    // Run the original problem, checkpoint mid-solve, restore, continue,
    // and compare against an uninterrupted run.
    let mk = || {
        let (_, admm) = PackingProblem::build(PackingConfig::new(5));
        Solver::from_problem(
            admm,
            SolverOptions {
                backend: BackendSpec::Serial,
                rho: 2.0,
                alpha: 1.0,
                stopping: StoppingCriteria::fixed_iterations(100),
            },
        )
    };
    let mut uninterrupted = mk();
    uninterrupted.run(100);

    let mut first_half = mk();
    first_half.run(50);
    let ckpt = first_half.save_checkpoint();
    let mut second_half = mk();
    second_half.load_checkpoint(&ckpt).unwrap();
    second_half.run(50);
    assert_eq!(second_half.store().z, uninterrupted.store().z);
}

#[test]
fn sudoku_rayon_matches_serial_iterates() {
    // The Sudoku graph exercises PermutationProx under both schedulers.
    let givens = Grid::parse(2, "1000003004000002");
    let config = SudokuConfig::default();
    let run_with = |backend: BackendSpec| {
        let (_, admm) = SudokuProblem::build(&givens, &config);
        let options = SolverOptions {
            backend,
            rho: config.rho,
            alpha: 1.0,
            stopping: StoppingCriteria::fixed_iterations(50),
        };
        let mut solver = Solver::from_problem(admm, options);
        solver.run(50);
        solver.store().z.clone()
    };
    let a = run_with(BackendSpec::Serial);
    let b = run_with(BackendSpec::Rayon { threads: Some(2) });
    assert_eq!(a, b);
}
