//! Golden trajectories: an absolute bit anchor for the serial engine.
//!
//! Every other equivalence suite is relative (executor ≡ serial, served ≡
//! solo, `k = 0` ≡ serial). This one pins `SerialBackend` itself: per
//! paper family (packing, MPC, SVM) plus Sudoku, each crate's own builder
//! at a fixed seed is solved to its stopping rule, and the test asserts
//! the exact iteration count and an FNV-1a hash of the bits of `x`, `u`,
//! `z` and `z_prev`. `m` and `n` are left out on purpose: they are pure
//! functions of the other arrays (`m = x + u`, `n = z − u`), so a change
//! that stops storing them need not re-bless these hashes.
//!
//! CI also runs this test in a `target-cpu=native` release build: Rust
//! never contracts `a * b + c` into an FMA, so the hashes must hold there
//! too.
//!
//! A change that alters the serial trajectory on purpose re-blesses the
//! constants below and says why in `CHANGES.md`.

use paradmm::core::{
    AdmmProblem, SerialBackend, Solver, SolverOptions, StopReason, StoppingCriteria,
};
use paradmm::graph::io::fingerprint_fold;
use paradmm::graph::VarStore;
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm::sudoku::{Grid, SudokuConfig, SudokuProblem};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use rand::{Rng, SeedableRng};

/// FNV-1a over the IEEE bits of `x, u, z, z_prev`, in that order.
fn state_hash(store: &VarStore) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for array in [&store.x, &store.u, &store.z, &store.z_prev] {
        let bytes: Vec<u8> = array
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        fingerprint_fold(&mut hash, &bytes);
    }
    hash
}

/// The scoreboard's tolerance rule: residual checks every 50 iterations.
fn tolerance(max_iters: usize) -> SolverOptions {
    SolverOptions {
        stopping: StoppingCriteria {
            max_iters,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 50,
        },
        ..SolverOptions::default()
    }
}

/// Solves `problem` from `init` to tolerance on `SerialBackend`.
fn solve_serial(problem: AdmmProblem, init: VarStore, max_iters: usize) -> (usize, u64) {
    let mut solver =
        Solver::from_problem_with_backend(problem, tolerance(max_iters), Box::new(SerialBackend));
    *solver.store_mut() = init;
    let report = solver.run_default();
    assert_eq!(report.stop_reason, StopReason::Converged);
    (report.iterations, state_hash(solver.store()))
}

fn packing() -> (usize, u64) {
    let (packing, problem) = PackingProblem::build(PackingConfig::new(6));
    let mut init = VarStore::zeros(problem.graph());
    packing.init_store(&mut init, &mut rand::rngs::StdRng::seed_from_u64(2016));
    packing.broadcast_z(&problem, &mut init);
    solve_serial(problem, init, 60_000)
}

fn mpc() -> (usize, u64) {
    let (_, problem) = MpcProblem::build(MpcConfig::new(16), paper_plant());
    let mut init = VarStore::zeros(problem.graph());
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    init.init_uniform(-0.1, 0.1, || rng.gen_range(0.0..1.0));
    solve_serial(problem, init, 60_000)
}

fn svm() -> (usize, u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let data = gaussian_mixture(60, 2, 4.0, &mut rng);
    let (_, problem) = SvmProblem::build(&data, SvmConfig::default());
    let mut init = VarStore::zeros(problem.graph());
    init.init_uniform(-0.1, 0.1, || rng.gen_range(0.0..1.0));
    solve_serial(problem, init, 60_000)
}

/// Sudoku is not convex, so its stopping rule is the crate's own: run in
/// blocks of 100 iterations from seeded symmetry-breaking noise until the
/// rounded consensus is a valid completion of the givens.
fn sudoku() -> (usize, u64) {
    let givens = Grid::parse(
        3,
        "530070000
         600195000
         098000060
         800060003
         400803001
         700020006
         060000280
         000419005
         000080079",
    );
    let config = SudokuConfig {
        iters_per_attempt: 3000,
        ..SudokuConfig::default()
    };
    let (sudoku, problem) = SudokuProblem::build(&givens, &config);
    let mut solver = Solver::from_problem_with_backend(
        problem,
        SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(100),
            ..SolverOptions::default()
        },
        Box::new(SerialBackend),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let store = solver.store_mut();
    for v in store.z.iter_mut() {
        *v = rng.gen_range(0.0..0.2);
    }
    for v in store.n.iter_mut() {
        *v = rng.gen_range(0.0..0.2);
    }
    store.snapshot_z();
    let mut iterations = 0;
    while iterations < config.iters_per_attempt {
        iterations += solver.run(100).iterations;
        let grid = sudoku.extract(solver.store());
        if grid.is_solved() && grid.is_completion_of(&givens) {
            return (iterations, state_hash(solver.store()));
        }
    }
    panic!("the pinned 9×9 Sudoku did not solve in one attempt");
}

/// One blessed trajectory: a family's solve and the `(iterations, hash)`
/// it produced on `SerialBackend`.
struct Golden {
    family: &'static str,
    solve: fn() -> (usize, u64),
    iterations: usize,
    hash: u64,
}

const GOLDEN: [Golden; 4] = [
    Golden {
        family: "packing",
        solve: packing,
        iterations: 6_200,
        hash: 0xe58c_7ab7_5436_4321,
    },
    Golden {
        family: "mpc",
        solve: mpc,
        iterations: 4_250,
        hash: 0x98f5_765a_41ef_9866,
    },
    Golden {
        family: "svm",
        solve: svm,
        iterations: 1_900,
        hash: 0x4df8_9542_7d4d_33a8,
    },
    Golden {
        family: "sudoku",
        solve: sudoku,
        iterations: 100,
        hash: 0xab4c_c955_d8cd_9be4,
    },
];

#[test]
fn serial_trajectories_match_golden_bits() {
    for golden in &GOLDEN {
        let got = (golden.solve)();
        assert_eq!(
            got,
            (golden.iterations, golden.hash),
            "{}: (iterations, hash) = ({}, {:#018x})",
            golden.family,
            got.0,
            got.1
        );
    }
}
