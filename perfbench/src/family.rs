//! The three family workloads: `packing-dense`, `mpc-chain`,
//! `svm-chain`. Each has a tolerance phase (a problem solved to the
//! benchmark's tolerance), a mid phase (a cache-sized problem run in
//! fixed blocks of iterations, untraced run) and a large phase (a
//! DRAM-sized one, traced run).

use std::time::{Duration, Instant};

use paradmm_core::{BackendSpec, Solver, SolverOptions, StopReason, StoppingCriteria};
use paradmm_graph::VarStore;

use crate::kit::gen::{stopping, Family, Phase, Verifier};
use crate::kit::host;
use crate::kit::report::Report;
use crate::kit::trace::Tracer;
use crate::layers::{self, same_state, Problems};

/// Set-ups timed per round.
const SETUPS_PER_ROUND: usize = 10;
/// Mid-phase blocks per round.
const BLOCKS_PER_ROUND: usize = 12;
/// Rounds measured however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// The tolerance phase: a solver, the state every solve starts from,
/// and the family's output check.
struct Tol {
    solver: Solver,
    init: VarStore,
    verifier: Verifier,
}

impl Tol {
    fn new(family: Family, seed: u64) -> Self {
        let instance = family.instance(Phase::Tol, seed);
        let solver = Solver::from_problem(
            instance.problem,
            SolverOptions {
                stopping: stopping(family.max_iters()),
                ..SolverOptions::default()
            },
        );
        Tol {
            solver,
            init: instance.init,
            verifier: instance.verifier,
        }
    }

    /// One solve to tolerance from the initial state on a fresh
    /// `backend` (so `auto` pays its probe every time). Returns wall
    /// seconds, iterations and whether it converged.
    fn solve(&mut self, backend: BackendSpec, max_iters: usize) -> (f64, usize, bool) {
        *self.solver.store_mut() = self.init.clone();
        self.solver.set_backend(backend.to_backend());
        let t0 = Instant::now();
        let report = self.solver.run(max_iters);
        let wall = t0.elapsed().as_secs_f64();
        (
            wall,
            report.iterations,
            report.stop_reason == StopReason::Converged,
        )
    }
}

/// The mid phase, on the serial executor.
struct Mid {
    solver: Solver,
    init: VarStore,
}

impl Mid {
    fn new(family: Family, seed: u64) -> Self {
        let instance = family.instance(Phase::Mid, seed);
        let mut solver = Solver::from_problem(
            instance.problem,
            SolverOptions {
                stopping: StoppingCriteria::fixed_iterations(family.block(Phase::Mid)),
                ..SolverOptions::default()
            },
        );
        *solver.store_mut() = instance.init.clone();
        Mid {
            solver,
            init: instance.init,
        }
    }

    /// Back to the initial state, so that every round times the same
    /// iterations: an iteration's cost depends on the state (on
    /// `svm-chain` it doubles for good about 1 800 iterations after a
    /// random start).
    fn reset(&mut self) {
        self.solver.store_mut().clone_from(&self.init);
    }

    /// One block; returns seconds per iteration.
    fn block(&mut self, iterations: usize) -> f64 {
        let t0 = Instant::now();
        self.solver.run(iterations);
        t0.elapsed().as_secs_f64() / iterations as f64
    }
}

/// Runs one family workload.
pub fn run(family: Family, seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer) -> Report {
    let mut report = Report::new(family.workload(), seed, traced);
    if traced {
        per_layer(family, seed, seconds, &mut report, tracer);
    } else {
        end_to_end(family, seed, seconds, &mut report);
    }
    report
}

/// Both problems of the untraced run, a `Solver` each, the initial
/// state: what `setup_s` times.
fn set_up(family: Family, seed: u64) -> (Tol, Mid) {
    (Tol::new(family, seed), Mid::new(family, seed))
}

fn end_to_end(family: Family, seed: u64, seconds: f64, report: &mut Report) {
    let threads = host::threads();
    let auto = BackendSpec::Auto {
        threads: Some(threads),
    };
    let (block, max_iters) = (family.block(Phase::Mid), family.max_iters());

    // A process that has ever started a thread takes the allocator's
    // locked paths from then on (MPC's prox, which allocates per call,
    // solves 18 % slower). The first `auto` solve starts threads, so
    // start one now: every sample is then taken in the same regime.
    std::thread::spawn(|| {}).join().expect("an empty thread");

    let (mut tol, mut serial) = set_up(family, seed);
    let state_mib = serial.init.len_f64() as f64 * 8.0 / (1024.0 * 1024.0);
    // Untimed warm-up: caches and page faults.
    tol.solver.run(1000);
    serial.block(block);

    let mut setup = Vec::new();
    let (mut solve_serial, mut solve_par) = (Vec::new(), Vec::new());
    let mut iter_serial = Vec::new();
    let mut reference: Option<(usize, VarStore)> = None;
    let (mut identical, mut converged) = (true, true);
    let window = Instant::now();
    let mut last_round = Duration::ZERO;
    let mut rounds = 0;
    // Round-robin over the measurements, so that each metric's samples
    // span the whole window and a slow spell of the host falls on all.
    while rounds < MIN_ROUNDS || (window.elapsed() + last_round).as_secs_f64() <= seconds {
        let t_round = Instant::now();
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            let built = set_up(family, seed);
            setup.push(t0.elapsed().as_secs_f64());
            drop(built);
        }
        for (backend, samples) in [
            (BackendSpec::Serial, &mut solve_serial),
            (auto, &mut solve_par),
        ] {
            let (wall, iterations, ok) = tol.solve(backend, max_iters);
            samples.push(wall);
            let (ref_iterations, ref_store) =
                reference.get_or_insert_with(|| (iterations, tol.solver.store().clone()));
            let same = iterations == *ref_iterations && same_state(tol.solver.store(), ref_store);
            report.attempted += 1;
            report.failed += u64::from(!(ok && same));
            identical &= same;
            converged &= ok;
        }
        // The same iterations every round, and one untimed block first:
        // the solves evicted the mid-phase state.
        serial.reset();
        serial.block(block);
        for _ in 0..BLOCKS_PER_ROUND {
            iter_serial.push(serial.block(block));
        }
        report.attempted += 1;
        rounds += 1;
        last_round = t_round.elapsed();
    }

    let (ref_iterations, ref_store) = reference.expect("MIN_ROUNDS >= 1");
    report.check(
        "solve_par_s run ≡ solve_serial_s run",
        identical,
        format!("{ref_iterations} iterations and every array bit-identical in all {rounds} rounds"),
    );
    report.check(
        "tolerance solves converged",
        converged,
        format!("eps_abs=1e-6 eps_rel=1e-4 check_every=50 within {max_iters} iterations"),
    );
    let (pass, detail) = tol.verifier.verify(&ref_store);
    report.failed += u64::from(!pass);
    report.check("solution quality", pass, detail);

    report.fastest(
        "setup_s",
        &setup,
        "tol and mid problems + a Solver each + initial state",
    );
    report.fastest(
        "solve_serial_s",
        &solve_serial,
        "Solver::run to tolerance, serial",
    );
    // The median, not the fastest: these samples differ by what the
    // probe locked in (a parallel executor when the guest lent the
    // second core during the probe, serial otherwise), not only by
    // disturbance, and the fastest is the luckiest probe.
    report.median(
        "solve_par_s",
        &solve_par,
        &format!("same solve on a fresh auto:{threads}, probe included"),
    );
    report.fastest(
        "iter_serial_s",
        &iter_serial,
        &format!("mid phase ({state_mib:.1} MiB of state), serial, blocks of {block}"),
    );
    // Footprint: of the large problem, so that data and not thread stacks
    // and allocator arenas (± 3 MiB from run to run) make up the reading.
    let large = family.instance(Phase::Large, seed);
    let large_block = family.block(Phase::Large);
    let mut solver = Solver::from_problem(
        large.problem,
        SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(large_block),
            ..SolverOptions::default()
        },
    );
    *solver.store_mut() = large.init;
    solver.run(large_block);
    report.value(
        "peak_rss_mb",
        host::peak_rss_mib(),
        &format!("VmHWM at exit, after building the large-phase problem and {large_block} serial iterations on it"),
    );
    // The serving metrics restated for a library caller, so that every
    // workload reports every end-to-end metric: one request is one
    // tolerance solve on auto.
    let par = crate::kit::stats::median(&solve_par);
    report.value(
        "throughput_rps",
        1.0 / par,
        "alias: 1 / solve_par_s, auto tolerance solves per second of solving",
    );
    report.value("latency_p50_ms", par * 1e3, "alias: solve_par_s in ms");
}

fn per_layer(family: Family, seed: u64, seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let tol = family.instance(Phase::Tol, seed);
    let large = family.instance(Phase::Large, seed);
    let problems = Problems {
        tol: &tol.problem,
        tol_init: &tol.init,
        tol_twin: family.instance(Phase::Tol, seed).problem,
        max_iters: family.max_iters(),
        large: &large.problem,
        large_init: &large.init,
        block: family.block(Phase::Large),
    };
    let ws_gbps = layers::host_layer(report, large.init.len_f64() * 8);
    layers::graph_layer(report, problems.large, problems.large_init);
    layers::prox_and_plan_layers(report, problems.large, problems.large_init);
    layers::kernels_layer(
        report,
        tracer,
        problems.large,
        problems.large_init,
        problems.block,
        ws_gbps,
    );
    layers::backend_layer(report, tracer, &problems);
    // The service layers, on a short prefix of the serve-mixed stream:
    // calibration here, the subject of `serve-mixed`.
    crate::serve::service_layers(report, tracer, seed, crate::serve::Scale::Calibration);
    layers::solver_layer(report, tracer, problems, layers::SOLVER_SHARE * seconds);
}
