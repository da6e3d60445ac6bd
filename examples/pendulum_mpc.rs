//! Model-predictive control of an inverted pendulum — the paper's optimal
//! control workload (§V-B), including the real-time receding-horizon loop
//! the paper describes (graph built once, state refreshed every cycle,
//! warm-started iterations).
//!
//! Run: `cargo run --release --example pendulum_mpc`

use paradmm::core::{BackendSpec, SerialBackend, Solver, SolverOptions, StoppingCriteria};
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};

fn main() {
    // One-shot plan: horizon K = 60 from a tilted start.
    let config = MpcConfig::new(60);
    let (traj, mpc) = MpcProblem::solve_with_backend(
        config.clone(),
        paper_plant(),
        15_000,
        Box::new(SerialBackend),
    );
    println!("open-loop plan over K = 60 steps (2.4 s):");
    println!("  cost                    {:.5}", traj.cost(&config));
    println!(
        "  max dynamics residual   {:.2e}",
        traj.max_dynamics_residual(mpc.system())
    );
    println!("  q(0)  = {:?}", traj.states[0]);
    println!("  q(30) = {:?}", traj.states[30]);

    // Receding-horizon control, the paper's real-time loop: build the
    // graph ONCE, then per cycle refresh q₀ (one operator swap), shift the
    // previous plan as a warm start, and run a short iteration burst.
    println!("\nreceding-horizon loop (K = 15, graph built once, warm-started cycles of 2500 iterations):");
    let sys = paper_plant();
    let mut q = [0.12, 0.0, 0.08, 0.0];
    let mut c = MpcConfig::new(15);
    c.q0 = q;
    let (mpc, admm) = MpcProblem::build(c.clone(), paper_plant());
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: c.rho,
        alpha: c.alpha,
        stopping: StoppingCriteria::fixed_iterations(3000),
    };
    let mut solver = Solver::from_problem(admm, options);
    solver.run(3000); // first plan from cold

    let mut total_cost = 0.0;
    for cycle in 0..20 {
        let traj = mpc.extract(solver.store());
        let u = traj.inputs[0];
        // Apply the first input to the "real" plant and advance.
        let next = sys.step(&q, &[u]);
        q = [next[0], next[1], next[2], next[3]];
        let stage: f64 = q
            .iter()
            .zip(&c.q_weight)
            .map(|(qi, wi)| wi * qi * qi)
            .sum::<f64>()
            + c.r_weight * u * u;
        total_cost += stage;
        if cycle % 5 == 0 {
            println!(
                "  cycle {cycle:2}: u = {u:+.4}, pole angle θ = {:+.5}",
                q[2]
            );
        }
        // Warm-start the next cycle: shift plan, pin measured state.
        let (problem, store) = solver.parts_mut();
        mpc.shift_warm_start(problem, store, q);
        solver.run(2500);
    }
    println!("closed-loop cost over 20 cycles: {total_cost:.5}");
    println!(
        "final pole angle: {:+.5} rad (started at +0.08; uncontrolled it would exceed 0.6)",
        q[2]
    );
}
