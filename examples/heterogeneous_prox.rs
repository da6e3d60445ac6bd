//! Heterogeneous proximal operators: the measured cost-model planner vs
//! uniform chunking.
//!
//! The paper's future-work item 2 asks for *automatic per-operator
//! tuning*: when one factor's proximal operator costs 100× another's, a
//! static split by factor **count** hands one worker all the expensive
//! operators and leaves the rest waiting at the end of the pass. The
//! `Planner` times every operator, attaches the measured costs to the
//! x+m pass, and the pool cuts its static shares by cumulative **cost**
//! instead — same iterates, bit for bit (any legal plan is), different
//! wall clock. (The pool's assists already rescue a count split; the
//! measured plan spares them.)
//!
//! This example builds a consensus problem whose first few factors run a
//! deliberately expensive numerically-minimized operator while hundreds
//! of others run closed-form quadratics — heavy operators clustered at
//! the front, the worst case for a count split — and measures the
//! pool under the default uniform fused plan vs the measured plan.
//!
//! Run: `cargo run --release --example heterogeneous_prox [threads]`

use std::time::Instant;

use paradmm::core::plan_report;
use paradmm::prelude::*;

/// Consensus chain: `heavy` expensive factors first, then `light` cheap
/// ones, each pinning its variable toward a target.
fn build_problem(heavy: usize, light: usize) -> AdmmProblem {
    let mut b = GraphBuilder::new(1);
    let vs = b.add_vars(heavy + light + 1);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..heavy {
        b.add_factor(&[vs[i], vs[i + 1]]);
        // Numerically minimized objective with a deliberately expensive
        // evaluation — stands in for any black-box operator (a KKT
        // solve, a projection without closed form).
        proxes.push(Box::new(NumericProx::new(move |x: &[f64]| {
            let mut acc = 0.0;
            for v in x {
                let mut s = *v;
                for _ in 0..60 {
                    s = (s * 0.9).sin() + 0.1 * *v;
                }
                acc += (s - 0.3).powi(2) + v.powi(2);
            }
            acc
        })));
    }
    for i in heavy..heavy + light {
        b.add_factor(&[vs[i], vs[i + 1]]);
        let t = (i as f64 * 0.17).sin();
        proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, &[t, -t])));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

fn measure(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
    let mut store = VarStore::zeros(problem.graph());
    let mut t = UpdateTimings::new();
    backend.run_block(problem, &mut store, 3, &mut t); // warm-up
    let start = Instant::now();
    backend.run_block(problem, &mut store, iters, &mut t);
    start.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let threads = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(2)
        });
    let (heavy, light) = (2 * threads, 600);
    let mut problem = build_problem(heavy, light);
    let iters = 60;

    // Uniform fused plan (the default): factor-count splits.
    problem.clear_plan();
    let uniform_s = {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            best = best.min(measure(&problem, &mut PoolBackend::new(threads), iters));
        }
        best
    };

    // Measured plan: the planner times each operator and weights the
    // x+m split so every worker owns an equal share of operator seconds.
    let planner = Planner::new();
    let costs = planner.measure(&problem);
    let plan = planner.plan_from_costs(&problem, &costs);
    println!("{}", plan_report(&plan, &costs, &problem));
    problem.set_plan(plan);
    let planned_s = {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            best = best.min(measure(&problem, &mut PoolBackend::new(threads), iters));
        }
        best
    };

    println!("pool[{threads}] uniform fused plan : {uniform_s:.3e} s/iter");
    println!("pool[{threads}] measured-cost plan : {planned_s:.3e} s/iter");
    println!(
        "cost-model speedup: {:.2}× ({} heavy operators clustered at the front, {} light)",
        uniform_s / planned_s,
        heavy,
        light
    );
    if planned_s <= uniform_s {
        println!("PASS: the measured planner beat (or matched) uniform chunking");
    } else {
        println!(
            "note: uniform chunking won this run — expected when the pool's assists \
             already rebalance the count split, on machines with fewer physical cores \
             than workers, or when timing noise dominates"
        );
    }
}
