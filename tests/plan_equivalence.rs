//! SweepPlan-equivalence suite.
//!
//! Every plan has the same three passes, `x+m | z | u+n`; what a plan
//! chooses is each pass's chunk size and whether its static splits are
//! uniform or weighted by a cost profile. The contract is that this is a
//! pure throughput knob: **any** chunking and any weighting, executed by
//! any synchronous backend, must produce iterates bit-identical to the
//! paper's literal five sweeps (`NaiveAdmm`). This suite property-tests
//! that contract on the paper's problem families (MPC, packing) and on a
//! degree-imbalanced hub graph, across the serial, pool and sharded
//! executors. The pool is the one executor that reads a pass's chunk
//! size and static splits; the others prove a plan's chunking never
//! leaks into their iterates.

use proptest::prelude::*;

use paradmm::core::{
    AdmmProblem, BackendSpec, Pass, PassKind, Planner, PoolBackend, SerialBackend, SweepExecutor,
    SweepPlan, UpdateTimings,
};
use paradmm::graph::VarStore;
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm_bench::naive_reference;

const ITERS: usize = 25;

/// A deterministic non-zero start.
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

/// Runs `iters` iterations from [`seeded_state`].
fn run(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> VarStore {
    let mut store = seeded_state(problem);
    let mut t = UpdateTimings::new();
    backend.run_block(problem, &mut store, iters, &mut t);
    store
}

/// The three problem families the suite sweeps.
fn problems() -> Vec<(&'static str, AdmmProblem)> {
    let (_, packing) = PackingProblem::build(PackingConfig::new(7));
    let (_, mpc) = MpcProblem::build(MpcConfig::new(10), paper_plant());
    let hub = paradmm_bench::imbalanced_problem(4, 9);
    vec![("packing", packing), ("mpc", mpc), ("hub", hub)]
}

/// One random plan: chunk sizes cycled from `chunks`, and (when
/// `weighted`) a pseudo-random positive cost profile derived from `seed`
/// so static splits land on arbitrary boundaries.
fn build_plan(problem: &AdmmProblem, chunks: &[usize], weighted: bool, seed: u64) -> SweepPlan {
    let g = problem.graph();
    let costs = |items: usize, salt: u64| -> Vec<f64> {
        (0..items)
            .map(|j| {
                let h = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(salt)
                    .wrapping_add(j as u64)
                    .wrapping_mul(0x2545f4914f6cdd1d);
                1e-8 + (h % 997) as f64 * 1e-9
            })
            .collect()
    };
    let passes = [
        (PassKind::Xm, g.num_factors()),
        (PassKind::Z, g.num_vars()),
        (PassKind::Un, g.num_edges()),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (kind, items))| {
        let chunk = chunks[i % chunks.len()];
        if weighted {
            Pass::weighted(kind, chunk, &costs(items, i as u64))
        } else {
            Pass::uniform(kind, items, chunk)
        }
    })
    .collect();
    SweepPlan::from_passes(passes).expect("generated shape is legal by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any chunking and weighting on any backend equals the literal five
    /// sweeps, bit for bit, on all three problem families.
    #[test]
    fn any_chunking_is_bit_identical_to_naive_oracle(
        weighted_bit in 0u32..2,
        chunks in proptest::collection::vec(1usize..=97, 1..=5),
        seed in 0u64..u64::MAX,
    ) {
        for (label, mut problem) in problems() {
            let reference = naive_reference(&problem, &seeded_state(&problem), ITERS);

            let plan = build_plan(&problem, &chunks, weighted_bit == 1, seed);
            prop_assert!(plan.matches(problem.graph()));
            problem.set_plan(plan);

            let mut backends: Vec<(&str, Box<dyn SweepExecutor>)> = vec![
                ("serial", Box::new(SerialBackend)),
                ("pool(2)", Box::new(PoolBackend::new(2))),
                ("pool(3)", Box::new(PoolBackend::new(3))),
                ("pool(4)", Box::new(PoolBackend::new(4))),
                ("sharded", BackendSpec::Sharded { parts: Some(2) }.to_backend()),
            ];
            for (name, backend) in backends.iter_mut() {
                let got = run(&problem, backend.as_mut(), ITERS);
                prop_assert_eq!(&got.x, &reference.x, "{}/{} x", label, name);
                prop_assert_eq!(&got.m, &reference.m, "{}/{} m", label, name);
                prop_assert_eq!(&got.z, &reference.z, "{}/{} z", label, name);
                prop_assert_eq!(&got.u, &reference.u, "{}/{} u", label, name);
                prop_assert_eq!(&got.n, &reference.n, "{}/{} n", label, name);
                prop_assert_eq!(
                    &got.z_prev, &reference.z_prev,
                    "{}/{} z_prev", label, name
                );
            }
        }
    }
}

/// The measuring planner's output is just another plan: its weighted
/// splits and measured chunks must not perturb iterates.
#[test]
fn measured_planner_output_is_bit_identical() {
    for (label, mut problem) in problems() {
        let reference = naive_reference(&problem, &seeded_state(&problem), ITERS);

        let plan = Planner::new().plan(&problem);
        assert_eq!(plan.barriers_per_iteration(), 3, "{label}");
        problem.set_plan(plan);
        for threads in [1usize, 3] {
            let got = run(&problem, &mut PoolBackend::new(threads), ITERS);
            assert_eq!(got.z, reference.z, "{label} pool({threads})");
            assert_eq!(got.u, reference.u, "{label} pool({threads})");
            let got = run(&problem, &mut PoolBackend::new(threads + 1), ITERS);
            assert_eq!(got.z, reference.z, "{label} pool({})", threads + 1);
            assert_eq!(got.u, reference.u, "{label} pool({})", threads + 1);
        }
        let got = run(&problem, &mut SerialBackend, ITERS);
        assert_eq!(got.n, reference.n, "{label} serial");
    }
}

/// Odd/even block boundaries: the parity-swapped z buffers must
/// normalize at every block edge so residual checks (which read z and
/// z_prev between blocks) see exactly the literal loop's iterates.
#[test]
fn odd_block_lengths_keep_z_buffers_normalized() {
    let (_, mut problem) = PackingProblem::build(PackingConfig::new(6));
    let zeros = VarStore::zeros(problem.graph());

    let mut store = (VarStore::zeros(problem.graph()), UpdateTimings::new());
    let mut pool = PoolBackend::new(3);
    let mut done = 0;
    for block in [1usize, 3, 2, 7, 1] {
        pool.run_block(&problem, &mut store.0, block, &mut store.1);
        done += block;
        let reference = naive_reference(&problem, &zeros, done);
        assert_eq!(reference.z, store.0.z, "pool(3) after {block}");
        assert_eq!(
            reference.z_prev, store.0.z_prev,
            "pool(3) z_prev after {block}"
        );
    }
    // The pool on a chunk-1 plan: every claim is one item.
    problem.set_plan(build_plan(&problem, &[1], false, 0));
    let mut pool = PoolBackend::new(2);
    let mut pool_store = VarStore::zeros(problem.graph());
    let mut t = UpdateTimings::new();
    let mut done = 0;
    for block in [1usize, 5, 2] {
        pool.run_block(&problem, &mut pool_store, block, &mut t);
        done += block;
        let reference = naive_reference(&problem, &zeros, done);
        assert_eq!(reference.z, pool_store.z, "pool(2) after {block}");
        assert_eq!(
            reference.z_prev, pool_store.z_prev,
            "pool(2) z_prev {block}"
        );
    }
}
