//! Reorder-equivalence suite.
//!
//! A locality [`Reordering`] (BFS/RCM or any permutation built from a
//! factor order) relabels factors, edges and variables but preserves the
//! z-fold order of every variable (the reordered graph's `var_edges`
//! lists follow the *source* graph's order — see
//! `Reordering::apply_graph`). Because Algorithm 2's per-output operation
//! sequences are otherwise index-free, solving the reordered problem from
//! a permuted start state and mapping the result back must reproduce the
//! natural-order solve **bit for bit**, on every backend. This suite pins
//! that contract on the paper problem generators and on random graphs —
//! the property that makes RCM a pure throughput knob.
//!
//! Runs use a fixed iteration count (`run_block`), not residual
//! stopping: residual *reduction* folds over edges in array order, so its
//! scalar value can differ in the last ulp under permutation even though
//! every iterate matches.

use paradmm::core::{
    AdmmProblem, BackendSpec, PoolBackend, SerialBackend, SweepExecutor, UpdateTimings,
};
use paradmm::graph::{GraphBuilder, Reordering, VarStore};
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm::prox::{ProxOp, QuadraticProx};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use proptest::prelude::*;
use rand::SeedableRng;

const ITERS: usize = 25;

/// Deterministic non-trivial start state in the natural ordering.
fn seeded_store(problem: &AdmmProblem) -> VarStore {
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

fn run(problem: &AdmmProblem, store: &mut VarStore, backend: &mut dyn SweepExecutor) {
    let mut t = UpdateTimings::new();
    backend.run_block(problem, store, ITERS, &mut t);
}

/// Solves `problem` natural-order and reordered, asserting the restored
/// reordered state is bit-identical to the natural one on serial,
/// pool and sharded backends. Consumes the problem (reordering
/// moves the proximal operators).
fn assert_reorder_bit_identical(problem: AdmmProblem, reordering: &Reordering, label: &str) {
    let seed = seeded_store(&problem);

    let mut natural = seed.clone();
    run(&problem, &mut natural, &mut SerialBackend);

    let mut natural_pool = seed.clone();
    run(&problem, &mut natural_pool, &mut PoolBackend::new(3));
    assert_eq!(natural.z, natural_pool.z, "{label}: pool z (natural)");

    let mut natural_sh = seed.clone();
    run(
        &problem,
        &mut natural_sh,
        BackendSpec::Sharded { parts: Some(3) }
            .to_backend()
            .as_mut(),
    );
    assert_eq!(natural.z, natural_sh.z, "{label}: sharded z (natural)");

    let reordered_problem = problem.reordered(reordering);
    let reordered_seed = reordering.apply_store(&seed);

    for (backend, which) in [
        (&mut SerialBackend as &mut dyn SweepExecutor, "serial"),
        (&mut PoolBackend::new(3), "pool"),
        (
            BackendSpec::Sharded { parts: Some(3) }
                .to_backend()
                .as_mut(),
            "sharded",
        ),
    ] {
        let mut store = reordered_seed.clone();
        run(&reordered_problem, &mut store, backend);
        let restored = reordering.restore_store(&store);
        assert_eq!(natural.z, restored.z, "{label}: {which} z diverged");
        assert_eq!(natural.x, restored.x, "{label}: {which} x diverged");
        assert_eq!(natural.u, restored.u, "{label}: {which} u diverged");
        assert_eq!(natural.n, restored.n, "{label}: {which} n diverged");
        assert_eq!(natural.m, restored.m, "{label}: {which} m diverged");
    }
}

/// Spread the per-edge ρ so the z-folds are weighted non-uniformly — a
/// uniform ρ would mask fold-order mistakes. Scales the generator's ρ
/// *up* by an edge-dependent factor (scaling down could violate prox
/// curvature bounds, e.g. packing's `q + ρ > 0`).
fn vary_rho(problem: &mut AdmmProblem) {
    for (i, r) in problem
        .params_mut()
        .rho
        .as_mut_slice()
        .iter_mut()
        .enumerate()
    {
        *r *= 1.0 + 0.5 * (i as f64 * 0.29).sin().abs();
    }
}

#[test]
fn packing_rcm_solves_bit_identically() {
    let (_, mut problem) = PackingProblem::build(PackingConfig::new(7));
    vary_rho(&mut problem);
    let r = Reordering::rcm(problem.graph());
    assert_reorder_bit_identical(problem, &r, "packing/rcm");
}

#[test]
fn mpc_rcm_solves_bit_identically() {
    let (_, mut problem) = MpcProblem::build(MpcConfig::new(10), paper_plant());
    vary_rho(&mut problem);
    let r = Reordering::rcm(problem.graph());
    assert_reorder_bit_identical(problem, &r, "mpc/rcm");
}

#[test]
fn svm_rcm_solves_bit_identically() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let data = gaussian_mixture(40, 2, 4.0, &mut rng);
    let (_, mut problem) = SvmProblem::build(&data, SvmConfig::default());
    vary_rho(&mut problem);
    let r = Reordering::rcm(problem.graph());
    assert_reorder_bit_identical(problem, &r, "svm/rcm");
}

#[test]
fn imbalanced_hub_rcm_solves_bit_identically() {
    let mut problem = paradmm_bench::imbalanced_problem(4, 9);
    vary_rho(&mut problem);
    let r = Reordering::rcm(problem.graph());
    assert_reorder_bit_identical(problem, &r, "imbalanced/rcm");
}

/// Random sparse problem: factors of degree 1–4 over `nv` variables with
/// quadratic operators and non-uniform ρ.
fn random_problem(nv: usize, picks: &[usize], dims: usize) -> AdmmProblem {
    let mut b = GraphBuilder::new(dims);
    let vs = b.add_vars(nv);
    let mut degs = Vec::new();
    let mut i = 0;
    while i < picks.len() {
        let deg = 1 + picks[i] % 4;
        let mut vars = Vec::new();
        for k in 0..deg {
            let v = vs[picks[(i + 1 + k) % picks.len()] % nv];
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        degs.push(vars.len());
        b.add_factor(&vars);
        i += deg + 1;
    }
    let g = b.build();
    let proxes: Vec<Box<dyn ProxOp>> = degs
        .iter()
        .enumerate()
        .map(|(a, &deg)| {
            let len = deg * dims;
            let target: Vec<f64> = (0..len)
                .map(|j| ((a * 7 + j) as f64 * 0.41).sin())
                .collect();
            Box::new(QuadraticProx::isotropic(len, 1.0, &target)) as Box<dyn ProxOp>
        })
        .collect();
    let mut problem = AdmmProblem::new(g, proxes, 1.0, 1.0);
    vary_rho(&mut problem);
    problem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Permute → solve → inverse-permute is bit-identical to the natural
    /// solve on random graphs, for both RCM and a random factor order.
    #[test]
    fn random_graphs_solve_bit_identically(
        nv in 2usize..16,
        picks in proptest::collection::vec(0usize..50, 4..60),
        dims in 1usize..6,
        shuffle_key in 1usize..1000,
    ) {
        let probe = random_problem(nv, &picks, dims);
        prop_assume!(probe.graph().num_factors() >= 2);

        let rcm = Reordering::rcm(probe.graph());
        // A second, arbitrary (non-locality-driven) permutation: sort
        // factors by a keyed hash. Equivalence must hold for ANY order.
        let nf = probe.graph().num_factors();
        let mut order: Vec<paradmm::graph::FactorId> = probe.graph().factors().collect();
        order.sort_by_key(|a| (a.idx() * shuffle_key) % nf);
        let arbitrary = Reordering::from_factor_order(probe.graph(), &order);

        assert_reorder_bit_identical(probe, &rcm, "random/rcm");
        let again = random_problem(nv, &picks, dims);
        assert_reorder_bit_identical(again, &arbitrary, "random/arbitrary");
    }
}
