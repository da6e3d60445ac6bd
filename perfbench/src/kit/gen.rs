//! Seeded, deterministic input generators. The program under test sees
//! only what these produce; the same seed gives the same inputs, byte
//! for byte, and a different seed gives different ones.

use paradmm_core::{AdmmProblem, Priority, ProxOp, SolveRequest, StoppingCriteria};
use paradmm_graph::{GraphBuilder, VarStore};
use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm_packing::{PackingConfig, PackingProblem};
use paradmm_prox::{BoxProx, ConsensusEqualityProx, QuadraticProx, SemiLassoProx};
use paradmm_svm::{gaussian_mixture, Dataset, SvmConfig, SvmProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tolerance every solve in the benchmark runs to.
pub fn stopping(max_iters: usize) -> StoppingCriteria {
    StoppingCriteria {
        max_iters,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 50,
    }
}

/// One well-mixed word from `(seed, stream, index)` (SplitMix64
/// finalizer over the three), so every generator draws from its own
/// stream and item `i` does not depend on items before it.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

const STREAM_PACKING_INIT: u64 = 1;
const STREAM_MPC_Q0: u64 = 2;
const STREAM_SVM_DATA: u64 = 3;
const STREAM_INIT: u64 = 4;
const STREAM_KIND: u64 = 5;
const STREAM_TICK: u64 = 6;
const STREAM_MIXED: u64 = 7;

/// The three problem families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Circle packing in a triangle (paper §V-A).
    Packing,
    /// Inverted-pendulum MPC (paper §V-B).
    Mpc,
    /// Replicated-topology soft-margin SVM (paper §V-C).
    Svm,
}

/// Which of a family workload's three problems. The discriminant tags
/// the phase's random streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Solved to tolerance.
    Tol = 0,
    /// Run for fixed-length blocks of iterations in the untraced run
    /// (`iter_serial_s`). Its state (≈ 2 MiB) fits the core's private
    /// cache: on the baseline host a working set that spills into the
    /// shared L3 and DRAM runs 30–80 % slower for minutes at a time when
    /// other tenants are busy, whatever the code does.
    Mid = 2,
    /// The DRAM-sized problem the traced run's layers are measured on.
    Large = 1,
}

/// What checks a family's solution.
pub enum Verifier {
    /// Disk geometry.
    Packing(PackingProblem),
    /// Trajectory against the plant.
    Mpc(MpcProblem),
    /// Separating plane against the data it was trained on.
    Svm(SvmProblem, Dataset),
}

/// A generated problem with the state a solve starts from.
pub struct Instance {
    /// The factor-graph problem.
    pub problem: AdmmProblem,
    /// Initial ADMM state.
    pub init: VarStore,
    /// The family's output check.
    pub verifier: Verifier,
}

/// The SVM tolerance-phase dataset is part of the workload's
/// definition, like MPC's plant and packing's container: time to
/// tolerance on this family swings ±8% with the draw of the support
/// vectors (measured at N=2000), which would drown the 10% bound. The
/// run's seed still draws the initial state, and the mid and large
/// phases draw their data from the run's seed.
const SVM_TOL_DATA_SEED: u64 = 0x5eed_da7a;

/// Packing is not convex: from about one initial state in ten the
/// tolerance solve settles in another local optimum after a quarter of
/// the usual 36 750 iterations, and three such seeds among a driver's
/// ten would set the quartile of `solve_*_s`. The tolerance phase
/// therefore starts from one pinned draw; the mid and large phases draw
/// their initial state from the run's seed.
const PACKING_TOL_INIT_SEED: u64 = 2016;

impl Family {
    /// The workload this family backs.
    pub fn workload(self) -> &'static str {
        match self {
            Family::Packing => "packing-dense",
            Family::Mpc => "mpc-chain",
            Family::Svm => "svm-chain",
        }
    }

    /// Problem size (disks, horizon, points) of `phase`.
    pub fn size(self, phase: Phase) -> usize {
        match (self, phase) {
            (Family::Packing, Phase::Tol) => 48,
            (Family::Packing, Phase::Mid) => 120,
            (Family::Packing, Phase::Large) => 400,
            (Family::Mpc, Phase::Tol) => 120,
            (Family::Mpc, Phase::Mid) => 3_000,
            (Family::Mpc, Phase::Large) => 50_000,
            (Family::Svm, Phase::Tol) => 800,
            (Family::Svm, Phase::Mid) => 3_000,
            (Family::Svm, Phase::Large) => 100_000,
        }
    }

    /// Iterations per block of `phase`: 20–40 ms of serial work at the
    /// mid size, 60–170 ms at the large one.
    pub fn block(self, phase: Phase) -> usize {
        match (self, phase) {
            (_, Phase::Tol) => unreachable!("the tolerance phase runs to convergence"),
            (Family::Packing, Phase::Mid) => 100,
            (Family::Packing, Phase::Large) => 20,
            (Family::Mpc, Phase::Mid) => 15,
            (Family::Mpc, Phase::Large) => 5,
            (Family::Svm, Phase::Mid) => 80,
            (Family::Svm, Phase::Large) => 10,
        }
    }

    /// Iteration budget of a tolerance-phase solve: four times what the
    /// default seed needs, so only a real convergence failure hits it.
    pub fn max_iters(self) -> usize {
        match self {
            Family::Packing => 150_000,
            Family::Mpc => 60_000,
            Family::Svm => 40_000,
        }
    }

    /// Generates `phase`'s problem and initial state from `seed`.
    pub fn instance(self, phase: Phase, seed: u64) -> Instance {
        let size = self.size(phase);
        let tag = phase as u64;
        match self {
            Family::Packing => {
                let (packing, problem) = PackingProblem::build(PackingConfig::new(size));
                let mut init = VarStore::zeros(problem.graph());
                let init_seed = match phase {
                    Phase::Tol => PACKING_TOL_INIT_SEED,
                    Phase::Mid | Phase::Large => seed,
                };
                packing.init_store(&mut init, &mut rng(init_seed, STREAM_PACKING_INIT, tag));
                packing.broadcast_z(&problem, &mut init);
                Instance {
                    problem,
                    init,
                    verifier: Verifier::Packing(packing),
                }
            }
            Family::Mpc => {
                let mut config = MpcConfig::new(size);
                let mut r = rng(seed, STREAM_MPC_Q0, tag);
                for q in config.q0.iter_mut() {
                    *q += r.gen_range(-0.02..0.02);
                }
                let (mpc, problem) = MpcProblem::build(config, paper_plant());
                let init = random_store(&problem, seed, tag);
                Instance {
                    problem,
                    init,
                    verifier: Verifier::Mpc(mpc),
                }
            }
            Family::Svm => {
                let data_seed = match phase {
                    Phase::Tol => SVM_TOL_DATA_SEED,
                    Phase::Mid | Phase::Large => seed,
                };
                let data = svm_data(size, data_seed);
                let (svm, problem) = SvmProblem::build(&data, SvmConfig::default());
                let init = random_store(&problem, seed, tag);
                Instance {
                    problem,
                    init,
                    verifier: Verifier::Svm(svm, data),
                }
            }
        }
    }
}

/// `n` points from the paper's two-Gaussian mixture (dim 2, means 4.0
/// apart), drawn from `seed`.
pub fn svm_data(n: usize, seed: u64) -> Dataset {
    gaussian_mixture(n, 2, 4.0, &mut rng(seed, STREAM_SVM_DATA, n as u64))
}

/// The paper's `initialize_X_N_Z_M_U_rand`: every array uniform in
/// `[-0.1, 0.1)`, drawn from `seed`.
fn random_store(problem: &AdmmProblem, seed: u64, tag: u64) -> VarStore {
    let mut store = VarStore::zeros(problem.graph());
    let mut r = rng(seed, STREAM_INIT, tag);
    store.init_uniform(-0.1, 0.1, || r.gen_range(0.0..1.0));
    store
}

impl Verifier {
    /// Checks a solved state; returns the verdict and the numbers
    /// behind it. Tolerances are an order of magnitude above what the
    /// benchmark's stopping tolerance reaches at the default seed.
    pub fn verify(&self, store: &VarStore) -> (bool, String) {
        match self {
            Verifier::Packing(p) => {
                let solution = p.extract(store);
                let overlap = solution.worst_overlap();
                let wall = solution.worst_wall_violation(&p.config().container);
                (
                    overlap >= -PACKING_SLACK && wall >= -PACKING_SLACK,
                    format!("worst_overlap={overlap:.3e} worst_wall_violation={wall:.3e} (≥ -{PACKING_SLACK:e})"),
                )
            }
            Verifier::Mpc(m) => {
                let residual = m.extract(store).max_dynamics_residual(m.system());
                (
                    residual <= MPC_SLACK,
                    format!("max_dynamics_residual={residual:.3e} (≤ {MPC_SLACK:e})"),
                )
            }
            Verifier::Svm(svm, data) => {
                let model = svm.extract(store);
                let accuracy = data.accuracy(&model.w, model.b);
                let mut r = rng(SVM_TOL_DATA_SEED, STREAM_SVM_DATA, u64::MAX);
                let (w, b) = paradmm_svm::pegasos_train(data, 0.01, 5, &mut r);
                let reference = data.accuracy(&w, b);
                (
                    accuracy >= reference - SVM_SLACK,
                    format!("accuracy={accuracy:.4} reference={reference:.4} (within {SVM_SLACK})"),
                )
            }
        }
    }
}

const PACKING_SLACK: f64 = 1e-3;
const MPC_SLACK: f64 = 1e-3;
const SVM_SLACK: f64 = 0.02;

// ---------------------------------------------------------------------
// The serve-mixed request stream.

/// Open-loop offered load, requests per second: a quarter of what the
/// closed loop sustains on a quiet host, so that a slow spell (which
/// cuts capacity by up to half) still leaves no backlog. Frozen at the
/// seed commit (see the README's "open-loop rate"); it never changes.
pub const OPEN_LOOP_RPS: f64 = 37.5;

/// Which path of the service a stream item exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uniform-dims MPC tick: joins the fused batch pack.
    BatchMpc,
    /// `Priority::Critical` MPC tick: a fleet round of its own.
    CriticalMpc,
    /// Small instance whose dims differ from the pack's: fleet lane.
    MixedDims,
    /// Exact repeat of an earlier item with `use_cache = true`.
    Repeat,
}

/// One request of the stream.
pub struct StreamItem {
    /// The request.
    pub request: SolveRequest,
    /// Whether the server may seed it from its warm-start cache.
    pub use_cache: bool,
}

/// Kind and base index of item `i`: 70% batch MPC, 10% critical MPC,
/// 10% mixed dims, 10% repeats of one of the 64 items before the last
/// 32 (far enough back that a 32-deep closed loop has usually finished
/// the original).
pub fn stream_kind(seed: u64, i: u64) -> (Kind, u64) {
    let draw = mix(seed, STREAM_KIND, i);
    match draw % 10 {
        0..=6 => (Kind::BatchMpc, i),
        7 => (Kind::CriticalMpc, i),
        8 => (Kind::MixedDims, i),
        _ if i < 33 => (Kind::BatchMpc, i),
        _ => {
            let oldest = i.saturating_sub(96);
            let back = oldest + (draw >> 8) % (i - 32 - oldest);
            // A repeat of a repeat is a repeat of its original.
            (Kind::Repeat, stream_kind(seed, back).1)
        }
    }
}

/// Item `i` of the stream drawn from `seed`.
pub fn stream_item(seed: u64, i: u64) -> StreamItem {
    let (kind, base) = stream_kind(seed, i);
    let (base_kind, _) = stream_kind(seed, base);
    let request = match base_kind {
        Kind::BatchMpc => tick(seed, base),
        Kind::CriticalMpc => tick(seed, base).with_priority(Priority::Critical),
        Kind::MixedDims => {
            SolveRequest::new(mixed_dims(seed, base)).with_stopping(stopping(TICK_MAX_ITERS))
        }
        Kind::Repeat => unreachable!("bases are never repeats"),
    };
    StreamItem {
        request,
        use_cache: kind == Kind::Repeat,
    }
}

/// The batch-lane tick the stream's generator makes at index `i`,
/// whatever kind the stream itself drew there. Any nine consecutive
/// indices hold one tick of each horizon, so `tick(seed, 0..36)` is a
/// stratified sample of the stream's ticks: four of each size.
pub fn tick(seed: u64, i: u64) -> SolveRequest {
    SolveRequest::new(mpc_tick(seed, i)).with_stopping(stopping(TICK_MAX_ITERS))
}

/// The longest tick among the stream's first nine: horizon 12, about
/// 2 350 iterations. The service's first reply in `setup_s` is to this
/// request, so that set-up is tens of milliseconds on every seed and a
/// millisecond added to server start is a few percent of it, not a
/// multiple.
pub fn warmup_tick(seed: u64) -> SolveRequest {
    let longest = (0..9)
        .find(|i| (i + seed % 9) % 9 == 8)
        .expect("nine consecutive indices hold every horizon");
    tick(seed, longest)
}

/// Iteration budget of a served request (ticks need 1–2 thousand).
const TICK_MAX_ITERS: usize = 20_000;

/// One receding-horizon MPC tick, measured state drawn around the
/// paper's initial condition. Horizons cycle through 4..=12 with the
/// stream index instead of being drawn: a tick's cost grows faster than
/// its horizon, and 32 drawn horizons made the cost of a stream prefix
/// swing ±30 % between seeds. Any stretch of the stream now has the same
/// mix of sizes; the seed decides what is in them.
fn mpc_tick(seed: u64, i: u64) -> AdmmProblem {
    let mut r = rng(seed, STREAM_TICK, i);
    let mut config = MpcConfig::new(4 + ((i % 9 + seed % 9) % 9) as usize);
    for (q, spread) in config.q0.iter_mut().zip([0.05, 0.02, 0.03, 0.01]) {
        *q += r.gen_range(-spread..spread);
    }
    MpcProblem::build(config, paper_plant()).1
}

/// A small chain whose dims (2 or 3) differ from an MPC tick's 5, built
/// only from operators with a wire encoding. They stand in for the
/// issue's "small packing/SVM" share: packing's collision and wall
/// operators and SVM's hinge and slack operators have no `ProxSpec`, so
/// those families cannot cross the socket. dims 2 is a box-constrained
/// tracking chain, dims 3 a semi-lasso chain — the element-wise mix of
/// the two families at their dims.
fn mixed_dims(seed: u64, i: u64) -> AdmmProblem {
    let mut r = rng(seed, STREAM_MIXED, i);
    let dims = 2 + (i % 2) as usize;
    let n = r.gen_range(6..17usize);
    let mut b = GraphBuilder::new(dims);
    let vars = b.add_vars(n);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for &v in &vars {
        let target: Vec<f64> = (0..dims).map(|_| r.gen_range(-1.0..1.0)).collect();
        b.add_factor(&[v]);
        proxes.push(Box::new(QuadraticProx::isotropic(dims, 1.0, &target)));
        b.add_factor(&[v]);
        if dims == 2 {
            proxes.push(Box::new(BoxProx::new(-0.5, 0.5)));
        } else {
            proxes.push(Box::new(SemiLassoProx::new(0.1)));
        }
    }
    for pair in vars.windows(2) {
        b.add_factor(pair);
        proxes.push(Box::new(ConsensusEqualityProx));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// Seconds after the open loop's start at which item `i` is due.
pub fn due_seconds(i: u64) -> f64 {
    i as f64 / OPEN_LOOP_RPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_serve::protocol::encode_request;

    fn encoded(seed: u64, n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let item = stream_item(seed, i);
                encode_request(i, &item.request, item.use_cache).expect("stream items encode")
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = encoded(7, 200);
        assert_eq!(a, encoded(7, 200));
        let b = encoded(8, 200);
        assert_ne!(a, b);
        // Not merely reordered: position by position they differ.
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 5, "{same} of 200 requests identical across seeds");
    }

    #[test]
    fn the_mix_is_the_documented_one() {
        let n = 4000u64;
        let mut counts = [0usize; 4];
        for i in 0..n {
            let (kind, base) = stream_kind(3, i);
            counts[kind as usize] += 1;
            assert!(base <= i);
            if kind == Kind::Repeat {
                assert!(base + 32 < i, "repeat {i} of {base} too close");
                assert_ne!(stream_kind(3, base).0, Kind::Repeat);
            } else {
                assert_eq!(base, i);
            }
        }
        let share = |k: Kind| counts[k as usize] as f64 / n as f64;
        assert!((share(Kind::BatchMpc) - 0.70).abs() < 0.03);
        assert!((share(Kind::CriticalMpc) - 0.10).abs() < 0.02);
        assert!((share(Kind::MixedDims) - 0.10).abs() < 0.02);
        assert!((share(Kind::Repeat) - 0.10).abs() < 0.02);
    }

    #[test]
    fn a_repeat_is_its_base_byte_for_byte_except_the_cache_flag() {
        let seed = 11;
        let i = (33..2000)
            .find(|&i| stream_kind(seed, i).0 == Kind::Repeat)
            .expect("a repeat in 2000 items");
        let item = stream_item(seed, i);
        let base = stream_item(seed, stream_kind(seed, i).1);
        assert!(item.use_cache && !base.use_cache);
        assert_eq!(
            encode_request(0, &item.request, false).unwrap(),
            encode_request(0, &base.request, false).unwrap()
        );
    }

    #[test]
    fn family_instances_repeat_per_seed() {
        for family in [Family::Packing, Family::Mpc, Family::Svm] {
            let a = family.instance(Phase::Mid, 5);
            let b = family.instance(Phase::Mid, 5);
            let c = family.instance(Phase::Mid, 6);
            assert_eq!(a.init.z, b.init.z, "{family:?}");
            assert_eq!(a.init.x, b.init.x, "{family:?}");
            assert_ne!(a.init.z, c.init.z, "{family:?}");
            assert_eq!(a.problem.graph().num_edges(), c.problem.graph().num_edges());
        }
        // Packing's tolerance phase starts from its pinned draw.
        let tol = |seed| Family::Packing.instance(Phase::Tol, seed).init.z;
        assert_eq!(tol(5), tol(6));
        // The SVM mid and large phases draw their data from the run's seed.
        assert_ne!(svm_data(50, 1).points, svm_data(50, 2).points);
        assert_eq!(svm_data(50, 1).points, svm_data(50, 1).points);
    }

    #[test]
    fn tick_horizons_cycle_and_the_warm_up_is_the_longest() {
        for seed in [0, 1, 8, 2016, u64::MAX] {
            let edges = |r: &SolveRequest| r.problem().graph().num_edges();
            // 3K + 2 edges at horizon K: nine consecutive ticks hold 4..=12.
            let mut sizes: Vec<usize> = (0..9).map(|i| edges(&tick(seed, i))).collect();
            sizes.sort_unstable();
            let expected: Vec<usize> = (4..=12).map(|k| 3 * k + 2).collect();
            assert_eq!(sizes, expected, "seed {seed}");
            assert_eq!(edges(&warmup_tick(seed)), 38, "seed {seed}");
        }
    }

    #[test]
    fn arrival_schedule_is_the_fixed_rate() {
        assert_eq!(due_seconds(0), 0.0);
        assert!((due_seconds((2.0 * OPEN_LOOP_RPS) as u64) - 2.0).abs() < 1e-12);
    }
}
