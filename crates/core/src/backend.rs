//! The execution-backend abstraction: one trait, many ways to run one
//! compiled [`SweepPlan`].
//!
//! Every strategy for executing an ADMM iteration — the serial loops,
//! the work-assisting pool ([`crate::PoolBackend`]), partition-local
//! shard workers with a halo exchange ([`crate::StaleBoundedBackend`])
//! and probe-and-lock auto selection — implements [`SweepExecutor`].
//! The [`crate::Solver`] drives whichever backend it is given through
//! the same convergence loop, so a new backend is a drop-in `impl`, not
//! another enum arm.
//!
//! Every backend runs the same three-pass schedule, `x+m | z | u+n`
//! (see [`SweepPlan`]), one synchronization point per pass, on the
//! kernels of [`crate::kernels`]. The parallel backends start their
//! workers through one runtime in `pool`, which also holds the pool's
//! raw shared views and claim protocol and states their proof
//! obligations once; the halo executor shares only atomics.
//!
//! The synchronous backends (serial, pool, the halo executor at `k = 0`,
//! and auto, which locks in one of them) are *bit-identical* to each
//! other by construction (the z-average is deterministic per variable
//! regardless of scheduling); the halo executor at `k ≥ 1` (the `async`
//! spec) is not, and converges instead — see [`StaleBoundedBackend`].

use std::time::Instant;

use paradmm_graph::{EdgeStream, VarStore};

use crate::kernels;
use crate::plan::{Pass, PassKind, SweepPlan};
use crate::pool::PoolBackend;
use crate::problem::AdmmProblem;
use crate::stale::StaleBoundedBackend;
use crate::timing::UpdateTimings;

/// A way to execute blocks of ADMM iterations (the three passes of a
/// [`SweepPlan`]) and report how long each pass took.
///
/// Implementations own whatever execution resources they need (thread
/// pools, partitions, shard stores); the [`crate::Solver`] owns
/// one backend and calls [`SweepExecutor::run_block`] between residual
/// checks.
///
/// # Scheduling contract (chunk size and fairness)
///
/// Algorithm 2 is a Jacobi-style schedule: within one sweep every task
/// reads only arrays the sweep does not write, so *any* partition of a
/// sweep's tasks into chunks, claimed by any worker in any order,
/// produces bit-identical iterates. Implementations are therefore free
/// to choose chunk size and assignment policy purely for throughput:
///
/// * **chunk size** trades claim overhead against load balance — a chunk
///   is the unit of work a worker acquires at once, so larger chunks
///   amortize coordination while smaller chunks let slow/unlucky workers
///   shed load; claim-based executors take it from the plan
///   (`Pass::chunk`), the only source of chunk granularity;
/// * **fairness** is not required — a backend may give one worker all
///   the work (as [`SerialBackend`] trivially does) or rebalance every
///   sweep; correctness never depends on who executed which chunk;
/// * the only hard rules are that every task of a pass is executed
///   **exactly once** per iteration, passes execute in the plan's order
///   `x+m | z | u+n` (see `kernels::xm_update_block` and
///   [`kernels::un_update_range_stream`] for why each fusion is exact),
///   and all writes of a pass are visible before the next pass reads
///   them.
///
/// # Schedule resolution
///
/// Backends execute the [`SweepPlan`] the problem carries
/// (`AdmmProblem::plan`), falling back to [`SweepPlan::fused`] — use
/// [`SweepPlan::resolve`] for the shared rule. Every plan has the same
/// three passes; chunk sizes and splits change throughput, never a bit.
pub trait SweepExecutor: Send {
    /// Short stable label for reports and bench tables (e.g. `"serial"`,
    /// `"pool"`).
    fn name(&self) -> &'static str;

    /// Runs exactly `iters` complete iterations on `store`, adding
    /// per-update-kind durations into `timings`. Implementations must not
    /// touch `timings.iterations`; [`SweepExecutor::run_block`] accounts
    /// it centrally.
    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        timings: &mut UpdateTimings,
    );

    /// Runs a block of `iters` iterations and accounts them in `timings`.
    /// Callers use this; implementors override [`SweepExecutor::execute`].
    fn run_block(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        timings: &mut UpdateTimings,
    ) {
        self.execute(problem, store, iters, timings);
        timings.iterations += iters;
    }
}

/// Optimized single-core loops — the paper's serial C baseline and the
/// denominator of every speedup it reports. Executes the problem's
/// [`SweepPlan`] pass by pass: one combined x+m traversal, a z pass on
/// swapped buffers (no `z_prev` copy), and one fused u+n traversal.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialBackend;

/// Runs one pass of a plan serially over its full index range. The Z
/// pass swaps the `z`/`z_prev` buffers in place of a snapshot copy
/// (identical values — see [`kernels::z_update_swapped_range`]).
fn run_pass_serial(problem: &AdmmProblem, store: &mut VarStore, pass: &Pass) {
    let g = problem.graph();
    let params = problem.params();
    let items = pass.items();
    match pass.kind() {
        PassKind::Xm => kernels::xm_update_range(
            g,
            problem.proxes(),
            params,
            &store.n,
            &store.u,
            &mut store.x,
            &mut store.m,
            0,
            items,
        ),
        PassKind::Z => {
            store.swap_z();
            kernels::z_update_swapped_range(
                g,
                params,
                &store.m,
                &store.z_prev,
                &mut store.z,
                0,
                items,
            );
        }
        PassKind::Un => kernels::un_update_range_stream(
            &EdgeStream::build(g, params),
            &store.x,
            &store.z,
            &mut store.u,
            &mut store.n,
            0,
            items,
        ),
    }
}

impl SweepExecutor for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        let plan = SweepPlan::resolve(problem);
        for _ in 0..iters {
            for pass in plan.passes() {
                let t0 = Instant::now();
                run_pass_serial(problem, store, pass);
                t.add(pass.kind(), t0.elapsed());
            }
        }
    }
}

/// Self-tuning backend: probes every candidate on the *actual* problem,
/// locks in the fastest, and runs it from then on — the paper's
/// "automatic per-operator tuning" future-work item made concrete for
/// backend selection.
///
/// The probe runs on the caller's own state, inside the caller's first
/// block: each candidate in turn runs a window of six iterations of the
/// block, ranked by **wall-clock** seconds per iteration — the cost the
/// caller will actually pay on subsequent blocks — and the fastest runs
/// the rest of the block and every block after it. No iteration is
/// thrown away and no state is copied. A block too short for three
/// windows shrinks them to an equal share (at least one iteration); a
/// block shorter than that leaves its untimed candidates to the next.
///
/// The candidates are the three synchronous CPU executors — serial, the
/// work-assisting pool, and the halo executor at `k = 0` (shard workers
/// synchronized by watermark waits, labelled `sharded`) — all
/// bit-identical by construction and each leaving the store canonical at
/// the end of its window, so however a block is split among them, the
/// iterates match [`SerialBackend`] exactly.
pub struct AutoBackend {
    candidates: Vec<Box<dyn SweepExecutor>>,
    /// Seconds per iteration of the first `timed.len()` candidates.
    timed: Vec<f64>,
    chosen: Option<Box<dyn SweepExecutor>>,
}

/// Iterations each candidate runs during the probe.
const PROBE_ITERS: usize = 6;

impl AutoBackend {
    /// Auto-selection over the three synchronous CPU executors, each
    /// configured for `threads` workers (the halo executor runs one
    /// shard per worker at `k = 0`, its bit-identical configuration).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        AutoBackend {
            candidates: vec![
                Box::new(SerialBackend),
                Box::new(PoolBackend::new(threads)),
                Box::new(StaleBoundedBackend::new(threads, 0)),
            ],
            timed: Vec::new(),
            chosen: None,
        }
    }

    /// Name of the backend the probe locked in, or `None` until the probe
    /// has timed every candidate.
    pub fn selected(&self) -> Option<&'static str> {
        self.chosen.as_ref().map(|b| b.name())
    }
}

impl SweepExecutor for AutoBackend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        mut iters: usize,
        t: &mut UpdateTimings,
    ) {
        if self.chosen.is_none() {
            // The untimed candidates' windows come first in the block; n
            // windows of this length fit in it whenever iters >= n.
            let n = self.candidates.len();
            let window = PROBE_ITERS.min(iters / n).max(1);
            while iters > 0 && self.timed.len() < n {
                let wall = Instant::now();
                self.candidates[self.timed.len()].execute(problem, store, window, t);
                self.timed
                    .push(wall.elapsed().as_secs_f64() / window as f64);
                iters -= window;
            }
            if self.timed.len() == n {
                // The first of equally fast candidates wins.
                let best = (0..n)
                    .min_by(|&a, &b| self.timed[a].total_cmp(&self.timed[b]))
                    .expect("AutoBackend::new always probes three candidates");
                self.chosen = Some(self.candidates.swap_remove(best));
                self.candidates.clear(); // losing candidates release their state
            }
        }
        if let Some(chosen) = self.chosen.as_mut() {
            chosen.execute(problem, store, iters, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackendSpec;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx, ZeroProx};

    /// Consensus of quadratic factors: minimize Σ (s − tᵢ)² over one
    /// shared scalar variable. Optimum is the mean of the targets.
    fn consensus_problem(targets: &[f64]) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for &t in targets {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 2.0, &[t])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn solve_with(backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut store, iters, &mut t);
        assert_eq!(t.iterations, iters);
        store.z[0]
    }

    #[test]
    fn serial_converges_to_mean() {
        let z = solve_with(&mut SerialBackend, 300);
        assert!((z - 5.0).abs() < 1e-6, "z = {z}");
    }

    #[test]
    fn rayon_matches_serial_exactly() {
        // Same fixed-point iteration → identical iterates (the z-average is
        // deterministic per variable regardless of scheduling). The
        // `rayon` spec builds the pool; without a count it takes the
        // host's available parallelism.
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(
            BackendSpec::Rayon { threads: None }.to_backend().as_mut(),
            50,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn rayon_with_explicit_threads() {
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(
            BackendSpec::Rayon { threads: Some(2) }
                .to_backend()
                .as_mut(),
            50,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_matches_serial_exactly() {
        for threads in [1, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let spec = BackendSpec::Barrier {
                threads: Some(threads),
            };
            let b = solve_with(spec.to_backend().as_mut(), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn barrier_more_threads_than_work() {
        // 3 factors, 1 variable, 3 edges but 8 threads: empty shares
        // must be handled.
        let problem = consensus_problem(&[2.0, 4.0, 6.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        BackendSpec::Barrier { threads: Some(8) }
            .to_backend()
            .run_block(&problem, &mut store, 100, &mut t);
        assert!((store.z[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn auto_backend_locks_in_a_candidate_and_matches_serial() {
        let mut auto = AutoBackend::new(2);
        assert_eq!(auto.selected(), None);
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut auto, 50);
        assert_eq!(a, b);
        assert!(auto.selected().is_some(), "probe must lock in");
    }

    #[test]
    fn auto_backend_probes_serial_pool_and_sharded() {
        let mut auto = AutoBackend::new(2);
        let mut names: Vec<_> = auto.candidates.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["pool", "serial", "sharded"]);
        let _ = solve_with(&mut auto, 10);
        let selected = auto.selected().expect("probe must lock in");
        assert!(names.contains(&selected), "{selected}");
    }

    #[test]
    fn auto_backend_probe_does_not_perturb_state() {
        // Two identical stores, one driven by auto and one by serial:
        // after the same number of iterations the iterates agree, i.e.
        // the probe's windows are the block's own iterations (13 is too
        // short for three full windows, so they shrink to four each).
        let problem = consensus_problem(&[2.0, 4.0]);
        let mut auto_store = VarStore::zeros(problem.graph());
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        AutoBackend::new(2).run_block(&problem, &mut auto_store, 13, &mut t);
        SerialBackend.run_block(&problem, &mut serial_store, 13, &mut t);
        assert_eq!(auto_store.z, serial_store.z);
        assert_eq!(auto_store.u, serial_store.u);
    }

    #[test]
    fn auto_backend_in_blocks_shorter_than_its_probe_matches_serial() {
        // Blocks of 1, 2 and 5 iterations cannot hold three six-iteration
        // windows: the windows shrink, and with fewer iterations than
        // candidates the probe finishes in a later block.
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(9);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..8 {
            b.add_factor(&[vs[i], vs[i + 1]]);
            let c = (i as f64 * 0.7).sin();
            proxes.push(Box::new(QuadraticProx::isotropic(4, 1.5, &[c, -c, 1.0, c])));
        }
        let problem = AdmmProblem::new(b.build(), proxes, 1.3, 0.8);
        for block in [1usize, 2, 5] {
            let mut auto = AutoBackend::new(2);
            let mut auto_store = VarStore::zeros(problem.graph());
            let mut serial_store = VarStore::zeros(problem.graph());
            let mut t = UpdateTimings::new();
            for _ in 0..6 {
                auto.run_block(&problem, &mut auto_store, block, &mut t);
                SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            }
            assert!(auto.selected().is_some(), "block {block}: probe finished");
            assert_eq!(auto_store.x, serial_store.x, "block {block}");
            assert_eq!(auto_store.m, serial_store.m, "block {block}");
            assert_eq!(auto_store.u, serial_store.u, "block {block}");
            assert_eq!(auto_store.n, serial_store.n, "block {block}");
            assert_eq!(auto_store.z, serial_store.z, "block {block}");
            assert_eq!(auto_store.z_prev, serial_store.z_prev, "block {block}");
        }
    }

    #[test]
    fn async_backend_converges_to_mean() {
        let z = solve_with(&mut StaleBoundedBackend::new(2, 1), 800);
        assert!((z - 5.0).abs() < 1e-4, "z = {z}");
    }

    #[test]
    fn async_backend_tolerates_inconsistent_seeded_z() {
        // Hand-seed z to garbage while m stays zero: execute() must
        // restore z = ρ-avg(m) = 0 before activating, so the run still
        // converges to the mean instead of carrying the offset forever.
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(problem.graph());
        store.z.fill(1e3);
        let mut t = UpdateTimings::new();
        StaleBoundedBackend::new(2, 1).run_block(&problem, &mut store, 800, &mut t);
        assert!((store.z[0] - 5.0).abs() < 1e-4, "z = {}", store.z[0]);
    }

    #[test]
    fn zero_prox_is_fixed_point_at_zero() {
        // With f ≡ 0 and zero init, every sweep keeps state at zero.
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(2);
        b.add_factor(&[vs[0], vs[1]]);
        let problem = AdmmProblem::new(b.build(), vec![Box::new(ZeroProx)], 1.0, 1.0);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut store, 10, &mut t);
        assert!(store.z.iter().all(|&v| v == 0.0));
        assert!(store.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn timings_record_all_kinds() {
        let problem = consensus_problem(&[1.0, 2.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut store, 5, &mut t);
        assert!(t.total_seconds() > 0.0);
        assert_eq!(t.iterations, 5);
    }

    #[test]
    fn serial_block_books_each_of_the_three_passes() {
        let problem = consensus_problem(&[1.0, 2.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut store, 20, &mut t);
        for pass in PassKind::ORDER {
            assert!(t.seconds(pass) > 0.0, "{} booked no time", pass.label());
        }
        let breakdown = t.breakdown();
        let labels: Vec<&str> = breakdown
            .split(" | ")
            .map(|part| part.split(' ').next().unwrap_or(""))
            .collect();
        assert_eq!(labels, ["x+m", "z", "u+n"], "{breakdown}");
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SerialBackend.name(), "serial");
        assert_eq!(PoolBackend::new(2).name(), "pool");
        assert_eq!(StaleBoundedBackend::new(2, 1).name(), "async");
        assert_eq!(AutoBackend::new(2).name(), "auto");
        assert_eq!(StaleBoundedBackend::new(2, 0).name(), "sharded");
    }
}
