//! Sharded execution with a real per-iteration halo exchange, and a
//! bounded-staleness window on it: per-shard workers synchronized by
//! progress watermarks instead of global barriers.
//!
//! [`StaleBoundedBackend`] executes the paper's future-work item 3
//! ("extend the code to allow the use of multiple GPUs and multiple
//! computers") on one host's cores. A [`Partition`] is decomposed into
//! a [`ShardedStore`] — per-shard edge-contiguous local stores with
//! local renumbering — and each shard runs the sweeps on its own arrays
//! with exactly one cross-shard coupling point: the consensus `z` of
//! *halo* variables (those touched by more than one shard). Its reduce
//! folds the staged `ρ·(x+u)` messages in ascending **global** edge
//! order, replaying the serial z-update's exact floating-point fold.
//!
//! Instead of barriers, each shard publishes a per-iteration progress
//! **watermark** (a single release-stored `AtomicU64` using the same
//! ABA-free `(iter << 32) | phase` encoding as `pool.rs`), and
//! cross-shard reads are allowed to consume neighbor state up to `k`
//! iterations stale (the paper's future-work item 1). Each shard only
//! ever *waits* when a neighbor has fallen more than `k` iterations
//! behind — at `k ≥ 1` a shard that finishes its phase early keeps going
//! instead of idling. The `sharded` backend spec is this executor at
//! `k = 0`; the `async` spec is `k = 1`.
//!
//! # Protocol
//!
//! Iterations are 1-based in the watermark. Shard `i` publishes, in
//! order, for every iteration `t`:
//!
//! ```text
//! (t << 32) | 1   — staged:   local x/m/z done, ρ·m messages staged
//! (t << 32) | 2   — reduced:  combined z of its OWNED halo vars written
//! (t << 32) | 3   — done:     broadcast + u/n finished
//! ```
//!
//! The value is strictly monotone (lexicographic in `(iter, phase)`), so
//! a plain `u64` comparison implements every wait condition and the
//! counter can never be confused by wrap-around reuse (ABA) — the same
//! argument `pool.rs` makes for its chunk-claim words.
//!
//! Every halo variable has one **owner** — the minimum part holding a
//! replica — and only the owner reduces it. Cross-shard traffic flows
//! through *versioned* buffers with `S = 2k + 2` slots (slot `t % S`),
//! built once with the shards and reused by every block: staged `ρ·m`
//! messages per shard, and the combined halo `z` per halo variable. An
//! owner reducing at iteration `t` waits until each contributing shard
//! has staged iteration `max(1, t − k)`, then folds whatever *newer*
//! version that shard has already published (never newer than `t`); a
//! shard broadcasting at `t` symmetrically waits for each owner's reduce
//! of `max(1, t − k)`. Two shards that communicate therefore never drift
//! more than `k` iterations apart, which bounds every concurrently-live
//! slot pair's distance by `2k < S`.
//!
//! # Workers and visibility
//!
//! The shard workers run on the pool's runtime (`pool::run_workers`):
//! worker `i` receives shard `i` as its own `&mut`, and everything it
//! shares with the others is atomic — the watermark words and the
//! versioned slots, each an `AtomicU64` holding an `f64`'s bits. The
//! slots are written and read `Relaxed`; the watermarks order them. A
//! writer stores a version's slots and then release-publishes the phase
//! that covers them; a reader acquire-loads that watermark before it
//! reads the version, so it sees every value of it. Slot reuse is
//! ordered the same way: a slot's old version is overwritten only by a
//! writer that has acquire-observed, through the waits above, the
//! release its every reader published after reading it. Without that
//! ordering a read would return a wrong version — never undefined
//! behaviour — which the `k = 0` bit-identity suites would catch; the
//! TSan suite runs this executor too.
//!
//! A worker whose operator panics raises the runtime's poison flag, its
//! peers' watermark waits give up, and the panic reaches the caller: a
//! failed shard fails its block instead of hanging it.
//!
//! # `k = 0` is the correctness anchor
//!
//! With `k = 0` every wait degenerates to "neighbor reached iteration
//! `t`" and every versioned read selects version `t`, so the shard-local
//! kernels and the global-edge-order halo fold reproduce the serial
//! schedule exactly: iterates are **bit-identical** to
//! [`SerialBackend`](crate::SerialBackend) for any partition;
//! `tests/staleness_equivalence.rs` pins this on all four
//! problem families. Only the *scheduling* differs (watermark waits
//! instead of barriers, reduces on each halo variable's owner).
//!
//! # Staleness-aware residuals
//!
//! On the **last iteration of every block** the staleness bound is
//! forced to `k_eff = 0`, so when [`SweepExecutor::execute`] returns,
//! all halo replicas are coherent at the final version — the gathered
//! global store is a watermark-consistent snapshot, and the solver's
//! between-block residual check (and its convergence decision) never
//! sees a torn state. Mid-block, shards run ahead/behind within `k`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use paradmm_graph::{EdgeStream, Partition, ShardedStore, VarStore};

use crate::backend::SweepExecutor;
use crate::kernels::{self, UpdateKind};
use crate::pool::run_workers;
use crate::problem::AdmmProblem;
use crate::timing::UpdateTimings;

/// The watermark word: `(iteration << 32) | phase`, iterations 1-based,
/// phases [`PHASE_STAGED`](watermark::PHASE_STAGED) →
/// [`PHASE_REDUCED`](watermark::PHASE_REDUCED) →
/// [`PHASE_DONE`](watermark::PHASE_DONE) within
/// an iteration. `0` is the initial "nothing published" state. Exposed
/// (with the extractors) so the property tests can check the protocol
/// invariants directly.
pub mod watermark {
    /// Phase bits of a published word (low 32 bits).
    pub const PHASE_MASK: u64 = 0xffff_ffff;
    /// Local x/m/z finished, halo messages staged.
    pub const PHASE_STAGED: u64 = 1;
    /// Combined z of the shard's owned halo variables written.
    pub const PHASE_REDUCED: u64 = 2;
    /// Broadcast + u/n finished; the iteration is complete.
    pub const PHASE_DONE: u64 = 3;

    /// Encodes a `(iteration, phase)` pair. Strictly monotone in
    /// publication order, so waits are plain `u64` comparisons.
    #[inline]
    pub fn encode(iter: u64, phase: u64) -> u64 {
        (iter << 32) | phase
    }

    /// Latest iteration whose *staging* is complete under `w` (0 when
    /// nothing was published: every published phase implies staging).
    #[inline]
    pub fn staged_iter(w: u64) -> u64 {
        w >> 32
    }

    /// Latest iteration whose *reduce* is complete under `w`.
    #[inline]
    pub fn reduced_iter(w: u64) -> u64 {
        if w & PHASE_MASK >= PHASE_REDUCED {
            w >> 32
        } else {
            (w >> 32).saturating_sub(1)
        }
    }

    /// Latest fully-finished iteration under `w`.
    #[inline]
    pub fn done_iter(w: u64) -> u64 {
        if w & PHASE_MASK >= PHASE_DONE {
            w >> 32
        } else {
            (w >> 32).saturating_sub(1)
        }
    }
}

/// One cache line per shard watermark — neighbors spin on these, so
/// false sharing between adjacent shards' progress words would put the
/// hot publish store and the hot spin load on the same line.
#[repr(align(64))]
struct Watermark(AtomicU64);

/// The decomposition of the last problem this backend executed, with its
/// ownership precompute and halo buffers. It holds no copy of the
/// problem's graph or parameters: it is valid for exactly the problem
/// whose [`AdmmProblem::key`] it was built for, and a different problem
/// or a parameter change (which draws a new key) rebuilds it.
struct StaleState {
    /// The key of the problem the shards were cut from.
    key: u64,
    store: ShardedStore,
    /// Halo index → owning shard (minimum part holding a replica).
    owner: Vec<u32>,
    /// Per shard: the halo indices it owns (ascending).
    owned: Vec<Vec<u32>>,
    /// Per shard: shards whose staged messages its owned vars fold
    /// (sorted, deduped; may include the shard itself).
    reduce_deps: Vec<Vec<u32>>,
    /// Per shard: owners of the halo vars it holds replicas of (sorted,
    /// deduped; may include the shard itself).
    bcast_deps: Vec<Vec<u32>>,
    /// Per shard: its staged `ρ·m` messages, `stage_edges.len() · d`
    /// values per slot.
    stage: Vec<Vec<Box<[AtomicU64]>>>,
    /// Combined halo `z`, `halo_var_count · d` values per slot.
    halo_z: Vec<Box<[AtomicU64]>>,
}

impl StaleState {
    /// Decomposes `problem` along `partition`, with versioned buffers of
    /// `2·staleness + 2` slots (see the module docs).
    fn build(problem: &AdmmProblem, partition: Partition, staleness: usize) -> Self {
        let g = problem.graph();
        let store = ShardedStore::new(g, problem.params(), &partition);
        let parts = store.parts();
        let (slots, d) = (2 * staleness + 2, g.dims());
        let owner: Vec<u32> = store.plan.vars.iter().map(|hv| hv.parts[0]).collect();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); parts];
        let mut reduce_deps: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (h, task) in store.reduce.iter().enumerate() {
            let o = owner[h] as usize;
            owned[o].push(h as u32);
            for &(s, _) in &task.contribs {
                reduce_deps[o].push(s);
            }
        }
        let mut bcast_deps: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (i, shard) in store.shards.iter().enumerate() {
            for &(_, h) in &shard.halo_in {
                bcast_deps[i].push(owner[h as usize]);
            }
        }
        for deps in reduce_deps.iter_mut().chain(bcast_deps.iter_mut()) {
            deps.sort_unstable();
            deps.dedup();
        }
        let stage = store
            .shards
            .iter()
            .map(|sh| versioned(slots, sh.stage_edges.len() * d))
            .collect();
        let halo_z = versioned(slots, store.plan.halo_var_count() * d);
        StaleState {
            key: problem.key(),
            store,
            owner,
            owned,
            reduce_deps,
            bcast_deps,
            stage,
            halo_z,
        }
    }
}

/// Barrier-free sharded execution with a bounded staleness window.
///
/// `k = 0` is bit-identical to [`SerialBackend`](crate::SerialBackend);
/// `k ≥ 1` trades halo freshness for zero phase-wait — iterates then
/// differ from the synchronous schedule but converge to the same fixed
/// point on convex problems. See the module docs for the watermark
/// protocol.
pub struct StaleBoundedBackend {
    parts: usize,
    staleness: usize,
    explicit_partition: Option<Partition>,
    state: Option<StaleState>,
    max_observed_skew: usize,
    /// Decompositions built so far.
    #[cfg(test)]
    builds: usize,
}

impl StaleBoundedBackend {
    /// Backend with `parts` shards (one worker each) and a staleness
    /// bound of `staleness` iterations. The partition comes from
    /// [`Partition::grow`] on the first problem executed; the halo
    /// buffers hold `2·staleness + 2` versions.
    ///
    /// # Panics
    /// If `parts == 0`.
    pub fn new(parts: usize, staleness: usize) -> Self {
        assert!(parts >= 1, "stale backend needs at least one shard");
        StaleBoundedBackend {
            parts,
            staleness,
            explicit_partition: None,
            state: None,
            max_observed_skew: 0,
            #[cfg(test)]
            builds: 0,
        }
    }

    /// Backend over an explicit factor partition.
    ///
    /// # Panics
    /// If the partition has zero parts.
    pub fn with_partition(partition: Partition, staleness: usize) -> Self {
        assert!(partition.parts >= 1, "partition needs at least one part");
        let parts = partition.parts;
        StaleBoundedBackend {
            explicit_partition: Some(partition),
            ..Self::new(parts, staleness)
        }
    }

    /// The largest `t − version` any cross-shard read actually consumed
    /// so far — a runtime check of the staleness bound (always `≤ k`;
    /// the equivalence tests assert it, and it is 0 for `k = 0`).
    pub fn max_observed_skew(&self) -> usize {
        self.max_observed_skew
    }

    fn ensure_state(&mut self, problem: &AdmmProblem) {
        if self.state.as_ref().is_some_and(|s| s.key == problem.key()) {
            return;
        }
        let g = problem.graph();
        let partition = match &self.explicit_partition {
            Some(p) => {
                assert_eq!(
                    p.assignment.len(),
                    g.num_factors(),
                    "explicit partition does not cover this problem"
                );
                p.clone()
            }
            None => Partition::grow(g, self.parts),
        };
        self.state = Some(StaleState::build(problem, partition, self.staleness));
        #[cfg(test)]
        {
            self.builds += 1;
        }
    }
}

impl SweepExecutor for StaleBoundedBackend {
    /// `"sharded"` at `k = 0`, `"async"` at `k ≥ 1` — the
    /// [`crate::BackendSpec`] family each configuration backs.
    fn name(&self) -> &'static str {
        if self.staleness == 0 {
            "sharded"
        } else {
            "async"
        }
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        if iters == 0 {
            return;
        }
        self.ensure_state(problem);
        let state = self.state.as_mut().expect("ensure_state builds the shards");
        // Each iteration overwrites x, m and z_prev before it reads them.
        state.store.scatter_inputs(store);
        let skew = run_stale(problem, state, iters, self.staleness, t);
        state.store.gather(store);
        self.max_observed_skew = self.max_observed_skew.max(skew);
    }
}

/// Runs `iters` bounded-staleness iterations over the decomposed state;
/// returns the largest staleness any cross-shard read actually consumed.
fn run_stale(
    problem: &AdmmProblem,
    state: &mut StaleState,
    iters: usize,
    staleness: usize,
    t: &mut UpdateTimings,
) -> usize {
    assert!(
        iters <= u32::MAX as usize,
        "block too large for the 32-bit watermark iteration field"
    );
    let k = staleness as u64;
    let StaleState {
        store,
        owner,
        owned,
        reduce_deps,
        bcast_deps,
        stage,
        halo_z,
        ..
    } = state;
    let d = store.dims();
    let (shards, reduce) = store.exec_parts_mut();
    let marks: Vec<Watermark> = shards
        .iter()
        .map(|_| Watermark(AtomicU64::new(0)))
        .collect();

    let per_worker = run_workers(shards.iter_mut(), |tid, shard, crew| {
        let mut local = UpdateTimings::new();
        let my_mark = &marks[tid].0;
        // Waits until shard `s` has published `floor`; returns the word.
        let wait_for = |s: u32, floor: u64| {
            let mark = &marks[s as usize].0;
            crew.wait(|| Some(mark.load(Ordering::Acquire)).filter(|&w| w >= floor))
        };
        // Sampled neighbor versions for the current iteration, indexed
        // by shard id.
        let mut ver = vec![0u64; marks.len()];
        // One halo variable's fold, in the serial z-update's order.
        let mut acc = vec![0.0; d];
        let mut skew = 0usize;
        for it in 1..=iters as u64 {
            // The final iteration of every block runs fully fresh:
            // replicas are coherent at the gather, so the solver's
            // residual check reads a watermark-consistent snapshot.
            let k_eff = if it == iters as u64 { 0 } else { k };
            let floor_iter = it.saturating_sub(k_eff).max(1);

            // ---- staging: local x+m, z swap, interior z, ρ·m ----
            let t0 = Instant::now();
            let g = &shard.graph;
            let params = &shard.params;
            let nf = g.num_factors();
            let prox_of = |lf: usize| problem.prox(shard.factor_global[lf]);
            let st = &mut shard.store;
            kernels::xm_update_block(
                g, prox_of, params, &st.n, &st.u, &mut st.x, &mut st.m, 0, nf,
            );
            let t1 = Instant::now();

            // Buffer swap in place of the z_prev snapshot copy: every
            // shard-local variable is rewritten below (interior here,
            // halo replicas at the broadcast).
            shard.store.swap_z();
            for &lv in &shard.interior_vars {
                let lo = lv as usize * d;
                kernels::z_update_var(
                    g,
                    params,
                    &shard.store.m,
                    &mut shard.store.z[lo..lo + d],
                    paradmm_graph::VarId(lv),
                );
            }
            let out = slot(&stage[tid], it);
            for (i, &le) in shard.stage_edges.iter().enumerate() {
                let rho = shard.params.rho[le as usize];
                let lo = le as usize * d;
                for c in 0..d {
                    put(&out[i * d + c], rho * shard.store.m[lo + c]);
                }
            }
            my_mark.store(
                watermark::encode(it, watermark::PHASE_STAGED),
                Ordering::Release,
            );

            // ---- reduce: combined z of OWNED halo vars ----
            if !owned[tid].is_empty() {
                for &s in &reduce_deps[tid] {
                    let w = wait_for(s, watermark::encode(floor_iter, watermark::PHASE_STAGED))?;
                    let v = watermark::staged_iter(w).min(it);
                    ver[s as usize] = v;
                    skew = skew.max((it - v) as usize);
                }
                let out = slot(halo_z, it);
                for &h in &owned[tid] {
                    let task = &reduce[h as usize];
                    acc.fill(0.0);
                    for &(s, i) in &task.contribs {
                        let src = slot(&stage[s as usize], ver[s as usize]);
                        let lo = i as usize * d;
                        for c in 0..d {
                            acc[c] += get(&src[lo + c]);
                        }
                    }
                    let inv = 1.0 / task.rho_sum;
                    let lo = h as usize * d;
                    for c in 0..d {
                        put(&out[lo + c], acc[c] * inv);
                    }
                }
            }
            my_mark.store(
                watermark::encode(it, watermark::PHASE_REDUCED),
                Ordering::Release,
            );

            // ---- broadcast + u/n ----
            for &o in &bcast_deps[tid] {
                let w = wait_for(o, watermark::encode(floor_iter, watermark::PHASE_REDUCED))?;
                let v = watermark::reduced_iter(w).min(it);
                ver[o as usize] = v;
                skew = skew.max((it - v) as usize);
            }
            for &(lv, h) in &shard.halo_in {
                let src = slot(halo_z, ver[owner[h as usize] as usize]);
                let (lo, ho) = (lv as usize * d, h as usize * d);
                for c in 0..d {
                    shard.store.z[lo + c] = get(&src[ho + c]);
                }
            }
            let t3 = Instant::now();
            let st = &mut shard.store;
            kernels::un_update_range_stream(
                &EdgeStream::build(&shard.graph, &shard.params),
                &st.x,
                &st.z,
                &mut st.u,
                &mut st.n,
                0,
                shard.graph.num_edges(),
            );
            if tid == 0 {
                local.add(UpdateKind::X, t1 - t0);
                // Interior z + staging + reduce + waits.
                local.add(UpdateKind::Z, t3 - t1);
                local.add(UpdateKind::U, t3.elapsed());
            }
            my_mark.store(
                watermark::encode(it, watermark::PHASE_DONE),
                Ordering::Release,
            );
        }
        Some((local, skew))
    });
    // A worker returns `None` only after a peer panicked, and
    // `run_workers` re-raises that panic before returning.
    let mut max_skew = 0;
    for (local, skew) in per_worker.into_iter().flatten() {
        t.merge(&local);
        max_skew = max_skew.max(skew);
    }
    max_skew
}

/// The slot holding version `v` of a versioned buffer.
fn slot(buf: &[Box<[AtomicU64]>], v: u64) -> &[AtomicU64] {
    &buf[(v % buf.len() as u64) as usize]
}

/// `n_slots` slots of `len` `f64`s each, zeroed.
fn versioned(n_slots: usize, len: usize) -> Vec<Box<[AtomicU64]>> {
    (0..n_slots)
        .map(|_| (0..len).map(|_| AtomicU64::new(0)).collect())
        .collect()
}

/// Reads an `f64` slot; ordered by the watermark acquire that made its
/// version visible (see the module docs).
#[inline]
fn get(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

/// Writes an `f64` slot; published by the watermark release that
/// follows.
#[inline]
fn put(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use crate::pool::tests::{run_watched, PanicProx};
    use paradmm_graph::{FactorId, GraphBuilder};
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn chain_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(n + 1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
            let t = (i as f64 * 0.23).sin();
            proxes.push(Box::new(QuadraticProx::isotropic(4, 1.0, &[t, -t, t, -t])));
        }
        AdmmProblem::new(b.build(), proxes, 1.2, 0.9)
    }

    fn dense_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(n);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                b.add_factor(&[vs[i], vs[j]]);
                proxes.push(Box::new(QuadraticProx::isotropic(
                    2,
                    1.0,
                    &[i as f64 * 0.1, j as f64 * 0.1],
                )));
            }
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn run(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> VarStore {
        let mut store = VarStore::zeros(problem.graph());
        for (i, v) in store.n.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        for (i, v) in store.z.iter_mut().enumerate() {
            *v = (i as f64 * 0.11).cos();
        }
        store.snapshot_z();
        let mut t = UpdateTimings::new();
        backend.run_block(problem, &mut store, iters, &mut t);
        store
    }

    #[test]
    fn k0_bit_identical_to_serial_on_chain() {
        let problem = chain_problem(23);
        let serial = run(&problem, &mut SerialBackend, 40);
        for parts in [1usize, 2, 3, 4] {
            let mut sb = StaleBoundedBackend::new(parts, 0);
            let got = run(&problem, &mut sb, 40);
            assert_eq!(serial.z, got.z, "parts={parts} z diverged");
            assert_eq!(serial.x, got.x, "parts={parts} x diverged");
            assert_eq!(serial.u, got.u, "parts={parts} u diverged");
            assert_eq!(serial.n, got.n, "parts={parts} n diverged");
            assert_eq!(serial.z_prev, got.z_prev, "parts={parts} z_prev diverged");
            assert_eq!(sb.max_observed_skew(), 0, "k=0 must never read stale");
        }
    }

    #[test]
    fn k0_bit_identical_on_dense_contiguous_partition() {
        let problem = dense_problem(9);
        let serial = run(&problem, &mut SerialBackend, 30);
        for parts in [2usize, 4] {
            let partition = Partition::contiguous(problem.graph(), parts);
            let mut sb = StaleBoundedBackend::with_partition(partition, 0);
            let got = run(&problem, &mut sb, 30);
            assert_eq!(serial.z, got.z, "parts={parts}");
            assert_eq!(serial.u, got.u, "parts={parts}");
        }
    }

    #[test]
    fn stale_k_converges_to_serial_optimum() {
        // k ≥ 1 iterates differ from the synchronous schedule but must
        // land on the same fixed point.
        let problem = chain_problem(16);
        let mut serial = Solverless::new();
        let z_ref = serial.solve(&problem, &mut SerialBackend, 4000);
        for k in [1usize, 4] {
            let mut sb = StaleBoundedBackend::new(3, k);
            let z = Solverless::new().solve(&problem, &mut sb, 4000);
            for (a, b) in z.iter().zip(&z_ref) {
                assert!((a - b).abs() < 1e-6, "k={k}: {a} vs {b}");
            }
            assert!(
                sb.max_observed_skew() <= k,
                "observed skew {} exceeds bound {k}",
                sb.max_observed_skew()
            );
        }
    }

    /// Minimal fixed-iteration driver (avoids pulling Solver in here).
    struct Solverless;
    impl Solverless {
        fn new() -> Self {
            Solverless
        }
        fn solve(
            &mut self,
            problem: &AdmmProblem,
            backend: &mut dyn SweepExecutor,
            iters: usize,
        ) -> Vec<f64> {
            let mut store = VarStore::zeros(problem.graph());
            let mut t = UpdateTimings::new();
            // Blocked like the solver (k_eff = 0 at each block edge).
            let mut done = 0;
            while done < iters {
                let block = 50.min(iters - done);
                backend.run_block(problem, &mut store, block, &mut t);
                done += block;
            }
            store.z.to_vec()
        }
    }

    #[test]
    fn blocks_resume_bit_identically_at_k0() {
        let problem = chain_problem(12);
        let mut sb = StaleBoundedBackend::new(3, 0);
        let mut stale_store = VarStore::zeros(problem.graph());
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        for block in [1usize, 4, 2, 7] {
            sb.run_block(&problem, &mut stale_store, block, &mut t);
            SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            assert_eq!(serial_store.z, stale_store.z, "after block {block}");
            assert_eq!(serial_store.n, stale_store.n, "after block {block}");
        }
    }

    #[test]
    fn more_shards_than_halo_vars_front_loads_reduce() {
        // 4 shards on a short chain: fewer halo variables than workers,
        // so some shards own no halo variable and skip the reduce.
        let problem = chain_problem(8);
        let serial = run(&problem, &mut SerialBackend, 25);
        let mut sb = StaleBoundedBackend::new(4, 0);
        let got = run(&problem, &mut sb, 25);
        let halo = sb.state.as_ref().unwrap().store.plan.halo_var_count();
        assert!(halo < 4, "test needs fewer halo vars than shards");
        assert_eq!(serial.z, got.z);
        assert_eq!(serial.u, got.u);
    }

    #[test]
    fn rebuilds_when_problem_changes() {
        let a = chain_problem(10);
        let b = chain_problem(16);
        let mut sb = StaleBoundedBackend::new(2, 0);
        let got_a = run(&a, &mut sb, 20);
        let serial_a = run(&a, &mut SerialBackend, 20);
        assert_eq!(got_a.z, serial_a.z);
        // Different problem through the same backend: must rebuild, not
        // assert or corrupt.
        let got_b = run(&b, &mut sb, 20);
        let serial_b = run(&b, &mut SerialBackend, 20);
        assert_eq!(got_b.z, serial_b.z);
    }

    #[test]
    fn rebuilds_when_isolated_vars_are_added() {
        // Same factors, edges and params — but one extra degree-0
        // variable, which appears in no edge target. The second problem
        // carries its own key, so the shards are cut again; a stale
        // decomposition would trip scatter's shape assert instead of
        // rebuilding.
        let build = |extra_isolated: bool| {
            let mut b = GraphBuilder::new(2);
            let vs = b.add_vars(4);
            if extra_isolated {
                let _lonely = b.add_var();
            }
            let proxes: Vec<Box<dyn ProxOp>> = (0..3)
                .map(|i| {
                    Box::new(QuadraticProx::isotropic(4, 1.0, &[i as f64; 4])) as Box<dyn ProxOp>
                })
                .collect();
            for i in 0..3 {
                b.add_factor(&[vs[i], vs[i + 1]]);
            }
            AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
        };
        let a = build(false);
        let b = build(true);
        let mut sb = StaleBoundedBackend::new(2, 0);
        let _ = run(&a, &mut sb, 10);
        let got = run(&b, &mut sb, 10);
        let serial = run(&b, &mut SerialBackend, 10);
        assert_eq!(got.z, serial.z);
        assert_eq!(got.z_prev, serial.z_prev, "orphan z_prev snapshot");
    }

    #[test]
    fn decomposes_once_per_problem_key() {
        // Many blocks of one problem reuse one decomposition; operator
        // and plan changes keep it, a parameter change rebuilds it.
        let mut problem = chain_problem(12);
        let mut sb = StaleBoundedBackend::new(3, 1);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        for _ in 0..20 {
            sb.run_block(&problem, &mut store, 3, &mut t);
        }
        assert_eq!(sb.builds, 1);
        let prox = QuadraticProx::isotropic(4, 2.0, &[0.5; 4]);
        problem.set_prox(FactorId(0), Box::new(prox));
        problem.set_plan(crate::plan::SweepPlan::fused(&problem));
        sb.run_block(&problem, &mut store, 3, &mut t);
        assert_eq!(sb.builds, 1);
        problem.params_mut().scale_rho(2.0);
        for _ in 0..5 {
            sb.run_block(&problem, &mut store, 3, &mut t);
        }
        assert_eq!(sb.builds, 2);
    }

    #[test]
    fn rebuilds_when_params_change() {
        let mut a = chain_problem(10);
        let mut sb = StaleBoundedBackend::new(2, 0);
        let before = run(&a, &mut sb, 15);
        a.params_mut().scale_rho(3.0);
        let serial = run(&a, &mut SerialBackend, 15);
        let after = run(&a, &mut sb, 15);
        assert_eq!(after.z, serial.z, "stale rho must not survive a rebuild");
        assert_ne!(before.z, after.z, "rho change must alter iterates");
    }

    #[test]
    fn watermark_encoding_is_monotone_and_extractable() {
        use watermark::*;
        let mut prev = 0u64;
        for it in 1..5u64 {
            for phase in [PHASE_STAGED, PHASE_REDUCED, PHASE_DONE] {
                let w = encode(it, phase);
                assert!(w > prev, "watermark must be strictly monotone");
                prev = w;
                assert_eq!(staged_iter(w), it);
                assert_eq!(
                    reduced_iter(w),
                    if phase >= PHASE_REDUCED { it } else { it - 1 }
                );
                assert_eq!(done_iter(w), if phase >= PHASE_DONE { it } else { it - 1 });
            }
        }
        assert_eq!(staged_iter(0), 0);
        assert_eq!(reduced_iter(0), 0);
        assert_eq!(done_iter(0), 0);
    }

    /// Runs a block of an 8-factor chain whose factor `bad` panics, cut
    /// into two shards of four factors: shard 0 runs on the calling
    /// thread, shard 1 on a spawned worker.
    fn run_failing_chain(bad: usize, staleness: usize) {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(9);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..8 {
            b.add_factor(&[vs[i], vs[i + 1]]);
            proxes.push(if i == bad {
                Box::new(PanicProx)
            } else {
                Box::new(QuadraticProx::isotropic(4, 1.0, &[1.0, -1.0, 1.0, -1.0]))
            });
        }
        let problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let partition = Partition::contiguous(problem.graph(), 2);
        assert_eq!(
            partition.part_of(FactorId::from_usize(bad)),
            (bad / 4) as u32
        );
        run_watched(
            problem,
            StaleBoundedBackend::with_partition(partition, staleness),
        );
    }

    #[test]
    #[should_panic(expected = "operator failed")]
    fn a_panic_on_the_calling_thread_reaches_the_caller_at_k0() {
        run_failing_chain(0, 0);
    }

    #[test]
    #[should_panic(expected = "operator failed")]
    fn a_panic_on_the_calling_thread_reaches_the_caller_at_k1() {
        run_failing_chain(0, 1);
    }

    #[test]
    #[should_panic(expected = "operator failed")]
    fn a_panic_on_a_spawned_worker_reaches_the_caller_at_k0() {
        run_failing_chain(7, 0);
    }

    #[test]
    #[should_panic(expected = "operator failed")]
    fn a_panic_on_a_spawned_worker_reaches_the_caller_at_k1() {
        run_failing_chain(7, 1);
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let problem = chain_problem(5);
        let mut sb = StaleBoundedBackend::new(2, 2);
        let mut store = VarStore::zeros(problem.graph());
        store.z.fill(2.5);
        let before = store.clone();
        let mut t = UpdateTimings::new();
        sb.run_block(&problem, &mut store, 0, &mut t);
        assert_eq!(store.z, before.z);
        assert_eq!(sb.builds, 0, "no build without iterations");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_parts_rejected() {
        let _ = StaleBoundedBackend::new(0, 1);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(StaleBoundedBackend::new(2, 0).name(), "sharded");
        assert_eq!(StaleBoundedBackend::new(2, 1).name(), "async");
        assert_eq!(StaleBoundedBackend::new(2, 4).name(), "async");
    }
}
