//! Sharded execution: one persistent worker per partition part, real
//! halo exchange per iteration.
//!
//! The paper's future-work item 3 ("extend the code to allow the use of
//! multiple GPUs and multiple computers") previously existed only as a
//! pricing model (`paradmm-gpusim`'s `MultiDevice`). [`ShardedBackend`]
//! executes it: a [`Partition`] is decomposed into a
//! [`paradmm_graph::ShardedStore`] — per-shard edge-contiguous local
//! stores with local renumbering — and each shard runs the five sweeps
//! on its own arrays with exactly one cross-shard coupling point: the
//! consensus `z` of *halo* variables (those touched by more than one
//! shard).
//!
//! Per iteration, each worker executes the problem's
//! [`crate::SweepPlan`] with the shard-local twist that only `z` couples
//! shards:
//!
//! 1. runs the factor passes (fused x+m under the default plan, separate
//!    x then m under an unfused one), the `z`/`z_prev` buffer swap
//!    ([`paradmm_graph::VarStore::swap_z`] — no snapshot copy), the
//!    z-update for its *interior* variables, and **stages** `ρ·(x+u)`
//!    messages for its halo-incident edges — all on shard-local arrays;
//! 2. *(barrier)* **reduces** an [`assign_range`]-assigned slice of halo
//!    variables: folds the staged messages in ascending **global** edge
//!    order (replaying the serial z-update's exact floating-point
//!    fold — per-shard partial sums would re-associate it) and divides
//!    by the precomputed `Σρ`;
//! 3. *(barrier)* **broadcasts** the combined `z` back into its local
//!    replicas, then runs the plan's edge passes (fused u+n, or u then
//!    n) locally.
//!
//! Two barriers per iteration instead of the fused plan's three (and the
//! seed barrier backend's five): all sweeps except the halo part of z
//! touch only shard-local data, so pass boundaries inside a phase need
//! no synchronization. Iterates are **bit-identical** to
//! [`SerialBackend`](crate::SerialBackend) for any partition and any
//! legal plan, pinned by `tests/backend_equivalence.rs`.
//!
//! The backend counts the bytes its exchange actually moves
//! ([`ShardedBackend::measured_halo_bytes`]); `paradmm-gpusim`'s
//! `MultiDevice` predicts the same quantity from the same
//! [`paradmm_graph::HaloExchangePlan`], making model-vs-measured drift a
//! testable number (see `ablation_sharded`).

use std::sync::Barrier;
use std::time::Instant;

use paradmm_graph::{EdgeParams, FactorId, Partition, Shard, ShardedStore, VarStore};

use crate::backend::SweepExecutor;
use crate::kernels::{self, assign_range, UpdateKind};
use crate::plan::{PassKind, SweepPlan};
use crate::problem::AdmmProblem;
use crate::timing::UpdateTimings;

/// Raw shared view of the shard array and the combined-z buffer, handed
/// to the per-shard workers.
///
/// # Safety contract
/// Access follows a barrier-separated phase discipline:
///
/// * **local phases** (x/m/interior-z/stage, and broadcast/u/n): worker
///   `i` takes `&mut` to shard `i` only — shards are pairwise disjoint,
///   and nobody reads another worker's shard;
/// * **reduce phase**: no `&mut Shard` exists anywhere (all workers
///   dropped theirs at the preceding barrier); workers take shared `&`
///   views of shards (reading only the staged buffers, written in the
///   previous phase) and disjoint `&mut` ranges of `halo_z` tiled by
///   [`assign_range`];
/// * barriers separate the phases, establishing happens-before edges for
///   all cross-thread visibility (staged writes → reduce reads, reduce
///   writes → broadcast reads).
#[derive(Clone, Copy)]
struct RawShards {
    shards: *mut Shard,
    n_shards: usize,
    halo_z: *mut f64,
    halo_len: usize,
}

unsafe impl Send for RawShards {}
unsafe impl Sync for RawShards {}

impl RawShards {
    /// # Safety
    /// Caller must hold exclusive phase access to shard `i` per the
    /// struct-level contract.
    #[allow(clippy::mut_from_ref)]
    unsafe fn shard_mut(&self, i: usize) -> &mut Shard {
        debug_assert!(i < self.n_shards);
        &mut *self.shards.add(i)
    }

    /// # Safety
    /// Caller must be in a phase where no `&mut` to any shard exists,
    /// per the struct-level contract.
    unsafe fn shard(&self, i: usize) -> &Shard {
        debug_assert!(i < self.n_shards);
        &*self.shards.add(i)
    }

    /// # Safety
    /// `[lo, hi)` must be in-bounds and disjoint from every concurrent
    /// write, per the struct-level contract.
    #[allow(clippy::mut_from_ref)]
    unsafe fn halo_z_range_mut(&self, lo: usize, hi: usize) -> &mut [f64] {
        debug_assert!(lo <= hi && hi <= self.halo_len);
        std::slice::from_raw_parts_mut(self.halo_z.add(lo), hi - lo)
    }

    /// # Safety
    /// No concurrent writes to `halo_z` may exist during this borrow,
    /// per the struct-level contract.
    unsafe fn halo_z_all(&self) -> &[f64] {
        std::slice::from_raw_parts(self.halo_z, self.halo_len)
    }
}

/// Cached decomposition of the last problem this backend executed.
struct ShardedState {
    store: ShardedStore,
    partition: Partition,
    /// Fingerprints for rebuild detection: a same-shaped but differently
    /// wired or weighted problem must not reuse stale shards.
    dims: usize,
    /// Variable count is fingerprinted explicitly — isolated variables
    /// appear in no edge target, so `edge_targets` alone can't see them.
    num_vars: usize,
    edge_targets: Vec<u32>,
    factor_starts: Vec<u32>,
    params: EdgeParams,
}

impl ShardedState {
    fn matches(&self, problem: &AdmmProblem) -> bool {
        let g = problem.graph();
        let p = problem.params();
        self.dims == g.dims()
            && self.num_vars == g.num_vars()
            && self.factor_starts.len() == g.num_factors()
            && self.edge_targets.len() == g.num_edges()
            && self
                .factor_starts
                .iter()
                .enumerate()
                .all(|(a, &s)| g.factor_edge_range(FactorId::from_usize(a)).start == s as usize)
            && self
                .edge_targets
                .iter()
                .enumerate()
                .all(|(e, &v)| g.edge_var(paradmm_graph::EdgeId::from_usize(e)).0 == v)
            && self.params.rho == p.rho
            && self.params.alpha == p.alpha
    }
}

/// Partitioned execution with a real per-iteration halo exchange — the
/// paper's multi-device future-work item run on shard-per-worker threads
/// instead of priced on a model. Bit-identical to
/// [`SerialBackend`](crate::SerialBackend).
pub struct ShardedBackend {
    parts: usize,
    explicit_partition: Option<Partition>,
    state: Option<ShardedState>,
    measured_halo_bytes: u64,
    iterations: usize,
}

impl ShardedBackend {
    /// Backend with `parts` shards, partitioned by
    /// [`Partition::grow`] (BFS region growing) on the first problem it
    /// executes. One worker thread runs per shard.
    ///
    /// # Panics
    /// If `parts == 0`.
    pub fn new(parts: usize) -> Self {
        assert!(parts >= 1, "sharded backend needs at least one shard");
        ShardedBackend {
            parts,
            explicit_partition: None,
            state: None,
            measured_halo_bytes: 0,
            iterations: 0,
        }
    }

    /// Backend over an explicit factor partition (e.g. to compare the
    /// executed exchange against `MultiDevice`'s prediction on the same
    /// split). The partition must cover the problem this backend later
    /// executes.
    ///
    /// # Panics
    /// If the partition has zero parts.
    pub fn with_partition(partition: Partition) -> Self {
        assert!(partition.parts >= 1, "partition needs at least one part");
        ShardedBackend {
            parts: partition.parts,
            explicit_partition: Some(partition),
            state: None,
            measured_halo_bytes: 0,
            iterations: 0,
        }
    }

    /// Number of shards (= worker threads).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The partition in use, once the first block has built the shards.
    pub fn partition(&self) -> Option<&Partition> {
        self.state.as_ref().map(|s| &s.partition)
    }

    /// Exchange bytes one iteration moves, once built — derived from the
    /// same [`paradmm_graph::HaloExchangePlan`] the pricing model reads.
    pub fn halo_bytes_per_iteration(&self) -> Option<usize> {
        self.state
            .as_ref()
            .map(|s| s.store.halo_bytes_per_iteration())
    }

    /// Total bytes the halo exchange has actually moved so far (counted
    /// in the execute loop, not derived from the plan).
    pub fn measured_halo_bytes(&self) -> u64 {
        self.measured_halo_bytes
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    fn ensure_state(&mut self, problem: &AdmmProblem) {
        if self.state.as_ref().is_some_and(|s| s.matches(problem)) {
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
        let store = ShardedStore::new(g, problem.params(), &partition);
        self.state = Some(ShardedState {
            store,
            partition,
            dims: g.dims(),
            num_vars: g.num_vars(),
            edge_targets: g.edges().map(|e| g.edge_var(e).0).collect(),
            factor_starts: g
                .factors()
                .map(|a| g.factor_edge_range(a).start as u32)
                .collect(),
            params: problem.params().clone(),
        });
    }
}

impl SweepExecutor for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
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
        state.store.scatter(store);
        let bytes = run_sharded(problem, &mut state.store, iters, t);
        state.store.gather(store);
        self.measured_halo_bytes += bytes;
        self.iterations += iters;
    }

    fn repartition(&mut self, problem: &AdmmProblem, costs: &crate::timing::SweepCosts) -> bool {
        if self.parts <= 1 {
            return false;
        }
        let g = problem.graph();
        if costs.factor_seconds.len() != g.num_factors() {
            return false;
        }
        // Same per-factor weight the planner's cost-balanced x+m split
        // uses: measured prox seconds + the factor's streaming m share.
        let weights: Vec<f64> = g
            .factors()
            .map(|a| costs.factor_seconds[a.idx()] + g.factor_degree(a) as f64 * costs.m_per_edge)
            .collect();
        let fresh = Partition::grow_weighted(g, self.parts, &weights);
        let changed = match (&self.explicit_partition, &self.state) {
            (Some(p), _) => p.assignment != fresh.assignment,
            (None, Some(s)) => s.partition.assignment != fresh.assignment,
            (None, None) => true,
        };
        if changed {
            self.explicit_partition = Some(fresh);
            self.state = None; // rebuild on the next block
        }
        changed
    }
}

/// Runs `iters` sharded iterations; returns the bytes the halo exchange
/// moved (counted per staged message and per broadcast replica).
fn run_sharded(
    problem: &AdmmProblem,
    sharded: &mut ShardedStore,
    iters: usize,
    t: &mut UpdateTimings,
) -> u64 {
    // The plan's fusion choices apply to the shard-local passes; the
    // phase structure (2 barriers around the halo reduce) is this
    // backend's own.
    let plan = SweepPlan::resolve(problem);
    let xm_fused = plan.passes().iter().any(|p| p.kind() == PassKind::Xm);
    let un_fused = plan.passes().iter().any(|p| p.kind() == PassKind::Un);
    let parts = sharded.parts();
    let (shards, halo_z, reduce) = sharded.exec_parts_mut();
    let n_halo = reduce.len();
    let raw = RawShards {
        shards: shards.as_mut_ptr(),
        n_shards: shards.len(),
        halo_z: halo_z.as_mut_ptr(),
        halo_len: halo_z.len(),
    };
    let barrier = Barrier::new(parts);
    let mut collected = UpdateTimings::new();
    let mut total_bytes = 0u64;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..parts {
            let barrier = &barrier;
            let reduce = &*reduce;
            handles.push(scope.spawn(move || {
                let mut local = UpdateTimings::new();
                let mut bytes = 0u64;
                // Halo reduction is tiled by the same front-loaded
                // balanced-split helper the barrier backend's static
                // partition uses (see kernels::assign_range).
                let (h_lo, h_hi) = assign_range(n_halo, tid, parts);
                for _ in 0..iters {
                    // Phase 1 — shard-local x, m, snapshot, interior z,
                    // and halo staging. SAFETY: worker `tid` exclusively
                    // borrows shard `tid`; no cross-shard access.
                    let t0 = Instant::now();
                    let (t1, t2) = {
                        let shard = unsafe { raw.shard_mut(tid) };
                        let g = &shard.graph;
                        let params = &shard.params;
                        let d = g.dims();

                        // Shard-local x (+m) through the shared block
                        // kernel, the prox fetched via the global id.
                        let nf = g.num_factors();
                        let prox_of = |lf: usize| problem.prox(shard.factor_global[lf]);
                        let st = &mut shard.store;
                        let (t1, t2) = if xm_fused {
                            kernels::xm_update_block(
                                g, prox_of, params, &st.n, &st.u, &mut st.x, &mut st.m, 0, nf,
                            );
                            let t1 = Instant::now();
                            (t1, t1)
                        } else {
                            kernels::x_update_block(g, prox_of, params, &st.n, &mut st.x, 0, nf);
                            let t1 = Instant::now();
                            let flat = st.x.len();
                            kernels::m_update_range(&st.x, &st.u, &mut st.m, 0, flat);
                            (t1, Instant::now())
                        };

                        // Buffer swap in place of the z_prev snapshot
                        // copy: every shard-local variable is rewritten
                        // below (interior here, halo replicas at the
                        // broadcast), so no stale value survives.
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
                        // Stage ρ·m for halo-incident edges — the gather
                        // half of the exchange.
                        for (slot, &le) in shard.stage_edges.iter().enumerate() {
                            let rho = shard.params.rho[le as usize];
                            let lo = le as usize * d;
                            for c in 0..d {
                                shard.stage[slot * d + c] = rho * shard.store.m[lo + c];
                            }
                        }
                        bytes += 8 * shard.stage.len() as u64;
                        (t1, t2)
                    }; // &mut Shard dropped before the barrier
                    barrier.wait();

                    // Phase 2 — reduce this worker's halo slice. SAFETY:
                    // no &mut Shard exists (all dropped at the barrier);
                    // staged buffers are read-only this phase, and the
                    // assign_range tiles of halo_z are pairwise disjoint.
                    {
                        let d = problem.graph().dims();
                        for h in h_lo..h_hi {
                            let task = &reduce[h];
                            let zb = unsafe { raw.halo_z_range_mut(h * d, (h + 1) * d) };
                            zb.fill(0.0);
                            for &(s, slot) in &task.contribs {
                                let stage = unsafe { &raw.shard(s as usize).stage };
                                let lo = slot as usize * d;
                                for c in 0..d {
                                    zb[c] += stage[lo + c];
                                }
                            }
                            let inv = 1.0 / task.rho_sum;
                            for v in zb.iter_mut() {
                                *v *= inv;
                            }
                        }
                    }
                    barrier.wait();

                    // Phase 3 — broadcast combined z into local replicas,
                    // then the fused u+n sweep. SAFETY: worker `tid`
                    // mut-borrows only shard `tid`; halo_z is read-only
                    // this phase (reduce writes finished at the barrier).
                    {
                        let shard = unsafe { raw.shard_mut(tid) };
                        let g = &shard.graph;
                        let d = g.dims();
                        let halo_all = unsafe { raw.halo_z_all() };
                        for &(lv, h) in &shard.halo_in {
                            let lo = lv as usize * d;
                            let ho = h as usize * d;
                            shard.store.z[lo..lo + d].copy_from_slice(&halo_all[ho..ho + d]);
                        }
                        bytes += 8 * (shard.halo_in.len() * d) as u64;
                        let t3 = Instant::now();
                        // t4 marks the end of the u work: the whole fused
                        // u+n pass, or just the u sweep when unfused.
                        let t4 = if un_fused {
                            kernels::un_update_range(
                                g,
                                &shard.params,
                                &shard.store.x,
                                &shard.store.z,
                                &mut shard.store.u,
                                &mut shard.store.n,
                                0,
                                g.num_edges(),
                            );
                            Instant::now()
                        } else {
                            kernels::u_update_range(
                                g,
                                &shard.params,
                                &shard.store.x,
                                &shard.store.z,
                                &mut shard.store.u,
                                0,
                                g.num_edges(),
                            );
                            let t4 = Instant::now();
                            kernels::n_update_range(
                                g,
                                &shard.store.z,
                                &shard.store.u,
                                &mut shard.store.n,
                                0,
                                g.num_edges(),
                            );
                            t4
                        };
                        if tid == 0 {
                            local.add(UpdateKind::X, t1 - t0);
                            local.add(UpdateKind::M, t2 - t1);
                            // Interior z + stage + exchange, inseparable.
                            local.add(UpdateKind::Z, t3 - t2);
                            // Fused u+n goes under U like every fused
                            // pass; an unfused plan splits U and N.
                            local.add(UpdateKind::U, t4 - t3);
                            if !un_fused {
                                local.add(UpdateKind::N, t4.elapsed());
                            }
                        }
                    }
                }
                (local, bytes)
            }));
        }
        for h in handles {
            let (local, bytes) = h.join().expect("sharded worker panicked");
            collected.merge(&local);
            total_bytes += bytes;
        }
    });
    collected.iterations = 0; // accounted centrally by run_block
    t.merge(&collected);
    total_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    /// Chain of `n` pairwise quadratic factors — splits with a tiny halo.
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

    /// All-pairs problem — every variable is halo under any real split.
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
    fn bit_identical_to_serial_on_chain() {
        let problem = chain_problem(23);
        let serial = run(&problem, &mut SerialBackend, 40);
        for parts in [1usize, 2, 3, 4] {
            let mut sb = ShardedBackend::new(parts);
            let got = run(&problem, &mut sb, 40);
            assert_eq!(serial.z, got.z, "parts={parts} z diverged");
            assert_eq!(serial.x, got.x, "parts={parts} x diverged");
            assert_eq!(serial.u, got.u, "parts={parts} u diverged");
            assert_eq!(serial.n, got.n, "parts={parts} n diverged");
            assert_eq!(serial.z_prev, got.z_prev, "parts={parts} z_prev diverged");
        }
    }

    #[test]
    fn bit_identical_on_dense_graph_with_contiguous_partition() {
        // Contiguous splits interleave a variable's edges across shards —
        // the ordered reduce must still replay the serial fold exactly.
        let problem = dense_problem(9);
        let serial = run(&problem, &mut SerialBackend, 30);
        for parts in [2usize, 4] {
            let partition = Partition::contiguous(problem.graph(), parts);
            let mut sb = ShardedBackend::with_partition(partition);
            let got = run(&problem, &mut sb, 30);
            assert_eq!(serial.z, got.z, "parts={parts}");
            assert_eq!(serial.u, got.u, "parts={parts}");
        }
    }

    #[test]
    fn more_shards_than_halo_vars_front_loads_reduce() {
        // 4 shards on a short chain: fewer halo variables than workers,
        // so assign_range hands trailing workers empty reduce ranges —
        // the same front-loaded-split regression PR 2 pinned for the
        // barrier backend, now covering the sharded call site.
        let problem = chain_problem(8);
        let serial = run(&problem, &mut SerialBackend, 25);
        let mut sb = ShardedBackend::new(4);
        let got = run(&problem, &mut sb, 25);
        let halo = sb
            .partition()
            .map(|p| p.halo_vars(problem.graph()).len())
            .unwrap();
        assert!(halo < 4, "test needs fewer halo vars than shards");
        assert_eq!(serial.z, got.z);
        assert_eq!(serial.u, got.u);
    }

    #[test]
    fn measured_bytes_match_plan() {
        let problem = chain_problem(40);
        let mut sb = ShardedBackend::new(4);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        sb.run_block(&problem, &mut store, 17, &mut t);
        let per_iter = sb.halo_bytes_per_iteration().unwrap();
        assert!(per_iter > 0, "a 4-way chain split has a halo");
        assert_eq!(sb.measured_halo_bytes(), 17 * per_iter as u64);
        assert_eq!(sb.iterations(), 17);
    }

    #[test]
    fn single_shard_moves_no_bytes() {
        let problem = chain_problem(10);
        let mut sb = ShardedBackend::new(1);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        sb.run_block(&problem, &mut store, 5, &mut t);
        assert_eq!(sb.measured_halo_bytes(), 0);
        assert_eq!(sb.halo_bytes_per_iteration(), Some(0));
    }

    #[test]
    fn rebuilds_when_problem_changes() {
        let a = chain_problem(10);
        let b = chain_problem(16);
        let mut sb = ShardedBackend::new(2);
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
        // variable. Isolated variables appear in no edge target, so the
        // fingerprint must check the variable count explicitly; a stale
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
        let mut sb = ShardedBackend::new(2);
        let _ = run(&a, &mut sb, 10);
        let got = run(&b, &mut sb, 10);
        let serial = run(&b, &mut SerialBackend, 10);
        assert_eq!(got.z, serial.z);
        assert_eq!(got.z_prev, serial.z_prev, "orphan z_prev snapshot");
    }

    #[test]
    fn rebuilds_when_params_change() {
        let mut a = chain_problem(10);
        let mut sb = ShardedBackend::new(2);
        let before = run(&a, &mut sb, 15);
        a.params_mut().scale_rho(3.0);
        let serial = run(&a, &mut SerialBackend, 15);
        let after = run(&a, &mut sb, 15);
        assert_eq!(after.z, serial.z, "stale rho must not survive a rebuild");
        assert_ne!(before.z, after.z, "rho change must alter iterates");
    }

    #[test]
    fn blocks_resume_bit_identically() {
        // Scatter/gather at block boundaries must be lossless: many small
        // blocks equal one big serial run.
        let problem = chain_problem(12);
        let mut sb = ShardedBackend::new(3);
        let mut sharded_store = VarStore::zeros(problem.graph());
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        for block in [1usize, 4, 2, 7] {
            sb.run_block(&problem, &mut sharded_store, block, &mut t);
            SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            assert_eq!(serial_store.z, sharded_store.z, "after block {block}");
            assert_eq!(serial_store.n, sharded_store.n, "after block {block}");
        }
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let problem = chain_problem(5);
        let mut sb = ShardedBackend::new(2);
        let mut store = VarStore::zeros(problem.graph());
        store.z.fill(2.5);
        let before = store.clone();
        let mut t = UpdateTimings::new();
        sb.run_block(&problem, &mut store, 0, &mut t);
        assert_eq!(store.z, before.z);
        assert!(sb.partition().is_none(), "no build without iterations");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_parts_rejected() {
        let _ = ShardedBackend::new(0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(ShardedBackend::new(2).name(), "sharded");
    }
}
