//! The execution-backend abstraction: one trait, many ways to run one
//! compiled [`SweepPlan`].
//!
//! Every strategy for executing an ADMM iteration — serial loops, rayon
//! data-parallel loops, persistent barrier-synchronized workers,
//! partition-local shard workers with a halo exchange
//! ([`crate::StaleBoundedBackend`]), chunk-claiming fleet workers
//! ([`crate::FleetBackend`]) and probe-and-lock auto selection —
//! implements
//! [`SweepExecutor`]. The [`crate::Solver`] drives whichever backend it
//! is given through the same convergence loop, so a new backend is a
//! drop-in `impl`, not another enum arm.
//!
//! Every backend runs the same three-pass schedule, `x+m | z | u+n`
//! (see [`SweepPlan`]), one synchronization point per pass, on the
//! kernels of [`crate::kernels`]. The barrier and fleet workers share
//! one unsafe pass dispatcher (`SweepArrays::run_pass`), so each fusion
//! exists exactly once.
//!
//! The synchronous backends (serial, rayon, barrier, fleet, the halo
//! executor at `k = 0`, and auto, which locks in one of them) are *bit-identical* to each other by construction (the
//! z-average is deterministic per variable regardless of scheduling);
//! the halo executor at `k ≥ 1` (the `async` spec) is not, and converges
//! instead — see [`StaleBoundedBackend`].

use std::sync::Barrier;
use std::time::Instant;

use rayon::prelude::*;

use paradmm_graph::{EdgeStream, VarStore};

use crate::kernels;
use crate::plan::{Pass, PassKind, SweepPlan};
use crate::problem::AdmmProblem;
use crate::stale::StaleBoundedBackend;
use crate::timing::UpdateTimings;

/// A way to execute blocks of ADMM iterations (the five x/m/z/u/n sweeps)
/// and report how long each update kind took.
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
    /// `"rayon"`).
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

/// Minimum scalars per rayon work item for the cheap element-wise sweeps;
/// keeps task overhead negligible on large graphs.
const MIN_CHUNK: usize = 1024;

/// Optimized single-core loops — the paper's serial C baseline and the
/// denominator of every speedup it reports. Executes the problem's
/// [`SweepPlan`] pass by pass: one combined x+m traversal, a z pass on
/// swapped buffers (no `z_prev` copy), and one fused u+n traversal.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialBackend;

/// Builds the dense per-edge parameter stream the u+n kernel consumes.
/// Executors call this once per block — params may change between
/// blocks, so the snapshot stays valid for the whole block.
fn block_stream(problem: &AdmmProblem) -> EdgeStream {
    EdgeStream::build(problem.graph(), problem.params())
}

/// Runs one pass of a plan serially over its full index range. The Z
/// pass swaps the `z`/`z_prev` buffers in place of a snapshot copy
/// (identical values — see [`kernels::z_update_swapped_range`]).
fn run_pass_serial(problem: &AdmmProblem, store: &mut VarStore, pass: &Pass, stream: &EdgeStream) {
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
            stream,
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
        let stream = block_stream(problem);
        for _ in 0..iters {
            for pass in plan.passes() {
                let t0 = Instant::now();
                run_pass_serial(problem, store, pass, &stream);
                t.add(pass.kind().timing_kind(), t0.elapsed());
            }
        }
    }
}

/// One data-parallel loop per pass on the rayon pool — the paper's
/// OpenMP approach #1, one `#pragma omp parallel for` ≙ one parallel
/// iterator.
pub struct RayonBackend {
    pool: Option<rayon::ThreadPool>,
}

impl RayonBackend {
    /// Backend on a dedicated pool of `threads` workers; `None` uses the
    /// global pool.
    pub fn new(threads: Option<usize>) -> Self {
        let pool = threads.map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("failed to build rayon pool")
        });
        RayonBackend { pool }
    }
}

impl SweepExecutor for RayonBackend {
    fn name(&self) -> &'static str {
        "rayon"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        match &self.pool {
            Some(p) => p.install(|| run_rayon(problem, store, iters, t)),
            None => run_rayon(problem, store, iters, t),
        }
    }
}

fn run_rayon(problem: &AdmmProblem, store: &mut VarStore, iters: usize, t: &mut UpdateTimings) {
    let plan = SweepPlan::resolve(problem);
    let stream = block_stream(problem);
    for _ in 0..iters {
        for pass in plan.passes() {
            let t0 = Instant::now();
            run_pass_rayon(problem, store, pass, &stream);
            t.add(pass.kind().timing_kind(), t0.elapsed());
        }
    }
}

/// Factors per rayon work item of the x+m pass: a whole number of
/// [`kernels::PROX_TILE`]s, about [`MIN_CHUNK`] scalars at the paper
/// families' 2–12 scalars per factor.
const FACTOR_GRAIN: usize = 4 * kernels::PROX_TILE;

/// Cuts the factors into grains of [`FACTOR_GRAIN`] and `data` (a full
/// edge-ordered array) into the contiguous block each grain owns:
/// `(a_lo, a_hi, block)` per grain, in factor order.
fn factor_grains<'a>(
    g: &paradmm_graph::FactorGraph,
    mut data: &'a mut [f64],
) -> Vec<(usize, usize, &'a mut [f64])> {
    let nf = g.num_factors();
    let mut grains = Vec::with_capacity(nf.div_ceil(FACTOR_GRAIN));
    for a_lo in (0..nf).step_by(FACTOR_GRAIN) {
        let a_hi = (a_lo + FACTOR_GRAIN).min(nf);
        let (block, rest) = data.split_at_mut(kernels::factor_flat_range(g, a_lo, a_hi).len());
        grains.push((a_lo, a_hi, block));
        data = rest;
    }
    grains
}

/// Runs one pass of a plan as rayon data-parallel loops (one
/// `par_iter` ≙ one `#pragma omp parallel for` of the paper's approach
/// #1). Granularity comes from [`MIN_CHUNK`] and [`FACTOR_GRAIN`], not
/// the pass's dynamic chunk size — rayon's join splitting already
/// rebalances. Every sweep hands each parallel chunk to the
/// block-relative range kernels, so chunk shape only affects task
/// boundaries, never any per-element operation order.
fn run_pass_rayon(problem: &AdmmProblem, store: &mut VarStore, pass: &Pass, stream: &EdgeStream) {
    let g = problem.graph();
    let params = problem.params();
    let prox_of = |a: usize| &*problem.proxes()[a];
    let d = g.dims();
    let var_chunk = (MIN_CHUNK / d.max(1)).max(1) * d;

    match pass.kind() {
        // Fused x+m: one task per grain of factors, each handed to the
        // block kernel with the contiguous x and m blocks it owns.
        PassKind::Xm => {
            let (n, u) = (&store.n, &store.u);
            factor_grains(g, &mut store.x)
                .into_par_iter()
                .zip(factor_grains(g, &mut store.m).into_par_iter())
                .for_each(|((a_lo, a_hi, xb), (_, _, mb))| {
                    kernels::xm_update_block(g, prox_of, params, n, u, xb, mb, a_lo, a_hi);
                });
        }
        // z-update on swapped buffers: variable-aligned chunks, no z_prev
        // copy (degree-0 variables carry forward from z_prev).
        PassKind::Z => {
            store.swap_z();
            let m = &store.m;
            let z_old = &store.z_prev;
            store
                .z
                .par_chunks_mut(var_chunk)
                .enumerate()
                .for_each(|(i, zc)| {
                    let b_lo = i * var_chunk / d;
                    kernels::z_update_swapped_block(
                        g,
                        params,
                        m,
                        z_old,
                        zc,
                        b_lo,
                        b_lo + zc.len() / d,
                    );
                });
        }
        // Fused u+n: edge-aligned chunks writing both u and n blocks.
        PassKind::Un => {
            let x = &store.x;
            let z = &store.z;
            store
                .u
                .par_chunks_mut(var_chunk)
                .zip(store.n.par_chunks_mut(var_chunk))
                .enumerate()
                .for_each(|(i, (uc, nc))| {
                    let e_lo = i * var_chunk / d;
                    let e_hi = e_lo + uc.len() / d;
                    kernels::un_update_range_stream(stream, x, z, uc, nc, e_lo, e_hi);
                });
        }
    }
}

/// Persistent threads + barrier per pass — the paper's OpenMP approach
/// #2. The paper found it slower than approach #1; here its static
/// split, which keeps each worker's range in that worker's cache, was
/// the fastest executor on the packing and SVM families on a 2-vCPU
/// guest (see the README's executor table).
#[derive(Debug, Clone, Copy)]
pub struct BarrierBackend {
    threads: usize,
}

impl BarrierBackend {
    /// Backend with `threads` persistent workers (static index partition
    /// per worker, one barrier between update kinds).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "barrier backend needs at least one thread");
        BarrierBackend { threads }
    }
}

impl SweepExecutor for BarrierBackend {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        run_barrier(problem, store, iters, self.threads, t);
    }
}

/// Raw shared view of an `f64` array, handed to barrier and fleet
/// workers.
///
/// # Safety contract
/// Each pass writes a set of per-worker ranges that are pairwise disjoint
/// (static [`Pass::split`] partitions for the barrier backend; unique
/// atomically-claimed chunks for the fleet workers),
/// and never reads data that another worker writes in the same pass
/// (verified against Algorithm 2's data flow per [`PassKind`]: the X+M
/// pass reads n,u/writes x,m, and each factor's m reads only `u` — not
/// written that pass — and the factor's own x, written by the same
/// worker in the same call; Z reads m and the previous-iterate z buffer
/// / writes the other z buffer; the U+N pass reads x,z/writes u,n, and
/// each `n_e` reads only `z` — not written that pass — and the same
/// edge's `u_e`, written by the same worker within the same chunk).
/// Barriers (or the fleet's watermarks) separate passes, establishing
/// happens-before edges for all cross-thread visibility.
#[derive(Clone, Copy)]
struct RawArray {
    ptr: *mut f64,
    len: usize,
}

unsafe impl Send for RawArray {}
unsafe impl Sync for RawArray {}

impl RawArray {
    fn new(data: &mut [f64]) -> Self {
        RawArray {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// # Safety
    /// Caller must guarantee `[lo, hi)` is in-bounds and not aliased by any
    /// concurrent write, per the struct-level contract.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [f64] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// # Safety
    /// Caller must guarantee no concurrent writes to the array during this
    /// borrow, per the struct-level contract.
    unsafe fn whole(&self) -> &[f64] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// The shared state a persistent-worker backend hands every worker: raw
/// views of all six ADMM arrays plus the problem context, with one method
/// per pass kind executing an element *range*. The barrier backend
/// calls these with its static per-thread splits, the fleet workers
/// with atomically claimed chunks — the unsafe bodies (and
/// their aliasing reasoning, see [`RawArray`]) exist exactly once, and
/// every fusion they dispatch to lives in [`crate::kernels`].
///
/// The two z buffers are held as a parity-indexed pair: workers cannot
/// swap the `Vec`s mid-block (raw pointers are captured once), so the Z
/// pass of iteration `k` writes buffer `(k+1) & 1` while buffer `k & 1`
/// becomes `z_prev` — the same double-buffer rotation
/// [`paradmm_graph::VarStore::swap_z`] performs, expressed as pointer
/// parity. The block driver normalizes the `Vec`s afterwards when the
/// iteration count is odd.
pub(crate) struct SweepArrays<'a> {
    problem: &'a AdmmProblem,
    g: &'a paradmm_graph::FactorGraph,
    params: &'a paradmm_graph::EdgeParams,
    d: usize,
    x: RawArray,
    m: RawArray,
    u: RawArray,
    n: RawArray,
    /// `[0]` views `store.z`, `[1]` views `store.z_prev`; which one holds
    /// the current iterate alternates per iteration (see struct docs).
    z_bufs: [RawArray; 2],
    /// Dense per-edge parameter snapshot for the u+n body, captured once
    /// per block like the raw pointers.
    stream: EdgeStream,
}

impl<'a> SweepArrays<'a> {
    pub(crate) fn new(problem: &'a AdmmProblem, store: &mut VarStore) -> Self {
        let g = problem.graph();
        SweepArrays {
            problem,
            g,
            params: problem.params(),
            d: g.dims(),
            x: RawArray::new(&mut store.x),
            m: RawArray::new(&mut store.m),
            u: RawArray::new(&mut store.u),
            n: RawArray::new(&mut store.n),
            z_bufs: [
                RawArray::new(&mut store.z),
                RawArray::new(&mut store.z_prev),
            ],
            stream: block_stream(problem),
        }
    }

    /// Runs one pass's `[lo, hi)` item range at iteration `iter` (0-based
    /// within the block; it selects the z buffer parity).
    ///
    /// # Safety
    /// The per-phase obligations below apply to the dispatched kind; all
    /// callers must additionally guarantee disjoint item ranges within a
    /// phase, exactly-once coverage, and barrier separation between
    /// passes (see [`RawArray`]).
    pub(crate) unsafe fn run_pass(&self, pass: &Pass, iter: usize, lo: usize, hi: usize) {
        let z_old = iter & 1;
        let z_new = z_old ^ 1;
        match pass.kind() {
            PassKind::Xm => self.xm_phase(lo, hi),
            PassKind::Z => self.z_phase_swapped(lo, hi, z_old, z_new),
            PassKind::Un => self.un_phase(lo, hi, z_new),
        }
    }

    /// Fused x+m pass over factors `[f_lo, f_hi)` (their edge blocks are
    /// contiguous because factor edge ranges are contiguous and ordered):
    /// their proximal operators followed by `m = x + u` for their own
    /// edges (see [`kernels::xm_update_block`] for the bit-identity
    /// argument).
    ///
    /// # Safety
    /// Writes x and m for exactly these factors' edges; reads n and u,
    /// written by neither constituent sweep, plus the factor's own
    /// freshly written x (same worker, same call). No other worker may
    /// execute an overlapping factor range in the same phase, and a
    /// barrier must separate this phase from any phase writing n or u or
    /// reading x or m.
    unsafe fn xm_phase(&self, f_lo: usize, f_hi: usize) {
        let flat = kernels::factor_flat_range(self.g, f_lo, f_hi);
        let x_block = self.x.range_mut(flat.start, flat.end);
        let m_block = self.m.range_mut(flat.start, flat.end);
        let prox_of = |a: usize| &*self.problem.proxes()[a];
        let (n_all, u_all) = (self.n.whole(), self.u.whole());
        kernels::xm_update_block(
            self.g,
            prox_of,
            self.params,
            n_all,
            u_all,
            x_block,
            m_block,
            f_lo,
            f_hi,
        );
    }

    /// Z pass on swapped buffers over variables `[v_lo, v_hi)`: the
    /// fresh average is written into buffer `z_new` while buffer `z_old`
    /// (the previous iterate) plays `z_prev` — no snapshot copy.
    /// Degree-0 variables are copied forward from `z_old`.
    ///
    /// # Safety
    /// Writes buffer `z_new` for exactly these variables; reads m and
    /// buffer `z_old`, neither written this phase (`z_new ≠ z_old` is the
    /// caller's parity invariant; `z_old` was last written two phases —
    /// two barriers — ago). Same disjointness and barrier-separation
    /// obligations as [`SweepArrays::xm_phase`].
    unsafe fn z_phase_swapped(&self, v_lo: usize, v_hi: usize, z_old: usize, z_new: usize) {
        debug_assert_ne!(z_old, z_new);
        let d = self.d;
        let z_block = self.z_bufs[z_new].range_mut(v_lo * d, v_hi * d);
        let z_old_all = self.z_bufs[z_old].whole();
        let m_all = self.m.whole();
        kernels::z_update_swapped_block(self.g, self.params, m_all, z_old_all, z_block, v_lo, v_hi);
    }

    /// Fused u+n pass over edges `[e_lo, e_hi)`, reading z from buffer
    /// `zi` (the one the Z pass of this iteration wrote) — see
    /// [`kernels::un_update_range_stream`] for why fusion is
    /// bit-identical.
    ///
    /// # Safety
    /// Writes u and n for exactly these edges; reads x, z buffer `zi`,
    /// and each edge's own freshly written u (same worker, same call) —
    /// see [`RawArray`]'s contract on the fused phase. Same obligations
    /// as [`SweepArrays::xm_phase`].
    unsafe fn un_phase(&self, e_lo: usize, e_hi: usize, zi: usize) {
        let d = self.d;
        let u_block = self.u.range_mut(e_lo * d, e_hi * d);
        let n_block = self.n.range_mut(e_lo * d, e_hi * d);
        let x_all = self.x.whole();
        let z_all = self.z_bufs[zi].whole();
        kernels::un_update_range_stream(&self.stream, x_all, z_all, u_block, n_block, e_lo, e_hi);
    }
}

fn run_barrier(
    problem: &AdmmProblem,
    store: &mut VarStore,
    iters: usize,
    threads: usize,
    t: &mut UpdateTimings,
) {
    assert!(threads >= 1, "barrier backend needs at least one thread");
    let plan = SweepPlan::resolve(problem);
    let plan = plan.as_ref();

    let arrays = SweepArrays::new(problem, store);
    let barrier = Barrier::new(threads);
    let mut collected = UpdateTimings::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let barrier = &barrier;
            let arrays = &arrays;
            handles.push(scope.spawn(move || {
                let mut local = UpdateTimings::new();
                // Static partitions, fixed for the whole run (the paper's
                // AssignThreads, cost-weighted when the plan carries a
                // measured profile). SAFETY (all passes): Pass::split
                // tiles each pass into pairwise-disjoint per-thread
                // ranges, every worker derives the same z-buffer parity
                // from the shared iteration counter, and a barrier
                // separates consecutive passes — exactly the obligations
                // the SweepArrays pass methods state.
                let splits: Vec<(usize, usize)> = plan
                    .passes()
                    .iter()
                    .map(|p| p.split(tid, threads))
                    .collect();
                for k in 0..iters {
                    for (pass, &(lo, hi)) in plan.passes().iter().zip(&splits) {
                        let t0 = Instant::now();
                        unsafe { arrays.run_pass(pass, k, lo, hi) };
                        barrier.wait();
                        if tid == 0 {
                            local.add(pass.kind().timing_kind(), t0.elapsed());
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            let local = h.join().expect("barrier worker panicked");
            collected.merge(&local);
        }
    });
    // An odd iteration count leaves the final iterate in the z_prev Vec
    // (the parity rotation's other buffer); one O(1) swap restores the
    // z = current / z_prev = previous naming.
    if iters % 2 == 1 {
        store.swap_z();
    }
    collected.iterations = 0; // accounted centrally by run_block
    t.merge(&collected);
}

/// Self-tuning backend: probes every candidate on a short warmup of the
/// *actual* problem, locks in the fastest, and runs it from then on —
/// the paper's "automatic per-operator tuning" future-work item made
/// concrete for backend selection.
///
/// The first [`SweepExecutor::run_block`] call triggers the probe: each
/// candidate runs a few iterations on a **clone** of the state (so
/// probing never perturbs the caller's iterates) through the standard
/// [`UpdateTimings`]-accounted block path, ranked by **wall-clock**
/// seconds per iteration — the cost the caller will actually pay on
/// subsequent blocks. The fastest candidate wins and owns all subsequent
/// blocks; the choice is permanent for the backend's lifetime.
///
/// The candidates are the five synchronous CPU backends — Serial, Rayon,
/// Barrier, the halo executor at `k = 0` (shard workers synchronized by
/// watermark waits, labelled `sharded`), and Fleet (whose
/// single-instance degenerate form is a barrier-free chunk-claiming
/// executor, and which the `worksteal` spec also names) — all
/// bit-identical by construction, so whichever one wins, the iterates
/// match [`SerialBackend`] exactly.
pub struct AutoBackend {
    candidates: Vec<Box<dyn SweepExecutor>>,
    chosen: Option<Box<dyn SweepExecutor>>,
}

/// Iterations each candidate runs during the probe.
const PROBE_ITERS: usize = 6;

impl AutoBackend {
    /// Auto-selection over the five synchronous CPU backends, each
    /// configured for `threads` workers (the halo executor runs one
    /// shard per worker at `k = 0`, its bit-identical configuration).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        AutoBackend {
            candidates: vec![
                Box::new(SerialBackend),
                Box::new(RayonBackend::new(Some(threads))),
                Box::new(BarrierBackend::new(threads)),
                Box::new(StaleBoundedBackend::new(threads, 0)),
                Box::new(crate::fleet::FleetBackend::new(threads)),
            ],
            chosen: None,
        }
    }

    /// Name of the backend the probe locked in, or `None` before the
    /// first block runs.
    pub fn selected(&self) -> Option<&'static str> {
        self.chosen.as_ref().map(|b| b.name())
    }

    fn probe(&mut self, problem: &AdmmProblem, store: &VarStore) {
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in self.candidates.iter_mut().enumerate() {
            // Probe on a clone: candidate iterations must not advance the
            // real state.
            let mut scratch = store.clone();
            let mut timings = UpdateTimings::new();
            let wall = Instant::now();
            cand.run_block(problem, &mut scratch, PROBE_ITERS, &mut timings);
            let s_per_iter = wall.elapsed().as_secs_f64() / PROBE_ITERS as f64;
            if best.is_none_or(|(_, b)| s_per_iter < b) {
                best = Some((i, s_per_iter));
            }
        }
        let (i, _) = best.expect("AutoBackend::new always probes five candidates");
        self.chosen = Some(self.candidates.swap_remove(i));
        self.candidates.clear(); // losing candidates release their pools
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
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        if self.chosen.is_none() {
            self.probe(problem, store);
        }
        self.chosen
            .as_mut()
            .expect("probe always locks in a backend")
            .execute(problem, store, iters, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // deterministic per variable regardless of scheduling).
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut RayonBackend::new(None), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn rayon_with_explicit_threads() {
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut RayonBackend::new(Some(2)), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_matches_serial_exactly() {
        for threads in [1, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let b = solve_with(&mut BarrierBackend::new(threads), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn barrier_more_threads_than_work() {
        // 3 factors, 1 variable, 3 edges but 8 threads: empty partitions
        // must be handled.
        let problem = consensus_problem(&[2.0, 4.0, 6.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        BarrierBackend::new(8).run_block(&problem, &mut store, 100, &mut t);
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
    fn auto_backend_probe_does_not_perturb_state() {
        // Two identical stores, one driven by auto and one by serial:
        // after the same number of iterations the iterates agree, i.e.
        // the probe's warmup iterations ran on clones, not on the state.
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
    fn backend_names_are_stable() {
        assert_eq!(SerialBackend.name(), "serial");
        assert_eq!(RayonBackend::new(None).name(), "rayon");
        assert_eq!(BarrierBackend::new(2).name(), "barrier");
        assert_eq!(StaleBoundedBackend::new(2, 1).name(), "async");
        assert_eq!(AutoBackend::new(2).name(), "auto");
        assert_eq!(StaleBoundedBackend::new(2, 0).name(), "sharded");
        assert_eq!(crate::fleet::FleetBackend::new(2).name(), "fleet");
    }
}
