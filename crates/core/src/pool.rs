//! The one parallel executor: workers that run each pass as static
//! shares and assist whoever still has chunks left.
//!
//! Every synchronous parallel schedule in this crate runs here: a single
//! problem through [`PoolBackend`], a fused batch through the same
//! backend, and a whole heterogeneous fleet through
//! [`crate::FleetSolver`]. All three go through one round driver,
//! `run_round`, over one or more *instances* (a problem, its store and
//! its resolved [`SweepPlan`]).
//!
//! # Runtime
//!
//! `run_round` and the halo executor ([`crate::StaleBoundedBackend`],
//! the `sharded` and `async` specs) both start their workers through
//! one runtime, `run_workers`: one worker per state it is handed, worker
//! 0 on the calling thread and the rest on scoped threads opened for the
//! block (the crate's only thread scope). Workers that wait for
//! one another do so through one spin-then-yield wait, [`Crew::wait`]. A
//! worker that panics raises the block's poison flag as it unwinds, every
//! wait gives up once the flag is up, and the payload is re-raised to the
//! caller after all workers have returned — so a panicking operator
//! fails its block under every parallel executor instead of leaving the
//! others waiting for work that will never be published.
//!
//! The runtime hands each worker its state by value, so the halo
//! executor gives each shard worker its `&mut Shard` and shares nothing
//! else but atomics: it is safe Rust. The proof obligations below are
//! the pool's alone.
//!
//! # Dispatch
//!
//! Each pass of each instance is cut by [`Pass::split`] into one
//! contiguous *share* per worker — the cost-weighted split when the plan
//! carries a measured profile, the count split otherwise — with share
//! boundaries rounded to whole [`Pass::chunk`]s, so a pass of one chunk
//! still costs one claim. Worker `w` then, in order:
//!
//! 1. claims the chunks of share `w`, front to back — the paper's
//!    OpenMP approach #2 (§III-A: persistent workers over a static
//!    partition), which keeps each worker on the same cache-resident
//!    range every iteration;
//! 2. assists: claims the chunks still unclaimed in the other shares of
//!    the same instance — the dynamic chunk distribution of approach #1's
//!    parallel loop, applied only to what the owners have not reached;
//! 3. scans the other instances and moves to the one with the most
//!    unclaimed chunks in its open pass, so big instances attract many
//!    workers while small ones run solo and converged ones retire with
//!    no repack.
//!
//! Neither approach's barrier remains: a pass ends when its last chunk
//! is counted, and the worker that counts it opens the next pass.
//!
//! # Claim protocol
//!
//! Every share of an instance has its own claim word, on its own cache
//! line, encoding `(seq << 32) | next`, where `seq = iter · n_passes +
//! pass` is the instance's watermark and `next` the share's next
//! unclaimed chunk (relative to the share's first). A claim is a CAS of
//! the whole word (`word → word + 1`), valid only for the exact
//! `(seq, next)` it observed, so a stalled worker's stale CAS fails
//! because `seq` only grows (the ABA hazard of a plain per-pass counter
//! lifted off its barrier).
//!
//! A worker counts the chunks it ran in the open pass and, when that
//! pass has nothing left to claim, adds the count to the instance's
//! `done[seq & 1]` with one `AcqRel` RMW. The worker whose addition
//! reaches the pass's chunk count is the *finisher*: it zeroes the other
//! parity counter (its pass, `seq − 1`, completed before pass `seq`
//! opened, so no late addition exists) and publishes `seq + 1` into
//! every claim word with a release `fetch_max`. A share word still at
//! `seq` after pass `seq` completed is fully claimed, so a reader that
//! sees a word not yet republished finds nothing to claim there; and
//! `fetch_max` never moves a word back, however late it lands.
//!
//! # Safety
//!
//! The workers share raw views of the six state arrays ([`RawArray`])
//! and write through them without locks. That is sound because the
//! protocol keeps these obligations, stated here once for every
//! `unsafe` block of the module:
//!
//! 1. **Disjoint writes.** Within one pass, every chunk is claimed by
//!    exactly one successful CAS on exactly one share's word, shares
//!    tile the pass's chunks, and chunks tile the pass's items, so the
//!    item ranges run in one pass are pairwise disjoint and cover the
//!    pass exactly once.
//! 2. **No read of a same-pass write by another worker.** Algorithm 2's
//!    data flow per [`PassKind`]: `x+m` reads `n`, `u` and writes `x`,
//!    `m`, and each factor's `m` reads only `u` and the factor's own `x`,
//!    written by the same worker in the same call; `z` reads `m` and the
//!    previous iterate's z buffer and writes the other z buffer; `u+n`
//!    reads `x`, `z` and writes `u`, `n`, and each `n_e` reads only `z`
//!    and the same edge's `u_e`, written in the same call.
//! 3. **Cross-pass visibility.** A chunk's writes precede its worker's
//!    `done` RMW; the RMW chain carries them to the finisher; the
//!    finisher's release publication carries the whole pass to every
//!    worker whose acquire load or CAS observes `seq + 1`. So every write
//!    of a pass is visible to every read of the next one.
//! 4. **One z parity.** Every worker derives the iteration, and so which
//!    z buffer is current, from the `seq` of the word it claimed on.
//! 5. **Lifetime.** The views are taken from `&mut` borrows of the
//!    stores that outlive the workers, and dropped before any store is
//!    touched again — also when a worker's panic unwinds `run_round`.
//!
//! Other instances' workers touch other stores entirely. Iterates are
//! therefore bit-identical to [`crate::SerialBackend`]'s for any worker
//! count, chunk size and claim order, which `tests/backend_equivalence.rs`
//! pins against the paper's literal five sweeps.

// Raw shared views of the state arrays; the protocol's obligations are
// stated once in the module docs above.
#![allow(unsafe_code)]

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use paradmm_graph::{EdgeStream, VarStore};

use crate::backend::SweepExecutor;
use crate::diagnostics::{FleetDiagnostics, FleetWorkerStats};
use crate::kernels::{self, UpdateKind};
use crate::plan::{Pass, PassKind, SweepPlan};
use crate::problem::AdmmProblem;
use crate::timing::UpdateTimings;

/// Raw shared view of an `f64` array, handed to every worker of a round.
/// Sound only under the module's safety obligations.
#[derive(Clone, Copy)]
struct RawArray {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: the view is only dereferenced under the module's obligations.
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
    /// `[lo, hi)` is in bounds and no other worker reads or writes it
    /// during the borrow (obligations 1 and 2).
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [f64] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// # Safety
    /// No worker writes the array during the borrow (obligation 2).
    unsafe fn whole(&self) -> &[f64] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// One instance's problem context and raw views of its six arrays, run
/// one item range at a time; every fusion lives in [`crate::kernels`].
///
/// The two z buffers are a parity-indexed pair: workers cannot swap the
/// `Vec`s mid-block (the views are taken once), so the Z pass of
/// iteration `k` writes buffer `(k+1) & 1` while buffer `k & 1` plays
/// `z_prev` — the rotation [`VarStore::swap_z`] performs, expressed as
/// pointer parity. The round driver normalizes the `Vec`s afterwards
/// when the iteration count is odd.
struct SweepArrays<'a> {
    problem: &'a AdmmProblem,
    x: RawArray,
    m: RawArray,
    u: RawArray,
    n: RawArray,
    /// `[0]` views `store.z`, `[1]` views `store.z_prev`.
    z_bufs: [RawArray; 2],
}

impl<'a> SweepArrays<'a> {
    fn new(problem: &'a AdmmProblem, store: &mut VarStore) -> Self {
        SweepArrays {
            problem,
            x: RawArray::new(&mut store.x),
            m: RawArray::new(&mut store.m),
            u: RawArray::new(&mut store.u),
            n: RawArray::new(&mut store.n),
            z_bufs: [
                RawArray::new(&mut store.z),
                RawArray::new(&mut store.z_prev),
            ],
        }
    }

    /// Runs items `[lo, hi)` of `pass` at iteration `iter` of the block
    /// (which selects the z buffer parity).
    ///
    /// # Safety
    /// The module's obligations hold for this range.
    unsafe fn run_pass(&self, pass: &Pass, iter: usize, lo: usize, hi: usize) {
        let g = self.problem.graph();
        let params = self.problem.params();
        let d = g.dims();
        let (z_old, z_new) = (iter & 1, (iter & 1) ^ 1);
        match pass.kind() {
            PassKind::Xm => {
                // Factor edge blocks are contiguous and ordered, so the
                // factors' x and m blocks are one flat range each.
                let flat = kernels::factor_flat_range(g, lo, hi);
                kernels::xm_update_block(
                    g,
                    |a| &*self.problem.proxes()[a],
                    params,
                    self.n.whole(),
                    self.u.whole(),
                    self.x.range_mut(flat.start, flat.end),
                    self.m.range_mut(flat.start, flat.end),
                    lo,
                    hi,
                );
            }
            // Degree-0 variables carry forward from buffer `z_old`.
            PassKind::Z => kernels::z_update_swapped_block(
                g,
                params,
                self.m.whole(),
                self.z_bufs[z_old].whole(),
                self.z_bufs[z_new].range_mut(lo * d, hi * d),
                lo,
                hi,
            ),
            PassKind::Un => kernels::un_update_range_stream(
                &EdgeStream::build(g, params),
                self.x.whole(),
                self.z_bufs[z_new].whole(),
                self.u.range_mut(lo * d, hi * d),
                self.n.range_mut(lo * d, hi * d),
                lo,
                hi,
            ),
        }
    }
}

/// A share's claim word on a cache line of its own, so an owner draining
/// its share never contends with its neighbours' claims.
#[repr(align(128))]
#[derive(Default)]
struct ClaimWord(AtomicU64);

fn decode(word: u64) -> (u64, u64) {
    (word >> 32, word & 0xffff_ffff)
}

/// One instance's scheduling state for a round of `iters` iterations;
/// see the module docs for the protocol.
struct InstanceExec<'a> {
    arrays: SweepArrays<'a>,
    plan: Cow<'a, SweepPlan>,
    n_passes: usize,
    /// Per pass, `shares + 1` chunk indices: share `s` owns chunks
    /// `bounds[p][s]..bounds[p][s + 1]`, and the last entry is the pass's
    /// chunk count (`≥ 1` even for an empty pass, so every pass has a
    /// finisher).
    bounds: Vec<Vec<u64>>,
    /// `iters · n_passes`: the watermark at which the round is done.
    target_seq: u64,
    /// One `(seq << 32) | next` word per share.
    words: Vec<ClaimWord>,
    /// Chunks completed in the open pass, indexed by `seq & 1`.
    done: [AtomicUsize; 2],
    /// Fleet-wide instance id, for telemetry.
    global: usize,
}

impl<'a> InstanceExec<'a> {
    fn new(ri: &'a mut RoundInstance<'_>, iters: usize, shares: usize) -> Self {
        let problem = ri.problem;
        let plan = SweepPlan::resolve(problem);
        let n_passes = plan.passes().len();
        assert!(
            iters as u64 * n_passes as u64 <= u32::MAX as u64,
            "round too long for the 32-bit watermark"
        );
        let bounds = plan
            .passes()
            .iter()
            .map(|pass| {
                let chunk = pass.chunk();
                let n_chunks = pass.items().div_ceil(chunk).max(1) as u64;
                assert!(n_chunks <= u32::MAX as u64, "pass has too many chunks");
                (0..=shares)
                    .map(|s| match s {
                        s if s == shares => n_chunks,
                        // The share's first item, to the nearest chunk.
                        s => (((pass.split(s, shares).0 + chunk / 2) / chunk) as u64).min(n_chunks),
                    })
                    .collect()
            })
            .collect();
        InstanceExec {
            arrays: SweepArrays::new(problem, ri.store),
            plan,
            n_passes,
            bounds,
            target_seq: (iters * n_passes) as u64,
            words: (0..shares).map(|_| ClaimWord::default()).collect(),
            done: Default::default(),
            global: ri.global,
        }
    }

    fn pass_of(&self, seq: u64) -> usize {
        (seq % self.n_passes as u64) as usize
    }

    /// Chunks of share `s` still unclaimed, judged from its word alone
    /// (0 once finished or drained) — the assist-routing heuristic.
    /// Relaxed suffices: a claim re-validates through its CAS.
    fn unclaimed(&self, s: usize) -> u64 {
        let (seq, next) = decode(self.words[s].0.load(Ordering::Relaxed));
        if seq >= self.target_seq {
            return 0;
        }
        let b = &self.bounds[self.pass_of(seq)];
        (b[s + 1] - b[s]).saturating_sub(next)
    }

    /// Chunks still unclaimed in the open pass, over all shares.
    fn remaining_chunks(&self) -> u64 {
        (0..self.words.len()).map(|s| self.unclaimed(s)).sum()
    }

    /// Whether the instance reached its round target. The finisher of the
    /// last pass publishes to every word, so any one of them tells.
    fn finished(&self) -> bool {
        decode(self.words[0].0.load(Ordering::Acquire)).0 >= self.target_seq
    }

    /// Claims and runs the next chunk of share `s`; returns the `seq` it
    /// ran at, or `None` when the share has nothing left in its pass.
    fn run_next(&self, s: usize) -> Option<u64> {
        let word = &self.words[s].0;
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let (seq, next) = decode(cur);
            if seq >= self.target_seq {
                return None;
            }
            let p = self.pass_of(seq);
            let chunk_index = self.bounds[p][s] + next;
            if chunk_index >= self.bounds[p][s + 1] {
                return None;
            }
            if let Err(seen) =
                word.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                cur = seen;
                continue;
            }
            let pass = &self.plan.passes()[p];
            let lo = (chunk_index as usize * pass.chunk()).min(pass.items());
            let hi = (lo + pass.chunk()).min(pass.items());
            let iter = (seq / self.n_passes as u64) as usize;
            // SAFETY: the CAS made (seq, share, next) this worker's
            // alone, and `iter` comes from that seq — obligations 1–4.
            unsafe { self.arrays.run_pass(pass, iter, lo, hi) };
            return Some(seq);
        }
    }

    /// Runs what worker `w` can claim in the open pass — its own share
    /// first, then the other shares — and counts it; returns whether it
    /// ran anything.
    ///
    /// Every claim of one call sees the same `seq`: the pass cannot
    /// complete while this worker holds uncounted chunks of it.
    fn work(&self, w: usize, stats: &mut FleetWorkerStats) -> bool {
        let shares = self.words.len();
        let mut ran = 0;
        let mut at = 0;
        for k in 0..shares {
            while let Some(seq) = self.run_next((w + k) % shares) {
                debug_assert!(ran == 0 || seq == at, "claims straddle a pass");
                at = seq;
                ran += 1;
                stats.assists += u64::from(k > 0);
            }
        }
        if ran == 0 {
            return false;
        }
        stats.chunks_by_instance[self.global] += ran as u64;
        self.complete(at, ran);
        true
    }

    /// Counts `ran` completed chunks of pass `seq`; the worker that
    /// completes the pass opens the next one.
    fn complete(&self, seq: u64, ran: usize) {
        let parity = (seq & 1) as usize;
        let total = self.done[parity].fetch_add(ran, Ordering::AcqRel) + ran;
        let p = self.pass_of(seq);
        if total as u64 == self.bounds[p][self.words.len()] {
            self.done[parity ^ 1].store(0, Ordering::Relaxed);
            for word in &self.words {
                word.0.fetch_max((seq + 1) << 32, Ordering::Release);
            }
        }
    }
}

/// One instance handed to the round driver: the problem, its state, and
/// its fleet-wide id for telemetry.
pub(crate) struct RoundInstance<'a> {
    pub(crate) global: usize,
    pub(crate) problem: &'a AdmmProblem,
    pub(crate) store: &'a mut VarStore,
}

/// Worker `w`'s loop: work its current instance while that has anything
/// to claim, then move to the instance with the most unclaimed chunks;
/// with nothing claimable anywhere, wait for chunks in flight elsewhere.
/// Returns once every instance is finished, or once a peer panicked.
fn worker_loop(
    execs: &[InstanceExec<'_>],
    w: usize,
    n_globals: usize,
    crew: &Crew,
) -> FleetWorkerStats {
    let mut stats = FleetWorkerStats::new(n_globals);
    let mut cur = w % execs.len();
    loop {
        if execs[cur].work(w, &mut stats) {
            continue;
        }
        let next = crew.wait(|| {
            // Most unclaimed chunks wins; ties break toward the lowest index.
            let mut best: Option<(usize, u64)> = None;
            for (j, e) in execs.iter().enumerate() {
                let r = e.remaining_chunks();
                if r > 0 && best.is_none_or(|(_, br)| r > br) {
                    best = Some((j, r));
                }
            }
            if best.is_none() && !execs.iter().all(|e| e.finished()) {
                stats.idle_spins += 1;
                return None;
            }
            Some(best)
        });
        match next.flatten() {
            Some((j, _)) => {
                if j != cur {
                    stats.migrations += 1;
                    cur = j;
                }
            }
            None => break,
        }
    }
    stats
}

/// What the workers of one block share besides their data: whether one
/// of them panicked.
pub(crate) struct Crew {
    poisoned: AtomicBool,
}

impl Crew {
    /// Polls `ready` until it returns a value — spinning briefly, then
    /// yielding the core to the workers that hold the awaited work
    /// (essential on oversubscribed hosts). Returns `None` once a peer
    /// has panicked: what it waits for may never come.
    pub(crate) fn wait<T>(&self, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
        let mut spins = 0u32;
        loop {
            if let Some(v) = ready() {
                return Some(v);
            }
            if self.poisoned.load(Ordering::Relaxed) {
                return None;
            }
            spins += 1;
            if spins < 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Raises the crew's poison flag if its thread unwinds.
struct PoisonOnPanic<'a>(&'a Crew);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs one worker per element of `states`, `work(w, state, crew)` for
/// worker `w`: worker 0 on the calling thread, the others on scoped
/// threads. Returns the workers' results in worker order.
///
/// A worker that panics raises the crew's poison flag, so the others'
/// [`Crew::wait`]s give up instead of waiting for it; once every worker
/// has returned, the panic is re-raised here with its payload.
pub(crate) fn run_workers<S: Send, R: Send>(
    states: impl IntoIterator<Item = S>,
    work: impl Fn(usize, S, &Crew) -> R + Sync,
) -> Vec<R> {
    let crew = Crew {
        poisoned: AtomicBool::new(false),
    };
    let mut states = states.into_iter();
    let Some(first) = states.next() else {
        return Vec::new();
    };
    let (crew, work) = (&crew, &work);
    std::thread::scope(|scope| {
        // Covers worker 0 and a failed spawn alike.
        let _poison = PoisonOnPanic(crew);
        let handles: Vec<_> = states
            .enumerate()
            .map(|(i, state)| {
                scope.spawn(move || {
                    let _poison = PoisonOnPanic(crew);
                    work(i + 1, state, crew)
                })
            })
            .collect();
        let mut out = vec![work(0, first, crew)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

/// Runs `iters` iterations of every instance on `threads` workers of
/// [`run_workers`]. Each instance resolves its own [`SweepPlan`] and
/// advances through it independently; an odd `iters` leaves every
/// iterate in the `z_prev` buffer, which is normalized here per instance.
pub(crate) fn run_round(
    instances: &mut [RoundInstance<'_>],
    iters: usize,
    threads: usize,
    diag: &mut FleetDiagnostics,
) {
    if instances.is_empty() || iters == 0 {
        return;
    }
    assert!(threads >= 1, "the pool needs at least one worker");
    let n_globals = instances.iter().map(|r| r.global + 1).max().unwrap_or(0);
    let execs: Vec<InstanceExec<'_>> = instances
        .iter_mut()
        .map(|ri| InstanceExec::new(ri, iters, threads))
        .collect();
    let per_worker = run_workers(0..threads, |w, _, crew| {
        worker_loop(&execs, w, n_globals, crew)
    });
    drop(execs); // release the raw views before touching the stores
    if iters % 2 == 1 {
        for ri in instances.iter_mut() {
            ri.store.swap_z();
        }
    }
    diag.record_round(per_worker);
}

/// The parallel [`SweepExecutor`]: one problem run as a one-instance
/// round of the pool (see the module docs). Every parallel spec family
/// but `sharded` and `async` builds it: `pool` is its name, and `rayon`,
/// `barrier`, `worksteal` and `fleet` keep their spec text.
///
/// Wall time is recorded under [`UpdateKind::X`]: workers run passes
/// back to back without a common boundary, so per-kind attribution is
/// not separable.
#[derive(Debug)]
pub struct PoolBackend {
    threads: usize,
    diagnostics: FleetDiagnostics,
}

impl PoolBackend {
    /// Backend with `threads` workers, one static share each.
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "the pool needs at least one thread");
        PoolBackend {
            threads,
            diagnostics: FleetDiagnostics::new(),
        }
    }

    /// Accumulated per-worker claim telemetry (chunks claimed, assists,
    /// migrations, idle spins) — see [`crate::diagnostics::fleet_report`].
    #[cfg(test)]
    pub(crate) fn diagnostics(&self) -> &FleetDiagnostics {
        &self.diagnostics
    }
}

impl SweepExecutor for PoolBackend {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        let t0 = Instant::now();
        let mut round = [RoundInstance {
            global: 0,
            problem,
            store,
        }];
        run_round(&mut round, iters, self.threads, &mut self.diagnostics);
        t.add(UpdateKind::X, t0.elapsed());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxCtx, ProxOp, QuadraticProx};

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

    fn run(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> VarStore {
        let mut store = VarStore::zeros(problem.graph());
        backend.run_block(problem, &mut store, iters, &mut UpdateTimings::new());
        store
    }

    #[test]
    fn one_chunk_pass_is_claimed_once_per_pass() {
        // Three factors, one variable, three edges: every pass fits in
        // one default chunk, so each costs exactly one claim however
        // many workers race for it.
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        for threads in [1usize, 2, 3, 8] {
            let mut pool = PoolBackend::new(threads);
            let got = run(&problem, &mut pool, 10);
            assert_eq!(got.z, run(&problem, &mut SerialBackend, 10).z);
            assert_eq!(
                pool.diagnostics().total_chunks(),
                10 * 3,
                "{threads} threads"
            );
        }
    }

    /// `x ← n`, after spinning for a while: a factor that holds its
    /// worker up long enough for the others to finish their shares.
    #[derive(Debug)]
    struct SpinProx;

    impl ProxOp for SpinProx {
        fn prox(&self, ctx: &mut ProxCtx<'_>) {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < 50 {
                std::hint::spin_loop();
            }
            ctx.x.copy_from_slice(ctx.n);
        }
    }

    #[test]
    fn a_slow_share_is_assisted() {
        // 64 factors claimed one at a time; the first worker's share is
        // the slow half, so the second worker drains its own share and
        // then claims chunks of the first one.
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for a in 0..64 {
            b.add_factor(&[v]);
            proxes.push(if a < 32 {
                Box::new(SpinProx)
            } else {
                Box::new(QuadraticProx::isotropic(1, 2.0, &[a as f64]))
            });
        }
        let mut problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        problem.set_plan(SweepPlan::fused_chunked(&problem, 1));
        let mut pool = PoolBackend::new(2);
        let got = run(&problem, &mut pool, 20);
        let want = run(&problem, &mut SerialBackend, 20);
        assert_eq!(got.x, want.x);
        assert_eq!(got.z, want.z);
        assert_eq!(got.u, want.u);
        let assists: u64 = pool.diagnostics().workers().iter().map(|w| w.assists).sum();
        assert!(
            assists > 0,
            "{}",
            crate::diagnostics::fleet_report(pool.diagnostics())
        );
    }

    /// An operator that panics with "operator failed".
    #[derive(Debug)]
    pub(crate) struct PanicProx;

    impl ProxOp for PanicProx {
        fn prox(&self, _: &mut ProxCtx<'_>) {
            panic!("operator failed");
        }
    }

    /// Runs a 5-iteration block of `backend` on a helper thread and
    /// re-raises here the panic that reached it. Panics with "the block
    /// hung" within seconds, instead of hanging the suite, if the block
    /// never returns.
    pub(crate) fn run_watched(problem: AdmmProblem, mut backend: impl SweepExecutor + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || {
                    run(&problem, &mut backend, 5);
                },
            )));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(result) => result.unwrap_or_else(|e| std::panic::resume_unwind(e)),
            Err(_) => panic!("the block hung"),
        }
    }

    #[test]
    #[should_panic(expected = "operator failed")]
    fn a_panicking_operator_reaches_the_caller() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for a in 0..8 {
            b.add_factor(&[v]);
            proxes.push(if a == 7 {
                Box::new(PanicProx)
            } else {
                Box::new(QuadraticProx::isotropic(1, 2.0, &[1.0]))
            });
        }
        let mut problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        problem.set_plan(SweepPlan::fused_chunked(&problem, 1));
        run_watched(problem, PoolBackend::new(3));
    }
}
