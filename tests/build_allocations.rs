//! Heap bytes a family's `build` keeps per factor, and heap bytes an
//! executor's block takes per edge.
//!
//! The families repeat a handful of distinct operators over every
//! factor (MPC's stage cost and dynamics constraint, the SVM's norm
//! term and slack operator). They share one instance of each, so what a
//! built problem holds per factor is the graph, the edge parameters and
//! one pointer: a copy of an operator per factor would add its matrix and
//! vectors to every one. A counting allocator measures what `build`
//! leaves allocated on this thread. The bytes are a difference between
//! two sizes, so constant costs cancel and only the per-factor slope
//! remains.
//!
//! The executors read the problem's arrays in place, so once a problem
//! has run its first block, a block allocates nothing that grows with
//! the problem: its peak of live bytes is the same at two sizes.
//!
//! Counts are per thread (the harness runs the tests of this binary on
//! several threads at once), and `build` allocates on the calling thread
//! only.

// A counting `#[global_allocator]` must implement the unsafe `GlobalAlloc`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paradmm::core::{
    AdmmProblem, AutoBackend, PoolBackend, SerialBackend, StaleBoundedBackend, SweepExecutor,
    UpdateTimings,
};
use paradmm::graph::VarStore;
use paradmm::mpc::pendulum::paper_plant;
use paradmm::mpc::{MpcConfig, MpcProblem};
use paradmm::svm::{gaussian_mixture, Dataset, SvmConfig, SvmProblem};
use rand::SeedableRng;

/// [`System`], counting the bytes each thread holds.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached since [`peak_and_largest`] reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// The largest single allocation since [`peak_and_largest`] reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn add_live(bytes: isize) {
    // `try_with`: the allocator also serves the thread's own teardown.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    if bytes > 0 {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(bytes as usize)));
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees hold. The count
// is a const-initialised thread-local `Cell` with no destructor: updating
// it neither allocates nor re-enters the allocator.
// `realloc` counts its growth as one allocation of that size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes still allocated on this thread after `build` returns, while
/// its result is alive.
fn retained<T>(build: impl FnOnce() -> T) -> usize {
    let before = LIVE.with(Cell::get);
    let built = build();
    let held = LIVE.with(Cell::get) - before;
    drop(built);
    usize::try_from(held).expect("a build cannot free more than it allocated")
}

/// Bytes a built MPC problem holds per factor, between horizons `k` and
/// `2k` (`2K + 2` factors at horizon `K`).
fn mpc_bytes_per_factor(k: usize) -> f64 {
    let at = |k: usize| retained(|| MpcProblem::build(MpcConfig::new(k), paper_plant()));
    (at(2 * k) - at(k)) as f64 / (2 * k) as f64
}

#[test]
fn mpc_build_holds_no_operator_copy_per_factor() {
    // Per factor the graph, the edge parameters (1.5 edges of ρ and α)
    // and one pointer to a shared operator come to 74 B. A boxed copy of
    // the stage cost or the dynamics constraint per factor makes it 338 B.
    let per_factor = mpc_bytes_per_factor(20_000);
    assert!(
        per_factor < 120.0,
        "MpcProblem::build holds {per_factor:.1} B per factor"
    );
}

/// Bytes a built SVM problem holds per data point, between `n` and `2n`
/// points (four factors per point).
fn svm_bytes_per_point(n: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let small = gaussian_mixture(n, 2, 4.0, &mut rng);
    let large = gaussian_mixture(2 * n, 2, 4.0, &mut rng);
    let at = |data: &Dataset| retained(|| SvmProblem::build(data, SvmConfig::default()));
    (at(&large) - at(&small)) as f64 / n as f64
}

#[test]
fn svm_build_shares_the_norm_and_slack_operators() {
    // The per-point hinge stays unique; the norm quadratic (two 3-entry
    // vectors in a box) and the slack operator do not repeat per point:
    // 397 B per point, against 485 B with a copy of the norm term each.
    let per_point = svm_bytes_per_point(5_000);
    assert!(
        per_point < 440.0,
        "SvmProblem::build holds {per_point:.1} B per point"
    );
}

/// While `run` runs on this thread: the peak of live bytes above the
/// start, and the largest single allocation.
fn peak_and_largest(run: impl FnOnce()) -> (usize, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    LARGEST.with(|largest| largest.set(0));
    run();
    let peak = PEAK.with(Cell::get) - start;
    (peak as usize, LARGEST.with(Cell::get))
}

/// The MPC family at horizon `k` and its zero state.
fn mpc(k: usize) -> (AdmmProblem, VarStore) {
    let (_, problem) = MpcProblem::build(MpcConfig::new(k), paper_plant());
    let store = VarStore::zeros(problem.graph());
    (problem, store)
}

/// Peak live bytes on this thread of one two-iteration block, after a
/// first block has built whatever the executor keeps per problem.
fn block_peak(backend: &mut dyn SweepExecutor, k: usize) -> (usize, usize) {
    let (problem, mut store) = mpc(k);
    let mut t = UpdateTimings::new();
    backend.run_block(&problem, &mut store, 2, &mut t);
    let (peak, _) = peak_and_largest(|| backend.run_block(&problem, &mut store, 2, &mut t));
    (peak, problem.graph().num_edges())
}

#[test]
fn a_block_allocates_nothing_per_edge() {
    // The operators' scratch and the worker start-up are the same at
    // every size; a per-block copy of an edge array is not.
    let make = |name: &str| -> Box<dyn SweepExecutor> {
        match name {
            "serial" => Box::new(SerialBackend),
            "pool:2" => Box::new(PoolBackend::new(2)),
            _ => Box::new(StaleBoundedBackend::new(2, 0)),
        }
    };
    for name in ["serial", "pool:2", "sharded:2"] {
        let (small, small_edges) = block_peak(make(name).as_mut(), 1_000);
        let (large, large_edges) = block_peak(make(name).as_mut(), 4_000);
        let per_edge = (large as f64 - small as f64) / (large_edges - small_edges) as f64;
        assert!(
            per_edge.abs() < 0.5,
            "a {name} block holds {per_edge:.2} B more per edge ({small} -> {large} B)"
        );
    }
}

#[test]
fn auto_probes_without_copying_the_store() {
    // The probe's windows run on the caller's store: no allocation in
    // the first block is as large as one of the store's edge arrays,
    // which a clone of the store would make first.
    let (problem, mut store) = mpc(4_000);
    let array_bytes = store.x.len() * std::mem::size_of::<f64>();
    let mut auto = AutoBackend::new(2);
    let mut t = UpdateTimings::new();
    let (_, largest) = peak_and_largest(|| auto.run_block(&problem, &mut store, 30, &mut t));
    assert!(auto.selected().is_some(), "the probe finishes in the block");
    assert!(
        largest < array_bytes,
        "auto's first block allocated {largest} B at once; one state array is {array_bytes} B"
    );
}
