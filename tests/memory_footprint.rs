//! Resident-memory footprint of the ADMM state, read from
//! `/proc/self/status`.
//!
//! A zero [`VarStore`] must cost address space, not resident memory,
//! until it is written: callers such as the scoreboard build a `Solver`
//! (which starts from a zero store) and replace its state at once. And
//! the per-block edge stream must not copy arrays the kernels never read.
//!
//! This binary holds a single test on purpose: `VmHWM` is per process,
//! and a second test running beside it would move the high-water mark.
#![cfg(target_os = "linux")]

use paradmm::core::{BackendSpec, Solver, SolverOptions, StoppingCriteria};
use paradmm::graph::{AlignedVec, VarStore};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use rand::{Rng, SeedableRng};

const MIB: u64 = 1 << 20;

/// A `/proc/self/status` field (`VmRSS:`, `VmHWM:`) in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {line:?}"));
    kib * 1024
}

#[test]
fn state_memory_is_committed_only_when_written() {
    // (b) runs first: the high-water mark only rises, so nothing large
    // may have been touched before it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(20_000);
    let data = gaussian_mixture(20_000, 2, 4.0, &mut rng);
    let (_svm, problem) = SvmProblem::build(&data, SvmConfig::default());
    let mut init = VarStore::zeros(problem.graph());
    init.init_uniform(-0.1, 0.1, || rng.gen_range(0.0..1.0));
    let store_bytes = init.len_f64() as u64 * 8;

    // Bring VmHWM down to VmRSS where the kernel allows it (Linux ≥ 4.0).
    // Where it does not, `VmHWM after − VmRSS before` still bounds the
    // rise from above, so the check can only get stricter.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let rss_before = status_bytes("VmRSS:");
    let mut solver = Solver::from_problem(
        problem,
        SolverOptions {
            backend: BackendSpec::Serial,
            stopping: StoppingCriteria::fixed_iterations(10),
            ..SolverOptions::default()
        },
    );
    *solver.store_mut() = init;
    let report = solver.run(10);
    assert_eq!(report.iterations, 10);
    let rise = status_bytes("VmHWM:").saturating_sub(rss_before);
    assert!(
        rise < store_bytes / 4,
        "Solver::from_problem + a replaced store + one block raised VmHWM by \
         {rise} B; one store is {store_bytes} B and the bound is a quarter of it"
    );
    drop(solver);

    // (a) A 64 MiB zero buffer is not resident until it is written.
    let len = (64 * MIB / 8) as usize;
    let rss_empty = status_bytes("VmRSS:");
    let mut zeros = AlignedVec::zeros(len);
    let rss_allocated = status_bytes("VmRSS:");
    assert!(
        rss_allocated.saturating_sub(rss_empty) < MIB,
        "AlignedVec::zeros(64 MiB) raised VmRSS by {} B before any write",
        rss_allocated.saturating_sub(rss_empty)
    );
    zeros.fill(1.0);
    std::hint::black_box(&mut zeros);
    let rss_written = status_bytes("VmRSS:");
    assert!(
        rss_written.saturating_sub(rss_allocated) >= 60 * MIB,
        "writing the 64 MiB buffer raised VmRSS by only {} B",
        rss_written.saturating_sub(rss_allocated)
    );
}
