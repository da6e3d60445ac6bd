//! Criterion benchmarks: serial vs rayon (#1) vs barrier (#2) schedulers
//! on one mid-size problem — the real-engine version of the paper's
//! §III-A comparison.

use criterion::{criterion_group, criterion_main, Criterion};

use paradmm_core::{BarrierBackend, RayonBackend, SerialBackend, SweepExecutor, UpdateTimings};
use paradmm_graph::VarStore;
use paradmm_packing::{PackingConfig, PackingProblem};

fn bench_schedulers(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let (_, problem) = PackingProblem::build(PackingConfig::new(120));
    let mut group = c.benchmark_group("schedulers");

    {
        let mut backend = SerialBackend;
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        group.bench_function("serial", |b| {
            b.iter(|| backend.run_block(&problem, &mut store, 1, &mut t))
        });
    }
    {
        // The backend owns its pool across iterations — no rebuild cost.
        let mut backend = RayonBackend::new(Some(threads));
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        group.bench_function("rayon_approach1", |b| {
            b.iter(|| backend.run_block(&problem, &mut store, 1, &mut t))
        });
    }
    {
        let mut backend = BarrierBackend::new(threads);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        group.bench_function("barrier_approach2", |b| {
            // Barrier spins a scope per block; batch 8 iterations to
            // amortize like a real run does.
            b.iter(|| backend.run_block(&problem, &mut store, 8, &mut t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
