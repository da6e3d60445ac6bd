//! Criterion micro-benchmarks: throughput of each of the five update
//! kernels on a mid-size packing graph (real engine, real numerics): the
//! z average on swapped buffers and the u/n sweeps over the dense
//! [`paradmm_graph::EdgeStream`], as the executors run them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use paradmm_core::kernels;
use paradmm_graph::{EdgeStream, VarStore};
use paradmm_packing::{PackingConfig, PackingProblem};

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_updates");
    for n in [50usize, 150] {
        let (_, problem) = PackingProblem::build(PackingConfig::new(n));
        let g = problem.graph();
        let params = problem.params();
        let mut store = VarStore::zeros(g);
        for (i, v) in store.n.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let nf = g.num_factors();
        let nv = g.num_vars();
        let ne = g.num_edges();
        let d = g.dims();
        let stream = EdgeStream::build(g, params);

        group.bench_with_input(BenchmarkId::new("x_update", n), &n, |b, _| {
            let n_snapshot = store.n.clone();
            b.iter(|| {
                kernels::x_update_range(
                    g,
                    problem.proxes(),
                    params,
                    &n_snapshot,
                    &mut store.x,
                    0,
                    nf,
                );
            })
        });
        group.bench_with_input(BenchmarkId::new("m_update", n), &n, |b, _| {
            b.iter(|| {
                let (x, u, m) = (&store.x, &store.u, &mut store.m);
                kernels::m_update_range(x, u, m, 0, ne * d);
            })
        });
        group.bench_with_input(BenchmarkId::new("z_update", n), &n, |b, _| {
            b.iter(|| {
                let (m, z_old, z) = (&store.m, &store.z_prev, &mut store.z);
                kernels::z_update_swapped_range(g, params, m, z_old, z, 0, nv);
            })
        });
        group.bench_with_input(BenchmarkId::new("u_update", n), &n, |b, _| {
            b.iter(|| {
                let (x, z, u) = (&store.x, &store.z, &mut store.u);
                kernels::u_update_range_stream(&stream, x, z, u, 0, ne);
            })
        });
        group.bench_with_input(BenchmarkId::new("n_update", n), &n, |b, _| {
            b.iter(|| {
                let (z, u, nn) = (&store.z, &store.u, &mut store.n);
                kernels::n_update_range_stream(&stream, z, u, nn, 0, ne);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
