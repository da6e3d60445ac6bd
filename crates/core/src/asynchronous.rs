//! The seed asynchronous activation engine — kept as the documented
//! scalar *reference* for asynchronous ADMM (the paper's future-work
//! item 1). Production asynchronous execution lives in
//! [`crate::StaleBoundedBackend`] (which [`crate::AsyncBackend`] routes
//! to): per-shard workers over the sharded halo machinery, a *bounded*
//! staleness window enforced by progress watermarks, and a `k = 0` mode
//! that is bit-identical to the synchronous backends. This module's
//! [`run_async`] remains the simplest possible expression of the idea —
//! lock-free incremental consensus with *unbounded* (racy-fresh)
//! staleness — and the yardstick its tests compare against.
//!
//! "Use asynchronous implementations of the ADMM so that not all cores
//! need to wait for the busiest core." Instead of five barrier-separated
//! sweeps, each worker repeatedly *activates* one factor of its partition:
//!
//! 1. read the factor's current `n = z − u` (racy-fresh),
//! 2. run its proximal operator,
//! 3. for each touched edge, publish `m = x + u` and fold the change into
//!    the variable's consensus **incrementally**:
//!    `z_b += ρ_e·(m_new − m_old)/Σρ_b` via lock-free CAS on the shared
//!    `z` array,
//! 4. update that edge's `u` and `n` locally.
//!
//! This is the randomized/asynchronous ADMM family of the paper's
//! refs \[29\]–\[31\]; iterates differ from the synchronous schedule (workers
//! see bounded-stale `z`), so unlike the barrier/rayon schedulers it is
//! *not* bit-identical to serial — convergence on convex problems is
//! what the tests assert instead. On one activation pass per factor the
//! single-threaded variant coincides with a Gauss–Seidel-flavoured ADMM,
//! which typically converges *faster* per sweep than the Jacobi-style
//! Algorithm 2.

use std::sync::atomic::{AtomicU64, Ordering};

use paradmm_graph::{FactorId, VarStore};
use paradmm_prox::ProxCtx;

use crate::kernels::flush_subnormal;
use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;

/// Atomic f64 cell (CAS on the bit pattern).
#[repr(transparent)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    #[inline]
    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// `cell += delta` via a CAS loop.
    #[inline]
    fn fetch_add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Reinterprets a mutable f64 slice as atomic cells for the duration of
/// the scope. Sound: `AtomicU64` is `repr(transparent)` over `u64`, same
/// layout as `f64`, and the borrow is exclusive at both ends.
fn as_atomic(data: &mut [f64]) -> &[AtomicF64] {
    unsafe { std::slice::from_raw_parts(data.as_mut_ptr().cast::<AtomicF64>(), data.len()) }
}

/// Runs `sweeps` asynchronous activation passes with `threads` workers.
///
/// Each worker owns a static partition of the factors and activates them
/// round-robin without any inter-worker barrier; `z` is shared through
/// atomic incremental updates. The partition comes from the problem's
/// [`SweepPlan`]: its factor pass's [`crate::plan::Pass::split`], so a
/// measured-cost plan hands each worker an equal share of *operator
/// seconds* rather than of factor count — on heterogeneous operators the
/// whole point of going asynchronous. `store` must be in a consistent
/// state (`m = x + u`, `z` = the ρ-weighted average of `m`, `n = z − u`);
/// the easiest way to guarantee that is to run ≥1 synchronous iteration
/// first, or start from all-zeros.
pub fn run_async(problem: &AdmmProblem, store: &mut VarStore, sweeps: usize, threads: usize) {
    assert!(threads >= 1);
    let g = problem.graph();
    let params = problem.params();
    let d = g.dims();
    let plan = SweepPlan::resolve(problem);
    let factor_pass = plan.factor_pass();

    // Per-variable ρ totals (denominators of the incremental z-update).
    let mut rho_sum = vec![0.0f64; g.num_vars()];
    for e in g.edges() {
        rho_sum[g.edge_var(e).idx()] += params.rho(e);
    }

    let z = as_atomic(&mut store.z);
    let m = as_atomic(&mut store.m);
    let u = as_atomic(&mut store.u);
    let x = as_atomic(&mut store.x);
    let rho_sum = &rho_sum;

    std::thread::scope(|scope| {
        for tid in 0..threads {
            scope.spawn(move || {
                let (f_lo, f_hi) = factor_pass.split(tid, threads);
                // Scratch buffers reused across activations.
                let mut n_buf = Vec::new();
                let mut x_buf = Vec::new();
                for sweep in 0..sweeps {
                    // Asynchronous convergence results assume *bounded
                    // staleness*: every worker must keep making progress
                    // relative to the others. Yielding once per sweep keeps
                    // workers interleaved even when the OS would otherwise
                    // time-slice them coarsely (e.g. few cores).
                    if sweep > 0 {
                        std::thread::yield_now();
                    }
                    for a in f_lo..f_hi {
                        let fa = FactorId::from_usize(a);
                        let er = g.factor_edge_range(fa);
                        let k = er.len();
                        // Gather fresh n = z − u for this factor's edges.
                        n_buf.clear();
                        for e in er.clone() {
                            let b = g.edge_var(paradmm_graph::EdgeId::from_usize(e));
                            for c in 0..d {
                                let zv = z[b.idx() * d + c].load();
                                let uv = u[e * d + c].load();
                                n_buf.push(zv - uv);
                            }
                        }
                        x_buf.clear();
                        x_buf.resize(k * d, 0.0);
                        {
                            let rho = &params.rho[er.clone()];
                            let mut ctx = ProxCtx::new(&n_buf, rho, &mut x_buf, d);
                            problem.prox(fa).prox(&mut ctx);
                        }
                        // Publish x, fold m-deltas into z, step u, refresh n.
                        for (i, e) in er.clone().enumerate() {
                            let b = g.edge_var(paradmm_graph::EdgeId::from_usize(e));
                            let rho = params.rho[e];
                            let alpha = params.alpha[e];
                            let denom = rho_sum[b.idx()];
                            for c in 0..d {
                                let xe = x_buf[i * d + c];
                                x[e * d + c].0.store(xe.to_bits(), Ordering::Release);
                                let u_old = u[e * d + c].load();
                                let m_new = xe + u_old;
                                let m_old = m[e * d + c].load();
                                m[e * d + c].0.store(m_new.to_bits(), Ordering::Release);
                                if denom > 0.0 {
                                    z[b.idx() * d + c].fetch_add(rho * (m_new - m_old) / denom);
                                }
                                let zv = z[b.idx() * d + c].load();
                                let u_new = flush_subnormal(u_old + alpha * (xe - zv));
                                u[e * d + c].0.store(u_new.to_bits(), Ordering::Release);
                            }
                        }
                    }
                }
            });
        }
    });

    // Refresh n = z − u coherently for downstream synchronous use.
    for e in g.edges() {
        let b = g.edge_var(e);
        for c in 0..d {
            store.n[e.idx() * d + c] = store.z[b.idx() * d + c] - store.u[e.idx() * d + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::{GraphBuilder, VarId};
    use paradmm_prox::{ConsensusEqualityProx, ProxOp, QuadraticProx};

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

    #[test]
    fn single_thread_converges_to_mean() {
        let p = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(p.graph());
        run_async(&p, &mut store, 400, 1);
        let z = store.z_var(VarId(0))[0];
        assert!((z - 5.0).abs() < 1e-5, "z = {z}");
    }

    #[test]
    fn multi_thread_converges_to_mean() {
        let p = consensus_problem(&[2.0, 4.0, 6.0, 8.0]);
        let mut store = VarStore::zeros(p.graph());
        run_async(&p, &mut store, 800, 4);
        let z = store.z_var(VarId(0))[0];
        assert!((z - 5.0).abs() < 1e-4, "z = {z}");
    }

    #[test]
    fn chain_problem_converges() {
        // 6-variable consensus chain with anchors; optimum = mean.
        let mut b = GraphBuilder::new(1);
        let vars = b.add_vars(6);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 1.0, &[i as f64])));
        }
        for i in 0..5 {
            b.add_factor(&[vars[i], vars[i + 1]]);
            proxes.push(Box::new(ConsensusEqualityProx));
        }
        let p = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let mut store = VarStore::zeros(p.graph());
        run_async(&p, &mut store, 3000, 3);
        for &v in &vars {
            let z = store.z_var(v)[0];
            assert!((z - 2.5).abs() < 1e-2, "var {v}: z = {z}");
        }
    }

    #[test]
    fn async_leaves_consistent_state() {
        let p = consensus_problem(&[1.0, 3.0]);
        let mut store = VarStore::zeros(p.graph());
        run_async(&p, &mut store, 50, 2);
        // n must equal z − u everywhere after the final refresh.
        let g = p.graph();
        for e in g.edges() {
            let b = g.edge_var(e);
            let n = store.n_edge(e)[0];
            let expect = store.z_var(b)[0] - store.u_edge(e)[0];
            assert!((n - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_multidim_blocks() {
        // dims = 3: consensus of two vector anchors.
        let mut b = GraphBuilder::new(3);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(3, 2.0, &[1.0, 2.0, 3.0])),
            Box::new(QuadraticProx::isotropic(3, 2.0, &[3.0, 6.0, 9.0])),
        ];
        let p = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let mut store = VarStore::zeros(p.graph());
        run_async(&p, &mut store, 500, 2);
        let z = store.z_var(VarId(0));
        for (c, expect) in [2.0, 4.0, 6.0].iter().enumerate() {
            assert!(
                (z[c] - expect).abs() < 1e-4,
                "component {c}: {} vs {expect}",
                z[c]
            );
        }
    }
}
