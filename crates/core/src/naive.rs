//! Deliberately naive reference implementation of Algorithm 2.
//!
//! Models "the tool used by \[9\], \[24\]" that the paper reports being ≥4×
//! slower per iteration than parADMM on a single core: every edge vector
//! is its own heap allocation reached through per-node adjacency lists, so
//! each sweep chases pointers instead of streaming a flat array. It runs
//! the paper's five sweeps literally, one after the other, and shares no
//! schedule code with the engine, yet is bit-for-bit equivalent to it
//! (same summation order). That makes it the differential oracle every
//! executor is tested against ([`NaiveAdmm::load_from`] in,
//! [`NaiveAdmm::write_to`] out) and the comparator for the layout
//! benchmark.

use paradmm_graph::VarStore;
use paradmm_prox::ProxCtx;

use crate::kernels::flush_subnormal;
use crate::problem::AdmmProblem;

/// Scattered-allocation ADMM state: one boxed vector per edge per array.
pub struct NaiveAdmm<'p> {
    problem: &'p AdmmProblem,
    x: Vec<Vec<f64>>,
    m: Vec<Vec<f64>>,
    u: Vec<Vec<f64>>,
    n: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    /// Scratch reused by the x-update to assemble a factor's blocks.
    scratch_n: Vec<f64>,
    scratch_x: Vec<f64>,
}

impl<'p> NaiveAdmm<'p> {
    /// Zero-initialized state for `problem`.
    pub fn new(problem: &'p AdmmProblem) -> Self {
        let g = problem.graph();
        let d = g.dims();
        NaiveAdmm {
            problem,
            x: vec![vec![0.0; d]; g.num_edges()],
            m: vec![vec![0.0; d]; g.num_edges()],
            u: vec![vec![0.0; d]; g.num_edges()],
            n: vec![vec![0.0; d]; g.num_edges()],
            z: vec![vec![0.0; d]; g.num_vars()],
            scratch_n: Vec::new(),
            scratch_x: Vec::new(),
        }
    }

    /// Copies state in from a flat [`VarStore`] (to co-iterate with the
    /// engine from identical starting points).
    pub fn load_from(&mut self, store: &VarStore) {
        let d = store.dims();
        for (e, v) in self.x.iter_mut().enumerate() {
            v.copy_from_slice(&store.x[e * d..(e + 1) * d]);
        }
        for (e, v) in self.m.iter_mut().enumerate() {
            v.copy_from_slice(&store.m[e * d..(e + 1) * d]);
        }
        for (e, v) in self.u.iter_mut().enumerate() {
            v.copy_from_slice(&store.u[e * d..(e + 1) * d]);
        }
        for (e, v) in self.n.iter_mut().enumerate() {
            v.copy_from_slice(&store.n[e * d..(e + 1) * d]);
        }
        for (b, v) in self.z.iter_mut().enumerate() {
            v.copy_from_slice(&store.z[b * d..(b + 1) * d]);
        }
    }

    /// Copies state out into a flat [`VarStore`] shaped for the same
    /// graph — the inverse of [`NaiveAdmm::load_from`], so the engine's
    /// arrays can be compared bit for bit against the literal sweeps.
    /// `z_prev` is left alone: the paper's loop keeps no previous iterate.
    pub fn write_to(&self, store: &mut VarStore) {
        let d = store.dims();
        for (e, v) in self.x.iter().enumerate() {
            store.x[e * d..(e + 1) * d].copy_from_slice(v);
        }
        for (e, v) in self.m.iter().enumerate() {
            store.m[e * d..(e + 1) * d].copy_from_slice(v);
        }
        for (e, v) in self.u.iter().enumerate() {
            store.u[e * d..(e + 1) * d].copy_from_slice(v);
        }
        for (e, v) in self.n.iter().enumerate() {
            store.n[e * d..(e + 1) * d].copy_from_slice(v);
        }
        for (b, v) in self.z.iter().enumerate() {
            store.z[b * d..(b + 1) * d].copy_from_slice(v);
        }
    }

    /// The consensus estimate of variable `b`.
    #[cfg(test)]
    pub(crate) fn z(&self, b: usize) -> &[f64] {
        &self.z[b]
    }

    /// One full Algorithm 2 iteration, serial, scattered layout.
    pub fn iterate(&mut self) {
        let g = self.problem.graph();
        let params = self.problem.params();
        let d = g.dims();

        // x-update: gather each factor's n-blocks, run the prox, scatter x.
        for a in g.factors() {
            let er = g.factor_edge_range(a);
            let k = er.len();
            self.scratch_n.clear();
            for e in er.clone() {
                self.scratch_n.extend_from_slice(&self.n[e]);
            }
            self.scratch_x.clear();
            self.scratch_x.resize(k * d, 0.0);
            let rho = &params.rho[er.clone()];
            {
                let mut ctx = ProxCtx::new(&self.scratch_n, rho, &mut self.scratch_x, d);
                self.problem.prox(a).prox(&mut ctx);
            }
            for (i, e) in er.enumerate() {
                self.x[e].copy_from_slice(&self.scratch_x[i * d..(i + 1) * d]);
            }
        }

        // m-update.
        for e in 0..g.num_edges() {
            for c in 0..d {
                self.m[e][c] = self.x[e][c] + self.u[e][c];
            }
        }

        // z-update (same ascending-edge summation order as the engine →
        // bit-identical floating-point results).
        for b in g.vars() {
            let edges = g.var_edges(b);
            if edges.is_empty() {
                continue;
            }
            let zb = &mut self.z[b.idx()];
            zb.iter_mut().for_each(|v| *v = 0.0);
            let mut rho_sum = 0.0;
            for &e in edges {
                let rho = params.rho(e);
                rho_sum += rho;
                for c in 0..d {
                    zb[c] += rho * self.m[e.idx()][c];
                }
            }
            let inv = 1.0 / rho_sum;
            zb.iter_mut().for_each(|v| *v *= inv);
        }

        // u-update, under the engine's subnormal rule (one definition).
        for e in g.edges() {
            let b = g.edge_var(e);
            let alpha = params.alpha(e);
            for c in 0..d {
                self.u[e.idx()][c] = flush_subnormal(
                    self.u[e.idx()][c] + alpha * (self.x[e.idx()][c] - self.z[b.idx()][c]),
                );
            }
        }

        // n-update.
        for e in g.edges() {
            let b = g.edge_var(e);
            for c in 0..d {
                self.n[e.idx()][c] = self.z[b.idx()][c] - self.u[e.idx()][c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AutoBackend, SerialBackend, SweepExecutor};
    use crate::plan::SweepPlan;
    use crate::pool::PoolBackend;
    use crate::stale::StaleBoundedBackend;
    use crate::timing::UpdateTimings;
    use paradmm_graph::{GraphBuilder, VarStore};
    use paradmm_prox::{HalfspaceProx, ProxOp, QuadraticProx};

    fn mixed_problem() -> AdmmProblem {
        // Two variables (dims 2), three factors of mixed type.
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(2);
        b.add_factor(&[vs[0]]);
        b.add_factor(&[vs[0], vs[1]]);
        b.add_factor(&[vs[1]]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(2, 1.0, &[1.0, -1.0])),
            Box::new(HalfspaceProx::new(vec![1.0, 0.0, 1.0, 0.0], 3.0)),
            Box::new(QuadraticProx::isotropic(2, 0.5, &[2.0, 0.5])),
        ];
        AdmmProblem::new(b.build(), proxes, 1.3, 0.9)
    }

    /// One hub variable shared by every factor, an isolated variable whose
    /// `z` must carry forward, and a different ρ and α on every edge.
    fn hub_problem() -> AdmmProblem {
        let mut b = GraphBuilder::new(2);
        let hub = b.add_var();
        let _isolated = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..9 {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
            let t = i as f64 * 0.3;
            proxes.push(Box::new(QuadraticProx::isotropic(4, 1.0, &[t, -t, 1.0, t])));
        }
        let mut problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let params = problem.params_mut();
        for (i, r) in params.rho.as_mut_slice().iter_mut().enumerate() {
            *r = 0.5 + (i as f64 * 0.37).sin().abs();
        }
        for (i, a) in params.alpha.as_mut_slice().iter_mut().enumerate() {
            *a = 0.3 + (i as f64 * 0.23).cos().abs();
        }
        problem
    }

    /// The differential oracle: every synchronous executor, run in blocks
    /// of uneven length from a seeded state, leaves `x`, `m`, `u`, `n` and
    /// `z` bit-identical to the paper's literal five sweeps.
    #[test]
    fn naive_matches_engine_bit_for_bit() {
        let bits = |s: &VarStore| -> Vec<Vec<u64>> {
            [&s.x, &s.m, &s.u, &s.n, &s.z]
                .iter()
                .map(|a| a.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for (label, make) in [("mixed", mixed_problem as fn() -> _), ("hub", hub_problem)] {
            let problem = make();
            // The fleet claims one item per chunk, so every claim contends.
            let mut chunk_one = make();
            chunk_one.set_plan(SweepPlan::fused_chunked(&chunk_one, 1));
            let mut seed = VarStore::zeros(problem.graph());
            for (i, v) in seed.n.iter_mut().enumerate() {
                *v = (i as f64 * 0.7).sin();
            }
            for (i, v) in seed.z.iter_mut().enumerate() {
                *v = (i as f64 * 0.3).cos();
            }
            let executors: Vec<(Box<dyn SweepExecutor>, &AdmmProblem)> = vec![
                (Box::new(SerialBackend), &problem),
                (Box::new(PoolBackend::new(2)), &problem),
                (Box::new(PoolBackend::new(3)), &problem),
                (Box::new(StaleBoundedBackend::new(2, 0)), &problem),
                (Box::new(PoolBackend::new(2)), &chunk_one),
                (Box::new(AutoBackend::new(2)), &problem),
            ];
            for (mut exec, problem) in executors {
                let mut naive = NaiveAdmm::new(problem);
                naive.load_from(&seed);
                let (mut store, mut want) = (seed.clone(), seed.clone());
                let mut t = UpdateTimings::new();
                for block in [1usize, 4, 7, 13] {
                    exec.run_block(problem, &mut store, block, &mut t);
                    for _ in 0..block {
                        naive.iterate();
                    }
                    naive.write_to(&mut want);
                    let at = format!("{label}: {} after a block of {block}", exec.name());
                    assert_eq!(bits(&store), bits(&want), "{at}");
                }
            }
        }
    }

    #[test]
    fn naive_converges_on_consensus() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1.0, &[0.0])),
            Box::new(QuadraticProx::isotropic(1, 1.0, &[4.0])),
        ];
        let problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
        let mut naive = NaiveAdmm::new(&problem);
        for _ in 0..500 {
            naive.iterate();
        }
        assert!((naive.z(0)[0] - 2.0).abs() < 1e-6);
    }
}
