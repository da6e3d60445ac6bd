//! Locality-aware factor/variable/edge reordering (reverse Cuthill–McKee).
//!
//! The sweep kernels stream the flat edge arrays sequentially, but the
//! z-update gathers `m`/`ρ` through the variable→edge adjacency and the
//! u/n sweeps gather `z` through edge→variable. On graphs built in an
//! adversarial creation order those gathers jump across the whole array.
//! A bandwidth-reducing permutation (classic RCM, here run on the factor
//! adjacency that [`crate::Partition::grow`] also walks) renumbers
//! factors — and with them edges (factor-contiguous, as the builder lays
//! them out) and variables (first touch) — so that every gather lands
//! near the cursor.
//!
//! **Bit-identity.** Renumbering edges would normally change the
//! floating-point association of the z-average, because `from_parts`
//! sorts each variable's fold list ascending by (new) edge id. A
//! [`Reordering`] therefore re-sorts the permuted graph's fold lists by
//! *original* edge id (`FactorGraph::sort_var_edges_by_key`), so the
//! permuted problem performs exactly the source problem's additions in
//! exactly the source order: permute → solve → [`Reordering::restore_store`]
//! is bit-identical to solving in natural order. That contract is pinned
//! by a proptest here and an end-to-end suite in `tests/`.

use crate::graph::FactorGraph;
use crate::ids::{EdgeId, FactorId, VarId};
use crate::params::EdgeParams;
use crate::store::VarStore;

/// An exact, invertible renumbering of one graph's factors, variables and
/// edges (all maps are old-index → new-index).
#[derive(Debug, Clone)]
pub struct Reordering {
    dims: usize,
    /// Old factor id → new factor id.
    factor_perm: Vec<u32>,
    /// Old variable id → new variable id.
    var_perm: Vec<u32>,
    /// Old edge id → new edge id.
    edge_perm: Vec<u32>,
}

impl Reordering {
    /// The identity reordering of `graph` (useful as a baseline).
    #[cfg(test)]
    pub(crate) fn identity(graph: &FactorGraph) -> Self {
        Reordering {
            dims: graph.dims(),
            factor_perm: (0..graph.num_factors() as u32).collect(),
            var_perm: (0..graph.num_vars() as u32).collect(),
            edge_perm: (0..graph.num_edges() as u32).collect(),
        }
    }

    /// Reverse Cuthill–McKee over the factor adjacency: BFS from a
    /// minimum-degree seed per component, neighbours visited in ascending
    /// degree order, final order reversed. Variables are numbered by
    /// first touch in the new factor order; edges follow their factor.
    pub fn rcm(graph: &FactorGraph) -> Self {
        let nf = graph.num_factors();
        let mut visited = vec![false; nf];
        let mut order: Vec<FactorId> = Vec::with_capacity(nf);
        let mut queue = std::collections::VecDeque::new();
        // Seeds in ascending degree (stable in id for ties): RCM's usual
        // pseudo-peripheral heuristic, cheap and deterministic.
        let mut seeds: Vec<FactorId> = graph.factors().collect();
        seeds.sort_by_key(|&a| (graph.factor_degree(a), a.idx()));
        // Stamp-based dedup of each factor's neighbour set.
        let mut stamp = vec![u32::MAX; nf];
        let mut neigh: Vec<FactorId> = Vec::new();

        for seed in seeds {
            if visited[seed.idx()] {
                continue;
            }
            visited[seed.idx()] = true;
            queue.push_back(seed);
            while let Some(a) = queue.pop_front() {
                order.push(a);
                neigh.clear();
                for &b in graph.factor_vars(a) {
                    for &e in graph.var_edges(b) {
                        let f = graph.edge_factor(e);
                        if !visited[f.idx()] && stamp[f.idx()] != a.idx() as u32 {
                            stamp[f.idx()] = a.idx() as u32;
                            neigh.push(f);
                        }
                    }
                }
                neigh.sort_by_key(|&f| (graph.factor_degree(f), f.idx()));
                for &f in &neigh {
                    visited[f.idx()] = true;
                    queue.push_back(f);
                }
            }
        }
        order.reverse();
        Self::from_factor_order(graph, &order)
    }

    /// Builds the full reordering from an explicit new factor order
    /// (`order[j]` = old id of the factor placed at new position `j`).
    ///
    /// # Panics
    /// If `order` is not a permutation of the graph's factors.
    pub fn from_factor_order(graph: &FactorGraph, order: &[FactorId]) -> Self {
        let (nf, nv, ne) = (graph.num_factors(), graph.num_vars(), graph.num_edges());
        assert_eq!(order.len(), nf, "order must list every factor once");
        let mut factor_perm = vec![u32::MAX; nf];
        let mut edge_perm = vec![u32::MAX; ne];
        let mut var_perm = vec![u32::MAX; nv];
        let mut next_edge = 0u32;
        let mut next_var = 0u32;
        for (j, &a) in order.iter().enumerate() {
            assert_eq!(factor_perm[a.idx()], u32::MAX, "duplicate factor {a:?}");
            factor_perm[a.idx()] = j as u32;
            for e in graph.factor_edge_range(a) {
                edge_perm[e] = next_edge;
                next_edge += 1;
                let b = graph.edge_var(EdgeId::from_usize(e));
                if var_perm[b.idx()] == u32::MAX {
                    var_perm[b.idx()] = next_var;
                    next_var += 1;
                }
            }
        }
        // Degree-0 variables keep their relative order, after all touched
        // ones.
        for slot in var_perm.iter_mut() {
            if *slot == u32::MAX {
                *slot = next_var;
                next_var += 1;
            }
        }
        Reordering {
            dims: graph.dims(),
            factor_perm,
            var_perm,
            edge_perm,
        }
    }

    /// Old factor id → new factor id.
    pub fn factor_perm(&self) -> &[u32] {
        &self.factor_perm
    }

    /// The permuted graph. Its z-fold lists are re-sorted to the source
    /// graph's fold order (see module docs), so solving the permuted
    /// problem reproduces the natural-order solve bit for bit.
    pub fn apply_graph(&self, graph: &FactorGraph) -> FactorGraph {
        let (nf, ne) = (graph.num_factors(), graph.num_edges());
        assert_eq!(
            nf,
            self.factor_perm.len(),
            "reordering built for another graph"
        );
        assert_eq!(
            ne,
            self.edge_perm.len(),
            "reordering built for another graph"
        );
        // New position → old factor.
        let mut old_factor = vec![0u32; nf];
        for (old, &new) in self.factor_perm.iter().enumerate() {
            old_factor[new as usize] = old as u32;
        }
        let mut offsets = Vec::with_capacity(nf + 1);
        let mut edge_var = Vec::with_capacity(ne);
        offsets.push(0u32);
        for &a in &old_factor {
            for &b in graph.factor_vars(FactorId(a)) {
                edge_var.push(VarId(self.var_perm[b.idx()]));
            }
            offsets.push(edge_var.len() as u32);
        }
        let mut g = FactorGraph::from_parts(self.dims, graph.num_vars(), offsets, edge_var);
        // New edge id → old edge id, the fold-order key.
        let mut old_edge = vec![0u32; ne];
        for (old, &new) in self.edge_perm.iter().enumerate() {
            old_edge[new as usize] = old as u32;
        }
        g.sort_var_edges_by_key(|e| old_edge[e.idx()] as u64);
        g
    }

    /// The permuted per-edge parameters.
    pub fn apply_params(&self, params: &EdgeParams) -> EdgeParams {
        EdgeParams {
            rho: permute_blocks(&params.rho, &self.edge_perm, 1).into(),
            alpha: permute_blocks(&params.alpha, &self.edge_perm, 1).into(),
        }
    }

    /// The permuted state (`x/m/u/n` by edge, `z/z_prev` by variable).
    pub fn apply_store(&self, store: &VarStore) -> VarStore {
        let mut out = VarStore::zeros_shape(self.dims, self.edge_perm.len(), self.var_perm.len());
        for (arr, out_arr) in [
            (&store.x, &mut out.x),
            (&store.m, &mut out.m),
            (&store.u, &mut out.u),
            (&store.n, &mut out.n),
        ] {
            permute_blocks_into(arr, &self.edge_perm, self.dims, out_arr);
        }
        permute_blocks_into(&store.z, &self.var_perm, self.dims, &mut out.z);
        permute_blocks_into(&store.z_prev, &self.var_perm, self.dims, &mut out.z_prev);
        out
    }

    /// Exact inverse of [`Reordering::apply_store`]: maps a permuted
    /// state back to natural order, bit for bit.
    pub fn restore_store(&self, store: &VarStore) -> VarStore {
        let mut out = VarStore::zeros_shape(self.dims, self.edge_perm.len(), self.var_perm.len());
        for (arr, out_arr) in [
            (&store.x, &mut out.x),
            (&store.m, &mut out.m),
            (&store.u, &mut out.u),
            (&store.n, &mut out.n),
        ] {
            unpermute_blocks_into(arr, &self.edge_perm, self.dims, out_arr);
        }
        unpermute_blocks_into(&store.z, &self.var_perm, self.dims, &mut out.z);
        unpermute_blocks_into(&store.z_prev, &self.var_perm, self.dims, &mut out.z_prev);
        out
    }

    /// Mean |new id distance| between consecutive edges of each
    /// variable's fold list in the *new* numbering — the locality metric
    /// RCM minimizes (lower = z-gathers touch nearby cache lines).
    #[cfg(test)]
    pub(crate) fn fold_span(&self, graph: &FactorGraph) -> f64 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for b in graph.vars() {
            let edges = graph.var_edges(b);
            for w in edges.windows(2) {
                let a = self.edge_perm[w[0].idx()] as f64;
                let c = self.edge_perm[w[1].idx()] as f64;
                total += (a - c).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// `out[perm[i]*d ..] = src[i*d ..]` for every block `i`.
fn permute_blocks(src: &[f64], perm: &[u32], dims: usize) -> Vec<f64> {
    let mut out = vec![0.0; src.len()];
    permute_blocks_into(src, perm, dims, &mut out);
    out
}

fn permute_blocks_into(src: &[f64], perm: &[u32], dims: usize, out: &mut [f64]) {
    assert_eq!(src.len(), perm.len() * dims);
    for (old, &new) in perm.iter().enumerate() {
        let (o, n) = (old * dims, new as usize * dims);
        out[n..n + dims].copy_from_slice(&src[o..o + dims]);
    }
}

fn unpermute_blocks_into(src: &[f64], perm: &[u32], dims: usize, out: &mut [f64]) {
    assert_eq!(src.len(), perm.len() * dims);
    for (old, &new) in perm.iter().enumerate() {
        let (o, n) = (old * dims, new as usize * dims);
        out[o..o + dims].copy_from_slice(&src[n..n + dims]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// Random sparse graph: `nf` factors of degree 1–4 over `nv` vars.
    fn random_graph(nv: usize, picks: &[usize], dims: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(nv);
        let mut i = 0;
        while i < picks.len() {
            let deg = 1 + picks[i] % 4;
            let mut vars = Vec::new();
            for k in 0..deg {
                let v = vs[picks[(i + 1 + k) % picks.len()] % nv];
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            b.add_factor(&vars);
            i += deg + 1;
        }
        b.build()
    }

    fn figure1() -> FactorGraph {
        let mut b = GraphBuilder::new(2);
        let w: Vec<VarId> = (0..5).map(|_| b.add_var()).collect();
        b.add_factor(&[w[0], w[1], w[2]]);
        b.add_factor(&[w[0], w[3], w[4]]);
        b.add_factor(&[w[1], w[4]]);
        b.add_factor(&[w[4]]);
        b.build()
    }

    #[test]
    fn identity_is_identity() {
        let g = figure1();
        let r = Reordering::identity(&g);
        let g2 = r.apply_graph(&g);
        assert_eq!(g2.num_edges(), g.num_edges());
        for e in g.edges() {
            assert_eq!(g2.edge_var(e), g.edge_var(e));
        }
        for b in g.vars() {
            assert_eq!(g2.var_edges(b), g.var_edges(b));
        }
        g2.validate().unwrap();
    }

    #[test]
    fn rcm_produces_valid_permutation() {
        let g = figure1();
        let r = Reordering::rcm(&g);
        let mut seen = vec![false; g.num_factors()];
        for &p in r.factor_perm() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        let g2 = r.apply_graph(&g);
        g2.validate().unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_vars(), g.num_vars());
        // Structure is preserved up to renumbering: each old factor's
        // variable multiset maps onto its new position's.
        for a in g.factors() {
            let new_a = FactorId(r.factor_perm()[a.idx()]);
            let mapped: Vec<u32> = g
                .factor_vars(a)
                .iter()
                .map(|b| r.var_perm[b.idx()])
                .collect();
            let got: Vec<u32> = g2.factor_vars(new_a).iter().map(|v| v.0).collect();
            assert_eq!(mapped, got);
        }
    }

    #[test]
    fn fold_order_tracks_source_graph() {
        let g = figure1();
        let r = Reordering::rcm(&g);
        let g2 = r.apply_graph(&g);
        // New edge → old edge.
        let mut old_edge = vec![0u32; g.num_edges()];
        for (old, &new) in r.edge_perm.iter().enumerate() {
            old_edge[new as usize] = old as u32;
        }
        for b in g.vars() {
            let new_b = VarId(r.var_perm[b.idx()]);
            let natural: Vec<u32> = g.var_edges(b).iter().map(|e| e.0).collect();
            let via_new: Vec<u32> = g2
                .var_edges(new_b)
                .iter()
                .map(|e| old_edge[e.idx()])
                .collect();
            assert_eq!(natural, via_new, "fold order must match at var {b:?}");
        }
    }

    #[test]
    fn rcm_improves_chain_built_backwards() {
        // A chain whose factors were added in a deliberately scattered
        // order: RCM must bring the mean fold span down to the natural
        // chain's O(1).
        let n = 64usize;
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(n + 1);
        let mut order: Vec<usize> = (0..n).collect();
        // Bit-reversal-ish shuffle (deterministic, very non-local).
        order.sort_by_key(|&i| (i * 37) % n);
        for &i in &order {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        let g = b.build();
        let natural = Reordering::identity(&g).fold_span(&g);
        let rcm = Reordering::rcm(&g).fold_span(&g);
        assert!(
            rcm < natural * 0.25,
            "RCM span {rcm} should beat scattered span {natural}"
        );
    }

    #[test]
    fn params_and_store_permute_exactly() {
        let g = figure1();
        let r = Reordering::rcm(&g);
        let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
        for (i, v) in p.rho.iter_mut().enumerate() {
            *v = 1.0 + i as f64;
        }
        let p2 = r.apply_params(&p);
        for e in g.edges() {
            let new_e = EdgeId(r.edge_perm[e.idx()]);
            assert_eq!(p2.rho(new_e), p.rho(e));
        }
        let mut s = VarStore::zeros(&g);
        for (i, v) in s.x.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        for (i, v) in s.z.iter_mut().enumerate() {
            *v = -(i as f64);
        }
        let s2 = r.apply_store(&s);
        for e in g.edges() {
            let new_e = EdgeId(r.edge_perm[e.idx()]);
            assert_eq!(&s2.x[s2.edge_range(new_e)], &s.x[s.edge_range(e)]);
        }
        for b in g.vars() {
            let new_b = VarId(r.var_perm[b.idx()]);
            assert_eq!(s2.z_var(new_b), s.z_var(b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// apply_store then restore_store is the bitwise identity on
        /// random graphs and random state, for both RCM and identity.
        #[test]
        fn store_roundtrip_is_bitwise_identity(
            nv in 2usize..20,
            picks in proptest::collection::vec(0usize..50, 4..80),
            dims in 1usize..5,
            fill in proptest::collection::vec(-1e3f64..1e3, 16),
        ) {
            let g = random_graph(nv, &picks, dims);
            prop_assume!(g.num_factors() > 0);
            let mut s = VarStore::zeros(&g);
            let mut k = 0usize;
            for arr in [&mut s.x, &mut s.m, &mut s.u, &mut s.n, &mut s.z, &mut s.z_prev] {
                for v in arr.iter_mut() {
                    *v = fill[k % fill.len()] * ((k as f64 * 0.7).sin() + 0.1);
                    k += 1;
                }
            }
            for r in [Reordering::rcm(&g), Reordering::identity(&g)] {
                let back = r.restore_store(&r.apply_store(&s));
                prop_assert_eq!(&back.x, &s.x);
                prop_assert_eq!(&back.m, &s.m);
                prop_assert_eq!(&back.u, &s.u);
                prop_assert_eq!(&back.n, &s.n);
                prop_assert_eq!(&back.z, &s.z);
                prop_assert_eq!(&back.z_prev, &s.z_prev);
                let g2 = r.apply_graph(&g);
                prop_assert!(g2.validate().is_ok());
            }
        }
    }
}
