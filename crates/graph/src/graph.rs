//! Immutable CSR factor-graph topology.

use crate::ids::{EdgeId, FactorId, VarId};

/// Immutable bipartite factor-graph `G = (F, V, E)` in CSR form.
///
/// Edges are numbered in creation order, and because [`crate::GraphBuilder`]
/// (crate::builder::GraphBuilder) appends all edges of a factor at once, the
/// edges of factor `a` occupy the contiguous range
/// [`FactorGraph::factor_edge_range`]. This is the exact memory layout of
/// the paper's C implementation (`Gpu_graph.x = [x(1,1), x(1,2), …]`) and is
/// what makes the x-update's memory accesses coalesce on a GPU.
#[derive(Debug, Clone)]
pub struct FactorGraph {
    /// Number of components each `w_b` has (the paper's
    /// `number_of_dims_per_edge`). Every edge vector has this length.
    dims: usize,
    /// Number of variable nodes `|V|`.
    num_vars: usize,
    /// CSR offsets: edges of factor `a` are `factor_offsets[a]..factor_offsets[a+1]`.
    factor_offsets: Vec<u32>,
    /// Target variable of each edge, in edge order.
    edge_var: Vec<VarId>,
    /// Owning factor of each edge, in edge order.
    edge_factor: Vec<FactorId>,
    /// CSR offsets for the reverse adjacency: edges of variable `b` are
    /// `var_edges[var_offsets[b]..var_offsets[b+1]]`.
    var_offsets: Vec<u32>,
    /// Edge ids incident to each variable, grouped by variable.
    var_edges: Vec<EdgeId>,
}

impl FactorGraph {
    pub(crate) fn from_parts(
        dims: usize,
        num_vars: usize,
        factor_offsets: Vec<u32>,
        edge_var: Vec<VarId>,
    ) -> Self {
        let num_edges = edge_var.len();
        // Derive edge -> factor from the CSR offsets.
        let mut edge_factor = Vec::with_capacity(num_edges);
        for a in 0..factor_offsets.len() - 1 {
            for _ in factor_offsets[a]..factor_offsets[a + 1] {
                edge_factor.push(FactorId::from_usize(a));
            }
        }
        // Build the reverse CSR (variable -> edges) with a counting sort so
        // each variable's edge list is itself in ascending edge order.
        let mut counts = vec![0u32; num_vars + 1];
        for v in &edge_var {
            counts[v.idx() + 1] += 1;
        }
        for i in 0..num_vars {
            counts[i + 1] += counts[i];
        }
        let var_offsets = counts.clone();
        let mut cursor = counts;
        let mut var_edges = vec![EdgeId(0); num_edges];
        for (e, v) in edge_var.iter().enumerate() {
            let slot = cursor[v.idx()] as usize;
            var_edges[slot] = EdgeId::from_usize(e);
            cursor[v.idx()] += 1;
        }
        FactorGraph {
            dims,
            num_vars,
            factor_offsets,
            edge_var,
            edge_factor,
            var_offsets,
            var_edges,
        }
    }

    /// Re-sorts each variable's edge list by `key`.
    ///
    /// The z-update folds each variable's messages in `var_edges` order,
    /// so this order **is** the floating-point association of the
    /// consensus average. [`from_parts`](FactorGraph::from_parts) builds
    /// it ascending by edge id; the reorder module uses this hook to make
    /// a permuted graph fold in its *source* graph's order (bit-identical
    /// solves), and sharding uses it to make shard-local graphs fold in
    /// the global graph's order. Keys must be distinct per variable.
    pub(crate) fn sort_var_edges_by_key(&mut self, mut key: impl FnMut(EdgeId) -> u64) {
        for b in 0..self.num_vars {
            let lo = self.var_offsets[b] as usize;
            let hi = self.var_offsets[b + 1] as usize;
            self.var_edges[lo..hi].sort_unstable_by_key(|&e| key(e));
        }
    }

    /// Components per edge vector (`d`).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// `|V|`: number of variable nodes.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// `|F|`: number of function nodes.
    #[inline]
    pub fn num_factors(&self) -> usize {
        self.factor_offsets.len() - 1
    }

    /// `|E|`: number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_var.len()
    }

    /// The contiguous edge-index range owned by factor `a` (its `∂a`).
    #[inline]
    pub fn factor_edge_range(&self, a: FactorId) -> std::ops::Range<usize> {
        self.factor_offsets[a.idx()] as usize..self.factor_offsets[a.idx() + 1] as usize
    }

    /// The CSR offsets behind [`FactorGraph::factor_edge_range`], one per
    /// factor plus the sentinel: factor `a` owns edges
    /// `offsets[a]..offsets[a + 1]`. For sweeps that walk many consecutive
    /// factors and want to cut the array once.
    #[inline]
    pub fn factor_offsets(&self) -> &[u32] {
        &self.factor_offsets
    }

    /// Degree `|∂a|` of factor `a`.
    #[inline]
    pub fn factor_degree(&self, a: FactorId) -> usize {
        self.factor_edge_range(a).len()
    }

    /// The variables factor `a` touches, in edge order.
    #[inline]
    pub fn factor_vars(&self, a: FactorId) -> &[VarId] {
        &self.edge_var[self.factor_edge_range(a)]
    }

    /// Edges incident to variable `b` (its `∂b`), ascending.
    #[inline]
    pub fn var_edges(&self, b: VarId) -> &[EdgeId] {
        let lo = self.var_offsets[b.idx()] as usize;
        let hi = self.var_offsets[b.idx() + 1] as usize;
        &self.var_edges[lo..hi]
    }

    /// Degree `|∂b|` of variable `b`.
    #[inline]
    pub fn var_degree(&self, b: VarId) -> usize {
        (self.var_offsets[b.idx() + 1] - self.var_offsets[b.idx()]) as usize
    }

    /// Variable at the far end of edge `e`.
    #[inline]
    pub fn edge_var(&self, e: EdgeId) -> VarId {
        self.edge_var[e.idx()]
    }

    /// The array behind [`FactorGraph::edge_var`]: the target variable of
    /// every edge, in edge order. For sweeps that walk many edges and
    /// want to cut the array once.
    #[inline]
    pub fn edge_vars(&self) -> &[VarId] {
        &self.edge_var
    }

    /// Factor owning edge `e`.
    #[inline]
    pub fn edge_factor(&self, e: EdgeId) -> FactorId {
        self.edge_factor[e.idx()]
    }

    /// Iterator over all factor ids.
    pub fn factors(&self) -> impl Iterator<Item = FactorId> + '_ {
        (0..self.num_factors()).map(FactorId::from_usize)
    }

    /// Iterator over all variable ids.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.num_vars()).map(VarId::from_usize)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from_usize)
    }

    /// Checks internal CSR consistency; used by tests and after
    /// deserialization of untrusted topologies.
    pub fn validate(&self) -> Result<(), String> {
        if self.factor_offsets.is_empty() {
            return Err("factor_offsets must contain at least one sentinel".into());
        }
        if *self.factor_offsets.last().unwrap() as usize != self.num_edges() {
            return Err("factor_offsets sentinel disagrees with edge count".into());
        }
        if self.factor_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("factor_offsets not monotone".into());
        }
        if self.var_offsets.len() != self.num_vars + 1 {
            return Err("var_offsets has wrong length".into());
        }
        if *self.var_offsets.last().unwrap() as usize != self.num_edges() {
            return Err("var_offsets sentinel disagrees with edge count".into());
        }
        for (e, v) in self.edge_var.iter().enumerate() {
            if v.idx() >= self.num_vars {
                return Err(format!("edge {e} references out-of-range variable {v}"));
            }
        }
        // Reverse adjacency must be the exact inverse of edge_var.
        for b in self.vars() {
            for &e in self.var_edges(b) {
                if self.edge_var(e) != b {
                    return Err(format!("reverse adjacency corrupt at {b}/{e}"));
                }
            }
        }
        let total: usize = self.vars().map(|b| self.var_degree(b)).sum();
        if total != self.num_edges() {
            return Err("variable degrees do not sum to edge count".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The running example from the paper's Figure 1:
    /// f1(w1,w2,w3) + f2(w1,w4,w5) + f3(w2,w5) + f4(w5).
    pub(crate) fn figure1_graph() -> FactorGraph {
        let mut b = GraphBuilder::new(1);
        let w: Vec<VarId> = (0..5).map(|_| b.add_var()).collect();
        b.add_factor(&[w[0], w[1], w[2]]);
        b.add_factor(&[w[0], w[3], w[4]]);
        b.add_factor(&[w[1], w[4]]);
        b.add_factor(&[w[4]]);
        b.build()
    }

    #[test]
    fn figure1_counts() {
        let g = figure1_graph();
        assert_eq!(g.num_vars(), 5);
        assert_eq!(g.num_factors(), 4);
        assert_eq!(g.num_edges(), 9);
        g.validate().unwrap();
    }

    #[test]
    fn figure1_edge_order_matches_paper() {
        // Gpu_graph.x = [x(1,1) x(1,2) x(1,3) x(2,1) x(2,4) x(2,5) x(3,2) x(3,5) x(4,5)]
        let g = figure1_graph();
        let order: Vec<u32> = g.edges().map(|e| g.edge_var(e).0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 3, 4, 1, 4, 4]);
    }

    #[test]
    fn figure1_factor_ranges_contiguous() {
        let g = figure1_graph();
        assert_eq!(g.factor_edge_range(FactorId(0)), 0..3);
        assert_eq!(g.factor_edge_range(FactorId(1)), 3..6);
        assert_eq!(g.factor_edge_range(FactorId(2)), 6..8);
        assert_eq!(g.factor_edge_range(FactorId(3)), 8..9);
    }

    #[test]
    fn figure1_degrees() {
        let g = figure1_graph();
        let fdeg: Vec<usize> = g.factors().map(|a| g.factor_degree(a)).collect();
        assert_eq!(fdeg, vec![3, 3, 2, 1]);
        let vdeg: Vec<usize> = g.vars().map(|b| g.var_degree(b)).collect();
        assert_eq!(vdeg, vec![2, 2, 1, 1, 3]);
    }

    #[test]
    fn reverse_adjacency_is_sorted_and_inverse() {
        let g = figure1_graph();
        for b in g.vars() {
            let edges = g.var_edges(b);
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &e in edges {
                assert_eq!(g.edge_var(e), b);
            }
        }
    }

    #[test]
    fn edge_factor_matches_ranges() {
        let g = figure1_graph();
        for a in g.factors() {
            for e in g.factor_edge_range(a) {
                assert_eq!(g.edge_factor(EdgeId::from_usize(e)), a);
            }
        }
    }

    #[test]
    fn clone_roundtrip() {
        // Persistence goes through the hand-rolled binary codec in
        // `crate::io`; here we only check that a deep copy of the CSR
        // arrays still satisfies every structural invariant.
        let g = figure1_graph();
        let copy = g.clone();
        assert_eq!(copy.num_edges(), g.num_edges());
        copy.validate().unwrap();
    }

    #[test]
    fn isolated_variable_allowed() {
        let mut b = GraphBuilder::new(2);
        let v0 = b.add_var();
        let _lonely = b.add_var();
        b.add_factor(&[v0]);
        let g = b.build();
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.var_degree(VarId(1)), 0);
        g.validate().unwrap();
    }
}
