//! `addNode`-style incremental construction of a factor graph.

use crate::graph::FactorGraph;
use crate::ids::{FactorId, VarId};

/// Incremental factor-graph builder, mirroring the paper's
/// `startG` / `addNode` C API: variables are declared (or auto-created) and
/// factors are appended one at a time, each listing the variables it touches.
///
/// Edge ids are assigned in append order, so the edges of each factor are
/// contiguous — the property the engine's x-update and the GPU-coalescing
/// model rely on.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    dims: usize,
    num_vars: usize,
    factor_offsets: Vec<u32>,
    edge_var: Vec<VarId>,
}

impl GraphBuilder {
    /// Starts an empty graph whose edge vectors have `dims` components
    /// (the paper's `number_of_dims_per_edge`). `dims` must be ≥ 1.
    pub fn new(dims: usize) -> Self {
        assert!(dims >= 1, "dims must be at least 1");
        GraphBuilder {
            dims,
            num_vars: 0,
            factor_offsets: vec![0],
            edge_var: Vec::new(),
        }
    }

    /// Pre-reserves capacity for `factors` factors and `edges` edges.
    pub fn with_capacity(dims: usize, factors: usize, edges: usize) -> Self {
        let mut b = GraphBuilder::new(dims);
        b.factor_offsets.reserve(factors);
        b.edge_var.reserve(edges);
        b
    }

    /// Declares a fresh variable node and returns its id.
    pub fn add_var(&mut self) -> VarId {
        let id = VarId::from_usize(self.num_vars);
        self.num_vars += 1;
        id
    }

    /// Declares `n` fresh variable nodes, returning their ids.
    pub fn add_vars(&mut self, n: usize) -> Vec<VarId> {
        (0..n).map(|_| self.add_var()).collect()
    }

    /// Appends a factor connected to `vars` (the paper's `addNode`).
    ///
    /// A factor may touch the same variable more than once only by design of
    /// the caller; duplicates are rejected because the z-average would
    /// double-count the edge.
    ///
    /// # Panics
    /// If `vars` is empty, contains a duplicate, or references an undeclared
    /// variable.
    pub fn add_factor(&mut self, vars: &[VarId]) -> FactorId {
        assert!(
            !vars.is_empty(),
            "a factor must touch at least one variable"
        );
        for (i, v) in vars.iter().enumerate() {
            assert!(
                v.idx() < self.num_vars,
                "factor references undeclared variable {v}"
            );
            assert!(!vars[..i].contains(v), "factor lists variable {v} twice");
        }
        let id = FactorId::from_usize(self.factor_offsets.len() - 1);
        self.edge_var.extend_from_slice(vars);
        self.factor_offsets.push(self.edge_var.len() as u32);
        id
    }

    /// Finalizes into an immutable [`FactorGraph`], building the reverse
    /// adjacency.
    pub fn build(self) -> FactorGraph {
        FactorGraph::from_parts(self.dims, self.num_vars, self.factor_offsets, self.edge_var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vars(), 0);
        assert_eq!(g.num_factors(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.dims(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn add_vars_sequential_ids() {
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(4);
        assert_eq!(vs, vec![VarId(0), VarId(1), VarId(2), VarId(3)]);
    }

    #[test]
    fn factor_ids_sequential() {
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(2);
        assert_eq!(b.add_factor(&[vs[0]]), FactorId(0));
        assert_eq!(b.add_factor(&[vs[1]]), FactorId(1));
        assert_eq!(b.add_factor(&[vs[0], vs[1]]), FactorId(2));
        assert_eq!(b.build().num_edges(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn empty_factor_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_factor(&[]);
    }

    #[test]
    #[should_panic(expected = "undeclared variable")]
    fn undeclared_variable_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_factor(&[VarId(0)]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_variable_rejected() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v, v]);
    }

    #[test]
    #[should_panic(expected = "dims must be at least 1")]
    fn zero_dims_rejected() {
        let _ = GraphBuilder::new(0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(2, 10, 30);
        let vs = b.add_vars(3);
        b.add_factor(&vs);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }
}
