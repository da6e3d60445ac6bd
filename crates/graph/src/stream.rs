//! Flat per-edge view for the u/n sweeps.
//!
//! The u- and n-updates are edge-local, but the natural way to write them
//! walks `EdgeId` accessors (`params.alpha(e)`, `graph.edge_var(e)`, then
//! `b.idx() * dims`) — indirections per edge that the optimizer cannot
//! hoist because `EdgeParams` and `FactorGraph` live behind separate
//! references. [`EdgeStream`] cuts the two dense per-edge arrays the
//! kernels need once — `params.alpha` and the graph's edge → variable
//! array ([`FactorGraph::edge_vars`]) — so the kernel inner loop is a
//! pure streaming pass: sequential loads of `α` and the target variable,
//! one gather into `z`, sequential updates of `u`/`n`. The u/n updates do
//! not read ρ, so the view does not carry it.
//!
//! A stream is a borrowed `Copy` view that owns no buffer: building it
//! checks two lengths and copies nothing, so an executor builds one
//! wherever it has the problem at hand and nothing is allocated per
//! block for it.

use crate::graph::FactorGraph;
use crate::ids::VarId;
use crate::params::EdgeParams;

/// Borrowed `(α, edge → variable)` per-edge view (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct EdgeStream<'a> {
    alpha: &'a [f64],
    edge_vars: &'a [VarId],
    dims: usize,
}

impl<'a> EdgeStream<'a> {
    /// Views `params` against `graph`'s topology.
    ///
    /// # Panics
    /// If the parameter arrays disagree with the edge count.
    pub fn build(graph: &'a FactorGraph, params: &'a EdgeParams) -> Self {
        let ne = graph.num_edges();
        assert_eq!(params.rho.len(), ne, "rho length != edge count");
        assert_eq!(params.alpha.len(), ne, "alpha length != edge count");
        EdgeStream {
            alpha: &params.alpha,
            edge_vars: graph.edge_vars(),
            dims: graph.dims(),
        }
    }

    /// Components per edge vector.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Per-edge `α`, dense and aligned.
    #[inline]
    pub fn alpha(&self) -> &'a [f64] {
        self.alpha
    }

    /// Per-edge target variable; edge `e`'s block of `z` starts at
    /// `edge_vars()[e].idx() * dims()`.
    #[inline]
    pub fn edge_vars(&self) -> &'a [VarId] {
        self.edge_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stream_matches_accessors() {
        let mut b = GraphBuilder::new(3);
        let vs = b.add_vars(4);
        b.add_factor(&[vs[0], vs[2]]);
        b.add_factor(&[vs[3], vs[1], vs[2]]);
        let g = b.build();
        let mut p = EdgeParams::uniform(&g, 2.0, 0.5);
        p.alpha[3] = 1.5;
        let s = EdgeStream::build(&g, &p);
        assert_eq!(s.edge_vars().len(), g.num_edges());
        assert_eq!(s.dims(), 3);
        for e in g.edges() {
            assert_eq!(s.alpha()[e.idx()], p.alpha(e));
            assert_eq!(s.edge_vars()[e.idx()], g.edge_var(e));
        }
        // A view, not a copy: both arrays are the problem's own.
        assert!(std::ptr::eq(s.alpha(), &p.alpha[..]));
    }

    #[test]
    #[should_panic(expected = "rho length")]
    fn shape_mismatch_rejected() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        let g = b.build();
        let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
        p.rho.truncate(0);
        let _ = EdgeStream::build(&g, &p);
    }
}
