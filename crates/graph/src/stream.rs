//! Flat per-edge parameter stream for the u/n sweeps.
//!
//! The u- and n-updates are edge-local, but the natural way to write them
//! walks `EdgeId` accessors (`params.alpha(e)`, `graph.edge_var(e)`, then
//! `b.idx() * dims`) — three indirections per edge that the optimizer
//! cannot hoist because `EdgeParams` and `FactorGraph` live behind
//! separate references. [`EdgeStream`] precomputes the per-edge pair
//! `(α, flat z-base index)` into two dense arrays, so the kernel inner
//! loop is a pure streaming pass: sequential loads of `alpha/z_base`,
//! one gather into `z`, sequential updates of `u`/`n`. The u/n updates
//! do not read ρ, so the stream does not copy it.
//!
//! A stream is a *snapshot* of `EdgeParams`, and params change between
//! blocks, so executors rebuild the stream once per `run_block` call
//! (O(|E|), amortized over the block's iterations) — or keep it with
//! state that is rebuilt when ρ or α changes — and never cache it on the
//! problem.

use crate::aligned::AlignedVec;
use crate::graph::FactorGraph;
use crate::params::EdgeParams;

/// Dense `(α, z-base)` per-edge stream (see module docs).
#[derive(Debug, Clone)]
pub struct EdgeStream {
    alpha: AlignedVec,
    /// Flat start index of each edge's variable block in `z`
    /// (`edge_var(e).idx() * dims`), precomputed so kernels index `z`
    /// without touching the graph.
    z_base: Vec<u32>,
    dims: usize,
}

impl EdgeStream {
    /// Snapshots `params` against `graph`'s topology.
    ///
    /// # Panics
    /// If the parameter arrays disagree with the edge count, or the flat
    /// `z` length exceeds `u32` indexing (4 G doubles — far beyond any
    /// in-memory problem).
    pub fn build(graph: &FactorGraph, params: &EdgeParams) -> Self {
        let ne = graph.num_edges();
        assert_eq!(params.rho.len(), ne, "rho length != edge count");
        assert_eq!(params.alpha.len(), ne, "alpha length != edge count");
        let dims = graph.dims();
        assert!(
            graph.num_vars().saturating_mul(dims) <= u32::MAX as usize,
            "flat z index exceeds u32"
        );
        let mut z_base = Vec::with_capacity(ne);
        for e in graph.edges() {
            z_base.push((graph.edge_var(e).idx() * dims) as u32);
        }
        EdgeStream {
            alpha: AlignedVec::from_slice(&params.alpha),
            z_base,
            dims,
        }
    }

    /// Components per edge vector.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Per-edge `α`, dense and aligned.
    #[inline]
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Per-edge flat `z` start index.
    #[inline]
    pub fn z_base(&self) -> &[u32] {
        &self.z_base
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
        assert_eq!(s.z_base().len(), g.num_edges());
        assert_eq!(s.dims(), 3);
        for e in g.edges() {
            assert_eq!(s.alpha()[e.idx()], p.alpha(e));
            assert_eq!(s.z_base()[e.idx()] as usize, g.edge_var(e).idx() * 3);
        }
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
