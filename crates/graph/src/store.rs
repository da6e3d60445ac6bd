//! Flat structure-of-arrays storage for the five ADMM auxiliary variables.

use crate::aligned::AlignedVec;
use crate::graph::FactorGraph;
use crate::ids::VarId;
#[cfg(test)]
use crate::ids::{EdgeId, FactorId};

/// ADMM state vectors, stored exactly as the paper stores GPU global memory:
///
/// * `x, m, u, n` — one `dims`-vector per **edge**, flattened into four 1-D
///   `f64` arrays in edge-creation order. Because a factor's edges are
///   contiguous, the whole x-block of factor `a` is one contiguous slice.
/// * `z` — one `dims`-vector per **variable node**, in variable order.
///
/// The engine hands mutable sub-slices of these arrays to parallel update
/// loops; the flat layout is what gives coalesced access on the simulated
/// GPU and streaming access on the CPU. Each array is an [`AlignedVec`]
/// (64-byte-aligned allocation, derefs to `[f64]`), so the SIMD sweep
/// kernels always see cache-line-aligned bases.
#[derive(Debug, Clone)]
pub struct VarStore {
    dims: usize,
    /// Per-edge `x`, the proximal-operator outputs.
    pub x: AlignedVec,
    /// Per-edge `m = x + u`, messages into the z-average.
    pub m: AlignedVec,
    /// Per-edge scaled dual `u`.
    pub u: AlignedVec,
    /// Per-edge `n = z − u`, the proximal-operator inputs.
    pub n: AlignedVec,
    /// Per-variable consensus `z`.
    pub z: AlignedVec,
    /// Previous iteration's `z`, for the dual-residual stopping criterion.
    pub z_prev: AlignedVec,
}

impl VarStore {
    /// Zero-initialized storage shaped for `graph`. A large zero store
    /// costs address space but no resident memory until it is written
    /// ([`AlignedVec::zeros`] takes the lazy `calloc` path), so building
    /// one only to replace it is cheap.
    pub fn zeros(graph: &FactorGraph) -> Self {
        Self::zeros_shape(graph.dims(), graph.num_edges(), graph.num_vars())
    }

    /// Zero-initialized storage for an explicit `(dims, edges, vars)`
    /// shape — used by batching code that slices instance stores out of a
    /// fused store without holding the instance's graph. Lazy like
    /// [`VarStore::zeros`].
    pub fn zeros_shape(dims: usize, num_edges: usize, num_vars: usize) -> Self {
        assert!(dims >= 1, "dims must be at least 1");
        let ne = num_edges * dims;
        let nv = num_vars * dims;
        VarStore {
            dims,
            x: AlignedVec::zeros(ne),
            m: AlignedVec::zeros(ne),
            u: AlignedVec::zeros(ne),
            n: AlignedVec::zeros(ne),
            z: AlignedVec::zeros(nv),
            z_prev: AlignedVec::zeros(nv),
        }
    }

    /// Components per edge vector.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of edges this store covers.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.x.len() / self.dims
    }

    /// Number of variables this store covers.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.z.len() / self.dims
    }

    /// Flat index range of edge `e` within the per-edge arrays.
    #[inline]
    #[cfg(test)]
    pub(crate) fn edge_range(&self, e: EdgeId) -> std::ops::Range<usize> {
        let lo = e.idx() * self.dims;
        lo..lo + self.dims
    }

    /// Flat index range of variable `b` within `z` / `z_prev`.
    #[inline]
    pub fn var_range(&self, b: VarId) -> std::ops::Range<usize> {
        let lo = b.idx() * self.dims;
        lo..lo + self.dims
    }

    /// The contiguous flat range covering all edges of factor `a`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn factor_range(&self, graph: &FactorGraph, a: FactorId) -> std::ops::Range<usize> {
        let r = graph.factor_edge_range(a);
        r.start * self.dims..r.end * self.dims
    }

    /// `z` sub-vector of variable `b`.
    #[inline]
    pub fn z_var(&self, b: VarId) -> &[f64] {
        &self.z[self.var_range(b)]
    }

    /// Fills `x, m, u, n, z` with independent uniform samples from
    /// `[lo, hi)` using the supplied generator function — the analogue of
    /// the paper's `initialize_X_N_Z_M_U_rand`. The generator is abstract so
    /// callers can pass any RNG without this crate depending on `rand`.
    pub fn init_uniform(&mut self, lo: f64, hi: f64, mut next_unit: impl FnMut() -> f64) {
        assert!(hi >= lo, "invalid range");
        let span = hi - lo;
        for arr in [
            &mut self.x,
            &mut self.m,
            &mut self.u,
            &mut self.n,
            &mut self.z,
        ] {
            for v in arr.iter_mut() {
                *v = lo + span * next_unit();
            }
        }
        self.z_prev.copy_from_slice(&self.z);
    }

    /// Sets every array to a constant (mostly for tests).
    pub fn fill(&mut self, value: f64) {
        for arr in [
            &mut self.x,
            &mut self.m,
            &mut self.u,
            &mut self.n,
            &mut self.z,
        ] {
            arr.fill(value);
        }
        self.z_prev.fill(value);
    }

    /// Copies `z` into `z_prev` (called once per iteration before the
    /// z-update so the dual residual can be formed).
    ///
    /// Execution backends that overwrite *every* variable's `z` each
    /// iteration prefer [`VarStore::swap_z`], which records the same
    /// previous-iterate information without the O(|V|·d) copy.
    #[inline]
    pub fn snapshot_z(&mut self) {
        self.z_prev.copy_from_slice(&self.z);
    }

    /// Exchanges the `z` and `z_prev` buffers — an O(1) pointer swap.
    ///
    /// This is the double-buffered alternative to [`VarStore::snapshot_z`]:
    /// after the swap, `z_prev` holds the previous iterate exactly, and
    /// the z-update writes the new iterate into `z` (whose contents are
    /// two iterations stale and must be fully overwritten — variables of
    /// degree 0 must be copied forward from `z_prev`, see
    /// `paradmm_core`'s `z_update_swapped_range`). Both buffers stay
    /// materialized, so call sites that slice `z_prev` (batch extraction,
    /// sharded gather, residual checks) observe the same values as under
    /// the copying schedule.
    #[inline]
    pub fn swap_z(&mut self) {
        std::mem::swap(&mut self.z, &mut self.z_prev);
    }

    /// Total `f64` footprint, matching the paper's memory accounting
    /// (`4·|E|·d + 2·|V|·d` doubles).
    pub fn len_f64(&self) -> usize {
        4 * self.x.len() + 2 * self.z.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn small_graph(dims: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(3);
        b.add_factor(&[vs[0], vs[1]]);
        b.add_factor(&[vs[1], vs[2]]);
        b.build()
    }

    #[test]
    fn shapes_match_graph() {
        let g = small_graph(4);
        let s = VarStore::zeros(&g);
        assert_eq!(s.x.len(), 4 * 4); // 4 edges × 4 dims
        assert_eq!(s.z.len(), 3 * 4);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.len_f64(), 4 * 16 + 2 * 12);
    }

    #[test]
    fn ranges_are_disjoint_and_cover() {
        let g = small_graph(3);
        let s = VarStore::zeros(&g);
        let mut seen = vec![false; s.x.len()];
        for e in g.edges() {
            for i in s.edge_range(e) {
                assert!(!seen[i], "overlap at {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn factor_range_covers_its_edges() {
        let g = small_graph(2);
        let s = VarStore::zeros(&g);
        assert_eq!(s.factor_range(&g, FactorId(0)), 0..4);
        assert_eq!(s.factor_range(&g, FactorId(1)), 4..8);
    }

    #[test]
    fn init_uniform_within_bounds_and_snapshots() {
        let g = small_graph(2);
        let mut s = VarStore::zeros(&g);
        let mut state = 0.12345_f64;
        s.init_uniform(-2.0, 5.0, move || {
            // Deterministic pseudo-random in [0,1).
            state = (state * 9301.0 + 49297.0) % 233280.0 / 233280.0;
            state
        });
        for arr in [&s.x, &s.m, &s.u, &s.n, &s.z] {
            assert!(arr.iter().all(|&v| (-2.0..5.0).contains(&v)));
        }
        assert_eq!(s.z, s.z_prev);
    }

    #[test]
    fn fill_and_snapshot() {
        let g = small_graph(1);
        let mut s = VarStore::zeros(&g);
        s.fill(7.0);
        assert!(s.z.iter().all(|&v| v == 7.0));
        s.z[0] = 1.0;
        s.snapshot_z();
        assert_eq!(s.z_prev[0], 1.0);
    }

    #[test]
    fn edge_accessors() {
        let g = small_graph(2);
        let mut s = VarStore::zeros(&g);
        s.x[2] = 9.0; // edge 1, component 0
        assert_eq!(&s.x[s.edge_range(EdgeId(1))], &[9.0, 0.0]);
        s.z[4] = 3.0; // var 2, component 0
        assert_eq!(s.z_var(VarId(2)), &[3.0, 0.0]);
        assert_eq!(&s.n[s.edge_range(EdgeId(0))], &[0.0, 0.0]);
        assert_eq!(&s.u[s.edge_range(EdgeId(3))], &[0.0, 0.0]);
        assert_eq!(&s.m[s.edge_range(EdgeId(3))], &[0.0, 0.0]);
    }
}
