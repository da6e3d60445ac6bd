//! Packing N independent problem instances into one fused store.
//!
//! The paper tunes five sweeps to saturate hardware on *one* large
//! factor-graph; a serving workload instead sees many *small* independent
//! instances (an MPC horizon per user, a Sudoku per request), where the
//! per-instance sweep-launch overhead dominates. [`BatchStore`] packs N
//! `(FactorGraph, EdgeParams, VarStore)` instances into one
//! **block-diagonal** fused problem: instance `i` owns contiguous global
//! ranges of variables, factors and edges, recorded in a [`BatchLayout`].
//! Because no factor crosses an instance boundary, the fused graph has no
//! edges between instances — every sweep of Algorithm 2 acts on each
//! instance exactly as it would solo, so iterates of the fused solve are
//! bit-identical per instance to solo solves, under any backend that is
//! bit-identical to the serial one.
//!
//! Instances are also natural shards: [`BatchLayout::partition`] returns
//! a **zero-cut** factor partition (whole instances per part, edge
//! balanced), so the sharded backend runs a batch with an empty halo.

use crate::builder::GraphBuilder;
use crate::graph::FactorGraph;
#[cfg(test)]
use crate::ids::FactorId;
use crate::ids::{EdgeId, VarId};
use crate::params::EdgeParams;
use crate::partition::Partition;
use crate::store::VarStore;

/// Borrowed view of one instance handed to [`BatchStore::pack`].
#[derive(Clone, Copy)]
pub struct BatchInstance<'a> {
    /// The instance topology.
    pub graph: &'a FactorGraph,
    /// Its per-edge `ρ/α` parameters.
    pub params: &'a EdgeParams,
    /// Its current ADMM state (packed verbatim, including `z_prev`).
    pub store: &'a VarStore,
}

/// Offset maps of a packed batch: for each instance, the contiguous
/// global id ranges it owns, plus translations in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLayout {
    dims: usize,
    /// `n+1` cumulative variable counts; instance `i` owns global
    /// variables `var_offsets[i]..var_offsets[i+1]`.
    var_offsets: Vec<u32>,
    /// `n+1` cumulative factor counts.
    factor_offsets: Vec<u32>,
    /// `n+1` cumulative edge counts.
    edge_offsets: Vec<u32>,
}

impl BatchLayout {
    fn from_graphs(graphs: &[&FactorGraph]) -> Result<Self, String> {
        let first = graphs.first().ok_or("batch needs at least one instance")?;
        let dims = first.dims();
        let mut var_offsets = Vec::with_capacity(graphs.len() + 1);
        let mut factor_offsets = Vec::with_capacity(graphs.len() + 1);
        let mut edge_offsets = Vec::with_capacity(graphs.len() + 1);
        var_offsets.push(0u32);
        factor_offsets.push(0u32);
        edge_offsets.push(0u32);
        let (mut nv, mut nf, mut ne) = (0usize, 0usize, 0usize);
        for (i, g) in graphs.iter().enumerate() {
            if g.dims() != dims {
                return Err(format!(
                    "instance {i} has dims {} but the batch has dims {dims}",
                    g.dims()
                ));
            }
            nv += g.num_vars();
            nf += g.num_factors();
            ne += g.num_edges();
            if nv > u32::MAX as usize || ne > u32::MAX as usize {
                return Err("batch too large for u32 id space".into());
            }
            var_offsets.push(nv as u32);
            factor_offsets.push(nf as u32);
            edge_offsets.push(ne as u32);
        }
        Ok(BatchLayout {
            dims,
            var_offsets,
            factor_offsets,
            edge_offsets,
        })
    }

    /// Number of packed instances.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.var_offsets.len() - 1
    }

    /// Components per edge vector, shared by every instance.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total variables across the batch.
    #[inline]
    pub(crate) fn total_vars(&self) -> usize {
        *self.var_offsets.last().unwrap() as usize
    }

    /// Total factors across the batch.
    #[inline]
    pub(crate) fn total_factors(&self) -> usize {
        *self.factor_offsets.last().unwrap() as usize
    }

    /// Total edges across the batch.
    #[inline]
    pub(crate) fn total_edges(&self) -> usize {
        *self.edge_offsets.last().unwrap() as usize
    }

    /// Global variable-index range of instance `i`.
    #[inline]
    pub fn var_range(&self, i: usize) -> std::ops::Range<usize> {
        self.var_offsets[i] as usize..self.var_offsets[i + 1] as usize
    }

    /// Global factor-index range of instance `i`.
    #[inline]
    pub fn factor_range(&self, i: usize) -> std::ops::Range<usize> {
        self.factor_offsets[i] as usize..self.factor_offsets[i + 1] as usize
    }

    /// Global edge-index range of instance `i`.
    #[inline]
    pub fn edge_range(&self, i: usize) -> std::ops::Range<usize> {
        self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize
    }

    /// Global id of instance `i`'s local variable `b`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn global_var(&self, i: usize, b: VarId) -> VarId {
        debug_assert!(b.idx() < self.var_range(i).len());
        VarId(self.var_offsets[i] + b.0)
    }

    /// Global id of instance `i`'s local factor `a`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn global_factor(&self, i: usize, a: FactorId) -> FactorId {
        debug_assert!(a.idx() < self.factor_range(i).len());
        FactorId(self.factor_offsets[i] + a.0)
    }

    /// Global id of instance `i`'s local edge `e`.
    #[inline]
    pub fn global_edge(&self, i: usize, e: EdgeId) -> EdgeId {
        debug_assert!(e.idx() < self.edge_range(i).len());
        EdgeId(self.edge_offsets[i] + e.0)
    }

    /// `(instance, local id)` of a global variable id.
    pub fn instance_of_var(&self, b: VarId) -> (usize, VarId) {
        let i = Self::locate(&self.var_offsets, b.0);
        (i, VarId(b.0 - self.var_offsets[i]))
    }

    /// `(instance, local id)` of a global factor id.
    #[cfg(test)]
    pub(crate) fn instance_of_factor(&self, a: FactorId) -> (usize, FactorId) {
        let i = Self::locate(&self.factor_offsets, a.0);
        (i, FactorId(a.0 - self.factor_offsets[i]))
    }

    /// `(instance, local id)` of a global edge id.
    pub fn instance_of_edge(&self, e: EdgeId) -> (usize, EdgeId) {
        let i = Self::locate(&self.edge_offsets, e.0);
        (i, EdgeId(e.0 - self.edge_offsets[i]))
    }

    /// Index of the instance whose `[offsets[i], offsets[i+1])` range
    /// contains `id`, skipping empty ranges.
    fn locate(offsets: &[u32], id: u32) -> usize {
        debug_assert!(id < *offsets.last().unwrap(), "global id out of range");
        // partition_point returns the first i with offsets[i] > id; that
        // i−1 is the owning instance (empty instances share an offset and
        // can never own an id, and partition_point lands past all of
        // them).
        offsets.partition_point(|&o| o <= id) - 1
    }

    /// A **zero-cut** factor partition for sharded execution: whole
    /// instances are assigned to parts in index order, balancing per-part
    /// edge counts. No factor range crosses an instance boundary, so no
    /// variable is shared between parts and the halo is empty.
    ///
    /// `parts` is clamped to `1..=num_instances()` — a part must own at
    /// least one whole instance.
    pub fn partition(&self, parts: usize) -> Partition {
        let parts = parts.clamp(1, self.num_instances());
        let total = self.total_edges();
        let mut assignment = vec![0u32; self.total_factors()];
        let mut acc = 0usize;
        for i in 0..self.num_instances() {
            // Same edge-cumulative rule as `Partition::contiguous`, at
            // instance granularity.
            let part = (acc * parts / total.max(1)).min(parts - 1);
            for a in self.factor_range(i) {
                assignment[a] = part as u32;
            }
            acc += self.edge_range(i).len();
        }
        Partition { assignment, parts }
    }

    /// Copies instance `i`'s state out of a fused store (all six arrays,
    /// including `z_prev`, so residual checks resume bit-identically).
    ///
    /// # Panics
    /// If `fused` is not shaped like this layout's totals.
    pub fn extract_store(&self, fused: &VarStore, i: usize) -> VarStore {
        self.assert_fused_shape(fused);
        let d = self.dims;
        let er = self.edge_range(i);
        let vr = self.var_range(i);
        let mut out = VarStore::zeros_shape(d, er.len(), vr.len());
        let (elo, ehi) = (er.start * d, er.end * d);
        let (vlo, vhi) = (vr.start * d, vr.end * d);
        out.x.copy_from_slice(&fused.x[elo..ehi]);
        out.m.copy_from_slice(&fused.m[elo..ehi]);
        out.u.copy_from_slice(&fused.u[elo..ehi]);
        out.n.copy_from_slice(&fused.n[elo..ehi]);
        out.z.copy_from_slice(&fused.z[vlo..vhi]);
        out.z_prev.copy_from_slice(&fused.z_prev[vlo..vhi]);
        out
    }

    /// Copies instance `i`'s state *into* a fused store — the inverse of
    /// [`BatchLayout::extract_store`].
    ///
    /// # Panics
    /// If shapes disagree.
    pub(crate) fn write_store(&self, fused: &mut VarStore, i: usize, instance: &VarStore) {
        self.assert_fused_shape(fused);
        let d = self.dims;
        let er = self.edge_range(i);
        let vr = self.var_range(i);
        assert_eq!(instance.dims(), d, "instance store dims mismatch");
        assert_eq!(instance.num_edges(), er.len(), "instance edge count");
        assert_eq!(instance.num_vars(), vr.len(), "instance var count");
        let (elo, ehi) = (er.start * d, er.end * d);
        let (vlo, vhi) = (vr.start * d, vr.end * d);
        fused.x[elo..ehi].copy_from_slice(&instance.x);
        fused.m[elo..ehi].copy_from_slice(&instance.m);
        fused.u[elo..ehi].copy_from_slice(&instance.u);
        fused.n[elo..ehi].copy_from_slice(&instance.n);
        fused.z[vlo..vhi].copy_from_slice(&instance.z);
        fused.z_prev[vlo..vhi].copy_from_slice(&instance.z_prev);
    }

    fn assert_fused_shape(&self, fused: &VarStore) {
        assert_eq!(fused.dims(), self.dims, "fused store dims mismatch");
        assert_eq!(fused.num_edges(), self.total_edges(), "fused edge count");
        assert_eq!(fused.num_vars(), self.total_vars(), "fused var count");
    }
}

/// N independent instances packed into one block-diagonal problem:
/// fused topology, fused parameters, fused state, and the offset maps
/// ([`BatchLayout`]) to translate between instance and global ids.
#[derive(Debug, Clone)]
pub struct BatchStore {
    graph: FactorGraph,
    params: EdgeParams,
    store: VarStore,
    layout: BatchLayout,
}

impl BatchStore {
    /// Packs `instances` into one fused store. Every instance must share
    /// the same `dims`; each store/params must be shaped for its graph.
    pub fn pack(instances: &[BatchInstance<'_>]) -> Result<BatchStore, String> {
        let graphs: Vec<&FactorGraph> = instances.iter().map(|m| m.graph).collect();
        let layout = BatchLayout::from_graphs(&graphs)?;
        for (i, m) in instances.iter().enumerate() {
            m.params
                .validate(m.graph)
                .map_err(|e| format!("instance {i} params invalid: {e}"))?;
            if m.store.dims() != m.graph.dims()
                || m.store.num_edges() != m.graph.num_edges()
                || m.store.num_vars() != m.graph.num_vars()
            {
                return Err(format!("instance {i} store not shaped for its graph"));
            }
        }

        // Block-diagonal topology: append every instance's variables,
        // then its factors with offset-translated variable ids. Edge
        // order within an instance is preserved, so each instance's
        // slice of the fused arrays is laid out exactly as its solo
        // store.
        let d = layout.dims();
        let mut b = GraphBuilder::with_capacity(d, layout.total_factors(), layout.total_edges());
        let mut rho = Vec::with_capacity(layout.total_edges());
        let mut alpha = Vec::with_capacity(layout.total_edges());
        let mut scratch: Vec<VarId> = Vec::new();
        for (i, m) in instances.iter().enumerate() {
            let vars = b.add_vars(m.graph.num_vars());
            debug_assert_eq!(vars.first().map(|v| v.idx()), {
                let r = layout.var_range(i);
                if r.is_empty() {
                    None
                } else {
                    Some(r.start)
                }
            });
            for a in m.graph.factors() {
                scratch.clear();
                scratch.extend(m.graph.factor_vars(a).iter().map(|v| vars[v.idx()]));
                b.add_factor(&scratch);
            }
            rho.extend_from_slice(&m.params.rho);
            alpha.extend_from_slice(&m.params.alpha);
        }
        let graph = b.build();
        let params = EdgeParams {
            rho: rho.into(),
            alpha: alpha.into(),
        };
        debug_assert!(params.validate(&graph).is_ok());

        let mut store = VarStore::zeros(&graph);
        for (i, m) in instances.iter().enumerate() {
            layout.write_store(&mut store, i, m.store);
        }
        Ok(BatchStore {
            graph,
            params,
            store,
            layout,
        })
    }

    /// The fused block-diagonal topology.
    #[inline]
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// The fused per-edge parameters.
    #[inline]
    pub fn params(&self) -> &EdgeParams {
        &self.params
    }

    /// Mutable fused state (warm starts through
    /// [`BatchLayout::write_store`]).
    #[inline]
    #[cfg(test)]
    pub(crate) fn store_mut(&mut self) -> &mut VarStore {
        &mut self.store
    }

    /// The offset maps.
    #[inline]
    pub fn layout(&self) -> &BatchLayout {
        &self.layout
    }

    /// Number of packed instances.
    #[inline]
    pub(crate) fn num_instances(&self) -> usize {
        self.layout.num_instances()
    }

    /// Copies instance `i`'s state out of the fused store.
    pub(crate) fn extract(&self, i: usize) -> VarStore {
        self.layout.extract_store(&self.store, i)
    }

    /// Unpacks every instance's state, in pack order.
    pub fn unpack(&self) -> Vec<VarStore> {
        (0..self.num_instances()).map(|i| self.extract(i)).collect()
    }

    /// Decomposes into the fused pieces (used by the batch solver, which
    /// pairs the fused graph/params with concatenated proximal
    /// operators).
    pub fn into_parts(self) -> (FactorGraph, EdgeParams, VarStore, BatchLayout) {
        (self.graph, self.params, self.store, self.layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain of `n` pairwise factors plus one unary factor, `dims` wide.
    fn chain(dims: usize, n: usize) -> (FactorGraph, EdgeParams, VarStore) {
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(n + 1);
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        b.add_factor(&[vs[0]]);
        let g = b.build();
        let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
        for (i, r) in p.rho.iter_mut().enumerate() {
            *r = 1.0 + i as f64 * 0.25;
        }
        let mut s = VarStore::zeros(&g);
        for (i, v) in s.x.iter_mut().enumerate() {
            *v = (i as f64 * 0.31).sin();
        }
        for (i, v) in s.z.iter_mut().enumerate() {
            *v = (i as f64 * 0.17).cos();
        }
        s.snapshot_z();
        (g, p, s)
    }

    fn pack3() -> (Vec<(FactorGraph, EdgeParams, VarStore)>, BatchStore) {
        let insts = vec![chain(2, 3), chain(2, 1), chain(2, 5)];
        let views: Vec<BatchInstance> = insts
            .iter()
            .map(|(g, p, s)| BatchInstance {
                graph: g,
                params: p,
                store: s,
            })
            .collect();
        let batch = BatchStore::pack(&views).unwrap();
        (insts, batch)
    }

    #[test]
    fn fused_counts_are_sums() {
        let (insts, batch) = pack3();
        let g = batch.graph();
        g.validate().unwrap();
        assert_eq!(batch.num_instances(), 3);
        assert_eq!(
            g.num_vars(),
            insts.iter().map(|(g, _, _)| g.num_vars()).sum::<usize>()
        );
        assert_eq!(
            g.num_edges(),
            insts.iter().map(|(g, _, _)| g.num_edges()).sum::<usize>()
        );
        assert_eq!(
            g.num_factors(),
            insts.iter().map(|(g, _, _)| g.num_factors()).sum::<usize>()
        );
    }

    #[test]
    fn ranges_are_contiguous_and_monotone() {
        let (insts, batch) = pack3();
        let l = batch.layout();
        let mut prev = 0usize;
        for i in 0..3 {
            let er = l.edge_range(i);
            assert_eq!(er.start, prev);
            assert_eq!(er.len(), insts[i].0.num_edges());
            prev = er.end;
        }
        assert_eq!(prev, batch.graph().num_edges());
    }

    #[test]
    fn id_translation_roundtrips() {
        let (insts, batch) = pack3();
        let l = batch.layout();
        for i in 0..3 {
            for e in insts[i].0.edges() {
                let g = l.global_edge(i, e);
                assert_eq!(l.instance_of_edge(g), (i, e));
            }
            for v in insts[i].0.vars() {
                let g = l.global_var(i, v);
                assert_eq!(l.instance_of_var(g), (i, v));
            }
            for a in insts[i].0.factors() {
                let g = l.global_factor(i, a);
                assert_eq!(l.instance_of_factor(g), (i, a));
            }
        }
    }

    #[test]
    fn fused_topology_is_block_diagonal() {
        let (_, batch) = pack3();
        let g = batch.graph();
        let l = batch.layout();
        for e in g.edges() {
            let (ie, _) = l.instance_of_edge(e);
            let (iv, _) = l.instance_of_var(g.edge_var(e));
            let (ifa, _) = l.instance_of_factor(g.edge_factor(e));
            assert_eq!(ie, iv, "edge {e} crosses instances");
            assert_eq!(ie, ifa, "edge {e} owner crosses instances");
        }
    }

    #[test]
    fn pack_unpack_roundtrips_state_and_params() {
        let (insts, batch) = pack3();
        let unpacked = batch.unpack();
        for (i, (g, p, s)) in insts.iter().enumerate() {
            let got = &unpacked[i];
            assert_eq!(got.x, s.x);
            assert_eq!(got.m, s.m);
            assert_eq!(got.u, s.u);
            assert_eq!(got.n, s.n);
            assert_eq!(got.z, s.z);
            assert_eq!(got.z_prev, s.z_prev);
            // Parameters land on the instance's global edge slice.
            let er = batch.layout().edge_range(i);
            assert_eq!(&batch.params().rho[er.clone()], &p.rho[..]);
            assert_eq!(&batch.params().alpha[er], &p.alpha[..]);
            let _ = g;
        }
    }

    #[test]
    fn zero_cut_partition_has_empty_halo() {
        let (_, batch) = pack3();
        for parts in [1usize, 2, 3, 7] {
            let p = batch.layout().partition(parts);
            assert!(p.parts <= batch.num_instances());
            p.validate(batch.graph()).unwrap();
            assert!(
                p.halo_vars(batch.graph()).is_empty(),
                "instances are independent, so the cut must be empty"
            );
            assert_eq!(
                p.edge_loads(batch.graph()).iter().sum::<usize>(),
                batch.graph().num_edges()
            );
        }
    }

    #[test]
    fn partition_keeps_instances_whole() {
        let (_, batch) = pack3();
        let p = batch.layout().partition(2);
        let l = batch.layout();
        for i in 0..3 {
            let r = l.factor_range(i);
            let first = p.assignment[r.start];
            assert!(
                p.assignment[r].iter().all(|&x| x == first),
                "instance {i} split across parts"
            );
        }
    }

    #[test]
    fn mixed_dims_rejected() {
        let a = chain(2, 2);
        let b = chain(3, 2);
        let views = [
            BatchInstance {
                graph: &a.0,
                params: &a.1,
                store: &a.2,
            },
            BatchInstance {
                graph: &b.0,
                params: &b.1,
                store: &b.2,
            },
        ];
        assert!(BatchStore::pack(&views).is_err());
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(BatchStore::pack(&[]).is_err());
    }

    #[test]
    fn misshapen_store_rejected() {
        let (g, p, _) = chain(2, 2);
        let (_, _, wrong) = chain(2, 4);
        let views = [BatchInstance {
            graph: &g,
            params: &p,
            store: &wrong,
        }];
        assert!(BatchStore::pack(&views).is_err());
    }

    #[test]
    fn write_store_is_inverse_of_extract() {
        let (_, mut batch) = pack3();
        let mut s1 = batch.extract(1);
        for v in s1.u.iter_mut() {
            *v += 3.5;
        }
        let layout = batch.layout().clone();
        layout.write_store(batch.store_mut(), 1, &s1);
        assert_eq!(batch.extract(1).u, s1.u);
        // Neighbours untouched.
        let (insts, fresh) = pack3();
        assert_eq!(batch.extract(0).u, fresh.extract(0).u);
        assert_eq!(batch.extract(2).u, insts[2].2.u);
    }
}
