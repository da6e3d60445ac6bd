//! Executable sharding: partition-local stores and the halo-exchange plan.
//!
//! [`crate::Partition`] assigns factors to parts; this module makes that
//! assignment *runnable* instead of merely priceable. A [`ShardedStore`]
//! splits a `(FactorGraph, EdgeParams)` pair along a partition into
//! per-shard edge-contiguous [`Shard`]s — each with a locally renumbered
//! [`FactorGraph`], its own [`EdgeParams`] and [`VarStore`] — plus the
//! halo bookkeeping a real per-iteration exchange needs:
//!
//! * [`HaloExchangePlan`] — the topological map of halo variables
//!   (touched by more than one part): which edges contribute to each and
//!   which parts hold a replica.
//! * [`HaloReduceTask`] — per halo variable, the precomputed weighted-sum
//!   scratch (`Σρ` folded in the global graph's `var_edges` order) and
//!   the `(shard, stage slot)` list of staged `ρ·(x+u)` contributions, in
//!   that same order. Folding staged contributions in the global fold
//!   order reproduces the serial z-update's exact sequence of rounded
//!   operations, which is what keeps a sharded sweep **bit-identical** to
//!   `SerialBackend` — summing per-shard partial sums instead would
//!   re-associate the floating-point fold and drift in the last ulp.
//!
//! Local renumbering preserves the global fold order: shard-local graphs
//! have each variable's edge list re-sorted to the global graph's
//! `var_edges` order (`FactorGraph::sort_var_edges_by_key`), so interior
//! variables' z-averages fold in exactly the serial order too. On a
//! naturally built graph that order is ascending global edge id and the
//! re-sort is a no-op; on a reordered graph (`crate::reorder`) the global
//! fold order deliberately differs from ascending edge id, and the
//! re-sort is what keeps sharded execution bit-identical there as well.

use crate::builder::GraphBuilder;
use crate::graph::FactorGraph;
use crate::ids::{EdgeId, FactorId, VarId};
use crate::params::EdgeParams;
use crate::partition::Partition;
use crate::store::VarStore;

/// One halo variable's slice of the exchange plan.
#[derive(Debug, Clone)]
pub struct HaloVarPlan {
    /// The global variable id.
    pub var: VarId,
    /// `|∂b|` — every incident edge contributes one `ρ·m` message to the
    /// gather.
    pub degree: usize,
    /// Parts holding a replica of this variable, ascending — each
    /// receives the combined `z` in the broadcast.
    pub parts: Vec<u32>,
}

/// The topological halo-exchange map of a `(graph, partition)` pair: one
/// entry per variable touched by more than one part, in ascending global
/// variable order. [`ShardedStore`] builds its staging and reduction
/// recipes from it.
#[derive(Debug, Clone)]
pub struct HaloExchangePlan {
    /// Per-halo-variable plans, ascending by global variable id.
    pub vars: Vec<HaloVarPlan>,
}

impl HaloExchangePlan {
    /// Builds the plan for `partition` over `graph`.
    ///
    /// # Panics
    /// If the partition's assignment length disagrees with the graph's
    /// factor count.
    pub fn build(graph: &FactorGraph, partition: &Partition) -> Self {
        assert_eq!(
            partition.assignment.len(),
            graph.num_factors(),
            "partition does not cover this graph's factors"
        );
        // Partition::halo_vars is the one canonical "is this variable
        // shared?" definition; the plan only adds the per-var detail.
        let vars = partition
            .halo_vars(graph)
            .into_iter()
            .map(|b| {
                let mut parts: Vec<u32> = graph
                    .var_edges(b)
                    .iter()
                    .map(|&e| partition.part_of(graph.edge_factor(e)))
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                HaloVarPlan {
                    var: b,
                    degree: graph.var_degree(b),
                    parts,
                }
            })
            .collect();
        HaloExchangePlan { vars }
    }

    /// Number of halo variables.
    #[inline]
    pub fn halo_var_count(&self) -> usize {
        self.vars.len()
    }
}

/// The precomputed reduction recipe for one halo variable.
#[derive(Debug, Clone)]
pub struct HaloReduceTask {
    /// `Σ_{e∈∂b} ρ_e`, folded in ascending global edge order — the exact
    /// denominator the serial z-update accumulates.
    pub rho_sum: f64,
    /// `(shard, stage slot)` of every contribution, in ascending global
    /// edge order. Folding the staged `ρ·m` vectors in this order
    /// replays the serial z-update's addition sequence bit-for-bit.
    pub contribs: Vec<(u32, u32)>,
}

/// One partition part made executable: a locally renumbered topology,
/// local parameters, local ADMM state, and the maps back to global ids.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Local topology: factors ascend by global id, edges stay
    /// factor-contiguous, variables are numbered in first-touch order.
    pub graph: FactorGraph,
    /// Per-local-edge `ρ/α`, copied from the global parameters.
    pub params: EdgeParams,
    /// Local factor index → global [`FactorId`], ascending.
    pub factor_global: Vec<FactorId>,
    /// Local edge index → global [`EdgeId`], ascending.
    pub edge_global: Vec<EdgeId>,
    /// Local variable index → global [`VarId`] (first-touch order).
    pub var_global: Vec<VarId>,
    /// Local variable indices *not* shared with another shard; their
    /// z-update runs entirely shard-locally.
    pub interior_vars: Vec<u32>,
    /// `(local var, halo index)` pairs: where to write each combined
    /// halo `z` received in the broadcast phase.
    pub halo_in: Vec<(u32, u32)>,
    /// Local edges incident to halo variables, ascending — the edges
    /// whose `ρ·m` messages this shard stages each iteration.
    pub stage_edges: Vec<u32>,
    /// Local ADMM state.
    pub store: VarStore,
}

/// A `(FactorGraph, EdgeParams, Partition)` triple decomposed into
/// executable shards plus the halo-exchange machinery between them.
///
/// The sharded execution backend in `paradmm-core` scatters a global
/// [`VarStore`] into the shards, iterates each shard on its local
/// arrays with a halo exchange per iteration, and gathers the state
/// back — bit-identically to a monolithic serial sweep.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    dims: usize,
    num_global_vars: usize,
    num_global_edges: usize,
    /// The executable shards, one per partition part.
    pub shards: Vec<Shard>,
    /// The topological exchange plan (shared with the pricing model).
    pub plan: HaloExchangePlan,
    /// Per-halo-variable reduction recipes, parallel to `plan.vars`.
    pub reduce: Vec<HaloReduceTask>,
    /// Degree-0 global variables, owned by no shard; `gather` re-applies
    /// the serial `z_prev ← z` snapshot to them.
    orphan_vars: Vec<VarId>,
}

impl ShardedStore {
    /// Decomposes `(graph, params)` along `partition`.
    ///
    /// # Panics
    /// If the partition does not cover exactly this graph's factors or
    /// `params` is shaped for a different edge set.
    pub fn new(graph: &FactorGraph, params: &EdgeParams, partition: &Partition) -> Self {
        assert_eq!(
            partition.assignment.len(),
            graph.num_factors(),
            "partition does not cover this graph's factors"
        );
        assert_eq!(
            params.rho.len(),
            graph.num_edges(),
            "params shaped for a different edge set"
        );
        let parts = partition.parts;
        let d = graph.dims();
        let nv = graph.num_vars();
        let ne = graph.num_edges();

        // The plan (built on Partition::halo_vars, the one canonical
        // halo definition) doubles as the "is this variable shared?"
        // lookup via its index map.
        let plan = HaloExchangePlan::build(graph, partition);
        let mut halo_index = vec![u32::MAX; nv];
        for (h, hv) in plan.vars.iter().enumerate() {
            halo_index[hv.var.idx()] = h as u32;
        }
        let is_halo = |b: usize| halo_index[b] != u32::MAX;

        // Factor / edge membership per shard, plus global edge → (shard,
        // local edge) for wiring the reduce tasks.
        let mut factor_global: Vec<Vec<FactorId>> = vec![Vec::new(); parts];
        let mut edge_global: Vec<Vec<EdgeId>> = vec![Vec::new(); parts];
        let mut edge_local = vec![(0u32, 0u32); ne];
        for a in graph.factors() {
            let p = partition.part_of(a) as usize;
            factor_global[p].push(a);
            for e in graph.factor_edge_range(a) {
                edge_local[e] = (p as u32, edge_global[p].len() as u32);
                edge_global[p].push(EdgeId::from_usize(e));
            }
        }

        // Rank of every edge within its variable's global fold list: the
        // key that re-sorts shard-local fold lists into the global
        // z-fold order (a no-op on naturally built graphs, load-bearing
        // on reordered ones — see the module docs).
        let mut fold_rank = vec![0u32; ne];
        for b in graph.vars() {
            for (i, &e) in graph.var_edges(b).iter().enumerate() {
                fold_rank[e.idx()] = i as u32;
            }
        }

        // Build every shard's local topology, parameters and stage map.
        let mut shards = Vec::with_capacity(parts);
        let mut stage_slots: Vec<Vec<u32>> = Vec::with_capacity(parts);
        let mut var_local = vec![u32::MAX; nv]; // scratch, reset per shard
        for p in 0..parts {
            let mut var_global_p: Vec<VarId> = Vec::new();
            for &e in &edge_global[p] {
                let b = graph.edge_var(e).idx();
                if var_local[b] == u32::MAX {
                    var_local[b] = var_global_p.len() as u32;
                    var_global_p.push(VarId::from_usize(b));
                }
            }
            let mut builder = GraphBuilder::new(d);
            let local_ids = builder.add_vars(var_global_p.len());
            for &a in &factor_global[p] {
                let vs: Vec<VarId> = graph
                    .factor_vars(a)
                    .iter()
                    .map(|&b| local_ids[var_local[b.idx()] as usize])
                    .collect();
                builder.add_factor(&vs);
            }
            let mut local_graph = builder.build();
            // Local fold lists follow the global z-fold order exactly.
            let eg = &edge_global[p];
            local_graph.sort_var_edges_by_key(|le| fold_rank[eg[le.idx()].idx()] as u64);
            let local_params = EdgeParams {
                rho: edge_global[p].iter().map(|&e| params.rho(e)).collect(),
                alpha: edge_global[p].iter().map(|&e| params.alpha(e)).collect(),
            };

            let mut stage_edges = Vec::new();
            let mut slots = vec![u32::MAX; edge_global[p].len()];
            for (le, &e) in edge_global[p].iter().enumerate() {
                if is_halo(graph.edge_var(e).idx()) {
                    slots[le] = stage_edges.len() as u32;
                    stage_edges.push(le as u32);
                }
            }

            let mut interior_vars = Vec::new();
            let mut halo_in = Vec::new();
            for (lv, &b) in var_global_p.iter().enumerate() {
                if is_halo(b.idx()) {
                    halo_in.push((lv as u32, halo_index[b.idx()]));
                } else {
                    interior_vars.push(lv as u32);
                }
            }

            for &b in &var_global_p {
                var_local[b.idx()] = u32::MAX; // reset scratch
            }

            let store = VarStore::zeros(&local_graph);
            shards.push(Shard {
                graph: local_graph,
                params: local_params,
                factor_global: std::mem::take(&mut factor_global[p]),
                edge_global: std::mem::take(&mut edge_global[p]),
                var_global: var_global_p,
                interior_vars,
                halo_in,
                stage_edges,
                store,
            });
            stage_slots.push(slots);
        }

        // Reduce recipes: contributions and Σρ in the global graph's
        // var_edges order — the serial fold order (ascending edge id on
        // naturally built graphs).
        let mut reduce = Vec::with_capacity(plan.vars.len());
        for hv in &plan.vars {
            let mut rho_sum = 0.0;
            let mut contribs = Vec::with_capacity(hv.degree);
            for &e in graph.var_edges(hv.var) {
                rho_sum += params.rho(e);
                let (s, le) = edge_local[e.idx()];
                contribs.push((s, stage_slots[s as usize][le as usize]));
            }
            reduce.push(HaloReduceTask { rho_sum, contribs });
        }

        let orphan_vars = graph.vars().filter(|&b| graph.var_degree(b) == 0).collect();

        ShardedStore {
            dims: d,
            num_global_vars: nv,
            num_global_edges: ne,
            shards,
            plan,
            reduce,
            orphan_vars,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn parts(&self) -> usize {
        self.shards.len()
    }

    /// Components per edge vector.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Whether `store` has the global shape this decomposition was built
    /// for.
    pub(crate) fn matches_store(&self, store: &VarStore) -> bool {
        store.dims() == self.dims
            && store.num_vars() == self.num_global_vars
            && store.num_edges() == self.num_global_edges
    }

    /// Copies the global state into every shard's local arrays (halo
    /// variables are replicated).
    ///
    /// # Panics
    /// If `global` is shaped for a different graph.
    pub fn scatter(&mut self, global: &VarStore) {
        self.scatter_inputs(global);
        let d = self.dims;
        for shard in &mut self.shards {
            for (le, &e) in shard.edge_global.iter().enumerate() {
                let (lo, go) = (le * d, e.idx() * d);
                shard.store.x[lo..lo + d].copy_from_slice(&global.x[go..go + d]);
                shard.store.m[lo..lo + d].copy_from_slice(&global.m[go..go + d]);
            }
            for (lv, &b) in shard.var_global.iter().enumerate() {
                let (lo, go) = (lv * d, b.idx() * d);
                shard.store.z_prev[lo..lo + d].copy_from_slice(&global.z_prev[go..go + d]);
            }
        }
    }

    /// Copies into the shards only the arrays an ADMM iteration reads
    /// before it writes them: `u`, `n` and `z`. The iteration's sweeps
    /// overwrite `x`, `m` and (through the z buffer swap) `z_prev` before
    /// anything reads them, so a block of at least one iteration needs
    /// nothing more of [`ShardedStore::scatter`]'s copy.
    ///
    /// # Panics
    /// If `global` is shaped for a different graph.
    pub fn scatter_inputs(&mut self, global: &VarStore) {
        assert!(self.matches_store(global), "global store shape mismatch");
        let d = self.dims;
        for shard in &mut self.shards {
            for (le, &e) in shard.edge_global.iter().enumerate() {
                let (lo, go) = (le * d, e.idx() * d);
                shard.store.u[lo..lo + d].copy_from_slice(&global.u[go..go + d]);
                shard.store.n[lo..lo + d].copy_from_slice(&global.n[go..go + d]);
            }
            for (lv, &b) in shard.var_global.iter().enumerate() {
                let (lo, go) = (lv * d, b.idx() * d);
                shard.store.z[lo..lo + d].copy_from_slice(&global.z[go..go + d]);
            }
        }
    }

    /// Copies every shard's local state back into the global store.
    /// Halo replicas are bit-identical by construction, so overlapping
    /// writes are harmless. Degree-0 variables belong to no shard; their
    /// `z_prev` is re-snapshotted from `z`, mirroring the serial
    /// backend's whole-array snapshot.
    ///
    /// # Panics
    /// If `global` is shaped for a different graph.
    pub fn gather(&self, global: &mut VarStore) {
        assert!(self.matches_store(global), "global store shape mismatch");
        let d = self.dims;
        for shard in &self.shards {
            for (le, &e) in shard.edge_global.iter().enumerate() {
                let lo = le * d;
                let go = e.idx() * d;
                global.x[go..go + d].copy_from_slice(&shard.store.x[lo..lo + d]);
                global.m[go..go + d].copy_from_slice(&shard.store.m[lo..lo + d]);
                global.u[go..go + d].copy_from_slice(&shard.store.u[lo..lo + d]);
                global.n[go..go + d].copy_from_slice(&shard.store.n[lo..lo + d]);
            }
            for (lv, &b) in shard.var_global.iter().enumerate() {
                let lo = lv * d;
                let go = b.idx() * d;
                global.z[go..go + d].copy_from_slice(&shard.store.z[lo..lo + d]);
                global.z_prev[go..go + d].copy_from_slice(&shard.store.z_prev[lo..lo + d]);
            }
        }
        for &b in &self.orphan_vars {
            let go = b.idx() * d;
            for c in go..go + d {
                global.z_prev[c] = global.z[c];
            }
        }
    }

    /// Splits the store into the pieces a worker-per-shard executor
    /// needs simultaneously: the shards and the reduce recipes.
    pub fn exec_parts_mut(&mut self) -> (&mut [Shard], &[HaloReduceTask]) {
        (&mut self.shards, &self.reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain of `n` pairwise factors.
    fn chain(n: usize, dims: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(n + 1);
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        b.build()
    }

    /// All-pairs graph over `n` variables (packing-like density).
    fn dense(n: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(n);
        for i in 0..n {
            for j in i + 1..n {
                b.add_factor(&[vs[i], vs[j]]);
            }
        }
        b.build()
    }

    fn sharded(graph: &FactorGraph, parts: usize) -> (ShardedStore, Partition) {
        let params = EdgeParams::uniform(graph, 1.5, 0.9);
        let partition = Partition::grow(graph, parts);
        (ShardedStore::new(graph, &params, &partition), partition)
    }

    #[test]
    fn shards_partition_factors_and_edges() {
        let g = chain(40, 3);
        for parts in [1usize, 2, 4] {
            let (s, _) = sharded(&g, parts);
            assert_eq!(s.parts(), parts);
            let nf: usize = s.shards.iter().map(|sh| sh.factor_global.len()).sum();
            let ne: usize = s.shards.iter().map(|sh| sh.edge_global.len()).sum();
            assert_eq!(nf, g.num_factors());
            assert_eq!(ne, g.num_edges());
            for sh in &s.shards {
                sh.graph.validate().unwrap();
                assert!(sh.factor_global.windows(2).all(|w| w[0] < w[1]));
                assert!(sh.edge_global.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(sh.graph.num_edges(), sh.edge_global.len());
                assert_eq!(sh.graph.num_vars(), sh.var_global.len());
                assert_eq!(sh.params.rho.len(), sh.edge_global.len());
            }
        }
    }

    #[test]
    fn local_topology_mirrors_global() {
        let g = dense(8);
        let (s, _) = sharded(&g, 2);
        for sh in &s.shards {
            for (lf, &ga) in sh.factor_global.iter().enumerate() {
                let lf_id = FactorId::from_usize(lf);
                assert_eq!(sh.graph.factor_degree(lf_id), g.factor_degree(ga));
                for (k, le) in sh.graph.factor_edge_range(lf_id).enumerate() {
                    let ge = g.factor_edge_range(ga).start + k;
                    assert_eq!(sh.edge_global[le], EdgeId::from_usize(ge));
                    // Local edge targets map back to the global variable.
                    let lb = sh.graph.edge_var(EdgeId::from_usize(le));
                    assert_eq!(sh.var_global[lb.idx()], g.edge_var(EdgeId::from_usize(ge)));
                }
            }
        }
    }

    #[test]
    fn halo_matches_partition_halo_vars() {
        let g = dense(9);
        let (s, partition) = sharded(&g, 3);
        let expect = partition.halo_vars(&g);
        let got: Vec<VarId> = s.plan.vars.iter().map(|hv| hv.var).collect();
        assert_eq!(got, expect);
        // Every halo var has a replica entry in each touching shard.
        let replicas: usize = s.shards.iter().map(|sh| sh.halo_in.len()).sum();
        assert_eq!(
            replicas,
            s.plan.vars.iter().map(|hv| hv.parts.len()).sum::<usize>()
        );
    }

    #[test]
    fn reduce_tasks_fold_in_global_edge_order() {
        let g = dense(7);
        let params = EdgeParams::uniform(&g, 2.0, 1.0);
        let partition = Partition::contiguous(&g, 3);
        let s = ShardedStore::new(&g, &params, &partition);
        for (task, hv) in s.reduce.iter().zip(&s.plan.vars) {
            assert_eq!(task.contribs.len(), hv.degree);
            // Reconstruct the global edge each contribution came from and
            // check ascending order.
            let mut prev = None;
            for &(shard, slot) in &task.contribs {
                let sh = &s.shards[shard as usize];
                let le = sh.stage_edges[slot as usize] as usize;
                let ge = sh.edge_global[le];
                if let Some(p) = prev {
                    assert!(ge > p, "contributions must ascend by global edge");
                }
                prev = Some(ge);
            }
            let expect_rho: f64 = g.var_edges(hv.var).iter().map(|&e| params.rho(e)).sum();
            assert_eq!(task.rho_sum, expect_rho);
        }
    }

    #[test]
    fn scatter_gather_roundtrips_bitwise() {
        let g = dense(8);
        let (mut s, _) = sharded(&g, 3);
        let mut global = VarStore::zeros(&g);
        for (i, v) in global.x.iter_mut().enumerate() {
            *v = (i as f64 * 0.31).sin();
        }
        for (i, v) in global.z.iter_mut().enumerate() {
            *v = (i as f64 * 0.17).cos();
        }
        global.snapshot_z();
        global.u.fill(-1.25);
        let before = global.clone();
        s.scatter(&global);
        let mut back = VarStore::zeros(&g);
        // Gather into a zeroed store: every covered slot must be restored.
        back.z.copy_from_slice(&global.z); // orphanless graph, but keep shape
        s.gather(&mut back);
        assert_eq!(back.x, before.x);
        assert_eq!(back.u, before.u);
        assert_eq!(back.z, before.z);
        assert_eq!(back.z_prev, before.z_prev);
    }

    #[test]
    fn orphan_vars_get_snapshotted_on_gather() {
        let mut b = GraphBuilder::new(2);
        let v0 = b.add_var();
        let _lonely = b.add_var();
        b.add_factor(&[v0]);
        let g = b.build();
        let (mut s, _) = sharded(&g, 1);
        let mut global = VarStore::zeros(&g);
        global.z[2] = 7.0; // lonely var component 0
        global.z_prev[2] = -3.0;
        s.scatter(&global);
        s.gather(&mut global);
        assert_eq!(global.z_prev[2], 7.0, "orphan z_prev re-snapshotted");
    }

    #[test]
    fn single_part_has_no_halo() {
        let g = chain(30, 2);
        let (s, _) = sharded(&g, 1);
        assert_eq!(s.plan.halo_var_count(), 0);
        assert!(s.shards[0].stage_edges.is_empty());
        assert_eq!(
            s.shards[0].interior_vars.len(),
            g.num_vars(),
            "every var interior"
        );
    }

    #[test]
    fn empty_trailing_shards_are_well_formed() {
        // More parts than factors: trailing shards must be empty but valid.
        let g = chain(2, 1);
        let params = EdgeParams::uniform(&g, 1.0, 1.0);
        let partition = Partition::grow(&g, 2);
        // Force an extreme case via contiguous with many parts.
        let many = Partition::contiguous(&g, 2);
        for p in [partition, many] {
            let s = ShardedStore::new(&g, &params, &p);
            for sh in &s.shards {
                sh.graph.validate().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_partition_rejected() {
        let g = chain(5, 1);
        let other = chain(9, 1);
        let params = EdgeParams::uniform(&g, 1.0, 1.0);
        let partition = Partition::grow(&other, 2);
        let _ = ShardedStore::new(&g, &params, &partition);
    }
}
