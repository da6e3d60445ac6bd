//! Host↔device transfer model (PCIe 3.0 ×16, as on the paper's machine).
//!
//! The paper reports three transfer costs and argues all are amortized:
//! copying the result `z` back (0.3 ms–60 ms), copying the factor graph to
//! the GPU once (up to 450 s including host-side construction), and
//! per-cycle state refreshes for real-time MPC ("almost instantaneously").
//! This model lets the benchmark harness report the same accounting.

use paradmm_graph::{FactorGraph, VarStore};

/// A host↔device link.
#[derive(Debug, Clone)]
pub struct PcieLink {
    /// Sustained bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-operation latency, seconds.
    pub latency: f64,
    /// Host-side per-graph-element preparation cost, seconds. Dominates
    /// the one-time graph upload (the paper's 450 s at N = 5000 circles is
    /// construction + marshalling, not wire time).
    pub per_element_prep: f64,
}

impl PcieLink {
    /// PCIe 3.0 ×16 as in the paper's host.
    pub fn pcie3_x16() -> Self {
        PcieLink {
            bandwidth: 12e9,
            latency: 10e-6,
            per_element_prep: 8e-6,
        }
    }

    /// Time to move `bytes` across the link.
    pub(crate) fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }

    /// Time to copy the result `z` device→host (the paper's per-check
    /// cost: 0.3 ms for packing N=5000, 60 ms for SVM N=1e5 at d=2).
    pub fn copy_z_back(&self, store: &VarStore) -> f64 {
        self.transfer_time(store.z.len() as f64 * 8.0)
    }

    /// One-time cost to build and upload the factor graph: host-side
    /// marshalling per element plus the wire transfer of topology and all
    /// five variable arrays.
    pub fn upload_graph(&self, graph: &FactorGraph, store: &VarStore) -> f64 {
        let elements = graph.num_factors() + graph.num_edges() + graph.num_vars();
        let topo_bytes = (graph.num_edges() * 2 * 4 + graph.num_factors() * 4) as f64;
        let state_bytes = store.len_f64() as f64 * 8.0;
        elements as f64 * self.per_element_prep + self.transfer_time(topo_bytes + state_bytes)
    }

    /// Per-control-cycle refresh for real-time MPC: upload one state
    /// vector (`dims` doubles) — the paper's "almost instantaneous" path.
    pub fn refresh_state(&self, dims: usize) -> f64 {
        self.transfer_time(dims as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;

    fn graph(n_factors: usize) -> (FactorGraph, VarStore) {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(n_factors + 1);
        for i in 0..n_factors {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        let g = b.build();
        let s = VarStore::zeros(&g);
        (g, s)
    }

    #[test]
    fn z_copy_is_sub_millisecond_for_small_graphs() {
        let (_, s) = graph(1000);
        let link = PcieLink::pcie3_x16();
        let t = link.copy_z_back(&s);
        assert!(t < 1e-3, "small z copies must be ~negligible, got {t}");
        assert!(t >= link.latency);
    }

    #[test]
    fn graph_upload_dominated_by_prep_for_big_graphs() {
        let (g, s) = graph(100_000);
        let link = PcieLink::pcie3_x16();
        let total = link.upload_graph(&g, &s);
        let wire = link.transfer_time(s.len_f64() as f64 * 8.0);
        assert!(total > 5.0 * wire, "prep cost should dominate upload");
    }

    #[test]
    fn upload_scales_linearly() {
        let link = PcieLink::pcie3_x16();
        let (g1, s1) = graph(10_000);
        let (g2, s2) = graph(100_000);
        let r = link.upload_graph(&g2, &s2) / link.upload_graph(&g1, &s1);
        assert!(r > 8.0 && r < 12.0);
    }

    #[test]
    fn state_refresh_is_microseconds() {
        let link = PcieLink::pcie3_x16();
        assert!(link.refresh_state(4) < 1e-4);
    }
}
