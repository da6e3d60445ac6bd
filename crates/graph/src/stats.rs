//! Degree statistics and load-imbalance metrics.
//!
//! The paper's conclusion observes that "when one GPU-core needs to perform
//! much more work than most of the other GPU-cores, the speedup can get
//! substantially reduced" — specifically the z-update stalls on the
//! highest-degree variable node. These metrics quantify that imbalance and
//! feed both the GPU simulator's warp-divergence model and the
//! degree-grouped z-update scheduler.

use crate::graph::FactorGraph;
use crate::partition::Partition;

/// Quality metrics of a factor partition — the numbers that decide
/// whether a sharded run can beat a monolithic one: how many variables
/// need an inter-shard exchange every iteration, how many edges feed
/// those variables, and how evenly the compute is spread.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Number of parts.
    pub parts: usize,
    /// Variables touched by more than one part (each costs a per-
    /// iteration halo exchange).
    pub halo_vars: usize,
    /// Edges whose target variable is a halo variable — every one ships
    /// a weighted message in the gather phase.
    pub cut_edges: usize,
    /// Max per-part edge load over the ideal mean (1.0 = perfectly
    /// balanced).
    pub edge_balance: f64,
    /// Per-part edge loads.
    pub edge_loads: Vec<usize>,
}

impl PartitionStats {
    /// Computes the metrics of `partition` over `graph`.
    ///
    /// # Panics
    /// If the partition does not cover this graph's factors.
    pub fn compute(graph: &FactorGraph, partition: &Partition) -> Self {
        assert_eq!(
            partition.assignment.len(),
            graph.num_factors(),
            "partition does not cover this graph's factors"
        );
        // Partition::halo_vars is the canonical halo definition — the
        // same one the exchange plan and the sharded store build on.
        let halo = partition.halo_vars(graph);
        let mut is_halo = vec![false; graph.num_vars()];
        for &b in &halo {
            is_halo[b.idx()] = true;
        }
        let cut_edges = graph
            .edges()
            .filter(|&e| is_halo[graph.edge_var(e).idx()])
            .count();
        let halo_vars = halo.len();
        PartitionStats {
            parts: partition.parts,
            halo_vars,
            cut_edges,
            edge_balance: partition.imbalance(graph),
            edge_loads: partition.edge_loads(graph),
        }
    }
}

/// Summary statistics of a factor graph's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|`, `|F|`, `|E|`, `d`.
    pub num_vars: usize,
    /// Number of factor nodes.
    pub num_factors: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Components per edge vector.
    pub dims: usize,
    /// Largest `|∂b|` over variables.
    pub max_var_degree: usize,
    /// Mean `|∂b|`.
    pub mean_var_degree: f64,
    /// Largest `|∂a|` over factors.
    pub max_factor_degree: usize,
    /// Mean `|∂a|`.
    pub mean_factor_degree: f64,
    /// `max/mean` variable degree — 1.0 means perfectly balanced z-update.
    pub var_imbalance: f64,
    /// `max/mean` factor degree — 1.0 means perfectly balanced x-update.
    pub factor_imbalance: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &FactorGraph) -> Self {
        let nv = graph.num_vars();
        let nf = graph.num_factors();
        let ne = graph.num_edges();
        let (mut max_v, mut sum_v) = (0usize, 0usize);
        for b in graph.vars() {
            let d = graph.var_degree(b);
            max_v = max_v.max(d);
            sum_v += d;
        }
        let (mut max_f, mut sum_f) = (0usize, 0usize);
        for a in graph.factors() {
            let d = graph.factor_degree(a);
            max_f = max_f.max(d);
            sum_f += d;
        }
        let mean_v = if nv == 0 {
            0.0
        } else {
            sum_v as f64 / nv as f64
        };
        let mean_f = if nf == 0 {
            0.0
        } else {
            sum_f as f64 / nf as f64
        };
        GraphStats {
            num_vars: nv,
            num_factors: nf,
            num_edges: ne,
            dims: graph.dims(),
            max_var_degree: max_v,
            mean_var_degree: mean_v,
            max_factor_degree: max_f,
            mean_factor_degree: mean_f,
            var_imbalance: if mean_v > 0.0 {
                max_v as f64 / mean_v
            } else {
                1.0
            },
            factor_imbalance: if mean_f > 0.0 {
                max_f as f64 / mean_f
            } else {
                1.0
            },
        }
    }

    /// Histogram of variable degrees (index = degree).
    pub fn var_degree_histogram(graph: &FactorGraph) -> Vec<usize> {
        let mut h = Vec::new();
        for b in graph.vars() {
            let d = graph.var_degree(b);
            if d >= h.len() {
                h.resize(d + 1, 0);
            }
            h[d] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star(leaves: usize) -> FactorGraph {
        // One hub variable touched by `leaves` factors, each also touching
        // its own private variable: hub degree = leaves, others = 1.
        let mut b = GraphBuilder::new(1);
        let hub = b.add_var();
        for _ in 0..leaves {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
        }
        b.build()
    }

    #[test]
    fn stats_on_star() {
        let g = star(4);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vars, 5);
        assert_eq!(s.num_factors, 4);
        assert_eq!(s.num_edges, 8);
        assert_eq!(s.max_var_degree, 4);
        assert!((s.mean_var_degree - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.var_imbalance > 2.0);
        assert_eq!(s.max_factor_degree, 2);
        assert!((s.factor_imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty() {
        let g = GraphBuilder::new(2).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.var_imbalance, 1.0);
    }

    #[test]
    fn histogram_counts_degrees() {
        let g = star(3);
        let h = GraphStats::var_degree_histogram(&g);
        // 3 leaves with degree 1, hub with degree 3.
        assert_eq!(h, vec![0, 3, 0, 1]);
    }

    #[test]
    fn partition_stats_on_chain() {
        use crate::partition::Partition;
        // 10 pairwise factors in a chain: a 2-way split has exactly one
        // halo variable (the seam), whose two incident edges are cut.
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(11);
        for i in 0..10 {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        let g = b.build();
        let p = Partition::grow(&g, 2);
        let s = PartitionStats::compute(&g, &p);
        assert_eq!(s.parts, 2);
        assert_eq!(s.halo_vars, 1);
        assert_eq!(s.cut_edges, 2);
        assert_eq!(s.edge_loads.iter().sum::<usize>(), g.num_edges());
        assert!((s.edge_balance - p.imbalance(&g)).abs() < 1e-12);
    }

    #[test]
    fn partition_stats_single_part_has_no_cut() {
        use crate::partition::Partition;
        let g = star(5);
        let p = Partition::grow(&g, 1);
        let s = PartitionStats::compute(&g, &p);
        assert_eq!(s.halo_vars, 0);
        assert_eq!(s.cut_edges, 0);
        assert_eq!(s.edge_loads, vec![g.num_edges()]);
    }
}
