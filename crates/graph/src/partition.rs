//! Factor partitioning for sharded execution (paper future-work 3).
//!
//! "Extend the code to allow the use of multiple GPUs and multiple
//! computers — this is an easy extension but requires new code to be
//! written." The partitioner assigns every factor to one of `parts`
//! shards, trying to balance per-part edge counts while keeping factors
//! that share variables together (BFS region growing). Variables touched
//! by more than one part become *halo* variables whose consensus requires
//! a cross-shard exchange every iteration (`crate::shard`).

use crate::graph::FactorGraph;
use crate::ids::{FactorId, VarId};

/// An assignment of factors to `parts` devices.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-factor part index.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub parts: usize,
}

impl Partition {
    /// Partitions factors by BFS region growing over the factor-adjacency
    /// (two factors are adjacent when they share a variable), targeting
    /// equal edge counts per part.
    ///
    /// # Panics
    /// If `parts == 0`.
    pub fn grow(graph: &FactorGraph, parts: usize) -> Self {
        assert!(parts > 0, "need at least one part");
        let nf = graph.num_factors();
        let total_edges = graph.num_edges();
        let budget = total_edges.div_ceil(parts).max(1);

        let mut assignment = vec![u32::MAX; nf];
        let mut queue = std::collections::VecDeque::new();
        let mut part = 0u32;
        let mut used = 0usize;
        let mut next_seed = 0usize;

        while next_seed < nf {
            if assignment[next_seed] != u32::MAX {
                next_seed += 1;
                continue;
            }
            queue.push_back(next_seed);
            while let Some(a) = queue.pop_front() {
                if assignment[a] != u32::MAX {
                    continue;
                }
                assignment[a] = part;
                used += graph.factor_degree(FactorId::from_usize(a));
                if used >= budget && (part as usize) < parts - 1 {
                    part += 1;
                    used = 0;
                    queue.clear();
                    break;
                }
                // Enqueue factor neighbours (sharing a variable).
                for &b in graph.factor_vars(FactorId::from_usize(a)) {
                    for &e in graph.var_edges(b) {
                        let neigh = graph.edge_factor(e).idx();
                        if assignment[neigh] == u32::MAX {
                            queue.push_back(neigh);
                        }
                    }
                }
            }
        }
        Partition { assignment, parts }
    }

    /// Contiguous block partition (edge-balanced, ignores adjacency) —
    /// the baseline the BFS partitioner is compared against.
    pub fn contiguous(graph: &FactorGraph, parts: usize) -> Self {
        assert!(parts > 0);
        let total_edges = graph.num_edges();
        let mut assignment = vec![0u32; graph.num_factors()];
        let mut acc = 0usize;
        for a in graph.factors() {
            let part = (acc * parts / total_edges.max(1)).min(parts - 1);
            assignment[a.idx()] = part as u32;
            acc += graph.factor_degree(a);
        }
        Partition { assignment, parts }
    }

    /// The part of factor `a`.
    #[inline]
    pub fn part_of(&self, a: FactorId) -> u32 {
        self.assignment[a.idx()]
    }

    /// Per-part edge counts.
    pub fn edge_loads(&self, graph: &FactorGraph) -> Vec<usize> {
        let mut loads = vec![0usize; self.parts];
        for a in graph.factors() {
            loads[self.assignment[a.idx()] as usize] += graph.factor_degree(a);
        }
        loads
    }

    /// Variables touched by factors of more than one part — each needs an
    /// inter-device consensus exchange every iteration.
    pub fn halo_vars(&self, graph: &FactorGraph) -> Vec<VarId> {
        let mut halo = Vec::new();
        for b in graph.vars() {
            let mut seen: Option<u32> = None;
            let mut split = false;
            for &e in graph.var_edges(b) {
                let p = self.part_of(graph.edge_factor(e));
                match seen {
                    None => seen = Some(p),
                    Some(q) if q != p => {
                        split = true;
                        break;
                    }
                    _ => {}
                }
            }
            if split {
                halo.push(b);
            }
        }
        halo
    }

    /// Structural validity against `graph` (e.g. after deserialization):
    /// one assignment per factor, every part index in range, at least one
    /// part.
    pub fn validate(&self, graph: &FactorGraph) -> Result<(), String> {
        if self.parts == 0 {
            return Err("partition must have at least one part".into());
        }
        if self.assignment.len() != graph.num_factors() {
            return Err("assignment length disagrees with factor count".into());
        }
        if let Some(bad) = self
            .assignment
            .iter()
            .position(|&p| p as usize >= self.parts)
        {
            return Err(format!("factor {bad} assigned to out-of-range part"));
        }
        Ok(())
    }

    /// Load imbalance: max part edge-load over mean.
    pub(crate) fn imbalance(&self, graph: &FactorGraph) -> f64 {
        let loads = self.edge_loads(graph);
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = graph.num_edges() as f64 / self.parts as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Chain of `n` pairwise factors (MPC-like locality).
    fn chain(n: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(n + 1);
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
        }
        b.build()
    }

    #[test]
    fn grow_assigns_every_factor() {
        let g = chain(100);
        for parts in [1usize, 2, 3, 7] {
            let p = Partition::grow(&g, parts);
            assert!(p.assignment.iter().all(|&a| (a as usize) < parts));
            assert_eq!(p.assignment.len(), 100);
        }
    }

    #[test]
    fn single_part_has_no_halo() {
        let g = chain(50);
        let p = Partition::grow(&g, 1);
        assert!(p.halo_vars(&g).is_empty());
        assert_eq!(p.edge_loads(&g), vec![100]);
    }

    #[test]
    fn chain_two_parts_has_tiny_halo() {
        let g = chain(200);
        let p = Partition::grow(&g, 2);
        let halo = p.halo_vars(&g);
        assert!(
            halo.len() <= 3,
            "a chain should split with O(1) halo vars, got {}",
            halo.len()
        );
        assert!(p.imbalance(&g) < 1.2, "imbalance {}", p.imbalance(&g));
    }

    #[test]
    fn complete_graph_halo_is_everything() {
        // Packing-like: every pair of variables shares a factor.
        let mut b = GraphBuilder::new(1);
        let vs = b.add_vars(10);
        for i in 0..10 {
            for j in i + 1..10 {
                b.add_factor(&[vs[i], vs[j]]);
            }
        }
        let g = b.build();
        let p = Partition::grow(&g, 2);
        let halo = p.halo_vars(&g);
        assert!(
            halo.len() >= 8,
            "dense graphs cannot be cut cheaply, halo = {}",
            halo.len()
        );
    }

    #[test]
    fn grow_beats_or_matches_contiguous_on_chain() {
        let g = chain(300);
        let grow = Partition::grow(&g, 4);
        let cont = Partition::contiguous(&g, 4);
        assert!(grow.halo_vars(&g).len() <= cont.halo_vars(&g).len() + 3);
    }

    #[test]
    fn loads_sum_to_total_edges() {
        let g = chain(123);
        let p = Partition::grow(&g, 5);
        let loads = p.edge_loads(&g);
        assert_eq!(loads.iter().sum::<usize>(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let _ = Partition::grow(&chain(5), 0);
    }

    #[test]
    fn validate_accepts_grow_and_rejects_corruption() {
        let g = chain(20);
        let p = Partition::grow(&g, 3);
        assert!(p.validate(&g).is_ok());
        let mut bad = p.clone();
        bad.assignment[0] = 99;
        assert!(bad.validate(&g).is_err());
        let mut short = p.clone();
        short.assignment.pop();
        assert!(short.validate(&g).is_err());
        let zero = Partition {
            assignment: Vec::new(),
            parts: 0,
        };
        assert!(zero.validate(&GraphBuilder::new(1).build()).is_err());
    }
}
