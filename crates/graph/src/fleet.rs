//! Fleet layout: size statistics over a set of *independent* factor
//! graphs that are scheduled together without block-diagonal fusion.
//!
//! The batch layout ([`crate::batch`]) concatenates instances into one
//! fused graph; this helper deliberately does not — the fleet scheduler
//! keeps every instance separate (instances may even disagree on
//! `dims`) and only needs per-instance costs to order work
//! largest-first.

use crate::graph::FactorGraph;

/// Size statistics over a fleet of independent instances: per-instance
/// costs and a largest-first schedule order. No fusion, no state —
/// shapes only.
#[derive(Debug, Clone, Default)]
pub struct FleetLayout {
    /// Per instance, in fleet order: edge-components (`edges · dims`),
    /// the unit every element-wise sweep is linear in.
    costs: Vec<usize>,
}

impl FleetLayout {
    /// Builds the layout from the fleet's graphs (any mix of shapes
    /// and dims).
    pub fn new(graphs: &[&FactorGraph]) -> Self {
        let costs = graphs.iter().map(|g| g.num_edges() * g.dims()).collect();
        FleetLayout { costs }
    }

    /// Instance indices sorted by descending cost (stable: equal-cost
    /// instances keep fleet order). Opening big instances first puts
    /// early chunk claims where assistance will be needed most.
    pub fn schedule_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.costs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.costs[i]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn chain(dims: usize, vars: usize) -> FactorGraph {
        let mut b = GraphBuilder::new(dims);
        let ids: Vec<_> = (0..vars).map(|_| b.add_var()).collect();
        for w in ids.windows(2) {
            b.add_factor(w);
        }
        b.build()
    }

    #[test]
    fn layout_orders_largest_first() {
        let small = chain(1, 3);
        let big = chain(1, 20);
        let mid = chain(2, 5);
        let layout = FleetLayout::new(&[&small, &big, &mid]);
        assert_eq!(layout.schedule_order(), vec![1, 2, 0]);
    }

    #[test]
    fn mixed_dims_are_first_class() {
        let one_d = chain(1, 4);
        let three_d = chain(3, 4);
        let layout = FleetLayout::new(&[&one_d, &three_d]);
        assert_eq!(layout.costs[1], 3 * layout.costs[0]);
    }

    #[test]
    fn uniform_fleet_is_balanced() {
        let a = chain(2, 6);
        let b = chain(2, 6);
        let layout = FleetLayout::new(&[&a, &b]);
        assert_eq!(layout.schedule_order(), vec![0, 1]);
    }

    #[test]
    fn empty_fleet_degenerates() {
        let layout = FleetLayout::new(&[]);
        assert!(layout.schedule_order().is_empty());
    }
}
