//! Per-task work extraction from a real problem.
//!
//! Each graph element update is one *task* (one GPU thread / one loop body).
//! A task's cost has a compute part (abstract work units ≈ flops, from the
//! proximal operators' [`paradmm_prox::ProxOp::cost_estimate`] and from the
//! fixed arithmetic of the m/z/u/n sweeps) and a memory part (bytes moved,
//! split into coalesced streams and scattered transactions according to the
//! actual edge-ordered array layout).

use paradmm_core::{AdmmProblem, PassKind};
use paradmm_graph::FactorGraph;

/// Cost of one task (one thread's work in a kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Abstract compute work units (≈ flops).
    pub compute: f64,
    /// Bytes accessed with unit stride relative to the thread index —
    /// these coalesce across a warp into 128-byte transactions.
    pub coalesced_bytes: f64,
    /// Memory transactions that cannot coalesce (pointer-chased / indexed
    /// accesses, e.g. the z-update gathering a variable's scattered edges).
    pub scattered_transactions: f64,
}

impl TaskCost {
    /// A zero-cost task (idle lane in a partially-filled warp).
    pub const IDLE: TaskCost = TaskCost {
        compute: 0.0,
        coalesced_bytes: 0.0,
        scattered_transactions: 0.0,
    };

    /// Effective bytes this task moves through a *CPU* cache hierarchy:
    /// scattered accesses cost a fraction of a cache line (64 B lines,
    /// partially amortized by locality), not the GPU's full 128-byte
    /// transaction.
    #[inline]
    pub(crate) fn cpu_bytes(&self) -> f64 {
        self.coalesced_bytes + 16.0 * self.scattered_transactions
    }

    /// Componentwise sum — the cost of one thread running both fused
    /// bodies back to back (kernel fusion adds work per thread, it does
    /// not change what each body reads or writes).
    #[inline]
    pub(crate) fn fused_with(&self, other: &TaskCost) -> TaskCost {
        TaskCost {
            compute: self.compute + other.compute,
            coalesced_bytes: self.coalesced_bytes + other.coalesced_bytes,
            scattered_transactions: self.scattered_transactions + other.scattered_transactions,
        }
    }
}

const F64_BYTES: f64 = 8.0;

/// The five sweeps of the paper's Algorithm 2, in execution order — the
/// unit its GPU and CPU figures time, and so the unit the models price.
/// The executors run three fused passes instead ([`PassKind`]);
/// [`WorkloadProfile::pass_tasks`] prices those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// Proximal-operator sweep over factors.
    X,
    /// `m = x + u` sweep over edges.
    M,
    /// Weighted-average sweep over variable nodes.
    Z,
    /// Dual-ascent sweep over edges.
    U,
    /// `n = z − u` sweep over edges.
    N,
}

impl UpdateKind {
    /// All kinds in execution order.
    pub const ALL: [UpdateKind; 5] = [
        UpdateKind::X,
        UpdateKind::M,
        UpdateKind::Z,
        UpdateKind::U,
        UpdateKind::N,
    ];

    /// Index 0..5 in execution order.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase label matching the paper's figures ("x-update", …).
    pub fn label(self) -> &'static str {
        match self {
            UpdateKind::X => "x",
            UpdateKind::M => "m",
            UpdateKind::Z => "z",
            UpdateKind::U => "u",
            UpdateKind::N => "n",
        }
    }
}

/// The tasks of one of the five sweeps.
#[derive(Debug, Clone)]
pub struct SweepProfile {
    /// Which sweep this is.
    pub kind: UpdateKind,
    /// One entry per task (factor / edge / variable).
    pub tasks: Vec<TaskCost>,
}

impl SweepProfile {
    /// Total compute units across tasks.
    pub(crate) fn total_compute(&self) -> f64 {
        self.tasks.iter().map(|t| t.compute).sum()
    }

    /// Total bytes moved on a 128-byte-transaction device (coalesced +
    /// scattered·128 B).
    #[cfg(test)]
    pub(crate) fn total_bytes(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.coalesced_bytes + 128.0 * t.scattered_transactions)
            .sum()
    }

    /// Total effective bytes through a CPU cache hierarchy.
    pub(crate) fn total_cpu_bytes(&self) -> f64 {
        self.tasks.iter().map(TaskCost::cpu_bytes).sum()
    }

    /// Largest single-task compute cost (drives warp divergence).
    pub(crate) fn max_compute(&self) -> f64 {
        self.tasks.iter().fold(0.0_f64, |m, t| m.max(t.compute))
    }
}

/// The full per-iteration work profile of a problem: five sweeps.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Sweep profiles in execution order (x, m, z, u, n).
    pub sweeps: [SweepProfile; 5],
}

impl WorkloadProfile {
    /// Extracts the profile from a problem. Costs depend only on topology
    /// and operator types, so this is computed once per problem.
    pub fn from_problem(problem: &AdmmProblem) -> Self {
        let g = problem.graph();
        let d = g.dims() as f64;

        // x-update: one task per factor. The n/x blocks are contiguous
        // *per factor*, but adjacent threads own different-length blocks,
        // and each PO also chases its own parameters, edge list and ρ
        // values — so the factor's per-edge traffic is modeled as
        // scattered (one transaction per edge), which is what makes the
        // x-update one of the two hardest kernels to accelerate in the
        // paper (§V-A: "the slowest updates are the x and z updates").
        let edge_trans = (d * F64_BYTES / 128.0).max(1.0);
        let x_tasks: Vec<TaskCost> = g
            .factors()
            .map(|a| {
                let deg = g.factor_degree(a);
                TaskCost {
                    compute: problem.prox(a).cost_estimate(deg, g.dims()),
                    coalesced_bytes: deg as f64 * d * F64_BYTES, // x write-back
                    scattered_transactions: deg as f64 * edge_trans,
                }
            })
            .collect();

        // m-update: one task per edge, m = x + u: pure streaming.
        let m_tasks: Vec<TaskCost> = g
            .edges()
            .map(|_| TaskCost {
                compute: d,
                coalesced_bytes: 3.0 * d * F64_BYTES,
                scattered_transactions: 0.0,
            })
            .collect();

        // z-update: one task per variable. Gathers ρ·m over its incident
        // edges — scattered reads (edge ids of one variable are not
        // contiguous) — then writes its own z block.
        let z_tasks: Vec<TaskCost> = g
            .vars()
            .map(|b| {
                let deg = g.var_degree(b) as f64;
                TaskCost {
                    compute: 2.0 * deg * d + d + 2.0,
                    coalesced_bytes: d * F64_BYTES,
                    scattered_transactions: deg * edge_trans,
                }
            })
            .collect();

        // u-update: one task per edge. Streams x and u, gathers z of the
        // edge's variable (scattered), writes u.
        let u_tasks: Vec<TaskCost> = g
            .edges()
            .map(|_| TaskCost {
                compute: 3.0 * d,
                coalesced_bytes: 3.0 * d * F64_BYTES,
                scattered_transactions: (d * F64_BYTES / 128.0).max(1.0),
            })
            .collect();

        // n-update: one task per edge. Streams u, gathers z, writes n.
        let n_tasks: Vec<TaskCost> = g
            .edges()
            .map(|_| TaskCost {
                compute: d,
                coalesced_bytes: 2.0 * d * F64_BYTES,
                scattered_transactions: (d * F64_BYTES / 128.0).max(1.0),
            })
            .collect();

        WorkloadProfile {
            sweeps: [
                SweepProfile {
                    kind: UpdateKind::X,
                    tasks: x_tasks,
                },
                SweepProfile {
                    kind: UpdateKind::M,
                    tasks: m_tasks,
                },
                SweepProfile {
                    kind: UpdateKind::Z,
                    tasks: z_tasks,
                },
                SweepProfile {
                    kind: UpdateKind::U,
                    tasks: u_tasks,
                },
                SweepProfile {
                    kind: UpdateKind::N,
                    tasks: n_tasks,
                },
            ],
        }
    }

    /// The profile of one sweep.
    pub fn sweep(&self, kind: UpdateKind) -> &SweepProfile {
        &self.sweeps[kind.index()]
    }

    /// The task list of one [`PassKind`] — the unit a fused kernel
    /// launch prices. The fused x+m pass has one task per *factor* (its x
    /// task plus the m tasks of its own edges), the z pass the z sweep's
    /// tasks, the fused u+n pass one task per edge (u task plus n task).
    pub fn pass_tasks(&self, kind: PassKind, graph: &FactorGraph) -> Vec<TaskCost> {
        let sweep = |k: UpdateKind| &self.sweeps[k.index()].tasks;
        match kind {
            PassKind::Z => sweep(UpdateKind::Z).clone(),
            PassKind::Xm => {
                let (x, m) = (sweep(UpdateKind::X), sweep(UpdateKind::M));
                graph
                    .factors()
                    .map(|a| {
                        graph
                            .factor_edge_range(a)
                            .fold(x[a.idx()], |acc, e| acc.fused_with(&m[e]))
                    })
                    .collect()
            }
            PassKind::Un => {
                let (u, n) = (sweep(UpdateKind::U), sweep(UpdateKind::N));
                u.iter().zip(n).map(|(a, b)| a.fused_with(b)).collect()
            }
        }
    }

    /// Total compute units per full iteration.
    #[cfg(test)]
    pub(crate) fn total_compute(&self) -> f64 {
        self.sweeps.iter().map(|s| s.total_compute()).sum()
    }

    /// Total bytes moved per full iteration.
    #[cfg(test)]
    pub(crate) fn total_bytes(&self) -> f64 {
        self.sweeps.iter().map(|s| s.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_core::AdmmProblem;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, ZeroProx};

    #[test]
    fn update_kind_ordering() {
        assert_eq!(UpdateKind::ALL[0].index(), 0);
        assert_eq!(UpdateKind::ALL[4].label(), "n");
    }

    fn star_problem(leaves: usize, dims: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(dims);
        let hub = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for _ in 0..leaves {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
            proxes.push(Box::new(ZeroProx));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn task_counts_match_graph_elements() {
        let p = star_problem(6, 2);
        let w = WorkloadProfile::from_problem(&p);
        assert_eq!(w.sweep(UpdateKind::X).tasks.len(), 6); // factors
        assert_eq!(w.sweep(UpdateKind::M).tasks.len(), 12); // edges
        assert_eq!(w.sweep(UpdateKind::Z).tasks.len(), 7); // vars
        assert_eq!(w.sweep(UpdateKind::U).tasks.len(), 12);
        assert_eq!(w.sweep(UpdateKind::N).tasks.len(), 12);
    }

    #[test]
    fn hub_z_task_dominates() {
        let p = star_problem(64, 1);
        let w = WorkloadProfile::from_problem(&p);
        let z = w.sweep(UpdateKind::Z);
        // Hub is variable 0 with degree 64; leaves degree 1.
        assert!(z.tasks[0].compute > 10.0 * z.tasks[1].compute);
        assert_eq!(z.max_compute(), z.tasks[0].compute);
    }

    #[test]
    fn z_sweep_is_scattered_m_sweep_is_not() {
        let p = star_problem(4, 1);
        let w = WorkloadProfile::from_problem(&p);
        assert!(w.sweep(UpdateKind::Z).tasks[0].scattered_transactions > 0.0);
        assert_eq!(w.sweep(UpdateKind::M).tasks[0].scattered_transactions, 0.0);
    }

    #[test]
    fn totals_positive_and_additive() {
        let p = star_problem(3, 2);
        let w = WorkloadProfile::from_problem(&p);
        assert!(w.total_compute() > 0.0);
        assert!(w.total_bytes() > 0.0);
        let manual: f64 = w.sweeps.iter().map(|s| s.total_compute()).sum();
        assert_eq!(w.total_compute(), manual);
    }

    #[test]
    fn fused_pass_tasks_conserve_totals() {
        use paradmm_core::SweepPlan;
        let p = star_problem(5, 2);
        let w = WorkloadProfile::from_problem(&p);
        let g = p.graph();
        let plan = SweepPlan::fused(&p);
        // Fusion repartitions work across threads but must not create or
        // destroy any: summed compute/bytes over the plan's passes equal
        // the five-sweep totals.
        let pass_compute: f64 = plan
            .passes()
            .iter()
            .map(|pass| {
                w.pass_tasks(pass.kind(), g)
                    .iter()
                    .map(|t| t.compute)
                    .sum::<f64>()
            })
            .sum();
        assert!((pass_compute - w.total_compute()).abs() < 1e-9);
        // One x+m task per factor, one u+n task per edge.
        assert_eq!(w.pass_tasks(PassKind::Xm, g).len(), g.num_factors());
        assert_eq!(w.pass_tasks(PassKind::Un, g).len(), g.num_edges());
        // An x+m factor task carries its x compute plus its edges' m.
        let xm = w.pass_tasks(PassKind::Xm, g);
        let x = &w.sweep(UpdateKind::X).tasks;
        assert!(xm[0].compute > x[0].compute);
    }

    #[test]
    fn profile_scales_with_graph_size() {
        let small = WorkloadProfile::from_problem(&star_problem(10, 1));
        let large = WorkloadProfile::from_problem(&star_problem(100, 1));
        let ratio = large.total_compute() / small.total_compute();
        assert!(
            ratio > 8.0 && ratio < 12.0,
            "compute should scale ~linearly, got {ratio}"
        );
    }
}
