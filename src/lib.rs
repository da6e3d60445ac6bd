//! # parADMM-rs — fine-grained parallel ADMM on a factor-graph
//!
//! Umbrella crate re-exporting the full workspace: a Rust reproduction of
//! *"Testing fine-grained parallelism for the ADMM on a factor-graph"*
//! (Hao, Oghbaee, Rostami, Derbinsky, Bento — IPDPS Workshops 2016,
//! arXiv:1603.02526).
//!
//! The ADMM iteration is expressed as five embarrassingly-parallel update
//! sweeps (x, m, z, u, n) over a bipartite factor-graph; users write only
//! *serial* proximal operators and the engine parallelizes the sweeps.
//! Execution strategies are pluggable [`core::SweepExecutor`] backends:
//! serial, the work-assisting pool (static shares plus assists), shard
//! workers with a halo exchange (synchronous or bounded-stale), or
//! probe-and-lock auto selection — all
//! driven by the same [`core::Solver`] loop. [`gpusim`] prices the same
//! passes on analytic GPU and multicore machine models.
//!
//! ## Quick start
//!
//! ```
//! use paradmm::prelude::*;
//!
//! // minimize (s-1)^2 + (s-5)^2 via consensus of two quadratic factors.
//! let mut b = GraphBuilder::new(1);
//! let w = b.add_var();
//! b.add_factor(&[w]);
//! b.add_factor(&[w]);
//! let graph = b.build();
//!
//! let proxes: Vec<Box<dyn ProxOp>> = vec![
//!     Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])),
//!     Box::new(QuadraticProx::isotropic(1, 1.0, &[5.0])),
//! ];
//! let mut solver = Solver::new(graph, proxes, SolverOptions::default());
//! let report = solver.run(200);
//! assert!(report.iterations <= 200);
//! let z = solver.store().z_var(VarId(0));
//! assert!((z[0] - 3.0).abs() < 1e-6); // midpoint of 1 and 5
//! ```
//!
//! See `examples/` for the paper's three application domains (circle
//! packing, model-predictive control, SVM training) and `crates/bench` for
//! the figure-by-figure reproduction harness.

pub use paradmm_core as core;
pub use paradmm_gpusim as gpusim;
pub use paradmm_graph as graph;
pub use paradmm_linalg as linalg;
pub use paradmm_mpc as mpc;
pub use paradmm_packing as packing;
pub use paradmm_prox as prox;
pub use paradmm_serve as serve;
pub use paradmm_sudoku as sudoku;
pub use paradmm_svm as svm;

/// Convenient glob-import of the most common types.
pub mod prelude {
    pub use paradmm_core::{
        AdmmProblem, AutoBackend, BackendSpec, BatchReport, BatchSolver, FleetSolver,
        InstanceReport, Pass, PassKind, Planner, PoolBackend, Priority, ProxCtx, ProxOp, Residuals,
        SerialBackend, SolveOutcome, SolveRequest, Solver, SolverOptions, SolverReport,
        StaleBoundedBackend, StopReason, StoppingCriteria, SweepCosts, SweepExecutor, SweepPlan,
        UpdateKind, UpdateTimings,
    };
    pub use paradmm_graph::{
        AlignedVec, BatchInstance, BatchLayout, BatchStore, EdgeId, EdgeParams, EdgeStream,
        FactorGraph, FactorId, GraphBuilder, GraphStats, Reordering, VarId, VarStore,
    };
    pub use paradmm_prox::{
        AffineEqualityProx, BoxProx, ConsensusEqualityProx, HalfspaceProx, HingeProx, L1Prox,
        NormBallProx, NumericProx, PermutationProx, QuadraticProx, SemiLassoProx, SimplexProx,
        ZeroProx,
    };
}
