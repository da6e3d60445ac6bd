//! The message-passing ADMM engine (the paper's Algorithm 2).
//!
//! Each iteration performs five sweeps over the factor graph, every one of
//! them embarrassingly parallel:
//!
//! ```text
//! for a ∈ F:      x(a,∂a) ← Prox_{f_a, ρ(a,·)}(n(a,·))      // x-update
//! for (a,b) ∈ E:  m(a,b) ← x(a,b) + u(a,b)                  // m-update
//! for b ∈ V:      z_b ← Σ_{a∈∂b} ρ(a,b) m(a,b) / Σ ρ(a,b)   // z-update
//! for (a,b) ∈ E:  u(a,b) ← u(a,b) + α(a,b)(x(a,b) − z_b)    // u-update
//! for (a,b) ∈ E:  n(a,b) ← z_b − u(a,b)                     // n-update
//! ```
//!
//! Every executor runs one schedule: a [`SweepPlan`] of [`Pass`]es
//! groups the five sweeps into three fused passes, `x+m | z | u+n` —
//! three synchronization points instead of five, with a double-buffered
//! `z`/`z_prev` swap in place of the per-iteration snapshot copy — and a
//! measuring [`Planner`] can weight its chunking and static splits with
//! per-operator costs, once, before the solve. [`naive::NaiveAdmm`] keeps
//! the paper's literal five sweeps as the oracle every executor is
//! tested against bit for bit. A [`SweepExecutor`] *backend* decides how
//! the plan's passes map onto hardware:
//!
//! * [`SerialBackend`] — the optimized single-core baseline the paper
//!   measures speedups against,
//! * [`PoolBackend`] — the one work-assisting executor: each worker runs
//!   a static share of every pass (the paper's OpenMP approach #2) and
//!   then assists the shares others have not reached, claiming chunks
//!   sized by the plan (the dynamic half of approach #1), with no
//!   barrier: a per-instance watermark closes each pass. The `rayon`,
//!   `barrier`, `worksteal` and `fleet` specs all build it, and the same
//!   round driver runs whole heterogeneous fleets through
//!   [`FleetSolver`],
//! * [`StaleBoundedBackend`] — partition-local stores with one worker
//!   per shard and a real per-iteration halo exchange (the paper's
//!   multi-device future-work item 3, run on one host's cores),
//!   synchronized by progress watermarks; halo reads may be up to `k`
//!   iterations stale (the paper's future-work item 1). The `sharded`
//!   spec runs it at `k = 0`, bit-identical to serial; the `async` spec
//!   at `k = 1`, which converges instead,
//! * [`AutoBackend`] — probes serial, pool and sharded on the actual
//!   problem and locks in the fastest (the paper's "automatic tuning"
//!   future-work made concrete).
//!
//! [`BackendSpec`] is the one descriptor that names and constructs the
//! built-in backends (and parses their text form); new execution
//! strategies implement [`SweepExecutor`] and plug into the same
//! [`Solver`] loop.
//!
//! For many *small independent* problems (batched serving), the
//! [`BatchSolver`] packs instances into one block-diagonal
//! [`FusedPack`] and drives it through any backend, with per-instance
//! residual tracking and early-exit freezing — see
//! [`BatchSolver::run`]; the serve engine's batch lane runs the same
//! pack. For
//! *heterogeneous* fleets (mixed sizes, even mixed `dims`), the
//! work-assisting [`FleetSolver`] keeps instances separate and lets
//! idle workers assist whichever instance still has sweep work — see
//! [`FleetSolver::run`].
//!
//! Users write only serial proximal operators ([`paradmm_prox::ProxOp`]);
//! no parallel code is ever required — the paper's headline usability
//! claim.

mod backend;
mod batch;
mod diagnostics;
mod fleet;
pub mod kernels;
pub mod naive;
mod plan;
mod pool;
mod problem;
mod request;
mod residuals;
mod solver;
mod spec;
mod stale;
mod timing;

pub use backend::{AutoBackend, SerialBackend, SweepExecutor};
pub use batch::{BatchReport, BatchSolver, FusedPack, Seat};
pub use diagnostics::{
    fleet_report, plan_report, prox_profile, subnormal_count, FleetDiagnostics, FleetWorkerStats,
    ProxKindCost,
};
pub use fleet::FleetSolver;
pub use kernels::UpdateKind;
pub use paradmm_prox::{ProxCtx, ProxOp};
pub use plan::{Pass, PassKind, PassSpace, Planner, SweepPlan};
pub use pool::PoolBackend;
pub use problem::AdmmProblem;
pub use request::{Priority, SolveOutcome, SolveRequest, SolveRequestParts};
pub use residuals::{InstanceReport, Residuals, RunState, StopReason, StoppingCriteria};
pub use solver::{Solver, SolverOptions, SolverReport};
pub use spec::{BackendSpec, ParseBackendSpecError, BACKEND_FAMILIES};
pub use stale::{watermark, StaleBoundedBackend};
pub use timing::{SweepCosts, UpdateTimings};
