//! Machine models standing in for the paper's hardware.
//!
//! The paper evaluates parADMM on an NVIDIA Tesla K40 (CUDA) and a 32-core
//! AMD Opteron Abu Dhabi 6300 (OpenMP). Neither is available here, so this
//! crate provides *analytic execution models* of both, driven by the exact
//! per-task work profile of a real [`paradmm_core::AdmmProblem`]:
//!
//! * [`SimtDevice`] — a SIMT GPU model: kernels launched as
//!   `<<<nb, ntb>>>` grids, warps of 32 executing in lockstep (so a warp
//!   costs its *slowest* thread), block-granularity SM slot scheduling,
//!   occupancy-dependent memory-latency hiding, and coalescing determined
//!   by the actual edge-ordered array layout.
//! * [`CpuModel`] — a shared-memory multicore model: per-sweep fork-join
//!   overhead, memory-bandwidth saturation for the cheap streaming sweeps
//!   (m/u/n), and a cross-socket penalty past one socket — the effects
//!   behind Figures 8/11/14's sub-linear scaling.
//!
//! The models price; they do not execute. Each is a pure function of a
//! problem's [`WorkloadProfile`], the pass or sweep being launched, the
//! device and `ntb` — the paper's five sweeps are named by
//! [`UpdateKind`], and the fused `x+m | z | u+n` launches the executors
//! run come from [`WorkloadProfile::pass_tasks`]. Iterates are computed
//! only by the `paradmm-core` executors. Timing constants are calibrated
//! against a measured serial run so the modeled serial-CPU time matches
//! reality, making speedup = modeled-CPU / modeled-GPU a like-for-like
//! ratio.

mod cpu;
mod device;
mod tasks;
mod transfer;

pub use cpu::CpuModel;
pub use device::{KernelStats, SimtDevice};
pub use tasks::{SweepProfile, TaskCost, UpdateKind, WorkloadProfile};
pub use transfer::PcieLink;
