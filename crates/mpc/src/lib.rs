//! Model-predictive control via the factor-graph ADMM (paper Section V-B).
//!
//! The paper's MPC benchmark solves, for a discrete-time linear system
//! `q(t+1) − q(t) = A q(t) + B u(t)`:
//!
//! ```text
//! minimize  Σ_t q(t)ᵀQ q(t) + u(t)ᵀR u(t)
//! s.t.      q(t+1) − q(t) = A q(t) + B u(t)   ∀ t
//!           q(0) = q₀
//! ```
//!
//! with `A ∈ R⁴ˣ⁴`, `B ∈ R⁴ˣ¹` obtained by linearizing an inverted
//! pendulum around its upright equilibrium and sampling every 40 ms, and
//! the prediction horizon `K` swept from 200 to 10⁵. The factor graph
//! (paper Figure 9) has one variable node per time step holding
//! `(q(t), u(t))` (so `dims = 5`), a quadratic cost factor per step, a
//! linear-dynamics equality factor per adjacent pair, and one
//! initial-condition factor — everything grows linearly in `K`.
//!
//! For small horizons the tests also solve the same QP *exactly* via its
//! KKT system (`kkt::solve_exact`, compiled for tests only) to verify the
//! ADMM fixed point is the true optimum.

#[cfg(test)]
mod kkt;
pub mod pendulum;
mod problem;

pub use problem::{MpcConfig, MpcProblem, Trajectory};
