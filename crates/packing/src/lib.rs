//! Circle packing via the factor-graph ADMM (paper Section V-A).
//!
//! The task: place `N` non-overlapping disks inside a convex container
//! (the paper uses a triangle bounded by `S = 3` half-planes) so as to
//! maximize the covered area `Σ rᵢ²`. The paper formulates this NP-hard
//! problem as
//!
//! ```text
//! minimize  −Σᵢ rᵢ²
//! s.t.      ‖cᵢ − cⱼ‖ ≥ rᵢ + rⱼ       ∀ i < j      (no collisions)
//!           Qₛᵀ(cᵢ − Vₛ) ≥ rᵢ          ∀ s, i       (inside walls)
//! ```
//!
//! and decomposes it into a factor graph with `2N` variable nodes
//! (`N` centers + `N` radii), `N(N−1)/2 + N + N·S` function nodes, and
//! `2N² − N + 2NS` edges — quadratic in `N`, which is what makes packing
//! the paper's stress test for fine-grained parallelism.
//!
//! All proximal operators have the closed forms of the paper's Appendix A
//! (with the collision operator's radius sign corrected to the actual KKT
//! solution, which tests verify variationally).

mod geometry;
mod problem;
mod prox;
mod svg;

pub use geometry::{Disk, HalfPlane, Polygon};
pub use problem::{PackingConfig, PackingProblem, PackingSolution};
pub use prox::CollisionProx;
pub use svg::render_svg;
