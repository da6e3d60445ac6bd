//! Soft-margin SVM training via the factor-graph ADMM (paper Section V-C).
//!
//! Given `N` labelled points `{(xᵢ, yᵢ)}`, `yᵢ ∈ {−1, +1}`, the paper
//! trains the soft-margin SVM
//!
//! ```text
//! minimize  Σᵢ 1/(2N)·‖wᵢ‖² + λ ξᵢ
//! s.t.      (wᵢ, bᵢ) = (wᵢ₊₁, bᵢ₊₁)            ∀ i    (copy chain)
//!           yᵢ(wᵢᵀxᵢ + bᵢ) ≥ 1 − ξᵢ            ∀ i    (hinge)
//!           ξᵢ ≥ 0                              ∀ i
//! ```
//!
//! The plane `(w, b)` is replicated once per data point and the norm term
//! split into `N` equal parts — the paper does this deliberately "to make
//! the distribution of the number of edges-per-node in the factor-graph
//! more equilibrated", which is what keeps the z-update balanced on the
//! GPU. [`SvmProblem::build`] implements that replicated topology; the
//! tests compare it against the naive single-`w` star topology
//! (conclusion / Figure 12 discussion).
//!
//! A Pegasos-style subgradient reference (`reference`) provides an
//! independent baseline for accuracy tests, and `data` generates the
//! paper's two-Gaussian synthetic datasets.

mod data;
mod problem;
mod reference;

pub use data::{gaussian_mixture, Dataset};
pub use problem::{SvmConfig, SvmModel, SvmProblem};
pub use reference::pegasos_train;
