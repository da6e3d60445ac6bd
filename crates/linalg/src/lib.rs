//! Minimal dense linear algebra used by the parADMM proximal operators.
//!
//! The MPC dynamics operator projects onto an affine subspace `{s : M s = c}`
//! which requires small dense factorizations (the paper's systems are
//! 4-state/1-input, so matrices are at most ~10×10). This crate provides
//! exactly what the proximal-operator library needs and nothing more:
//!
//! * free functions over `&[f64]` slices ([`ops`]) — dot products, norms,
//!   AXPY-style updates — written so they vectorize well,
//! * a row-major dense [`Matrix`] with the usual products,
//! * [`Lu`] (partial-pivoted) and [`Cholesky`] factorizations,
//! * [`project_affine`] / [`project_affine_weighted`], the workhorses of
//!   equality-constrained proximal maps, and [`weighted_gram`], the
//!   system the weighted projection factors.
//!
//! Everything is `f64`; the paper's engine stores all ADMM state as doubles.

mod chol;
mod lu;
mod matrix;
pub mod ops;
mod project;

pub use chol::Cholesky;
pub use lu::Lu;
pub use matrix::Matrix;
pub use project::{project_affine, project_affine_weighted, weighted_gram};

/// Error type for factorizations of singular / non-PD matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was (numerically) singular at the given pivot index.
    Singular(usize),
    /// The matrix was not positive definite (Cholesky only).
    NotPositiveDefinite(usize),
    /// Dimensions of the operands do not match.
    DimensionMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular(k) => write!(f, "matrix singular at pivot {k}"),
            LinalgError::NotPositiveDefinite(k) => {
                write!(f, "matrix not positive definite at pivot {k}")
            }
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
