//! Serializable descriptions of the closed-form operators.
//!
//! A [`crate::ProxOp`] is a trait object — fine inside one process, but a
//! solve *request* that crosses a process boundary (the `paradmm-serve`
//! wire protocol, saved workloads) needs a data description of each
//! factor's operator. [`ProxSpec`] is that description: a plain enum
//! covering every closed-form operator whose state is pure data, with
//! [`ProxSpec::build`] reconstructing the operator and
//! [`crate::ProxOp::spec`] going the other way. Operators with
//! non-serializable state (e.g. [`crate::NumericProx`]'s objective
//! closure) simply return `None` from `spec` and cannot cross the wire.

use paradmm_linalg::{weighted_gram, Cholesky, Matrix};

use crate::equality::{AffineEqualityProx, ConsensusEqualityProx};
use crate::simple::{BoxProx, L1Prox, LinearProx, QuadraticProx, SemiLassoProx, ZeroProx};
use crate::ProxOp;

/// Data description of one factor's proximal operator — everything the
/// serving layer needs to rebuild the operator on the other side of a
/// socket. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxSpec {
    /// [`ZeroProx`]: `f ≡ 0`, prox is the identity.
    Zero,
    /// [`LinearProx`]: `f(s) = gᵀs` over the flattened block.
    Linear {
        /// Gradient, one entry per flattened component.
        g: Vec<f64>,
    },
    /// [`QuadraticProx`]: diagonal quadratic `½ q_j s_j² − g_j s_j`.
    Quadratic {
        /// Per-component curvature.
        q: Vec<f64>,
        /// Per-component linear term.
        g: Vec<f64>,
    },
    /// [`BoxProx`]: indicator of `[lo, hi]` component-wise.
    Box {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// [`L1Prox`]: `f(s) = λ‖s‖₁` soft-thresholding.
    L1 {
        /// Regularization strength λ ≥ 0.
        lambda: f64,
    },
    /// [`SemiLassoProx`]: the paper's minimal-error SVM operator.
    SemiLasso {
        /// Slack penalty λ ≥ 0.
        lambda: f64,
    },
    /// [`ConsensusEqualityProx`]: `s₁ = … = s_k` across edge blocks.
    Consensus,
    /// [`AffineEqualityProx`]: indicator of `{s : M s = c}` with `M`
    /// stored row-major.
    AffineEquality {
        /// Constraint-matrix row count.
        rows: usize,
        /// Constraint-matrix column count (`degree · dims`).
        cols: usize,
        /// Row-major matrix entries, `rows · cols` of them.
        data: Vec<f64>,
        /// Right-hand side, `rows` entries.
        c: Vec<f64>,
    },
}

impl ProxSpec {
    /// Checks the spec's internal shape invariants (the same ones the
    /// operator constructors assert) without building anything — the
    /// validation hook for untrusted wire input, returning a message
    /// instead of panicking.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ProxSpec::Zero | ProxSpec::Consensus => Ok(()),
            ProxSpec::Linear { g } => {
                if g.is_empty() {
                    return Err("linear prox needs a non-empty gradient".into());
                }
                Ok(())
            }
            ProxSpec::Quadratic { q, g } => {
                if q.len() != g.len() {
                    return Err(format!(
                        "quadratic prox q/g length mismatch ({} vs {})",
                        q.len(),
                        g.len()
                    ));
                }
                Ok(())
            }
            ProxSpec::Box { lo, hi } => {
                // Negated form on purpose: NaN bounds must also fail.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(lo <= hi) {
                    return Err(format!("box bounds inverted ({lo} > {hi})"));
                }
                Ok(())
            }
            ProxSpec::L1 { lambda } | ProxSpec::SemiLasso { lambda } => {
                // Negated form on purpose: a NaN lambda must also fail.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(*lambda >= 0.0) {
                    return Err(format!("lambda must be non-negative (got {lambda})"));
                }
                Ok(())
            }
            ProxSpec::AffineEquality {
                rows,
                cols,
                data,
                c,
            } => {
                if data.len() != rows * cols {
                    return Err(format!(
                        "affine matrix data length {} != {rows}×{cols}",
                        data.len()
                    ));
                }
                if c.len() != *rows {
                    return Err(format!("affine rhs length {} != rows {rows}", c.len()));
                }
                Ok(())
            }
        }
    }

    /// Checks what [`ProxSpec::validate`] cannot see without the factor:
    /// that the operator will not fail at the factor's own weights `rho`
    /// (one per edge, over blocks of `dims` components). Refuses a
    /// quadratic or affine constraint with a non-finite entry, a
    /// quadratic with `q_j + ρ ≤ 0`, and an affine constraint whose
    /// `M W⁻¹ Mᵀ` does not factor. The check factors the same
    /// [`weighted_gram`] the operator's projection factors, so this
    /// check and `prox` agree on which constraints factor. Runs
    /// [`ProxSpec::validate`] first, and refuses a quadratic or affine
    /// spec whose span is not the factor's `rho.len() · dims`.
    pub fn validate_at(&self, rho: &[f64], dims: usize) -> Result<(), String> {
        self.validate()?;
        let span = rho.len() * dims;
        let check_span = |len: usize| {
            if dims > 0 && len == span {
                Ok(())
            } else {
                Err(format!(
                    "prox spans {len} components, factor has {} edges of {dims}",
                    rho.len()
                ))
            }
        };
        match self {
            ProxSpec::Quadratic { q, g } => {
                check_span(q.len())?;
                for (i, &rho) in rho.iter().enumerate() {
                    for j in i * dims..(i + 1) * dims {
                        if !(q[j].is_finite() && g[j].is_finite()) {
                            return Err(format!(
                                "quadratic entry {j} is not finite (q {}, g {})",
                                q[j], g[j]
                            ));
                        }
                        let denom = q[j] + rho;
                        if denom <= 0.0 {
                            return Err(format!(
                                "quadratic q[{j}] + rho = {denom} is not positive"
                            ));
                        }
                    }
                }
                Ok(())
            }
            ProxSpec::AffineEquality {
                rows,
                cols,
                data,
                c,
            } => {
                // A NaN entry would pass the factorization's positivity
                // test and run the whole budget on NaN iterates.
                if let Some(v) = data.iter().chain(c).find(|v| !v.is_finite()) {
                    return Err(format!("affine constraint entry {v} is not finite"));
                }
                check_span(*cols)?;
                // More rows than columns cannot have full row rank;
                // refusing them first also bounds M W⁻¹ Mᵀ by the span.
                if rows > cols {
                    return Err(format!(
                        "affine constraint of {rows} rows over {cols} components cannot have full row rank"
                    ));
                }
                let mut w = vec![0.0; *cols];
                for (wi, &rho) in w.chunks_exact_mut(dims).zip(rho) {
                    wi.fill(rho);
                }
                Cholesky::factor(&weighted_gram(*rows, data, &w))
                    .map(drop)
                    .map_err(|e| format!("affine constraint does not factor at its rho: {e}"))
            }
            _ => Ok(()),
        }
    }

    /// Reconstructs the operator this spec describes.
    ///
    /// # Panics
    /// On shape violations — call [`ProxSpec::validate`] first for
    /// untrusted input.
    pub fn build(&self) -> Box<dyn ProxOp> {
        match self {
            ProxSpec::Zero => Box::new(ZeroProx),
            ProxSpec::Linear { g } => Box::new(LinearProx::new(g.clone())),
            ProxSpec::Quadratic { q, g } => Box::new(QuadraticProx::diagonal(q.clone(), g.clone())),
            ProxSpec::Box { lo, hi } => Box::new(BoxProx::new(*lo, *hi)),
            ProxSpec::L1 { lambda } => Box::new(L1Prox::new(*lambda)),
            ProxSpec::SemiLasso { lambda } => Box::new(SemiLassoProx::new(*lambda)),
            ProxSpec::Consensus => Box::new(ConsensusEqualityProx),
            ProxSpec::AffineEquality {
                rows,
                cols,
                data,
                c,
            } => {
                let m = Matrix::from_vec(*rows, *cols, data.clone());
                Box::new(AffineEqualityProx::new(m, c.clone()))
            }
        }
    }
}

/// Extracts the specs for a whole factor list, or `None` if any operator
/// is non-serializable — the all-or-nothing check a request encoder
/// performs before committing to the wire.
pub fn specs_for(proxes: &[Box<dyn ProxOp>]) -> Option<Vec<ProxSpec>> {
    proxes.iter().map(|p| p.spec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProxCtx;

    fn run(op: &dyn ProxOp, n: &[f64], rho: &[f64], dims: usize) -> Vec<f64> {
        let mut x = vec![0.0; n.len()];
        let mut ctx = ProxCtx::new(n, rho, &mut x, dims);
        op.prox(&mut ctx);
        x
    }

    /// `validate_at` refuses a spec whose shape does not fit the factor
    /// instead of indexing past it.
    #[test]
    fn validate_at_refuses_a_span_that_does_not_fit_the_factor() {
        let quadratic = ProxSpec::Quadratic {
            q: vec![1.0; 4],
            g: vec![0.0; 4],
        };
        assert!(quadratic.validate_at(&[1.0, 1.0], 2).is_ok());
        for (rho, dims) in [(&[1.0][..], 2), (&[1.0, 1.0, 1.0][..], 2), (&[][..], 0)] {
            let err = quadratic.validate_at(rho, dims).unwrap_err();
            assert!(err.contains("spans 4 components"), "{err}");
        }
        let affine = ProxSpec::AffineEquality {
            rows: 1,
            cols: 2,
            data: vec![1.0, 1.0],
            c: vec![0.0],
        };
        assert!(affine.validate_at(&[1.0], 2).is_ok());
        assert!(affine.validate_at(&[1.0, 1.0], 2).is_err());
        let torn = ProxSpec::Quadratic {
            q: vec![1.0; 2],
            g: vec![0.0],
        };
        assert!(torn.validate_at(&[1.0], 2).is_err());
    }

    fn all_specs() -> Vec<(Box<dyn ProxOp>, usize)> {
        // (operator, flattened block length it expects)
        vec![
            (Box::new(ZeroProx), 2),
            (Box::new(LinearProx::new(vec![0.5, -1.0])), 2),
            (
                Box::new(QuadraticProx::diagonal(vec![2.0, 0.5], vec![1.0, -1.0])),
                2,
            ),
            (Box::new(BoxProx::new(-1.0, 1.0)), 2),
            (Box::new(L1Prox::new(0.7)), 2),
            (Box::new(SemiLassoProx::new(0.3)), 2),
            (Box::new(ConsensusEqualityProx), 2),
            (
                Box::new(AffineEqualityProx::new(
                    Matrix::from_rows(&[&[1.0, 1.0]]),
                    vec![4.0],
                )),
                2,
            ),
        ]
    }

    #[test]
    fn spec_roundtrip_preserves_behavior() {
        let n = [0.8, -2.3];
        let rho = [1.5, 0.6];
        for (op, len) in all_specs() {
            assert_eq!(len, n.len());
            let spec = op.spec().expect("all library operators serialize");
            spec.validate().unwrap();
            let rebuilt = spec.build();
            assert_eq!(
                run(&*op, &n, &rho, 1),
                run(&*rebuilt, &n, &rho, 1),
                "{} rebuilt from spec must act identically",
                op.name()
            );
        }
    }

    #[test]
    fn specs_for_is_all_or_nothing() {
        let ok: Vec<Box<dyn ProxOp>> = vec![Box::new(ZeroProx), Box::new(L1Prox::new(1.0))];
        assert_eq!(specs_for(&ok).map(|v| v.len()), Some(2));

        let closure = crate::NumericProx::new(|s: &[f64]| s.iter().sum::<f64>().abs());
        let mixed: Vec<Box<dyn ProxOp>> = vec![Box::new(ZeroProx), Box::new(closure)];
        assert!(specs_for(&mixed).is_none());
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        assert!(ProxSpec::Quadratic {
            q: vec![1.0],
            g: vec![1.0, 2.0],
        }
        .validate()
        .is_err());
        assert!(ProxSpec::Box { lo: 2.0, hi: 1.0 }.validate().is_err());
        assert!(ProxSpec::L1 { lambda: -0.5 }.validate().is_err());
        assert!(ProxSpec::L1 { lambda: f64::NAN }.validate().is_err());
        assert!(ProxSpec::AffineEquality {
            rows: 2,
            cols: 2,
            data: vec![1.0; 3],
            c: vec![0.0; 2],
        }
        .validate()
        .is_err());
        assert!(ProxSpec::AffineEquality {
            rows: 1,
            cols: 2,
            data: vec![1.0, -1.0],
            c: vec![0.0, 0.0],
        }
        .validate()
        .is_err());
    }
}
