//! Proximal operators for the factor-graph ADMM.
//!
//! Line 3 of the paper's Algorithm 2 assigns every function node `a` the
//! sub-problem
//!
//! ```text
//! x(a,∂a) ← argmin_s  f_a(s) + Σ_{b∈∂a} ρ(a,b)/2 · ‖s_b − n(a,b)‖²
//! ```
//!
//! — the *proximal operator* (PO) of `f_a` under per-edge weights. Users of
//! parADMM write exactly this map as **serial** code; the engine schedules
//! one PO per core. This crate defines the [`ProxOp`] trait the engine
//! invokes plus a library of closed-form operators covering the paper's
//! appendix (quadratic costs, half-space and affine-equality indicators,
//! consensus, semi-lasso, hinge, …) and a numeric fallback
//! ([`NumericProx`]) used to cross-check every closed form in tests.
//!
//! Operator state is immutable during a solve (`&self`), which is what
//! makes the x-update embarrassingly parallel.

mod ctx;
mod equality;
mod halfspace;
mod numeric;
mod projections;
mod simple;
mod spec;
pub mod testing;

pub use ctx::ProxCtx;
pub use equality::{AffineEqualityProx, ConsensusEqualityProx};
pub use halfspace::{HalfspaceProx, HingeProx};
pub use numeric::NumericProx;
pub use projections::{NormBallProx, PermutationProx, SimplexProx};
pub use simple::{BoxProx, L1Prox, LinearProx, QuadraticProx, SemiLassoProx, ZeroProx};
pub use spec::{specs_for, ProxSpec};

/// A proximal operator: the serial kernel executed by one GPU thread / CPU
/// core during the x-update.
///
/// Implementations must be `Send + Sync` (shared read-only across worker
/// threads) and deterministic. All mutable state lives in the
/// [`ProxCtx`]'s output slice.
///
/// # Writing an operator
///
/// The sweep calls `prox` once per factor per iteration, so at the paper
/// families' 2–12 scalars per factor the loop around the arithmetic costs
/// as much as the arithmetic. Two rules keep it small:
///
/// * **Loop over edges, then components** — `for (i, &rho) in
///   ctx.rho.iter().enumerate() { for j in i * d..(i + 1) * d { … } }` —
///   and never find a component's weight by dividing its index by
///   `dims`: that is a 64-bit division per component, several times the
///   cost of the multiply-add it feeds.
/// * **A fixed-shape body is the any-shape body at a known shape.** Write
///   the closed form once as an `#[inline(always)]` function of slices
///   and `dims`, dispatch `match (ctx.rho.len(), ctx.dims)` to
///   const-generic wrappers that cut every slice to its compile-time
///   length first (see `HalfspaceProx::project_fixed`), and keep the
///   any-shape call as the fallback arm. The loops then unroll and the
///   bounds checks fold, while every output still sees the same rounded
///   operations in the same order — accumulations ascending in `j` — so
///   the solve is bit-identical whichever arm runs. Check the operator's
///   stored vectors against `ctx.n.len()` *before* the dispatch, and pin
///   `prox` ≡ the any-shape body with `to_bits()` equality
///   ([`testing::seeded_blocks`], [`testing::output_bits`]).
///
/// # Sharing an operator
///
/// An operator is immutable during a solve, so factors with the same
/// function can share one instance: build it once and hand every such
/// factor `Box::new(Arc::clone(&op))`. A horizon of `K` identical
/// stage costs then holds one operator and `K` pointers, not `K`
/// copies of its data, and every factor computes the same bits as it
/// would on its own copy.
///
/// ```
/// use std::sync::Arc;
/// use paradmm_prox::{ProxOp, QuadraticProx};
///
/// let stage = Arc::new(QuadraticProx::diagonal(vec![2.0; 5], vec![0.0; 5]));
/// let proxes: Vec<Box<dyn ProxOp>> =
///     (0..1000).map(|_| Box::new(Arc::clone(&stage)) as Box<dyn ProxOp>).collect();
/// assert_eq!(Arc::strong_count(&stage), 1001);
/// assert_eq!(proxes[999].name(), "quadratic");
/// ```
pub trait ProxOp: Send + Sync {
    /// Solves `argmin_s f(s) + Σᵢ ρᵢ/2 ‖sᵢ − nᵢ‖²` and writes `s` into
    /// `ctx.x`. Blocks are laid out contiguously: edge `i` of the factor
    /// occupies components `i*dims .. (i+1)*dims` of both `ctx.n` and
    /// `ctx.x`, weighted by `ctx.rho[i]`.
    fn prox(&self, ctx: &mut ProxCtx<'_>);

    /// Analytic work estimate in abstract flop-units for a factor of
    /// `degree` edges with `dims`-component edge vectors. Drives the
    /// machine models in `paradmm-gpusim`; the default charges a small
    /// constant per scalar touched.
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        4.0 * (degree * dims) as f64
    }

    /// Human-readable operator name (diagnostics / traces).
    fn name(&self) -> &'static str {
        "prox"
    }

    /// Serializable description of this operator, if its state is pure
    /// data — what lets a solve request cross a process boundary (the
    /// serving wire protocol). Operators holding closures or other
    /// non-serializable state keep the default `None` and cannot be
    /// sent over the wire. See [`spec::ProxSpec`].
    fn spec(&self) -> Option<ProxSpec> {
        None
    }
}

impl<T: ProxOp + ?Sized> ProxOp for Box<T> {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        (**self).prox(ctx)
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        (**self).cost_estimate(degree, dims)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn spec(&self) -> Option<ProxSpec> {
        (**self).spec()
    }
}

impl<T: ProxOp + ?Sized> ProxOp for std::sync::Arc<T> {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        (**self).prox(ctx)
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        (**self).cost_estimate(degree, dims)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn spec(&self) -> Option<ProxSpec> {
        (**self).spec()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use paradmm_linalg::Matrix;

    use super::*;
    use crate::testing::{output_bits, seeded_blocks};

    /// An operator behind an `Arc` is the operator: `prox` writes the
    /// same bits and every other method answers the same.
    #[test]
    fn arc_forwards_every_method_bit_for_bit() {
        let ops: Vec<(Box<dyn ProxOp>, usize, usize)> = vec![
            (
                Box::new(QuadraticProx::diagonal(
                    vec![2.0, 0.2, 2.0, 0.2, 0.2],
                    vec![0.5, -1.0, 0.0, 3.0, 0.25],
                )),
                1,
                5,
            ),
            (
                Box::new(HalfspaceProx::new(vec![1.0, -2.0, 0.5, 1.0], 0.75)),
                2,
                2,
            ),
            (
                Box::new(AffineEqualityProx::new(
                    Matrix::from_rows(&[&[1.0, 1.0, 0.0, -1.0], &[0.0, 2.0, 1.0, 0.0]]),
                    vec![1.0, -0.5],
                )),
                2,
                2,
            ),
            (Box::new(ConsensusEqualityProx), 2, 3),
            (Box::new(L1Prox::new(0.3)), 3, 1),
        ];
        for (op, degree, dims) in ops {
            let shared: Arc<dyn ProxOp> = Arc::from(op);
            let behind_arc: Box<dyn ProxOp> = Box::new(Arc::clone(&shared));
            let direct: &dyn ProxOp = &*shared;
            let len = degree * dims;
            for (case, (n, rho)) in seeded_blocks(degree, dims, 32).into_iter().enumerate() {
                let want = output_bits(len, |x| direct.prox(&mut ProxCtx::new(&n, &rho, x, dims)));
                let got = output_bits(len, |x| {
                    behind_arc.prox(&mut ProxCtx::new(&n, &rho, x, dims))
                });
                assert_eq!(got, want, "{} case {case}", direct.name());
            }
            assert_eq!(behind_arc.name(), direct.name());
            assert_eq!(behind_arc.spec(), direct.spec());
            assert_eq!(
                behind_arc.cost_estimate(degree, dims).to_bits(),
                direct.cost_estimate(degree, dims).to_bits()
            );
        }
    }
}
