//! The packing-specific proximal operator: pairwise no-collision.
//!
//! Wall and radius operators reuse the generic library
//! ([`paradmm_prox::HalfspaceProx`], [`paradmm_prox::QuadraticProx`]); the
//! collision constraint `‖c₁ − c₂‖ ≥ r₁ + r₂` is non-convex and gets the
//! dedicated closed form of the paper's Appendix A, reduced by symmetry to
//! a one-dimensional problem along the center line.

use paradmm_prox::{ProxCtx, ProxOp};

/// Proximal operator of the indicator of
/// `{(c₁, r₁, c₂, r₂) : ‖c₁ − c₂‖ ≥ r₁ + r₂}`.
///
/// Block layout (4 edges, `dims = 2` each):
/// edge 0 = `c₁`, edge 1 = `r₁` (component 0; component 1 is padding and
/// passes through untouched), edge 2 = `c₂`, edge 3 = `r₂`.
///
/// Closed form (KKT along the center direction `n̂`): with
/// `D = max(0, n_{r₁} + n_{r₂} − ‖n_{c₂} − n_{c₁}‖)` and per-disk weights
/// `ρ₁, ρ₂` (taken from the center edges; the paper assumes each disk's
/// center and radius edges share a weight),
///
/// ```text
/// (c₁, r₁) = (n_{c₁}, n_{r₁}) + D/2 · ρ₂/(ρ₁+ρ₂) · (−n̂, −1)
/// (c₂, r₂) = (n_{c₂}, n_{r₂}) + D/2 · ρ₁/(ρ₁+ρ₂) · (+n̂, −1)
/// ```
///
/// (The paper's appendix prints the radius component with a `+1`; the `−1`
/// here is the actual constrained minimizer — overlapping disks must both
/// *separate and shrink* — which the tests verify variationally against
/// the augmented objective.)
#[derive(Debug, Clone, Default)]
pub struct CollisionProx;

impl ProxOp for CollisionProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(ctx.dims, 2, "collision operator expects dims = 2");
        assert_eq!(ctx.degree(), 4, "collision factor touches (c1, r1, c2, r2)");
        // The one shape this operator has, held as arrays: the copy is
        // eight moves instead of a `memcpy` call and no index below is
        // bounds-checked.
        let n: &[f64; 8] = ctx.n.try_into().expect("collision block is 8 scalars");
        let x: &mut [f64; 8] = (&mut *ctx.x)
            .try_into()
            .expect("collision block is 8 scalars");
        *x = *n;

        let (c1, r1) = ([n[0], n[1]], n[2]);
        let (c2, r2) = ([n[4], n[5]], n[6]);
        let rho1 = ctx.rho[0];
        let rho2 = ctx.rho[2];

        let dx = c2[0] - c1[0];
        let dy = c2[1] - c1[1];
        let dist = (dx * dx + dy * dy).sqrt();
        let overlap = r1 + r2 - dist;
        if overlap <= 0.0 {
            return; // feasible: the prox is the identity
        }
        // Unit direction from disk 1 to disk 2 (deterministic fallback for
        // exactly coincident centers).
        let (nx, ny) = if dist > 1e-300 {
            (dx / dist, dy / dist)
        } else {
            (1.0, 0.0)
        };

        let w1 = rho2 / (rho1 + rho2); // disk 1 moves ∝ 1/ρ₁
        let w2 = rho1 / (rho1 + rho2);
        let step = 0.5 * overlap;

        // Disk 1: move away from disk 2, shrink.
        x[0] = c1[0] - step * w1 * nx;
        x[1] = c1[1] - step * w1 * ny;
        x[2] = r1 - step * w1;
        // Disk 2: move away from disk 1, shrink.
        x[4] = c2[0] + step * w2 * nx;
        x[5] = c2[1] + step * w2 * ny;
        x[6] = r2 - step * w2;
        // Padding components (x[3], x[7]) already carry n from the copy.
    }

    fn cost_estimate(&self, _degree: usize, _dims: usize) -> f64 {
        // sqrt, division, branches and 8-scalar updates: ~150 issued
        // instructions of serial code.
        150.0
    }

    fn name(&self) -> &'static str {
        "collision"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_prox::testing::{assert_is_minimizer, output_bits, seeded_blocks};

    fn run(n: &[f64; 8], rho: &[f64; 4]) -> Vec<f64> {
        let mut x = vec![0.0; 8];
        let mut ctx = ProxCtx::new(n, rho, &mut x, 2);
        CollisionProx.prox(&mut ctx);
        x
    }

    fn gap(x: &[f64]) -> f64 {
        let dx = x[4] - x[0];
        let dy = x[5] - x[1];
        (dx * dx + dy * dy).sqrt() - x[2] - x[6]
    }

    /// The array-held body must agree bit for bit with the slice-indexed
    /// body it replaced, on overlapping and separated pairs, non-uniform
    /// per-edge ρ, ±0 inputs and padding.
    #[test]
    fn array_body_matches_the_slice_body_bitwise() {
        let (mut overlapping, mut separated) = (0, 0);
        for (case, (mut n, rho)) in seeded_blocks(4, 2, 128).into_iter().enumerate() {
            // Radii of either sign around 0.9: about half the pairs overlap.
            n[2] = 0.9 + 0.5 * n[2];
            n[6] = 0.9 + 0.5 * n[6];
            let fixed = output_bits(8, |x| CollisionProx.prox(&mut ProxCtx::new(&n, &rho, x, 2)));
            let before = output_bits(8, |x| {
                x.copy_from_slice(&n);
                let (dx, dy) = (n[4] - n[0], n[5] - n[1]);
                let dist = (dx * dx + dy * dy).sqrt();
                let overlap = n[2] + n[6] - dist;
                if overlap <= 0.0 {
                    separated += 1;
                    return;
                }
                overlapping += 1;
                let (nx, ny) = if dist > 1e-300 {
                    (dx / dist, dy / dist)
                } else {
                    (1.0, 0.0)
                };
                let w1 = rho[2] / (rho[0] + rho[2]);
                let w2 = rho[0] / (rho[0] + rho[2]);
                let step = 0.5 * overlap;
                x[0] = n[0] - step * w1 * nx;
                x[1] = n[1] - step * w1 * ny;
                x[2] = n[2] - step * w1;
                x[4] = n[4] + step * w2 * nx;
                x[5] = n[5] + step * w2 * ny;
                x[6] = n[6] - step * w2;
            });
            assert_eq!(fixed, before, "case {case}");
        }
        assert!(
            overlapping > 16 && separated > 16,
            "{overlapping} / {separated}"
        );
    }

    #[test]
    #[should_panic(expected = "expects dims = 2")]
    fn other_dims_still_rejected() {
        let (n, rho) = ([0.0; 12], [1.0; 4]);
        CollisionProx.prox(&mut ProxCtx::new(&n, &rho, &mut [0.0; 12], 3));
    }

    #[test]
    fn separated_disks_untouched() {
        let n = [0.0, 0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0];
        let x = run(&n, &[1.0; 4]);
        assert_eq!(x, n.to_vec());
    }

    #[test]
    fn touching_disks_untouched() {
        let n = [0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0];
        let x = run(&n, &[1.0; 4]);
        assert_eq!(x, n.to_vec());
    }

    #[test]
    fn overlapping_disks_land_on_boundary() {
        let n = [0.0, 0.0, 1.5, 0.0, 2.0, 0.0, 1.5, 0.0];
        let x = run(&n, &[1.0; 4]);
        assert!(gap(&x).abs() < 1e-10, "gap = {}", gap(&x));
        // Symmetric weights → symmetric correction.
        assert!((x[0] + x[4] - 2.0).abs() < 1e-12, "midpoint preserved");
        assert!((x[2] - x[6]).abs() < 1e-12, "radii shrink equally");
        assert!(x[2] < 1.5, "radii must shrink");
    }

    #[test]
    fn heavier_disk_moves_less() {
        let n = [0.0, 0.0, 1.5, 0.0, 2.0, 0.0, 1.5, 0.0];
        let x = run(&n, &[10.0, 10.0, 1.0, 1.0]);
        assert!(gap(&x).abs() < 1e-10);
        let move1 = (x[0].powi(2) + x[1].powi(2)).sqrt();
        let move2 = ((x[4] - 2.0).powi(2) + x[5].powi(2)).sqrt();
        assert!(
            move1 < 0.2 * move2,
            "heavy disk 1 moved {move1}, light disk 2 moved {move2}"
        );
    }

    #[test]
    fn coincident_centers_resolved_deterministically() {
        let n = [1.0, 1.0, 0.5, 0.0, 1.0, 1.0, 0.5, 0.0];
        let x = run(&n, &[1.0; 4]);
        assert!(gap(&x) > -1e-10);
        let x2 = run(&n, &[1.0; 4]);
        assert_eq!(x, x2);
    }

    #[test]
    fn padding_components_pass_through() {
        let n = [0.0, 0.0, 1.5, 7.0, 2.0, 0.0, 1.5, -3.0];
        let x = run(&n, &[1.0; 4]);
        assert_eq!(x[3], 7.0);
        assert_eq!(x[7], -3.0);
    }

    #[test]
    fn output_is_constrained_minimizer() {
        let n = [0.1, -0.2, 1.2, 0.0, 1.5, 0.4, 1.1, 0.0];
        let rho = [2.0, 2.0, 0.7, 0.7];
        let x = run(&n, &rho);
        assert_is_minimizer(
            |s: &[f64]| {
                let dx = s[4] - s[0];
                let dy = s[5] - s[1];
                let g = (dx * dx + dy * dy).sqrt() - s[2] - s[6];
                if g >= -1e-9 {
                    0.0
                } else {
                    f64::INFINITY
                }
            },
            &n,
            &rho,
            2,
            &x,
            1e-6,
        );
    }

    #[test]
    fn paper_formula_with_uniform_weights() {
        // ρ equal → each disk absorbs D/4 of motion and D/4 of shrink.
        let n = [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]; // dist 1, radii sum 2 → D = 1
        let x = run(&n, &[1.0; 4]);
        assert!((x[0] + 0.25).abs() < 1e-12);
        assert!((x[4] - 1.25).abs() < 1e-12);
        assert!((x[2] - 0.75).abs() < 1e-12);
        assert!((x[6] - 0.75).abs() < 1e-12);
    }
}
