//! Shared verification helpers for proximal-operator tests.
//!
//! Every closed-form operator in this workspace is validated against the
//! defining variational property: the returned `x` must minimize
//! `F(s) = f(s) + Σᵢ ρᵢ/2 ‖sᵢ − nᵢ‖²`. These helpers probe `F` at random
//! perturbations of `x` and fail if any probe improves on it.
//!
//! Operators that carry a fixed-shape body beside their any-shape one are
//! additionally checked bit for bit: [`seeded_blocks`] draws the inputs
//! and [`output_bits`] captures what a body wrote.

/// Deterministic draws for this module's probes and inputs (no rand
/// dependency here; the module is also used from doctests).
struct Lcg(u64);

impl Lcg {
    /// The next draw, uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1_u64 << 53) as f64)
    }
}

/// Evaluates the augmented objective `F(s) = f(s) + Σᵢ ρᵢ/2 ‖sᵢ − nᵢ‖²`
/// with per-edge weights expanded over `dims`-component blocks.
pub fn augmented_objective(
    f: &dyn Fn(&[f64]) -> f64,
    n: &[f64],
    rho: &[f64],
    dims: usize,
    s: &[f64],
) -> f64 {
    let mut acc = f(s);
    for (i, &r) in rho.iter().enumerate() {
        for j in i * dims..(i + 1) * dims {
            let d = s[j] - n[j];
            acc += 0.5 * r * d * d;
        }
    }
    acc
}

/// Asserts `x` (approximately) minimizes the augmented objective by probing
/// deterministic perturbations at several scales in random directions.
///
/// `f` may return `f64::INFINITY` outside its domain (indicator functions);
/// infeasible probes are skipped, but `x` itself must be feasible.
///
/// # Panics
/// If `F(x)` is infinite, or any probe beats `F(x)` by more than `tol`.
pub fn assert_is_minimizer(
    f: impl Fn(&[f64]) -> f64,
    n: &[f64],
    rho: &[f64],
    dims: usize,
    x: &[f64],
    tol: f64,
) {
    let fx = augmented_objective(&f, n, rho, dims, x);
    assert!(
        fx.is_finite(),
        "prox output must be feasible: F(x) = {fx} for x = {x:?}"
    );
    let mut directions = Lcg(0x9e3779b97f4a7c15);
    let mut next = move || directions.unit() * 2.0 - 1.0;
    let mut probe = vec![0.0; x.len()];
    for scale in [1e-3, 1e-2, 1e-1, 0.5] {
        for _ in 0..64 {
            for j in 0..x.len() {
                probe[j] = x[j] + scale * next();
            }
            let fp = augmented_objective(&f, n, rho, dims, &probe);
            assert!(
                fp >= fx - tol,
                "found better point: F(probe)={fp} < F(x)={fx} (scale {scale})\n  x={x:?}\n  probe={probe:?}"
            );
        }
        // Also probe along coordinate axes, both directions.
        for j in 0..x.len() {
            for sign in [-1.0, 1.0] {
                probe.copy_from_slice(x);
                probe[j] += sign * scale;
                let fp = augmented_objective(&f, n, rho, dims, &probe);
                assert!(
                    fp >= fx - tol,
                    "axis probe beats x: F={fp} < {fx} at coord {j}, scale {scale}"
                );
            }
        }
    }
}

/// `cases` seeded input blocks `(n, rho)` for a factor of `degree` edges
/// of `dims` components: `n` uniform in `[-2, 2)` with a `+0.0` and a
/// `-0.0` planted at positions that rotate with the case, `rho`
/// non-uniform per edge in `[0.25, 4)`. The inputs of the fixed-shape ≡
/// any-shape body tests.
pub fn seeded_blocks(degree: usize, dims: usize, cases: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut draws = Lcg(0x5eed_b10c ^ ((degree as u64) << 32) ^ dims as u64);
    let mut unit = move || draws.unit();
    let len = degree * dims;
    (0..cases)
        .map(|case| {
            let mut n: Vec<f64> = (0..len).map(|_| 4.0 * unit() - 2.0).collect();
            n[case % len] = 0.0;
            n[(case / len + case + 1) % len] = -0.0;
            let rho = (0..degree).map(|_| 0.25 + 3.75 * unit()).collect();
            (n, rho)
        })
        .collect()
}

/// Runs `body` on an output block of `len` scalars (pre-filled with NaN,
/// so an unwritten component shows) and returns the bit pattern of every
/// output — what two bodies must agree on to be called bit-identical.
pub fn output_bits(len: usize, body: impl FnOnce(&mut [f64])) -> Vec<u64> {
    let mut x = vec![f64::NAN; len];
    body(&mut x);
    x.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_blocks_are_reproducible_and_plant_both_zeros() {
        let blocks = seeded_blocks(2, 3, 8);
        assert_eq!(blocks, seeded_blocks(2, 3, 8));
        for (n, rho) in &blocks {
            assert_eq!((n.len(), rho.len()), (6, 2));
            assert!(n.contains(&0.0), "a zero of either sign in every block");
            assert!(rho[0] != rho[1] && rho.iter().all(|&r| (0.25..4.0).contains(&r)));
        }
        for zero in [0.0f64, -0.0] {
            let planted =
                |(n, _): &(Vec<f64>, Vec<f64>)| n.iter().any(|v| v.to_bits() == zero.to_bits());
            assert!(blocks.iter().any(planted), "{zero:?} planted somewhere");
        }
    }

    #[test]
    fn objective_matches_manual() {
        let f = |s: &[f64]| s[0] * s[0];
        let v = augmented_objective(&f, &[1.0], &[2.0], 1, &[3.0]);
        // 9 + 0.5·2·(3−1)² = 9 + 4
        assert_eq!(v, 13.0);
    }

    #[test]
    fn accepts_true_minimizer() {
        // f = 0, so minimizer of augmented objective is x = n.
        assert_is_minimizer(|_| 0.0, &[1.0, 2.0], &[1.0, 1.0], 1, &[1.0, 2.0], 1e-9);
    }

    #[test]
    #[should_panic(expected = "better point")]
    fn rejects_non_minimizer() {
        assert_is_minimizer(|_| 0.0, &[1.0, 2.0], &[1.0, 1.0], 1, &[2.0, 2.0], 1e-9);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn rejects_infeasible_output() {
        let f = |s: &[f64]| if s[0] < 0.0 { f64::INFINITY } else { 0.0 };
        assert_is_minimizer(f, &[1.0], &[1.0], 1, &[-1.0], 1e-9);
    }

    #[test]
    fn indicator_probes_skip_infeasible() {
        // f = indicator(s ≥ 0); prox of n=-1 is 0, sitting on the boundary.
        let f = |s: &[f64]| if s[0] < 0.0 { f64::INFINITY } else { 0.0 };
        assert_is_minimizer(f, &[-1.0], &[1.0], 1, &[0.0], 1e-9);
    }
}
