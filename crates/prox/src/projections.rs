//! Set-projection operators beyond boxes and half-spaces: probability
//! simplex, Euclidean norm ball, and the nearest permutation matrix
//! (assignment projection, used by combinatorial factors like Sudoku's
//! all-different constraint).

use crate::{ProxCtx, ProxOp};

/// Indicator of the probability simplex `{s : s ≥ 0, Σ s = 1}` applied to
/// **each edge block independently**.
///
/// Weighted prox: with uniform weights inside a block (one ρ per edge,
/// shared by its components) the weighted projection equals the Euclidean
/// one, computed by the sorting algorithm of Held/Wolfe/Crowder.
#[derive(Debug, Clone, Default)]
pub struct SimplexProx;

/// Projects `v` onto the probability simplex in place.
pub(crate) fn project_simplex(v: &mut [f64]) {
    let n = v.len();
    assert!(n > 0);
    let mut sorted = v.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN in simplex projection"));
    let mut acc = 0.0;
    let mut theta = 0.0;
    let mut k = 0;
    for (i, &s) in sorted.iter().enumerate() {
        acc += s;
        let t = (acc - 1.0) / (i + 1) as f64;
        if s - t > 0.0 {
            theta = t;
            k = i + 1;
        }
    }
    debug_assert!(k > 0);
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

impl ProxOp for SimplexProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        ctx.copy_n_to_x();
        let d = ctx.dims;
        for i in 0..ctx.degree() {
            project_simplex(&mut ctx.x[i * d..(i + 1) * d]);
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        // Sort-based projection: d log d per block plus two passes.
        let d = dims as f64;
        degree as f64 * (d * d.log2().max(1.0) * 4.0 + 6.0 * d)
    }
    fn name(&self) -> &'static str {
        "simplex"
    }
}

/// Indicator of the Euclidean ball `{s : ‖s − center‖ ≤ radius}` over the
/// factor's flattened block, under uniform weights (the weighted
/// projection coincides with the Euclidean one when all ρ are equal; the
/// operator asserts near-uniformity).
#[derive(Debug, Clone)]
pub struct NormBallProx {
    /// Ball center (flattened block length).
    pub center: Vec<f64>,
    /// Ball radius > 0.
    pub radius: f64,
}

impl NormBallProx {
    /// Creates the operator.
    pub fn new(center: Vec<f64>, radius: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        NormBallProx { center, radius }
    }
}

impl ProxOp for NormBallProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        assert_eq!(self.center.len(), ctx.n.len(), "center length mismatch");
        let first = ctx.rho[0];
        assert!(
            ctx.rho
                .iter()
                .all(|&r| (r - first).abs() <= 1e-9 * first.abs().max(1.0)),
            "norm-ball projection requires uniform rho across the factor"
        );
        let mut dist2 = 0.0;
        for j in 0..ctx.n.len() {
            let d = ctx.n[j] - self.center[j];
            dist2 += d * d;
        }
        let dist = dist2.sqrt();
        if dist <= self.radius {
            ctx.copy_n_to_x();
            return;
        }
        let scale = self.radius / dist;
        for j in 0..ctx.n.len() {
            ctx.x[j] = self.center[j] + scale * (ctx.n[j] - self.center[j]);
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        6.0 * (degree * dims) as f64 + 25.0
    }
    fn name(&self) -> &'static str {
        "norm-ball"
    }
}

/// Indicator of the set of `n × n` **permutation matrices**, the
/// projection used by all-different constraint factors (e.g. Sudoku rows:
/// "each digit appears exactly once"). The block is read as an `n × n`
/// row-major matrix (n edges of n components); the nearest permutation
/// matrix maximizes `Σ P_ij · n_ij`, a linear assignment problem solved
/// exactly by the Hungarian algorithm (n ≤ 16 keeps it microseconds).
#[derive(Debug, Clone)]
pub struct PermutationProx {
    n: usize,
}

impl PermutationProx {
    /// Creates a projector for `n × n` permutation matrices.
    pub fn new(n: usize) -> Self {
        assert!((1..=64).contains(&n), "assignment size out of range");
        PermutationProx { n }
    }
}

/// Solves max-weight perfect matching on an `n×n` score matrix, returning
/// `assignment[row] = col` (Hungarian algorithm, O(n³)).
pub(crate) fn max_assignment(scores: &[f64], n: usize) -> Vec<usize> {
    assert_eq!(scores.len(), n * n);
    // Standard O(n³) Hungarian on the cost matrix c = max − score.
    let max_s = scores.iter().cloned().fold(f64::MIN, f64::max);
    let cost = |i: usize, j: usize| max_s - scores[i * n + j];

    // potentials and matching, 1-based sentinel form.
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j (0 = free)
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    assignment
}

impl ProxOp for PermutationProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        let n = self.n;
        assert_eq!(ctx.degree(), n, "permutation factor expects n edges");
        assert_eq!(ctx.dims, n, "permutation factor expects dims = n");
        // Uniform-ρ projection onto {0,1} permutation matrices minimizes
        // Σ (P − n)² = const − 2Σ P·n ⇒ maximize the linear score.
        let assignment = max_assignment(ctx.n, n);
        ctx.x.fill(0.0);
        for (row, col) in assignment.into_iter().enumerate() {
            ctx.x[row * n + col] = 1.0;
        }
    }
    fn cost_estimate(&self, _degree: usize, _dims: usize) -> f64 {
        let n = self.n as f64;
        8.0 * n * n * n
    }
    fn name(&self) -> &'static str {
        "permutation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_is_minimizer;

    fn run(op: &dyn ProxOp, n: &[f64], rho: &[f64], dims: usize) -> Vec<f64> {
        let mut x = vec![0.0; n.len()];
        let mut ctx = ProxCtx::new(n, rho, &mut x, dims);
        op.prox(&mut ctx);
        x
    }

    #[test]
    fn simplex_interior_point_projected_correctly() {
        let mut v = vec![0.5, 0.3, 0.2];
        project_simplex(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(v, vec![0.5, 0.3, 0.2]); // already on the simplex
    }

    #[test]
    fn simplex_clips_negatives() {
        let mut v = vec![1.5, -0.5, 0.2];
        project_simplex(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v.iter().all(|&x| x >= 0.0));
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn simplex_uniform_from_equal_inputs() {
        let mut v = vec![7.0; 4];
        project_simplex(&mut v);
        for x in v {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_prox_is_minimizer() {
        let op = SimplexProx;
        let n = [0.9, -0.3, 0.6];
        let rho = [2.0];
        let x = run(&op, &n, &rho, 3);
        assert_is_minimizer(
            |s| {
                let sum: f64 = s.iter().sum();
                if s.iter().all(|&v| v >= -1e-9) && (sum - 1.0).abs() < 1e-8 {
                    0.0
                } else {
                    f64::INFINITY
                }
            },
            &n,
            &rho,
            3,
            &x,
            1e-6,
        );
    }

    #[test]
    fn simplex_per_block() {
        let op = SimplexProx;
        let n = [2.0, 0.0, 0.0, 2.0]; // two blocks of dims = 2
        let x = run(&op, &n, &[1.0, 1.0], 2);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn ball_inside_untouched() {
        let op = NormBallProx::new(vec![0.0, 0.0], 1.0);
        let n = [0.3, 0.4];
        assert_eq!(run(&op, &n, &[1.0, 1.0], 1), n.to_vec());
    }

    #[test]
    fn ball_outside_lands_on_sphere() {
        let op = NormBallProx::new(vec![1.0, 1.0], 2.0);
        let x = run(&op, &[7.0, 1.0], &[1.0, 1.0], 1);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ball_prox_is_minimizer() {
        let op = NormBallProx::new(vec![0.0, 0.0, 0.0], 0.5);
        let n = [1.0, -1.0, 0.5];
        let rho = [3.0, 3.0, 3.0];
        let x = run(&op, &n, &rho, 1);
        assert_is_minimizer(
            |s| {
                let norm: f64 = s.iter().map(|v| v * v).sum::<f64>();
                if norm.sqrt() <= 0.5 + 1e-9 {
                    0.0
                } else {
                    f64::INFINITY
                }
            },
            &n,
            &rho,
            1,
            &x,
            1e-6,
        );
    }

    #[test]
    #[should_panic(expected = "uniform rho")]
    fn ball_rejects_nonuniform_rho() {
        let op = NormBallProx::new(vec![0.0, 0.0], 1.0);
        let _ = run(&op, &[3.0, 0.0], &[1.0, 2.0], 1);
    }

    #[test]
    fn assignment_identity() {
        // Strongly diagonal scores → identity assignment.
        let n = 4;
        let mut s = vec![0.0; 16];
        for i in 0..4 {
            s[i * 4 + i] = 10.0;
        }
        assert_eq!(max_assignment(&s, n), vec![0, 1, 2, 3]);
    }

    #[test]
    fn assignment_antidiagonal() {
        let n = 3;
        let mut s = vec![0.0; 9];
        s[2] = 5.0; // (0,2)
        s[4] = 5.0; // (1,1)
        s[6] = 5.0; // (2,0)
        assert_eq!(max_assignment(&s, n), vec![2, 1, 0]);
    }

    #[test]
    fn assignment_beats_greedy() {
        // Greedy would take (0,0)=9 then be forced into (1,1)=0 (total 9);
        // optimal is (0,1)=8 + (1,0)=8 = 16.
        let s = vec![9.0, 8.0, 8.0, 0.0];
        let a = max_assignment(&s, 2);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn permutation_prox_rounds_to_nearest() {
        let op = PermutationProx::new(3);
        // Noisy identity-ish matrix.
        let n = [
            0.9, 0.1, 0.0, //
            0.2, 0.8, 0.1, //
            0.0, 0.2, 0.7,
        ];
        let x = run(&op, &n, &[1.0, 1.0, 1.0], 3);
        let expect = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(x, expect.to_vec());
    }

    #[test]
    fn permutation_output_is_valid_permutation() {
        let op = PermutationProx::new(4);
        let n: Vec<f64> = (0..16).map(|i| ((i * 37) % 11) as f64 / 11.0).collect();
        let x = run(&op, &n, &[1.0; 4], 4);
        for row in 0..4 {
            let s: f64 = x[row * 4..(row + 1) * 4].iter().sum();
            assert_eq!(s, 1.0, "row {row}");
        }
        for col in 0..4 {
            let s: f64 = (0..4).map(|r| x[r * 4 + col]).sum();
            assert_eq!(s, 1.0, "col {col}");
        }
    }
}
