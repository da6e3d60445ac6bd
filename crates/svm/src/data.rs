//! Synthetic datasets: the paper draws `N` points from two Gaussians "with
//! mean a certain distance apart".

use rand::Rng;

/// A labelled dataset in `R^d`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Points, row-major (`n × dim`).
    pub points: Vec<Vec<f64>>,
    /// Labels in `{−1, +1}`.
    pub labels: Vec<f64>,
    /// Dimension `d`.
    pub dim: usize,
}

impl Dataset {
    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Classification accuracy of the plane `(w, b)`.
    pub fn accuracy(&self, w: &[f64], b: f64) -> f64 {
        assert_eq!(w.len(), self.dim);
        if self.is_empty() {
            return 0.0;
        }
        let correct = self
            .points
            .iter()
            .zip(&self.labels)
            .filter(|(x, &y)| {
                let score: f64 = w.iter().zip(x.iter()).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                score * y > 0.0
            })
            .count();
        correct as f64 / self.len() as f64
    }
}

/// Standard-normal sample via Box–Muller (keeps `rand` the only RNG dep).
fn normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws `n` points from two spherical Gaussians in `R^dim` whose means
/// sit `separation` apart along the first axis (±separation/2), labels
/// ±1, balanced halves.
pub fn gaussian_mixture(n: usize, dim: usize, separation: f64, rng: &mut impl Rng) -> Dataset {
    assert!(dim >= 1 && n >= 2);
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let mut x = vec![0.0; dim];
        for v in x.iter_mut() {
            *v = normal(rng);
        }
        x[0] += y * separation / 2.0;
        points.push(x);
        labels.push(y);
    }
    Dataset {
        points,
        labels,
        dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mixture_shapes_and_balance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let d = gaussian_mixture(100, 3, 4.0, &mut rng);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim, 3);
        let pos = d.labels.iter().filter(|&&y| y > 0.0).count();
        assert_eq!(pos, 50);
    }

    #[test]
    fn separated_clusters_are_linearly_separable_ish() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let d = gaussian_mixture(500, 2, 8.0, &mut rng);
        // The trivial classifier w = e1, b = 0 should be near-perfect.
        let acc = d.accuracy(&[1.0, 0.0], 0.0);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn accuracy_of_inverted_plane_is_complement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let d = gaussian_mixture(400, 2, 6.0, &mut rng);
        let a = d.accuracy(&[1.0, 0.0], 0.0);
        let b = d.accuracy(&[-1.0, 0.0], 0.0);
        assert!((a + b - 1.0).abs() < 0.02);
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }
}
