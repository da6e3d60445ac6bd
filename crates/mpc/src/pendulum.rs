//! The paper's plant: an inverted pendulum on a cart, linearized around
//! the upright equilibrium and sampled at 40 ms.

use paradmm_linalg::Matrix;

/// A discrete-time linear system in the paper's increment form
/// `q(t+1) − q(t) = A q(t) + B u(t)`.
#[derive(Debug, Clone)]
pub struct LinearSystem {
    /// State-increment matrix (n×n).
    pub a: Matrix,
    /// Input matrix (n×m).
    pub b: Matrix,
}

impl LinearSystem {
    /// State dimension.
    pub(crate) fn state_dim(&self) -> usize {
        self.a.rows()
    }

    /// Input dimension.
    pub(crate) fn input_dim(&self) -> usize {
        self.b.cols()
    }

    /// Advances one step: `q⁺ = q + A q + B u`.
    pub fn step(&self, q: &[f64], u: &[f64]) -> Vec<f64> {
        let aq = self.a.matvec(q);
        let bu = self.b.matvec(u);
        (0..q.len()).map(|i| q[i] + aq[i] + bu[i]).collect()
    }

    /// Residual of the dynamics constraint for a transition, `‖q⁺ − q −
    /// Aq − Bu‖∞`.
    pub(crate) fn residual(&self, q: &[f64], u: &[f64], q_next: &[f64]) -> f64 {
        let pred = self.step(q, u);
        q_next
            .iter()
            .zip(&pred)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

/// Continuous-time inverted pendulum on a cart, linearized upright.
///
/// States `(x, ẋ, θ, θ̇)`, input = horizontal force on the cart.
/// Cart mass `m_cart`, pendulum mass `m_pole`, pole half-length `l`,
/// gravity 9.8 m/s².
pub(crate) fn inverted_pendulum(m_cart: f64, m_pole: f64, l: f64) -> (Matrix, Matrix) {
    assert!(m_cart > 0.0 && m_pole > 0.0 && l > 0.0);
    let g = 9.8;
    let a = Matrix::from_rows(&[
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, -m_pole * g / m_cart, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
        &[0.0, 0.0, (m_cart + m_pole) * g / (m_cart * l), 0.0],
    ]);
    let b = Matrix::from_rows(&[&[0.0], &[1.0 / m_cart], &[0.0], &[-1.0 / (m_cart * l)]]);
    (a, b)
}

/// Forward-Euler discretization into the paper's increment form:
/// `A = A_c·dt`, `B = B_c·dt`.
pub(crate) fn discretize(a_c: &Matrix, b_c: &Matrix, dt: f64) -> LinearSystem {
    assert!(dt > 0.0);
    LinearSystem {
        a: a_c.scaled(dt),
        b: b_c.scaled(dt),
    }
}

/// The paper's plant with standard bench parameters (1 kg cart, 0.1 kg
/// pole, 0.5 m half-length, 40 ms sampling).
pub fn paper_plant() -> LinearSystem {
    let (a, b) = inverted_pendulum(1.0, 0.1, 0.5);
    discretize(&a, &b, 0.04)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let sys = paper_plant();
        assert_eq!(sys.state_dim(), 4);
        assert_eq!(sys.input_dim(), 1);
    }

    #[test]
    fn upright_equilibrium_is_fixed_point() {
        let sys = paper_plant();
        let q = sys.step(&[0.0; 4], &[0.0]);
        assert!(q.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pendulum_falls_without_control() {
        let sys = paper_plant();
        let mut q = vec![0.0, 0.0, 0.01, 0.0]; // small tilt
        for _ in 0..50 {
            q = sys.step(&q, &[0.0]);
        }
        assert!(q[2] > 0.02, "tilt must grow unstably, got {}", q[2]);
    }

    #[test]
    fn force_accelerates_cart() {
        let sys = paper_plant();
        let q = sys.step(&[0.0; 4], &[1.0]);
        assert!(q[1] > 0.0, "positive force must accelerate the cart");
        assert!(q[3] < 0.0, "positive force tips the pole backward");
    }

    #[test]
    fn residual_zero_on_consistent_transition() {
        let sys = paper_plant();
        let q = [0.1, -0.2, 0.05, 0.3];
        let u = [0.7];
        let qn = sys.step(&q, &u);
        assert!(sys.residual(&q, &u, &qn) < 1e-15);
        let mut bad = qn.clone();
        bad[0] += 0.1;
        assert!((sys.residual(&q, &u, &bad) - 0.1).abs() < 1e-12);
    }
}
