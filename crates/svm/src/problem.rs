//! Factor-graph construction for soft-margin SVM training (paper Fig. 12).

use std::sync::Arc;

use paradmm_core::{
    AdmmProblem, BackendSpec, ProxOp, Solver, SolverOptions, StoppingCriteria, SweepExecutor,
};
use paradmm_graph::{GraphBuilder, VarId, VarStore};
use paradmm_prox::{ConsensusEqualityProx, HalfspaceProx, ProxCtx, QuadraticProx};

use crate::data::Dataset;

/// Parameters of an SVM training instance.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Slack penalty λ.
    pub lambda: f64,
    /// Penalty weight ρ.
    pub rho: f64,
    /// Dual step α.
    pub alpha: f64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1.0,
            rho: 1.0,
            alpha: 1.0,
        }
    }
}

/// Which factor-graph topology to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SvmTopology {
    /// The paper's replicated topology: one `(wᵢ, bᵢ)` copy per data point
    /// chained by equality factors — "more equilibrated" degrees, better
    /// GPU balance.
    Replicated,
    /// A naive star: one shared `(w, b)` node touched by every hinge
    /// factor. Semantically identical optimum, but the plane node's degree
    /// is `N + 1` — the imbalance pathology the paper's conclusion
    /// discusses. The tests' reference for the replicated topology.
    #[cfg(test)]
    Star,
}

/// The trained separating plane.
#[derive(Debug, Clone)]
pub struct SvmModel {
    /// Weight vector.
    pub w: Vec<f64>,
    /// Bias.
    pub b: f64,
}

impl SvmModel {
    /// Decision value `wᵀx + b`.
    pub(crate) fn score(&self, x: &[f64]) -> f64 {
        self.w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + self.b
    }

    /// The primal SVM objective `½‖w‖² + λ Σᵢ max(0, 1 − yᵢ·score)`.
    pub fn objective(&self, data: &Dataset, lambda: f64) -> f64 {
        let norm: f64 = self.w.iter().map(|v| v * v).sum::<f64>() / 2.0;
        let hinge: f64 = data
            .points
            .iter()
            .zip(&data.labels)
            .map(|(x, &y)| (1.0 - y * self.score(x)).max(0.0))
            .sum();
        norm + lambda * hinge
    }
}

/// Semi-lasso on component 0 only: `f(ξ) = λξ₀ + ind(ξ₀ ≥ 0)`, identity on
/// the padding components of the slack block. (The generic
/// [`paradmm_prox::SemiLassoProx`] thresholds *every* component; slack
/// nodes here carry `dims = d+1` with only component 0 meaningful.)
#[derive(Debug, Clone)]
struct SlackProx {
    lambda: f64,
}

impl SlackProx {
    /// The thresholded component 0, the operator's one rounded expression.
    #[inline(always)]
    fn shrink(&self, n0: f64, rho: f64) -> f64 {
        (n0 - self.lambda / rho).max(0.0)
    }

    /// The body for every shape: pass `n` through, threshold component 0.
    fn prox_any_shape(&self, ctx: &mut ProxCtx<'_>) {
        ctx.copy_n_to_x();
        ctx.x[0] = self.shrink(ctx.n[0], ctx.rho[0]);
    }
}

impl ProxOp for SlackProx {
    fn prox(&self, ctx: &mut ProxCtx<'_>) {
        // The shape the paper's 2-D data instantiates (one slack edge of
        // dims = 3): the block moves as an array, with no copy call.
        if let ([rho], Ok(n), Ok(x)) = (
            ctx.rho,
            <&[f64; 3]>::try_from(ctx.n),
            <&mut [f64; 3]>::try_from(&mut *ctx.x),
        ) {
            *x = [self.shrink(n[0], *rho), n[1], n[2]];
        } else {
            self.prox_any_shape(ctx);
        }
    }
    fn cost_estimate(&self, degree: usize, dims: usize) -> f64 {
        (degree * dims) as f64 + 4.0
    }
    fn name(&self) -> &'static str {
        "slack"
    }
}

/// A built SVM training instance.
pub struct SvmProblem {
    plane_vars: Vec<VarId>,
    dim: usize,
    config: SvmConfig,
}

impl SvmProblem {
    /// Builds the paper's replicated topology (Figure 12): `2N` variable
    /// nodes, `dims = d+1`, and `6N − 2` edges (all degrees ≤ 3 except the
    /// slack chain ends).
    pub fn build(data: &Dataset, config: SvmConfig) -> (Self, AdmmProblem) {
        Self::build_with_topology(data, config, SvmTopology::Replicated)
    }

    /// Builds either topology.
    pub(crate) fn build_with_topology(
        data: &Dataset,
        config: SvmConfig,
        topology: SvmTopology,
    ) -> (Self, AdmmProblem) {
        assert!(!data.is_empty(), "dataset must be non-empty");
        assert!(config.lambda > 0.0, "lambda must be positive");
        let n = data.len();
        let d = data.dim;
        let dims = d + 1;
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        // The norm term's weights depend on the topology; the slack
        // operator is the same for every point, so its factors share it.
        let norm_term = |weight: f64| {
            let mut q = vec![weight; dims];
            q[d] = 0.0;
            QuadraticProx::diagonal(q, vec![0.0; dims])
        };
        let slack = Arc::new(SlackProx {
            lambda: config.lambda,
        });

        let (plane_vars, graph) = match topology {
            SvmTopology::Replicated => {
                let mut b = GraphBuilder::with_capacity(dims, 4 * n - 1, 6 * n - 2);
                let plane_vars = b.add_vars(n);
                let slack_vars = b.add_vars(n);
                // Norm factors: 1/(2N)·‖wᵢ‖² (b unpenalized), one shared
                // operator.
                let norm = Arc::new(norm_term(1.0 / n as f64));
                for i in 0..n {
                    b.add_factor(&[plane_vars[i]]);
                    proxes.push(Box::new(Arc::clone(&norm)));
                    // Hinge factor over (plane, slack).
                    b.add_factor(&[plane_vars[i], slack_vars[i]]);
                    proxes.push(Box::new(hinge_halfspace(
                        &data.points[i],
                        data.labels[i],
                        d,
                    )));
                    // Slack factor.
                    b.add_factor(&[slack_vars[i]]);
                    proxes.push(Box::new(Arc::clone(&slack)));
                }
                // Copy chain (wᵢ, bᵢ) = (wᵢ₊₁, bᵢ₊₁).
                for i in 0..n - 1 {
                    b.add_factor(&[plane_vars[i], plane_vars[i + 1]]);
                    proxes.push(Box::new(ConsensusEqualityProx));
                }
                (plane_vars, b.build())
            }
            #[cfg(test)]
            SvmTopology::Star => {
                let mut b = GraphBuilder::with_capacity(dims, 2 * n + 1, 3 * n + 1);
                let plane = b.add_var();
                let slack_vars = b.add_vars(n);
                // Single norm factor: ½‖w‖².
                b.add_factor(&[plane]);
                proxes.push(Box::new(norm_term(1.0)));
                for i in 0..n {
                    b.add_factor(&[plane, slack_vars[i]]);
                    proxes.push(Box::new(hinge_halfspace(
                        &data.points[i],
                        data.labels[i],
                        d,
                    )));
                    b.add_factor(&[slack_vars[i]]);
                    proxes.push(Box::new(Arc::clone(&slack)));
                }
                (vec![plane], b.build())
            }
        };

        let problem = AdmmProblem::new(graph, proxes, config.rho, config.alpha);
        (
            SvmProblem {
                plane_vars,
                dim: d,
                config,
            },
            problem,
        )
    }

    /// Extracts the model: the mean of the plane copies' consensus values
    /// (they agree at convergence; averaging is robust mid-stream).
    pub fn extract(&self, store: &VarStore) -> SvmModel {
        let d = self.dim;
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        for &v in &self.plane_vars {
            let z = store.z_var(v);
            for (wi, zi) in w.iter_mut().zip(z.iter()) {
                *wi += zi;
            }
            b += z[d];
        }
        let inv = 1.0 / self.plane_vars.len() as f64;
        w.iter_mut().for_each(|v| *v *= inv);
        SvmModel { w, b: b * inv }
    }

    /// Convenience: build (replicated), run `iters` on a built-in
    /// backend, extract.
    pub fn train(
        data: &Dataset,
        config: SvmConfig,
        iters: usize,
        backend: BackendSpec,
    ) -> (SvmModel, SvmProblem) {
        Self::train_with_backend(data, config, iters, backend.to_backend())
    }

    /// Build, run `iters` on any [`SweepExecutor`] backend, extract.
    pub fn train_with_backend(
        data: &Dataset,
        config: SvmConfig,
        iters: usize,
        backend: Box<dyn SweepExecutor>,
    ) -> (SvmModel, SvmProblem) {
        let (svm, admm) = SvmProblem::build(data, config);
        let options = SolverOptions {
            backend: BackendSpec::Serial, // ignored by from_problem_with_backend
            rho: svm.config.rho,
            alpha: svm.config.alpha,
            stopping: StoppingCriteria {
                max_iters: iters,
                eps_abs: 1e-9,
                eps_rel: 1e-7,
                check_every: 50,
            },
        };
        let mut solver = Solver::from_problem_with_backend(admm, options, backend);
        solver.run(iters);
        let model = svm.extract(solver.store());
        (model, svm)
    }
}

/// Builds the hinge half-space operator over blocks
/// `[(w, b) (d+1 comps), (ξ, pad…) (d+1 comps)]`:
/// `y(wᵀx + b) + ξ ≥ 1`.
fn hinge_halfspace(x: &[f64], y: f64, d: usize) -> HalfspaceProx {
    let dims = d + 1;
    let mut a = vec![0.0; 2 * dims];
    for (j, &xj) in x.iter().enumerate() {
        a[j] = y * xj;
    }
    a[d] = y; // bias component of the plane block
    a[dims] = 1.0; // ξ = component 0 of the slack block
    HalfspaceProx::new(a, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_mixture;
    use crate::reference::pegasos_train;
    use rand::SeedableRng;

    fn small_data(n: usize, dim: usize, sep: f64, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        gaussian_mixture(n, dim, sep, &mut rng)
    }

    /// On the (1, 3) shape `SlackProx` moves the block as an array; it
    /// must agree bit for bit with the any-shape body — slack pushed to
    /// zero and kept positive, ±0 inputs and padding — and the any-shape
    /// body must still serve every other dims.
    #[test]
    fn slack_array_body_matches_the_any_shape_body_bitwise() {
        use paradmm_prox::testing::{output_bits, seeded_blocks};
        let op = SlackProx { lambda: 0.75 };
        let (mut clipped, mut kept) = (0, 0);
        for (case, (n, rho)) in seeded_blocks(1, 3, 64).into_iter().enumerate() {
            let fixed = output_bits(3, |x| op.prox(&mut ProxCtx::new(&n, &rho, x, 3)));
            let any_shape = output_bits(3, |x| {
                op.prox_any_shape(&mut ProxCtx::new(&n, &rho, x, 3));
            });
            assert_eq!(fixed, any_shape, "case {case}");
            if f64::from_bits(fixed[0]) == 0.0 {
                clipped += 1;
            } else {
                kept += 1;
            }
        }
        assert!(clipped > 8 && kept > 8, "{clipped} / {kept}");

        let (n, rho) = ([2.0, -0.0, 7.0, 0.0], [0.5]);
        let x = output_bits(4, |x| op.prox(&mut ProxCtx::new(&n, &rho, x, 4)));
        let want = [0.5f64, -0.0, 7.0, 0.0].map(f64::to_bits);
        assert_eq!(x, want, "dims 4 takes the any-shape body");
    }

    #[test]
    fn replicated_graph_counts_match_paper() {
        let data = small_data(50, 2, 4.0, 1);
        let (_, admm) = SvmProblem::build(&data, SvmConfig::default());
        let g = admm.graph();
        assert_eq!(g.num_vars(), 100); // N planes + N slacks
        assert_eq!(g.num_edges(), 6 * 50 - 2);
        assert_eq!(g.num_factors(), 4 * 50 - 1);
        assert_eq!(g.dims(), 3);
    }

    #[test]
    fn star_graph_has_hub() {
        let data = small_data(50, 2, 4.0, 1);
        let (_, admm) =
            SvmProblem::build_with_topology(&data, SvmConfig::default(), SvmTopology::Star);
        let g = admm.graph();
        assert_eq!(g.num_vars(), 51);
        assert_eq!(g.var_degree(paradmm_graph::VarId(0)), 51); // hub
    }

    #[test]
    fn replicated_degrees_are_balanced() {
        let data = small_data(40, 2, 4.0, 2);
        let (_, admm) = SvmProblem::build(&data, SvmConfig::default());
        let stats = paradmm_graph::GraphStats::compute(admm.graph());
        assert!(
            stats.max_var_degree <= 4,
            "max degree {}",
            stats.max_var_degree
        );
    }

    #[test]
    fn trains_separable_data_accurately() {
        let data = small_data(60, 2, 6.0, 3);
        let (model, _) = SvmProblem::train(&data, SvmConfig::default(), 3000, BackendSpec::Serial);
        let acc = data.accuracy(&model.w, model.b);
        assert!(acc > 0.95, "ADMM SVM accuracy {acc}");
    }

    #[test]
    fn admm_objective_close_to_pegasos() {
        let data = small_data(80, 2, 4.0, 4);
        let lambda = 1.0;
        let config = SvmConfig {
            lambda,
            rho: 1.0,
            alpha: 1.0,
        };
        let (admm_model, _) = SvmProblem::train(&data, config, 4000, BackendSpec::Serial);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (pw, pb) = pegasos_train(&data, lambda / data.len() as f64, 40, &mut rng);
        let peg_model = SvmModel { w: pw, b: pb };
        let oa = admm_model.objective(&data, lambda);
        let op = peg_model.objective(&data, lambda);
        assert!(
            oa <= op * 1.10 + 1e-6,
            "ADMM objective {oa} should not be worse than Pegasos {op} by >10%"
        );
    }

    #[test]
    fn star_and_replicated_agree() {
        let data = small_data(30, 2, 5.0, 5);
        let config = SvmConfig::default();
        let (rep_model, _) = SvmProblem::train(&data, config.clone(), 4000, BackendSpec::Serial);

        let (star, admm) =
            SvmProblem::build_with_topology(&data, config.clone(), SvmTopology::Star);
        let options = SolverOptions {
            backend: BackendSpec::Serial,
            rho: config.rho,
            alpha: config.alpha,
            stopping: StoppingCriteria::fixed_iterations(4000),
        };
        let mut solver = Solver::from_problem(admm, options);
        solver.run(4000);
        let star_model = star.extract(solver.store());

        let lambda = config.lambda;
        let (or, os) = (
            rep_model.objective(&data, lambda),
            star_model.objective(&data, lambda),
        );
        assert!(
            (or - os).abs() < 0.15 * or.max(os).max(1e-9),
            "topologies must reach similar objectives: replicated {or} vs star {os}"
        );
    }

    #[test]
    fn higher_dimensional_training_works() {
        let data = small_data(60, 5, 7.0, 6);
        let (model, _) = SvmProblem::train(&data, SvmConfig::default(), 3000, BackendSpec::Serial);
        assert!(data.accuracy(&model.w, model.b) > 0.9);
    }

    #[test]
    fn rayon_matches_serial() {
        let data = small_data(20, 2, 5.0, 7);
        let (a, _) = SvmProblem::train(&data, SvmConfig::default(), 200, BackendSpec::Serial);
        let (b, _) = SvmProblem::train(
            &data,
            SvmConfig::default(),
            200,
            BackendSpec::Rayon { threads: Some(2) },
        );
        assert_eq!(a.w, b.w);
        assert_eq!(a.b, b.b);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_rejected() {
        let data = small_data(10, 2, 4.0, 8);
        let _ = SvmProblem::build(
            &data,
            SvmConfig {
                lambda: 0.0,
                rho: 1.0,
                alpha: 1.0,
            },
        );
    }
}
