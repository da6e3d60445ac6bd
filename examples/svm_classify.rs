//! Soft-margin SVM training — the paper's machine-learning workload
//! (§V-C): train on two Gaussians, report accuracy, and cross-check
//! against a Pegasos subgradient baseline.
//!
//! Run: `cargo run --release --example svm_classify [N] [dim]`

use paradmm::core::PoolBackend;
use paradmm::svm::{gaussian_mixture, pegasos_train, SvmConfig, SvmProblem};
use rand::SeedableRng;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let dim: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let train = gaussian_mixture(n, dim, 4.0, &mut rng);
    let test = gaussian_mixture(n, dim, 4.0, &mut rng);

    println!("training soft-margin SVM on N = {n}, d = {dim} (two Gaussians, separation 4σ)…");
    let config = SvmConfig::default();
    let lambda = config.lambda;
    // Any SweepExecutor backend drops into the same training loop; the
    // synchronous backends are bit-identical, so the pool is a free speedup.
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get());
    let (model, _) =
        SvmProblem::train_with_backend(&train, config, 4000, Box::new(PoolBackend::new(threads)));
    println!(
        "ADMM model:    w = {:?}, b = {:+.4}",
        &model.w[..dim.min(4)],
        model.b
    );
    println!(
        "  train accuracy {:.2}%",
        100.0 * train.accuracy(&model.w, model.b)
    );
    println!(
        "  test  accuracy {:.2}%",
        100.0 * test.accuracy(&model.w, model.b)
    );
    println!("  primal objective {:.4}", model.objective(&train, lambda));

    let (pw, pb) = pegasos_train(&train, lambda / n as f64, 30, &mut rng);
    println!("Pegasos model: w = {:?}, b = {pb:+.4}", &pw[..dim.min(4)]);
    println!("  train accuracy {:.2}%", 100.0 * train.accuracy(&pw, pb));
    println!("  test  accuracy {:.2}%", 100.0 * test.accuracy(&pw, pb));
}
