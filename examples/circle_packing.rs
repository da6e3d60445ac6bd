//! Circle packing in a triangle — the paper's combinatorial-optimization
//! workload (§V-A).
//!
//! Packs N disks into an equilateral triangle by ADMM, prints coverage
//! and constraint violations, and renders the layout as ASCII art.
//!
//! Run: `cargo run --release --example circle_packing [N] [backend]`
//! where `backend` is a `BackendSpec` string: `serial`, `rayon[:N]`,
//! `barrier[:N]`, `async[:N]`, `worksteal[:N]`, `sharded[:N]`,
//! `fleet[:N]`, or `auto[:N]`.
//!
//! `rayon`, `barrier`, `worksteal` and `fleet` all build the
//! work-assisting pool (a static share of every pass per worker, then
//! assists); `sharded` splits the factor graph into partition-local
//! stores (one worker per shard) with a real halo exchange per
//! iteration — note packing's all-pairs collision factors put nearly
//! every variable in the halo, the worst case for sharding; `auto`
//! probes serial, pool and sharded on the actual problem for a few
//! iterations and locks in the fastest.

use paradmm::core::{BackendSpec, SweepExecutor};
use paradmm::packing::{PackingConfig, PackingProblem, Polygon};

/// Picks an execution backend from its [`BackendSpec`] text form
/// (`serial`, `rayon:4`, `fleet`, `auto`, …).
fn backend_by_name(name: &str) -> Box<dyn SweepExecutor> {
    match name.parse::<BackendSpec>() {
        Ok(spec) => spec.to_backend(),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let backend = backend_by_name(std::env::args().nth(2).as_deref().unwrap_or("rayon"));
    let config = PackingConfig {
        n_disks: n,
        container: Polygon::triangle(1.0),
        rho: 2.0,
        alpha: 1.0,
    };
    let container = config.container.clone();
    let iters = 6000;
    println!(
        "packing {n} disks into a unit triangle, {iters} ADMM iterations on the {} backend…",
        backend.name()
    );

    let (solution, _) = PackingProblem::solve_with_backend(config, iters, 2024, backend);

    let coverage = solution.covered_area() / container.area();
    println!(
        "covered area:        {:.4} ({:.1}% of the triangle)",
        solution.covered_area(),
        100.0 * coverage
    );
    println!(
        "worst pair overlap:  {:+.5} (≥ ~0 means disjoint)",
        solution.worst_overlap()
    );
    println!(
        "worst wall distance: {:+.5} (≥ ~0 means inside)",
        solution.worst_wall_violation(&container)
    );

    // ASCII render: 60×30 grid over the bounding box.
    let (w, h) = (60usize, 30usize);
    let height = 3.0_f64.sqrt() / 2.0;
    let mut canvas = vec![vec![' '; w]; h];
    for (row, line) in canvas.iter_mut().enumerate() {
        for (col, cell) in line.iter_mut().enumerate() {
            let x = col as f64 / w as f64;
            let y = height * (1.0 - row as f64 / h as f64);
            if !container.contains([x, y]) {
                continue;
            }
            *cell = '.';
            for (i, d) in solution.disks.iter().enumerate() {
                let dx = x - d.c[0];
                let dy = y - d.c[1];
                if dx * dx + dy * dy <= d.r * d.r {
                    *cell = char::from_digit((i % 36) as u32, 36).unwrap_or('#');
                    break;
                }
            }
        }
    }
    for line in canvas {
        println!("{}", line.into_iter().collect::<String>());
    }

    // Also dump an SVG artefact for close inspection.
    let svg = paradmm::packing::render_svg(&container, &solution.disks, 600.0);
    let path = std::env::temp_dir().join("packing.svg");
    if std::fs::write(&path, svg).is_ok() {
        println!("\nSVG written to {}", path.display());
    }
}
