//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every figure binary follows the same recipe:
//!
//! 1. build the real factor-graph problem at a sweep of sizes,
//! 2. extract its per-task [`WorkloadProfile`],
//! 3. price one iteration on the machine models
//!    ([`SimtDevice::tesla_k40`] / [`CpuModel::opteron_6300`]),
//! 4. **calibrate** the CPU model against a real measured serial run of
//!    the actual engine (so the "CPU time" column is anchored to this
//!    machine, not to guessed constants), and
//! 5. print the same series the paper plots.
//!
//! Run any binary with `--help` for its options. All binaries accept
//! `--paper-scale` to extend sweeps toward the paper's full sizes (more
//! memory / time).

use std::io::Write as _;
use std::time::Instant;

use paradmm_core::naive::NaiveAdmm;
use paradmm_core::{AdmmProblem, SerialBackend, SweepExecutor, UpdateTimings};
use paradmm_gpusim::{CpuModel, SimtDevice, WorkloadProfile};
use paradmm_graph::VarStore;

/// One row of a GPU-vs-serial-CPU figure.
#[derive(Debug, Clone)]
pub struct GpuRow {
    /// Problem-size parameter (N circles, K horizon, N data points).
    pub size: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// Modeled (calibrated) serial CPU seconds per iteration.
    pub cpu_s_per_iter: f64,
    /// Modeled GPU seconds per iteration.
    pub gpu_s_per_iter: f64,
    /// Combined speedup.
    pub speedup: f64,
    /// Per-update-kind speedups in x, m, z, u, n order.
    pub per_update: [f64; 5],
    /// GPU time fraction per update kind (x, m, z, u, n).
    pub gpu_fraction: [f64; 5],
}

/// One row of a multicore figure.
#[derive(Debug, Clone)]
pub struct CpuRow {
    /// Problem-size parameter.
    pub size: usize,
    /// Core count.
    pub cores: usize,
    /// Modeled seconds per iteration at `cores`.
    pub s_per_iter: f64,
    /// Speedup over one core.
    pub speedup: f64,
    /// Per-update-kind speedups.
    pub per_update: [f64; 5],
    /// Time fraction per update kind at `cores`.
    pub fraction: [f64; 5],
}

/// Measures the real engine's serial seconds-per-iteration (used to anchor
/// the CPU model). Runs enough iterations to cross `min_seconds`.
pub fn measure_serial_s_per_iter(problem: &AdmmProblem, min_seconds: f64) -> f64 {
    measure_backend_s_per_iter(problem, &mut SerialBackend, min_seconds)
}

/// Measures any backend's real seconds-per-iteration on `problem`. Runs a
/// short warm-up, then doubles the block size until `min_seconds` of
/// wall-clock is covered.
pub fn measure_backend_s_per_iter(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    min_seconds: f64,
) -> f64 {
    let mut store = VarStore::zeros(problem.graph());
    let mut timings = UpdateTimings::new();
    // Warm-up.
    backend.run_block(problem, &mut store, 2, &mut timings);
    let mut iters = 4usize;
    loop {
        let mut t = UpdateTimings::new();
        let start = Instant::now();
        backend.run_block(problem, &mut store, iters, &mut t);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds || iters >= 1 << 20 {
            return elapsed / iters as f64;
        }
        iters *= 2;
    }
}

/// Calibration result: multiply model CPU times by `scale` to match the
/// measured engine.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// measured / modeled serial seconds-per-iteration.
    pub scale: f64,
    /// The measured value, for reporting.
    pub measured_s_per_iter: f64,
    /// The uncalibrated model value, for reporting.
    pub modeled_s_per_iter: f64,
}

/// Calibrates `cpu` against a real serial run of `problem`.
pub fn calibrate(problem: &AdmmProblem, cpu: &CpuModel, min_seconds: f64) -> Calibration {
    let profile = WorkloadProfile::from_problem(problem);
    let modeled = cpu.iteration_time(&profile, 1);
    let measured = measure_serial_s_per_iter(problem, min_seconds);
    Calibration {
        scale: measured / modeled,
        measured_s_per_iter: measured,
        modeled_s_per_iter: modeled,
    }
}

/// Prices `problem` on the GPU model vs the (calibrated) serial CPU model.
pub fn gpu_row(
    problem: &AdmmProblem,
    size: usize,
    device: &SimtDevice,
    cpu: &CpuModel,
    cal_scale: f64,
    tune: bool,
) -> GpuRow {
    let profile = WorkloadProfile::from_problem(problem);
    let edges = problem.graph().num_edges();
    let cpu_total = cpu.iteration_time(&profile, 1) * cal_scale;

    // Kernel times at ntb = 32 (the paper's default) or tuned per kernel.
    let mut gpu_seconds = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        let ntb = if tune {
            device.tune_ntb(&sweep.tasks)
        } else {
            32
        };
        gpu_seconds[i] = device.kernel_time(&sweep.tasks, ntb).seconds;
    }
    let gpu_total: f64 = gpu_seconds.iter().sum();

    let mut per_update = [0.0f64; 5];
    let mut gpu_fraction = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        let cpu_sweep = cpu.sweep_time(sweep, 1) * cal_scale;
        per_update[i] = cpu_sweep / gpu_seconds[i];
        gpu_fraction[i] = gpu_seconds[i] / gpu_total;
    }

    GpuRow {
        size,
        edges,
        cpu_s_per_iter: cpu_total,
        gpu_s_per_iter: gpu_total,
        speedup: cpu_total / gpu_total,
        per_update,
        gpu_fraction,
    }
}

/// Prices `problem` on the multicore model at `cores`.
pub fn cpu_row(
    problem: &AdmmProblem,
    size: usize,
    cpu: &CpuModel,
    cal_scale: f64,
    cores: usize,
) -> CpuRow {
    let profile = WorkloadProfile::from_problem(problem);
    let t1 = cpu.iteration_time(&profile, 1) * cal_scale;
    let tp = cpu.iteration_time(&profile, cores) * cal_scale;
    let mut per_update = [0.0f64; 5];
    let mut fraction = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        per_update[i] = cpu.sweep_time(sweep, 1) / cpu.sweep_time(sweep, cores);
        fraction[i] = cpu.sweep_time(sweep, cores) * cal_scale / tp;
    }
    CpuRow {
        size,
        cores,
        s_per_iter: tp,
        speedup: t1 / tp,
        per_update,
        fraction,
    }
}

/// Prints a header + aligned CSV-ish rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Formats the five per-update values as strings.
pub fn fmt_per_update(values: &[f64; 5]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.2}")).collect()
}

/// Formats seconds with sensible precision.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.6}")
}

/// Common CLI flags for the figure binaries.
#[derive(Debug, Clone)]
pub struct FigArgs {
    /// Extend sweeps toward the paper's full problem sizes.
    pub paper_scale: bool,
    /// Auto-tune ntb per kernel instead of the default 32.
    pub tune: bool,
    /// Anchor the CPU model to a measured serial run on *this* host
    /// instead of the paper's 2.8 GHz Opteron model. Off by default: the
    /// paper's speedups are relative to its own Opteron baseline, so the
    /// unscaled model is the faithful denominator; `--calibrate` answers
    /// "what would the K40 buy over *my* CPU".
    pub calibrate: bool,
    /// Destination override for the `BENCH_*.json` artefact (`--out`);
    /// `None` keeps the legacy `BENCH_<figure>.json` in the CWD.
    pub out: Option<std::path::PathBuf>,
}

impl FigArgs {
    /// Parses `--paper-scale` / `--tune` / `--calibrate` / `--out <path>`
    /// from `std::env::args`.
    pub fn parse() -> Self {
        let mut a = FigArgs {
            paper_scale: false,
            tune: false,
            calibrate: false,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper-scale" => a.paper_scale = true,
                "--tune" => a.tune = true,
                "--calibrate" => a.calibrate = true,
                "--out" => a.out = Some(parse_out_value(&mut it)),
                "--help" | "-h" => {
                    println!(
                        "flags: --paper-scale (full paper problem sizes), --tune (auto-tune ntb), --calibrate (anchor CPU model to this host), --out <path> (BENCH json destination file or directory; default: BENCH_<figure>.json in the CWD)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        a
    }

    /// Calibration scale per the `--calibrate` flag: measures the real
    /// engine when requested, otherwise 1.0 (pure Opteron model).
    pub fn cal_scale(&self, problem: &AdmmProblem, cpu: &CpuModel) -> f64 {
        if self.calibrate {
            let cal = calibrate(problem, cpu, 0.2);
            println!(
                "# calibration: measured {:.3e} s/iter vs modeled {:.3e} (scale {:.3})",
                cal.measured_s_per_iter, cal.modeled_s_per_iter, cal.scale
            );
            cal.scale
        } else {
            let cal = calibrate(problem, cpu, 0.05);
            println!(
                "# CPU denominator: Opteron 6300 model (this host measured {:.3e} s/iter vs model {:.3e}; pass --calibrate to anchor to host)",
                cal.measured_s_per_iter, cal.modeled_s_per_iter
            );
            1.0
        }
    }
}

/// One machine-readable benchmark record, serialized into the
/// `BENCH_*.json` artefacts that track the perf trajectory across PRs.
#[derive(Debug, Clone)]
pub struct BenchJsonRow {
    /// Problem-size parameter (N circles, K horizon, N data points).
    pub size: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// Backend / model the time belongs to (e.g. `"cpu-model"`,
    /// `"gpusim"`, `"serial"`, `"rayon"`).
    pub backend: String,
    /// Seconds per iteration under that backend.
    pub seconds_per_iteration: f64,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}
/// Writes `rows` as a `BENCH_<figure>.json` document and returns the
/// path. The format is one self-describing object: `{"figure": ...,
/// "rows": [{"size", "edges", "backend", "seconds_per_iteration"}, ...]}`.
/// The destination follows the `--out` flag the figure bins share:
///
/// * `None` — `BENCH_<figure>.json` in the CWD;
/// * `Some(dir)` (existing directory, or a path ending in `/`) —
///   `BENCH_<figure>.json` inside that directory;
/// * `Some(file)` — exactly that file.
///
/// Parent directories are created as needed.
pub fn write_bench_json_to(
    out: Option<&std::path::Path>,
    figure: &str,
    rows: &[BenchJsonRow],
) -> std::io::Result<std::path::PathBuf> {
    let default_name = format!("BENCH_{figure}.json");
    let path = match out {
        None => std::path::PathBuf::from(&default_name),
        Some(p) => {
            let is_dir = p.is_dir()
                || p.as_os_str()
                    .to_string_lossy()
                    .ends_with(std::path::MAIN_SEPARATOR);
            if is_dir {
                p.join(&default_name)
            } else {
                p.to_path_buf()
            }
        }
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(&path)?;
    f.write_all(bench_json_string(figure, rows).as_bytes())?;
    Ok(path)
}

/// Pulls the value of an `--out` flag from an argument iterator.
fn parse_out_value(it: &mut impl Iterator<Item = String>) -> std::path::PathBuf {
    match it.next() {
        Some(v) if !v.starts_with('-') => std::path::PathBuf::from(v),
        _ => {
            eprintln!("--out needs a path (file, or directory for the default file name)");
            std::process::exit(2);
        }
    }
}

/// The JSON document [`write_bench_json_to`] emits, as a string.
pub fn bench_json_string(figure: &str, rows: &[BenchJsonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"figure\": \"{}\",\n  \"rows\": [\n",
        json_escape(figure)
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size\": {}, \"edges\": {}, \"backend\": \"{}\", \"seconds_per_iteration\": {:e}}}{}\n",
            r.size,
            r.edges,
            json_escape(&r.backend),
            r.seconds_per_iteration,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Builds the two standard JSON rows (CPU model + GPU model) for one
/// [`GpuRow`] of a figure sweep.
pub fn gpu_row_json(row: &GpuRow) -> [BenchJsonRow; 2] {
    [
        BenchJsonRow {
            size: row.size,
            edges: row.edges,
            backend: "cpu-model".into(),
            seconds_per_iteration: row.cpu_s_per_iter,
        },
        BenchJsonRow {
            size: row.size,
            edges: row.edges,
            backend: "gpusim".into(),
            seconds_per_iteration: row.gpu_s_per_iter,
        },
    ]
}

/// Builds a degree-imbalanced consensus problem that static per-thread
/// ranges handle badly: `hubs` hub variables, **all at the front of the
/// variable order**, each connected to `hub_degree` leaf variables by
/// degree-2 quadratic factors. A static z-update partition gives the
/// first worker every hub (its z work is `hub_degree`× a leaf worker's),
/// so Barrier workers straggle exactly as the paper's conclusion
/// describes; chunk-claiming backends rebalance.
pub fn imbalanced_problem(hubs: usize, hub_degree: usize) -> AdmmProblem {
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};
    let mut b = GraphBuilder::new(1);
    // Hubs first: clusters the heavy z-updates into the lowest variable
    // indices, the worst case for a contiguous static split.
    let hub_vars = b.add_vars(hubs);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for (h, &hub) in hub_vars.iter().enumerate() {
        for l in 0..hub_degree {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
            let t = ((h * hub_degree + l) as f64 * 0.13).sin();
            proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, &[t, -t])));
        }
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// The state the paper's literal five sweeps ([`NaiveAdmm`]) reach after
/// `iters` iterations from `seed`: their `x, m, u, n, z`, with the `z` of
/// the iteration before in `z_prev` — what every synchronous executor
/// must reproduce bit for bit. Used by the equivalence tests.
pub fn naive_reference(problem: &AdmmProblem, seed: &VarStore, iters: usize) -> VarStore {
    let mut naive = NaiveAdmm::new(problem);
    naive.load_from(seed);
    let mut want = seed.clone();
    for _ in 0..iters {
        naive.iterate();
        want.swap_z();
        naive.write_to(&mut want);
    }
    want
}

/// `n` small independent MPC instances (dims = 5): horizons cycle
/// through `base_horizon .. base_horizon+4` (mixed sizes, so batched
/// early-exit freezing has stragglers) and each instance gets its own
/// deterministic initial state — one pendulum per user.
pub fn many_mpc(n: usize, base_horizon: usize) -> Vec<AdmmProblem> {
    use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.37;
            let mut cfg = MpcConfig::new(base_horizon + (i % 5));
            cfg.q0 = [
                0.1 + 0.05 * t.sin(),
                0.02 * t.cos(),
                0.05 - 0.03 * (1.3 * t).sin(),
                0.01 * (0.7 * t).cos(),
            ];
            let (_, admm) = MpcProblem::build(cfg, paper_plant());
            admm
        })
        .collect()
}

/// `n` independent MPC instances (dims = 5) with a **long-tail**
/// horizon distribution: most instances are short (horizons 5–20), a
/// deterministic minority stretches toward 200 — the heterogeneous
/// regime where a pack-wide barrier would let one big instance stall
/// the whole fleet. Used by the equivalence tests.
pub fn mixed_fleet_mpc(n: usize) -> Vec<AdmmProblem> {
    use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
    (0..n)
        .map(|i| {
            let horizon = match i % 7 {
                0 => 40 + (i * 23) % 161, // the tail: 40..=200
                1 | 2 => 12 + (i * 5) % 9,
                _ => 5 + i % 7, // the bulk: 5..=11
            };
            let t = i as f64 * 0.37;
            let mut cfg = MpcConfig::new(horizon);
            cfg.q0 = [
                0.1 + 0.05 * t.sin(),
                0.02 * t.cos(),
                0.05 - 0.03 * (1.3 * t).sin(),
                0.01 * (0.7 * t).cos(),
            ];
            let (_, admm) = MpcProblem::build(cfg, paper_plant());
            admm
        })
        .collect()
}

/// `n` independent instances mixing circle packing (dims = 2) and SVM
/// (dims = 3) at long-tail sizes. The mixed `dims` makes the fleet
/// **unfusable**: [`paradmm_core::BatchSolver`] rejects it outright, so this is the
/// fleet scheduler's headline scenario — only unfused per-instance
/// execution can serve it at all. Deterministic (seeded per instance).
pub fn mixed_fleet_pack_svm(n: usize) -> Vec<AdmmProblem> {
    use paradmm_packing::{PackingConfig, PackingProblem};
    use paradmm_svm::{gaussian_mixture, SvmConfig, SvmProblem};
    use rand::SeedableRng as _;
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let circles = if i % 8 == 0 {
                    40 + (i * 13) % 111 // the tail
                } else {
                    6 + i % 10
                };
                PackingProblem::build(PackingConfig::new(circles)).1
            } else {
                let points = if i % 9 == 1 {
                    200 + (i * 31) % 301 // the tail
                } else {
                    20 + i % 30
                };
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
                let data = gaussian_mixture(points, 2, 4.0, &mut rng);
                SvmProblem::build(&data, SvmConfig::default()).1
            }
        })
        .collect()
}

/// Names of the five update kinds in order, for table headers.
pub const KIND_LABELS: [&str; 5] = ["x", "m", "z", "u", "n"];

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn tiny_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for _ in 0..n {
            let v = b.add_var();
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn measurement_returns_positive_time() {
        let p = tiny_problem(100);
        let s = measure_serial_s_per_iter(&p, 0.01);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn calibration_scale_positive() {
        let p = tiny_problem(500);
        let cal = calibrate(&p, &CpuModel::opteron_6300(), 0.01);
        assert!(cal.scale > 0.0);
        assert!(cal.measured_s_per_iter > 0.0);
        assert!(cal.modeled_s_per_iter > 0.0);
    }

    #[test]
    fn gpu_row_fields_consistent() {
        let p = tiny_problem(2000);
        let row = gpu_row(
            &p,
            2000,
            &SimtDevice::tesla_k40(),
            &CpuModel::opteron_6300(),
            1.0,
            false,
        );
        assert_eq!(row.size, 2000);
        assert_eq!(row.edges, 2000);
        assert!(row.speedup > 0.0);
        let fsum: f64 = row.gpu_fraction.iter().sum();
        assert!((fsum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_row_single_core_speedup_is_one() {
        let p = tiny_problem(1000);
        let row = cpu_row(&p, 1000, &CpuModel::opteron_6300(), 1.0, 1);
        assert!((row.speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backend_measurement_works_for_parallel_backends() {
        let p = tiny_problem(200);
        let mut backend = paradmm_core::PoolBackend::new(2);
        let s = measure_backend_s_per_iter(&p, &mut backend, 0.01);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn imbalanced_problem_shape() {
        let p = imbalanced_problem(4, 10);
        let g = p.graph();
        assert_eq!(g.num_vars(), 4 + 40);
        assert_eq!(g.num_factors(), 40);
        assert_eq!(g.num_edges(), 80);
        // Hubs sit at the front with heavy degree.
        assert_eq!(g.var_degree(paradmm_graph::VarId(0)), 10);
        assert_eq!(g.var_degree(paradmm_graph::VarId(4)), 1);
    }

    #[test]
    fn fleet_scenario_generators_have_expected_shape() {
        let mpc = mixed_fleet_mpc(14);
        assert_eq!(mpc.len(), 14);
        assert!(mpc.iter().all(|p| p.graph().dims() == 5));
        let edges: Vec<usize> = mpc.iter().map(|p| p.graph().num_edges()).collect();
        let max = *edges.iter().max().unwrap();
        let mean = edges.iter().sum::<usize>() as f64 / edges.len() as f64;
        assert!(
            max as f64 > 2.0 * mean,
            "long tail expected: max {max} vs mean {mean}"
        );
        // Deterministic: same call, same fleet.
        let again: Vec<usize> = mixed_fleet_mpc(14)
            .iter()
            .map(|p| p.graph().num_edges())
            .collect();
        assert_eq!(edges, again);

        let mixed = mixed_fleet_pack_svm(8);
        assert_eq!(mixed.len(), 8);
        let dims: Vec<usize> = mixed.iter().map(|p| p.graph().dims()).collect();
        assert!(dims.contains(&2) && dims.contains(&3), "dims = {dims:?}");
    }

    #[test]
    fn batch_scenario_generators_have_expected_shape() {
        let mpc = many_mpc(7, 4);
        assert_eq!(mpc.len(), 7);
        assert!(mpc.iter().all(|p| p.graph().dims() == 5));
        // Horizons cycle, so sizes are mixed.
        let edges: Vec<usize> = mpc.iter().map(|p| p.graph().num_edges()).collect();
        assert!(edges.windows(2).any(|w| w[0] != w[1]), "sizes must mix");
    }

    #[test]
    fn out_path_plumbing_resolves_files_and_dirs() {
        let tmp = std::env::temp_dir().join(format!("paradmm_bench_out_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let rows = vec![BenchJsonRow {
            size: 1,
            edges: 1,
            backend: "serial".into(),
            seconds_per_iteration: 1.0,
        }];
        // Explicit file path, parent auto-created.
        let file = tmp.join("nested").join("custom.json");
        let got = write_bench_json_to(Some(&file), "figx", &rows).unwrap();
        assert_eq!(got, file);
        assert!(got.is_file());
        // Existing directory: default file name inside it.
        let got2 = write_bench_json_to(Some(&tmp), "figx", &rows).unwrap();
        assert_eq!(got2, tmp.join("BENCH_figx.json"));
        assert!(got2.is_file());
        assert_eq!(
            std::fs::read_to_string(&got).unwrap(),
            std::fs::read_to_string(&got2).unwrap()
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let rows = vec![
            BenchJsonRow {
                size: 100,
                edges: 420,
                backend: "cpu-model".into(),
                seconds_per_iteration: 1.25e-4,
            },
            BenchJsonRow {
                size: 100,
                edges: 420,
                backend: "gpusim".into(),
                seconds_per_iteration: 2.5e-5,
            },
        ];
        let doc = bench_json_string("fig99_test", &rows);
        assert!(doc.starts_with("{\n"));
        assert!(doc.trim_end().ends_with('}'));
        assert!(doc.contains("\"figure\": \"fig99_test\""));
        assert!(doc.contains("\"backend\": \"gpusim\""));
        assert!(doc.contains("\"seconds_per_iteration\": 2.5e-5"));
        // Exactly one trailing comma between the two rows, none after the
        // last (the strictness JSON parsers care about).
        assert_eq!(doc.matches("},").count(), 1);
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        let row = BenchJsonRow {
            size: 1,
            edges: 1,
            backend: "we\"ird\\name\n".into(),
            seconds_per_iteration: 1.0,
        };
        let doc = bench_json_string("f", &[row]);
        assert!(doc.contains(r#"we\"ird\\name\u000a"#));
    }
}
