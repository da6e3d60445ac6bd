//! In-text experiment — threads-per-block sweeps.
//!
//! §V-A: the packing x-update speedup over ntb ∈ {1 … 512} peaks at
//! ntb = 32 (paper series: 5.6, 5.6, 5.8, 5.8, 5.8, 7.4, 5.5, 3.5, 2.0,
//! 2.0, 3.6). §V-B: the MPC z-update prefers *smaller* ntb (2–16).
//! Also compares devices (future-work item 5: TITAN X, M40).

use paradmm_bench::{print_table, FigArgs};
use paradmm_gpusim::{CpuModel, SimtDevice, UpdateKind, WorkloadProfile};
use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm_packing::{PackingConfig, PackingProblem};

const NTBS: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

fn sweep_for(
    title: &str,
    profile: &WorkloadProfile,
    kind: UpdateKind,
    cpu_sweep_s: f64,
    devices: &[SimtDevice],
) {
    let tasks = &profile.sweep(kind).tasks;
    let mut rows = Vec::new();
    for &ntb in &NTBS {
        let mut row = vec![ntb.to_string()];
        for d in devices {
            let t = d.kernel_time(tasks, ntb).seconds;
            row.push(format!("{:.2}", cpu_sweep_s / t));
        }
        rows.push(row);
    }
    let mut hdr = vec!["ntb"];
    let names: Vec<&str> = devices.iter().map(|d| d.name).collect();
    hdr.extend(names);
    print_table(title, &hdr, &rows);
    for d in devices {
        println!("# best ntb on {}: {}", d.name, d.tune_ntb(tasks));
    }
}

fn main() {
    let args = FigArgs::parse();
    let n = if args.paper_scale { 2000 } else { 700 };
    let devices = [
        SimtDevice::tesla_k40(),
        SimtDevice::titan_x(),
        SimtDevice::tesla_m40(),
    ];
    let cpu = CpuModel::opteron_6300();

    // Packing x-update sweep (§V-A; paper N = 5000).
    let (_, problem) = PackingProblem::build(PackingConfig::new(n));
    let cal_scale = args.cal_scale(&problem, &cpu);
    let profile = WorkloadProfile::from_problem(&problem);
    let cpu_x = cpu.sweep_time(profile.sweep(UpdateKind::X), 1) * cal_scale;
    sweep_for(
        &format!("§V-A: packing x-update speedup vs ntb (N = {n}; paper peaks at 32)"),
        &profile,
        UpdateKind::X,
        cpu_x,
        &devices,
    );

    // MPC z-update sweep (§V-B; paper optimal ntb = 2–16).
    for k in [200usize, 1_000, 10_000, 50_000] {
        let (_, problem) = MpcProblem::build(MpcConfig::new(k), paper_plant());
        let profile = WorkloadProfile::from_problem(&problem);
        let z_tasks = &profile.sweep(UpdateKind::Z).tasks;
        let best = SimtDevice::tesla_k40().tune_ntb(z_tasks);
        println!("# MPC z-update optimal ntb at K = {k}: {best} (paper: 2–16, growing with K)");
    }
}
