//! Price one ADMM iteration of circle packing on the modeled Tesla K40:
//! one kernel launch per pass of the default `SweepPlan` (`x+m | z | u+n`)
//! next to the paper's five separate sweeps, each at the paper's default
//! `ntb = 32` and at the tuned `ntb`, plus the PCIe transfer accounting.
//!
//! This is pure pricing: the model is a function of the problem's work
//! profile, the launch, the device and `ntb`, and no iteration runs. The
//! paper's GPU figures come from the `fig07_packing_gpu`, `fig10_mpc_gpu`
//! and `fig13_svm_gpu` bins in `crates/bench`.
//!
//! Run: `cargo run --release --example gpu_simulation`

use paradmm::core::SweepPlan;
use paradmm::gpusim::{PcieLink, SimtDevice, TaskCost, UpdateKind, WorkloadProfile};
use paradmm::graph::VarStore;
use paradmm::packing::{PackingConfig, PackingProblem};

fn main() {
    let n = 300;
    let (_, problem) = PackingProblem::build(PackingConfig::new(n));
    let g = problem.graph();
    println!(
        "packing N = {n}: {} factors, {} variables, {} edges",
        g.num_factors(),
        g.num_vars(),
        g.num_edges()
    );

    let device = SimtDevice::tesla_k40();
    let profile = WorkloadProfile::from_problem(&problem);
    let plan = SweepPlan::fused(&problem);
    let fused: Vec<(&str, Vec<TaskCost>)> = plan
        .passes()
        .iter()
        .map(|p| (p.kind().label(), profile.pass_tasks(p.kind(), g)))
        .collect();
    let paper: Vec<(&str, Vec<TaskCost>)> = UpdateKind::ALL
        .iter()
        .map(|&k| (k.label(), profile.sweep(k).tasks.clone()))
        .collect();

    for (schedule, launches) in [("default SweepPlan", fused), ("paper's five sweeps", paper)] {
        println!(
            "\n{schedule}: {} launches per iteration on the {}",
            launches.len(),
            device.name
        );
        // Iteration seconds at ntb 32 and at each launch's tuned ntb.
        let mut totals = [0.0; 2];
        for (label, tasks) in &launches {
            for (total, ntb) in totals.iter_mut().zip([32, device.tune_ntb(tasks)]) {
                let s = device.kernel_time(tasks, ntb);
                *total += s.seconds;
                println!(
                    "  {label:>3} ntb {ntb:>4}: {:>9.3} µs  (nb = {:>6}, occupancy {:.2}, bw-util {:.2}, straggler {:.2})",
                    s.seconds * 1e6,
                    s.nb,
                    s.occupancy,
                    s.bw_utilization,
                    s.straggler_factor
                );
            }
        }
        println!(
            "  iteration: {:.3} µs at ntb 32, {:.3} µs at tuned ntb",
            totals[0] * 1e6,
            totals[1] * 1e6
        );
    }

    let store = VarStore::zeros(g);
    let link = PcieLink::pcie3_x16();
    println!(
        "\ntransfer accounting: z copy-back {:.3} ms, one-time graph upload {:.2} s",
        link.copy_z_back(&store) * 1e3,
        link.upload_graph(g, &store)
    );
}
