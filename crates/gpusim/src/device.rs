//! SIMT device model.
//!
//! Models the execution time of one kernel launch `<<<nb, ntb>>>` over a
//! task list, capturing the effects the paper's GPU results hinge on:
//!
//! * **warp lockstep** — a warp's compute time is its slowest thread's
//!   (divergence), so one heavy z-task stalls 31 neighbours;
//! * **memory coalescing** — unit-stride accesses across a warp merge into
//!   128-byte transactions, scattered gathers pay one transaction each;
//! * **memory-level parallelism** — achieved bandwidth rises with resident
//!   warps × active lanes, so tiny `ntb` underfills the memory pipeline;
//! * **block-granularity retirement** — an SM slot is held until a block's
//!   slowest warp finishes, so large heterogeneous blocks straggle: this is
//!   why the paper finds `ntb = 32` optimal rather than NVIDIA's suggested
//!   1024;
//! * **launch overhead** — five kernel launches per iteration put a floor
//!   under small problems, which is why GPU speedup *grows* with problem
//!   size in Figures 7/10/13.
//!
//! The model is analytic (O(tasks) per kernel), deliberately simple, and
//! every constant is a documented field — this is a *shape-faithful
//! substitute* for a Tesla K40, not a cycle-accurate simulator.

use crate::tasks::TaskCost;

/// Configuration of a simulated SIMT device.
#[derive(Debug, Clone)]
pub struct SimtDevice {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (32 on every NVIDIA architecture).
    pub warp_size: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Double-precision lanes per SM (K40: 64 — 1/3 of the 192 CUDA cores).
    pub dp_lanes_per_sm: usize,
    /// Warp instructions issued per cycle per SM (warp schedulers).
    pub issue_per_cycle: f64,
    /// Peak global-memory bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Global-memory latency in seconds (~500 cycles).
    pub mem_latency: f64,
    /// Outstanding memory accesses (resident warps × active lanes × ILP)
    /// needed to reach peak bandwidth.
    pub mlp_for_peak: f64,
    /// Per-thread instruction-level parallelism assumed for memory ops.
    pub mem_ilp: f64,
    /// Bytes charged per scattered (non-coalesced) access: Kepler-class
    /// GPUs fetch 32-byte L2 segments for gathers, so an 8-byte gather
    /// wastes 4× bandwidth rather than a full 128-byte line.
    pub scatter_bytes: f64,
    /// Fixed kernel-launch overhead in seconds.
    pub launch_overhead: f64,
    /// Fraction of peak arithmetic throughput achieved by proximal-
    /// operator style code: branchy, latency-chained serial kernels with
    /// data-dependent loops run at a few percent of peak on real GPUs —
    /// this is the paper's point that its tasks are "substantially more
    /// complex than is typical in GPU-accelerated libraries", and it is
    /// what keeps the x-update among the hardest kernels to accelerate.
    pub compute_efficiency: f64,
}

impl SimtDevice {
    /// The paper's GPU: NVIDIA Tesla K40 (Kepler GK110B).
    pub fn tesla_k40() -> Self {
        SimtDevice {
            name: "Tesla K40",
            num_sms: 15,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            clock_hz: 745e6,
            dp_lanes_per_sm: 64,
            issue_per_cycle: 4.0,
            mem_bw: 288e9,
            mem_latency: 600.0 / 745e6,
            mlp_for_peak: 256.0,
            mem_ilp: 4.0,
            scatter_bytes: 32.0,
            launch_overhead: 8e-6,
            compute_efficiency: 0.04,
        }
    }

    /// GeForce GTX TITAN X (Maxwell GM200) — the paper's future-work item 5.
    /// Much weaker double precision (1/32 rate) but higher clock/bandwidth.
    pub fn titan_x() -> Self {
        SimtDevice {
            name: "GTX TITAN X",
            num_sms: 24,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            clock_hz: 1.0e9,
            dp_lanes_per_sm: 4,
            issue_per_cycle: 4.0,
            mem_bw: 336e9,
            mem_latency: 400.0 / 1.0e9,
            mlp_for_peak: 256.0,
            mem_ilp: 4.0,
            scatter_bytes: 32.0,
            launch_overhead: 6e-6,
            compute_efficiency: 0.04,
        }
    }

    /// Tesla M40 (Maxwell GM200, server variant) — future-work item 5.
    pub fn tesla_m40() -> Self {
        SimtDevice {
            name: "Tesla M40",
            clock_hz: 1.114e9,
            ..Self::titan_x()
        }
    }

    /// Resident blocks per SM for a given block size.
    pub(crate) fn concurrent_blocks(&self, ntb: usize) -> usize {
        let warps_per_block = ntb.div_ceil(self.warp_size);
        let by_warps = (self.max_warps_per_sm / warps_per_block).max(1);
        self.max_blocks_per_sm.min(by_warps).max(1)
    }

    /// Simulates one kernel launch over `tasks` with `ntb` threads per
    /// block (`nb` is derived, as in the paper: "once ntb is specified, nb
    /// is easily fixed").
    pub fn kernel_time(&self, tasks: &[TaskCost], ntb: usize) -> KernelStats {
        assert!(
            ntb >= 1 && ntb <= self.max_threads_per_block,
            "invalid ntb {ntb}"
        );
        let t = tasks.len();
        if t == 0 {
            return KernelStats::empty(ntb);
        }
        let nb = t.div_ceil(ntb);
        let warps_per_block = ntb.div_ceil(self.warp_size);

        // --- per-warp aggregation ---
        let mut issue_insts = 0.0; // Σ warp max-compute (warp instructions)
        let mut lane_units = 0.0; // Σ warp max-compute × active lanes
        let mut useful_units = 0.0; // Σ task compute (for divergence stats)
        let mut transactions = 0.0;
        let mut warp_cost_sum = 0.0;
        let mut warp_cost_sq = 0.0;
        let mut max_warp_cost = 0.0_f64;
        let mut n_warps = 0.0;

        let byte_time = 1.0 / self.mem_bw; // seconds per byte at peak
        for block in tasks.chunks(ntb) {
            for warp in block.chunks(self.warp_size) {
                let mut wmax = 0.0_f64;
                let mut wmax_scatter = 0.0_f64;
                let mut wbytes = 0.0;
                for task in warp {
                    wmax = wmax.max(task.compute);
                    useful_units += task.compute;
                    wbytes += task.coalesced_bytes;
                    wmax_scatter = wmax_scatter.max(task.scattered_transactions);
                }
                let active = warp.len() as f64;
                issue_insts += wmax;
                lane_units += wmax * active;
                // Lockstep gather loops: every active lane steps through the
                // warp-max number of scattered iterations, so divergent
                // gathers (the z-update on an imbalanced graph) burn memory
                // issue slots proportional to max × active.
                let wt =
                    wmax_scatter * active * self.scatter_bytes + (wbytes / 128.0).ceil() * 128.0;
                transactions += wt;
                let wcost =
                    wmax / (self.clock_hz * 32.0 * self.compute_efficiency) + wt * byte_time;
                warp_cost_sum += wcost;
                warp_cost_sq += wcost * wcost;
                max_warp_cost = max_warp_cost.max(
                    wmax / (self.clock_hz * 32.0 * self.compute_efficiency)
                        + wmax_scatter * self.mem_latency / self.mem_ilp,
                );
                n_warps += 1.0;
            }
        }

        // --- occupancy & memory-level parallelism ---
        let conc_blocks = self.concurrent_blocks(ntb);
        let resident_warps = (conc_blocks * warps_per_block).min(self.max_warps_per_sm);
        let active_per_warp = ntb.min(self.warp_size) as f64;
        let mlp = resident_warps as f64 * active_per_warp * self.mem_ilp;
        let bw_util = (mlp / self.mlp_for_peak).powf(0.25).min(1.0);

        // --- straggler multiplier (block retires with its slowest warp) ---
        let mean_w = warp_cost_sum / n_warps;
        let var_w = (warp_cost_sq / n_warps - mean_w * mean_w).max(0.0);
        let cv = if mean_w > 0.0 {
            var_w.sqrt() / mean_w
        } else {
            0.0
        };
        let straggler = 1.0 + cv * (1.0 - 1.0 / warps_per_block as f64);

        // --- utilization limited by grid size (small kernels can't fill
        //     the machine) ---
        let slots = self.num_sms * conc_blocks;
        let fill = (nb as f64 / slots as f64).min(1.0);
        let effective_sms = self.num_sms as f64 * fill.max(1.0 / self.num_sms as f64);

        // --- throughput times ---
        let lane_rate =
            self.clock_hz * self.dp_lanes_per_sm as f64 * effective_sms * self.compute_efficiency;
        let issue_rate = self.clock_hz * self.issue_per_cycle * effective_sms;
        let compute_time = (lane_units / lane_rate).max(issue_insts / issue_rate);
        let mem_time =
            transactions / (self.mem_bw * bw_util * (effective_sms / self.num_sms as f64));

        // --- latency floor: each wave of resident blocks pays one latency ---
        let waves = nb.div_ceil(slots) as f64;
        let latency_time = waves * self.mem_latency;

        // The kernel cannot retire before its single slowest warp (the
        // paper's "the z-update kernel only finishes once the
        // highest-degree variable node is updated").
        let busy = (compute_time.max(mem_time) * straggler + latency_time).max(max_warp_cost);
        KernelStats {
            seconds: busy + self.launch_overhead,
            nb,
            ntb,
            warps: n_warps as usize,
            occupancy: resident_warps as f64 / self.max_warps_per_sm as f64,
            bw_utilization: bw_util,
            straggler_factor: straggler,
            compute_seconds: compute_time,
            memory_seconds: mem_time,
            divergence_waste: if lane_units > 0.0 {
                1.0 - useful_units / lane_units
            } else {
                0.0
            },
        }
    }

    /// Picks the best `ntb` from the paper's sweep set for the given tasks.
    pub fn tune_ntb(&self, tasks: &[TaskCost]) -> usize {
        let candidates = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        candidates
            .into_iter()
            .filter(|&c| c <= self.max_threads_per_block)
            .min_by(|&a, &b| {
                let ta = self.kernel_time(tasks, a).seconds;
                let tb = self.kernel_time(tasks, b).seconds;
                ta.partial_cmp(&tb).expect("kernel times are finite")
            })
            .expect("candidate list non-empty")
    }
}

/// Simulated execution statistics of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct KernelStats {
    /// Total simulated wall-clock seconds (including launch overhead).
    pub seconds: f64,
    /// Number of blocks launched.
    pub nb: usize,
    /// Threads per block.
    pub ntb: usize,
    /// Number of warps executed.
    pub warps: usize,
    /// Resident warps / max warps per SM.
    pub occupancy: f64,
    /// Achieved fraction of peak bandwidth.
    pub bw_utilization: f64,
    /// Block-retirement straggler multiplier (≥ 1).
    pub straggler_factor: f64,
    /// Compute-throughput component (pre-straggler).
    pub compute_seconds: f64,
    /// Memory-throughput component (pre-straggler).
    pub memory_seconds: f64,
    /// Fraction of issued lane-cycles wasted to divergence.
    pub divergence_waste: f64,
}

impl KernelStats {
    fn empty(ntb: usize) -> Self {
        KernelStats {
            seconds: 0.0,
            nb: 0,
            ntb,
            warps: 0,
            occupancy: 0.0,
            bw_utilization: 0.0,
            straggler_factor: 1.0,
            compute_seconds: 0.0,
            memory_seconds: 0.0,
            divergence_waste: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_tasks(n: usize, compute: f64, bytes: f64) -> Vec<TaskCost> {
        vec![
            TaskCost {
                compute,
                coalesced_bytes: bytes,
                scattered_transactions: 0.0
            };
            n
        ]
    }

    #[test]
    fn presets_are_sane() {
        for d in [
            SimtDevice::tesla_k40(),
            SimtDevice::titan_x(),
            SimtDevice::tesla_m40(),
        ] {
            assert!(d.num_sms > 0);
            assert!(d.mem_bw > 1e11);
            assert_eq!(d.warp_size, 32);
        }
    }

    #[test]
    fn empty_kernel_is_free() {
        let d = SimtDevice::tesla_k40();
        let s = d.kernel_time(&[], 32);
        assert_eq!(s.seconds, 0.0);
        assert_eq!(s.nb, 0);
    }

    #[test]
    fn time_scales_with_task_count() {
        let d = SimtDevice::tesla_k40();
        let small = d.kernel_time(&uniform_tasks(10_000, 50.0, 64.0), 32);
        let large = d.kernel_time(&uniform_tasks(1_000_000, 50.0, 64.0), 32);
        let ratio = large.seconds / small.seconds;
        assert!(
            ratio > 20.0,
            "100× tasks should be ≫20× time once overhead amortizes, got {ratio}"
        );
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let d = SimtDevice::tesla_k40();
        let s = d.kernel_time(&uniform_tasks(10, 10.0, 64.0), 32);
        assert!(s.seconds >= d.launch_overhead);
        assert!(s.seconds < 2.5 * d.launch_overhead);
    }

    #[test]
    fn divergence_penalizes_heterogeneous_warps() {
        let d = SimtDevice::tesla_k40();
        let n = 100_000;
        let uniform = uniform_tasks(n, 100.0, 0.0);
        // Same total work, but every 32nd task is 32× heavier.
        let mut skewed = uniform_tasks(n, 0.0, 0.0);
        for (i, t) in skewed.iter_mut().enumerate() {
            t.compute = if i % 32 == 0 { 3200.0 } else { 0.0 };
        }
        let tu = d.kernel_time(&uniform, 32).seconds;
        let ts = d.kernel_time(&skewed, 32).seconds;
        assert!(
            ts > 5.0 * tu,
            "divergent warps must run near max-cost: uniform {tu}, skewed {ts}"
        );
        let stats = d.kernel_time(&skewed, 32);
        assert!(stats.divergence_waste > 0.9);
    }

    #[test]
    fn scattered_access_is_slower_than_coalesced() {
        let d = SimtDevice::tesla_k40();
        let n = 500_000;
        // Same useful data (64 bytes/task): unit-stride fully coalesces,
        // the gather pays a 32-byte L2 segment per 8-byte element.
        let coalesced = uniform_tasks(n, 1.0, 64.0);
        let scattered: Vec<TaskCost> = (0..n)
            .map(|_| TaskCost {
                compute: 1.0,
                coalesced_bytes: 0.0,
                scattered_transactions: 8.0,
            })
            .collect();
        let tc = d.kernel_time(&coalesced, 32).seconds;
        let ts = d.kernel_time(&scattered, 32).seconds;
        assert!(ts > 2.5 * tc, "coalesced {tc} vs scattered {ts}");
    }

    #[test]
    fn ntb_32_beats_extremes_on_heterogeneous_work() {
        let d = SimtDevice::tesla_k40();
        // Heterogeneous compute in clustered runs, like the packing
        // x-update where the three PO types are appended in phases.
        let tasks: Vec<TaskCost> = (0..200_000)
            .map(|i| TaskCost {
                compute: if (i / 500) % 3 == 0 { 400.0 } else { 40.0 },
                coalesced_bytes: 96.0,
                scattered_transactions: 0.0,
            })
            .collect();
        let t32 = d.kernel_time(&tasks, 32).seconds;
        let t1 = d.kernel_time(&tasks, 1).seconds;
        let t1024 = d.kernel_time(&tasks, 1024).seconds;
        assert!(t32 < t1, "ntb=32 ({t32}) must beat ntb=1 ({t1})");
        assert!(t32 < t1024, "ntb=32 ({t32}) must beat ntb=1024 ({t1024})");
        let best = d.tune_ntb(&tasks);
        assert!(
            (16..=64).contains(&best),
            "optimum should sit in the paper's small-block regime, got {best}"
        );
    }

    #[test]
    fn concurrent_blocks_respects_limits() {
        let d = SimtDevice::tesla_k40();
        assert_eq!(d.concurrent_blocks(32), 16); // block cap binds
        assert_eq!(d.concurrent_blocks(1024), 2); // warp cap binds: 64/32
        assert!(d.concurrent_blocks(1) >= 1);
    }

    #[test]
    fn small_grid_cannot_fill_machine() {
        let d = SimtDevice::tesla_k40();
        let per_task = 1000.0;
        let few = d.kernel_time(&uniform_tasks(32, per_task, 0.0), 32);
        let many = d.kernel_time(&uniform_tasks(32 * 240, per_task, 0.0), 32);
        // 240× the work on a machine with 240 block slots should cost far
        // less than 240× the time of one block.
        assert!(many.seconds < few.seconds * 60.0);
    }

    #[test]
    #[should_panic(expected = "invalid ntb")]
    fn rejects_oversized_ntb() {
        let d = SimtDevice::tesla_k40();
        let _ = d.kernel_time(&uniform_tasks(10, 1.0, 0.0), 2048);
    }

    #[test]
    fn stats_fields_consistent() {
        let d = SimtDevice::tesla_k40();
        let s = d.kernel_time(&uniform_tasks(10_000, 20.0, 64.0), 64);
        assert_eq!(s.nb, 10_000_usize.div_ceil(64));
        assert!(s.occupancy > 0.0 && s.occupancy <= 1.0);
        assert!(s.straggler_factor >= 1.0);
        assert!(s.seconds >= s.compute_seconds.max(s.memory_seconds));
    }
}
