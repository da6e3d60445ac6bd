//! Shared-memory multicore CPU model.
//!
//! Stands in for the paper's 32-core AMD Opteron Abu Dhabi 6300 (2×16
//! cores, 2.8 GHz). The model captures the three effects behind the
//! paper's multicore results (Figures 8, 11, 14):
//!
//! 1. **fork-join overhead** per parallel sweep — five parallel loops per
//!    iteration means five synchronizations, which caps speedup on small
//!    graphs;
//! 2. **memory-bandwidth saturation** — the m/u/n sweeps do ~1 flop per
//!    3 doubles moved, so a handful of cores saturates the socket's memory
//!    controllers and additional cores buy nothing (the paper measures
//!    m/u/n scaling worst on CPUs);
//! 3. **cross-socket (NUMA) traffic** — past one socket (16 cores),
//!    coherence misses on the shared z array make memory-bound sweeps
//!    *slower* with more cores, reproducing Figure 11-right's decline
//!    beyond ~25 threads.
//!
//! Compute-bound sweeps (x-update with non-trivial proximal operators)
//! scale nearly linearly, which is why the *combined* speedup lands in the
//! paper's 5–9× band rather than 32×.

use crate::tasks::{SweepProfile, WorkloadProfile};

/// Multicore CPU machine model.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Physical cores available.
    pub max_cores: usize,
    /// Cores per socket (NUMA domain).
    pub cores_per_socket: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Sustained scalar f64 work units per cycle per core.
    pub units_per_cycle: f64,
    /// Single-core sustained memory bandwidth, bytes/s.
    pub bw_single: f64,
    /// Whole-socket saturated bandwidth, bytes/s.
    pub bw_socket: f64,
    /// Cores needed to reach socket-saturated bandwidth.
    pub bw_sat_cores: usize,
    /// Fork-join cost per parallel sweep per core count: `a + b·log2(P)`.
    pub fork_join_base: f64,
    /// Log coefficient of the fork-join cost.
    pub fork_join_log: f64,
    /// Per-core cross-socket penalty applied to memory-bound time when the
    /// computation spans two sockets.
    pub numa_penalty: f64,
}

impl CpuModel {
    /// The paper's machine: 2-socket AMD Opteron Abu Dhabi 6300 @ 2.8 GHz,
    /// 32 cores total.
    pub fn opteron_6300() -> Self {
        CpuModel {
            name: "AMD Opteron 6300 (2×16 @ 2.8 GHz)",
            max_cores: 32,
            cores_per_socket: 16,
            clock_hz: 2.8e9,
            units_per_cycle: 1.0,
            bw_single: 8.5e9,
            bw_socket: 36e9,
            bw_sat_cores: 6,
            fork_join_base: 2e-6,
            fork_join_log: 1.2e-6,
            numa_penalty: 0.045,
        }
    }

    /// Aggregate bandwidth available to `cores` cooperating cores.
    pub(crate) fn bandwidth(&self, cores: usize) -> f64 {
        let per_socket_cores = cores.min(self.cores_per_socket);
        let frac = (per_socket_cores as f64 / self.bw_sat_cores as f64).min(1.0);
        let one_socket = self.bw_single + (self.bw_socket - self.bw_single) * frac;
        if cores > self.cores_per_socket {
            // Second socket contributes, but far from 2×: remote traffic to
            // shared arrays steals capacity.
            let extra = (cores - self.cores_per_socket) as f64 / self.cores_per_socket as f64;
            one_socket * (1.0 + 0.6 * extra.min(1.0))
        } else {
            one_socket
        }
    }

    /// Modeled time of one sweep on `cores` cores.
    pub fn sweep_time(&self, sweep: &SweepProfile, cores: usize) -> f64 {
        assert!(
            cores >= 1 && cores <= self.max_cores,
            "invalid core count {cores}"
        );
        let compute = sweep.total_compute();
        let bytes = sweep.total_cpu_bytes();
        let unit_rate = self.clock_hz * self.units_per_cycle;

        if cores == 1 {
            // Serial: no fork-join, no sharing effects. Compute and memory
            // partially overlap (hardware prefetch): charge the max plus a
            // fraction of the smaller term.
            let tc = compute / unit_rate;
            let tm = bytes / self.bw_single;
            return tc.max(tm) + 0.3 * tc.min(tm);
        }

        // Parallel: compute divides by P (imbalance-limited), memory is
        // bandwidth-limited, and each sweep pays one fork-join.
        let max_task = sweep.max_compute();
        let per_core_compute = (compute / cores as f64).max(max_task);
        let tc = per_core_compute / unit_rate;
        let mut tm = bytes / self.bandwidth(cores);
        if cores > self.cores_per_socket {
            tm *= 1.0 + self.numa_penalty * (cores - self.cores_per_socket) as f64;
        }
        let fork_join = self.fork_join_base + self.fork_join_log * (cores as f64).log2();
        tc.max(tm) + 0.3 * tc.min(tm) + fork_join
    }

    /// Modeled time of one full iteration (all five sweeps) on `cores`.
    pub fn iteration_time(&self, profile: &WorkloadProfile, cores: usize) -> f64 {
        profile
            .sweeps
            .iter()
            .map(|s| self.sweep_time(s, cores))
            .sum()
    }

    /// Modeled speedup of `cores` cores over one core.
    #[cfg(test)]
    pub(crate) fn speedup(&self, profile: &WorkloadProfile, cores: usize) -> f64 {
        self.iteration_time(profile, 1) / self.iteration_time(profile, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TaskCost;
    use paradmm_core::UpdateKind;

    fn sweep(kind: UpdateKind, n: usize, compute: f64, bytes: f64) -> SweepProfile {
        SweepProfile {
            kind,
            tasks: vec![
                TaskCost {
                    compute,
                    coalesced_bytes: bytes,
                    scattered_transactions: 0.0
                };
                n
            ],
        }
    }

    fn compute_heavy_profile(n: usize) -> WorkloadProfile {
        WorkloadProfile {
            sweeps: [
                sweep(UpdateKind::X, n, 200.0, 48.0),
                sweep(UpdateKind::M, 2 * n, 1.0, 24.0),
                sweep(UpdateKind::Z, n, 8.0, 40.0),
                sweep(UpdateKind::U, 2 * n, 3.0, 24.0),
                sweep(UpdateKind::N, 2 * n, 1.0, 16.0),
            ],
        }
    }

    #[test]
    fn bandwidth_monotone_within_socket() {
        let c = CpuModel::opteron_6300();
        assert!(c.bandwidth(1) < c.bandwidth(4));
        assert!(c.bandwidth(4) <= c.bandwidth(16));
        // Two sockets give more than one, less than double.
        assert!(c.bandwidth(32) > c.bandwidth(16));
        assert!(c.bandwidth(32) < 2.0 * c.bandwidth(16));
    }

    #[test]
    fn speedup_in_papers_band_for_large_problems() {
        let c = CpuModel::opteron_6300();
        let p = compute_heavy_profile(100_000);
        let s32 = c.speedup(&p, 32);
        assert!(
            s32 > 4.0 && s32 < 12.0,
            "32-core speedup {s32} outside the paper's band"
        );
    }

    #[test]
    fn speedup_grows_then_saturates() {
        let c = CpuModel::opteron_6300();
        let p = compute_heavy_profile(50_000);
        let s2 = c.speedup(&p, 2);
        let s8 = c.speedup(&p, 8);
        let s16 = c.speedup(&p, 16);
        assert!(s2 > 1.2);
        assert!(s8 > s2);
        // Saturation: going 16 → 32 gains far less than 2×.
        let s32 = c.speedup(&p, 32);
        assert!(s32 < s16 * 1.6);
    }

    #[test]
    fn memory_bound_sweep_degrades_past_socket() {
        let c = CpuModel::opteron_6300();
        // m-update-like: almost no compute, pure streaming.
        let s = sweep(UpdateKind::M, 2_000_000, 1.0, 24.0);
        let t16 = c.sweep_time(&s, 16);
        let t32 = c.sweep_time(&s, 32);
        // NUMA penalty: more cores should NOT help (paper Fig 11-right).
        assert!(
            t32 > 0.95 * t16,
            "memory-bound sweep should not scale past a socket"
        );
    }

    #[test]
    fn compute_bound_sweep_scales_well() {
        let c = CpuModel::opteron_6300();
        let s = sweep(UpdateKind::X, 100_000, 5000.0, 48.0);
        let sp16 = c.sweep_time(&s, 1) / c.sweep_time(&s, 16);
        assert!(
            sp16 > 8.0,
            "compute-bound x-update should scale, got {sp16}"
        );
    }

    #[test]
    fn fork_join_caps_small_problems() {
        let c = CpuModel::opteron_6300();
        let p = compute_heavy_profile(10);
        let s = c.speedup(&p, 32);
        assert!(s < 3.0, "tiny problems must not show big speedups, got {s}");
    }

    #[test]
    fn imbalance_limits_parallel_sweep() {
        let c = CpuModel::opteron_6300();
        // One huge task among many small ones: per-core time floors at it.
        let mut tasks = vec![
            TaskCost {
                compute: 1.0,
                coalesced_bytes: 0.0,
                scattered_transactions: 0.0
            };
            999
        ];
        tasks.push(TaskCost {
            compute: 1e6,
            coalesced_bytes: 0.0,
            scattered_transactions: 0.0,
        });
        let s = SweepProfile {
            kind: UpdateKind::Z,
            tasks,
        };
        let sp = c.sweep_time(&s, 1) / c.sweep_time(&s, 32);
        assert!(sp < 1.3, "hub-dominated sweep cannot scale, got {sp}");
    }

    #[test]
    #[should_panic(expected = "invalid core count")]
    fn rejects_zero_cores() {
        let c = CpuModel::opteron_6300();
        let s = sweep(UpdateKind::M, 10, 1.0, 8.0);
        let _ = c.sweep_time(&s, 0);
    }
}
