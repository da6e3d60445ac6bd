//! The scoreboard's vocabulary: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json` is generated from these
//! tables (`perf_report --benchmark-json`) and a unit test keeps the
//! committed file identical to them, so the names the file declares are
//! the names `perf_report` prints.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: gated, with the share of the parent's median
/// by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// A per-layer metric: reported by the traced run, never gated.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 26;

/// Seed used when `--seed` is omitted.
pub const DEFAULT_SEED: u64 = 2016;

/// The program and arguments the driver runs, before its own flags.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf_report",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "packing-dense",
        "element-wise m/z/u/n kernels are over half an iteration and variable degree is N: kernel, layout, z-fold and partition work shows here; the dense cut makes shard builds pathological",
    ),
    (
        "mpc-chain",
        "about 90% of an iteration is the prox (x) pass and d=5 takes the dynamic-dims kernels: prox and load-balance work shows here, element-wise kernel work must not move it",
    ),
    (
        "svm-chain",
        "balanced x/z/u mix on a low-degree chain with a trivial cut: the case where sharding should win, the control for packing's partition pathology",
    ),
    (
        "serve-mixed",
        "tiny instances through the TCP service: thread spawn, repack, queueing and the wire codec dominate and kernels are negligible, the opposite regime with the same executors",
    ),
];

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_serial_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_par_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_serial_s",
        unit: "s/iter",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The executors the `core.backend` layer measures, as metric-name
/// segments, all at `host.threads` workers.
pub const EXECUTORS: [&str; 8] = [
    "serial",
    "rayon",
    "barrier",
    "worksteal",
    "sharded",
    "fleet",
    "stale0",
    "async",
];

/// The per-layer metrics, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &'static str, Better)] = &[
        ("host.threads", "count", Higher),
        ("host.dram_gbps", "GB/s", Higher),
        ("host.ws_gbps", "GB/s", Higher),
        ("host.spawn_us", "us", Lower),
        ("host.barrier_us", "us", Lower),
        ("graph.build_s", "s", Lower),
        ("graph.partition_s", "s", Lower),
        ("graph.shard_build_s", "s", Lower),
        ("graph.reorder_s", "s", Lower),
        ("graph.pack_s", "s", Lower),
        ("graph.codec_mbps", "MB/s", Higher),
        ("graph.cut_edges_share", "share", Lower),
        ("graph.halo_vars", "count", Lower),
        ("prox.call_ns", "ns", Lower),
        ("prox.calls", "count", Lower),
        ("prox.imbalance", "ratio", Lower),
        ("linalg.kkt_solve_ns", "ns", Lower),
        ("kernels.xm_s", "s", Lower),
        ("kernels.z_s", "s", Lower),
        ("kernels.un_s", "s", Lower),
        ("kernels.m_gbps", "GB/s", Higher),
        ("kernels.z_gbps", "GB/s", Higher),
        ("kernels.un_gbps", "GB/s", Higher),
        ("kernels.z_bw_share", "share", Higher),
        ("kernels.un_bw_share", "share", Higher),
        ("kernels.bytes_per_iter", "B", Lower),
        ("kernels.elementwise_share", "share", Lower),
        ("plan.measure_s", "s", Lower),
        ("plan.compile_s", "s", Lower),
        ("plan.barriers_per_iter", "count", Lower),
        ("residuals.check_s", "s", Lower),
        ("residuals.checks", "count", Lower),
        ("residuals.share", "share", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for e in EXECUTORS {
        for (suffix, unit, better) in [
            ("iter_s", "s/iter", Lower),
            ("block_overhead_s", "s", Lower),
            ("untimed_share", "share", Lower),
            ("efficiency", "share", Higher),
        ] {
            out.push(PerLayer {
                name: format!("backend.{e}.{suffix}"),
                unit,
                better,
            });
        }
    }
    let tail: &[(&str, &'static str, Better)] = &[
        ("backend.auto.probe_s", "s", Lower),
        ("iter_par_s", "s/iter", Lower),
        ("solver.iterations", "count", Lower),
        ("solver.loop_self_s", "s", Lower),
        ("solver.coverage", "share", Higher),
        ("batch.instances_per_s", "1/s", Higher),
        ("batch.repacks", "count", Lower),
        ("batch.plans_built", "count", Lower),
        ("batch.pack_share", "share", Lower),
        ("fleet.instances_per_s", "1/s", Higher),
        ("fleet.migrations", "count", Lower),
        ("fleet.idle_spins", "count", Lower),
        ("fleet.chunks", "count", Lower),
        ("protocol.encode_req_us", "us", Lower),
        ("protocol.decode_req_us", "us", Lower),
        ("protocol.encode_resp_us", "us", Lower),
        ("protocol.decode_resp_us", "us", Lower),
        ("protocol.req_bytes", "B", Lower),
        ("protocol.resp_bytes", "B", Lower),
        ("engine.rps", "1/s", Higher),
        ("engine.step_s", "s", Lower),
        ("engine.joins", "count", Higher),
        ("engine.repacks", "count", Lower),
        ("engine.max_pack", "count", Higher),
        ("engine.mean_pack", "count", Higher),
        ("engine.cache_hit_share", "share", Higher),
        ("engine.batch_lane_p50_ms", "ms", Lower),
        ("engine.fleet_lane_p50_ms", "ms", Lower),
        ("engine.slowdown_vs_solo", "ratio", Lower),
        ("server.rtt_floor_us", "us", Lower),
        ("server.transport_share", "share", Lower),
        ("client.gen_lag_p99_ms", "ms", Lower),
        ("latency_p99_ms", "ms", Lower),
        ("slo_met_share", "share", Higher),
        ("trace.overhead_share", "share", Lower),
    ];
    out.extend(tail.iter().map(|&(name, unit, better)| PerLayer {
        name: name.to_string(),
        unit,
        better,
    }));
    out
}

fn json_str(s: &str) -> String {
    debug_assert!(!s.contains(['"', '\\', '\n']));
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| -> String {
        items
            .iter()
            .map(|i| format!("    {i}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command = COMMAND.map(json_str).join(", ");
    let paths = PATHS.map(json_str).join(", ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|(name, why)| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json_str(name),
                    json_str(why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = list(
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{paths}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(legal_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name.to_string()), "duplicate {name}");
        }
        for m in END_TO_END {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        for m in &layers {
            assert!(legal_name(&m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn setup_time_is_gated_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: perf_report --benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn every_executor_has_its_four_metrics() {
        let names: BTreeSet<String> = per_layer().into_iter().map(|m| m.name).collect();
        for e in EXECUTORS {
            for suffix in ["iter_s", "block_overhead_s", "untimed_share", "efficiency"] {
                assert!(names.contains(&format!("backend.{e}.{suffix}")));
            }
        }
    }
}
