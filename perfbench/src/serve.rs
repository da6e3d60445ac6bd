//! The `serve-mixed` workload — the in-process TCP service under a
//! seeded request mix — and the service layers every workload's traced
//! run reports.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paradmm_core::{
    AdmmProblem, BackendSpec, BatchSolver, FleetSolver, SolveOutcome, SolveRequest, Solver,
    SolverOptions, StopReason, StoppingCriteria,
};
use paradmm_graph::io::{read_frame, write_frame};
use paradmm_graph::{BatchInstance, BatchStore, FactorGraph, VarStore};
use paradmm_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, response_id,
};
use paradmm_serve::{
    Engine, EngineConfig, EngineRequest, Lane, ServedOutcome, ServerConfig, ServerHandle,
};

use crate::kit::gen::{due_seconds, stopping, stream_item, tick, warmup_tick, OPEN_LOOP_RPS};
use crate::kit::host;
use crate::kit::report::Report;
use crate::kit::stats::{median, tail};
use crate::kit::trace::Tracer;
use crate::layers::{self, same_state, Problems};

/// The workload's name.
pub const WORKLOAD: &str = "serve-mixed";

/// Requests in flight in the closed loop, over [`CONNECTIONS`].
const IN_FLIGHT: usize = 32;
/// Connections the closed loop spreads its requests over.
const CONNECTIONS: usize = 2;
/// One 20 Hz control tick: the latency limit of the open loop.
const SLO_SECONDS: f64 = 0.050;
/// Every this-many-th reply is compared with a solo solve.
const CHECK_EVERY: u64 = 50;
/// Ticks in the sample the solve metrics and the problem layers run on:
/// `gen::tick(seed, 0..PACK)`, four of each horizon.
const PACK: usize = 36;
/// Wire id of the warm-up request (outside any phase's index range).
const WARMUP_ID: u64 = u64::MAX / 2;
/// Cycles of set-ups, closed loop, open loop and solo solves an
/// untraced run is cut into.
const CYCLES: usize = 4;
/// Share of a cycle spent in the closed loop.
const CLOSED_SHARE: f64 = 0.35;
/// Share of a cycle spent in the open loop; the solo solves get the rest.
const OPEN_SHARE: f64 = 0.40;
/// Share of a closed-loop stretch, at its start, whose replies are not
/// counted: the first batch is still on its way.
const RAMP_SHARE: f64 = 0.15;
/// Set-ups timed per cycle.
const SETUPS_PER_CYCLE: usize = 6;

/// How much of the stream the service layers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A short prefix: calibration inside a family workload.
    Calibration,
    /// `serve-mixed` itself.
    Full,
}

/// One answered (or failed) request.
struct Served {
    index: u64,
    /// When the reply was decoded.
    done: Instant,
    /// Due (open loop) or send (closed loop) time → reply decoded.
    latency_s: f64,
    /// Send time minus due time (open loop only).
    lag_s: f64,
    /// `Err` for a transport, server or decode error.
    outcome: Result<ServedOutcome, String>,
}

impl Served {
    fn converged(&self) -> bool {
        matches!(&self.outcome, Ok(o) if o.stop_reason == StopReason::Converged)
    }
}

/// A request on the wire, waiting for its reply.
struct Pending {
    from: Instant,
    lag_s: f64,
    graph: FactorGraph,
}

fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("loopback connect");
    stream
        .set_nodelay(true)
        .expect("TCP_NODELAY on a fresh socket");
    stream
}

/// `request` under `id` as one length-prefixed frame, ready for a
/// single `write`.
fn frame(id: u64, request: &SolveRequest, use_cache: bool) -> Vec<u8> {
    let payload = encode_request(id, request, use_cache).expect("stream items encode");
    let mut frame = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut frame, &payload).expect("frame into memory");
    frame
}

/// Sends `request` under `id`; returns the graph its reply will be
/// decoded against.
fn send_request(
    stream: &mut TcpStream,
    id: u64,
    request: &SolveRequest,
    use_cache: bool,
) -> FactorGraph {
    stream
        .write_all(&frame(id, request, use_cache))
        .expect("request write");
    request.problem().graph().clone()
}

/// Sends item `index` of the stream.
fn send(stream: &mut TcpStream, seed: u64, index: u64) -> FactorGraph {
    let item = stream_item(seed, index);
    send_request(stream, index, &item.request, item.use_cache)
}

/// The cheapest request the service can answer: a tick cut to one
/// iteration. Its round trip is transport, codec and scheduling with no
/// solve to speak of.
fn floor_request(seed: u64) -> SolveRequest {
    tick(seed, 0).with_stopping(StoppingCriteria::fixed_iterations(1))
}

/// Reads one reply; `take` hands over the pending request it answers.
fn receive(stream: &mut TcpStream, take: impl FnOnce(u64) -> Option<Pending>) -> Served {
    let payload = read_frame(stream)
        .expect("reply read")
        .expect("server closed the connection mid-run");
    let index = response_id(&payload).expect("reply header");
    let p = take(index).expect("reply to a request in flight");
    let outcome = match decode_response(&payload, Some(&p.graph)) {
        Ok((_, result)) => result,
        Err(e) => Err(format!("undecodable reply: {e}")),
    };
    let done = Instant::now();
    Served {
        index,
        done,
        latency_s: done.saturating_duration_since(p.from).as_secs_f64(),
        lag_s: p.lag_s,
        outcome,
    }
}

/// Closed loop on one connection: keeps `window` requests in flight,
/// drawing indices from `next` until `stop` says otherwise, then drains.
fn closed_loop_connection(
    mut stream: TcpStream,
    seed: u64,
    next: &AtomicU64,
    window: usize,
    stop: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<Served> {
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut served = Vec::new();
    let mut open = true;
    loop {
        while open && pending.len() < window {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if stop(index) {
                open = false;
                break;
            }
            let from = Instant::now();
            let graph = send(&mut stream, seed, index);
            pending.insert(
                index,
                Pending {
                    from,
                    lag_s: 0.0,
                    graph,
                },
            );
        }
        if pending.is_empty() {
            return served;
        }
        served.push(receive(&mut stream, |index| pending.remove(&index)));
    }
}

/// Closed loop: [`IN_FLIGHT`] requests in flight over the connections,
/// indices from `first` until `stop(index)`. Returns the replies and
/// the next unused index.
fn closed_loop(
    streams: Vec<TcpStream>,
    seed: u64,
    first: u64,
    stop: &(dyn Fn(u64) -> bool + Sync),
) -> (Vec<Served>, u64) {
    let next = AtomicU64::new(first);
    let window = IN_FLIGHT / streams.len();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|s| {
                let next = &next;
                scope.spawn(move || closed_loop_connection(s, seed, next, window, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Each connection overshoots `stop` by one index it never sent.
    let sent_end = served.iter().map(|s| s.index + 1).max().unwrap_or(first);
    (served, sent_end)
}

/// Open loop on one connection: a pacing sender thread writes item
/// `first + k` at `k / OPEN_LOOP_RPS` seconds, whatever the replies do;
/// a receiver thread times each reply from its *due* time.
fn open_loop(stream: TcpStream, seed: u64, first: u64, count: u64) -> Vec<Served> {
    let pending: Mutex<HashMap<u64, Pending>> = Mutex::new(HashMap::new());
    let mut reader = stream.try_clone().expect("socket clone");
    let mut writer = stream;
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let pending = &pending;
        scope.spawn(move || {
            for k in 0..count {
                let index = first + k;
                let item = stream_item(seed, index);
                let frame = frame(index, &item.request, item.use_cache);
                let due = t0 + Duration::from_secs_f64(due_seconds(k));
                // Sleep most of the way, spin the last stretch: sleep alone
                // overshoots by a scheduler tick.
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    if wait > Duration::from_micros(300) {
                        std::thread::sleep(wait - Duration::from_micros(300));
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                }
                let lag_s = Instant::now().saturating_duration_since(due).as_secs_f64();
                pending.lock().expect("client map").insert(
                    index,
                    Pending {
                        from: due,
                        lag_s,
                        graph: item.request.problem().graph().clone(),
                    },
                );
                writer.write_all(&frame).expect("request write");
            }
        });
        let receiver = scope.spawn(move || {
            (0..count)
                .map(|_| {
                    receive(&mut reader, |index| {
                        pending.lock().expect("client map").remove(&index)
                    })
                })
                .collect()
        });
        receiver.join().expect("receiver thread")
    })
}

/// Spawns a server with the default configuration, connects, and gets
/// the reply to the stream's longest tick, cold: what `setup_s`
/// measures.
fn start_server(seed: u64) -> (ServerHandle, TcpStream) {
    let server =
        ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut stream = connect(&server);
    let from = Instant::now();
    let graph = send_request(&mut stream, WARMUP_ID, &warmup_tick(seed), false);
    let warm = receive(&mut stream, |_| {
        Some(Pending {
            from,
            lag_s: 0.0,
            graph,
        })
    });
    assert!(
        warm.converged(),
        "warm-up request failed: {:?}",
        warm.outcome.err()
    );
    (server, stream)
}

/// Compares every [`CHECK_EVERY`]-th cold reply with a solo
/// `SolveRequest::solve` of the same request; returns
/// `(compared, mismatched, solo seconds of each)`.
fn check_against_solo(served: &[Served], seed: u64) -> (usize, usize, Vec<f64>) {
    let (mut compared, mut mismatched) = (0, 0);
    let mut solo_s = Vec::new();
    for s in served.iter().filter(|s| s.index % CHECK_EVERY == 0) {
        // A cache-seeded reply equals a solo solve from the cached
        // state, which the client never sees; only cold replies compare.
        let Ok(outcome) = &s.outcome else { continue };
        if outcome.warm_started {
            continue;
        }
        let t0 = Instant::now();
        let solo = stream_item(seed, s.index).request.solve();
        solo_s.push(t0.elapsed().as_secs_f64());
        compared += 1;
        let same = solo.iterations == outcome.iterations
            && solo.stop_reason == outcome.stop_reason
            && same_state(&solo.store, &outcome.store);
        mismatched += usize::from(!same);
    }
    (compared, mismatched, solo_s)
}

fn count_failures(report: &mut Report, served: &[Served]) {
    report.attempted += served.len() as u64;
    report.failed += served.iter().filter(|s| !s.converged()).count() as u64;
}

/// The [`PACK`] sample ticks as problems.
fn sample_ticks(seed: u64) -> Vec<AdmmProblem> {
    (0..PACK as u64)
        .map(|i| tick(seed, i).into_parts().problem)
        .collect()
}

/// Runs `f` over `problems` as zero-state instances for
/// `BatchStore::pack`.
fn with_instances<R>(problems: &[AdmmProblem], f: impl FnOnce(&[BatchInstance<'_>]) -> R) -> R {
    let stores: Vec<VarStore> = problems
        .iter()
        .map(|p| VarStore::zeros(p.graph()))
        .collect();
    let instances: Vec<BatchInstance<'_>> = problems
        .iter()
        .zip(&stores)
        .map(|(p, s)| BatchInstance {
            graph: p.graph(),
            params: p.params(),
            store: s,
        })
        .collect();
    f(&instances)
}

/// The sample ticks fused into one block-diagonal problem — what the
/// engine's batch lane iterates.
fn fused_pack(seed: u64) -> (AdmmProblem, VarStore) {
    let problems = sample_ticks(seed);
    let (graph, params, store, _) = with_instances(&problems, |i| {
        BatchStore::pack(i).expect("uniform-dims ticks pack")
    })
    .into_parts();
    let proxes = problems
        .into_iter()
        .flat_map(|p| p.into_parts().1)
        .collect();
    (AdmmProblem::with_params(graph, proxes, params), store)
}

/// Runs `serve-mixed`.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer) -> Report {
    let mut report = Report::new(WORKLOAD, seed, traced);
    if traced {
        per_layer(seed, seconds, &mut report, tracer);
    } else {
        end_to_end(seed, seconds, &mut report);
    }
    report
}

fn end_to_end(seed: u64, seconds: f64, report: &mut Report) {
    let (server, warm) = start_server(seed);
    drop(warm);
    // The window is cut into cycles of set-ups, closed loop, open loop
    // and solo solves, so that every metric's samples span all of it: a
    // slow spell of the host outlasts any single phase.
    let cycle_seconds = (seconds / CYCLES as f64).max(1.0);
    let closed_seconds = CLOSED_SHARE * cycle_seconds;
    let counted_seconds = (1.0 - RAMP_SHARE) * closed_seconds;
    let open_count = ((OPEN_SHARE * cycle_seconds * OPEN_LOOP_RPS) as u64).max(20);
    let solo_seconds = (1.0 - CLOSED_SHARE - OPEN_SHARE) * cycle_seconds;

    let (mut setup, mut rates) = (Vec::new(), Vec::new());
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    let mut solves = PackSolves::new(seed);
    let mut next = 0;
    for _ in 0..CYCLES {
        // Set-up, on servers of their own beside the one under load.
        for _ in 0..SETUPS_PER_CYCLE {
            let t0 = Instant::now();
            let (extra, stream) = start_server(seed);
            setup.push(t0.elapsed().as_secs_f64());
            drop(stream);
            extra.shutdown();
        }

        // Phase A, closed loop. Replies count from the end of the ramp,
        // when the first batch has come back, to the deadline; later ones
        // belong to the drain, with fewer than IN_FLIGHT outstanding.
        // The stretch's rate is taken from their latencies by Little's
        // law (requests in flight / mean time in flight): a count over
        // the window reads 20-40 % high when the client was held up
        // before it and finds a backlog of replies to decode inside it.
        let start = Instant::now();
        let counted_from = start + Duration::from_secs_f64(closed_seconds - counted_seconds);
        let deadline = start + Duration::from_secs_f64(closed_seconds);
        let streams = (0..CONNECTIONS).map(|_| connect(&server)).collect();
        let (served, after) = closed_loop(streams, seed, next, &|_| Instant::now() >= deadline);
        let counted: Vec<f64> = served
            .iter()
            .filter(|s| counted_from < s.done && s.done <= deadline)
            .map(|s| s.latency_s)
            .collect();
        rates.push(IN_FLIGHT as f64 * counted.len() as f64 / counted.iter().sum::<f64>());
        closed.extend(served);

        // Phase B, open loop at the frozen rate.
        open.extend(open_loop(connect(&server), seed, after, open_count));
        next = after + open_count;

        // The solve metrics, with the family workloads' meaning, on the
        // stream's own requests.
        let solo_deadline = Instant::now() + Duration::from_secs_f64(solo_seconds);
        solves.run_until(solo_deadline, report);
    }
    server.shutdown();

    count_failures(report, &closed);
    count_failures(report, &open);
    let (compared_a, bad_a, _) = check_against_solo(&closed, seed);
    let (compared_b, bad_b, _) = check_against_solo(&open, seed);
    report.failed += (bad_a + bad_b) as u64;
    report.check(
        "served reply ≡ SolveRequest::solve",
        bad_a + bad_b == 0,
        format!(
            "every {CHECK_EVERY}th cold reply: {} compared, {} differ",
            compared_a + compared_b,
            bad_a + bad_b
        ),
    );
    let errors: Vec<&String> = closed
        .iter()
        .chain(&open)
        .filter_map(|s| s.outcome.as_ref().err())
        .collect();
    report.check(
        "every request answered and converged",
        closed.iter().chain(&open).all(Served::converged),
        format!(
            "{} closed-loop + {} open-loop requests, first error: {:?}",
            closed.len(),
            open.len(),
            errors.first()
        ),
    );

    report.fastest(
        "setup_s",
        &setup,
        "ServerHandle::spawn + connect + first reply (the longest tick, cold)",
    );
    report.fastest(
        "solve_serial_s",
        &solves.solve_serial,
        &format!(
            "{PACK} ticks of the stream's generator, four of each horizon, SolveRequest::solve one by one, serial"
        ),
    );
    let best_rate = rates.iter().copied().fold(f64::MIN, f64::max);
    report.value(
        "solve_par_s",
        1.0 / best_rate,
        "alias: 1 / throughput_rps, the closed loop's seconds per solve through the service",
    );
    report.fastest(
        "iter_serial_s",
        &solves.iter_serial,
        "those requests fused into one pack, serial, blocks of 50",
    );
    report.value(
        "peak_rss_mb",
        host::peak_rss_mib(),
        "VmHWM at exit (client and server share the process)",
    );
    report.highest(
        "throughput_rps",
        &rates,
        &format!(
            "closed loop, {IN_FLIGHT} in flight over {CONNECTIONS} connections: {IN_FLIGHT} / mean send-to-reply time, in each of {CYCLES} stretches of {counted_seconds:.2} s"
        ),
    );
    let latencies: Vec<f64> = open.iter().map(|s| s.latency_s * 1e3).collect();
    let lane_p50 = |lane: Lane| {
        let ms: Vec<f64> = open
            .iter()
            .filter(|s| matches!(&s.outcome, Ok(o) if o.lane == lane))
            .map(|s| s.latency_s * 1e3)
            .collect();
        if ms.is_empty() {
            f64::NAN
        } else {
            median(&ms)
        }
    };
    let seeded = open
        .iter()
        .filter(|s| matches!(&s.outcome, Ok(o) if o.warm_started))
        .count();
    report.median(
        "latency_p50_ms",
        &latencies,
        &format!(
            "open loop at {OPEN_LOOP_RPS} req/s, due time to reply decoded; batch lane {:.2} ms, fleet lane {:.2} ms, {seeded} cache-seeded",
            lane_p50(Lane::Batch),
            lane_p50(Lane::Fleet)
        ),
    );
}

/// The solve metrics of `serve-mixed`, with the family workloads'
/// meaning: the [`PACK`] sample ticks solved one by one with
/// `SolveRequest::solve`, serial (what a client gets without the
/// service), and the per-iteration cost of the same requests fused into
/// the pack the batch lane iterates.
struct PackSolves {
    seed: u64,
    fused: Solver,
    solve_serial: Vec<f64>,
    iter_serial: Vec<f64>,
}

impl PackSolves {
    const BLOCK: usize = 50;
    const BLOCKS_PER_ROUND: usize = 12;

    fn new(seed: u64) -> Self {
        let (pack, init) = fused_pack(seed);
        let mut fused = Solver::from_problem(
            pack,
            SolverOptions {
                stopping: StoppingCriteria::fixed_iterations(Self::BLOCK),
                ..SolverOptions::default()
            },
        );
        *fused.store_mut() = init;
        PackSolves {
            seed,
            fused,
            solve_serial: Vec::new(),
            iter_serial: Vec::new(),
        }
    }

    fn solve_all(&self, backend: BackendSpec) -> (f64, Vec<SolveOutcome>) {
        let requests: Vec<SolveRequest> = (0..PACK as u64)
            .map(|i| tick(self.seed, i).with_backend(backend))
            .collect();
        let t0 = Instant::now();
        let outcomes = requests.into_iter().map(SolveRequest::solve).collect();
        (t0.elapsed().as_secs_f64(), outcomes)
    }

    /// Rounds of the serial solves and a dozen fused blocks until
    /// `deadline`, at least one. The very first round also solves each
    /// tick on a fresh `auto`, untimed, to check it against the serial
    /// solve.
    fn run_until(&mut self, deadline: Instant, report: &mut Report) {
        let mut last_round = Duration::ZERO;
        let mut rounds = 0;
        while rounds < 1 || Instant::now() + last_round <= deadline {
            let t_round = Instant::now();
            let first = self.solve_serial.is_empty();
            let (serial_s, serial) = self.solve_all(BackendSpec::Serial);
            self.solve_serial.push(serial_s);
            report.attempted += PACK as u64;
            report.failed += serial.iter().filter(|a| !a.converged()).count() as u64;
            if first {
                let (_, parallel) = self.solve_all(BackendSpec::Auto {
                    threads: Some(host::threads()),
                });
                let differing = serial
                    .iter()
                    .zip(&parallel)
                    .filter(|(a, b)| {
                        !(a.iterations == b.iterations && same_state(&a.store, &b.store))
                    })
                    .count();
                report.attempted += PACK as u64;
                report.failed += differing as u64;
                report.check(
                    "solo solves: auto ≡ serial",
                    differing == 0,
                    format!("{PACK} requests, iterations and every array"),
                );
            }
            // The solves evicted the pack: one block brings it back.
            self.fused.run(Self::BLOCK);
            for _ in 0..Self::BLOCKS_PER_ROUND {
                let t0 = Instant::now();
                self.fused.run(Self::BLOCK);
                self.iter_serial
                    .push(t0.elapsed().as_secs_f64() / Self::BLOCK as f64);
            }
            rounds += 1;
            last_round = t_round.elapsed();
        }
    }
}

fn per_layer(seed: u64, seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let (pack, init) = fused_pack(seed);
    let problems = Problems {
        tol: &pack,
        tol_init: &init,
        tol_twin: fused_pack(seed).0,
        max_iters: 40_000,
        large: &pack,
        large_init: &init,
        block: 50,
    };
    let ws_gbps = layers::host_layer(report, init.len_f64() * 8);
    layers::graph_layer(report, &pack, &init);
    layers::prox_and_plan_layers(report, &pack, &init);
    layers::kernels_layer(report, tracer, &pack, &init, problems.block, ws_gbps);
    layers::backend_layer(report, tracer, &problems);
    service_layers(report, tracer, seed, Scale::Full);
    layers::solver_layer(report, tracer, problems, layers::SOLVER_SHARE * seconds);
}

/// `graph.pack_s`, `batch.*`, `fleet.*`, `protocol.*`, `engine.*`,
/// `server.*`, `client.gen_lag_p99_ms` and `slo_met_share`, on a prefix
/// of the stream drawn from `seed`.
pub fn service_layers(report: &mut Report, tracer: &mut Tracer, seed: u64, scale: Scale) {
    let (engine_requests, open_requests) = match scale {
        Scale::Calibration => (96u64, 60u64),
        Scale::Full => (512, 300),
    };
    offline_layers(report, seed);
    protocol_layer(report, tracer, seed);
    let engine_p50_ms = engine_layer(report, tracer, seed, engine_requests);
    server_layer(
        report,
        tracer,
        seed,
        engine_requests,
        open_requests,
        engine_p50_ms,
    );
}

/// `graph.pack_s`, `batch.*`, `fleet.*`: the sample ticks and the
/// stream's first [`PACK`] requests, offline.
fn offline_layers(report: &mut Report, seed: u64) {
    let threads = host::threads();
    let options = SolverOptions {
        stopping: stopping(20_000),
        ..SolverOptions::default()
    };

    let problems = sample_ticks(seed);
    let pack_s = with_instances(&problems, |instances| {
        layers::timed(8, || {
            BatchStore::pack(instances).expect("uniform-dims ticks pack")
        })
    });
    report.value(
        "graph.pack_s",
        pack_s,
        &format!("BatchStore::pack of the {PACK} sample ticks, median of 8"),
    );

    let mut batch = BatchSolver::new(problems, options);
    let batch_report = batch.run_default();
    let mut freeze_points: Vec<usize> = batch_report
        .instances
        .iter()
        .map(|r| r.iterations)
        .collect();
    freeze_points.sort_unstable();
    freeze_points.dedup();
    let batch_ok = batch_report.all_converged();
    report.value(
        "batch.instances_per_s",
        batch_report.instances_per_second(),
        &format!("BatchSolver::run over the {PACK} sample ticks, serial"),
    );
    report.value(
        "batch.repacks",
        freeze_points.len() as f64,
        "distinct iteration counts at which instances froze (each repacks the survivors)",
    );
    report.value(
        "batch.plans_built",
        batch.plans_built() as f64,
        "BatchSolver::plans_built",
    );
    report.value(
        "batch.pack_share",
        freeze_points.len() as f64 * pack_s / batch_report.elapsed.as_secs_f64(),
        "batch.repacks x graph.pack_s / BatchSolver::run wall: an upper bound, repacks shrink",
    );

    let mixed: Vec<AdmmProblem> = (0..PACK as u64)
        .map(|i| stream_item(seed, i).request.into_parts().problem)
        .collect();
    let mut fleet = FleetSolver::with_threads(mixed, options, threads);
    let fleet_report = fleet.run_default();
    let diagnostics = fleet.diagnostics();
    report.value(
        "fleet.instances_per_s",
        fleet_report.instances_per_second(),
        &format!("FleetSolver::run over the stream's first {PACK} requests at host.threads"),
    );
    report.value(
        "fleet.migrations",
        diagnostics.total_migrations() as f64,
        "FleetDiagnostics::total_migrations",
    );
    report.value(
        "fleet.idle_spins",
        diagnostics.total_idle_spins() as f64,
        "FleetDiagnostics::total_idle_spins",
    );
    report.value(
        "fleet.chunks",
        diagnostics.total_chunks() as f64,
        "FleetDiagnostics::total_chunks",
    );
    let ok = batch_ok && fleet_report.all_converged();
    report.attempted += 2 * PACK as u64;
    report.failed += u64::from(!ok);
    report.check(
        "offline batch and fleet solves converged",
        ok,
        format!("{PACK} instances each"),
    );
}

/// `protocol.*`: the four codec functions on the stream's first
/// requests and their replies.
fn protocol_layer(report: &mut Report, tracer: &mut Tracer, seed: u64) {
    const N: u64 = 64;
    let root = tracer.begin("serve.protocol", 0);
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (vec![], vec![], vec![], vec![]);
    let (mut req_bytes, mut resp_bytes) = (vec![], vec![]);
    for i in 0..N {
        let item = stream_item(seed, i);
        let graph = item.request.problem().graph().clone();
        let t0 = Instant::now();
        let payload =
            encode_request(i, &item.request, item.use_cache).expect("stream items encode");
        let t1 = Instant::now();
        let decoded = decode_request(&payload).expect("request roundtrip");
        let t2 = Instant::now();
        let solved = decoded.request.solve();
        let outcome = ServedOutcome {
            store: solved.store,
            iterations: solved.iterations,
            stop_reason: solved.stop_reason,
            final_residuals: solved.final_residuals,
            elapsed: solved.elapsed,
            lane: Lane::Batch,
            warm_started: false,
        };
        let t3 = Instant::now();
        let reply = encode_response(i, &Ok(outcome));
        let t4 = Instant::now();
        decode_response(&reply, Some(&graph))
            .expect("reply roundtrip")
            .1
            .expect("an Ok reply");
        let t5 = Instant::now();
        tracer.record("serve.protocol.encode_request", i, t0, t1);
        tracer.record("serve.protocol.decode_request", i, t1, t2);
        tracer.record("serve.protocol.encode_response", i, t3, t4);
        tracer.record("serve.protocol.decode_response", i, t4, t5);
        enc_req.push((t1 - t0).as_secs_f64() * 1e6);
        dec_req.push((t2 - t1).as_secs_f64() * 1e6);
        enc_resp.push((t4 - t3).as_secs_f64() * 1e6);
        dec_resp.push((t5 - t4).as_secs_f64() * 1e6);
        req_bytes.push(payload.len() as f64);
        resp_bytes.push(reply.len() as f64);
    }
    tracer.end(root);
    report.median(
        "protocol.encode_req_us",
        &enc_req,
        "encode_request per stream request",
    );
    report.median("protocol.decode_req_us", &dec_req, "decode_request");
    report.median(
        "protocol.encode_resp_us",
        &enc_resp,
        "encode_response of the solved reply",
    );
    report.median("protocol.decode_resp_us", &dec_resp, "decode_response");
    report.median("protocol.req_bytes", &req_bytes, "request payload size");
    report.median("protocol.resp_bytes", &resp_bytes, "reply payload size");
}

/// `engine.*`: the stream into `Engine::submit`/`step` with no TCP,
/// kept [`IN_FLIGHT`] deep like the closed loop. Deterministic: no
/// clock decides what the engine sees. Returns the engine-only p50
/// latency in ms.
fn engine_layer(report: &mut Report, tracer: &mut Tracer, seed: u64, requests: u64) -> f64 {
    let mut engine = Engine::new(EngineConfig::default());
    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let (mut batch_ms, mut fleet_ms, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut pack_sum) = (Vec::new(), 0usize);
    let mut next = 0u64;
    let mut converged = true;
    let root = tracer.begin("serve.engine", 0);
    let t0 = Instant::now();
    while next < requests || !engine.is_idle() {
        while next < requests && submitted_at.len() < IN_FLIGHT {
            let item = stream_item(seed, next);
            let s = tracer.begin("serve.engine.submit", next);
            submitted_at.insert(next, Instant::now());
            engine.submit(EngineRequest {
                id: next,
                request: item.request,
                use_cache: item.use_cache,
            });
            tracer.end(s);
            next += 1;
        }
        let s = tracer.begin("serve.engine.step", 0);
        let t_step = Instant::now();
        let completions = engine.step();
        steps.push(t_step.elapsed().as_secs_f64());
        tracer.end(s);
        pack_sum += engine.pack_len();
        for c in completions {
            let at = submitted_at
                .remove(&c.id)
                .expect("completion of a submitted request");
            let ms = at.elapsed().as_secs_f64() * 1e3;
            converged &= c.outcome.stop_reason == StopReason::Converged;
            all_ms.push(ms);
            match c.lane {
                Lane::Batch => batch_ms.push(ms),
                Lane::Fleet => fleet_ms.push(ms),
                Lane::Solo => {}
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(root);
    let stats = *engine.stats();
    report.attempted += requests;
    report.failed += u64::from(!converged);
    report.check(
        "engine-only requests converged",
        converged,
        format!("{requests} requests"),
    );

    // Solo floor: the same requests, one at a time, no engine.
    let sample: Vec<u64> = (0..requests).step_by(8).collect();
    let solo_ms: Vec<f64> = sample
        .iter()
        .map(|&i| {
            let request = stream_item(seed, i).request;
            let t0 = Instant::now();
            std::hint::black_box(request.solve());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let p50 = median(&all_ms);
    report.value(
        "engine.rps",
        requests as f64 / wall,
        &format!("{requests} requests through Engine::submit/step, {IN_FLIGHT} in flight, no TCP"),
    );
    report.median("engine.step_s", &steps, "one Engine::step");
    report.value(
        "engine.joins",
        stats.joins as f64,
        "EngineStats::joins, exact",
    );
    report.value(
        "engine.repacks",
        stats.repacks as f64,
        "EngineStats::repacks, exact",
    );
    report.value(
        "engine.max_pack",
        stats.max_pack as f64,
        "EngineStats::max_pack, exact",
    );
    report.value(
        "engine.mean_pack",
        pack_sum as f64 / steps.len() as f64,
        "mean Engine::pack_len after a step",
    );
    report.value(
        "engine.cache_hit_share",
        stats.cache_hits as f64 / requests as f64,
        "EngineStats::cache_hits / requests, exact",
    );
    report.median(
        "engine.batch_lane_p50_ms",
        &batch_ms,
        "submit to Completion, batch lane",
    );
    report.median(
        "engine.fleet_lane_p50_ms",
        &fleet_ms,
        "submit to Completion, fleet lane",
    );
    report.value(
        "engine.slowdown_vs_solo",
        p50 / median(&solo_ms),
        &format!(
            "engine p50 {p50:.3} ms / solo SolveRequest::solve p50 {:.3} ms",
            median(&solo_ms)
        ),
    );
    p50
}

/// `server.*`, `client.gen_lag_p99_ms`, `slo_met_share`: the same
/// stream over loopback TCP.
fn server_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    seed: u64,
    closed_requests: u64,
    open_requests: u64,
    engine_p50_ms: f64,
) {
    let root = tracer.begin("serve.server", 0);
    let (server, mut stream) = start_server(seed);

    // Round-trip floor: a one-iteration request, one in flight.
    let floor = floor_request(seed);
    let mut rtt = Vec::new();
    for k in 0..21u64 {
        let t0 = Instant::now();
        let graph = send_request(&mut stream, k, &floor, false);
        let reply = read_frame(&mut stream)
            .expect("reply read")
            .expect("open connection");
        decode_response(&reply, Some(&graph))
            .expect("reply decodes")
            .1
            .expect("an Ok reply");
        let t1 = Instant::now();
        tracer.record("serve.server.roundtrip", k, t0, t1);
        if k > 0 {
            rtt.push((t1 - t0).as_secs_f64() * 1e6);
        }
    }
    report.median(
        "server.rtt_floor_us",
        &rtt,
        "one-iteration request, one in flight, encode to reply decoded",
    );

    let (closed, next) = closed_loop(vec![stream, connect(&server)], seed, 0, &|index| {
        index >= closed_requests
    });
    let tcp_p50_ms = median(&closed.iter().map(|s| s.latency_s * 1e3).collect::<Vec<_>>());
    report.value(
        "server.transport_share",
        1.0 - engine_p50_ms / tcp_p50_ms,
        &format!(
            "1 - engine-only p50 {engine_p50_ms:.3} ms / closed-loop TCP p50 {tcp_p50_ms:.3} ms"
        ),
    );

    let open = open_loop(connect(&server), seed, next, open_requests);
    server.shutdown();
    tracer.end(root);
    let lag_ms: Vec<f64> = open.iter().map(|s| s.lag_s * 1e3).collect();
    let (p, lag) = tail(&lag_ms, 99.0);
    report.value(
        "client.gen_lag_p99_ms",
        lag,
        &format!(
            "p{p:.1} of send time - due time over {} open-loop requests",
            open.len()
        ),
    );
    let latencies: Vec<f64> = open.iter().map(|s| s.latency_s * 1e3).collect();
    let (p, p99) = tail(&latencies, 99.0);
    report.value(
        "latency_p99_ms",
        p99,
        &format!(
            "p{p:.1} of {} open-loop samples at {OPEN_LOOP_RPS} req/s (ten-samples-beyond rule)",
            latencies.len()
        ),
    );
    let met = open
        .iter()
        .filter(|s| s.converged() && s.latency_s <= SLO_SECONDS)
        .count();
    let quarter = open.len() / 4;
    let by_index = {
        let mut v: Vec<&Served> = open.iter().collect();
        v.sort_by_key(|s| s.index);
        v
    };
    let p50_of =
        |slice: &[&Served]| median(&slice.iter().map(|s| s.latency_s * 1e3).collect::<Vec<_>>());
    report.value(
        "slo_met_share",
        met as f64 / open.len() as f64,
        &format!(
            "open-loop requests answered within {} ms; first-quarter p50 {:.2} ms, last-quarter p50 {:.2} ms",
            SLO_SECONDS * 1e3,
            p50_of(&by_index[..quarter]),
            p50_of(&by_index[by_index.len() - quarter..])
        ),
    );
    count_failures(report, &closed);
    count_failures(report, &open);
    let (compared, mismatched, _) = check_against_solo(&closed, seed);
    report.failed += mismatched as u64;
    report.check(
        "served reply ≡ SolveRequest::solve",
        mismatched == 0 && closed.iter().chain(&open).all(Served::converged),
        format!("every {CHECK_EVERY}th cold closed-loop reply: {compared} compared, {mismatched} differ; all converged"),
    );
}
