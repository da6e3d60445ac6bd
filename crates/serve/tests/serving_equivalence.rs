//! End-to-end serving equivalence: requests served over TCP through the
//! continuous-batching engine produce bit-identical results to solo
//! [`paradmm_core::Solver`] runs — including requests that join the
//! fused batch mid-flight and requests seeded from the warm-start
//! cache.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use paradmm_core::{AdmmProblem, StopReason, StoppingCriteria};
use paradmm_graph::io::{read_frame, write_frame};
use paradmm_graph::GraphBuilder;
use paradmm_prox::{ProxOp, ProxSpec, QuadraticProx};
use paradmm_serve::protocol::{decode_response, encode_request};
use paradmm_serve::{Lane, ServeClient, ServerConfig, ServerHandle, SolveRequest};

/// Consensus of `targets.len()` quadratics over one variable; the
/// optimum is the mean of the targets.
fn consensus_rho(dims: usize, targets: &[f64], rho: f64) -> AdmmProblem {
    let mut b = GraphBuilder::new(dims);
    let v = b.add_var();
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for &t in targets {
        b.add_factor(&[v]);
        let target: Vec<f64> = (0..dims).map(|c| t + c as f64).collect();
        proxes.push(Box::new(QuadraticProx::isotropic(dims, 2.0, &target)));
    }
    AdmmProblem::new(b.build(), proxes, rho, 1.0)
}

fn consensus(dims: usize, targets: &[f64]) -> AdmmProblem {
    consensus_rho(dims, targets, 1.0)
}

fn request(dims: usize, targets: &[f64], stopping: StoppingCriteria) -> SolveRequest {
    SolveRequest::new(consensus(dims, targets)).with_stopping(stopping)
}

/// A request that genuinely exhausts its whole iteration budget: a tiny
/// ρ makes consensus averaging extremely slow, so zero tolerances are
/// never met and the solve runs for `max_iters` wall-clock-visible
/// iterations.
fn slow_request(targets: &[f64], stopping: StoppingCriteria) -> SolveRequest {
    SolveRequest::new(consensus_rho(1, targets, 0.001)).with_stopping(stopping)
}

fn tight() -> StoppingCriteria {
    StoppingCriteria {
        max_iters: 2000,
        eps_abs: 1e-10,
        eps_rel: 1e-9,
        check_every: 10,
    }
}

#[test]
fn served_stream_matches_solo_over_tcp() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // Pipeline every submission before reading a single response.
    let workloads: Vec<&[f64]> = vec![
        &[1.0, 5.0, 9.0],
        &[2.0, 4.0],
        &[-3.0, 0.0, 3.0, 6.0],
        &[7.0],
    ];
    let ids: Vec<u64> = workloads
        .iter()
        .map(|t| client.submit(&request(2, t, tight()), false).unwrap())
        .collect();
    assert_eq!(client.in_flight(), workloads.len());

    for (id, t) in ids.iter().zip(&workloads) {
        let served = client.recv(*id).unwrap();
        let reference = request(2, t, tight()).solve();
        assert_eq!(served.iterations, reference.iterations, "id {id}");
        assert_eq!(served.stop_reason, reference.stop_reason, "id {id}");
        assert_eq!(served.store.x, reference.store.x, "id {id}");
        assert_eq!(served.store.z, reference.store.z, "id {id}");
        assert_eq!(served.store.u, reference.store.u, "id {id}");
        assert_eq!(served.store.n, reference.store.n, "id {id}");
        let (a, b) = (
            served.final_residuals.unwrap(),
            reference.final_residuals.unwrap(),
        );
        assert_eq!(a.primal, b.primal, "id {id}");
        assert_eq!(a.dual, b.dual, "id {id}");
    }
    assert_eq!(client.in_flight(), 0);

    let engine = server.shutdown();
    assert_eq!(engine.stats().completed, workloads.len() as u64);
    assert!(engine.stats().batch_served >= 1);
}

#[test]
fn mid_flight_join_over_tcp_stays_bit_identical() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // A long fixed-budget request with frequent repack boundaries: zero
    // tolerances force the full budget, check_every bounds each fused
    // block so the engine keeps draining its inbox while it runs.
    let long = StoppingCriteria {
        max_iters: 100_000,
        eps_abs: 0.0,
        eps_rel: 0.0,
        check_every: 25,
    };
    let id1 = client
        .submit(&slow_request(&[1.0, 5.0, 9.0], long), false)
        .unwrap();
    // Give the engine time to admit the first request and start
    // stepping, so the second genuinely arrives mid-flight (the slow
    // request runs for tens of milliseconds even in release builds).
    std::thread::sleep(Duration::from_millis(10));
    let id2 = client
        .submit(&request(1, &[2.0, 4.0], tight()), false)
        .unwrap();

    let served2 = client.recv(id2).unwrap();
    let served1 = client.recv(id1).unwrap();

    let ref1 = slow_request(&[1.0, 5.0, 9.0], long).solve();
    let ref2 = request(1, &[2.0, 4.0], tight()).solve();
    assert_eq!(served1.iterations, ref1.iterations);
    assert_eq!(served1.stop_reason, StopReason::MaxIterations);
    assert_eq!(served1.store.z, ref1.store.z);
    assert_eq!(served1.store.u, ref1.store.u);
    assert_eq!(served2.iterations, ref2.iterations);
    assert_eq!(served2.stop_reason, ref2.stop_reason);
    assert_eq!(served2.store.z, ref2.store.z);
    assert_eq!(served2.store.u, ref2.store.u);
    // The short request retired long before the fixed-budget one.
    assert_eq!(served2.lane, Lane::Batch);

    let engine = server.shutdown();
    assert!(
        engine.stats().joins >= 1,
        "second request joined the running pack (stats: {:?})",
        engine.stats()
    );
}

#[test]
fn warm_start_cache_round_trip_over_tcp() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let cold = client
        .solve(&request(1, &[1.0, 5.0, 9.0], tight()), true)
        .unwrap();
    assert!(!cold.warm_started);
    assert_eq!(cold.stop_reason, StopReason::Converged);

    // The identical problem again: seeded from the server-side cache,
    // same stop reason, and bit-identical to a solo solve given the
    // same warm start.
    let warm = client
        .solve(&request(1, &[1.0, 5.0, 9.0], tight()), true)
        .unwrap();
    assert!(warm.warm_started, "resubmission hits the warm-start cache");
    assert_eq!(warm.stop_reason, StopReason::Converged);

    let reference = request(1, &[1.0, 5.0, 9.0], tight())
        .with_warm_start(cold.store.clone())
        .solve();
    assert_eq!(warm.iterations, reference.iterations);
    assert_eq!(warm.store.x, reference.store.x);
    assert_eq!(warm.store.z, reference.store.z);
    assert_eq!(warm.store.u, reference.store.u);

    let engine = server.shutdown();
    assert_eq!(engine.stats().cache_hits, 1);
}

#[test]
fn undecodable_frame_reports_error_and_keeps_connection() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A well-delimited frame whose payload is garbage: the server must
    // report a request-level error, not kill the connection.
    write_frame(&mut stream, b"this is not a solve request").unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error response");
    let (id, result) = decode_response(&reply, None).unwrap();
    assert_eq!(id, u64::MAX, "bad-request reports carry the sentinel id");
    assert!(result.is_err());

    // The same connection still serves valid requests afterwards.
    let req = request(1, &[3.0, -1.0], tight());
    let graph = req.problem().graph().clone();
    let payload = encode_request(42, &req, false).unwrap();
    write_frame(&mut stream, &payload).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("ok response");
    let (id, result) = decode_response(&reply, Some(&graph)).unwrap();
    assert_eq!(id, 42);
    let served = result.unwrap();
    let reference = request(1, &[3.0, -1.0], tight()).solve();
    assert_eq!(served.iterations, reference.iterations);
    assert_eq!(served.store.z, reference.store.z);

    drop(stream);
    let engine = server.shutdown();
    assert_eq!(engine.stats().completed, 1);
}

#[test]
fn request_whose_reply_cannot_be_framed_reports_error_and_keeps_connection() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // A decodable frame whose graph header claims 2^23 variables: the
    // reply store (128 MiB) could never be framed, so the server must
    // refuse the request up front instead of solving it.
    let mut b = GraphBuilder::new(1);
    let v = b.add_var();
    b.add_factor(&[v]);
    let proxes: Vec<Box<dyn ProxOp>> = vec![Box::new(paradmm_prox::ZeroProx)];
    let small = SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.0, 1.0));
    let mut payload = encode_request(7, &small, false).unwrap();
    let graph_at = payload.windows(4).position(|w| w == b"PADM").unwrap();
    payload[graph_at + 12..graph_at + 16].copy_from_slice(&(1u32 << 23).to_le_bytes());
    write_frame(&mut stream, &payload).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error response");
    let (id, result) = decode_response(&reply, None).unwrap();
    assert_eq!(id, u64::MAX, "bad-request reports carry the sentinel id");
    let message = result.unwrap_err();
    assert!(message.contains("frame cap"), "{message}");

    // The same connection still serves valid requests afterwards.
    let req = request(1, &[3.0, -1.0], tight());
    let graph = req.problem().graph().clone();
    write_frame(&mut stream, &encode_request(42, &req, false).unwrap()).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("ok response");
    let (id, result) = decode_response(&reply, Some(&graph)).unwrap();
    assert_eq!(id, 42);
    let reference = request(1, &[3.0, -1.0], tight()).solve();
    assert_eq!(result.unwrap().store.z, reference.store.z);

    drop(stream);
    let engine = server.shutdown();
    assert_eq!(engine.stats().completed, 1);
}

/// Requests the engine could not solve — an affine constraint without
/// full row rank, a quadratic whose `q + ρ` is not positive or not
/// finite — each get an error reply, and a second connection is then
/// served. The read timeout turns a dead engine thread into a failure
/// of this test instead of a hung suite.
#[test]
fn unsolvable_operators_get_error_replies_and_the_server_keeps_serving() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let hostile: Vec<Box<dyn ProxOp>> = vec![
        ProxSpec::AffineEquality {
            rows: 1,
            cols: 2,
            data: vec![0.0, 0.0],
            c: vec![0.0],
        }
        .build(),
        Box::new(QuadraticProx::diagonal(vec![-2.0, 1.0], vec![0.0, 0.0])),
        Box::new(QuadraticProx::diagonal(vec![f64::NAN, 1.0], vec![0.0, 0.0])),
    ];
    for (id, op) in hostile.into_iter().enumerate() {
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        let req = SolveRequest::new(AdmmProblem::new(b.build(), vec![op], 1.0, 1.0));
        write_frame(
            &mut stream,
            &encode_request(id as u64, &req, false).unwrap(),
        )
        .unwrap();
        let reply = read_frame(&mut stream)
            .expect("an error reply before the read timeout")
            .expect("error response");
        let (rid, result) = decode_response(&reply, None).unwrap();
        assert_eq!(rid, u64::MAX, "bad-request reports carry the sentinel id");
        let message = result.unwrap_err();
        assert!(message.contains("prox for factor 0"), "{message}");
    }
    drop(stream);

    let mut client = ServeClient::connect(server.addr()).unwrap();
    let served = client
        .solve(&request(1, &[3.0, -1.0], tight()), false)
        .unwrap();
    let reference = request(1, &[3.0, -1.0], tight()).solve();
    assert_eq!(served.iterations, reference.iterations);
    assert_eq!(served.store.z, reference.store.z);

    drop(client);
    let engine = server.shutdown();
    assert_eq!(engine.stats().completed, 1);
}

/// Median, in milliseconds, of `samples` back-to-back calls of
/// `round_trip` on an established connection: one call is made first and
/// discarded (connection set-up, first-touch allocation).
fn median_round_trip_ms(samples: usize, mut round_trip: impl FnMut() -> Duration) -> f64 {
    round_trip();
    let mut ms: Vec<f64> = (0..samples)
        .map(|_| round_trip().as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// What the transport may add to a one-iteration solve. A segment held
/// back by Nagle's algorithm waits for the peer's delayed-ACK timer —
/// 40 ms, per direction — and a healthy loopback round trip reads
/// 0.1–0.2 ms, so the bound sits 4× under the failure and 50× over the
/// success.
const ROUND_TRIP_BOUND_MS: f64 = 10.0;

fn one_iteration() -> SolveRequest {
    request(1, &[2.0, 4.0], StoppingCriteria::fixed_iterations(1))
}

/// The server's side alone: the client frames in memory, writes once and
/// sets `TCP_NODELAY` itself, so any timer in the round trip is the
/// server's. One request in flight waits if a reply's prefix leaves as a
/// segment of its own with Nagle on; a burst of four waits if the
/// accepted socket lacks `TCP_NODELAY`, because the second reply is then
/// held until the client acknowledges the first.
#[test]
fn server_replies_do_not_wait_for_a_delayed_ack() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let req = one_iteration();
    let graph = req.problem().graph().clone();
    for in_flight in [1u64, 4] {
        let mut frames = Vec::new();
        for id in 0..in_flight {
            write_frame(&mut frames, &encode_request(id, &req, false).unwrap()).unwrap();
        }
        let median = median_round_trip_ms(20, || {
            let start = Instant::now();
            stream.write_all(&frames).unwrap();
            for _ in 0..in_flight {
                let reply = read_frame(&mut stream).unwrap().expect("reply");
                let (_, result) = decode_response(&reply, Some(&graph)).unwrap();
                assert_eq!(result.unwrap().iterations, 1);
            }
            start.elapsed()
        });
        assert!(
            median < ROUND_TRIP_BOUND_MS,
            "{in_flight} in flight: median round trip {median:.3} ms"
        );
    }

    drop(stream);
    server.shutdown();
}

/// Both sides as a library user gets them, through `ServeClient`.
#[test]
fn serve_client_does_not_wait_for_a_delayed_ack() {
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // `solve` with one request in flight.
    let req = one_iteration();
    let median = median_round_trip_ms(20, || {
        let start = Instant::now();
        assert_eq!(client.solve(&req, false).unwrap().iterations, 1);
        start.elapsed()
    });
    assert!(
        median < ROUND_TRIP_BOUND_MS,
        "solve: median round trip {median:.3} ms"
    );

    // A request submitted right behind one the server is busy with: with
    // Nagle on the client's socket it would stay in the send buffer until
    // the server's delayed ACK of the first, instead of joining the
    // running pack at the next repack boundary.
    let long = StoppingCriteria {
        max_iters: 100_000,
        eps_abs: 0.0,
        eps_rel: 0.0,
        check_every: 25,
    };
    let median = median_round_trip_ms(5, || {
        let start = Instant::now();
        let busy = client
            .submit(&slow_request(&[1.0, 5.0, 9.0], long), false)
            .unwrap();
        let quick = client.submit(&req, false).unwrap();
        assert_eq!(client.recv(quick).unwrap().iterations, 1);
        let waited = start.elapsed();
        assert_eq!(client.recv(busy).unwrap().iterations, long.max_iters);
        waited
    });
    assert!(
        median < ROUND_TRIP_BOUND_MS,
        "pipelined submit: median time to the quick reply {median:.3} ms"
    );

    drop(client);
    server.shutdown();
}
