//! Solver-as-a-service: spawn the TCP solve server, stream MPC
//! requests at it from a pipelined client, and read the results back
//! in completion order.
//!
//! The server runs a continuous-batching engine: requests whose `dims`
//! match are coalesced into one fused block-diagonal pack (joining
//! mid-flight at repack boundaries), `Priority::Critical` requests are
//! served on a dedicated fleet round, and completed solutions populate
//! a warm-start cache keyed by problem fingerprint — a re-submitted
//! problem (an MPC controller re-solving every tick) starts from the
//! previous solution. Every result is bit-identical to a solo serial
//! solve of the same request.
//!
//! Run: `cargo run --release --example solver_service`

use std::time::Instant;

use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::prelude::*;
use paradmm::serve::{ServeClient, ServerConfig, ServerHandle};

fn mpc_request(user: usize) -> SolveRequest {
    let t = user as f64 * 0.37;
    let mut cfg = MpcConfig::new(4 + (user % 5));
    cfg.q0 = [
        0.1 + 0.05 * t.sin(),
        0.02 * t.cos(),
        0.05 - 0.03 * (1.3 * t).sin(),
        0.01 * (0.7 * t).cos(),
    ];
    let (_, problem) = MpcProblem::build(cfg, paper_plant());
    SolveRequest::new(problem).with_stopping(StoppingCriteria {
        max_iters: 3000,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 25,
    })
}

fn main() {
    // Port 0 = ephemeral; in production this would be a fixed address.
    let server = ServerHandle::spawn("127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral port");
    println!("solve server listening on {}", server.addr());

    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // Pipeline a burst of requests — no waiting between submissions, so
    // the engine coalesces them into one fused pack.
    let n = 12;
    for user in 0..n {
        client.submit(&mpc_request(user), true).expect("submit");
    }
    for _ in 0..n {
        let (id, result) = client.recv_any().expect("response");
        let outcome = result.expect("server-side solve");
        println!(
            "  request {id:2}: {:4} iterations, {:?}, lane {:?}{}",
            outcome.iterations,
            outcome.stop_reason,
            outcome.lane,
            if outcome.warm_started {
                ", warm-started"
            } else {
                ""
            },
        );
    }

    // The same controller one tick later: the warm-start cache seeds it
    // from the converged solution instead of zeros (bit-identical to a
    // solo solve given the same warm start).
    // Timed from the client: round trip minus the server-side solve time
    // is everything the service adds — codec, queueing and the transport.
    let tick = mpc_request(0);
    let sent = Instant::now();
    let warm = client.solve(&tick, true).expect("resubmit");
    let round_trip = sent.elapsed();
    println!(
        "resubmitted request: {} iterations ({}), {:?}",
        warm.iterations,
        if warm.warm_started {
            "warm-started from cache"
        } else {
            "cold"
        },
        warm.stop_reason,
    );
    println!(
        "  client round trip {:.3} ms, server-side solve {:.3} ms",
        round_trip.as_secs_f64() * 1e3,
        warm.elapsed.as_secs_f64() * 1e3,
    );

    let engine = server.shutdown();
    let stats = engine.stats();
    println!(
        "served {} requests: {} batched, {} fleet, {} mid-flight joins, {} cache hits",
        stats.completed, stats.batch_served, stats.fleet_served, stats.joins, stats.cache_hits,
    );
}
