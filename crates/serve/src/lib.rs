//! Solver-as-a-service: a long-running parADMM solver process serving
//! [`paradmm_core::SolveRequest`]s over TCP with continuous batching.
//!
//! The paper's batched-solving result (block-diagonal fusion amortizes
//! sweep-launch overhead across many small instances) is an *offline*
//! result: [`paradmm_core::BatchSolver`] takes a closed set of problems
//! and runs them to completion. A serving workload is open-ended —
//! requests arrive continuously, and holding each one until the current
//! batch drains throws the fusion win away on latency. This crate
//! closes the gap with an LLM-serving-style *continuous batching*
//! engine:
//!
//! * **Admission queue** — incoming requests wait in a priority- and
//!   deadline-ordered queue ([`Priority`] descending, then earliest
//!   deadline, then arrival).
//! * **In-flight joins** — whenever the fused batch reaches a repack
//!   boundary (a residual check retired some instances, or a block just
//!   finished), queued requests whose `dims` match are spliced into the
//!   running batch. Mid-flight members keep *per-instance* iteration
//!   counters, so a joiner at iteration 0 coexists with a member at
//!   iteration 400.
//! * **Fleet lane** — requests that cannot join the fused batch
//!   (mismatched `dims`) and latency-critical requests
//!   ([`Priority::Critical`]) are served on a dedicated
//!   [`paradmm_core::FleetSolver`] round instead of waiting for batch
//!   coalescing.
//! * **Warm-start cache** — completed solutions are cached keyed by
//!   `protocol::request_fingerprint`, which covers topology, ρ/α
//!   *and* every factor's prox-operator encoding; an exactly
//!   re-submitted problem starts from the cached state instead of
//!   zeros, while a same-shaped problem with different objectives gets
//!   a distinct key.
//!
//! **Bit-identity contract.** Joins, retires, priorities and deadlines
//! only change *when* work runs, never *what* runs: every request's
//! iterates — and its residual-check schedule, hence its stop iteration
//! — are bit-identical to a solo serial [`paradmm_core::Solver`] run of
//! the same request (same warm start included). Deadlines are
//! scheduling hints, never mid-solve aborts. See [`Engine`] for the
//! block-scheduling rule that preserves this.
//!
//! The wire protocol ([`protocol`]) is a hand-rolled length-prefixed
//! binary format over `std::net` — no external dependencies — with
//! [`ServeClient`] as the blocking client and [`ServerHandle`] running
//! the accept loop plus engine thread.

mod cache;
mod client;
mod engine;
pub mod protocol;
mod server;
mod wire;

pub use client::{ClientError, ServeClient};
pub use engine::{Completion, Engine, EngineConfig, EngineRequest, EngineStats, Lane, ServeMode};
pub use paradmm_core::{Priority, SolveOutcome, SolveRequest};
pub use protocol::{DecodedRequest, ServedOutcome, WireError};
pub use server::{ServerConfig, ServerHandle};
