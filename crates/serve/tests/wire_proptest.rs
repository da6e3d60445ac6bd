//! Property-based coverage of the serve wire protocol: encode/decode
//! roundtrips over arbitrary requests, rejection of every truncation
//! point, and the transport layer's framing: byte-exact encoding,
//! back-to-back roundtrips, oversized and torn frames.

use std::io::Cursor;
use std::time::Duration;

use proptest::prelude::*;

use paradmm_core::{AdmmProblem, Priority, StoppingCriteria};
use paradmm_graph::io::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use paradmm_graph::GraphBuilder;
use paradmm_prox::{ProxOp, QuadraticProx};
use paradmm_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, response_id, ServedOutcome,
};
use paradmm_serve::{Lane, SolveRequest};

/// Consensus of `targets.len()` quadratics over one `dims`-dimensional
/// variable — small enough that property cases stay fast, rich enough
/// to exercise graph/params/spec/store encoding.
fn consensus(dims: usize, targets: &[f64]) -> AdmmProblem {
    let mut b = GraphBuilder::new(dims);
    let v = b.add_var();
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for &t in targets {
        b.add_factor(&[v]);
        let target: Vec<f64> = (0..dims).map(|c| t + c as f64).collect();
        proxes.push(Box::new(QuadraticProx::isotropic(dims, 2.0, &target)));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

#[derive(Debug, Clone)]
struct RequestShape {
    dims: usize,
    targets: Vec<f64>,
    stopping: StoppingCriteria,
    priority: Priority,
    deadline_us: Option<u64>,
    warm: bool,
    use_cache: bool,
    id: u64,
}

fn priority_strategy() -> impl Strategy<Value = Priority> {
    (0usize..4).prop_map(|i| match i {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => Priority::Critical,
    })
}

fn stopping_strategy() -> impl Strategy<Value = StoppingCriteria> {
    (
        1usize..400,
        // 0 means "no intermediate checks" (check_every = usize::MAX).
        0usize..64,
        1e-10f64..1e-2,
        1e-10f64..1e-2,
    )
        .prop_map(|(max_iters, check, eps_abs, eps_rel)| StoppingCriteria {
            max_iters,
            eps_abs,
            eps_rel,
            check_every: if check == 0 { usize::MAX } else { check },
        })
}

fn request_strategy() -> impl Strategy<Value = RequestShape> {
    (
        (
            1usize..4,
            proptest::collection::vec(-10.0f64..10.0, 1..5),
            stopping_strategy(),
        ),
        (
            priority_strategy(),
            // 0 means "no deadline".
            0u64..10_000_000,
            0usize..4,
            0u64..u64::MAX,
        ),
    )
        .prop_map(
            |((dims, targets, stopping), (priority, deadline_us, flag_bits, id))| RequestShape {
                dims,
                targets,
                stopping,
                priority,
                deadline_us: (deadline_us > 0).then_some(deadline_us),
                warm: flag_bits & 1 != 0,
                use_cache: flag_bits & 2 != 0,
                id,
            },
        )
}

fn build_request(shape: &RequestShape) -> SolveRequest {
    let mut req = SolveRequest::new(consensus(shape.dims, &shape.targets))
        .with_stopping(shape.stopping)
        .with_priority(shape.priority);
    if let Some(us) = shape.deadline_us {
        req = req.with_deadline(Duration::from_micros(us));
    }
    if shape.warm {
        // A correctly-shaped nontrivial store: a few solo iterations.
        let seed = SolveRequest::new(consensus(shape.dims, &shape.targets))
            .with_stopping(StoppingCriteria::fixed_iterations(3))
            .solve();
        req = req.with_warm_start(seed.store);
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode → re-encode is byte-identical, and the decoded
    /// request preserves every field the wire carries.
    #[test]
    fn request_roundtrip_is_stable(shape in request_strategy()) {
        let req = build_request(&shape);
        let bytes = encode_request(shape.id, &req, shape.use_cache).unwrap();
        let decoded = decode_request(&bytes).unwrap();
        prop_assert_eq!(decoded.id, shape.id);
        prop_assert_eq!(decoded.use_cache, shape.use_cache);
        prop_assert_eq!(decoded.request.priority(), shape.priority);
        prop_assert_eq!(
            decoded.request.deadline(),
            shape.deadline_us.map(Duration::from_micros)
        );
        prop_assert_eq!(*decoded.request.stopping(), shape.stopping);
        prop_assert_eq!(decoded.request.warm_start().is_some(), shape.warm);
        prop_assert_eq!(
            decoded.request.problem().graph().num_factors(),
            shape.targets.len()
        );
        let again = encode_request(decoded.id, &decoded.request, decoded.use_cache).unwrap();
        prop_assert_eq!(again, bytes);
    }

    /// Every proper prefix of a valid request payload is rejected.
    #[test]
    fn truncated_request_rejected(
        shape in request_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let req = build_request(&shape);
        let bytes = encode_request(shape.id, &req, shape.use_cache).unwrap();
        let cut = ((bytes.len() as f64) * cut) as usize; // always < len
        prop_assert!(decode_request(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
    }

    /// Trailing garbage after a valid request payload is rejected.
    #[test]
    fn trailing_bytes_rejected(shape in request_strategy(), junk in 1usize..16) {
        let req = build_request(&shape);
        let mut bytes = encode_request(shape.id, &req, shape.use_cache).unwrap();
        bytes.extend(std::iter::repeat_n(0xAB, junk));
        prop_assert!(decode_request(&bytes).is_err());
    }

    /// Response encode → decode → re-encode is byte-identical and the
    /// solver outputs survive exactly.
    #[test]
    fn response_roundtrip_is_stable(shape in request_strategy(), id in 0u64..u64::MAX) {
        let graph = consensus(shape.dims, &shape.targets).graph().clone();
        let outcome = build_request(&shape).solve();
        let served = ServedOutcome {
            store: outcome.store,
            iterations: outcome.iterations,
            stop_reason: outcome.stop_reason,
            final_residuals: outcome.final_residuals,
            elapsed: outcome.elapsed,
            lane: Lane::Batch,
            warm_started: shape.warm,
        };
        let bytes = encode_response(id, &Ok(served.clone()));
        prop_assert_eq!(response_id(&bytes).unwrap(), id);
        let (rid, result) = decode_response(&bytes, Some(&graph)).unwrap();
        prop_assert_eq!(rid, id);
        let back = result.unwrap();
        prop_assert_eq!(back.iterations, served.iterations);
        prop_assert_eq!(back.stop_reason, served.stop_reason);
        prop_assert_eq!(back.lane, served.lane);
        prop_assert_eq!(back.warm_started, served.warm_started);
        prop_assert_eq!(&back.store.x, &served.store.x);
        prop_assert_eq!(&back.store.z, &served.store.z);
        prop_assert_eq!(&back.store.u, &served.store.u);
        prop_assert_eq!(&back.store.n, &served.store.n);
        let again = encode_response(rid, &Ok(back));
        prop_assert_eq!(again, bytes);
    }

    /// Every proper prefix of a valid response payload is rejected.
    #[test]
    fn truncated_response_rejected(shape in request_strategy(), cut in 0.0f64..1.0) {
        let graph = consensus(shape.dims, &shape.targets).graph().clone();
        let outcome = build_request(&shape).solve();
        let served = ServedOutcome {
            store: outcome.store,
            iterations: outcome.iterations,
            stop_reason: outcome.stop_reason,
            final_residuals: outcome.final_residuals,
            elapsed: outcome.elapsed,
            lane: Lane::Solo,
            warm_started: false,
        };
        let bytes = encode_response(7, &Ok(served));
        let cut = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(decode_response(&bytes[..cut], Some(&graph)).is_err());
    }

    /// Whatever the payloads, `write_frame` puts `len.to_le_bytes() ++
    /// payload` on the stream — the encoding it had when it issued the
    /// prefix and the payload as two writes, so old peers interoperate —
    /// and `read_frame` takes back-to-back frames apart again.
    #[test]
    fn frames_keep_the_two_write_encoding_and_roundtrip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 0..600),
            1..5,
        ),
    ) {
        let payloads: Vec<Vec<u8>> = payloads
            .iter()
            .map(|bytes| bytes.iter().map(|&b| b as u8).collect())
            .collect();
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(payload);
        }
        prop_assert_eq!(&wire, &expected);
        let mut cursor = Cursor::new(wire);
        for payload in &payloads {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), payload);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Error responses roundtrip without needing a graph.
    #[test]
    fn error_response_roundtrips_graphless(
        id in 0u64..u64::MAX,
        chars in proptest::collection::vec(32u32..127, 0..64),
    ) {
        let msg: String = chars.iter().map(|&c| char::from_u32(c).unwrap()).collect();
        let bytes = encode_response(id, &Err(msg.clone()));
        let (rid, result) = decode_response(&bytes, None).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(result.err().unwrap(), msg);
    }
}

/// A frame whose length prefix exceeds [`MAX_FRAME_LEN`] is rejected
/// before any payload allocation.
#[test]
fn oversized_frame_rejected_by_transport() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    let mut cursor = Cursor::new(wire);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(FrameError::Oversized(n)) if n == MAX_FRAME_LEN + 1
    ));
}

/// A frame cut mid-payload surfaces as a truncation error, not EOF.
#[test]
fn torn_frame_rejected_by_transport() {
    let req = SolveRequest::new(consensus(2, &[1.0, -4.0]))
        .with_stopping(StoppingCriteria::fixed_iterations(5));
    let payload = encode_request(1, &req, false).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    wire.truncate(wire.len() - 3);
    let mut cursor = Cursor::new(wire);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(FrameError::Truncated)
    ));
}
