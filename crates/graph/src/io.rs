//! Compact binary serialization of graphs, parameters and solver state.
//!
//! The paper's workflow builds a factor graph once (up to 450 s for large
//! packing instances) and reuses it "for different instances of similar
//! problems". This module makes that concrete: a versioned little-endian
//! binary format for the topology + `ρ/α` + ADMM state, so a graph is
//! built once, saved, and reloaded instantly — including mid-solve
//! checkpoints for warm restarts.

use crate::byteio::{Buf, BufMut};

use crate::graph::FactorGraph;
use crate::ids::VarId;
use crate::params::EdgeParams;
use crate::store::VarStore;

const MAGIC: &[u8; 4] = b"PADM";
const VERSION: u32 = 1;

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// Magic bytes or version did not match.
    BadHeader,
    /// Structural validation failed after decode.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Truncated => write!(f, "buffer truncated"),
            IoError::BadHeader => write!(f, "bad magic/version"),
            IoError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

fn need(buf: &impl Buf, n: usize) -> Result<(), IoError> {
    if buf.remaining() < n {
        Err(IoError::Truncated)
    } else {
        Ok(())
    }
}

/// Encodes a graph (topology only) into `out`.
pub fn encode_graph(graph: &FactorGraph, out: &mut Vec<u8>) {
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION);
    out.put_u32_le(graph.dims() as u32);
    out.put_u32_le(graph.num_vars() as u32);
    out.put_u32_le(graph.num_factors() as u32);
    out.put_u32_le(graph.num_edges() as u32);
    for a in graph.factors() {
        out.put_u32_le(graph.factor_edge_range(a).start as u32);
    }
    out.put_u32_le(graph.num_edges() as u32); // final offset sentinel
    for e in graph.edges() {
        out.put_u32_le(graph.edge_var(e).0);
    }
}

/// The fixed header of an encoded graph: its shape, which sizes
/// everything built from the graph (its store, a reply carrying that
/// store) before any of it is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphHeader {
    /// Components per edge vector.
    pub dims: usize,
    /// Variable nodes.
    pub num_vars: usize,
    /// Factor nodes.
    pub num_factors: usize,
    /// Edges.
    pub num_edges: usize,
}

/// Reads the header of an [`encode_graph`] blob without decoding (or
/// allocating for) the body.
pub fn decode_graph_header(mut buf: &[u8]) -> Result<GraphHeader, IoError> {
    need(&buf, 8)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC || buf.get_u32_le() != VERSION {
        return Err(IoError::BadHeader);
    }
    need(&buf, 16)?;
    let header = GraphHeader {
        dims: buf.get_u32_le() as usize,
        num_vars: buf.get_u32_le() as usize,
        num_factors: buf.get_u32_le() as usize,
        num_edges: buf.get_u32_le() as usize,
    };
    if header.dims == 0 {
        return Err(IoError::Corrupt("dims must be positive".into()));
    }
    Ok(header)
}

/// Bytes [`encode_graph`] writes before the factor offsets.
const GRAPH_HEADER_LEN: usize = 24;

/// Decodes a graph, validating structure.
pub fn decode_graph(buf: &[u8]) -> Result<FactorGraph, IoError> {
    let GraphHeader {
        dims,
        num_vars,
        num_factors,
        num_edges,
    } = decode_graph_header(buf)?;
    let mut buf = &buf[GRAPH_HEADER_LEN..];
    need(&buf, 4 * (num_factors + 1))?;
    let offsets: Vec<u32> = (0..=num_factors).map(|_| buf.get_u32_le()).collect();
    need(&buf, 4 * num_edges)?;
    let edge_var: Vec<VarId> = (0..num_edges).map(|_| VarId(buf.get_u32_le())).collect();
    if offsets.last().copied() != Some(num_edges as u32) {
        return Err(IoError::Corrupt("offset sentinel mismatch".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(IoError::Corrupt("offsets not monotone".into()));
    }
    if edge_var.iter().any(|v| v.idx() >= num_vars) {
        return Err(IoError::Corrupt("edge references missing variable".into()));
    }
    let graph = FactorGraph::from_parts(dims, num_vars, offsets, edge_var);
    graph.validate().map_err(IoError::Corrupt)?;
    Ok(graph)
}

/// Encodes per-edge parameters.
pub fn encode_params(params: &EdgeParams, out: &mut Vec<u8>) {
    out.put_u32_le(params.rho.len() as u32);
    for &r in &params.rho {
        out.put_f64_le(r);
    }
    for &a in &params.alpha {
        out.put_f64_le(a);
    }
}

/// Decodes per-edge parameters and validates them against `graph`.
pub fn decode_params(mut buf: &[u8], graph: &FactorGraph) -> Result<EdgeParams, IoError> {
    need(&buf, 4)?;
    let n = buf.get_u32_le() as usize;
    if n != graph.num_edges() {
        return Err(IoError::Corrupt("edge-count mismatch".into()));
    }
    need(&buf, 16 * n)?;
    let rho: Vec<f64> = (0..n).map(|_| buf.get_f64_le()).collect();
    let alpha: Vec<f64> = (0..n).map(|_| buf.get_f64_le()).collect();
    let params = EdgeParams {
        rho: rho.into(),
        alpha: alpha.into(),
    };
    params.validate(graph).map_err(IoError::Corrupt)?;
    Ok(params)
}

/// Encodes a full ADMM state checkpoint (x, m, u, n, z).
pub fn encode_store(store: &VarStore, out: &mut Vec<u8>) {
    out.put_u32_le(store.dims() as u32);
    out.put_u32_le(store.num_edges() as u32);
    out.put_u32_le(store.num_vars() as u32);
    for arr in [
        &store.x,
        &store.m,
        &store.u,
        &store.n,
        &store.z,
        &store.z_prev,
    ] {
        for &v in arr.iter() {
            out.put_f64_le(v);
        }
    }
}

/// Length of [`encode_store`]'s output for a state of `dims`
/// components over `num_edges` edges and `num_vars` variables, or `None`
/// if it does not fit in `usize`.
pub fn encoded_store_len(dims: usize, num_edges: usize, num_vars: usize) -> Option<usize> {
    let values = num_edges
        .checked_mul(4)?
        .checked_add(num_vars.checked_mul(2)?)?
        .checked_mul(dims)?;
    values.checked_mul(8)?.checked_add(STORE_HEADER_LEN)
}

/// Bytes [`encode_store`] writes before the values: `dims`, edge and
/// variable counts.
const STORE_HEADER_LEN: usize = 12;

/// Decodes an ADMM state checkpoint shaped for `graph`.
pub fn decode_store(mut buf: &[u8], graph: &FactorGraph) -> Result<VarStore, IoError> {
    need(&buf, 12)?;
    let dims = buf.get_u32_le() as usize;
    let ne = buf.get_u32_le() as usize;
    let nv = buf.get_u32_le() as usize;
    if dims != graph.dims() || ne != graph.num_edges() || nv != graph.num_vars() {
        return Err(IoError::Corrupt("checkpoint shape mismatch".into()));
    }
    // Length check first: a truncated checkpoint allocates nothing.
    let len = encoded_store_len(dims, ne, nv).ok_or(IoError::Truncated)?;
    need(&buf, len - STORE_HEADER_LEN)?;
    let mut store = VarStore::zeros(graph);
    for target in [
        &mut store.x,
        &mut store.m,
        &mut store.u,
        &mut store.n,
        &mut store.z,
        &mut store.z_prev,
    ] {
        for slot in target.iter_mut() {
            *slot = buf.get_f64_le();
        }
    }
    Ok(store)
}

/// Largest frame payload [`read_frame`] will accept (64 MiB). A
/// length prefix beyond this is rejected before any allocation — a
/// corrupt or hostile 4-byte header must not OOM the server.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frame-level transport errors for the length-prefixed stream codec.
///
/// Unlike [`IoError`] this wraps [`std::io::Error`] (sockets fail in
/// ways in-memory buffers cannot), so it is not `Clone`/`PartialEq`.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The length prefix read, or the payload offered for writing,
    /// exceeded [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The stream ended mid-frame (after a partial prefix or payload).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `u32`-LE length-prefixed frame: the bytes on the wire are
/// `(payload.len() as u32).to_le_bytes()` followed by `payload`, exactly
/// what [`read_frame`] (and every earlier version of this function)
/// expects, so old peers interoperate.
///
/// **One write per frame.** The prefix and the payload are handed to
/// the writer together, as the two slices of a single
/// [`write_vectored`](std::io::Write::write_vectored) call; the payload
/// is never copied. On a `TcpStream` that is one `writev` for a frame
/// of any size, so the prefix never travels alone. This matters on a
/// socket: a prefix sent as a segment of its own leaves the payload
/// behind it waiting, under Nagle's algorithm, for the peer's delayed
/// ACK — a 40 ms timer per frame instead of microseconds. The call is
/// repeated only when the writer accepts part of the frame. (A writer
/// that keeps the default `write_vectored` takes the first non-empty
/// slice per call and still produces the same stream.)
///
/// A payload beyond [`MAX_FRAME_LEN`] is refused with
/// [`FrameError::Oversized`] before anything is written, so the stream
/// stays frame-aligned and the caller may write another frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(payload.len()));
    }
    let prefix = (payload.len() as u32).to_le_bytes();
    let total = prefix.len() + payload.len();
    // Bytes of `prefix ++ payload` the writer has accepted so far.
    let mut sent = 0;
    while sent < total {
        let frame = [
            std::io::IoSlice::new(&prefix[sent.min(prefix.len())..]),
            std::io::IoSlice::new(&payload[sent.saturating_sub(prefix.len())..]),
        ];
        match w.write_vectored(&frame) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed between frames); EOF after a
/// partial prefix or payload is [`FrameError::Truncated`]; a prefix
/// beyond [`MAX_FRAME_LEN`] is rejected before allocating.
///
/// A `WouldBlock`/`TimedOut` read timeout is surfaced only *between*
/// frames; once any byte of a frame has been consumed the read is
/// retried (see [`read_frame_or_cancel`] — this is that function with a
/// never-firing cancel hook).
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, FrameError> {
    read_frame_or_cancel(r, || false)
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// [`read_frame`] for readers with a read timeout used as a poll
/// interval (the serve loop's shutdown check).
///
/// `WouldBlock`/`TimedOut` before the first byte of a frame is returned
/// to the caller — between frames, a timeout is a harmless poll point
/// and the stream is still frame-aligned, so the caller may check its
/// flag and call again. Once any byte of the prefix or payload has been
/// consumed, the same error triggers a retry instead: aborting
/// mid-frame would discard the consumed bytes and permanently
/// desynchronize the stream (later payload bytes would be parsed as
/// length prefixes). `cancelled` is consulted on each mid-frame
/// timeout; when it returns `true` the timeout error is surfaced — the
/// stream is no longer frame-aligned at that point, so the caller must
/// drop the connection rather than read from it again.
pub fn read_frame_or_cancel(
    r: &mut impl std::io::Read,
    mut cancelled: impl FnMut() -> bool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_poll_timeout(&e) => {
                if got == 0 || cancelled() {
                    return Err(e.into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_poll_timeout(&e) => {
                if cancelled() {
                    return Err(e.into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    // FNV-1a 64-bit: deterministic across runs and platforms, which is
    // what lets a warm-start cache key survive a server restart.
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds `bytes` into an in-progress FNV-1a fingerprint — the
/// extension point for callers that must mix additional identity into
/// a [`problem_fingerprint`] base (e.g. the serve layer folds each
/// factor's proximal-operator encoding in, because two problems with
/// identical structure but different objectives must not share a
/// warm-start cache key).
pub fn fingerprint_fold(hash: &mut u64, bytes: &[u8]) {
    fnv1a(hash, bytes);
}

/// Deterministic 64-bit fingerprint of a problem's shape and weights:
/// `dims`, variable count, factor offsets, edge targets, and the ρ/α
/// vectors bit-for-bit — the same identity `crate::shard`'s rebuild
/// detection compares field-by-field, folded into one key.
///
/// This hashes *structure only*: the proximal operators (the
/// objectives) live outside this crate and are not covered, so two
/// problems sharing a fingerprint are guaranteed shape-compatible but
/// not equal. Callers keying caches on problem identity must fold the
/// operator encodings in via [`fingerprint_fold`] (the serve crate's
/// `request_fingerprint` does exactly that).
pub fn problem_fingerprint(graph: &FactorGraph, params: &EdgeParams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    for dim in [
        graph.dims() as u64,
        graph.num_vars() as u64,
        graph.num_factors() as u64,
        graph.num_edges() as u64,
    ] {
        fnv1a(&mut h, &dim.to_le_bytes());
    }
    for a in graph.factors() {
        fnv1a(
            &mut h,
            &(graph.factor_edge_range(a).start as u32).to_le_bytes(),
        );
    }
    for e in graph.edges() {
        fnv1a(&mut h, &graph.edge_var(e).0.to_le_bytes());
    }
    for &r in &params.rho {
        fnv1a(&mut h, &r.to_bits().to_le_bytes());
    }
    for &a in &params.alpha {
        fnv1a(&mut h, &a.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> FactorGraph {
        let mut b = GraphBuilder::new(3);
        let vs = b.add_vars(4);
        b.add_factor(&[vs[0], vs[1], vs[2]]);
        b.add_factor(&[vs[1], vs[3]]);
        b.add_factor(&[vs[3]]);
        b.build()
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let back = decode_graph(&buf).unwrap();
        assert_eq!(back.dims(), g.dims());
        assert_eq!(back.num_edges(), g.num_edges());
        for e in g.edges() {
            assert_eq!(back.edge_var(e), g.edge_var(e));
        }
        for a in g.factors() {
            assert_eq!(back.factor_edge_range(a), g.factor_edge_range(a));
        }
    }

    #[test]
    fn header_and_store_length_match_the_encoders() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let header = decode_graph_header(&buf).unwrap();
        assert_eq!(
            header,
            GraphHeader {
                dims: 3,
                num_vars: 4,
                num_factors: 3,
                num_edges: 6
            }
        );
        assert_eq!(
            decode_graph_header(&buf[..GRAPH_HEADER_LEN - 1]),
            Err(IoError::Truncated)
        );
        buf.clear();
        encode_store(&VarStore::zeros(&g), &mut buf);
        assert_eq!(encoded_store_len(3, 6, 4), Some(buf.len()));
        assert_eq!(encoded_store_len(usize::MAX / 2, 1, 1), None);
    }

    #[test]
    fn params_roundtrip() {
        let g = sample();
        let mut p = EdgeParams::uniform(&g, 2.0, 0.7);
        p.rho[1] = 5.0;
        let mut buf = Vec::new();
        encode_params(&p, &mut buf);
        let back = decode_params(&buf, &g).unwrap();
        assert_eq!(back.rho, p.rho);
        assert_eq!(back.alpha, p.alpha);
    }

    #[test]
    fn store_roundtrip() {
        let g = sample();
        let mut s = VarStore::zeros(&g);
        for (i, v) in s.x.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        s.z[2] = -3.25;
        let mut buf = Vec::new();
        encode_store(&s, &mut buf);
        let back = decode_store(&buf, &g).unwrap();
        assert_eq!(back.x, s.x);
        assert_eq!(back.z, s.z);
        assert_eq!(back.z_prev, s.z_prev);
    }

    #[test]
    fn bad_magic_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        buf[0] = b'X';
        assert!(matches!(decode_graph(&buf), Err(IoError::BadHeader)));
    }

    #[test]
    fn truncation_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        for cut in [0usize, 4, 10, buf.len() - 1] {
            assert!(decode_graph(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_edge_target_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        // Overwrite the last edge's variable id with an out-of-range one.
        let len = buf.len();
        buf[len - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(decode_graph(&buf), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn params_shape_mismatch_rejected() {
        let g = sample();
        let p = EdgeParams::uniform(&g, 1.0, 1.0);
        let mut buf = Vec::new();
        encode_params(&p, &mut buf);
        // Decode against a graph with a different edge count.
        let mut b2 = GraphBuilder::new(3);
        let v = b2.add_var();
        b2.add_factor(&[v]);
        let g2 = b2.build();
        assert!(matches!(decode_params(&buf, &g2), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn frame_roundtrip_multiple_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third frame").unwrap();
        let mut r: &[u8] = &wire;
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"third frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_truncation_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Cut inside the prefix and inside the payload: both must fail
        // (not report clean EOF); a cut at zero is the clean EOF.
        for cut in [1usize, 3, 4, wire.len() - 1] {
            let mut r: &[u8] = &wire[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    /// Writer that records what each `write` / `write_vectored` call
    /// accepted, taking at most `cap` bytes per call — a socket whose
    /// send buffer has `cap` bytes free.
    struct CallLog {
        calls: Vec<Vec<u8>>,
        cap: usize,
    }

    impl CallLog {
        fn accepting(cap: usize) -> Self {
            CallLog {
                calls: Vec::new(),
                cap,
            }
        }
    }

    impl std::io::Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let mut call = Vec::new();
            for buf in bufs {
                let room = self.cap - call.len();
                call.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            let accepted = call.len();
            self.calls.push(call);
            Ok(accepted)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// The encoding `write_frame` had when it issued two writes.
    fn prefix_then_payload(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn frame_prefix_never_travels_alone() {
        const SOCKET_ROOM: usize = 16 << 10;
        for len in [0usize, 1, 4092, 4096, 65_536, 1 << 20] {
            let payload = patterned(len);
            let wire = prefix_then_payload(&payload);

            // A writer that takes whatever it is offered sees the whole
            // frame in one call.
            let mut w = CallLog::accepting(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls.len(), 1, "len {len}");
            assert_eq!(w.calls[0], wire, "len {len}");

            // One with 16 KiB of room gets the prefix and the first
            // payload bytes together, and a frame that fits is one call.
            let mut w = CallLog::accepting(SOCKET_ROOM);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls[0].len(), wire.len().min(SOCKET_ROOM), "len {len}");
            assert_eq!(w.calls.len(), wire.len().div_ceil(SOCKET_ROOM), "len {len}");
            assert_eq!(w.calls.concat(), wire, "len {len}");
        }
    }

    #[test]
    fn frame_survives_partial_writes() {
        for len in [0usize, 1, 5, 4092, 4096] {
            let payload = patterned(len);
            let wire = prefix_then_payload(&payload);
            for k in [1usize, 3, 7] {
                let mut w = CallLog::accepting(k);
                write_frame(&mut w, &payload).unwrap();
                assert_eq!(w.calls.concat(), wire, "len {len}, {k} bytes per call");
                assert!(w.calls.iter().all(|c| c.len() <= k));
            }
        }
    }

    /// Writer without a `write_vectored` of its own: std's default hands
    /// it the first non-empty slice of each call.
    struct PlainWriter(Vec<u8>);

    impl std::io::Write for PlainWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_stream_is_the_same_through_a_non_vectored_writer() {
        for len in [0usize, 1, 4096] {
            let payload = patterned(len);
            let mut w = PlainWriter(Vec::new());
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.0, prefix_then_payload(&payload), "len {len}");
        }
    }

    #[test]
    fn frame_write_stalled_at_zero_is_an_error() {
        let mut w = CallLog::accepting(0);
        assert!(matches!(
            write_frame(&mut w, b"payload"),
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WriteZero
        ));
    }

    #[test]
    fn oversized_payload_refused_before_any_write() {
        // Zeroed pages are never touched: the length check comes first.
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut w = CallLog::accepting(usize::MAX);
        assert!(matches!(
            write_frame(&mut w, &payload),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
        assert!(w.calls.is_empty(), "stream stays frame-aligned");
        // The cap itself is a legal length, and the writer is still usable.
        write_frame(&mut w, b"next").unwrap();
        assert_eq!(w.calls.concat(), prefix_then_payload(b"next"));
    }

    /// Reader that yields `wire` one byte at a time, erroring with
    /// `WouldBlock` before every byte — a worst-case slow peer whose
    /// segments always straddle the poll timeout.
    struct StallingReader {
        wire: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            if self.pos == self.wire.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.wire[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn mid_frame_timeouts_do_not_desync_the_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow frame").unwrap();
        write_frame(&mut wire, b"next").unwrap();
        let mut r = StallingReader {
            wire,
            pos: 0,
            ready: false,
        };
        // The first read of each frame hits WouldBlock with no bytes
        // consumed: that is the between-frames poll point and must
        // surface. Every later timeout lands mid-frame and must retry.
        assert!(matches!(
            read_frame_or_cancel(&mut r, || false),
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        assert_eq!(
            read_frame_or_cancel(&mut r, || false).unwrap().unwrap(),
            b"slow frame"
        );
        assert!(matches!(
            read_frame_or_cancel(&mut r, || false),
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        assert_eq!(
            read_frame_or_cancel(&mut r, || false).unwrap().unwrap(),
            b"next"
        );
    }

    #[test]
    fn mid_frame_cancel_surfaces_the_timeout() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"never finishes").unwrap();
        let mut r = StallingReader {
            wire,
            pos: 0,
            ready: true, // first byte succeeds, so we are mid-frame
        };
        let mut polls = 0u32;
        let result = read_frame_or_cancel(&mut r, || {
            polls += 1;
            polls > 3
        });
        assert!(matches!(
            result,
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        assert_eq!(polls, 4, "retried until the cancel hook fired");
    }

    #[test]
    fn frame_oversized_length_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        let mut r: &[u8] = &wire;
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn fingerprint_keys_shape_and_weights() {
        let g = sample();
        let p = EdgeParams::uniform(&g, 2.0, 0.7);
        let base = problem_fingerprint(&g, &p);
        assert_eq!(base, problem_fingerprint(&g, &p), "deterministic");

        // Same shape, different weights → different key.
        let mut p2 = EdgeParams::uniform(&g, 2.0, 0.7);
        p2.rho[0] = 3.0;
        assert_ne!(base, problem_fingerprint(&g, &p2));

        // Different wiring, same counts → different key.
        let mut b = GraphBuilder::new(3);
        let vs = b.add_vars(4);
        b.add_factor(&[vs[0], vs[1], vs[3]]); // vs[3] instead of vs[2]
        b.add_factor(&[vs[1], vs[3]]);
        b.add_factor(&[vs[3]]);
        let g2 = b.build();
        let p3 = EdgeParams::uniform(&g2, 2.0, 0.7);
        assert_ne!(base, problem_fingerprint(&g2, &p3));
    }

    #[test]
    fn store_shape_mismatch_rejected() {
        let g = sample();
        let s = VarStore::zeros(&g);
        let mut buf = Vec::new();
        encode_store(&s, &mut buf);
        let mut b2 = GraphBuilder::new(2);
        let v = b2.add_var();
        b2.add_factor(&[v]);
        let g2 = b2.build();
        assert!(matches!(decode_store(&buf, &g2), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn truncated_store_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        encode_store(&VarStore::zeros(&g), &mut buf);
        for cut in [0, 11, 12, 13, buf.len() - 8, buf.len() - 1] {
            assert!(
                matches!(decode_store(&buf[..cut], &g), Err(IoError::Truncated)),
                "cut at {cut}"
            );
        }
        assert!(decode_store(&buf, &g).is_ok());
    }
}
