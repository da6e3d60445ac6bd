//! Blocking TCP client for the solve service.
//!
//! [`ServeClient`] supports pipelining: [`ServeClient::submit`] several
//! requests without waiting, then collect results with
//! [`ServeClient::recv_any`] / [`ServeClient::recv`] — responses may
//! arrive out of submission order (that is the point of continuous
//! batching: fast requests retire past slow ones). The client retains
//! each request's graph until its response arrives, because decoding
//! the response's store requires the graph shape.

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};

use paradmm_core::SolveRequest;
use paradmm_graph::io::{read_frame, write_frame, FrameError};
use paradmm_graph::FactorGraph;

use crate::protocol::{decode_response, encode_request, response_id, ServedOutcome, WireError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level framing failure.
    Frame(FrameError),
    /// The response payload failed to decode.
    Wire(WireError),
    /// The request could not be encoded (closure-backed prox).
    Encode(String),
    /// The server reported a request-level error.
    Server(String),
    /// The server closed the connection.
    Disconnected,
    /// A response arrived for an id this client never submitted (or
    /// already consumed).
    UnknownResponse(u64),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Encode(m) => write!(f, "cannot encode request: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnknownResponse(id) => write!(f, "unexpected response id {id}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to a solve server.
pub struct ServeClient {
    stream: TcpStream,
    /// Graph of every in-flight request, keyed by wire id (needed to
    /// decode the response store).
    graphs: HashMap<u64, FactorGraph>,
    /// Responses read while waiting for a different id.
    ready: Vec<(u64, Result<ServedOutcome, String>)>,
    next_id: u64,
}

impl ServeClient {
    /// Connects to a server. The socket runs with `TCP_NODELAY`: every
    /// request is one whole frame, and with Nagle on it could wait for
    /// the server's delayed ACK of the frame before it.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            graphs: HashMap::new(),
            ready: Vec::new(),
            next_id: 0,
        })
    }

    /// Requests submitted but not yet received.
    pub fn in_flight(&self) -> usize {
        self.graphs.len() + self.ready.len()
    }

    /// Sends `request` without waiting for the result; returns the wire
    /// id to pass to [`ServeClient::recv`]. `use_cache` lets the server
    /// seed the solve from its warm-start cache.
    pub fn submit(&mut self, request: &SolveRequest, use_cache: bool) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let payload = encode_request(id, request, use_cache).map_err(ClientError::Encode)?;
        write_frame(&mut self.stream, &payload)?;
        self.graphs.insert(id, request.problem().graph().clone());
        Ok(id)
    }

    /// Blocks for the next response, whichever request it answers.
    pub fn recv_any(&mut self) -> Result<(u64, Result<ServedOutcome, String>), ClientError> {
        if !self.ready.is_empty() {
            return Ok(self.ready.remove(0));
        }
        let payload = read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
        let id = response_id(&payload)?;
        // Error responses (including server-level bad-request reports)
        // carry no store, so a missing graph is only fatal for an OK
        // response — decode_response enforces that.
        let graph = self.graphs.remove(&id);
        let (id, result) = decode_response(&payload, graph.as_ref())?;
        Ok((id, result))
    }

    /// Blocks until the response for `id` arrives, buffering any other
    /// responses read along the way for later [`ServeClient::recv_any`]
    /// / [`ServeClient::recv`] calls.
    pub fn recv(&mut self, id: u64) -> Result<ServedOutcome, ClientError> {
        if let Some(pos) = self.ready.iter().position(|(rid, _)| *rid == id) {
            let (_, result) = self.ready.remove(pos);
            return result.map_err(ClientError::Server);
        }
        loop {
            let payload = read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
            let rid = response_id(&payload)?;
            let graph = self.graphs.remove(&rid);
            let (rid, result) = decode_response(&payload, graph.as_ref())?;
            if rid == id {
                return result.map_err(ClientError::Server);
            }
            self.ready.push((rid, result));
        }
    }

    /// Submit-and-wait convenience for a single request.
    pub fn solve(
        &mut self,
        request: &SolveRequest,
        use_cache: bool,
    ) -> Result<ServedOutcome, ClientError> {
        let id = self.submit(request, use_cache)?;
        self.recv(id)
    }
}
