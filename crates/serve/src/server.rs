//! The TCP solve server: an accept loop, per-connection reader/writer
//! threads, and one engine thread running the continuous-batching
//! [`Engine`].
//!
//! Connection readers decode request frames in parallel and push them
//! into a shared inbox; the engine thread drains the inbox *between
//! every scheduling step*, which is what lets a request arriving
//! mid-solve join the running batch at the next repack boundary.
//! Responses are routed back through per-connection writer channels, so
//! slow clients never block the engine.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use paradmm_graph::io::{read_frame_or_cancel, write_frame, FrameError};

use crate::engine::{Completion, Engine, EngineConfig, EngineRequest};
use crate::protocol::{decode_request, encode_response, response_id, ServedOutcome};

/// Server configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Engine tuning (mode, backend, batch size, cache).
    pub engine: EngineConfig,
}

/// How long blocked connection reads wait before re-checking the
/// shutdown flag. The timeout is only allowed to interrupt the stream
/// *between* frames — mid-frame it triggers a retry (or, during
/// shutdown, drops the connection) so a slow peer whose frame bytes
/// straddle the poll interval never desynchronizes the framing.
const READ_POLL: Duration = Duration::from_millis(50);

/// A decoded request plus the channel its response goes back on.
struct InboxItem {
    wire_id: u64,
    use_cache: bool,
    request: paradmm_core::SolveRequest,
    respond: Sender<Vec<u8>>,
}

struct Shared {
    inbox: Mutex<Vec<InboxItem>>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// A running solve server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the server threads running for
/// the life of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<Engine>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// accept loop plus the engine thread.
    pub fn spawn(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let readers = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || accept_loop(listener, shared, readers))
        };
        let engine = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || engine_loop(config.engine, shared))
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            engine: Some(engine),
            readers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the engine, joins every thread, and
    /// returns the final [`Engine`] (its stats and cache are useful to
    /// callers that want serving telemetry).
    pub fn shutdown(mut self) -> Engine {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let engine = self
            .engine
            .take()
            .expect("engine joined once")
            .join()
            .expect("engine thread does not panic");
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.readers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        engine
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || connection_loop(stream, shared));
        // Reap connections that already closed, so a long-running
        // server does not accumulate dead-thread handles unboundedly.
        let mut readers = readers.lock().unwrap();
        let mut live = Vec::with_capacity(readers.len() + 1);
        for h in readers.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        live.push(handle);
        *readers = live;
    }
}

/// Reads frames off one connection, decoding and enqueueing each
/// request; a paired writer thread drains the response channel.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Whole frames in, whole frames out: nothing for Nagle to coalesce,
    // and with it on a reply can sit behind the peer's delayed ACK. Set
    // before the clone so both halves carry it; like the read timeout, a
    // socket option that fails must not drop the connection.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || writer_loop(write_half, rx));

    let mut stream = stream;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Mid-frame poll timeouts retry inside read_frame_or_cancel
        // (aborting there would desync the stream); only a timeout at a
        // frame boundary — or one hit after shutdown began — comes back
        // as an error.
        match read_frame_or_cancel(&mut stream, || shared.shutdown.load(Ordering::SeqCst)) {
            Ok(Some(payload)) => match decode_request(&payload) {
                Ok(decoded) => {
                    let item = InboxItem {
                        wire_id: decoded.id,
                        use_cache: decoded.use_cache,
                        request: decoded.request,
                        respond: tx.clone(),
                    };
                    shared.inbox.lock().unwrap().push(item);
                    shared.wake.notify_all();
                }
                Err(e) => {
                    // The frame was well-delimited but undecodable:
                    // report and keep the connection (the stream is
                    // still frame-aligned).
                    let frame = encode_response(u64::MAX, &Err(format!("bad request: {e}")));
                    let _ = tx.send(frame);
                }
            },
            Ok(None) => break, // clean disconnect
            Err(FrameError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                continue; // poll the shutdown flag
            }
            Err(_) => break, // torn frame or transport error
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Drains one connection's response channel onto its socket until the
/// channel closes or the transport fails.
///
/// A reply too large to frame is refused by [`write_frame`] before any
/// byte is written, so the stream is still frame-aligned: that one
/// request is answered with an error reply under its own id and the
/// connection keeps serving.
fn writer_loop(mut stream: TcpStream, frames: Receiver<Vec<u8>>) {
    for frame in frames {
        let written = match write_frame(&mut stream, &frame) {
            Err(e @ FrameError::Oversized(_)) => {
                let id = response_id(&frame).unwrap_or(u64::MAX);
                let refusal = Err(format!("reply not sent: {e}"));
                write_frame(&mut stream, &encode_response(id, &refusal))
            }
            other => other,
        };
        if written.is_err() {
            break;
        }
    }
}

/// The engine thread: drain the inbox, step the engine, send
/// completions — repeat. Draining *between* steps is the continuous
/// part of continuous batching.
fn engine_loop(config: EngineConfig, shared: Arc<Shared>) -> Engine {
    let mut engine = Engine::new(config);
    // Engine-scoped unique ids: wire ids are client-chosen and can
    // collide across connections.
    let mut next_internal: u64 = 0;
    let mut routes: HashMap<u64, (u64, Sender<Vec<u8>>)> = HashMap::new();

    loop {
        let drained: Vec<InboxItem> = {
            let mut inbox = shared.inbox.lock().unwrap();
            while inbox.is_empty() && engine.is_idle() && !shared.shutdown.load(Ordering::SeqCst) {
                inbox = shared.wake.wait(inbox).unwrap();
            }
            std::mem::take(&mut *inbox)
        };
        if drained.is_empty() && engine.is_idle() && shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for item in drained {
            next_internal += 1;
            routes.insert(next_internal, (item.wire_id, item.respond));
            engine.submit(EngineRequest {
                id: next_internal,
                request: item.request,
                use_cache: item.use_cache,
            });
        }
        for completion in engine.step() {
            let Completion {
                id,
                outcome,
                lane,
                warm_started,
            } = completion;
            let Some((wire_id, respond)) = routes.remove(&id) else {
                continue;
            };
            let served = ServedOutcome {
                store: outcome.store,
                iterations: outcome.iterations,
                stop_reason: outcome.stop_reason,
                final_residuals: outcome.final_residuals,
                elapsed: outcome.elapsed,
                lane,
                warm_started,
            };
            // A send error just means the client went away.
            let _ = respond.send(encode_response(wire_id, &Ok(served)));
        }
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;
    use paradmm_graph::io::{read_frame, MAX_FRAME_LEN};

    #[test]
    fn oversized_reply_becomes_an_error_reply_and_the_connection_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (tx, rx) = channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || writer_loop(accepted, rx));

        // A reply to request 7 one byte over the cap. Only the page
        // holding the header is touched; the rest stays lazily zeroed.
        let head = encode_response(7, &Err(String::new()));
        let mut huge = vec![0u8; MAX_FRAME_LEN + 1];
        huge[..head.len()].copy_from_slice(&head);
        tx.send(huge).unwrap();
        tx.send(encode_response(8, &Err("next".to_string())))
            .unwrap();

        let reply = read_frame(&mut client).unwrap().expect("refusal");
        let (id, result) = decode_response(&reply, None).unwrap();
        assert_eq!(id, 7, "the refusal answers the request it replaces");
        let message = result.unwrap_err();
        assert!(message.contains("exceeds cap"), "{message}");

        // Nothing of the refused frame reached the wire: the next reply
        // parses from the very next byte.
        let reply = read_frame(&mut client).unwrap().expect("next reply");
        let (id, result) = decode_response(&reply, None).unwrap();
        assert_eq!((id, result.unwrap_err().as_str()), (8, "next"));

        drop(tx);
        writer.join().expect("writer thread does not panic");
        assert!(read_frame(&mut client).unwrap().is_none(), "clean close");
    }
}
