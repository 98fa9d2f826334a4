//! A TCP node: listener, per-peer connection pool, reader threads.
//!
//! One [`SocketNode`] serves a whole process, whichever PISA roles it
//! hosts. Outbound routes come from two places:
//!
//! * **dialed peers** — static addresses registered with
//!   [`add_peer`](SocketNode::add_peer), connected lazily with capped
//!   exponential backoff and redialed once after a write failure;
//! * **learned routes** — every inbound data frame maps its `from`
//!   party to the connection it arrived on, so servers reply to clients
//!   without any static configuration (latest connection wins).
//!
//! Each live connection has exactly one reader thread deframing with a
//! [`FrameBuffer`] and pushing decoded messages onto the node's inbound
//! queue; writes from any thread serialize on a per-connection mutex.
//! Shutdown is in-band (a control frame), so a remote operator can
//! drain a fleet gracefully: the accept loop polls a stop flag, reader
//! threads wake on their read timeout and exit.

use super::faults::SocketFaults;
use super::frame::{
    decode_envelope, encode_envelope, write_frame, FrameBuffer, FrameCodec, FrameKind,
    ENVELOPE_HEADER_BYTES,
};
use super::{SocketConfig, SocketError};
use crate::metrics::NetMetrics;
use crate::party::{Envelope, Party};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a node's inbound queue yields.
#[derive(Debug)]
pub enum SocketEvent<M> {
    /// A decoded protocol message.
    Frame(Envelope<M>),
    /// A peer asked this node to shut down gracefully.
    Shutdown(Party),
}

/// A pooled write handle onto one TCP connection.
#[derive(Clone)]
struct Conn {
    stream: Arc<Mutex<TcpStream>>,
}

struct NodeInner<M> {
    party: Party,
    cfg: SocketConfig,
    metrics: NetMetrics,
    faults: Option<Arc<SocketFaults>>,
    /// Write halves by party: learned from inbound frames or dialed.
    routes: Mutex<HashMap<Party, Conn>>,
    /// Static dial addresses for peers this node initiates to.
    peers: Mutex<HashMap<Party, String>>,
    inbound_tx: Sender<SocketEvent<M>>,
    inbound_rx: Receiver<SocketEvent<M>>,
    stop: AtomicBool,
    local_addr: Mutex<Option<SocketAddr>>,
}

/// One process's handle onto the PISA TCP fabric. Cheap to clone; all
/// clones share the pool, metrics and inbound queue.
pub struct SocketNode<M> {
    inner: Arc<NodeInner<M>>,
}

impl<M> Clone for SocketNode<M> {
    fn clone(&self) -> Self {
        SocketNode {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> std::fmt::Debug for SocketNode<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SocketNode({})", self.inner.party)
    }
}

impl<M: FrameCodec + Send + 'static> SocketNode<M> {
    /// A node identified as `party`, with optional fault injection on
    /// its outbound traffic.
    pub fn new(
        party: Party,
        cfg: SocketConfig,
        metrics: NetMetrics,
        faults: Option<Arc<SocketFaults>>,
    ) -> Self {
        let (inbound_tx, inbound_rx) = unbounded();
        SocketNode {
            inner: Arc::new(NodeInner {
                party,
                cfg,
                metrics,
                faults,
                routes: Mutex::new(HashMap::new()),
                peers: Mutex::new(HashMap::new()),
                inbound_tx,
                inbound_rx,
                stop: AtomicBool::new(false),
                local_addr: Mutex::new(None),
            }),
        }
    }

    /// This node's own address.
    pub fn party(&self) -> Party {
        self.inner.party
    }

    /// The shared traffic metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.inner.metrics
    }

    /// The fault pipeline, if one is installed.
    pub fn faults(&self) -> Option<&SocketFaults> {
        self.inner.faults.as_deref()
    }

    /// The bound listen address, once [`bind`](Self::bind) succeeded.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        *self.inner.local_addr.lock()
    }

    /// `true` once [`stop`](Self::stop) was called or a shutdown frame
    /// was processed by a service loop that called it.
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Registers the dial address for a peer this node initiates to.
    pub fn add_peer(&self, party: Party, addr: impl Into<String>) {
        self.inner.peers.lock().insert(party, addr.into());
    }

    /// Binds a listener and spawns the accept loop.
    ///
    /// Accepted connections get a reader thread each; their sender
    /// parties become reply routes as frames arrive.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding.
    pub fn bind(&self, addr: &str) -> Result<SocketAddr, SocketError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        *self.inner.local_addr.lock() = Some(local);
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || accept_loop(&inner, &listener));
        Ok(local)
    }

    /// Sends `msg` from `from` to `to`, running outbound faults.
    ///
    /// A process may host many parties (e.g. 16 SU sessions pooled over
    /// one connection), so the sender address is explicit.
    ///
    /// # Errors
    ///
    /// [`SocketError::NoRoute`] if `to` is neither a registered peer
    /// nor a learned route, codec errors from encoding, or the I/O
    /// error after a failed write + redial.
    pub fn send_from(&self, from: Party, to: Party, msg: &M) -> Result<(), SocketError> {
        let payload = msg.encode_frame()?;
        let frame = encode_envelope(FrameKind::Data, from, to, &payload);
        let frames = match &self.inner.faults {
            Some(faults) => faults.apply(from, to, frame, &|bytes: &[u8]| {
                M::decode_frame(bytes).is_ok()
            }),
            None => vec![frame],
        };
        for frame in frames {
            let payload_bytes = frame.len().saturating_sub(ENVELOPE_HEADER_BYTES);
            self.write_to(to, &frame)?;
            self.inner.metrics.record(from, to, payload_bytes);
        }
        Ok(())
    }

    /// Sends an in-band shutdown request to `to` (bypasses faults:
    /// control frames must not be dropped by chaos knobs).
    ///
    /// # Errors
    ///
    /// Same as [`send_from`](Self::send_from).
    pub fn send_shutdown(&self, to: Party) -> Result<(), SocketError> {
        let frame = encode_envelope(FrameKind::Shutdown, self.inner.party, to, &[]);
        self.write_to(to, &frame)
    }

    /// Receives the next inbound event, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<SocketEvent<M>> {
        self.inner.inbound_rx.recv_timeout(timeout).ok()
    }

    /// Asks the accept loop and every reader thread to wind down (they
    /// notice within one read-poll interval).
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    fn write_to(&self, to: Party, frame: &[u8]) -> Result<(), SocketError> {
        let conn = self.route_or_dial(to)?;
        let first = {
            let _span = pisa_obs::span("net.write");
            let mut stream = conn.stream.lock();
            // pisa-lint: allow(blocking-call): the mutex exists to serialize frame writes; the write is bounded by cfg.write_timeout set on every stream at dial/accept
            write_frame(&mut *stream, frame, self.inner.cfg.max_frame)
        };
        let Err(err) = first else {
            return Ok(());
        };
        // One redial for dialed peers; learned routes cannot be redialed
        // (the peer connects to us), so the failure surfaces and the
        // protocol's retry budget covers the lost frame.
        self.inner.routes.lock().remove(&to);
        if !self.inner.peers.lock().contains_key(&to) {
            return Err(err);
        }
        let conn = self.route_or_dial(to)?;
        let _span = pisa_obs::span("net.write");
        let mut stream = conn.stream.lock();
        // pisa-lint: allow(blocking-call): same as above — bounded by cfg.write_timeout on the redialed stream
        write_frame(&mut *stream, frame, self.inner.cfg.max_frame)
    }

    fn route_or_dial(&self, to: Party) -> Result<Conn, SocketError> {
        if let Some(conn) = self.inner.routes.lock().get(&to) {
            return Ok(conn.clone());
        }
        let addr = self
            .inner
            .peers
            .lock()
            .get(&to)
            .cloned()
            .ok_or(SocketError::NoRoute(to))?;
        let stream = self.dial(&addr)?;
        let conn = Conn {
            stream: Arc::new(Mutex::new(stream.try_clone()?)),
        };
        // Replies to a dialed peer come back on the same connection, so
        // it needs a reader thread just like an accepted one.
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || reader_loop(&inner, stream));
        self.inner.routes.lock().insert(to, conn.clone());
        Ok(conn)
    }

    fn dial(&self, addr: &str) -> Result<TcpStream, SocketError> {
        let cfg = &self.inner.cfg;
        let mut last = SocketError::Io(std::io::ErrorKind::NotConnected);
        for attempt in 0..cfg.connect_attempts.max(1) {
            if self.stopping() {
                return Err(SocketError::Stopped);
            }
            let _span = pisa_obs::span("net.connect");
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(cfg.read_poll))?;
                    stream.set_write_timeout(Some(cfg.write_timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = SocketError::from(e),
            }
            let shift = attempt.min(4);
            std::thread::sleep(cfg.connect_backoff * (1 << shift));
        }
        Err(last)
    }
}

fn accept_loop<M: FrameCodec + Send + 'static>(inner: &Arc<NodeInner<M>>, listener: &TcpListener) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _span = pisa_obs::span("net.accept");
                // The listener is non-blocking; accepted streams must
                // block (with a poll timeout) for the reader thread.
                let ready = stream.set_nonblocking(false).is_ok()
                    && stream.set_nodelay(true).is_ok()
                    && stream.set_read_timeout(Some(inner.cfg.read_poll)).is_ok()
                    && stream
                        .set_write_timeout(Some(inner.cfg.write_timeout))
                        .is_ok();
                if !ready {
                    continue;
                }
                let inner = Arc::clone(inner);
                std::thread::spawn(move || reader_loop(&inner, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(inner.cfg.accept_poll);
            }
            Err(_) => std::thread::sleep(inner.cfg.accept_poll),
        }
    }
}

/// Deframes one connection until EOF, error, or node stop. Every data
/// frame learns a reply route and lands on the inbound queue; frames
/// whose payload fails to decode are discarded (genuine wire damage —
/// injected corruption is classified on the sender side).
fn reader_loop<M: FrameCodec + Send + 'static>(inner: &Arc<NodeInner<M>>, mut stream: TcpStream) {
    let write_half = match stream.try_clone() {
        Ok(clone) => Conn {
            stream: Arc::new(Mutex::new(clone)),
        },
        Err(_) => return,
    };
    let mut fb = FrameBuffer::new(inner.cfg.max_frame);
    let mut chunk = vec![0u8; inner.cfg.read_chunk.max(1)];
    while !inner.stop.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let _span = pisa_obs::span("net.read");
        let Some(received) = chunk.get(..n) else {
            return;
        };
        fb.extend(received);
        loop {
            let frame = match fb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // Oversized prefix: the stream is poisoned, close it.
                Err(_) => return,
            };
            let Ok(env) = decode_envelope(&frame) else {
                continue;
            };
            match env.kind {
                FrameKind::Shutdown => {
                    let _ = inner.inbound_tx.send(SocketEvent::Shutdown(env.from));
                }
                FrameKind::Data => {
                    inner.routes.lock().insert(env.from, write_half.clone());
                    inner.metrics.record(env.from, env.to, env.payload.len());
                    let Ok(msg) = M::decode_frame(&env.payload) else {
                        continue;
                    };
                    let _ = inner.inbound_tx.send(SocketEvent::Frame(Envelope {
                        from: env.from,
                        to: env.to,
                        payload: msg,
                    }));
                }
            }
        }
    }
}
