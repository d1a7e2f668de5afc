//! The TCP front end: a thread-per-connection accept loop in front of a
//! shared [`CompileService`].
//!
//! Each accepted connection gets its own thread and its own
//! [`StreamSession`] on the service, so the wire
//! surface inherits the in-process contracts verbatim: byte-deterministic
//! cached artifacts, singleflight dedup across connections (two sockets
//! asking for the same key still perform one compile), and the
//! [`Backpressure`][crate::Backpressure] policy — a shed submission comes
//! back as a structured `overloaded` frame carrying queue depth and a
//! retry-after hint, never a closed socket.
//!
//! The connection loop is a single thread that answers each request as
//! soon as its answer exists:
//!
//! 1. **Cache hits inline.** A request whose artifact is cached is probed,
//!    encoded and written on the connection thread, never queued for the
//!    worker pool — so a hit is never shed and may overtake compiles the
//!    same connection has in flight.
//! 2. **Misses woken by the reply.** A miss goes to the pool. While the
//!    session owes a response, no partial frame is buffered and nothing
//!    waits on the socket, the thread parks on the session's reply
//!    channel, so a finished compile is written the moment it lands.
//!    Otherwise it reads the socket, enforcing the per-frame read
//!    deadline (a half-written header that stalls past
//!    [`ServerConfig::read_timeout`] is closed with a diagnosis, so a
//!    slowloris client costs one connection thread for one deadline, not
//!    a worker).
//!
//! Neither wait outlasts [`ServerConfig::tick`]; between waits the loop
//! honors the drain/goodbye state machine.
//!
//! **Graceful drain** ([`NetServer::shutdown`]): stop accepting (late
//! connections get a goodbye frame, then the listener closes so further
//! connects are refused outright), refuse new requests on live
//! connections with a `draining` error, deliver every response already
//! accepted, close each connection with a goodbye frame carrying its
//! served count, and join every thread — accept loop and all connection
//! threads — before returning. Nothing is detached.

use crate::metrics::{Metrics, NetCounters};
use crate::proto::{
    self, Frame, FrameKind, FramePoll, FrameReader, ProtoError, WireRequest, WireWarmupRequest,
};
use crate::service::{CompileService, StreamSession};
use crate::types::{CompileResponse, ServeError};
use crate::warmup;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-frame completion deadline: a frame whose first byte has
    /// arrived must complete within this window or the connection is
    /// closed with a `protocol` diagnosis (the slow-client defense). An
    /// *idle* connection — no partial frame pending — is never timed out.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops reading while the
    /// server flushes responses is disconnected instead of wedging the
    /// connection thread.
    pub write_timeout: Duration,
    /// The longest the connection loop waits in one place: on the socket
    /// (its read-timeout) or on the reply channel. Responses never wait
    /// for it. It bounds how stale the drain flag can get, how often the
    /// per-frame deadline is checked, and how long a request that
    /// arrives while a compile is awaited sits unread.
    pub tick: Duration,
    /// How this server identifies itself in wire-level stats answers
    /// (the [`BackendStats`][crate::types::BackendStats] envelope). Empty
    /// means "use the listen address" — resolved once at bind, so an
    /// ephemeral port 0 stamps the *actual* port. Behind a
    /// [`Router`][crate::router::Router] this is what tells N otherwise
    /// identical backends apart.
    pub identity: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            tick: Duration::from_millis(20),
            identity: String::new(),
        }
    }
}

/// A serde-able snapshot of the connection-level counters — the network
/// analogue of [`crate::ServeStats`] (which keeps counting *requests*
/// underneath this layer, unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Connections the accept loop admitted.
    pub accepted: u64,
    /// Connections turned away at accept time during a drain.
    pub denied: u64,
    /// Connections closed by a protocol violation.
    pub proto_errors: u64,
    /// Connections closed by the per-frame read deadline.
    pub slow_timeouts: u64,
    /// Connections whose peer vanished without a goodbye.
    pub disconnects: u64,
    /// Connections closed gracefully with a server goodbye frame.
    pub goodbyes: u64,
}

/// What a completed [`NetServer::shutdown`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Connection threads joined by the drain (every one that was ever
    /// accepted and had not already been reaped).
    pub connections_joined: usize,
    /// Final connection-level counters at the moment the drain finished.
    pub net: NetStats,
}

/// Where the drain's self-wake connect stands, from the accept loop's
/// point of view. Written by [`NetServer::drain`], read by the accept
/// loop to tell the wake apart from a real client racing the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeMark {
    /// No drain wake has been attempted yet.
    NotYet,
    /// The wake connect succeeded from this local address; an accepted
    /// connection whose peer matches it is the wake, not a client.
    Addr(SocketAddr),
    /// The wake was attempted but its address is unknowable (connect
    /// failed, or the OS would not report the local address). Whatever
    /// the acceptor sees next is treated as a real client — the pre-fix
    /// behavior, kept only for this unreachable-in-practice corner.
    Unknown,
}

#[derive(Debug)]
struct Shared {
    service: Arc<CompileService>,
    config: ServerConfig,
    identity: String,
    draining: AtomicBool,
    wake: Mutex<WakeMark>,
    net: NetCounters,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn net_stats(&self) -> NetStats {
        NetStats {
            accepted: self.net.accepted.load(Ordering::Relaxed),
            denied: self.net.denied.load(Ordering::Relaxed),
            proto_errors: self.net.proto_errors.load(Ordering::Relaxed),
            slow_timeouts: self.net.slow_timeouts.load(Ordering::Relaxed),
            disconnects: self.net.disconnects.load(Ordering::Relaxed),
            goodbyes: self.net.goodbyes.load(Ordering::Relaxed),
        }
    }
}

/// A TCP compile server over one shared [`CompileService`].
///
/// ```no_run
/// use qft_serve::{CompileRequest, CompileService, NetClient, NetServer};
/// use std::sync::Arc;
///
/// let service = Arc::new(CompileService::new());
/// let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// let resp = client.request(&CompileRequest::new("lnn", "lnn:8")).unwrap();
/// assert_eq!(resp.result.n, 8);
/// let summary = server.shutdown();
/// assert_eq!(summary.net.goodbyes, 1);
/// ```
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop over `service` with the default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<CompileService>) -> io::Result<NetServer> {
        NetServer::bind_with(addr, service, ServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit timeouts.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<CompileService>,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let identity = if config.identity.is_empty() {
            local_addr.to_string()
        } else {
            config.identity.clone()
        };
        let shared = Arc::new(Shared {
            service,
            config,
            identity,
            draining: AtomicBool::new(false),
            wake: Mutex::new(WakeMark::NotYet),
            net: NetCounters::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("qft-net-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))
            .expect("spawn qft-net accept loop");
        Ok(NetServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is actually listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The identity this server stamps on wire-level stats answers:
    /// [`ServerConfig::identity`], or the listen address when that was
    /// left empty.
    pub fn identity(&self) -> &str {
        &self.shared.identity
    }

    /// The service behind this front end — the same instance every
    /// connection compiles through, so in-process
    /// [`CompileService::stats`] and the wire-level `stats` frame read
    /// the same counters.
    pub fn service(&self) -> &Arc<CompileService> {
        &self.shared.service
    }

    /// A snapshot of the connection-level counters.
    pub fn net_stats(&self) -> NetStats {
        self.shared.net_stats()
    }

    /// Whether a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, let every live connection deliver
    /// its in-flight responses and close with a goodbye frame, join the
    /// accept loop and every connection thread, then return. Blocks
    /// until the drain completes.
    pub fn shutdown(mut self) -> DrainSummary {
        self.drain()
    }

    fn drain(&mut self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the (blocking) acceptor and publish the wake's local
            // address first, so the accept loop can tell this connect
            // apart from a real client racing the drain: the wake is
            // internal plumbing and must not count as `denied`. (The
            // loop exits after one draining accept either way, dropping
            // the listener so later connects are refused at the OS
            // level.)
            let wake = match TcpStream::connect(self.local_addr) {
                Ok(stream) => stream
                    .local_addr()
                    .map(WakeMark::Addr)
                    .unwrap_or(WakeMark::Unknown),
                Err(_) => WakeMark::Unknown,
            };
            *self.shared.wake.lock().expect("wake mutex") = wake;
            let _ = accept.join();
        }
        let conns: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.shared.conns.lock().expect("conns mutex"));
        let connections_joined = conns.len();
        for handle in conns {
            let _ = handle.join();
        }
        DrainSummary {
            connections_joined,
            net: self.shared.net_stats(),
        }
    }
}

impl Drop for NetServer {
    /// A dropped server drains exactly like [`NetServer::shutdown`] —
    /// no detached accept loop or connection threads survive it.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.draining.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // Either the drain's own wake-up connect or a real client
            // racing the drain. The drain publishes the wake's local
            // address right after connecting, so wait for the mark
            // (briefly — the publish races the accept by microseconds)
            // and compare peers: only a *real* client counts as denied,
            // and it is told why, not reset.
            let wake = {
                let deadline = std::time::Instant::now() + Duration::from_secs(2);
                loop {
                    match *shared.wake.lock().expect("wake mutex") {
                        WakeMark::NotYet if std::time::Instant::now() < deadline => {
                            std::thread::yield_now();
                        }
                        mark => break mark,
                    }
                }
            };
            let is_wake = match (wake, stream.peer_addr()) {
                (WakeMark::Addr(wake_addr), Ok(peer)) => peer == wake_addr,
                _ => false,
            };
            if !is_wake {
                Metrics::bump(&shared.net.denied);
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                let _ = proto::write_frame(
                    &mut &stream,
                    &Frame::goodbye(
                        "server is draining: connection refused before any request",
                        0,
                    ),
                );
            }
            break;
        }
        Metrics::bump(&shared.net.accepted);
        let mut conns = shared.conns.lock().expect("conns mutex");
        conns.retain(|h| !h.is_finished());
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("qft-net-conn-{conn_id}"))
            .spawn(move || {
                // Errors were already reported to the peer as frames where
                // the stream allowed; the counters are the server-side
                // record, so the accept loop has nothing left to do.
                let _ = serve_connection(&conn_shared, &stream);
            })
            .expect("spawn qft-net connection thread");
        conns.push(handle);
        drop(conns);
        conn_id += 1;
    }
    // Listener drops here: post-drain connects are refused by the OS.
}

/// One connection's whole life. Returns `Err` when a protocol violation
/// or a failed write ends it (already counted, and reported to the peer
/// where the stream allowed); goodbye handshakes and a peer closing
/// between frames return `Ok`.
fn serve_connection(shared: &Shared, stream: &TcpStream) -> Result<(), ProtoError> {
    let io_err = |context: &'static str| {
        move |e: io::Error| ProtoError::Io {
            context: context.to_string(),
            detail: e.to_string(),
        }
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(shared.config.tick))
        .map_err(io_err("configuring the read-timeout tick"))?;
    stream
        .set_write_timeout(Some(shared.config.write_timeout))
        .map_err(io_err("configuring the write timeout"))?;

    let mut reader = FrameReader::new(stream);
    let mut conn = Connection {
        shared,
        stream,
        session: shared.service.stream(),
        wire_seq: HashMap::new(),
        served: 0,
        client_done: false,
    };

    loop {
        // Flush compiled responses that are already waiting.
        while let Some(tagged) = conn.session.try_recv() {
            conn.deliver(tagged)?;
        }

        // The drain/goodbye state machine. Either side ending the
        // conversation still waits for every accepted response first.
        let draining = shared.draining.load(Ordering::SeqCst);
        if (draining || conn.client_done) && conn.session.pending() == 0 {
            let reason = if draining {
                "server draining: all accepted responses delivered"
            } else {
                "goodbye acknowledged: session complete"
            };
            if conn.write(&Frame::goodbye(reason, conn.served)).is_ok() {
                Metrics::bump(&shared.net.goodbyes);
            } else {
                Metrics::bump(&shared.net.disconnects);
            }
            return Ok(());
        }

        // Owed a response with nothing to read: park on the reply channel,
        // so a finished compile is written as soon as it lands.
        if conn.session.pending() > 0
            && reader.stalled_since().is_none()
            && socket_idle(stream).map_err(io_err("checking the socket for input"))?
        {
            if let Some(tagged) = conn.session.recv_timeout(shared.config.tick) {
                conn.deliver(tagged)?;
            }
            continue;
        }

        // The socket: one read-timeout tick's worth of bytes at most.
        match reader.poll() {
            Ok(FramePoll::Frame(frame)) => handle_frame(&mut conn, &frame)?,
            Ok(FramePoll::Pending) => {
                if let Some(since) = reader.stalled_since() {
                    if since.elapsed() >= shared.config.read_timeout {
                        // A partial frame outlived the deadline: the
                        // slow-client defense. Closing costs this
                        // connection thread, never a pool worker.
                        Metrics::bump(&shared.net.slow_timeouts);
                        let e = ProtoError::Timeout {
                            context: format!(
                                "the rest of a frame (first byte arrived {:?} ago; the \
                                 per-frame deadline is {:?})",
                                since.elapsed(),
                                shared.config.read_timeout
                            ),
                        };
                        let _ = conn.write(&Frame::error(None, &ServeError::protocol(&e)));
                        return Err(e);
                    }
                }
            }
            Ok(FramePoll::Closed) => {
                // The peer vanished between frames; responses still in
                // flight are abandoned (their workers' sends land in a
                // dropped channel, harmlessly).
                Metrics::bump(&shared.net.disconnects);
                return Ok(());
            }
            Err(e @ ProtoError::UnknownKind { .. }) => {
                // Forward compatibility: a peer speaking a newer protocol
                // revision sent a kind byte this build does not know. The
                // reader consumed the payload (the length field parsed),
                // so the stream is still framed — refuse the *frame* with
                // a descriptive error and keep the connection, rather
                // than dropping a peer whose other frames we understand.
                Metrics::bump(&shared.net.proto_errors);
                if conn
                    .write(&Frame::error(None, &ServeError::protocol(&e)))
                    .is_err()
                {
                    Metrics::bump(&shared.net.disconnects);
                    return Ok(());
                }
            }
            Err(e) => {
                Metrics::bump(&shared.net.proto_errors);
                if matches!(e, ProtoError::Truncated { .. }) {
                    // A mid-frame EOF: the peer is gone, nothing to tell.
                    Metrics::bump(&shared.net.disconnects);
                } else {
                    let _ = conn.write(&Frame::error(None, &ServeError::protocol(&e)));
                }
                return Err(e);
            }
        }
    }
}

/// Whether the socket has nothing for [`FrameReader::poll`] — no bytes,
/// no EOF, no error — checked without blocking.
fn socket_idle(stream: &TcpStream) -> io::Result<bool> {
    stream.set_nonblocking(true)?;
    let peek = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false)?;
    Ok(matches!(peek, Err(e) if e.kind() == io::ErrorKind::WouldBlock))
}

/// What one connection thread owns besides its frame reader.
struct Connection<'a> {
    shared: &'a Shared,
    stream: &'a TcpStream,
    session: StreamSession<'a>,
    /// The session numbers submissions itself; this maps its sequence
    /// numbers back to the seq the client chose.
    wire_seq: HashMap<u64, u64>,
    /// Responses written, compiled and cached alike: the goodbye's count.
    served: u64,
    client_done: bool,
}

impl Connection<'_> {
    fn write(&self, frame: &Frame) -> Result<(), ProtoError> {
        proto::write_frame(&mut &*self.stream, frame)
    }

    /// Writes one answer under the client's `seq` and counts it served.
    /// An answer over the frame cap is replaced by a `response-too-large`
    /// error frame: nothing was written, so the connection stays usable.
    /// A failed write means the peer stopped reading: it is counted as a
    /// disconnect, not a protocol violation, and the connection should
    /// end.
    fn answer(
        &mut self,
        seq: u64,
        outcome: &Result<CompileResponse, ServeError>,
    ) -> Result<(), ProtoError> {
        let written = match outcome {
            Ok(resp) => match self.write(&Frame::response(seq, resp)) {
                Err(ProtoError::Oversize { len, max }) => self.write(&Frame::error(
                    Some(seq),
                    &ServeError::response_too_large(len, max),
                )),
                written => written,
            },
            Err(e) => self.write(&Frame::error(Some(seq), e)),
        };
        if let Err(e) = written {
            Metrics::bump(&self.shared.net.disconnects);
            return Err(e);
        }
        self.served += 1;
        Ok(())
    }

    /// [`Connection::answer`] for a compiled outcome from the session.
    fn deliver(
        &mut self,
        (session_seq, outcome): (u64, Result<CompileResponse, ServeError>),
    ) -> Result<(), ProtoError> {
        let seq = self.wire_seq.remove(&session_seq).unwrap_or(session_seq);
        self.answer(seq, &outcome)
    }
}

fn handle_frame(conn: &mut Connection<'_>, frame: &Frame) -> Result<(), ProtoError> {
    let shared = conn.shared;
    match frame.kind {
        FrameKind::Request => {
            let wire: WireRequest = match frame.decode() {
                Ok(wire) => wire,
                Err(e) => {
                    // The stream is still framed (the header parsed), so
                    // a malformed payload is a request-shaped mistake,
                    // not a connection-fatal one.
                    Metrics::bump(&shared.net.proto_errors);
                    return conn.write(&Frame::error(None, &ServeError::protocol(&e)));
                }
            };
            // The flag is loaded *here*, at admission time — not at the
            // top of the connection loop — so a frame that raced one
            // poll tick against the drain cannot be admitted stale: any
            // request arriving after the listener closed observes the
            // flag (the drain stores it before touching the listener).
            if shared.draining.load(Ordering::SeqCst) {
                return conn.write(&Frame::error(Some(wire.seq), &ServeError::draining()));
            }
            // A goodbye is a promise of "no further requests": a request
            // pipelined behind one is refused, not admitted — otherwise
            // a misbehaving client could keep the session (and its
            // connection thread) alive indefinitely after announcing it
            // was done, because the goodbye close waits for pending
            // responses that admission here would keep replenishing.
            if conn.client_done {
                return conn.write(&Frame::error(Some(wire.seq), &ServeError::after_goodbye()));
            }
            // A cached artifact is answered right here: no queue, so
            // no shed, and no wait behind this session's compiles.
            if let Some(hit) = shared.service.serve_hit(&wire.request) {
                return conn.answer(wire.seq, &Ok(hit));
            }
            match conn.session.submit(wire.request) {
                Ok(session_seq) => {
                    conn.wire_seq.insert(session_seq, wire.seq);
                    Ok(())
                }
                Err(e) if e.kind == "overloaded" => {
                    // The shed contract over the wire: a structured frame
                    // with depth and a retry-after hint; the connection
                    // stays open for the retry.
                    let stats = shared.service.stats();
                    conn.write(&Frame::overloaded(wire.seq, &stats, &e))
                }
                Err(e) => conn.write(&Frame::error(Some(wire.seq), &e)),
            }
        }
        FrameKind::StatsRequest => {
            conn.write(&Frame::stats(&shared.identity, &shared.service.stats()))
        }
        FrameKind::WarmupRequest => {
            let wire: WireWarmupRequest = match frame.decode() {
                Ok(wire) => wire,
                Err(e) => {
                    Metrics::bump(&shared.net.proto_errors);
                    return conn.write(&Frame::error(None, &ServeError::protocol(&e)));
                }
            };
            // Served straight from the cache snapshot — the worker pool
            // is never touched, so a warm-up costs a donor no compile
            // capacity. Deliberately answered even while draining: the
            // hand-off *is* the leave path, and refusing it would turn
            // every graceful leave into a cold join elsewhere.
            let entries = shared.service.export_warmup(&wire.predicate);
            let chunks = warmup::chunk_entries(entries, warmup::WARMUP_CHUNK_BUDGET);
            let last = chunks.len() - 1;
            for (index, chunk) in chunks.into_iter().enumerate() {
                conn.write(&Frame::warmup_batch(
                    wire.seq,
                    index as u64,
                    index == last,
                    chunk,
                ))?;
            }
            Ok(())
        }
        FrameKind::Goodbye => {
            // The client is done submitting; pending responses still
            // drain before the server's answering goodbye.
            conn.client_done = true;
            Ok(())
        }
        kind => {
            Metrics::bump(&shared.net.proto_errors);
            let e = ProtoError::Unexpected {
                kind,
                context: "the server accepts request, stats-request, warmup-request, and \
                          goodbye frames"
                    .to_string(),
            };
            let _ = conn.write(&Frame::error(None, &ServeError::protocol(&e)));
            Err(e)
        }
    }
}
