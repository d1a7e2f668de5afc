//! The network-serving suite (ISSUE 8): the TCP front end exercised over
//! real localhost sockets — ephemeral ports, real threads, real bytes.
//!
//! Contracts under test:
//!
//! * **Byte identity over the wire** — the serialized artifact for one
//!   request is identical across connections, across cache states, and
//!   across a full server restart (fresh service, cold cache).
//! * **Exactly one compile under a multi-client storm** — N clients on N
//!   connections hammering the same request perform one compile, proven
//!   by *wire-level* stats (`misses == 1`), not in-process inspection.
//! * **Graceful drain** — `shutdown()` finishes in-flight streams
//!   (responses delivered, goodbye frames sent) while refusing new
//!   requests (`draining` errors) and new connections, and joins every
//!   thread before returning.
//! * **Fault injection never takes the server down** — mid-stream
//!   disconnects, garbage bytes, a slowloris half-written header, and a
//!   hostile length prefix each cost one connection, answered with a
//!   descriptive error frame where the stream is still framed; healthy
//!   clients keep compiling throughout.
//! * **Shed is a structured frame** — `Backpressure::Shed` surfaces as an
//!   `overloaded` frame carrying queue depth and a retry-after hint, the
//!   connection stays open, and `NetClient`'s retry policy honors the
//!   hint.
//!
//! Plus the ISSUE 9 serve-layer regression pins: a clean shutdown counts
//! zero denied connections (the drain's self-wake is not a client), a
//! request pipelined behind the client's goodbye is refused instead of
//! admitted, `NetClient::stats` correlates its round-trip (no stale
//! snapshot returned, no spurious one left queued), and
//! `RetryPolicy::max_attempts == 0` is normalized to 1 at construction so
//! `ClientError::Overloaded.attempts` means what it says.
//!
//! And the ISSUE 10 forward-compatibility pin: a frame with an *unknown
//! kind byte* (a future protocol revision) is refused per-frame with a
//! descriptive error naming the byte — the payload is consumed, the
//! stream stays framed, and the same connection keeps serving.
//!
//! And the answer-latency pins: with a 200 ms tick, cached hits and cold
//! misses are answered without waiting for a read timeout; a hit
//! pipelined behind an in-flight miss overtakes it; and a hit is answered,
//! not shed, when the admission queue is full.

mod common;

use common::serve_request;
use qft_kernels::serve::proto::{self, Frame, WireFault, MAGIC, VERSION};
use qft_kernels::serve::{shared_registry, ClientError, NetEvent, NetServer, ServerConfig};
use qft_kernels::{
    Backpressure, ClientConfig, CompileOptions, CompileRequest, CompileService, NetClient,
    QftCompiler, Registry, RetryPolicy, Router, Target,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The request the byte-identity tests hammer: a stochastic search
/// compiler with truncation and the aggressive pass tail on, so wire
/// determinism is a pipeline property, not an analytical-construction
/// artifact.
fn contended_request() -> CompileRequest {
    serve_request(
        "sabre",
        "lattice:4",
        CompileOptions::default()
            .with_seed(7)
            .with_opt_level(2)
            .with_approximation(3),
    )
}

fn artifact_bytes(resp: &qft_kernels::CompileResponse) -> String {
    serde_json::to_string(&resp.result).expect("serialize artifact")
}

/// Spins until `check` passes or the deadline expires — for counters that
/// are bumped by server threads asynchronously to what a client observed.
fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Byte identity: across connections, cache states, and a server restart.
// ---------------------------------------------------------------------------

#[test]
fn artifacts_are_byte_identical_across_connections_and_restart() {
    let req = contended_request();

    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();

    // Connection A compiles cold; connection B hits the cache. Same bytes.
    let mut a = NetClient::connect(addr).unwrap();
    let resp_a = a.request(&req).unwrap();
    assert!(!resp_a.cached, "first request must be the cold miss");
    let mut b = NetClient::connect(addr).unwrap();
    let resp_b = b.request(&req).unwrap();
    assert!(resp_b.cached, "second connection must hit the shared cache");
    assert_eq!(artifact_bytes(&resp_a), artifact_bytes(&resp_b));

    // Both close gracefully; the server drains cleanly.
    assert_eq!(a.goodbye().unwrap().served, 1);
    assert_eq!(b.goodbye().unwrap().served, 1);
    let summary = server.shutdown();
    assert_eq!(summary.net.accepted, 2);
    assert_eq!(summary.net.goodbyes, 2);

    // A *restarted* server — fresh service, cold cache, new port — must
    // reproduce the identical bytes: determinism is a pipeline property,
    // not a cache artifact.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    let resp_c = c.request(&req).unwrap();
    assert!(!resp_c.cached, "restarted server starts cold");
    assert_eq!(
        artifact_bytes(&resp_a),
        artifact_bytes(&resp_c),
        "a server restart must not change a single artifact byte"
    );
    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Multi-client duplicate storm: exactly one compile, proven over the wire.
// ---------------------------------------------------------------------------

#[test]
fn multi_client_storm_performs_exactly_one_compile_by_wire_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();
    let req = contended_request();
    let n_clients = 8;
    let barrier = Barrier::new(n_clients);

    let bytes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let (req, barrier) = (&req, &barrier);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("storm connect");
                    barrier.wait();
                    let resp = client.request(req).expect("storm request");
                    client.goodbye().expect("storm goodbye");
                    artifact_bytes(&resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(bytes.len(), n_clients);
    for b in &bytes[1..] {
        assert_eq!(b, &bytes[0], "every client must receive identical bytes");
    }

    // The proof is wire-level: a fresh connection asks the server itself.
    let mut observer = NetClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.requests, n_clients as u64);
    assert_eq!(stats.misses, 1, "singleflight must hold across sockets");
    assert_eq!(stats.hits + stats.dedup_joins, n_clients as u64 - 1);
    drop(observer);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Wire-level stats: the accounting identity, and equality with in-process.
// ---------------------------------------------------------------------------

#[test]
fn wire_stats_keep_the_invariant_and_match_in_process_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // One miss, one hit, one more miss.
    let warm = serve_request("lnn", "lnn:6", CompileOptions::default());
    client.request(&warm).unwrap();
    client.request(&warm).unwrap();
    client
        .request(&serve_request("lnn", "lnn:7", CompileOptions::default()))
        .unwrap();

    let wire = client.stats().unwrap();
    assert_eq!(
        wire.requests,
        wire.hits + wire.misses + wire.dedup_joins,
        "the accounting identity must hold over the wire"
    );
    assert_eq!((wire.requests, wire.hits, wire.misses), (3, 1, 2));

    // Quiescent, the wire snapshot equals the in-process one: counters
    // exactly, latency floats up to JSON round-trip.
    let local = server.service().stats();
    assert_eq!(
        (wire.requests, wire.hits, wire.misses, wire.dedup_joins),
        (local.requests, local.hits, local.misses, local.dedup_joins),
    );
    assert_eq!(
        (wire.evictions, wire.shed, wire.errors, wire.queue_depth),
        (local.evictions, local.shed, local.errors, local.queue_depth),
    );
    assert_eq!(
        (wire.workers, wire.cache_capacity, wire.cache_entries),
        (local.workers, local.cache_capacity, local.cache_entries),
    );
    assert_eq!(
        (wire.cache_shards, wire.queue_capacity, wire.in_flight),
        (local.cache_shards, local.queue_capacity, local.in_flight),
    );
    assert!((wire.p50_ms - local.p50_ms).abs() < 1e-6, "p50 drifted");
    assert!((wire.p99_ms - local.p99_ms).abs() < 1e-6, "p99 drifted");

    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_submissions_correlate_by_seq() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Three submissions in flight at once; responses arrive in completion
    // order, each tagged with its seq — seq k carried lnn:(4+k).
    let seqs: Vec<u64> = (4..7)
        .map(|n| {
            client
                .submit(&serve_request(
                    "lnn",
                    &format!("lnn:{n}"),
                    CompileOptions::default(),
                ))
                .unwrap()
        })
        .collect();
    assert_eq!(seqs, vec![0, 1, 2]);
    let mut seen = Vec::new();
    for _ in 0..3 {
        match client.next_event().unwrap() {
            NetEvent::Response { seq, response } => {
                assert_eq!(response.result.n, 4 + seq as usize, "seq mismatch");
                seen.push(seq);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, seqs);

    let bye = client.goodbye().unwrap();
    assert_eq!(bye.served, 3, "the goodbye reports the served count");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight work finishes, new work is refused, threads join.
// ---------------------------------------------------------------------------

/// A gate a test holds shut to park a worker inside a compile — the
/// deterministic way to keep a worker busy. Each test that needs one gets
/// its own static gate so parallel test threads never cross-release.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    const fn new() -> Gate {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicUsize::new(0),
        }
    }

    /// Blocks until a compile has parked behind the gate.
    fn wait_entered(&self) {
        wait_until("the gated compile to start", || {
            self.entered.load(Ordering::SeqCst) > 0
        });
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// A registry with the core compilers plus `name`, a compiler that
    /// parks at this gate and then compiles like `lnn`.
    fn registry(&'static self, name: &'static str) -> &'static Registry {
        let mut r = Registry::with_core();
        r.register(Box::new(GateCompiler { name, gate: self }));
        Box::leak(Box::new(r))
    }
}

struct GateCompiler {
    name: &'static str,
    gate: &'static Gate,
}

impl QftCompiler for GateCompiler {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        "test compiler that blocks until its gate opens"
    }
    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<qft_kernels::CompileResult, qft_kernels::CompileError> {
        self.gate.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.gate.open.lock().expect("gate mutex");
        while !*open {
            open = self.gate.cv.wait(open).expect("gate condvar");
        }
        drop(open);
        shared_registry().resolve("lnn")?.compile(target, opts)
    }
}

static DRAIN: Gate = Gate::new();
static SHED: Gate = Gate::new();

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new_work() {
    let service = CompileService::builder()
        .registry(DRAIN.registry("gate-drain"))
        .workers(1)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr();

    // Park the single worker inside a gated compile submitted over the
    // wire — the in-flight stream the drain must finish.
    let mut client = NetClient::connect(addr).unwrap();
    let gated_seq = client
        .submit(&CompileRequest::new("gate-drain", "lnn:4"))
        .unwrap();
    DRAIN.wait_entered();

    // Begin the drain on its own thread (shutdown blocks until complete:
    // it cannot finish while the gate holds the compile in flight).
    let drain = std::thread::spawn(move || server.shutdown());

    // The drain closes the listener almost immediately — long before the
    // in-flight compile finishes. Once connects are refused, the drain
    // flag is definitely visible to every connection thread.
    wait_until("the drained listener to refuse connections", || {
        TcpStream::connect(addr).is_err()
    });

    // A request submitted *during* the drain is refused with a structured
    // `draining` error on a connection that stays open — never a reset.
    // (No response can precede the refusal: the single worker is parked.)
    let refused_seq = client
        .submit(&CompileRequest::new("gate-drain", "lnn:5"))
        .unwrap();
    match client.next_event().unwrap() {
        NetEvent::Fail { seq, error } => {
            assert_eq!(seq, Some(refused_seq));
            assert_eq!(error.kind, "draining");
            assert!(
                error.error.contains("draining"),
                "the refusal must explain itself: {error}"
            );
        }
        other => panic!("expected a draining refusal, got {other:?}"),
    }

    // Release the gate: the in-flight compile must now complete and be
    // delivered, then the server says goodbye.
    DRAIN.release();

    let mut delivered = Vec::new();
    let goodbye = loop {
        match client.next_event().unwrap() {
            NetEvent::Response { seq, response } => {
                assert_eq!(response.result.n, 4 + seq as usize);
                delivered.push(seq);
            }
            NetEvent::Goodbye(g) => break g,
            other => panic!("unexpected drain event: {other:?}"),
        }
    };
    assert_eq!(
        delivered,
        vec![gated_seq],
        "exactly the in-flight compile is delivered before the goodbye"
    );
    assert!(goodbye.reason.contains("draining"));
    assert_eq!(goodbye.served, 1);

    // shutdown() returns only after every thread is joined; afterwards
    // the port is still genuinely closed.
    let summary = drain.join().unwrap();
    assert!(summary.connections_joined >= 1);
    assert!(summary.net.goodbyes >= 1);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the drained server's port must refuse connections"
    );
}

// ---------------------------------------------------------------------------
// Fault injection: the server survives everything.
// ---------------------------------------------------------------------------

#[test]
fn fault_injection_matrix_never_takes_the_server_down() {
    // A short per-frame deadline so the slowloris case settles quickly;
    // idle (between-frames) connections are unaffected by it.
    let config = ServerConfig {
        read_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind_with("127.0.0.1:0", Arc::new(CompileService::new()), config).unwrap();
    let addr = server.local_addr();
    let healthy_req = serve_request("lnn", "lnn:5", CompileOptions::default());
    let healthy = |label: &str| {
        let mut c = NetClient::connect(addr).unwrap_or_else(|e| panic!("{label}: {e}"));
        let resp = c
            .request(&healthy_req)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(resp.result.n, 5, "{label}: wrong artifact");
    };
    let raw_read_frame = |stream: &TcpStream| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        proto::read_frame(&mut &*stream)
    };

    // (a) Mid-stream disconnect: a valid request, then the client vanishes
    // before its response. The worker's reply lands in a dropped channel
    // or a dead socket; either way the server records a disconnect.
    {
        let stream = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut &stream, &Frame::request(0, &healthy_req)).unwrap();
        drop(stream);
        wait_until("the disconnect to be recorded", || {
            server.net_stats().disconnects >= 1
        });
    }
    healthy("after mid-stream disconnect");

    // (b) Garbage on connect: an HTTP request is answered with a
    // descriptive protocol error naming the expected magic, then closed.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /compile HTTP/1.1\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("a protocol error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.seq, None, "a framing fault is connection-level");
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("QFTW"),
            "the diagnosis must name the expected magic: {}",
            fault.error.error
        );
        // The connection is closed behind the diagnosis.
        assert!(raw_read_frame(&stream).is_err());
    }
    healthy("after garbage bytes");

    // (c) Slowloris: half a header, then silence. The per-frame deadline
    // closes the connection with a timeout diagnosis — without costing a
    // worker, so the healthy client below is served instantly.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&MAGIC[..2]).unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("a timeout error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("timed out") || fault.error.error.contains("deadline"),
            "the diagnosis must name the deadline: {}",
            fault.error.error
        );
        assert!(raw_read_frame(&stream).is_err());
        assert!(server.net_stats().slow_timeouts >= 1);
    }
    healthy("after slowloris");

    // (d) A hostile length prefix (4 GiB) is refused at header-parse time
    // — before any allocation — with the cap named.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        header.push(1); // request kind
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.write_all(&header).unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("an oversize error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("cap"),
            "the diagnosis must name the cap: {}",
            fault.error.error
        );
        assert!(raw_read_frame(&stream).is_err());
    }
    healthy("after oversize length prefix");

    // (e) An unknown frame kind (here: 200, a hypothetical future
    // protocol revision) is refused *per frame*, not per connection: the
    // server names the byte in a structured error, skips the payload,
    // and keeps serving the same socket — proven by pipelining a valid
    // request behind the alien frame and reading its response after the
    // refusal.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut alien = Vec::new();
        alien.extend_from_slice(&MAGIC);
        alien.push(VERSION);
        alien.push(200); // unknown kind byte
        let payload = br#"{"future":"frame"}"#;
        alien.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        alien.extend_from_slice(payload);
        stream.write_all(&alien).unwrap();
        proto::write_frame(&mut &stream, &Frame::request(3, &healthy_req)).unwrap();
        stream.flush().unwrap();

        let frame = raw_read_frame(&stream).expect("an unknown-kind error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.seq, None, "an unframeable kind has no seq");
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("unknown frame kind 200"),
            "the refusal must name the alien byte: {}",
            fault.error.error
        );
        // The connection survived: the pipelined request is answered.
        let frame = raw_read_frame(&stream).expect("the pipelined response");
        assert_eq!(frame.kind, proto::FrameKind::Response);
        let wire: proto::WireResponse = frame.decode().unwrap();
        assert_eq!(wire.seq, 3);
        assert_eq!(wire.response.result.n, 5);
    }
    healthy("after an unknown frame kind");

    // The server recorded every fault class and is still fully alive.
    let net = server.net_stats();
    assert!(net.disconnects >= 1, "net stats: {net:?}");
    assert!(net.proto_errors >= 2, "net stats: {net:?}");
    assert!(net.slow_timeouts >= 1, "net stats: {net:?}");
    let summary = server.shutdown();
    assert!(summary.net.accepted >= 8, "net stats: {:?}", summary.net);
}

// ---------------------------------------------------------------------------
// Regression pins for the ISSUE 9 serve-layer bug sweep.
// ---------------------------------------------------------------------------

#[test]
fn clean_shutdown_counts_zero_denied_connections() {
    // Pre-fix, the drain's own wake-up connect was counted as a denied
    // connection, so `denied >= 1` after *every* shutdown — making the
    // counter useless for telling whether a real client was turned away.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let summary = server.shutdown();
    assert_eq!(
        summary.net.denied, 0,
        "an untouched server turned no one away: {:?}",
        summary.net
    );
    assert_eq!(summary.net.accepted, 0);

    // Same with real traffic beforehand: served-and-said-goodbye clients
    // are not denials either.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .request(&serve_request("lnn", "lnn:4", CompileOptions::default()))
        .unwrap();
    client.goodbye().unwrap();
    let summary = server.shutdown();
    assert_eq!(
        summary.net.denied, 0,
        "no client raced this drain: {:?}",
        summary.net
    );
    assert_eq!((summary.net.accepted, summary.net.goodbyes), (1, 1));
}

static BYE: Gate = Gate::new();

#[test]
fn requests_pipelined_behind_a_goodbye_are_refused() {
    // Pre-fix, `handle_frame` checked `draining` but never `client_done`,
    // so `goodbye` + more requests kept the session admitting work
    // indefinitely after the client announced it was done. The gate
    // parks the first request in flight so the session provably stays
    // open (pending > 0) while the post-goodbye request arrives.
    let service = CompileService::builder()
        .registry(BYE.registry("gate-bye"))
        .workers(1)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let gated = CompileRequest::new("gate-bye", "lnn:4");
    proto::write_frame(&mut &stream, &Frame::request(0, &gated)).unwrap();
    BYE.wait_entered();
    proto::write_frame(&mut &stream, &Frame::goodbye("client done", 0)).unwrap();
    proto::write_frame(&mut &stream, &Frame::request(1, &gated)).unwrap();

    // The post-goodbye request is answered with a descriptive refusal —
    // before the gated response, which the gate still holds.
    let frame = proto::read_frame(&mut &stream).expect("a refusal frame");
    let fault: WireFault = frame.decode().unwrap();
    assert_eq!(fault.seq, Some(1), "the refusal names the refused seq");
    assert_eq!(fault.error.kind, "after-goodbye");
    assert!(
        fault.error.error.contains("goodbye"),
        "the refusal must explain itself: {}",
        fault.error.error
    );

    // The accepted (pre-goodbye) response still drains, then the server
    // answers the goodbye with served == 1: the refused request was
    // never admitted.
    BYE.release();
    let frame = proto::read_frame(&mut &stream).expect("the gated response");
    assert_eq!(frame.kind, proto::FrameKind::Response);
    let frame = proto::read_frame(&mut &stream).expect("the server goodbye");
    assert_eq!(frame.kind, proto::FrameKind::Goodbye);
    let bye: qft_kernels::serve::proto::WireGoodbye = frame.decode().unwrap();
    assert_eq!(bye.served, 1, "only the pre-goodbye request was served");
    server.shutdown();
}

#[test]
fn stats_round_trips_correlate_after_a_bare_submit_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();

    // Observer with a short read timeout so the no-spurious-event check
    // below settles fast.
    let mut observer = NetClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_millis(300),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // A bare submit_stats leaves snapshot A (requests == 0) in flight,
    // never read.
    observer.submit_stats().unwrap();

    // The counters move: another client performs one compile.
    let mut worker = NetClient::connect(addr).unwrap();
    worker
        .request(&serve_request("lnn", "lnn:9", CompileOptions::default()))
        .unwrap();

    // Pre-fix, stats() returned the *stale* snapshot A off the socket
    // (requests == 0); correlated, it must skip A and return the fresh
    // answer to its own request.
    let stats = observer.stats().unwrap();
    assert_eq!(
        stats.requests, 1,
        "stats() must answer with a snapshot taken after its own request"
    );

    // ... and it must not leave a spurious Stats event queued: the next
    // event is a timeout (nothing on the wire), not a phantom snapshot.
    match observer.next_event() {
        Err(_) => {}
        Ok(event) => panic!("expected no queued event, got {event:?}"),
    }

    // The identity-tagged form stamps which backend answered — the
    // router's way of telling N otherwise identical backends apart.
    let tagged = observer.backend_stats().unwrap();
    assert_eq!(tagged.identity, addr.to_string());
    assert_eq!(tagged.stats.requests, 1);

    drop(observer);
    drop(worker);
    server.shutdown();
}

static RETRY: Gate = Gate::new();

#[test]
fn retry_policy_attempt_boundaries_hold_against_a_shedding_server() {
    // Pre-fix, `max_attempts: 0` silently behaved as 1 via a `.max(1)`
    // buried in the request loop, while the constructed policy still
    // read 0 — so `ClientError::Overloaded.attempts` "equals the
    // policy's max_attempts" was a lie at the boundary. Normalization
    // now happens once, at construction, where it is observable.
    let service = CompileService::builder()
        .registry(RETRY.registry("gate-retry"))
        .workers(1)
        .queue_capacity(1)
        .backpressure(Backpressure::Shed)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr();

    // Park the worker, fill the one-slot queue: every further submission
    // sheds until the gate opens.
    let mut filler = NetClient::connect(addr).unwrap();
    filler
        .submit(&CompileRequest::new("gate-retry", "lnn:4"))
        .unwrap();
    RETRY.wait_entered();
    filler
        .submit(&CompileRequest::new("gate-retry", "lnn:5"))
        .unwrap();
    wait_until("the queue to fill", || {
        server.service().stats().queue_depth >= 1
    });

    for (configured, effective) in [(0u32, 1u32), (1, 1), (3, 3)] {
        let mut client = NetClient::connect_with(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_attempts: configured,
                    backoff_cap: Duration::from_millis(10),
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            client.config().retry.max_attempts,
            effective,
            "max_attempts: {configured} must normalize at construction"
        );
        match client.request(&CompileRequest::new("gate-retry", "lnn:6")) {
            Err(ClientError::Overloaded { attempts, last }) => {
                assert_eq!(
                    attempts, effective,
                    "attempts must equal the effective policy for max_attempts: {configured}"
                );
                assert_eq!(last.error.kind, "overloaded");
            }
            other => panic!("expected ClientError::Overloaded, got {other:?}"),
        }
    }

    // Release the gate and drain the filler's two parked compiles.
    RETRY.release();
    for _ in 0..2 {
        match filler.next_event().unwrap() {
            NetEvent::Response { .. } => {}
            other => panic!("expected a response, got {other:?}"),
        }
    }
    drop(filler);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Shed over the wire: a structured overloaded frame, never a closed socket.
// ---------------------------------------------------------------------------

#[test]
fn shed_surfaces_as_a_structured_overloaded_frame_with_retry_hint() {
    let service = CompileService::builder()
        .registry(SHED.registry("gate-shed"))
        .workers(1)
        .queue_capacity(1)
        .backpressure(Backpressure::Shed)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr();

    // Park the worker, fill the one-slot queue.
    let mut filler = NetClient::connect(addr).unwrap();
    filler
        .submit(&CompileRequest::new("gate-shed", "lnn:4"))
        .unwrap();
    SHED.wait_entered();
    filler
        .submit(&CompileRequest::new("gate-shed", "lnn:5"))
        .unwrap();
    wait_until("the queue to fill", || {
        server.service().stats().queue_depth >= 1
    });

    // The next submission is shed — and arrives as a structured frame on
    // a connection that stays open, never as a reset.
    let mut shed_client = NetClient::connect(addr).unwrap();
    let seq = shed_client
        .submit(&CompileRequest::new("gate-shed", "lnn:6"))
        .unwrap();
    let overloaded = match shed_client.next_event().unwrap() {
        NetEvent::Overloaded(o) => o,
        other => panic!("expected an overloaded frame, got {other:?}"),
    };
    assert_eq!(overloaded.seq, seq);
    assert_eq!(overloaded.queue_depth, 1);
    assert_eq!(overloaded.queue_capacity, 1);
    assert!(
        (1..=30_000).contains(&overloaded.retry_after_ms),
        "the retry-after hint must be actionable: {}",
        overloaded.retry_after_ms
    );
    assert_eq!(overloaded.error.kind, "overloaded");
    // The connection survived the shed: it can still talk to the server.
    let stats = shed_client.stats().unwrap();
    assert!(stats.shed >= 1, "the shed must be counted: {stats:?}");

    // NetClient::request honors the hint: with the queue still full it
    // retries `max_attempts` times, sleeping the hinted backoff between
    // attempts, then reports the overload with the final notice attached.
    let mut retrier = NetClient::connect_with(
        addr,
        ClientConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_cap: Duration::from_millis(20),
            },
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match retrier.request(&CompileRequest::new("gate-shed", "lnn:7")) {
        Err(ClientError::Overloaded { attempts, last }) => {
            assert_eq!(attempts, 3, "every attempt must have been made");
            assert_eq!(last.error.kind, "overloaded");
        }
        other => panic!("expected ClientError::Overloaded, got {other:?}"),
    }

    // Release the gate: the admitted jobs drain, the shed clients retry
    // successfully, and the server closes clean.
    SHED.release();
    let resp = retrier
        .request(&CompileRequest::new("gate-shed", "lnn:7"))
        .expect("a retry after the gate opens must succeed");
    assert_eq!(resp.result.n, 7);

    // The filler's two parked compiles arrive tagged correctly.
    let mut ns = Vec::new();
    for _ in 0..2 {
        match filler.next_event().unwrap() {
            NetEvent::Response { seq, response } => {
                assert_eq!(response.result.n, 4 + seq as usize);
                ns.push(response.result.n);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    ns.sort_unstable();
    assert_eq!(ns, vec![4, 5]);
    drop(filler);
    drop(shed_client);
    let summary = server.shutdown();
    assert!(summary.net.accepted >= 3);
}

// ---------------------------------------------------------------------------
// Answer latency: responses go out when ready, not on the read-timeout tick.
// ---------------------------------------------------------------------------

#[test]
fn answers_do_not_wait_for_the_read_timeout_tick() {
    // A 200 ms tick: any answer that waited for a socket read timeout
    // would cost at least that much.
    let config = ServerConfig {
        tick: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind_with("127.0.0.1:0", Arc::new(CompileService::new()), config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let req = serve_request("lnn", "lnn:8", CompileOptions::default());

    // A cold miss is written as soon as its compile finishes.
    let t = Instant::now();
    let cold = client.request(&req).unwrap();
    let cold_s = t.elapsed().as_secs_f64();
    assert!(!cold.cached);
    assert!(
        cold_s < cold.compile_s + 0.1,
        "cold round trip {cold_s:.3} s for a {:.3} s compile",
        cold.compile_s
    );

    // Cached hits are answered inline: twenty back to back fit in one tick.
    let t = Instant::now();
    for _ in 0..20 {
        assert!(client.request(&req).unwrap().cached);
    }
    let hot = t.elapsed();
    assert!(
        hot < Duration::from_millis(200),
        "20 cached round trips took {hot:?}"
    );

    assert_eq!(client.goodbye().unwrap().served, 21);
    server.shutdown();
}

static OVERTAKE: Gate = Gate::new();

#[test]
fn a_cached_hit_overtakes_an_in_flight_miss_on_one_connection() {
    let service = CompileService::builder()
        .registry(OVERTAKE.registry("gate-overtake"))
        .workers(1)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let hot = serve_request("lnn", "lnn:6", CompileOptions::default());
    client.request(&hot).unwrap();

    // Park the only worker on a miss, then pipeline a hit behind it on the
    // same connection: the hit is answered while the miss is still held.
    // (The gate opens before any assertion, so a failure cannot leave the
    // server's drain waiting on it.)
    let miss_seq = client
        .submit(&CompileRequest::new("gate-overtake", "lnn:5"))
        .unwrap();
    OVERTAKE.wait_entered();
    let hit_seq = client.submit(&hot).unwrap();
    let first = client.next_event();
    OVERTAKE.release();
    match first.expect("the hit must be answered while the miss is held") {
        NetEvent::Response { seq, response } => {
            assert_eq!(seq, hit_seq, "the hit must be answered first");
            assert!(response.cached);
        }
        other => panic!("expected the cached response, got {other:?}"),
    }

    match client.next_event().unwrap() {
        NetEvent::Response { seq, response } => {
            assert_eq!(seq, miss_seq);
            assert!(!response.cached);
            assert_eq!(response.result.n, 5);
        }
        other => panic!("expected the compiled response, got {other:?}"),
    }

    // Each request counts once: the warm-up miss, the gated miss, the hit.
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.requests, stats.hits, stats.misses, stats.dedup_joins),
        (3, 1, 2, 0)
    );
    assert_eq!(
        client.goodbye().unwrap().served,
        3,
        "the goodbye counts answers sent inline"
    );
    server.shutdown();
}

static HOT_SHED: Gate = Gate::new();

#[test]
fn a_cached_hit_is_answered_when_the_queue_sheds() {
    let service = CompileService::builder()
        .registry(HOT_SHED.registry("gate-hot-shed"))
        .workers(1)
        .queue_capacity(1)
        .backpressure(Backpressure::Shed)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr();
    let hot = serve_request("lnn", "lnn:6", CompileOptions::default());
    let mut client = NetClient::connect(addr).unwrap();
    client.request(&hot).unwrap();

    // Park the worker and fill the one-slot queue.
    let mut filler = NetClient::connect(addr).unwrap();
    for n in [4, 5] {
        filler
            .submit(&CompileRequest::new("gate-hot-shed", format!("lnn:{n}")))
            .unwrap();
        HOT_SHED.wait_entered();
    }
    wait_until("the queue to fill", || {
        server.service().stats().queue_depth >= 1
    });

    // A miss is shed; a hit on the same connection is still answered.
    client
        .submit(&serve_request("lnn", "lnn:7", CompileOptions::default()))
        .unwrap();
    match client.next_event().unwrap() {
        NetEvent::Overloaded(o) => assert_eq!(o.error.kind, "overloaded"),
        other => panic!("expected the miss to be shed, got {other:?}"),
    }
    let hit = client.request(&hot);
    let stats = client.stats().unwrap();
    HOT_SHED.release();
    assert!(hit.expect("a hit must not be shed").cached);
    assert_eq!((stats.shed, stats.hits), (1, 1));

    for _ in 0..2 {
        match filler.next_event().unwrap() {
            NetEvent::Response { .. } => {}
            other => panic!("expected a response, got {other:?}"),
        }
    }
    drop(filler);
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Hostile payloads and over-cap answers: refused per request, never a
// crash or a dropped socket.
// ---------------------------------------------------------------------------

#[test]
fn a_20000_deep_request_is_a_protocol_error_not_a_crash() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();
    let healthy_req = serve_request("lnn", "lnn:5", CompileOptions::default());

    // A well-framed request whose payload is 20 000 nested '[': a
    // recursive parser without a depth limit overflows the connection
    // thread's stack and aborts the whole server process.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = "[".repeat(20_000);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(1); // request kind
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    (&stream).write_all(&frame).unwrap();
    let fault: WireFault = proto::read_frame(&mut &stream)
        .expect("a protocol error frame")
        .decode()
        .unwrap();
    assert_eq!((fault.seq, fault.error.kind.as_str()), (None, "protocol"));
    assert!(
        fault.error.error.contains("limit of 128"),
        "the refusal must name the depth limit: {}",
        fault.error.error
    );

    // The same connection, and a new one, still compile.
    proto::write_frame(&mut &stream, &Frame::request(1, &healthy_req)).unwrap();
    let wire: proto::WireResponse = proto::read_frame(&mut &stream)
        .expect("the healthy response")
        .decode()
        .unwrap();
    assert_eq!((wire.seq, wire.response.result.n), (1, 5));
    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.request(&healthy_req).unwrap().result.n, 5);
    drop((stream, client));
    assert_eq!(server.shutdown().net.proto_errors, 1);
}

/// A compiler whose artifact carries a note just over the 16 MiB frame
/// cap: the shape of a paper-scale kernel (`lnn:1024` is ~61 MB).
struct OversizeCompiler;

impl QftCompiler for OversizeCompiler {
    fn name(&self) -> &'static str {
        "oversize"
    }
    fn description(&self) -> &'static str {
        "test compiler whose artifact is bigger than a wire frame"
    }
    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<qft_kernels::CompileResult, qft_kernels::CompileError> {
        let mut result = shared_registry().resolve("lnn")?.compile(target, opts)?;
        result.note = "x".repeat(proto::MAX_PAYLOAD + 1);
        Ok(result)
    }
}

fn oversize_server() -> NetServer {
    static REGISTRY: std::sync::OnceLock<&'static Registry> = std::sync::OnceLock::new();
    let registry = REGISTRY.get_or_init(|| {
        let mut r = Registry::with_core();
        r.register(Box::new(OversizeCompiler));
        Box::leak(Box::new(r))
    });
    let service = CompileService::builder().registry(registry).build();
    NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap()
}

fn assert_too_large(outcome: Result<impl std::fmt::Debug, ClientError>) {
    match outcome {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, "response-too-large");
            assert!(
                e.error
                    .contains(&format!("{}-byte frame cap", proto::MAX_PAYLOAD)),
                "the refusal must name the cap: {}",
                e.error
            );
        }
        other => panic!("expected a response-too-large error, got {other:?}"),
    }
}

#[test]
fn an_over_cap_response_is_an_error_frame_and_the_connection_survives() {
    let huge = CompileRequest::new("oversize", "lnn:4");
    let healthy_req = serve_request("lnn", "lnn:5", CompileOptions::default());

    // Directly: the refusal names the cap, and the same connection goes
    // on serving (a dropped socket would fail the second request).
    let server = oversize_server();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_too_large(client.request(&huge));
    assert_too_large(client.request(&huge)); // now a cache hit
    assert_eq!(client.request(&healthy_req).unwrap().result.n, 5);
    assert_eq!(client.goodbye().unwrap().served, 3);

    // Through a router: a request-shaped refusal passes through, so no
    // backend is marked down and nothing fails over.
    let fleet = [server, oversize_server()];
    let router =
        Router::new(fleet.iter().map(NetServer::local_addr).collect()).expect("two backends");
    assert_too_large(router.request(&huge));
    assert_eq!(router.request(&healthy_req).unwrap().response.result.n, 5);
    for state in router.backend_states() {
        assert!(state.healthy, "{state:?}");
        assert_eq!((state.failovers, state.downs), (0, 0), "{state:?}");
    }
    for server in &fleet {
        assert_eq!(server.net_stats().disconnects, 0);
    }
    drop(router);
    for server in fleet {
        server.shutdown();
    }
}
