//! The two wire workloads: two closed-loop clients → `Router` → two
//! in-process `NetServer` backends, all at their deployment defaults.
//!
//! * `wire-hot` warms a fixed universe of 64 kernels in set-up and then
//!   draws it Zipf-style, so nearly every request is a cache hit.
//! * `wire-cold` sends a key never seen before on every request (a
//!   per-request `seed`), compile-heavy, and a seeded share of requests
//!   repeat the other client's in-flight key to exercise singleflight.

use crate::gen::{dup_plan, stratified, Rng};
use crate::kernels::{check_kernel, compile_direct, fingerprint, kernel_sums, Template};
use crate::layers::{CompileLayer, SimLayer};
use crate::report::Outcome;
use crate::stats::{decode_ms_per_mb, median, percentile, summarize};
use crate::trace::SpanLog;
use crate::Run;
use qft_kernels::serve::proto::{self, Frame, FrameKind, WireFault, WireResponse};
use qft_kernels::serve::{NetStats, ServeStats};
use qft_kernels::{
    CompileRequest, CompileResponse, CompileResult, CompileService, NetClient, NetServer, Router,
    RouterConfig,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const CLIENTS: usize = 2;
/// After the traced phase, each client probes this many of its last
/// requests (route, routed hit, direct round trip, in-process hit).
const PROBE_KEYS: usize = 48;
/// Keys whose bytes are compared across every backend after the run.
const CROSS_CHECK_KEYS: usize = 16;
/// Share of `wire-cold` requests that repeat the other client's key.
const DUP_SHARE: f64 = 0.1;

/// The `wire-hot` universe: 16 request shapes × {opt 1, opt 2} × {exact,
/// degree 3} = 64 kernels, 2–73 KB artifacts, every compiler.
const HOT_SHAPES: [(&str, &str); 16] = [
    ("lnn", "lnn:5"),
    ("lnn", "lnn:16"),
    ("lnn", "lnn:36"),
    ("sycamore", "sycamore:4"),
    ("sycamore", "sycamore:6"),
    ("heavyhex", "heavyhex:2"),
    ("heavyhex", "heavyhex:7"),
    ("lattice", "lattice:3"),
    ("lattice", "lattice:6"),
    ("sabre", "lnn:24"),
    ("sabre", "heavyhex:6"),
    ("sabre", "lattice:5"),
    ("optimal", "lnn:5"),
    ("optimal", "lnn:6"),
    ("lnn-path", "lnn:12"),
    ("lnn-path", "lnn:30"),
];

/// Fixed (seed-independent) Zipf rank order over the universe, so every
/// seed sees the same popularity law over the same artifact sizes.
const HOT_RANK_SEED: u64 = 0x5EED_2024;

fn hot_universe() -> Vec<Template> {
    let mut u = Vec::with_capacity(64);
    for (compiler, target) in HOT_SHAPES {
        for opt in [1, 2] {
            u.push(Template::new(compiler, target, opt));
            u.push(Template::new(compiler, target, opt).degree(3));
        }
    }
    Rng::new(HOT_RANK_SEED).shuffle(&mut u);
    u
}

/// The `wire-cold` mix with its per-round weights: exact A* on lnn:6,
/// SABRE on 24–36-qubit targets, and the analytical mappers with
/// symbolic verification on 9–20-qubit targets. Keeping those artifacts
/// small (≤ 15 KB) keeps the two clients' JSON decoding from saturating
/// a 2-core host, where queueing would amplify run-to-run noise.
fn cold_mix() -> Vec<(Template, usize)> {
    let mut mix = vec![(Template::new("optimal", "lnn:6", 1), 3)];
    for target in [
        "lnn:24",
        "lnn:36",
        "heavyhex:6",
        "heavyhex:7",
        "lattice:5",
        "lattice:6",
        "sycamore:6",
    ] {
        for opt in [1, 2] {
            mix.push((Template::new("sabre", target, opt), 1));
        }
    }
    for (compiler, target) in [
        ("lnn", "lnn:8"),
        ("lnn", "lnn:16"),
        ("sycamore", "sycamore:4"),
        ("heavyhex", "heavyhex:2"),
        ("heavyhex", "heavyhex:4"),
        ("lattice", "lattice:3"),
        ("lattice", "lattice:4"),
        ("lnn", "lnn:12"),
    ] {
        for opt in [1, 2] {
            mix.push((Template::new(compiler, target, opt).verified(), 1));
        }
    }
    mix
}

/// Two backends over default services and servers, and a default router.
struct Fleet {
    servers: Vec<NetServer>,
    router: Router,
}

impl Fleet {
    fn start() -> Result<Fleet, String> {
        let servers = (0..BACKENDS)
            .map(|_| NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("binding a backend: {e}"))?;
        let addrs = servers.iter().map(NetServer::local_addr).collect();
        let router = Router::with_config(addrs, RouterConfig::default())
            .map_err(|e| format!("building the router: {e}"))?;
        for stats in router.backend_stats() {
            stats.map_err(|e| format!("backend not ready: {e}"))?;
        }
        Ok(Fleet { servers, router })
    }

    fn addr(&self, backend: usize) -> SocketAddr {
        self.servers[backend].local_addr()
    }

    fn serve_stats(&self) -> Vec<ServeStats> {
        self.servers.iter().map(|s| s.service().stats()).collect()
    }

    fn net_stats(&self) -> Vec<NetStats> {
        self.servers.iter().map(NetServer::net_stats).collect()
    }

    fn stop(self) {
        drop(self.router);
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// The first answer seen for one key: enough to recompile the kernel and
/// compare it after the run, without holding the artifact meanwhile.
#[derive(Clone)]
struct Reference {
    fp: u64,
    template: Template,
    request: CompileRequest,
}

/// One direct round trip on a benchmark-owned connection, each call
/// timed on its own.
struct DirectTrip {
    encode_request_ms: f64,
    write_ms: f64,
    read_ms: f64,
    decode_ms: f64,
    roundtrip_ms: f64,
    payload_bytes: usize,
    encode_response_ms: f64,
    response: CompileResponse,
}

/// One probe of an already-served key: a routed hit, then a direct round
/// trip to the same backend and an in-process hit on it.
struct ProbeRec {
    key: u128,
    fp: u64,
    route_ms: f64,
    routed_ms: f64,
    routed_wall_ms: f64,
    direct: DirectTrip,
    service_hit_us: f64,
}

impl ProbeRec {
    /// The direct read minus the backend's service time and its response
    /// encode: what the server loop spends waiting.
    fn server_wait_ms(&self) -> f64 {
        let d = &self.direct;
        d.read_ms - d.response.wall_s * 1e3 - d.encode_response_ms
    }

    /// The routed hit rebuilt from parts timed on calls of their own:
    /// route, request encode and write, server wait, the routed answer's
    /// own service time, response encode and decode.
    fn parts_ms(&self) -> f64 {
        let d = &self.direct;
        self.route_ms
            + d.encode_request_ms
            + d.write_ms
            + self.server_wait_ms()
            + self.routed_wall_ms
            + d.encode_response_ms
            + d.decode_ms
    }
}

/// Benchmark-owned connections that speak the wire protocol through the
/// public `proto` functions, one per backend, so each call is timed.
#[derive(Default)]
struct Prober {
    conns: HashMap<SocketAddr, TcpStream>,
    seq: u64,
}

impl Prober {
    fn round_trip(
        &mut self,
        addr: SocketAddr,
        req: &CompileRequest,
        log: &mut SpanLog,
        parent: usize,
        rid: u64,
    ) -> Result<DirectTrip, String> {
        let stream = match self.conns.entry(addr) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let s = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(Duration::from_secs(30))).ok();
                v.insert(s)
            }
        };
        self.seq += 1;
        let seq = self.seq;
        let rt = log.open("wire.roundtrip", Some(parent), rid);
        let (bytes, enc) = log.time("client.encode_request", Some(rt), rid, || {
            Frame::request(seq, req).encode()
        });
        let bytes = bytes.map_err(|e| e.to_string())?;
        let (written, write) = log.time("client.write", Some(rt), rid, || stream.write_all(&bytes));
        written.map_err(|e| format!("probe write: {e}"))?;
        let (frame, read) = log.time("client.read", Some(rt), rid, || proto::read_frame(stream));
        let frame = frame.map_err(|e| format!("probe read: {e}"))?;
        if frame.kind != FrameKind::Response {
            let detail = frame
                .decode::<WireFault>()
                .map(|f| f.error.to_string())
                .unwrap_or_else(|_| frame.kind.to_string());
            return Err(format!("probe answered with {}: {detail}", frame.kind));
        }
        let (wire, dec) = log.time("client.decode", Some(rt), rid, || {
            frame.decode::<WireResponse>()
        });
        log.close(rt);
        let wire = wire.map_err(|e| format!("probe decode: {e}"))?;
        let (encoded, enc_resp) = log.time("proto.encode_response", Some(parent), rid, || {
            Frame::response(wire.seq, &wire.response).encode()
        });
        std::hint::black_box(encoded.map_err(|e| e.to_string())?);
        let ms = |id: usize| log.spans[id].ms();
        Ok(DirectTrip {
            encode_request_ms: ms(enc),
            write_ms: ms(write),
            read_ms: ms(read),
            decode_ms: ms(dec),
            roundtrip_ms: ms(rt),
            payload_bytes: frame.payload.len(),
            encode_response_ms: ms(enc_resp),
            response: wire.response,
        })
    }

    /// Closes every connection with a goodbye handshake.
    fn close(self) {
        for (_, mut s) in self.conns {
            if let Ok(bytes) = Frame::goodbye("benchmark done", 0).encode() {
                if s.write_all(&bytes).is_ok() {
                    while let Ok(f) = proto::read_frame(&mut s) {
                        if f.kind == FrameKind::Goodbye {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Everything one client thread measured.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    traced_lat_ms: Vec<f64>,
    untraced_s: f64,
    traced_s: f64,
    per_backend: [u64; BACKENDS],
    hits: u64,
    misses: u64,
    dedups: u64,
    dup_sent: u64,
    wall_ms: BTreeMap<&'static str, Vec<f64>>,
    failures: Vec<String>,
    refs: HashMap<u128, Reference>,
    /// The traced phase's last requests and their backends, for probing.
    recent: VecDeque<(CompileRequest, usize)>,
}

impl ClientLog {
    /// Records a response for `key`: the first artifact per key becomes
    /// its reference, every later one must match it.
    fn observe(&mut self, template: Template, req: &CompileRequest, resp: &CompileResponse) {
        let key = req.key_digest();
        let fp = fingerprint(&resp.result);
        match self.refs.get(&key) {
            Some(r) if r.fp != fp => self.failures.push(format!(
                "{} on {}: artifact differs from the first one served for its key",
                req.compiler, req.target
            )),
            Some(_) => {}
            None => {
                self.refs.insert(
                    key,
                    Reference {
                        fp,
                        template,
                        request: req.clone(),
                    },
                );
            }
        }
        let outcome = if resp.deduped {
            self.dedups += 1;
            "service.wall_ms.dedup"
        } else if resp.cached {
            self.hits += 1;
            "service.wall_ms.hit"
        } else {
            self.misses += 1;
            "service.wall_ms.miss"
        };
        self.wall_ms
            .entry(outcome)
            .or_default()
            .push(resp.wall_s * 1e3);
    }
}

/// Draws per `wire-hot` round: rank counts follow Zipf exactly.
const HOT_ROUND: usize = 128;

/// The seeded request sequence both clients pull from, one round at a
/// time. Entry `i` is a template index and whether it repeats the other
/// client's in-flight key; any prefix of whole rounds has the same mix
/// whatever the seed.
struct Sequence {
    hot: bool,
    seed: u64,
    round: Vec<usize>,
    state: Mutex<SequenceState>,
}

struct SequenceState {
    rng: Rng,
    index: u64,
    queue: VecDeque<(usize, bool)>,
}

impl Sequence {
    fn new(hot: bool, seed: u64, mix: &[(Template, usize)]) -> Sequence {
        let round = if hot {
            crate::gen::zipf_counts(64, 1.0, HOT_ROUND)
        } else {
            mix.iter().map(|m| m.1).collect()
        };
        Sequence {
            hot,
            seed,
            round,
            state: Mutex::new(SequenceState {
                rng: Rng::fork(seed, 100),
                index: 0,
                queue: VecDeque::new(),
            }),
        }
    }

    /// The next entry: its global index, template index and dup flag.
    fn next(&self) -> (u64, usize, bool) {
        let mut guard = self.state.lock().expect("sequence lock");
        let SequenceState { rng, index, queue } = &mut *guard;
        if queue.is_empty() {
            let round = stratified(rng, &self.round, 1);
            let dups = if self.hot {
                vec![false; round.len()]
            } else {
                dup_plan(rng, round.len(), DUP_SHARE)
            };
            queue.extend(round.into_iter().zip(dups));
        }
        let (t, dup) = queue.pop_front().expect("refilled round");
        *index += 1;
        (*index, t, dup)
    }

    /// The request for entry `index` of `template`: wire-hot reuses
    /// the universe's fixed keys, wire-cold makes every key new.
    fn request(&self, template: &Template, index: u64) -> CompileRequest {
        if self.hot {
            template.request(0)
        } else {
            template.request(self.seed.wrapping_mul(0x1_0000_0000).wrapping_add(index))
        }
    }
}

/// One client's closed loop: request, wait, record, repeat, until the
/// phase deadline; the traced phase records a span around each request
/// and keeps the last requests for the probe pass.
fn client_loop(
    fleet: &Fleet,
    run: &Run,
    client: usize,
    templates: &[Template],
    sequence: &Sequence,
    inflight: &[Mutex<Option<(Template, CompileRequest)>>; CLIENTS],
    origin: Instant,
) -> (ClientLog, SpanLog) {
    let mut log = ClientLog::default();
    let mut spans = SpanLog::new(origin);
    let mut step = 0u64;
    for (traced, secs) in run.phases() {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        while Instant::now() < deadline {
            step += 1;
            let (index, tidx, dup) = sequence.next();
            let mut template = templates[tidx];
            let mut req = sequence.request(&template, index);
            if dup {
                let other = inflight[1 - client].lock().expect("in-flight slot").clone();
                if let Some((t, r)) = other {
                    template = t;
                    req = r;
                    log.dup_sent += 1;
                }
            }
            *inflight[client].lock().expect("in-flight slot") = Some((template, req.clone()));
            let rid = ((client as u64) << 48) | step;
            let t = Instant::now();
            let outcome = if traced {
                spans
                    .time("router.request", None, rid, || fleet.router.request(&req))
                    .0
            } else {
                fleet.router.request(&req)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            *inflight[client].lock().expect("in-flight slot") = None;
            let routed = match outcome {
                Ok(r) => r,
                Err(e) => {
                    log.failures
                        .push(format!("{} on {}: {e}", req.compiler, req.target));
                    continue;
                }
            };
            if traced {
                log.traced_lat_ms.push(ms);
            } else {
                log.lat_ms.push(ms);
            }
            log.per_backend[routed.backend.min(BACKENDS - 1)] += 1;
            log.observe(template, &req, &routed.response);
            if traced {
                if log.recent.len() == PROBE_KEYS {
                    log.recent.pop_front();
                }
                log.recent.push_back((req, routed.backend));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if traced {
            log.traced_s = secs;
        } else {
            log.untraced_s = secs;
        }
    }
    (log, spans)
}

/// What one client's probe pass found.
struct ProbePass {
    recs: Vec<ProbeRec>,
    spans: SpanLog,
    failures: Vec<String>,
}

/// Probes each of a client's last traced requests, after the measured
/// phases, so the probes add neither time nor load to them.
fn probe_pass(
    fleet: &Fleet,
    client: usize,
    recent: &VecDeque<(CompileRequest, usize)>,
    origin: Instant,
) -> ProbePass {
    let mut pass = ProbePass {
        recs: Vec::new(),
        spans: SpanLog::new(origin),
        failures: Vec::new(),
    };
    let mut prober = Prober::default();
    for (i, (req, backend)) in recent.iter().enumerate() {
        let rid = (1 << 62) | ((client as u64) << 48) | i as u64;
        let root = pass.spans.open("probe", None, rid);
        let rec = probe(
            fleet,
            req,
            *backend,
            &mut prober,
            &mut pass.spans,
            root,
            rid,
        );
        pass.spans.close(root);
        match rec {
            Ok(rec) => pass.recs.push(rec),
            Err(e) => pass.failures.push(e),
        }
    }
    prober.close();
    pass
}

/// The layer probe for one already-served key: time `Router::route`, a
/// routed hit, a direct round trip to the same backend, and the
/// in-process cache hit.
fn probe(
    fleet: &Fleet,
    req: &CompileRequest,
    backend: usize,
    prober: &mut Prober,
    spans: &mut SpanLog,
    root: usize,
    rid: u64,
) -> Result<ProbeRec, String> {
    let (route, route_span) =
        spans.time("router.route", Some(root), rid, || fleet.router.route(req));
    if route != Some(backend) {
        return Err(format!(
            "router.route sent {} to {route:?}, the request went to {backend}",
            req.target
        ));
    }
    let (hit, hit_span) = spans.time("router.request.hit", Some(root), rid, || {
        fleet.router.request(req)
    });
    let hit = hit.map_err(|e| format!("routed hit on {}: {e}", req.target))?;
    let direct = prober.round_trip(fleet.addr(backend), req, spans, root, rid)?;
    let (svc, svc_span) = spans.time("service.hit", Some(root), rid, || {
        fleet.servers[backend].service().compile(req)
    });
    let svc = svc.map_err(|e| format!("in-process hit on {}: {e}", req.target))?;
    if !hit.response.cached || !direct.response.cached || !svc.cached {
        return Err(format!(
            "probe of {} on {} was not a cache hit",
            req.compiler, req.target
        ));
    }
    let fp = fingerprint(&direct.response.result);
    if fingerprint(&hit.response.result) != fp || fingerprint(&svc.result) != fp {
        return Err(format!(
            "{} on {}: routed, direct and in-process bytes differ",
            req.compiler, req.target
        ));
    }
    Ok(ProbeRec {
        key: req.key_digest(),
        fp,
        route_ms: spans.spans[route_span].ms(),
        routed_ms: spans.spans[hit_span].ms(),
        routed_wall_ms: hit.response.wall_s * 1e3,
        direct,
        service_hit_us: spans.spans[svc_span].ms() * 1e3,
    })
}

/// Warms the `wire-hot` universe through the router with both clients.
fn warm(fleet: &Fleet, universe: &[Template]) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    for t in universe.iter().skip(c).step_by(CLIENTS) {
                        let req = t.request(0);
                        match fleet.router.request(&req) {
                            Ok(r) => log.observe(*t, &req, &r.response),
                            Err(e) => log
                                .failures
                                .push(format!("warm-up {} on {}: {e}", t.compiler, t.target)),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    })
}

/// The `wire-cold` set-up pass: the fleet's first routed answer, for a
/// small key the measured mix never asks for.
fn first_answer(fleet: &Fleet, setup: u64) -> ClientLog {
    let mut log = ClientLog::default();
    let template = Template::new("lnn", "lnn:4", 1).verified();
    let req = template.request(u64::MAX - setup);
    match fleet.router.request(&req) {
        Ok(r) => log.observe(template, &req, &r.response),
        Err(e) => log.failures.push(format!("set-up request: {e}")),
    }
    log
}

/// Tail percentiles (per-mille). wire-hot takes the rule's p99 at its
/// ~2900 samples per 40 s run. wire-cold's ~2000 samples would also allow
/// p99, but that percentile sits on the few quadratic decodes of its
/// largest artifacts and spread 0.16 (IQR ÷ median, five seeds on a
/// shared 2-vCPU host) against 0.055 at p90, so wire-cold reports p90.
const HOT_TAIL: u64 = 990;
const COLD_TAIL: u64 = 900;

pub fn run(run: &Run, hot: bool) -> Outcome {
    let mut out = Outcome::default();
    let universe = hot_universe();
    let mix = cold_mix();
    let repeats = if hot { 3 } else { 5 };

    // Set-up, several times: build the fleet (and, for wire-hot, warm
    // the universe). The last fleet is the one measured.
    let mut setup_s = Vec::new();
    let mut fleet = None;
    let mut warm_logs = Vec::new();
    for i in 0..repeats as u64 {
        let t = Instant::now();
        let f = match Fleet::start() {
            Ok(f) => f,
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return out;
            }
        };
        let logs = if hot {
            warm(&f, &universe)
        } else {
            vec![first_answer(&f, i)]
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == repeats as u64 {
            fleet = Some(f);
            warm_logs = logs;
        } else {
            f.stop();
        }
    }
    let fleet = fleet.expect("at least one set-up");
    let serve_before = fleet.serve_stats();
    let states_before = fleet.router.backend_states();

    let templates: Vec<Template> = if hot {
        universe.clone()
    } else {
        mix.iter().map(|m| m.0).collect()
    };
    let sequence = Sequence::new(hot, run.seed, &mix);
    let origin = Instant::now();
    let inflight: [Mutex<Option<(Template, CompileRequest)>>; CLIENTS] = Default::default();
    let results: Vec<(ClientLog, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (fleet, inflight, templates, sequence) =
                    (&fleet, &inflight, &templates, &sequence);
                s.spawn(move || client_loop(fleet, run, c, templates, sequence, inflight, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Peak memory and counters of set-up plus the measured phases, before
    // the probes and the checks.
    out.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    let serve_after = fleet.serve_stats();
    let net_after = fleet.net_stats();
    let states_after = fleet.router.backend_states();

    // The traced run's layer probes, both clients at once.
    let probes: Vec<ProbePass> = if run.trace {
        std::thread::scope(|s| {
            let handles: Vec<_> = results
                .iter()
                .enumerate()
                .map(|(c, (log, _))| {
                    let fleet = &fleet;
                    s.spawn(move || probe_pass(fleet, c, &log.recent, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        })
    } else {
        Vec::new()
    };

    // Merge the client logs.
    let mut spans = SpanLog::new(origin);
    let mut logs = Vec::new();
    for (log, s) in results {
        spans.absorb(s);
        logs.push(log);
    }
    let mut failures = Vec::new();
    let mut recs = Vec::new();
    for pass in probes {
        spans.absorb(pass.spans);
        failures.extend(pass.failures);
        recs.extend(pass.recs);
    }
    let mut refs: HashMap<u128, Reference> = HashMap::new();
    for log in warm_logs.iter_mut().chain(logs.iter_mut()) {
        failures.append(&mut log.failures);
        for (key, r) in log.refs.drain() {
            match refs.get(&key) {
                Some(mine) if mine.fp != r.fp => failures.push(format!(
                    "{} on {}: clients saw different artifacts for one key",
                    r.request.compiler, r.request.target
                )),
                Some(_) => {}
                None => {
                    refs.insert(key, r);
                }
            }
        }
    }
    for rec in &recs {
        if refs.get(&rec.key).is_some_and(|r| r.fp != rec.fp) {
            failures.push("a later hit served other bytes than the key's first answer".to_string());
        }
    }
    let sum = |f: &dyn Fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>();
    let cat = |f: &dyn Fn(&ClientLog) -> &Vec<f64>| {
        logs.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let lat = cat(&|l| &l.lat_ms);
    let traced_lat = cat(&|l| &l.traced_lat_ms);
    let untraced_s = logs.iter().map(|l| l.untraced_s).fold(0.0, f64::max);
    let traced_s = logs.iter().map(|l| l.traced_s).fold(0.0, f64::max);
    let requests = (lat.len() + traced_lat.len()) as u64;
    out.attempted = requests + failures.len() as u64;

    // Direct compiles, outside the timed region: every template at seed
    // 0. Their depths and SWAPs are the kernel sums (exact, whatever the
    // run seed), and traced they time the compile, pass and symbolic
    // layers.
    let mut compile = CompileLayer::default();
    let mut direct: HashMap<u128, CompileResult> = HashMap::new();
    for (i, t) in templates.iter().enumerate() {
        let req = t.request(0);
        match compile.compile(&req, &mut spans, u64::MAX - i as u64) {
            Ok(k) => {
                direct.insert(req.key_digest(), k);
            }
            Err(e) => failures.push(e),
        }
    }
    let (depth_sum, swaps_sum) = kernel_sums(direct.values());

    // Output checks: every distinct served kernel must be the direct
    // compile of its request and pass the independent checks; then the
    // bytes of a sample of keys on every backend.
    let mut distinct: BTreeMap<u64, &Reference> = BTreeMap::new();
    for r in refs.values() {
        distinct.entry(r.fp).or_insert(r);
    }
    let mut keys: Vec<&u128> = refs.keys().collect();
    keys.sort();
    let step = (keys.len() / CROSS_CHECK_KEYS).max(1);
    let sample: Vec<&Reference> = keys
        .iter()
        .step_by(step)
        .take(CROSS_CHECK_KEYS)
        .map(|k| &refs[*k])
        .collect();
    let mut sim = SimLayer::default();
    let mut sizes = Vec::new();
    let mut want: HashMap<u64, String> = HashMap::new();
    for (fp, r) in &distinct {
        let fresh;
        let kernel = match direct.get(&r.request.key_digest()) {
            Some(k) => k,
            None => match compile_direct(&r.request) {
                Ok(k) => {
                    fresh = k;
                    &fresh
                }
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            },
        };
        if fingerprint(kernel) != *fp {
            failures.push(format!(
                "{} on {}: the served kernel is not the direct compile of its request",
                r.request.compiler, r.request.target
            ));
            continue;
        }
        let rec = check_kernel(&r.request.target, r.template.degree, kernel);
        sim.record_check(&rec);
        failures.extend(rec.failures);
        let json = serde_json::to_string(kernel).unwrap_or_default();
        sizes.push(json.len() as f64 / 1024.0);
        if sample.iter().any(|s| s.fp == *fp) {
            want.insert(*fp, json);
        }
    }
    failures.extend(cross_backend_bytes(&fleet, &sample, &want));
    for f in failures {
        out.fail(f);
    }

    // End-to-end metrics (untraced phase).
    let declared = if hot { HOT_TAIL } else { COLD_TAIL };
    let s = summarize(&lat, declared);
    out.samples = s.n;
    out.tail_label = crate::stats::percentile_label(s.tail_permille);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("latency_p50_ms", s.p50);
    out.e2e.insert("latency_tail_ms", s.tail);
    out.e2e
        .insert("throughput_rps", lat.len() as f64 / untraced_s.max(1e-9));
    out.e2e.insert("kernel_depth_sum", depth_sum);
    out.e2e.insert("kernel_swaps_sum", swaps_sum);

    // Workload properties behind the numbers.
    let served = sum(&|l| l.hits + l.misses + l.dedups).max(1) as f64;
    out.property(
        "clients",
        format!("{CLIENTS} closed-loop → Router → {BACKENDS} backends"),
    );
    out.property(
        "hit_share",
        format!("{:.3}", sum(&|l| l.hits) as f64 / served),
    );
    out.property(
        "dedup_share",
        format!("{:.3}", sum(&|l| l.dedups) as f64 / served),
    );
    out.property(
        "duplicate_share",
        format!("{:.3}", sum(&|l| l.dup_sent) as f64 / served),
    );
    let bucket = |lo: f64, hi: f64| {
        sizes.iter().filter(|&&kb| kb > lo && kb <= hi).count() as f64 / sizes.len().max(1) as f64
    };
    out.property(
        "artifact_kb_buckets",
        format!(
            "<=16 KB {:.2} / 16-48 KB {:.2} / >48 KB {:.2} over {} distinct kernels",
            bucket(0.0, 16.0),
            bucket(16.0, 48.0),
            bucket(48.0, f64::INFINITY),
            sizes.len()
        ),
    );
    out.property("sim_tiers", sim.split());
    out.property("setup_runs", setup_s.len().to_string());

    if run.trace {
        let mut layers = BTreeMap::new();
        let pm = |f: &dyn Fn(&ProbeRec) -> f64| recs.iter().map(f).collect::<Vec<f64>>();
        if !recs.is_empty() {
            layers.insert(
                "client.encode_request_us",
                median(&pm(&|p| p.direct.encode_request_ms * 1e3)),
            );
            let decode = pm(&|p| p.direct.decode_ms);
            layers.insert("client.decode_ms.p50", median(&decode));
            layers.insert("client.decode_ms.p99", percentile(&decode, 990));
            let sized: Vec<(usize, f64)> = recs
                .iter()
                .map(|p| (p.direct.payload_bytes, p.direct.decode_ms))
                .collect();
            let (small, large) = decode_ms_per_mb(&sized);
            if let Some(v) = small {
                layers.insert("client.decode_ms_per_mb.small", v);
            }
            if let Some(v) = large {
                layers.insert("client.decode_ms_per_mb.large", v);
            }
            let kb = pm(&|p| p.direct.payload_bytes as f64 / 1024.0);
            layers.insert("proto.response_kb.p50", median(&kb));
            layers.insert(
                "proto.response_kb.max",
                kb.iter().copied().fold(0.0, f64::max),
            );
            layers.insert(
                "proto.encode_response_ms",
                median(&pm(&|p| p.direct.encode_response_ms)),
            );
            layers.insert("server.wait_ms", median(&pm(&ProbeRec::server_wait_ms)));
            // Reconciliation: each routed hit against the sum of its
            // parts, each part timed on a call of its own. Medians, since
            // two round trips to one key land on different server ticks.
            let routed = median(&pm(&|p| p.routed_ms));
            let unexplained = median(&pm(&|p| p.routed_ms - p.parts_ms()));
            let gap = unexplained.abs() / routed.max(1e-9);
            layers.insert("trace.reconcile_gap_share", gap);
            if gap > crate::report::RECONCILE_MAX_GAP {
                out.fail(format!(
                    "trace does not reconcile: {unexplained:.3} ms of a {routed:.3} ms routed hit is not in its parts, gap {gap:.3} (limit {})",
                    crate::report::RECONCILE_MAX_GAP
                ));
            }
            layers.insert("router.route_us", median(&pm(&|p| p.route_ms * 1e3)));
            layers.insert(
                "router.overhead_ms",
                median(&pm(&|p| p.routed_ms - p.direct.roundtrip_ms)),
            );
            layers.insert("service.hit_us", median(&pm(&|p| p.service_hit_us)));
        }
        let per_backend: Vec<u64> = (0..BACKENDS)
            .map(|b| logs.iter().map(|l| l.per_backend[b]).sum())
            .collect();
        let total: u64 = per_backend.iter().sum();
        layers.insert(
            "router.backend_share_max",
            *per_backend.iter().max().unwrap_or(&0) as f64 / total.max(1) as f64,
        );
        let failovers_after: u64 = states_after.iter().map(|s| s.failovers).sum();
        let failovers_before: u64 = states_before.iter().map(|s| s.failovers).sum();
        layers.insert(
            "router.failovers",
            (failovers_after - failovers_before) as f64,
        );
        layers.insert(
            "server.disconnects",
            net_after.iter().map(|n| n.disconnects as f64).sum(),
        );
        layers.insert(
            "server.proto_errors",
            net_after.iter().map(|n| n.proto_errors as f64).sum(),
        );
        let mut walls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for log in warm_logs.iter().chain(logs.iter()) {
            for (k, v) in &log.wall_ms {
                walls.entry(k).or_default().extend(v);
            }
        }
        for (k, v) in walls {
            layers.insert(k, median(&v));
        }
        let delta = |f: fn(&ServeStats) -> u64| {
            serve_after.iter().map(f).sum::<u64>() as f64
                - serve_before.iter().map(f).sum::<u64>() as f64
        };
        layers.insert("service.hits", delta(|s| s.hits));
        layers.insert("service.misses", delta(|s| s.misses));
        layers.insert("service.dedup_joins", delta(|s| s.dedup_joins));
        layers.insert("service.shed", delta(|s| s.shed));
        layers.insert("service.evictions", delta(|s| s.evictions));
        let all_misses: u64 = serve_after.iter().map(|s| s.misses).sum();
        layers.insert(
            "service.compiles_per_key",
            all_misses as f64 / refs.len().max(1) as f64,
        );
        compile.fold(&mut layers);
        sim.fold(&mut layers);

        let untraced = summarize(&lat, declared);
        let traced = summarize(&traced_lat, declared);
        layers.insert("trace.overhead.latency_p50_ms", traced.p50 - untraced.p50);
        layers.insert(
            "trace.overhead.throughput_rps",
            traced_lat.len() as f64 / traced_s.max(1e-9) - lat.len() as f64 / untraced_s.max(1e-9),
        );
        out.layers = layers;
        crate::write_spans(run, &spans);
    }
    fleet.stop();
    out
}

/// Fetches each sampled key from every backend on a fresh connection and
/// compares the serialized artifact with the direct compile's bytes.
fn cross_backend_bytes(
    fleet: &Fleet,
    sample: &[&Reference],
    want: &HashMap<u64, String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in 0..BACKENDS {
        let mut client = match NetClient::connect(fleet.addr(b)) {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("cross-backend check: connect: {e}"));
                continue;
            }
        };
        for r in sample {
            let Some(want) = want.get(&r.fp) else {
                continue;
            };
            match client.request(&r.request) {
                Ok(resp) => {
                    let got = serde_json::to_string(&*resp.result).unwrap_or_default();
                    if got != *want || want.is_empty() {
                        failures.push(format!(
                            "{} on {}: backend {b} serves different bytes",
                            r.request.compiler, r.request.target
                        ));
                    }
                }
                Err(e) => failures.push(format!("cross-backend check on backend {b}: {e}")),
            }
        }
        let _ = client.goodbye();
    }
    failures
}
