//! The compile service: shared registry + persistent worker pool +
//! sharded result cache + singleflight miss deduplication.

use crate::cache::{self, CacheEntry, ShardedCache};
use crate::flight::{FlightRole, Singleflight};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use crate::types::{CompileRequest, CompileResponse, ServeError, ServeStats};
use crate::warmup::{OwnedPredicate, WarmupEntry, WarmupImport};
use qft_core::Registry;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default result-cache capacity (entries, summed across shards).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Default admission-queue capacity (jobs waiting for a worker).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Worker threads a fresh service owns: the machine's parallelism,
/// capped so a service never monopolizes a large host.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

/// What the service does when a submission finds the admission queue
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// The submitter's thread blocks until a worker frees queue space —
    /// backpressure propagates upstream. The default.
    #[default]
    Block,
    /// The submission is rejected immediately with a descriptive
    /// [`ServeError::overloaded`] (`kind = "overloaded"`) and counted in
    /// [`ServeStats::shed`]. For latency-sensitive front ends that would
    /// rather fail fast and retry elsewhere than queue behind a spike.
    Shed,
}

/// One queued compile job: the request, the submitter's sequence number,
/// and the channel its response goes back on.
#[derive(Debug)]
struct Job {
    req: CompileRequest,
    seq: u64,
    reply: mpsc::Sender<(u64, Result<CompileResponse, ServeError>)>,
}

/// Everything the worker threads share with the service handle.
#[derive(Debug)]
struct ServiceInner {
    registry: &'static Registry,
    cache: ShardedCache,
    flights: Singleflight,
    metrics: Metrics,
}

impl ServiceInner {
    /// The cache-only path: one shard lock, O(1) recency bump, `Arc`
    /// clone out. A hit is counted (one request, one hit) and answered;
    /// a miss counts nothing and returns `None`, never compiling — which
    /// is what lets a connection thread call it inline.
    fn serve_hit(&self, req: &CompileRequest) -> Option<CompileResponse> {
        let t0 = Instant::now();
        let key_json = req.cache_key();
        let entry = self.cache.get(cache::key_digest(&key_json), &key_json)?;
        Metrics::bump(&self.metrics.requests);
        Metrics::bump(&self.metrics.hits);
        Some(self.respond(
            t0,
            key_json,
            entry.cold_compile_s,
            entry.result,
            true,
            false,
        ))
    }

    /// The full serve path: [`ServiceInner::serve_hit`] → singleflight
    /// join → (leader only) validate + compile + publish. Runs on
    /// whichever thread calls it — a pool worker for queued traffic, the
    /// caller for [`CompileService::compile`].
    fn serve(&self, req: &CompileRequest) -> Result<CompileResponse, ServeError> {
        if let Some(hit) = self.serve_hit(req) {
            return Ok(hit);
        }
        let t0 = Instant::now();
        Metrics::bump(&self.metrics.requests);
        let key_json = req.cache_key();
        let key = cache::key_digest(&key_json);

        match self.flights.join(key) {
            FlightRole::Follower(slot) => {
                // Someone is already compiling this key: wait for their
                // broadcast instead of recompiling.
                Metrics::bump(&self.metrics.dedup_joins);
                match slot.wait() {
                    Ok((result, cold_s)) => {
                        Ok(self.respond(t0, key_json, cold_s, result, true, true))
                    }
                    Err(e) => {
                        Metrics::bump(&self.metrics.errors);
                        self.metrics.latency.record(t0.elapsed().as_secs_f64());
                        Err(e)
                    }
                }
            }
            FlightRole::Leader(slot) => {
                // Double-check: the previous leader retires its flight
                // only *after* inserting into the cache, so a key that
                // landed between our miss and our join is found here —
                // this is what makes "exactly one compile per distinct
                // key" exact rather than probabilistic.
                if let Some(entry) = self.cache.get(key, &key_json) {
                    self.flights.publish(
                        key,
                        &slot,
                        Ok((Arc::clone(&entry.result), entry.cold_compile_s)),
                    );
                    Metrics::bump(&self.metrics.hits);
                    return Ok(self.respond(
                        t0,
                        key_json,
                        entry.cold_compile_s,
                        entry.result,
                        true,
                        false,
                    ));
                }
                let outcome = req
                    .validate(self.registry)
                    .and_then(|(compiler, target)| compiler.compile(&target, &req.options));
                Metrics::bump(&self.metrics.misses);
                match outcome {
                    Err(e) => {
                        // Broadcast the failure so followers fail the
                        // same way; errors are never cached, so the next
                        // request for this key starts a fresh flight.
                        let e = ServeError::from(e);
                        self.flights.publish(key, &slot, Err(e.clone()));
                        Metrics::bump(&self.metrics.errors);
                        self.metrics.latency.record(t0.elapsed().as_secs_f64());
                        Err(e)
                    }
                    Ok(mut result) => {
                        let cold_s = result.compile_s;
                        result.strip_wall_times();
                        let result = Arc::new(result);
                        let evicted = self.cache.insert(
                            key,
                            CacheEntry {
                                result: Arc::clone(&result),
                                cold_compile_s: cold_s,
                                key_json: Arc::from(key_json.as_str()),
                            },
                        );
                        self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                        // Cache first, then retire the flight (see the
                        // double-check above for why this order matters).
                        self.flights
                            .publish(key, &slot, Ok((Arc::clone(&result), cold_s)));
                        Ok(self.respond(t0, key_json, cold_s, result, false, false))
                    }
                }
            }
        }
    }

    fn respond(
        &self,
        t0: Instant,
        cache_key: String,
        cold_compile_s: f64,
        result: Arc<qft_core::CompileResult>,
        cached: bool,
        deduped: bool,
    ) -> CompileResponse {
        let wall_s = t0.elapsed().as_secs_f64();
        self.metrics.latency.record(wall_s);
        CompileResponse {
            cached,
            deduped,
            cache_key,
            wall_s,
            compile_s: cold_compile_s,
            result,
        }
    }
}

/// A thread-safe compile service over one shared [`Registry`].
///
/// Three tiers of admission, from hottest to coldest:
///
/// 1. **Sharded cache** — results live in N independently-locked LRU
///    shards keyed by the 128-bit digest of the canonical request JSON,
///    so cached hits from M threads convoy only on same-shard keys
///    instead of one global mutex.
/// 2. **Singleflight** — concurrent misses on the same key perform
///    exactly one compile: the first thread leads, duplicates block on
///    the in-flight slot and receive the same `Arc<CompileResult>`.
/// 3. **Persistent worker pool** — `workers` threads spawned once at
///    construction drain a bounded admission queue fed by
///    [`CompileService::stream`] sessions; a full queue either blocks the
///    submitter or sheds with `kind = "overloaded"` per the service's
///    [`Backpressure`] policy.
///
/// Artifacts are byte-deterministic: wall times are stripped before an
/// entry is cached, so every response for a given request — cold miss,
/// cache hit, or singleflight join, on any thread, from any service —
/// serializes identically. [`ServeStats`] surfaces the admission
/// metrics (hits/misses/dedup-joins/evictions/shed, queue depth, p50/p99
/// latency) from lock-free counters.
#[derive(Debug)]
pub struct CompileService {
    inner: Arc<ServiceInner>,
    queue: Arc<BoundedQueue<Job>>,
    backpressure: Backpressure,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Configures and builds a [`CompileService`].
///
/// ```
/// use qft_serve::{Backpressure, CompileService};
///
/// let service = CompileService::builder()
///     .cache_capacity(512)
///     .workers(4)
///     .queue_capacity(128)
///     .backpressure(Backpressure::Shed)
///     .build();
/// assert_eq!(service.workers(), 4);
/// ```
#[derive(Debug)]
pub struct ServiceBuilder {
    registry: &'static Registry,
    cache_capacity: usize,
    workers: usize,
    queue_capacity: usize,
    backpressure: Backpressure,
}

impl ServiceBuilder {
    /// Resolve compiler names through a caller-supplied registry (e.g.
    /// one extended with custom compilers). Must be `'static` because
    /// worker threads and cached artifacts outlive any one call.
    pub fn registry(mut self, registry: &'static Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Total result-cache entries across all shards (clamped to ≥ 1).
    /// The shard count follows from it: one shard per 4 entries, rounded
    /// down to a power of two ≤ 16, so small caches keep one shard and
    /// exact global LRU order.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Persistent worker threads (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Admission-queue capacity (clamped to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// What a submission does when the admission queue is full.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Builds the service and spawns its worker pool.
    pub fn build(self) -> CompileService {
        let inner = Arc::new(ServiceInner {
            registry: self.registry,
            cache: ShardedCache::new(self.cache_capacity),
            flights: Singleflight::new(),
            metrics: Metrics::new(),
        });
        let queue = Arc::new(BoundedQueue::<Job>::new(self.queue_capacity));
        let handles = (0..self.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("qft-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let response = inner.serve(&job.req);
                            // A dropped session stops caring about its
                            // replies; that is not a worker error.
                            let _ = job.reply.send((job.seq, response));
                        }
                    })
                    .expect("spawn qft-serve worker")
            })
            .collect();
        CompileService {
            inner,
            queue,
            backpressure: self.backpressure,
            workers: self.workers,
            handles,
        }
    }
}

impl CompileService {
    /// A builder with the defaults: shared registry, capacity
    /// [`DEFAULT_CACHE_CAPACITY`], machine-sized workers, queue capacity
    /// [`DEFAULT_QUEUE_CAPACITY`], [`Backpressure::Block`].
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            registry: crate::shared_registry(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            workers: default_workers(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            backpressure: Backpressure::Block,
        }
    }

    /// A service over the process-wide [`crate::shared_registry`] with
    /// every default.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// A service over the process-wide registry with an explicit cache
    /// capacity (clamped to ≥ 1) and worker count (clamped to ≥ 1).
    pub fn with_config(cache_capacity: usize, workers: usize) -> Self {
        Self::builder()
            .cache_capacity(cache_capacity)
            .workers(workers)
            .build()
    }

    /// The registry this service resolves compiler names through.
    pub fn registry(&self) -> &'static Registry {
        self.inner.registry
    }

    /// Persistent worker threads draining the admission queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The service's backpressure policy for queued submissions.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Serves one request synchronously **on the caller's thread** —
    /// the lowest-latency path, bypassing the admission queue (the
    /// caller's thread *is* the capacity being spent). Still goes
    /// through the sharded cache and singleflight, so concurrent callers
    /// deduplicate exactly like queued traffic.
    pub fn compile(&self, req: &CompileRequest) -> Result<CompileResponse, ServeError> {
        self.inner.serve(req)
    }

    /// Answers `req` from the cache alone, on the caller's thread, or
    /// returns `None` on a miss without compiling or counting anything.
    /// The network front end calls it before [`StreamSession::submit`],
    /// so a hit never waits behind the admission queue and is never shed.
    pub(crate) fn serve_hit(&self, req: &CompileRequest) -> Option<CompileResponse> {
        self.inner.serve_hit(req)
    }

    /// Opens a streaming session: submit requests as they arrive, receive
    /// responses as they complete (completion order, tagged with the
    /// submission sequence number). Backpressure applies per the
    /// service's policy at each [`StreamSession::submit`].
    pub fn stream(&self) -> StreamSession<'_> {
        let (reply_tx, reply_rx) = mpsc::channel();
        StreamSession {
            service: self,
            reply_tx,
            reply_rx,
            submitted: 0,
            received: 0,
        }
    }

    /// Applies the backpressure policy to one enqueue.
    fn enqueue(&self, job: Job) -> Result<(), ServeError> {
        match self.backpressure {
            Backpressure::Block => self
                .queue
                .push(job)
                .map_err(|_| ServeError::bad_request("service is shutting down")),
            Backpressure::Shed => match self.queue.try_push(job) {
                Ok(()) => Ok(()),
                Err(PushError::Full(_)) => {
                    Metrics::bump(&self.inner.metrics.shed);
                    Err(ServeError::overloaded(
                        self.queue.len(),
                        self.queue.capacity(),
                    ))
                }
                Err(PushError::Closed(_)) => {
                    Err(ServeError::bad_request("service is shutting down"))
                }
            },
        }
    }

    /// Exports every cache entry whose key digest the predicate claims,
    /// as verifiable [`WarmupEntry`] records (digests stamped at export,
    /// re-checked at import). Reads only the cache — the worker pool and
    /// admission queue are never touched, so a donor answers warm-up
    /// traffic at zero compile cost. Shards are locked one at a time;
    /// the export is a best-effort snapshot, not a consistent cut, which
    /// is exactly what a warm-up wants (entries compiled mid-export just
    /// arrive on the next probe or recompile).
    pub fn export_warmup(&self, predicate: &OwnedPredicate) -> Vec<WarmupEntry> {
        self.inner
            .cache
            .export_if(&|key| predicate.owns(key))
            .into_iter()
            .map(|(_, entry)| WarmupEntry::from_cache(&entry))
            .collect()
    }

    /// Bulk-imports replayed entries from a donor, idempotently.
    ///
    /// Every entry is re-verified against its embedded digests before it
    /// can touch the cache ([`WarmupEntry::verify`]): a corrupt or
    /// tampered entry is counted in [`WarmupImport::rejected`] and
    /// dropped, never inserted — a lying donor cannot poison this cache.
    /// Wall-clock timings are stripped on import (they measured the
    /// *donor's* machine), and insertion is insert-if-absent: an entry
    /// this service already holds — including one it compiled itself
    /// while the transfer was in flight — wins over the replayed copy,
    /// so double-importing the same batch is a no-op.
    pub fn import_warmup(&self, entries: &[WarmupEntry]) -> WarmupImport {
        let mut report = WarmupImport::default();
        for entry in entries {
            let key = match entry.verify() {
                Ok(key) => key,
                Err(_) => {
                    report.rejected += 1;
                    continue;
                }
            };
            let mut result = (*entry.result).clone();
            result.strip_wall_times();
            let cached = CacheEntry {
                result: Arc::new(result),
                cold_compile_s: entry.cold_compile_s,
                key_json: Arc::from(entry.key_json.as_str()),
            };
            match self.inner.cache.insert_if_absent(key, cached) {
                None => report.already_present += 1,
                Some(evicted) => {
                    report.imported += 1;
                    self.inner
                        .metrics
                        .evictions
                        .fetch_add(evicted, Ordering::Relaxed);
                }
            }
        }
        report
    }

    /// A snapshot of the admission metrics. Lock-free: counters are
    /// atomics and the latency window is a reservoir — only the cache
    /// occupancy sum briefly takes each shard lock in turn.
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        let (p50_s, p99_s) = m.latency.percentiles();
        ServeStats {
            workers: self.workers,
            cache_capacity: self.inner.cache.capacity(),
            cache_entries: self.inner.cache.len(),
            cache_shards: self.inner.cache.shard_count(),
            queue_capacity: self.queue.capacity(),
            queue_depth: self.queue.len() as u64,
            in_flight: self.inner.flights.len() as u64,
            requests: m.requests.load(Ordering::Relaxed),
            hits: m.hits.load(Ordering::Relaxed),
            misses: m.misses.load(Ordering::Relaxed),
            dedup_joins: m.dedup_joins.load(Ordering::Relaxed),
            evictions: m.evictions.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            p50_ms: p50_s * 1e3,
            p99_ms: p99_s * 1e3,
        }
    }

    /// Whether a request is currently resident in the cache (no recency
    /// bump — a pure inspection for tests and dashboards).
    pub fn is_cached(&self, req: &CompileRequest) -> bool {
        self.inner.cache.contains(req.key_digest())
    }
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CompileService {
    /// Closes the admission queue (pending jobs still drain) and joins
    /// the worker pool.
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A streaming submit/recv session over one service.
///
/// Submissions are tagged with a session-local sequence number (returned
/// by [`StreamSession::submit`]); responses arrive in **completion
/// order** via [`StreamSession::recv`], each carrying its tag, so a
/// client can pump requests and match responses without blocking on
/// head-of-line latency.
///
/// ```
/// use qft_serve::{CompileRequest, CompileService};
///
/// let service = CompileService::new();
/// let mut session = service.stream();
/// for n in [4usize, 5, 6] {
///     session.submit(CompileRequest::new("lnn", format!("lnn:{n}"))).unwrap();
/// }
/// let mut ns = Vec::new();
/// while let Some((_seq, resp)) = session.recv() {
///     ns.push(resp.unwrap().result.n);
/// }
/// ns.sort();
/// assert_eq!(ns, vec![4, 5, 6]);
/// ```
#[derive(Debug)]
pub struct StreamSession<'s> {
    service: &'s CompileService,
    reply_tx: mpsc::Sender<(u64, Result<CompileResponse, ServeError>)>,
    reply_rx: mpsc::Receiver<(u64, Result<CompileResponse, ServeError>)>,
    submitted: u64,
    received: u64,
}

impl StreamSession<'_> {
    /// Enqueues a request under the service's backpressure policy and
    /// returns its session-local sequence number. Under
    /// [`Backpressure::Shed`] a full queue rejects with
    /// `kind = "overloaded"` instead of blocking.
    pub fn submit(&mut self, req: CompileRequest) -> Result<u64, ServeError> {
        let seq = self.submitted;
        self.service.enqueue(Job {
            req,
            seq,
            reply: self.reply_tx.clone(),
        })?;
        self.submitted += 1;
        Ok(seq)
    }

    /// Responses submitted but not yet received.
    pub fn pending(&self) -> u64 {
        self.submitted - self.received
    }

    /// The next completed response (blocking), tagged with its
    /// submission sequence number; `None` once every submission has been
    /// received.
    pub fn recv(&mut self) -> Option<(u64, Result<CompileResponse, ServeError>)> {
        if self.received == self.submitted {
            return None;
        }
        let tagged = self.reply_rx.recv().ok()?;
        self.received += 1;
        Some(tagged)
    }

    /// The next completed response if one is already waiting
    /// (non-blocking); `None` when nothing has completed yet *or* every
    /// submission has been received — check [`StreamSession::pending`]
    /// to tell the two apart.
    pub fn try_recv(&mut self) -> Option<(u64, Result<CompileResponse, ServeError>)> {
        if self.received == self.submitted {
            return None;
        }
        let tagged = self.reply_rx.try_recv().ok()?;
        self.received += 1;
        Some(tagged)
    }

    /// The next completed response, waiting at most `timeout` for one;
    /// `None` on timeout or once every submission has been received.
    /// A network connection thread with nothing to read parks here, so
    /// a finished compile wakes it at once instead of on its next
    /// socket read-timeout tick.
    pub fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<(u64, Result<CompileResponse, ServeError>)> {
        if self.received == self.submitted {
            return None;
        }
        let tagged = self.reply_rx.recv_timeout(timeout).ok()?;
        self.received += 1;
        Some(tagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::CompileOptions;
    use std::sync::Barrier;

    #[test]
    fn cold_then_hot_roundtrip() {
        let service = CompileService::with_config(4, 2);
        let req = CompileRequest::new("lnn", "lnn:8");
        let cold = service.compile(&req).unwrap();
        assert!(!cold.cached && !cold.deduped);
        assert!(cold.compile_s > 0.0, "cold compile cost is preserved");
        assert_eq!(cold.result.compile_s, 0.0, "artifact wall times stripped");
        let hot = service.compile(&req).unwrap();
        assert!(hot.cached);
        assert_eq!(hot.compile_s, cold.compile_s);
        let stats = service.stats();
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.cache_entries, 1);
        assert!(stats.p50_ms > 0.0, "latency reservoir saw both requests");
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn serve_hit_answers_hits_and_leaves_misses_uncounted() {
        let service = CompileService::with_config(4, 1);
        let req = CompileRequest::new("lnn", "lnn:8");
        assert!(service.serve_hit(&req).is_none(), "a miss never compiles");
        assert_eq!(service.stats().requests, 0, "and counts nothing");
        assert!(!service.is_cached(&req));

        service.compile(&req).unwrap();
        let hit = service.serve_hit(&req).expect("cached after the compile");
        assert!(hit.cached && !hit.deduped);
        let stats = service.stats();
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
    }

    #[test]
    fn recv_timeout_waits_for_a_reply_and_gives_up_without_one() {
        let service = CompileService::with_config(4, 1);
        let mut session = service.stream();
        assert!(session.recv_timeout(Duration::from_secs(5)).is_none());
        session.submit(CompileRequest::new("lnn", "lnn:6")).unwrap();
        let (seq, resp) = session.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!((seq, resp.unwrap().result.n), (0, 6));
        assert_eq!(session.pending(), 0);
    }

    #[test]
    fn one_bad_request_never_poisons_a_session() {
        let service = CompileService::new();
        let reqs = [
            CompileRequest::new("lnn", "lnn:6"),
            CompileRequest::new("nope", "lnn:6"),
            CompileRequest::new("sycamore", "sycamore:3"),
            CompileRequest::new("lnn", "lnn:7")
                .with_options(CompileOptions::default().with_approximation(0)),
            CompileRequest::new("lnn", "lnn:8"),
        ];
        let mut session = service.stream();
        for req in reqs {
            session.submit(req).unwrap();
        }
        let mut outcomes: Vec<_> = std::iter::from_fn(|| session.recv()).collect();
        outcomes.sort_by_key(|(seq, _)| *seq);
        let kind = |i: usize| outcomes[i].1.as_ref().unwrap_err().kind.as_str();
        assert!(outcomes[0].1.is_ok() && outcomes[4].1.is_ok());
        assert_eq!(kind(1), "unknown-compiler");
        assert_eq!(kind(2), "invalid-target");
        assert_eq!(kind(3), "unsupported-option");
        assert_eq!(service.stats().errors, 3);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let service = CompileService::with_config(3, 1);
        for n in 4..9 {
            service
                .compile(&CompileRequest::new("lnn", format!("lnn:{n}")))
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.cache_shards, 1, "tiny caches stay single-shard");
        assert_eq!(stats.cache_entries, 3);
        assert_eq!(stats.evictions, 2);
        // The two oldest entries are gone; the three newest are resident.
        assert!(!service.is_cached(&CompileRequest::new("lnn", "lnn:4")));
        assert!(!service.is_cached(&CompileRequest::new("lnn", "lnn:5")));
        for n in 6..9 {
            assert!(service.is_cached(&CompileRequest::new("lnn", format!("lnn:{n}"))));
        }
    }

    #[test]
    fn duplicate_storm_performs_exactly_one_compile() {
        let service = CompileService::new();
        let req = CompileRequest::new("heavyhex", "heavyhex:3");
        let n_threads = 16;
        let barrier = Barrier::new(n_threads);
        let results: Vec<Arc<qft_core::CompileResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let (service, req, barrier) = (&service, &req, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        service.compile(req).expect("storm compile").result
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = service.stats();
        assert_eq!(stats.misses, 1, "exactly one compile under the storm");
        assert_eq!(stats.hits + stats.dedup_joins, n_threads as u64 - 1);
        assert_eq!(stats.requests, n_threads as u64);
        // Every response shares the one cached artifact — pointer-equal,
        // not merely byte-equal.
        for r in &results[1..] {
            assert!(Arc::ptr_eq(r, &results[0]), "storm responses must share");
        }
    }

    #[test]
    fn stream_session_tags_and_drains() {
        let service = CompileService::with_config(16, 2);
        let mut session = service.stream();
        let seqs: Vec<u64> = (4..10)
            .map(|n| {
                session
                    .submit(CompileRequest::new("lnn", format!("lnn:{n}")))
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(session.pending(), 6);
        let mut ns = Vec::new();
        while let Some((seq, resp)) = session.recv() {
            // seq k carried lnn:(4+k).
            assert_eq!(resp.unwrap().result.n, 4 + seq as usize);
            ns.push(seq);
        }
        ns.sort_unstable();
        assert_eq!(ns, seqs);
        assert_eq!(session.pending(), 0);
    }
}
