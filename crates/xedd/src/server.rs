//! The daemon: a blocking-accept listener feeding a bounded queue drained
//! by a worker thread pool.
//!
//! Request lifecycle (DESIGN.md §15):
//!
//! 1. **Admission.** The acceptor thread pushes the connection onto a
//!    bounded queue. At the limit it sheds load instead: an immediate
//!    `503` (`xedd.shed`) — queueing deeper would only convert overload
//!    into timeouts.
//! 2. **Normalization.** A worker parses the request and builds the
//!    canonical engine [`Query`]; its 128-bit canonical key is the
//!    identity for both memoization and coalescing.
//! 3. **Memoization.** A key hit replays the stored response — including
//!    every streamed partial line — byte-for-byte in O(1).
//! 4. **Coalescing.** On a miss, the first request becomes the flight
//!    leader and evaluates once; concurrent identical requests follow the
//!    flight and stream the leader's bytes as they are produced.
//!
//! Responses carry `X-Xedd-Cache: hit | miss | coalesced` so clients (and
//! the selftest) can observe which path served them without the body
//! differing by a byte.
//!
//! Every request additionally runs under a trace id (honored from an
//! `X-Xedd-Trace` request header or freshly assigned), echoed back in the
//! response headers and threaded through the phase spans of DESIGN.md
//! §16: admission wait, cache lookup, coalesce lead/follow, evaluation,
//! and streaming all land in the per-thread flight-recorder rings,
//! dumpable via `/debug/flight` or on panic / shed bursts.

use crate::cache::MemoCache;
use crate::coalesce::{Coalescer, Join, LeaderGuard};
use crate::http;
use crate::render::{self, CachedResponse};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xed_faultsim::engine::Query;
use xed_faultsim::schemes::Scheme;
use xed_telemetry::registry::{self, metrics};
use xed_telemetry::trace::{self, Phase, SpanCtx, SpanEvent};

/// Per-connection socket read timeout: a stalled client must not pin a
/// worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Consecutive sheds that trigger one flight-recorder dump to stderr: a
/// burst means the daemon is drowning, and the rings hold exactly the
/// last requests' phase history an operator needs.
const SHED_BURST_DUMP: u32 = 8;

/// Build identity reported by `/healthz`; baked in at compile time when
/// the build sets `XEDD_GIT_HASH` (see `scripts/ci.sh`).
const GIT_HASH: &str = match option_env!("XEDD_GIT_HASH") {
    Some(hash) => hash,
    None => "unknown",
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct XeddConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Admission-control bound: accepted-but-unserviced connections
    /// beyond this are shed with `503`.
    pub queue_limit: usize,
    /// Memo-cache capacity in responses.
    pub cache_capacity: usize,
    /// Memo-cache lock stripes.
    pub cache_shards: usize,
    /// Whether request tracing (flight recorder + `/debug/flight`) is
    /// enabled. Span recording is gated on one relaxed atomic load when
    /// off.
    pub tracing: bool,
}

impl Default for XeddConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_limit: 64,
            cache_capacity: 256,
            cache_shards: 8,
            tracing: true,
        }
    }
}

/// State shared by the acceptor and every worker.
#[derive(Debug)]
struct Inner {
    cache: MemoCache,
    coalescer: Coalescer,
    /// Pending connections, each stamped with its enqueue time
    /// (`trace::now_ns`) so the dequeuing worker can reconstruct the
    /// admission-wait span.
    queue: Mutex<VecDeque<(TcpStream, u64)>>,
    queue_cv: Condvar,
    queue_limit: usize,
    shutdown: AtomicBool,
    /// Daemon start time, for the `/healthz` uptime report.
    started: Instant,
}

/// A running daemon. Dropping it shuts the listener and workers down.
#[derive(Debug)]
pub struct Server {
    port: u16,
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the acceptor plus worker pool.
    pub fn start(config: XeddConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .port();
        trace::set_trace_enabled(config.tracing);
        let inner = Arc::new(Inner {
            cache: MemoCache::new(config.cache_capacity, config.cache_shards),
            coalescer: Coalescer::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_limit: config.queue_limit.max(1),
            shutdown: AtomicBool::new(false),
            // Reporting-only wall clock (uptime in /healthz).
            started: Instant::now(), // xed-lint: allow(XL005)
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Server {
            port,
            inner,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The loopback address clients reach the daemon at.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Signals shutdown and joins the acceptor and workers. Queued
    /// connections are drained before workers exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        // Release pairs with the Acquire loads in the accept and worker
        // loops (the workspace's boundary ordering discipline, XA102).
        self.inner.shutdown.store(true, Ordering::Release);
        // Unblock the blocking accept with a throwaway connection; the
        // acceptor re-checks the flag before queueing anything.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        self.inner.queue_cv.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Dumps the flight recorder (every slot's retained spans) to stderr as
/// `xed-trace-spans-v1` JSON. Wired to the daemon's panic path and to
/// shed bursts — the moments when the last few requests' phase history
/// is worth keeping.
pub fn dump_flight_to_stderr(why: &str) {
    metrics::XEDD_FLIGHT_DUMPS.incr();
    let spans = xed_telemetry::export::collect_spans(None);
    eprintln!(
        "xedd: flight recorder dump ({why}): {} span(s)\n{}",
        spans.len(),
        xed_telemetry::export::spans_to_chrome_json(&spans)
    );
}

/// Accepts connections and applies admission control.
fn accept_loop(listener: &TcpListener, inner: &Inner) {
    // Consecutive sheds seen; one flight dump per burst (resets on the
    // first successful admission).
    let mut shed_burst = 0u32;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut queue = match inner.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if queue.len() >= inner.queue_limit {
            drop(queue);
            metrics::XEDD_SHED.incr();
            shed_burst += 1;
            if shed_burst == SHED_BURST_DUMP {
                dump_flight_to_stderr("shed burst");
            }
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                &[("Retry-After", "1")],
                "{\"error\":\"overloaded: request queue is full\"}",
            );
            continue;
        }
        shed_burst = 0;
        queue.push_back((stream, trace::now_ns()));
        metrics::XEDD_QUEUE_DEPTH.record(queue.len() as u64);
        drop(queue);
        inner.queue_cv.notify_one();
    }
}

/// Pops queued connections and serves them until shutdown.
fn worker_loop(inner: &Inner) {
    loop {
        let mut queue = match inner.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (stream, enqueued_ns) = loop {
            if let Some(entry) = queue.pop_front() {
                break entry;
            }
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = match inner.queue_cv.wait(queue) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        };
        drop(queue);
        handle_connection(inner, stream, enqueued_ns);
    }
}

/// Per-request trace identity: the id (honored from `X-Xedd-Trace` or
/// freshly assigned), the root span id that phase spans parent to, and
/// the id pre-rendered for the response echo header.
struct ReqCtx {
    trace_id: u64,
    root: u32,
    hex: String,
}

impl ReqCtx {
    fn new(request: &http::Request, enqueued_ns: u64, dequeued_ns: u64) -> Self {
        let trace_id = request.trace.unwrap_or_else(trace::next_trace_id);
        let root = trace::next_span_id();
        // The queue wait becomes the admission span only now: the trace
        // id lives in headers that are parsed after dequeue.
        trace::record_span(SpanEvent {
            trace_id,
            span_id: trace::next_span_id(),
            parent: root,
            phase: Phase::Admission,
            a: 0,
            t_start: enqueued_ns,
            t_end: dequeued_ns,
        });
        Self {
            trace_id,
            root,
            hex: format!("{trace_id:016x}"),
        }
    }

    /// The `X-Xedd-Trace` response header echoing this request's id.
    fn echo(&self) -> (&str, &str) {
        ("X-Xedd-Trace", self.hex.as_str())
    }

    /// Records a child-of-root span that started at `t_start` and closes
    /// now.
    fn child(&self, phase: Phase, a: u64, t_start: u64) {
        trace::record_span(SpanEvent {
            trace_id: self.trace_id,
            span_id: trace::next_span_id(),
            parent: self.root,
            phase,
            a,
            t_start,
            t_end: trace::now_ns(),
        });
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(inner: &Inner, stream: TcpStream, enqueued_ns: u64) {
    metrics::XEDD_REQUESTS.incr();
    let dequeued_ns = trace::now_ns();
    metrics::XEDD_PHASE_ADMISSION_NS.record(dequeued_ns.saturating_sub(enqueued_ns));
    // Wall-clock latency telemetry for /metrics; never in a response body.
    let started = Instant::now(); // xed-lint: allow(XL005)
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    match http::read_request(&mut reader) {
        Ok(request) if request.method == "GET" => {
            let ctx = ReqCtx::new(&request, enqueued_ns, dequeued_ns);
            trace::set_current(Some(SpanCtx {
                trace_id: ctx.trace_id,
                span_id: ctx.root,
            }));
            route(inner, &mut stream, &request, started, &ctx);
            trace::set_current(None);
            trace::record_span(SpanEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.root,
                parent: 0,
                phase: Phase::Request,
                a: 0,
                t_start: enqueued_ns,
                t_end: trace::now_ns(),
            });
        }
        Ok(request) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let body = format!(
                "{{\"error\":\"method {} not supported; use GET\"}}",
                request.method
            );
            let _ = http::write_response(&mut stream, 400, &[], &body);
        }
        Err(reason) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let body = format!(
                "{{\"error\":{}}}",
                xed_telemetry::export::json_string(&reason)
            );
            let _ = http::write_response(&mut stream, 400, &[], &body);
        }
    }
    metrics::XEDD_REQUEST_NS.record(started.elapsed().as_nanos() as u64);
}

fn route(
    inner: &Inner,
    stream: &mut TcpStream,
    request: &http::Request,
    started: Instant,
    ctx: &ReqCtx,
) {
    match request.path.as_str() {
        "/healthz" => {
            let body = format!(
                "{{\"ok\":true,\"git\":\"{GIT_HASH}\",\"schemes\":{},\"uptime_seconds\":{}}}",
                Scheme::ALL.len(),
                inner.started.elapsed().as_secs()
            );
            let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            metrics::XEDD_ENDPOINT_HEALTHZ_NS.record(started.elapsed().as_nanos() as u64);
        }
        "/metrics" => {
            let prometheus = request
                .params
                .iter()
                .any(|(name, value)| name == "format" && value == "prometheus");
            if prometheus {
                let _ = http::write_response_typed(
                    stream,
                    200,
                    "text/plain; version=0.0.4",
                    &[ctx.echo()],
                    &registry::snapshot().to_prometheus_text(),
                );
            } else {
                let body = format!(
                    "{{\"schema\":\"xedd-metrics-v1\",\"metrics\":{}}}",
                    registry::snapshot().to_json_array()
                );
                let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            }
            metrics::XEDD_ENDPOINT_METRICS_NS.record(started.elapsed().as_nanos() as u64);
        }
        "/debug/flight" => {
            metrics::XEDD_FLIGHT_DUMPS.incr();
            let filter = request
                .params
                .iter()
                .find(|(name, _)| name == "trace")
                .and_then(|(_, value)| http::parse_trace_id(value));
            let body = xed_telemetry::export::spans_to_chrome_json(
                &xed_telemetry::export::collect_spans(filter),
            );
            let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            metrics::XEDD_ENDPOINT_FLIGHT_NS.record(started.elapsed().as_nanos() as u64);
        }
        "/v1/query" => {
            handle_query(inner, stream, &request.params, started, ctx);
            metrics::XEDD_ENDPOINT_QUERY_NS.record(started.elapsed().as_nanos() as u64);
        }
        _ => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let _ = http::write_response(stream, 404, &[], "{\"error\":\"no such route\"}");
        }
    }
}

/// Records time-to-first-content once per request.
#[derive(Debug)]
struct Ttfc {
    started: Instant,
    recorded: bool,
}

impl Ttfc {
    fn new(started: Instant) -> Self {
        Self {
            started,
            recorded: false,
        }
    }

    fn mark(&mut self) {
        if !self.recorded {
            self.recorded = true;
            metrics::XEDD_TTFC_NS.record(self.started.elapsed().as_nanos() as u64);
        }
    }
}

fn handle_query(
    inner: &Inner,
    stream: &mut TcpStream,
    params: &[(String, String)],
    started: Instant,
    ctx: &ReqCtx,
) {
    // `partials` is transport framing, not query identity: strip it
    // before the canonical key is derived.
    let mut partials: Option<bool> = None;
    let mut engine_params = Vec::with_capacity(params.len());
    for (name, value) in params {
        if name == "partials" {
            match value.as_str() {
                "1" | "true" | "yes" => partials = Some(true),
                "0" | "false" | "no" => partials = Some(false),
                _ => {
                    metrics::XEDD_HTTP_ERRORS.incr();
                    let _ = http::write_response(
                        stream,
                        400,
                        &[],
                        "{\"error\":\"parameter partials: expected a boolean\"}",
                    );
                    return;
                }
            }
        } else {
            engine_params.push((name.clone(), value.clone()));
        }
    }
    let query = match http::query_from_params(&engine_params) {
        Ok(query) => query,
        Err(reason) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let body = format!(
                "{{\"error\":{}}}",
                xed_telemetry::export::json_string(&reason)
            );
            let _ = http::write_response(stream, 400, &[], &body);
            return;
        }
    };
    // Streamed partial-confidence framing: on by default for early-stop
    // queries (the partials are the point), overridable either way.
    let streaming = partials.unwrap_or(query.epsilon.is_some());
    let mut ttfc = Ttfc::new(started);

    let t_cache = trace::now_ns();
    let key = query.canonical_key();
    let cached = inner.cache.lookup(&key);
    metrics::XEDD_PHASE_CACHE_NS.record(trace::now_ns().saturating_sub(t_cache));
    ctx.child(Phase::CacheLookup, u64::from(cached.is_some()), t_cache);
    if let Some(cached) = cached {
        serve_cached(stream, &cached, streaming, "hit", &mut ttfc, ctx);
        return;
    }
    match inner.coalescer.join(key) {
        Join::Leader(leader) => {
            serve_as_leader(inner, stream, &query, leader, streaming, &mut ttfc, ctx);
        }
        Join::Follower(flight) => {
            metrics::XEDD_COALESCED.incr();
            let t_follow = trace::now_ns();
            // Recorded once the leader's result is in, before the last
            // bytes go out (as the leader's CoalesceLead span is), so a
            // client that has read the whole response finds the span.
            // `a` carries the leader's trace id: the cross-trace handoff
            // edge Perfetto can't draw but the selftest can assert.
            let end_follow = || {
                metrics::XEDD_PHASE_COALESCE_NS.record(trace::now_ns().saturating_sub(t_follow));
                ctx.child(Phase::CoalesceFollow, flight.leader_trace(), t_follow);
            };
            if streaming {
                if http::write_chunked_head(stream, &[("X-Xedd-Cache", "coalesced"), ctx.echo()])
                    .is_err()
                {
                    let _ = flight.wait();
                    return;
                }
                let result = flight.follow(|line| {
                    ttfc.mark();
                    metrics::XEDD_STREAM_CHUNKS.incr();
                    let _ = http::write_chunk(stream, line);
                });
                end_follow();
                match result {
                    Ok(response) => {
                        ttfc.mark();
                        metrics::XEDD_STREAM_CHUNKS.incr();
                        let _ = http::write_chunk(stream, &response.body);
                    }
                    Err(reason) => {
                        let _ = http::write_chunk(stream, &error_line(&reason));
                    }
                }
                let _ = http::write_chunked_end(stream);
            } else {
                let result = flight.wait();
                end_follow();
                match result {
                    Ok(response) => {
                        ttfc.mark();
                        let _ = http::write_response(
                            stream,
                            200,
                            &[("X-Xedd-Cache", "coalesced"), ctx.echo()],
                            &response.body,
                        );
                    }
                    Err(reason) => {
                        metrics::XEDD_HTTP_ERRORS.incr();
                        let body = format!(
                            "{{\"error\":{}}}",
                            xed_telemetry::export::json_string(&reason)
                        );
                        let _ = http::write_response(stream, 500, &[], &body);
                    }
                }
            }
        }
    }
}

/// Runs the one real evaluation for a flight, streaming to this client
/// and publishing every line to attached followers.
fn serve_as_leader(
    inner: &Inner,
    stream: &mut TcpStream,
    query: &Query,
    leader: LeaderGuard<'_>,
    streaming: bool,
    ttfc: &mut Ttfc,
    ctx: &ReqCtx,
) {
    metrics::XEDD_EVALUATIONS.incr();
    // Announce our trace id so followers can record the handoff edge.
    leader.set_trace(ctx.trace_id);
    let head_ok = if streaming {
        http::write_chunked_head(stream, &[("X-Xedd-Cache", "miss"), ctx.echo()]).is_ok()
    } else {
        true
    };
    // The evaluation runs under a CoalesceLead span so engine-side spans
    // (Evaluate, SchedulerChunk) nest beneath it, not the root.
    let lead_span = trace::next_span_id();
    trace::set_current(Some(SpanCtx {
        trace_id: ctx.trace_id,
        span_id: lead_span,
    }));
    let t_eval = trace::now_ns();
    let result = render::evaluate_to_response(query, |line| {
        leader.publish_line(line);
        if streaming && head_ok {
            ttfc.mark();
            metrics::XEDD_STREAM_CHUNKS.incr();
            let _ = http::write_chunk(stream, line);
        }
    });
    metrics::XEDD_PHASE_EVALUATE_NS.record(trace::now_ns().saturating_sub(t_eval));
    trace::set_current(Some(SpanCtx {
        trace_id: ctx.trace_id,
        span_id: ctx.root,
    }));
    trace::record_span(SpanEvent {
        trace_id: ctx.trace_id,
        span_id: lead_span,
        parent: ctx.root,
        phase: Phase::CoalesceLead,
        a: 0,
        t_start: t_eval,
        t_end: trace::now_ns(),
    });
    match result {
        Ok(response) => {
            let response = Arc::new(response);
            if crate::json::field(&response.body, "early_stop") == Some("true") {
                metrics::XEDD_EARLY_STOPS.incr();
            }
            inner.cache.insert(*leader.key(), Arc::clone(&response));
            leader.finish(Ok(Arc::clone(&response)));
            if streaming {
                if head_ok {
                    ttfc.mark();
                    metrics::XEDD_STREAM_CHUNKS.incr();
                    let _ = http::write_chunk(stream, &response.body);
                    let _ = http::write_chunked_end(stream);
                }
            } else {
                ttfc.mark();
                let _ = http::write_response(
                    stream,
                    200,
                    &[("X-Xedd-Cache", "miss"), ctx.echo()],
                    &response.body,
                );
            }
        }
        Err(reason) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            leader.finish(Err(reason.clone()));
            if streaming {
                if head_ok {
                    let _ = http::write_chunk(stream, &error_line(&reason));
                    let _ = http::write_chunked_end(stream);
                }
            } else {
                let body = format!(
                    "{{\"error\":{}}}",
                    xed_telemetry::export::json_string(&reason)
                );
                let _ = http::write_response(stream, 400, &[], &body);
            }
        }
    }
}

/// Replays a memoized response — the O(1) repeat-query path. Byte-for-byte
/// identical to the cold response in both framings.
fn serve_cached(
    stream: &mut TcpStream,
    cached: &CachedResponse,
    streaming: bool,
    tag: &str,
    ttfc: &mut Ttfc,
    ctx: &ReqCtx,
) {
    if streaming {
        let t_stream = trace::now_ns();
        if http::write_chunked_head(stream, &[("X-Xedd-Cache", tag), ctx.echo()]).is_err() {
            return;
        }
        for line in &cached.progress_lines {
            ttfc.mark();
            metrics::XEDD_STREAM_CHUNKS.incr();
            if http::write_chunk(stream, line).is_err() {
                return;
            }
        }
        ttfc.mark();
        metrics::XEDD_STREAM_CHUNKS.incr();
        let _ = http::write_chunk(stream, &cached.body);
        let _ = http::write_chunked_end(stream);
        metrics::XEDD_PHASE_STREAM_NS.record(trace::now_ns().saturating_sub(t_stream));
        ctx.child(Phase::Stream, cached.progress_lines.len() as u64, t_stream);
    } else {
        ttfc.mark();
        let _ = http::write_response(
            stream,
            200,
            &[("X-Xedd-Cache", tag), ctx.echo()],
            &cached.body,
        );
    }
}

fn error_line(reason: &str) -> String {
    format!(
        "{{\"error\":{},\"done\":true}}",
        xed_telemetry::export::json_string(reason)
    )
}
