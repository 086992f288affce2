//! `serve`: an in-process `xedd` daemon on loopback, driven open-loop at
//! three fixed arrival rates by at most `nproc` generator threads (one
//! connection each).
//!
//! The request mix: repeat lifetime queries over a Zipf-popular key set
//! (cache hits); fresh lifetime keys at 200k trials (misses: evaluate and
//! insert, with the key universe above the cache capacity so evictions
//! happen); fresh `kind=tail` queries; `partials=1` streams; and pairs of
//! identical fresh queries due at the same instant (coalesced).

use crate::report::Outcome;
use crate::spans::{Layer, Span, Tracer};
use crate::stats::{self, OpenLoopSample};
use crate::{mix, nproc, percentiles, push_end_to_end, time, timed_setup};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xed_faultsim::engine::{self, Query};
use xed_faultsim::{CanonicalKey, Scheme};
use xed_telemetry::registry::metrics;
use xedd::{render, MemoCache, Server, XeddConfig};

/// Arrival rates of the three rate points, requests per second.
pub const RATES: [(&str, f64); 3] = [("low", 200.0), ("mid", 320.0), ("high", 900.0)];
/// The latency limit `slo_rps` holds each rate point's p99 to.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Popular (repeat) lifetime keys.
const POPULAR: usize = 48;
const POPULAR_SAMPLES: u64 = 100_000;
/// Trials of a fresh (miss) lifetime query.
const MISS_SAMPLES: u64 = 200_000;
/// Conditioned trials of a fresh tail query.
const TAIL_SAMPLES: u64 = 4_000;
/// Trial block of a streamed (`partials=1`) query.
const STREAM_BLOCK: u64 = 50_000;
/// Memo-cache capacity: below the run's key universe, so LRU evicts.
const CACHE_CAPACITY: usize = 128;

/// What a request is in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Miss,
    Tail,
    Stream,
    Coalesced,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub due_ns: u64,
    pub query: Query,
    pub target: String,
}

fn lifetime(scheme: Scheme, samples: u64, seed: u64) -> Query {
    Query::lifetime(scheme, samples, seed)
}

fn target(q: &Query, kind: Kind) -> String {
    let mut t = format!(
        "/v1/query?scheme={}&samples={}&seed={}",
        q.scheme.id(),
        q.samples,
        q.seed
    );
    match kind {
        Kind::Tail => t.push_str("&kind=tail"),
        Kind::Stream => t.push_str(&format!("&partials=1&block={STREAM_BLOCK}")),
        _ => {}
    }
    t
}

/// The popular key set.
pub fn popular(seed: u64) -> Vec<Query> {
    (0..POPULAR)
        .map(|i| {
            lifetime(
                Scheme::ALL[i % Scheme::ALL.len()],
                POPULAR_SAMPLES,
                mix(seed, 10_000 + i as u64),
            )
        })
        .collect()
}

/// The request mix per block of 100 requests (a coalesced pair is two).
const MIX: [(Kind, usize); 5] = [
    (Kind::Hit, 84),
    (Kind::Miss, 8),
    (Kind::Tail, 3),
    (Kind::Stream, 3),
    (Kind::Coalesced, 1),
];

/// A seed-determined request stream at a constant `rate` for `seconds`,
/// starting at `t0_ns`. Every block of 100 requests holds exactly the
/// [`MIX`], in a seed-shuffled order: the load a rate point offers is
/// then the same in every run, and only where the misses fall varies.
/// `fresh` numbers the fresh keys so no two streams of a run share one.
pub fn plan(seed: u64, rate: f64, seconds: f64, t0_ns: u64, fresh: &mut u64) -> Vec<Req> {
    let pop = popular(seed);
    // Zipf(1.1) weights over the popular keys.
    let weights: Vec<f64> = (1..=POPULAR).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let n = (rate * seconds) as usize;
    let mut reqs: Vec<Req> = Vec::with_capacity(n + 1);
    let mut block: Vec<Kind> = Vec::new();
    let mut i = 0u64;
    while reqs.len() < n {
        if block.is_empty() {
            block = MIX
                .iter()
                .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
                .collect();
            for j in (1..block.len()).rev() {
                block.swap(
                    j,
                    (mix(seed ^ *fresh, i + j as u64) % (j as u64 + 1)) as usize,
                );
            }
        }
        let kind = block.pop().unwrap_or(Kind::Hit);
        let due_ns = t0_ns + (reqs.len() as f64 / rate * 1e9) as u64;
        let key = *fresh + i;
        let scheme = Scheme::ALL[(mix(seed, key) % 7) as usize];
        let fresh_seed = mix(seed ^ 0xF2E5, key);
        let query = match kind {
            Kind::Hit => {
                let mut x = (mix(seed ^ 3, key) >> 11) as f64 / (1u64 << 53) as f64 * total;
                let k = weights
                    .iter()
                    .position(|w| {
                        x -= w;
                        x <= 0.0
                    })
                    .unwrap_or(POPULAR - 1);
                pop[k].clone()
            }
            Kind::Tail => {
                let s = [Scheme::XedChipkill, Scheme::DoubleChipkill][(fresh_seed & 1) as usize];
                Query::tail(s, TAIL_SAMPLES, fresh_seed)
            }
            Kind::Stream => {
                let mut q = lifetime(scheme, MISS_SAMPLES, fresh_seed);
                q.exec.block = STREAM_BLOCK;
                q
            }
            Kind::Miss | Kind::Coalesced => lifetime(scheme, MISS_SAMPLES, fresh_seed),
        };
        let copies = if kind == Kind::Coalesced { 2 } else { 1 };
        for _ in 0..copies {
            reqs.push(Req {
                due_ns,
                target: target(&query, kind),
                query: query.clone(),
            });
        }
        i += 1;
    }
    *fresh += i;
    reqs
}

/// A completed request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Done {
    pub idx: usize,
    pub sample: OpenLoopSample,
    pub connect_ns: u64,
    pub status: u16,
    pub cache: String,
    pub body: String,
}

/// Sends one request and reads the whole response.
fn fetch(addr: &str, target: &str) -> Result<(u64, u16, String, String), String> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_ns = t.elapsed().as_nanos() as u64;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let resp = xedd::http::read_client_response(&mut BufReader::new(stream))?;
    let cache = resp.header("x-xedd-cache").unwrap_or("").to_string();
    let body = match resp.chunks.last() {
        Some(last) => last.clone(),
        None => resp.body,
    };
    Ok((connect_ns, resp.status, cache, body))
}

/// Drives `reqs` open-loop: each generator thread takes the next request,
/// sleeps until it is due, and sends it. Latency is timed from the due
/// time, so a late generator shows up as latency.
pub fn drive(addr: &str, reqs: &[Req], clock: &Tracer, threads: usize) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(idx) else {
                    break;
                };
                let now = clock.now_ns();
                if req.due_ns > now {
                    std::thread::sleep(Duration::from_nanos(req.due_ns - now));
                }
                let sent_ns = clock.now_ns();
                let id = clock.reserve();
                let (connect_ns, status, cache, body) = match fetch(addr, &req.target) {
                    Ok(r) => r,
                    Err(e) => (0, 0, String::new(), e),
                };
                let done_ns = clock.now_ns();
                clock.record(Span {
                    id,
                    parent: 0,
                    layer: Layer::Xedd,
                    unit: idx as u32,
                    start_ns: sent_ns,
                    end_ns: done_ns,
                });
                let d = Done {
                    idx,
                    sample: OpenLoopSample {
                        due_ns: req.due_ns,
                        sent_ns,
                        done_ns,
                    },
                    connect_ns,
                    status,
                    cache,
                    body,
                };
                done.lock().unwrap_or_else(|p| p.into_inner()).push(d);
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(|p| p.into_inner());
    done.sort_by_key(|d| d.idx);
    done
}

/// A daemon with the popular keys already cached.
pub fn boot(seed: u64) -> Server {
    let server = Server::start(XeddConfig {
        cache_capacity: CACHE_CAPACITY,
        ..XeddConfig::default()
    })
    .expect("bind a loopback port");
    let addr = server.addr();
    for q in popular(seed) {
        let _ = fetch(&addr, &target(&q, Kind::Hit));
    }
    server
}

/// Checks every response of `done` against `reqs`: status 200, the same
/// body for every request of one canonical key (hits equal their miss,
/// coalesced followers their leader), and that body equal to an
/// in-process `engine::evaluate` of the query. Returns the number of
/// failed requests.
pub fn check(reqs: &[Req], done: &[Done], out: &mut Outcome, tracer: &Tracer) -> u64 {
    let mut failed = 0;
    let mut bodies: HashMap<CanonicalKey, (usize, &str)> = HashMap::new();
    for d in done {
        if d.status != 200 {
            failed += 1;
            out.errors.push(format!(
                "{}: status {} {}",
                reqs[d.idx].target,
                d.status,
                d.body.chars().take(80).collect::<String>()
            ));
            continue;
        }
        let key = reqs[d.idx].query.canonical_key();
        match bodies.get(&key) {
            Some((first, body)) => out.check(*body == d.body, || {
                format!(
                    "{}: body differs from request {first} of the same key",
                    reqs[d.idx].target
                )
            }),
            None => {
                bodies.insert(key, (d.idx, d.body.as_str()));
            }
        }
    }
    for (key, (idx, body)) in bodies {
        let q = &reqs[idx].query;
        let want = reference_body(q, key, tracer, idx as u32);
        out.check(want.as_deref() == Ok(body), || {
            format!(
                "{}: body differs from in-process evaluate",
                reqs[idx].target
            )
        });
    }
    failed
}

/// The response body an in-process evaluation of `q` renders.
fn reference_body(
    q: &Query,
    key: CanonicalKey,
    tracer: &Tracer,
    unit: u32,
) -> Result<String, String> {
    let estimate = evaluate_traced(q, tracer, 0, unit)?;
    Ok(render::final_body(q, &key, &estimate))
}

/// `engine::evaluate` inside an `engine` span; lifetime queries get a
/// synthetic `faultsim.mc` child from the chunk-histogram delta, tail
/// queries a `faultsim.tail` child covering the call.
pub fn evaluate_traced(
    q: &Query,
    tracer: &Tracer,
    parent: u32,
    unit: u32,
) -> Result<xed_faultsim::Estimate, String> {
    if !tracer.enabled() {
        return engine::evaluate(q);
    }
    let chunk_before = metrics::FAULTSIM_CHUNK_NS.sum();
    let id = tracer.reserve();
    let start_ns = tracer.now_ns();
    let est = engine::evaluate(q);
    let end_ns = tracer.now_ns();
    tracer.record(Span {
        id,
        parent,
        layer: Layer::Engine,
        unit,
        start_ns,
        end_ns,
    });
    let (layer, child_end) = match q.kind {
        engine::QueryKind::Lifetime => {
            let kernel =
                metrics::FAULTSIM_CHUNK_NS.sum().wrapping_sub(chunk_before) / nproc() as u64;
            (Layer::FaultsimMc, (start_ns + kernel).min(end_ns))
        }
        engine::QueryKind::Tail { .. } => (Layer::FaultsimTail, end_ns),
    };
    tracer.record(Span {
        id: tracer.reserve(),
        parent: id,
        layer,
        unit,
        start_ns,
        end_ns: child_end,
    });
    est
}

/// Per-rate results.
struct RatePoint {
    latencies: Vec<f64>,
    /// Per-slice nearest-rank p50 and p90.
    slice_p50: Vec<f64>,
    slice_p90: Vec<f64>,
    completed: u64,
    active_s: f64,
    misses: u64,
    backlog_growing: bool,
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let threads = nproc();
    let (server, setup_s) = timed_setup(|| boot(seed));
    let addr = server.addr();
    let clock = Tracer::new(false);

    // Sixteen slices, rotated by the seed so no rate always runs first:
    // four each at the mid and high rates, eight at the low rate whose
    // latency the end-to-end metrics report. Well under capacity, its
    // latency is the per-request cost with the least queueing to amplify
    // a busy machine; it is the median over its slices of each slice's
    // percentile, so a few seconds of contention move one slice, not the
    // run. Pooled, half the run gives the low rate's p99 twenty samples
    // beyond.
    let slice_s = budget.as_secs_f64() / 16.0;
    let mut order: Vec<usize> = [0usize, 1, 0, 2].repeat(4);
    order.rotate_left((seed % 4) as usize);
    let mut points: Vec<RatePoint> = (0..3)
        .map(|_| RatePoint {
            latencies: Vec::new(),
            slice_p50: Vec::new(),
            slice_p90: Vec::new(),
            completed: 0,
            active_s: 0.0,
            misses: 0,
            backlog_growing: false,
        })
        .collect();
    let mut all_reqs = Vec::new();
    let mut all_done = Vec::new();
    let mut fresh = 0u64;
    for &r in &order {
        let t0 = clock.now_ns() + 2_000_000;
        let reqs = plan(seed, RATES[r].1, slice_s, t0, &mut fresh);
        let done = drive(&addr, &reqs, &clock, threads);
        let p = &mut points[r];
        let end = done.iter().map(|d| d.sample.done_ns).max().unwrap_or(t0);
        let active_s = (end.saturating_sub(t0)) as f64 / 1e9;
        p.active_s += active_s;
        // A growing backlog: the last tenth of the slice ran later than
        // the whole limit on the generator's own clock.
        let tenth = done.len() / 10;
        if tenth > 0 {
            let late: Vec<f64> = done[done.len() - tenth..]
                .iter()
                .map(|d| d.sample.lateness_ms())
                .collect();
            p.backlog_growing |= stats::median(&late) > LATENCY_LIMIT_MS;
        }
        let mut slice = Vec::with_capacity(done.len());
        for d in &done {
            if d.status == 200 {
                p.completed += 1;
                slice.push(d.sample.latency_ms());
            } else {
                p.misses += 1;
                slice.push(f64::INFINITY);
            }
        }
        let [p50, p90, _] = percentiles(&slice);
        p.slice_p50.push(p50);
        p.slice_p90.push(p90);
        p.latencies.extend(slice);
        let base = all_reqs.len();
        all_done.extend(done.into_iter().map(|mut d| {
            d.idx += base;
            d
        }));
        all_reqs.extend(reqs);
    }
    out.attempted = all_reqs.len() as u64;
    server.shutdown();
    out.failed = check(&all_reqs, &all_done, &mut out, &clock);

    let mut slo = 0.0f64;
    for (i, (name, rate)) in RATES.iter().enumerate() {
        let p = &points[i];
        let n = p.latencies.len();
        out.check(stats::resolves(99.0, n, 10), || {
            format!("rate {name}: {n} requests leave fewer than 10 beyond p99")
        });
        let p50 = stats::percentile(&p.latencies, 50.0);
        let p99 = stats::percentile(&p.latencies, 99.0);
        out.note(&format!("p50_ms.{name}"), p50, "ms");
        out.note(&format!("p99_ms.{name}"), p99, "ms");
        if p99 <= LATENCY_LIMIT_MS && !p.backlog_growing && p.misses == 0 {
            slo = slo.max(*rate);
        }
    }
    let high = &points[2];
    let low = &points[0];
    let (p50, p90) = (stats::median(&low.slice_p50), stats::median(&low.slice_p90));
    push_end_to_end(
        &mut out,
        setup_s,
        high.completed as f64 / high.active_s,
        p50,
        p90,
    );
    out.note("slo_rps", slo, "req/s");
    out
}

/// The fixed-work layer pass: a fresh daemon (booted outside the timed
/// part) answers a fixed request list closed-loop, then the benchmark
/// replays each request through the daemon's public functions in process
/// — parse, canonical key, cache lookup, evaluate on a miss, render — in
/// nested spans.
pub fn layer_pass(seed: u64, tracer: &Tracer) {
    let server = boot(seed);
    let addr = server.addr();
    let mut fresh = 1 << 40;
    let mut reqs = plan(seed, 400.0, 0.5, 0, &mut fresh);
    for r in &mut reqs {
        r.due_ns = 0;
    }
    drive(&addr, &reqs, tracer, nproc());
    server.shutdown();
    replay(seed, &reqs, tracer);
}

/// Replays `reqs` through the daemon's request pipeline in process.
fn replay(seed: u64, reqs: &[Req], tracer: &Tracer) {
    let cache = MemoCache::new(CACHE_CAPACITY, 8);
    for q in popular(seed) {
        let key = q.canonical_key();
        if let Ok(est) = engine::evaluate(&q) {
            cache.insert(
                key,
                std::sync::Arc::new(render::CachedResponse {
                    key,
                    progress_lines: Vec::new(),
                    body: render::final_body(&q, &key, &est),
                }),
            );
        }
    }
    for (i, r) in reqs.iter().enumerate() {
        let unit = i as u32;
        tracer.span(Layer::Xedd, 0, unit, |root| {
            let raw = format!("GET {} HTTP/1.1\r\nHost: localhost\r\n\r\n", r.target);
            let query = tracer.span(Layer::Xedd, root, unit, |_| parse(&raw));
            let Ok(query) = query else {
                return;
            };
            let key = tracer.span(Layer::Engine, root, unit, |_| query.canonical_key());
            let hit = tracer.span(Layer::Xedd, root, unit, |_| cache.lookup(&key));
            if hit.is_none() {
                if let Ok(est) = evaluate_traced(&query, tracer, root, unit) {
                    let body = tracer.span(Layer::Xedd, root, unit, |_| {
                        render::final_body(&query, &key, &est)
                    });
                    cache.insert(
                        key,
                        std::sync::Arc::new(render::CachedResponse {
                            key,
                            progress_lines: Vec::new(),
                            body,
                        }),
                    );
                }
            }
        });
    }
}

/// The daemon's request parsing, through its public functions: the
/// request head, the query string and the engine query.
fn parse(raw: &str) -> Result<Query, String> {
    let req = xedd::http::read_request(&mut raw.as_bytes())?;
    let params: Vec<(String, String)> = req
        .params
        .into_iter()
        .filter(|(k, _)| k != "partials")
        .collect();
    xedd::http::query_from_params(&params)
}

/// Per-layer metrics of `xedd` and `engine`: a short open-loop run at the
/// mid rate against a fresh daemon (registry deltas, hit and miss
/// latency, connect time, generator lateness), then the daemon's public
/// functions timed on that run's request stream.
pub fn probes(seed: u64, out: &mut Outcome) {
    let server = boot(seed);
    let addr = server.addr();
    let clock = Tracer::new(false);
    let mut fresh = 1 << 41;
    xed_telemetry::registry::reset_all();
    let t0 = clock.now_ns() + 2_000_000;
    let reqs = plan(seed, RATES[1].1, 1.5, t0, &mut fresh);
    let done = drive(&addr, &reqs, &clock, nproc());
    let snap = xed_telemetry::snapshot();
    server.shutdown();
    let failed = check(&reqs, &done, out, &Tracer::new(false));
    out.check(failed == 0, || {
        format!("serve probe: {failed} requests failed")
    });

    let by = |class: &str| -> Vec<f64> {
        done.iter()
            .filter(|d| d.cache == class)
            .map(|d| d.sample.latency_ms())
            .collect()
    };
    let p50 = |v: Vec<f64>| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(&v)
        }
    };
    let connect: Vec<f64> = done.iter().map(|d| d.connect_ns as f64 / 1e3).collect();
    out.metric("xedd.connect_us", p50(connect), "us");
    out.metric("xedd.hit_ms.p50", p50(by("hit")), "ms");
    out.metric("xedd.miss_ms.p50", p50(by("miss")), "ms");
    let count = |id: &str| snap.counter(id).unwrap_or(0) as f64;
    let hits = count("xedd.cache.hits");
    out.metric(
        "xedd.hit_rate",
        hits / (hits + count("xedd.cache.misses")).max(1.0),
        "ratio",
    );
    out.metric("xedd.coalesced", count("xedd.coalesced"), "count");
    out.metric("xedd.evaluations", count("xedd.evaluations"), "count");
    out.metric("xedd.shed", count("xedd.shed"), "count");
    out.metric(
        "xedd.queue_depth.max",
        snap.histogram("xedd.queue.depth")
            .map_or(0.0, |h| h.max as f64),
        "count",
    );
    let late: Vec<f64> = done.iter().map(|d| d.sample.lateness_ms()).collect();
    out.metric(
        "xedd.gen_lateness_ms.p99",
        stats::percentile(&late, 99.0),
        "ms",
    );

    // The daemon's public functions on the same stream, many times over.
    const REPS: usize = 20;
    let raws: Vec<String> = reqs
        .iter()
        .map(|r| format!("GET {} HTTP/1.1\r\nHost: localhost\r\n\r\n", r.target))
        .collect();
    let (_, s) = time(|| {
        for _ in 0..REPS {
            for raw in &raws {
                std::hint::black_box(parse(raw).is_ok());
            }
        }
    });
    out.metric("xedd.parse_ns", s * 1e9 / (REPS * raws.len()) as f64, "ns");
    let (keys, s) = time(|| {
        let mut keys = Vec::with_capacity(reqs.len());
        for _ in 0..REPS {
            keys.clear();
            keys.extend(reqs.iter().map(|r| r.query.canonical_key()));
        }
        keys
    });
    out.metric(
        "engine.canonical_key_ns",
        s * 1e9 / (REPS * reqs.len()) as f64,
        "ns",
    );
    let cache = MemoCache::new(CACHE_CAPACITY, 8);
    let mut estimates = Vec::new();
    for q in popular(seed).iter().take(8) {
        let key = q.canonical_key();
        let est = engine::evaluate(q).expect("popular queries are valid");
        cache.insert(
            key,
            std::sync::Arc::new(render::CachedResponse {
                key,
                progress_lines: Vec::new(),
                body: render::final_body(q, &key, &est),
            }),
        );
        estimates.push((q.clone(), key, est));
    }
    let (_, s) = time(|| {
        for _ in 0..REPS {
            for k in &keys {
                std::hint::black_box(cache.lookup(k).is_some());
            }
        }
    });
    out.metric(
        "xedd.cache_lookup_ns",
        s * 1e9 / (REPS * keys.len()) as f64,
        "ns",
    );
    let (_, s) = time(|| {
        for _ in 0..REPS * 50 {
            for (q, k, e) in &estimates {
                std::hint::black_box(render::final_body(q, k, e).len());
            }
        }
    });
    out.metric(
        "xedd.render_us",
        s * 1e6 / (REPS * 50 * estimates.len()) as f64,
        "us",
    );
    let evals: Vec<f64> = (0..5)
        .map(|i| {
            let q = lifetime(
                Scheme::ALL[i % 7],
                MISS_SAMPLES,
                mix(seed, 20_000 + i as u64),
            );
            time(|| engine::evaluate(&q)).1 * 1e3
        })
        .collect();
    out.metric("engine.evaluate_ms", stats::median(&evals), "ms");
}
