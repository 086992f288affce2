//! The work-stealing chunk scheduler behind every faultsim estimate.
//!
//! Lifetime Monte-Carlo ([`crate::montecarlo`]) and the rare-event tail
//! engine ([`crate::rareevent`]) both cut their trial space into
//! fixed-size chunks and fan them out here. Workers claim chunk ids from
//! one shared counter until the space is exhausted, so no static
//! partition leaves a core idle while another finishes an expensive
//! slice. The scheduler performs no reduction: each worker's state comes
//! back to the caller, which folds it by its own determinism rule
//! (commutative `u64` merges for Monte-Carlo, a chunk-ordered `f64` fold
//! for tails). See DESIGN.md §9.2.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xed_telemetry::registry::metrics;
use xed_telemetry::trace::{self, Phase, SpanEvent};

/// Resolves a configured worker count: `0` means every available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Runs `body` once for every chunk id in `0..chunks` on
/// `min(threads, chunks)` scoped workers (`threads == 0` = all cores),
/// and returns each worker's final state plus the worker count.
///
/// Every worker starts from `init()` and claims chunk ids with one
/// relaxed `fetch_add`; `body(state, chunk)` simulates that chunk and
/// returns how many trials it held. Which worker runs which chunk is
/// arbitrary, so callers must fold the returned states by a rule that
/// does not depend on it.
///
/// Each chunk is timed into the `faultsim.steal.*`, `faultsim.chunk_ns`
/// and `faultsim.trial_ns` metrics when telemetry is on, and recorded as
/// a `SchedulerChunk` span under the caller's span when the calling
/// request is traced.
pub(crate) fn steal_chunks<W: Send>(
    threads: usize,
    chunks: u64,
    init: impl Fn() -> W + Sync,
    body: impl Fn(&mut W, u64) -> u64 + Sync,
) -> (Vec<W>, usize) {
    let workers = resolve_threads(threads).min(usize::try_from(chunks).unwrap_or(usize::MAX));
    let next_chunk = AtomicU64::new(0);
    // Capture the caller's span context before fanning out: the scoped
    // workers are fresh threads, so the tracing thread-local does not
    // propagate on its own.
    let span_ctx = trace::current();
    // Chunk-grain telemetry costs four atomic updates and two clock reads
    // per chunk — noise next to thousands of trials — and vanishes
    // entirely under `--no-telemetry`.
    let telemetry_on = xed_telemetry::enabled();
    let claim = || {
        let mut state = init();
        loop {
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            // Chunk wall time is reporting-only metadata, never fed back
            // into the simulation.
            let start = (telemetry_on || span_ctx.is_some()).then(Instant::now); // xed-lint: allow(XL005)
            let trials = body(&mut state, c);
            let Some(start) = start else { continue };
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if telemetry_on {
                metrics::FAULTSIM_STEAL_CHUNKS.incr();
                metrics::FAULTSIM_STEAL_CHUNK_TRIALS.record(trials);
                metrics::FAULTSIM_CHUNK_NS.record(ns);
                metrics::FAULTSIM_TRIAL_NS.record(ns / trials.max(1));
            }
            if let Some(ctx) = span_ctx {
                let t_end = trace::now_ns();
                trace::record_span(SpanEvent {
                    trace_id: ctx.trace_id,
                    span_id: trace::next_span_id(),
                    parent: ctx.span_id,
                    phase: Phase::SchedulerChunk,
                    a: trials,
                    t_start: t_end.saturating_sub(ns),
                    t_end,
                });
            }
        }
        state
    };
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles
            .into_iter()
            .map(|h| {
                // invariant: chunk bodies never panic; a worker panic is a
                // bug in the simulator itself, so propagate it.
                h.join().expect("scheduler worker panicked")
            })
            .collect()
    });
    (states, workers)
}
