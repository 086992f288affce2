//! `xed-telemetry`: the workspace-wide observability substrate
//! (DESIGN.md §11).
//!
//! Every runtime crate of the reproduction — the Monte-Carlo engine, the
//! cycle-level memory simulator, and the functional XED controllers —
//! reports what it did through this crate, so one `snapshot()` answers
//! "what did this run actually do": fault mix, decode outcomes, catch-word
//! collisions, queue occupancy, work-steal balance.
//!
//! # Design rules
//!
//! * **Zero dependencies, offline-friendly.** Pure `std`; the exporters
//!   hand-render JSON exactly like the rest of the workspace.
//! * **Allocation-free hot paths.** [`Counter`], [`Histogram`], [`Ring`],
//!   [`Tallies`], and the [`trace`] flight rings never touch the heap
//!   after construction (xed-lint XL009 is enforced over these modules).
//!   Allocation is confined to the snapshot/export layer, which runs once
//!   per report.
//! * **Owned tallies, publish-at-merge.** Code on a nanosecond budget
//!   (the Monte-Carlo trial loop, the batched line decode) accumulates
//!   into *owned* [`Tallies`] blocks with plain adds — zero atomics — and
//!   publishes the totals into the static [`registry`] counters once, at
//!   its natural merge point (end of `MonteCarlo::run_range`, end of a
//!   simulation). Owned [`LocalHistogram`]s do the same for distributions
//!   (the memory simulator's queue-depth and read-latency samples). Only
//!   genuinely cheap-per-event instrumentation (a histogram record per
//!   scheduler chunk) records live.
//! * **Stable dotted metric IDs.** Every metric is a static registered
//!   exactly once in [`registry::CATALOGUE`] under an ID like
//!   `faultsim.trials` or `core.xed.catchword_collisions`; xed-lint XL010
//!   cross-checks code usage, the catalogue, and the DESIGN.md §11 table.
//! * **Determinism untouched.** Telemetry is reporting-only metadata:
//!   nothing here feeds back into simulation state, and the global
//!   [`enabled`] switch lets benchmarks prove the overhead is noise.
//!
//! # Quick tour
//!
//! ```
//! use xed_telemetry::{registry, Tallies};
//!
//! // Hot loop: owned tallies, no atomics.
//! const DECODED: usize = 0;
//! const CORRECTED: usize = 1;
//! let mut t: Tallies<2> = Tallies::new();
//! t.bump(DECODED);
//! t.add(CORRECTED, 3);
//!
//! // Merge point: publish once into the static registry.
//! registry::metrics::ECC_LINES_DECODED.add(t.get(DECODED));
//!
//! // Report: snapshot everything that happened in this process.
//! let snap = registry::snapshot();
//! assert!(snap.get("ecc.lines_decoded").is_some());
//! println!("{}", snap.to_table());
//! ```

pub mod counter;
pub mod export;
pub mod hist;
pub mod registry;
pub mod ring;
pub mod span;
pub mod tally;
pub mod trace;

pub use counter::Counter;
pub use export::{HistogramSample, MetricSample, SampleValue, Snapshot};
pub use hist::{Histogram, LocalHistogram};
pub use registry::{snapshot, MetricDef, MetricSource};
pub use ring::{Event, EventKind, Ring};
pub use span::Span;
pub use tally::Tallies;
pub use trace::{SpanCtx, SpanEvent, TraceBuf};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global instrumentation switch (default: on). Cleared by benchmark
/// binaries' `--no-telemetry` flag so the CI overhead check can compare
/// instrumented vs. uninstrumented runs of the same build.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is enabled. A single relaxed load — callers on
/// hot paths gate their recording on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off process-wide. Release pairs with
/// the hot path's Relaxed `enabled()` loads (XA102 boundary).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Adds one to `c` when telemetry is enabled. The one-liner for
/// event-grain instrumentation sites (functional controllers, where a
/// relaxed add is far below the cost of the modeled operation).
#[inline]
pub fn tick(c: &Counter) {
    if enabled() {
        c.incr();
    }
}

/// Adds `n` to `c` when telemetry is enabled.
#[inline]
pub fn count(c: &Counter, n: u64) {
    if enabled() {
        c.add(n);
    }
}

/// Records `v` into `h` when telemetry is enabled.
#[inline]
pub fn observe(h: &Histogram, v: u64) {
    if enabled() {
        h.record(v);
    }
}

/// Publishes an owned histogram into `h` when telemetry is enabled.
pub fn publish(h: &Histogram, local: &LocalHistogram) {
    if enabled() {
        h.merge_from(local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_defaults_on_and_toggles() {
        // Other tests never touch the switch, so default-on is observable.
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
