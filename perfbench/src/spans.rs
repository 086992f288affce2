//! In-memory span recording for the traced run, and the per-layer
//! self-time breakdown computed from it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (plus a few synthetic children derived from
//! telemetry-registry deltas). A layer's self time is the duration of its
//! spans minus the part covered by their child spans; children may nest,
//! overlap each other (concurrent requests under one parent) or spill past
//! their parent, and only the covered part of the parent counts.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The workspace layers the breakdown attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    FaultsimMc,
    FaultsimSched,
    FaultsimTail,
    Engine,
    Memsim,
    Core,
    Ecc,
    Xedd,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::FaultsimMc,
        Layer::FaultsimSched,
        Layer::FaultsimTail,
        Layer::Engine,
        Layer::Memsim,
        Layer::Core,
        Layer::Ecc,
        Layer::Xedd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::FaultsimMc => "faultsim.mc",
            Layer::FaultsimSched => "faultsim.sched",
            Layer::FaultsimTail => "faultsim.tail",
            Layer::Engine => "engine",
            Layer::Memsim => "memsim",
            Layer::Core => "core",
            Layer::Ecc => "ecc",
            Layer::Xedd => "xedd",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0)
    }
}

/// One recorded span. `parent == 0` marks a root; `unit` is the request,
/// cell or operation the span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: Layer,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When disabled, [`Tracer::span`] only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (ids are reserved up front so children can name
    /// their parent before the parent closes).
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(span);
        }
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn span<T>(&self, layer: Layer, parent: u32, unit: u32, f: impl FnOnce(u32) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            layer,
            unit,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, in nanoseconds, indexed like [`Layer::ALL`].
pub fn self_times(spans: &[Span]) -> [u64; 8] {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = [0u64; 8];
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        out[s.layer.index()] += total - kids.min(total);
    }
    out
}

/// Writes spans as tab-separated `id parent layer unit start_ns end_ns`
/// lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tlayer\tunit\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.layer.name(),
            s.unit,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    fn self_of(spans: &[Span], layer: Layer) -> u64 {
        self_times(spans)[layer.index()]
    }

    #[test]
    fn leaf_span_is_all_self_time() {
        let s = [span(1, 0, Layer::Memsim, 10, 110)];
        assert_eq!(self_of(&s, Layer::Memsim), 100);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // xedd [0,100) > engine [10,60) > faultsim.mc [20,50)
        let s = [
            span(1, 0, Layer::Xedd, 0, 100),
            span(2, 1, Layer::Engine, 10, 60),
            span(3, 2, Layer::FaultsimMc, 20, 50),
            span(4, 1, Layer::Xedd, 70, 80),
        ];
        assert_eq!(self_of(&s, Layer::Xedd), 100 - 50 - 10 + 10);
        assert_eq!(self_of(&s, Layer::Engine), 50 - 30);
        assert_eq!(self_of(&s, Layer::FaultsimMc), 30);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&s).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent requests under one coalescing group: [10,50) and
        // [30,70) cover 60 of the parent's 100, not 80.
        let s = [
            span(1, 0, Layer::Xedd, 0, 100),
            span(2, 1, Layer::Engine, 10, 50),
            span(3, 1, Layer::Engine, 30, 70),
        ];
        assert_eq!(self_of(&s, Layer::Xedd), 40);
        assert_eq!(self_of(&s, Layer::Engine), 80);
    }

    #[test]
    fn children_spilling_past_the_parent_are_clipped() {
        let s = [
            span(1, 0, Layer::FaultsimSched, 100, 200),
            span(2, 1, Layer::FaultsimMc, 50, 150),
            span(3, 1, Layer::FaultsimMc, 180, 260),
        ];
        assert_eq!(self_of(&s, Layer::FaultsimSched), 100 - 50 - 20);
        // A child fully covering its parent leaves no self time, never a
        // negative one.
        let t = [
            span(1, 0, Layer::Core, 10, 20),
            span(2, 1, Layer::Ecc, 0, 30),
        ];
        assert_eq!(self_of(&t, Layer::Core), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(Layer::Core, 0, 0, |id| id + 1), 1);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let v = on.span(Layer::Core, 0, 7, |id| on.span(Layer::Ecc, id, 7, |_| 5));
        assert_eq!(v, 5);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, Layer::Ecc);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
