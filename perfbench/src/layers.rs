//! The traced run: fixed-work layer passes of every workload, alternately
//! untraced and traced (U T, then T U, so drift cancels) until most of the
//! time budget is spent, for the trace overhead and the traced spans'
//! per-layer self time; then the per-layer probes.
//!
//! Every traced result carries every per-layer metric whichever workload
//! is named; the named workload's passes run first in each round.

use crate::report::Outcome;
use crate::spans::{self, Layer, Tracer};
use crate::{datapath, perfsim, reliability, serve, time, WORKLOADS};
use std::time::{Duration, Instant};

/// Rounds of passes at the least, however short the budget.
const MIN_ROUNDS: u32 = 2;

pub fn run(first: &str, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let traced = Tracer::new(true);
    let off = Tracer::new(false);
    let mut order: Vec<&str> = vec![first];
    order.extend(WORKLOADS.iter().filter(|&&w| w != first));

    let mut perfsim_totals = None;
    let mut datapath_totals = None;
    // Wall seconds per workload: [untraced, traced].
    let mut walls = vec![[0.0f64; 2]; order.len()];
    let start = Instant::now();
    let mut rounds = 0u32;
    // The probes take the rest of the budget.
    while rounds < MIN_ROUNDS || start.elapsed() < budget.mul_f64(0.6) {
        let pair = if rounds.is_multiple_of(2) {
            [&off, &traced]
        } else {
            [&traced, &off]
        };
        for (w, wall) in order.iter().zip(walls.iter_mut()) {
            for tracer in pair {
                let ((), s) = time(|| match *w {
                    "reliability" => reliability::layer_pass(seed, tracer),
                    "perfsim" => {
                        let t = perfsim::layer_pass(seed, tracer);
                        if !tracer.enabled() {
                            perfsim_totals.get_or_insert(t);
                        }
                    }
                    "datapath" => {
                        let t = datapath::layer_pass(seed, tracer);
                        if !tracer.enabled() {
                            datapath_totals.get_or_insert(t);
                        }
                    }
                    _ => serve::layer_pass(seed, tracer),
                });
                wall[usize::from(tracer.enabled())] += s;
                out.attempted += 1;
            }
        }
        rounds += 1;
    }

    reliability::probes(seed, &mut out);
    if let Some(t) = &perfsim_totals {
        perfsim::probes(t, &mut out);
    }
    if let Some(t) = &datapath_totals {
        datapath::probes(t, seed, &mut out);
    }
    serve::probes(seed, &mut out);
    out.attempted += 4;

    // Self time per round: each round traces one pass of every workload.
    let spans = traced.spans();
    let self_ns = spans::self_times(&spans);
    for (layer, ns) in Layer::ALL.iter().zip(self_ns) {
        out.metric(
            &format!("{}.self_ms", layer.name()),
            ns as f64 / 1e6 / f64::from(rounds),
            "ms",
        );
    }
    for w in WORKLOADS {
        let i = order.iter().position(|&o| o == w).unwrap_or(0);
        out.metric(
            &format!("telemetry.trace_overhead.{w}"),
            walls[i][1] / walls[i][0] - 1.0,
            "ratio",
        );
    }
    let path = crate::out_dir().join(format!("{first}.spans.tsv"));
    if let Err(e) = spans::write_tsv(&path, &spans) {
        out.errors.push(format!("{}: {e}", path.display()));
    }
    out.note("rounds", f64::from(rounds), "count");
    out.note("spans", spans.len() as f64, "count");
    out
}
