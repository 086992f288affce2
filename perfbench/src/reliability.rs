//! `reliability`: lifetime Monte-Carlo over all seven schemes on one
//! shared pool, then importance-sampled tails for XED-on-Chipkill and
//! Double-Chipkill, at the Table I rates and the default thread count.

use crate::report::{Json, Outcome};
use crate::spans::{Layer, Span, Tracer};
use crate::{median_rate, mix, percentiles, push_end_to_end, stats, time, timed_setup};
use std::time::{Duration, Instant};
use xed_faultsim::engine::Sweep;
use xed_faultsim::fit::ModeRate;
use xed_faultsim::{FitRates, Scheme, SchemeResult, TailConfig, TailSimulator};
use xed_telemetry::registry::metrics;

/// Lifetime trials per scheme per round. A round (one seven-scheme sweep
/// and two tail estimates) takes tens of milliseconds, so a run makes
/// well over a thousand calls: enough for ten beyond the p99.
const LIFETIME_SAMPLES: u64 = 200_000;
/// Conditioned trials per tail estimate.
const TAIL_SAMPLES: u64 = 20_000;
/// The tail schemes (Table IV class).
pub const TAIL_SCHEMES: [Scheme; 2] = [Scheme::XedChipkill, Scheme::DoubleChipkill];
/// How far the pooled estimate may sit from a committed figure, in joint
/// standard errors. Six schemes are compared on every run; at 4.5σ a
/// correct program fails the check about once in 10⁴ runs.
const Z_JOINT: f64 = 4.5;

/// The scheme order of round `r`: rotated so no scheme is always first
/// (and coldest).
pub fn rotated(r: u64) -> Vec<Scheme> {
    let mut order = Scheme::ALL.to_vec();
    let n = order.len() as u64;
    order.rotate_left((r % n) as usize);
    order
}

fn tail(samples: u64, seed: u64) -> TailSimulator {
    TailSimulator::new(TailConfig {
        samples,
        seed,
        ..TailConfig::default()
    })
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: warm the pool, the alias tables and every scheme's code
    // path with a small sweep and one small tail estimate per scheme.
    let ((), setup_s) = timed_setup(|| {
        Sweep::new(20_000, mix(seed, u64::MAX)).run_all(&Scheme::ALL);
        for s in TAIL_SCHEMES {
            tail(2_000, mix(seed, u64::MAX)).run(s);
        }
    });

    let mut pooled: Vec<Option<SchemeResult>> = vec![None; Scheme::ALL.len()];
    let (mut life_trials, mut life_s, mut tail_trials, mut tail_s) = (0u64, 0.0, 0u64, 0.0);
    let mut latencies = Vec::new();
    let mut round_rates = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < budget {
        let seed_r = mix(seed, round);
        let order = rotated(round);
        let ((results, _), secs) = time(|| Sweep::new(LIFETIME_SAMPLES, seed_r).run_all(&order));
        life_trials += LIFETIME_SAMPLES * order.len() as u64;
        life_s += secs;
        latencies.push(secs * 1e3);
        round_rates.push((LIFETIME_SAMPLES * order.len() as u64) as f64 / secs);
        out.attempted += 1;
        for r in results {
            let slot = &mut pooled[Scheme::ALL.iter().position(|&s| s == r.scheme).unwrap_or(0)];
            match slot {
                Some(acc) => acc.merge_from(&r),
                None => *slot = Some(r),
            }
        }
        let mut tails = TAIL_SCHEMES;
        if round % 2 == 1 {
            tails.reverse();
        }
        for s in tails {
            let (est, secs) = time(|| tail(TAIL_SAMPLES, seed_r).run(s));
            tail_trials += TAIL_SAMPLES;
            tail_s += secs;
            latencies.push(secs * 1e3);
            out.attempted += 1;
            if !(est.p_fail.is_finite() && est.p_fail > 0.0 && est.p_fail < 1.0) {
                out.failed += 1;
                out.errors
                    .push(format!("{s}: tail p_fail {} out of (0, 1)", est.p_fail));
            }
        }
        round += 1;
    }

    let pooled: Vec<SchemeResult> = pooled.into_iter().flatten().collect();
    check_against_figures(&pooled, &mut out);
    let [p50, p90, p99] = percentiles(&latencies);
    let rate = median_rate(&mut out, &round_rates);
    push_end_to_end(&mut out, setup_s, rate, p50, p90);
    out.note("p99_ms", p99, "ms");
    out.note("lifetime_trials_per_s", rate, "trials/s");
    out.note(
        "lifetime_trials_per_s.pooled",
        life_trials as f64 / life_s,
        "trials/s",
    );
    out.note("tail_trials_per_s", tail_trials as f64 / tail_s, "trials/s");
    out.note("rounds", round as f64, "count");
    out.note("calls", latencies.len() as f64, "count");
    out
}

/// Each pooled `p_fail` must agree with `results/fig07.json` and
/// `results/fig09.json` for the schemes they share: the two estimates may
/// differ by at most [`Z_JOINT`] joint standard errors.
fn check_against_figures(pooled: &[SchemeResult], out: &mut Outcome) {
    let mut compared = 0;
    for file in ["results/fig07.json", "results/fig09.json"] {
        let doc = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(d) => d,
            Err(e) => {
                out.errors.push(format!("{file}: {e}"));
                continue;
            }
        };
        let n_ref = doc
            .get("params")
            .and_then(|p| p.get("samples"))
            .and_then(Json::num)
            .unwrap_or(0.0);
        for row in doc.get("series").map_or(&[][..], Json::items) {
            let (Some(label), Some(p_ref)) = (
                row.get("scheme").and_then(Json::str),
                row.get("p_fail_7y").and_then(Json::num),
            ) else {
                continue;
            };
            let Some(ours) = pooled.iter().find(|r| r.scheme.label() == label) else {
                out.errors.push(format!("{file}: unknown scheme {label:?}"));
                continue;
            };
            let n = ours.samples as f64;
            let p = ours.failure_probability(7.0);
            let se = (p * (1.0 - p) / n + p_ref * (1.0 - p_ref) / n_ref).sqrt();
            compared += 1;
            out.check((p - p_ref).abs() <= Z_JOINT * se, || {
                format!("{label}: p_fail {p:.6e} vs {file} {p_ref:.6e} (joint se {se:.2e})")
            });
        }
    }
    out.check(compared == 6, || {
        format!("compared {compared} schemes, expected 6")
    });
}

/// The FIT table with every rate multiplied by `k`.
fn scaled_rates(k: f64) -> FitRates {
    FitRates::custom(
        FitRates::table_i()
            .rows()
            .iter()
            .map(|r| ModeRate {
                extent: r.extent,
                transient_fit: r.transient_fit * k,
                permanent_fit: r.permanent_fit * k,
            })
            .collect(),
    )
}

/// Runs a sweep inside a `faultsim.sched` span whose `faultsim.mc` child
/// is the trial-kernel time the registry's chunk histogram accounts for
/// (summed over workers, divided by the worker count).
pub fn traced_sweep(tracer: &Tracer, sweep: &Sweep, schemes: &[Scheme], unit: u32) {
    let threads = sweep.monte_carlo().threads() as u64;
    let chunk_before = metrics::FAULTSIM_CHUNK_NS.sum();
    let id = tracer.reserve();
    let start_ns = tracer.now_ns();
    sweep.run_all(schemes);
    let end_ns = tracer.now_ns();
    let kernel_ns = metrics::FAULTSIM_CHUNK_NS.sum().wrapping_sub(chunk_before) / threads.max(1);
    tracer.record(Span {
        id,
        parent: 0,
        layer: Layer::FaultsimSched,
        unit,
        start_ns,
        end_ns,
    });
    tracer.record(Span {
        id: tracer.reserve(),
        parent: id,
        layer: Layer::FaultsimMc,
        unit,
        start_ns,
        end_ns: (start_ns + kernel_ns).min(end_ns),
    });
}

/// The fixed-work layer pass: one seven-scheme sweep and both tails.
pub fn layer_pass(seed: u64, tracer: &Tracer) {
    let sweep = Sweep::new(LIFETIME_SAMPLES / 2, mix(seed, 1));
    if tracer.enabled() {
        traced_sweep(tracer, &sweep, &Scheme::ALL, 0);
    } else {
        sweep.run_all(&Scheme::ALL);
    }
    for (i, s) in TAIL_SCHEMES.into_iter().enumerate() {
        tracer.span(Layer::FaultsimTail, 0, 1 + i as u32, |_| {
            tail(TAIL_SAMPLES / 2, mix(seed, 1)).run(s)
        });
    }
}

/// Per-layer probes of `faultsim.mc`, `faultsim.sched` and
/// `faultsim.tail`.
pub fn probes(seed: u64, out: &mut Outcome) {
    let n = LIFETIME_SAMPLES / 2;
    let x8 = [
        Scheme::NonEcc,
        Scheme::EccDimm,
        Scheme::Xed,
        Scheme::Chipkill,
    ];
    let x4 = [
        Scheme::ChipkillX4,
        Scheme::XedChipkill,
        Scheme::DoubleChipkill,
    ];
    let ns_per_trial = |sweep: &Sweep, schemes: &[Scheme]| {
        let ((), s) = time(|| {
            sweep.run_all(schemes);
        });
        s * 1e9 / (sweep.samples * schemes.len() as u64) as f64
    };
    let table = Sweep::new(n, mix(seed, 2));
    out.metric(
        "faultsim.mc.ns_per_trial.x8",
        ns_per_trial(&table, &x8),
        "ns",
    );
    out.metric(
        "faultsim.mc.ns_per_trial.x4",
        ns_per_trial(&table, &x4),
        "ns",
    );
    let quiet = Sweep::new(n, mix(seed, 2)).with_rates(scaled_rates(1e-3));
    out.metric(
        "faultsim.mc.ns_per_trial.block_only",
        ns_per_trial(&quiet, &Scheme::ALL),
        "ns",
    );
    let busy = Sweep::new(n / 10, mix(seed, 2)).with_rates(scaled_rates(30.0));
    out.metric(
        "faultsim.mc.ns_per_trial.spill_only",
        ns_per_trial(&busy, &Scheme::ALL),
        "ns",
    );

    // Exact counts and the chunk histogram of one Table I sweep.
    xed_telemetry::registry::reset_all();
    let (_, wide_s) = time(|| table.run_all(&Scheme::ALL));
    let snap = xed_telemetry::snapshot();
    let trials = snap.counter("faultsim.trials").unwrap_or(0).max(1) as f64;
    let spills = snap.counter("faultsim.bitslice.spills").unwrap_or(0) as f64;
    let zero = snap.counter("faultsim.zero_fault_trials").unwrap_or(0) as f64;
    out.metric("faultsim.mc.spill_share", spills / trials, "ratio");
    out.metric("faultsim.mc.zero_fault_share", zero / trials, "ratio");
    out.metric(
        "faultsim.sched.chunks",
        snap.counter("faultsim.steal.chunks").unwrap_or(0) as f64,
        "count",
    );
    let chunk = snap.histogram("faultsim.chunk_ns").cloned();
    out.metric(
        "faultsim.sched.chunk_ns.max_over_mean",
        chunk.map_or(f64::NAN, |h| h.max as f64 / h.mean()),
        "ratio",
    );
    // Scaling efficiency from the medians of five interleaved pairs: one
    // sweep lasts tens of milliseconds, and a single pair moves with
    // whatever else the machine does meanwhile.
    let single = table.clone().with_threads(1);
    let (mut wide, mut narrow) = (vec![wide_s], Vec::new());
    for _ in 0..5 {
        narrow.push(time(|| single.run_all(&Scheme::ALL)).1);
        wide.push(time(|| table.run_all(&Scheme::ALL)).1);
    }
    out.metric(
        "faultsim.sched.scaling_eff",
        stats::median(&narrow) / stats::median(&wide) / crate::nproc() as f64,
        "ratio",
    );

    for s in TAIL_SCHEMES {
        let (est, secs) = time(|| tail(TAIL_SAMPLES, mix(seed, 3)).run(s));
        out.metric(
            &format!("faultsim.tail.ns_per_trial.{s:?}"),
            secs * 1e9 / TAIL_SAMPLES as f64,
            "ns",
        );
        out.metric(
            &format!("faultsim.tail.rel_ci95.{s:?}"),
            est.relative_ci95(),
            "ratio",
        );
    }
}
