//! One benchmark for the whole XED workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reliability|perfsim|datapath|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the named workload
//! untraced and reports its end-to-end metrics; `--trace 1` runs the
//! traced layer passes and reports the per-layer metrics. Human-readable
//! figures go to standard output first; the last line is the JSON result.
//! A failed output check exits with status 1, a usage error with 2.

mod datapath;
mod layers;
mod perfsim;
mod reliability;
mod report;
mod serve;
mod spans;
mod stats;

use report::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order the traced run measures them.
pub const WORKLOADS: [&str; 4] = ["reliability", "perfsim", "datapath", "serve"];

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The output checks read the committed figure sidecars.
    if !PathBuf::from("results").is_dir() {
        eprintln!("perfbench: run from the repository root (no results/ here)");
        std::process::exit(2);
    }
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        layers::run(&args.workload, args.seed, budget)
    } else {
        match args.workload.as_str() {
            "reliability" => reliability::run(args.seed, budget),
            "perfsim" => perfsim::run(args.seed, budget),
            "datapath" => datapath::run(args.seed, budget),
            _ => serve::run(args.seed, budget),
        }
    };
    print_report(&args, &outcome);
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

fn print_report(args: &Args, outcome: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in report::machine_record() {
        println!("  machine.{k:<10} {v}");
    }
    for m in outcome.metrics.iter().chain(&outcome.report) {
        println!(
            "  {:<40} {:>18} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    println!(
        "  attempted={} failed={} checks={}",
        outcome.attempted,
        outcome.failed,
        if outcome.errors.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );
    for e in outcome.errors.iter().take(20) {
        println!("  check failed: {e}");
    }
}

/// Worker threads the workspace's pools default to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64 of `seed` and `i`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last state with
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one setup");
    (state, stats::median(&times))
}

/// Seconds spent in `f`, and its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The five end-to-end metrics every workload reports, in declaration
/// order: set-up time, peak RSS, headline throughput and the median and
/// p90 latency of the workload's unit operation. The p90 is the gated
/// tail: on a shared two-core machine a run's p99 moves with whatever
/// else the machine did in its slowest percent (it is printed beside).
pub fn push_end_to_end(out: &mut Outcome, setup_s: f64, ops_per_s: f64, p50_ms: f64, p90_ms: f64) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("p50_ms", p50_ms, "ms");
    out.metric("p90_ms", p90_ms, "ms");
}

/// The median of a run's per-unit throughputs (rounds, passes, epochs):
/// on a shared machine a median over many units is steadier than the
/// pooled total. Notes their interquartile spread as a within-run noise
/// band.
pub fn median_rate(out: &mut Outcome, unit_rates: &[f64]) -> f64 {
    if unit_rates.len() >= 2 {
        out.note(
            "ops_per_s.unit_spread",
            stats::relative_spread(unit_rates),
            "ratio",
        );
    }
    if unit_rates.is_empty() {
        f64::NAN
    } else {
        stats::median(unit_rates)
    }
}

/// Nearest-rank p50, p90 and p99 of `latencies_ms` (NaN, and so an
/// incorrect run, when nothing completed).
pub fn percentiles(latencies_ms: &[f64]) -> [f64; 3] {
    if latencies_ms.is_empty() {
        return [f64::NAN; 3];
    }
    [50.0, 90.0, 99.0].map(|p| stats::percentile(latencies_ms, p))
}

/// Where a run's span dump and report go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}
