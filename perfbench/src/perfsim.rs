//! `perfsim`: the cycle-level memory simulator over a grid of Figure 11
//! benchmarks × the five Figure 11 reliability schemes, covering busy-bus
//! (high-MPKI) and mostly-idle (low-MPKI) profiles.

use crate::report::{Json, Outcome};
use crate::spans::{Layer, Tracer};
use crate::{mix, percentiles, push_end_to_end, stats, time, timed_setup};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::sim::{SimConfig, SimResult, Simulation};
use xed_memsim::workloads::Workload;

/// High-MPKI benchmarks: the bus is busy, the scheduler tick dominates.
pub const HI_MPKI: [&str; 3] = ["mcf", "libquantum", "lbm"];
/// Low-MPKI benchmarks: mostly idle cycles. Twice as many as the
/// high-MPKI ones, so the median cell is always a low-MPKI one and the
/// p90 a high-MPKI one.
pub const LO_MPKI: [&str; 6] = ["gcc", "black", "swapt", "dealII", "xalancbmk", "freq"];
/// Instructions per core in a timed cell.
const INSTRUCTIONS: u64 = 20_000;
/// The configuration `results/fig11.json` was produced with.
const FIG11_SEED: u64 = 2016;
const FIG11_INSTRUCTIONS: u64 = 150_000;

/// One grid cell: a benchmark under a scheme.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub bench: &'static str,
    pub hi_mpki: bool,
    pub scheme: ReliabilityScheme,
}

pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (names, hi_mpki) in [(&HI_MPKI[..], true), (&LO_MPKI[..], false)] {
        for &bench in names {
            for scheme in ReliabilityScheme::figure11_set() {
                cells.push(Cell {
                    bench,
                    hi_mpki,
                    scheme,
                });
            }
        }
    }
    cells
}

/// `0..n` in a seed-determined order, so no cell is always the first
/// (and coldest) of a pass.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

pub fn simulate(cell: &Cell, instructions: u64, seed: u64) -> SimResult {
    Simulation::new(SimConfig {
        workload: Workload::by_name(cell.bench).expect("grid benchmarks exist"),
        scheme: cell.scheme,
        instructions_per_core: instructions,
        seed,
        ..SimConfig::default()
    })
    .run()
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let cells = grid();
    // Set-up: one short run of every cell brings in the trace generators
    // and every scheme's overlay path.
    let ((), setup_s) = timed_setup(|| {
        for c in &cells {
            simulate(c, 2_000, mix(seed, u64::MAX));
        }
    });

    // Cells run on every core, pulled from a per-pass shuffled order;
    // per-cell host times are kept for the throughput estimate below.
    let threads = crate::nproc();
    let done: Mutex<Vec<(usize, f64, SimResult)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < budget {
        let seed_p = mix(seed, pass);
        let order = shuffled_indices(cells.len(), seed_p);
        let next = AtomicUsize::new(0);
        let first_pass = pass == 0;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(&k) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if !first_pass && start.elapsed() >= budget {
                            break;
                        }
                        let (r, secs) = time(|| simulate(&cells[k], INSTRUCTIONS, seed_p));
                        done.lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push((k, secs, r));
                    }
                });
            }
        });
        pass += 1;
    }
    let done = done.into_inner().unwrap_or_else(|p| p.into_inner());
    let mut latencies = Vec::with_capacity(done.len());
    // Throughput divides the grid's instructions by the sum of each
    // cell's median time over the passes, so a cell that a preemption
    // lands in once does not move it.
    let mut cell_secs: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut cell_instr = vec![0u64; cells.len()];
    for (k, secs, r) in &done {
        out.attempted += 1;
        out.check(r.instructions > 0 && r.cycles > 0, || {
            format!(
                "{} / {}: empty simulation",
                cells[*k].bench, cells[*k].scheme.name
            )
        });
        cell_secs[*k].push(*secs);
        cell_instr[*k] = r.instructions;
        latencies.push(secs * 1e3);
    }
    check_fig11(&cells, &mut out);
    let [p50, p90, p99] = percentiles(&latencies);
    let (mut grid_instr, mut grid_s) = (0u64, 0.0);
    for (secs, instr) in cell_secs.iter().zip(&cell_instr) {
        if !secs.is_empty() {
            grid_instr += instr;
            grid_s += stats::median(secs);
        }
    }
    let rate = grid_instr as f64 / grid_s;
    push_end_to_end(&mut out, setup_s, rate, p50, p90);
    out.note("p99_ms", p99, "ms");
    out.note("sim_instr_per_s", rate, "instr/s");
    out.note("cells", latencies.len() as f64, "count");
    out.note("passes", pass as f64, "count");
    out
}

/// At the committed configuration every grid benchmark's execution-time
/// ratios must equal `results/fig11.json` exactly.
fn check_fig11(cells: &[Cell], out: &mut Outcome) {
    let doc = match std::fs::read_to_string("results/fig11.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(format!("results/fig11.json: {e}"));
            return;
        }
    };
    let params = doc.get("params");
    let seed = params.and_then(|p| p.get("seed")).and_then(Json::num);
    let instr = params
        .and_then(|p| p.get("instructions"))
        .and_then(Json::num);
    out.check(
        seed == Some(FIG11_SEED as f64) && instr == Some(FIG11_INSTRUCTIONS as f64),
        || format!("results/fig11.json params changed: seed {seed:?}, instructions {instr:?}"),
    );
    let schemes = ReliabilityScheme::figure11_set();
    for bench in HI_MPKI.iter().chain(&LO_MPKI) {
        let Some(row) = doc
            .get("series")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|r| r.get("benchmark").and_then(Json::str) == Some(bench))
        else {
            out.errors
                .push(format!("results/fig11.json has no {bench} row"));
            continue;
        };
        let want: Vec<f64> = row.members().iter().filter_map(|(_, v)| v.num()).collect();
        let cycles: Vec<u64> = schemes
            .iter()
            .map(|&scheme| {
                let c = cells
                    .iter()
                    .find(|c| c.bench == *bench && c.scheme == scheme)
                    .copied()
                    .expect("grid cell");
                simulate(&c, FIG11_INSTRUCTIONS, FIG11_SEED).cycles
            })
            .collect();
        let got: Vec<f64> = cycles[1..]
            .iter()
            .map(|&c| c as f64 / cycles[0] as f64)
            .collect();
        out.check(got == want, || {
            format!("{bench}: ratios {got:?} differ from results/fig11.json {want:?}")
        });
    }
}

/// Totals of a fixed grid pass.
#[derive(Debug, Default)]
pub struct PassTotals {
    pub host_ns: [u64; 2],
    pub cycles: [u64; 2],
    pub reads: [u64; 2],
    pub acts: u64,
    pub bus_util_sum: f64,
    pub cells: u64,
}

/// The fixed-work layer pass: every grid cell once, one `memsim` span
/// per cell.
pub fn layer_pass(seed: u64, tracer: &Tracer) -> PassTotals {
    let mut t = PassTotals::default();
    let cells = grid();
    for (i, c) in shuffled_indices(cells.len(), mix(seed, 1))
        .into_iter()
        .map(|k| &cells[k])
        .enumerate()
    {
        let start = Instant::now();
        let r = tracer.span(Layer::Memsim, 0, i as u32, |_| {
            simulate(c, INSTRUCTIONS / 2, mix(seed, 1))
        });
        let k = usize::from(!c.hi_mpki);
        t.host_ns[k] += start.elapsed().as_nanos() as u64;
        t.cycles[k] += r.cycles;
        t.reads[k] += r.reads;
        t.acts += r.acts;
        t.bus_util_sum += r.bus_utilization;
        t.cells += 1;
    }
    t
}

/// Per-layer metrics of `memsim` from an untraced pass.
pub fn probes(t: &PassTotals, out: &mut Outcome) {
    out.metric(
        "memsim.host_ns_per_cycle.hi_mpki",
        t.host_ns[0] as f64 / t.cycles[0] as f64,
        "ns",
    );
    out.metric(
        "memsim.host_ns_per_cycle.lo_mpki",
        t.host_ns[1] as f64 / t.cycles[1] as f64,
        "ns",
    );
    out.metric(
        "memsim.host_ns_per_read.hi_mpki",
        t.host_ns[0] as f64 / t.reads[0] as f64,
        "ns",
    );
    out.metric(
        "memsim.sim_cycles",
        (t.cycles[0] + t.cycles[1]) as f64,
        "count",
    );
    out.metric("memsim.reads", (t.reads[0] + t.reads[1]) as f64, "count");
    out.metric("memsim.acts", t.acts as f64, "count");
    out.metric("memsim.bus_util", t.bus_util_sum / t.cells as f64, "ratio");
}
