//! Golden `SimResult`s, floats compared by their bit patterns:
//!
//! * `tests/data/memsim_golden.tsv` — twenty Figure 11 cells (four
//!   benchmarks × the five Figure 11 schemes, 20k instructions per core,
//!   default seed);
//! * `tests/data/memsim_golden_stress.tsv` — configurations that drive
//!   the paths those cells leave cold: controller queues so small that
//!   cores block and retry, overlay backlogs, frequent serial-mode
//!   episodes, and the functional ECC decode.
//!
//! Both tables were recorded with the per-cycle simulator that stepped
//! every channel and core at every memory cycle; the event-driven
//! simulator must reproduce them bit for bit.

use xed::memsim::overlay::ReliabilityScheme;
use xed::memsim::scheduler::SchedConfig;
use xed::memsim::sim::{SimConfig, SimResult, Simulation};
use xed::memsim::workloads::Workload;

const GOLDEN: &str = include_str!("data/memsim_golden.tsv");
const GOLDEN_STRESS: &str = include_str!("data/memsim_golden_stress.tsv");

/// One golden row, in column order: benchmark, scheme name, then every
/// `SimResult` field and `row_hit_rate()` (floats as `f64::to_bits`
/// hex).
fn render(bench: &str, scheme: &ReliabilityScheme, r: &SimResult) -> String {
    let hex = |x: f64| format!("{:016x}", x.to_bits());
    // The table records absent functional-ECC counters as zeros.
    let ecc = r.ecc.as_deref().copied().unwrap_or_default();
    [
        bench.to_string(),
        scheme.name.to_string(),
        r.cycles.to_string(),
        hex(r.avg_core_cycles),
        r.instructions.to_string(),
        r.reads.to_string(),
        r.writes.to_string(),
        r.acts.to_string(),
        hex(r.avg_read_latency),
        hex(r.row_hit_rate()),
        hex(r.bus_utilization),
        r.rob_stall_cycles.to_string(),
        r.queue_stall_cycles.to_string(),
        hex(r.power.background_mw),
        hex(r.power.activate_mw),
        hex(r.power.rw_mw),
        hex(r.power.refresh_mw),
        ecc.lines_decoded.to_string(),
        ecc.beats_corrected.to_string(),
        ecc.due_lines.to_string(),
    ]
    .join("\t")
}

#[test]
fn figure11_cells_match_the_golden_table() {
    let mut rows = GOLDEN.lines();
    for bench in ["mcf", "libquantum", "gcc", "dealII"] {
        for scheme in ReliabilityScheme::figure11_set() {
            let r = Simulation::new(SimConfig {
                workload: Workload::by_name(bench).expect("benchmark exists"),
                scheme,
                instructions_per_core: 20_000,
                ..SimConfig::default()
            })
            .run();
            let want = rows.next().expect("one golden row per cell");
            assert_eq!(
                render(bench, &scheme, &r),
                want,
                "{bench} / {}",
                scheme.name
            );
        }
    }
    assert_eq!(rows.next(), None, "golden rows without a cell");
}

fn small_queues(reads: usize, writes: usize, drain_hi: usize, drain_lo: usize) -> SchedConfig {
    SchedConfig {
        read_queue_cap: reads,
        write_queue_cap: writes,
        write_drain_hi: drain_hi,
        write_drain_lo: drain_lo,
    }
}

fn stress_config(bench: &str, scheme: ReliabilityScheme, sched: SchedConfig) -> SimConfig {
    SimConfig {
        workload: Workload::by_name(bench).expect("benchmark exists"),
        scheme,
        instructions_per_core: 10_000,
        sched,
        ..SimConfig::default()
    }
}

#[test]
fn stressed_configurations_match_the_golden_table() {
    let serial_every_50 = ReliabilityScheme {
        serial_mode_every: Some(50),
        ..ReliabilityScheme::xed()
    };
    let cells = [
        (
            "mcf",
            stress_config(
                "mcf",
                ReliabilityScheme::baseline_secded(),
                small_queues(4, 4, 3, 1),
            ),
        ),
        (
            "libquantum",
            stress_config(
                "libquantum",
                ReliabilityScheme::chipkill_extra_transaction(),
                small_queues(6, 6, 4, 2),
            ),
        ),
        (
            "comm2",
            stress_config(
                "comm2",
                ReliabilityScheme::lot_ecc(),
                small_queues(16, 8, 6, 2),
            ),
        ),
        (
            "milc",
            stress_config("milc", serial_every_50, small_queues(8, 8, 6, 3)),
        ),
        (
            "comm1",
            SimConfig {
                functional_ecc: true,
                ..stress_config(
                    "comm1",
                    ReliabilityScheme::baseline_secded(),
                    SchedConfig::default(),
                )
            },
        ),
    ];
    let mut rows = GOLDEN_STRESS.lines();
    for (bench, config) in cells {
        let scheme = config.scheme;
        let r = Simulation::new(config).run();
        let want = rows.next().expect("one golden row per configuration");
        assert_eq!(
            render(bench, &scheme, &r),
            want,
            "{bench} / {}",
            scheme.name
        );
    }
    assert_eq!(rows.next(), None, "golden rows without a configuration");
}
