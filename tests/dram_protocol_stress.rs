//! Protocol stress test: drive the memory controller with adversarial
//! random traffic and verify the DDR state machines never violate their
//! invariants (the `can_*`/`issue_*` contracts carry debug assertions; on
//! top of that we check externally visible properties).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xed::memsim::addrmap::Topology;
use xed::memsim::dram::RankStats;
use xed::memsim::scheduler::{MemController, SchedConfig, SchedStats};
use xed::memsim::timing::DdrTiming;

fn stress(topology: Topology, timing: DdrTiming, seed: u64, requests: u64) {
    let mut mc = MemController::new(topology, timing, SchedConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 1u64;
    let mut issued_reads = 0u64;
    let mut completed: Vec<u64> = Vec::new();
    let mut done = Vec::new();
    let mut now = 0u64;
    let lines = topology.lines();

    while issued_reads < requests || mc.pending() > 0 {
        // Bursty arrivals: sometimes slam many requests at once.
        let arrivals = match rng.gen_range(0..10) {
            0..=5 => 0,
            6..=8 => rng.gen_range(1..4),
            _ => rng.gen_range(4..16),
        };
        for _ in 0..arrivals {
            if issued_reads >= requests {
                break;
            }
            // Adversarial locality: hammer a few rows to force conflicts.
            let addr = if rng.gen_bool(0.5) {
                rng.gen_range(0..lines.min(4096))
            } else {
                rng.gen_range(0..lines)
            };
            let ok = if rng.gen_bool(0.3) {
                mc.enqueue_write(next_id, addr, now)
            } else {
                let ok = mc.enqueue_read(next_id, addr, now);
                if ok {
                    issued_reads += 1;
                }
                ok
            };
            if ok {
                next_id += 1;
            }
        }
        mc.tick(now, &mut done);
        completed.extend_from_slice(&done);
        now += 1;
        assert!(
            now < 40_000_000,
            "controller wedged at {} pending",
            mc.pending()
        );
    }

    // Every read completed exactly once.
    assert_eq!(completed.len() as u64, mc.stats.reads_done);
    let mut sorted = completed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), completed.len(), "duplicate completions");

    // Aggregate invariants: column accesses require activates; the data
    // bus can't have carried more cycles than elapsed.
    let mut acts = 0u64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut refreshes = 0u64;
    let mut bus = 0u64;
    for ch in 0..topology.channels {
        bus += mc.dram().channel(ch).data_bus_busy_cycles;
        for r in 0..topology.ranks {
            let s = mc.dram().channel(ch).rank(r).stats;
            acts += s.acts;
            reads += s.reads;
            writes += s.writes;
            refreshes += s.refreshes;
        }
    }
    assert_eq!(reads, mc.stats.reads_done);
    assert_eq!(writes, mc.stats.writes_done);
    assert!(acts >= 1, "some activates must have happened");
    // Open-page: at most one ACT per column access, plus re-activations
    // after refreshes close banks and after row-conflict precharges (the
    // conflict pressure is bounded by the column accesses themselves, so
    // 2x is a hard ceiling).
    let banks_total = (topology.channels * topology.ranks * topology.banks) as u64;
    assert!(
        acts <= 2 * (reads + writes) + refreshes * banks_total,
        "activate storm: {acts} acts for {} accesses, {refreshes} refreshes",
        reads + writes
    );
    assert!(
        bus <= now * topology.channels as u64,
        "data bus over-committed: {bus} busy cycles in {now}"
    );
    // Every read's data took at least CL + BL cycles after enqueue.
    assert!(
        mc.stats.total_read_latency >= mc.stats.reads_done * timing.read_latency(),
        "impossible read latencies"
    );
}

#[test]
fn stress_baseline_topology_ddr3() {
    stress(Topology::baseline(), DdrTiming::ddr3_1600(), 1, 4_000);
}

#[test]
fn stress_single_rank_ddr3() {
    let t = Topology {
        ranks: 1,
        ..Topology::baseline()
    };
    stress(t, DdrTiming::ddr3_1600(), 2, 4_000);
}

#[test]
fn stress_two_channel_ddr3() {
    let t = Topology {
        channels: 2,
        ..Topology::baseline()
    };
    stress(t, DdrTiming::ddr3_1600(), 3, 4_000);
}

#[test]
fn stress_ddr4_timing() {
    stress(Topology::baseline(), DdrTiming::ddr4_2400(), 4, 4_000);
}

#[test]
fn stress_extended_burst() {
    stress(
        Topology::baseline(),
        DdrTiming::ddr3_1600().with_extra_burst(4),
        5,
        3_000,
    );
}

#[test]
fn stress_tiny_topology_heavy_conflicts() {
    // One channel, one rank, two banks, few rows: maximal contention.
    let t = Topology {
        channels: 1,
        ranks: 1,
        banks: 2,
        rows: 8,
        cols: 16,
    };
    stress(t, DdrTiming::ddr3_1600(), 6, 3_000);
}

/// One pre-drawn arrival attempt: at `cycle`, enqueue `addr`.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    cycle: u64,
    addr: u64,
    write: bool,
}

/// Bursty arrivals over hot rows and the whole address space, with idle
/// gaps long enough for channels to sleep through refreshes.
fn arrivals(topology: Topology, seed: u64, count: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = topology.lines();
    let mut cycle = 0u64;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        cycle += match rng.gen_range(0..100) {
            0..=59 => rng.gen_range(0..3),
            60..=97 => rng.gen_range(3..60),
            _ => rng.gen_range(2_000..9_000),
        };
        for _ in 0..rng.gen_range(1..12) {
            let addr = if rng.gen_bool(0.5) {
                rng.gen_range(0..lines.min(4096))
            } else {
                rng.gen_range(0..lines)
            };
            let write = rng.gen_bool(0.35);
            out.push(Arrival { cycle, addr, write });
        }
    }
    out
}

/// Everything observable about a finished controller run.
#[derive(Debug, PartialEq)]
struct Outcome {
    completions: Vec<(u64, u64)>,
    end: u64,
    stats: SchedStats,
    ranks: Vec<RankStats>,
    bus_busy: Vec<u64>,
}

/// Feeds `arrivals` to a controller, ticking it at every cycle or only
/// at the cycles `next_event()` and the arrivals name, until every
/// request has completed.
fn drive(
    topology: Topology,
    timing: DdrTiming,
    sched: SchedConfig,
    arrivals: &[Arrival],
    every_cycle: bool,
) -> Outcome {
    let mut mc = MemController::new(topology, timing, sched);
    let mut done = Vec::new();
    let mut completions = Vec::new();
    let (mut next_id, mut reads, mut i, mut now) = (1u64, 0u64, 0usize, 0u64);
    loop {
        mc.tick(now, &mut done);
        completions.extend(done.iter().map(|&id| (now, id)));
        while let Some(a) = arrivals.get(i).filter(|a| a.cycle == now) {
            let ok = if a.write {
                mc.enqueue_write(next_id, a.addr, now)
            } else {
                mc.enqueue_read(next_id, a.addr, now)
            };
            if ok {
                next_id += 1;
                reads += u64::from(!a.write);
            }
            i += 1;
        }
        if i == arrivals.len() && mc.pending() == 0 && completions.len() as u64 == reads {
            break;
        }
        now = if every_cycle {
            now + 1
        } else {
            let arrival = arrivals.get(i).map_or(u64::MAX, |a| a.cycle);
            mc.next_event().min(arrival).max(now + 1)
        };
        assert!(now < 40_000_000, "controller wedged");
    }
    mc.settle(now);
    let mut ranks = Vec::new();
    let mut bus_busy = Vec::new();
    for ch in 0..topology.channels {
        bus_busy.push(mc.dram().channel(ch).data_bus_busy_cycles);
        for r in 0..topology.ranks {
            ranks.push(mc.dram().channel(ch).rank(r).stats);
        }
    }
    Outcome {
        completions,
        end: now,
        stats: mc.stats,
        ranks,
        bus_busy,
    }
}

/// Digests of the same runs, recorded with the controller that scanned
/// every channel at every cycle: one line per seed with the end cycle,
/// the completion count and an FNV-1a hash of the `(cycle, id)` stream,
/// the scheduler stats, and per channel the bus-busy cycles followed by
/// each rank's `acts/reads/writes/refreshes/active_cycles`.
const PER_CYCLE_DIGESTS: &str = include_str!("data/dram_stress_digest.tsv");

fn digest(seed: u64, o: &Outcome) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(cycle, id) in &o.completions {
        for byte in cycle.to_le_bytes().into_iter().chain(id.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut line = format!(
        "{seed}\t{}\t{}\t{hash:016x}\t{}\t{}\t{}",
        o.end,
        o.completions.len(),
        o.stats.reads_done,
        o.stats.writes_done,
        o.stats.total_read_latency
    );
    let ranks_per_channel = o.ranks.len() / o.bus_busy.len();
    for (busy, ranks) in o.bus_busy.iter().zip(o.ranks.chunks(ranks_per_channel)) {
        line += &format!("\t{busy}");
        for r in ranks {
            line += &format!(
                "\t{}/{}/{}/{}/{}",
                r.acts, r.reads, r.writes, r.refreshes, r.active_cycles
            );
        }
    }
    line
}

fn event_driven_matches_per_cycle(
    topology: Topology,
    timing: DdrTiming,
    sched: SchedConfig,
    seed: u64,
) {
    let arrivals = arrivals(topology, seed, 3_000);
    let eager = drive(topology, timing, sched, &arrivals, true);
    let lazy = drive(topology, timing, sched, &arrivals, false);
    assert!(eager.stats.reads_done > 0 && eager.stats.writes_done > 0);
    assert!(eager
        .ranks
        .iter()
        .all(|s| s.refreshes > 0 && s.active_cycles > 0));
    assert_eq!(lazy, eager);
    let want = PER_CYCLE_DIGESTS
        .lines()
        .find(|l| l.split('\t').next() == Some(&seed.to_string()))
        .expect("a recorded digest for every seed");
    assert_eq!(digest(seed, &lazy), want, "seed {seed}");
}

#[test]
fn event_driven_stepping_matches_per_cycle_stepping() {
    let ddr3 = DdrTiming::ddr3_1600();
    let default = SchedConfig::default();
    event_driven_matches_per_cycle(Topology::baseline(), ddr3, default, 11);
    event_driven_matches_per_cycle(Topology::baseline(), DdrTiming::ddr4_2400(), default, 12);
    event_driven_matches_per_cycle(Topology::baseline(), ddr3.with_extra_burst(4), default, 13);
    let tiny = Topology {
        channels: 1,
        ranks: 1,
        banks: 2,
        rows: 8,
        cols: 16,
    };
    event_driven_matches_per_cycle(tiny, ddr3, default, 14);
    // Shallow queues: arrivals bounce, drain episodes start and end
    // often, and reads and writes keep trading the channel.
    let shallow = SchedConfig {
        read_queue_cap: 6,
        write_queue_cap: 8,
        write_drain_hi: 5,
        write_drain_lo: 2,
    };
    event_driven_matches_per_cycle(Topology::baseline(), ddr3, shallow, 15);
}
