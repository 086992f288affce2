//! Telemetry/legacy equivalence: the global registry counters must match
//! the public stats structs bit-for-bit for every instrumented system
//! (DESIGN.md §11), and disabling telemetry must leave the legacy stats
//! untouched while the registry stays silent.
//!
//! The registry is process-global, so every test serializes through one
//! mutex and resets the catalogue before driving its workload.

use std::sync::{Mutex, MutexGuard, OnceLock};

use xed_core::alert::{AlertDimm, AlertMode};
use xed_core::chip::{ChipGeometry, OnDieCode};
use xed_core::controller::XedController;
use xed_core::fault::{FaultKind, InjectedFault};
use xed_core::secded_dimm::SecdedDimm;
use xed_core::xed_chipkill::XedChipkillSystem;
use xed_memsim::eccpath::EccDatapath;
use xed_telemetry::registry;

/// Serializes registry access across the test threads and hands back a
/// freshly reset catalogue.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    xed_telemetry::set_enabled(true);
    registry::reset_all();
    guard
}

fn counter(id: &str) -> u64 {
    xed_telemetry::snapshot()
        .counter(id)
        .unwrap_or_else(|| panic!("metric {id} missing from the registry"))
}

/// Drives a XedController through reconstruction, collision, serial-mode
/// and diagnosis episodes (the same deterministic shape `xedstat` uses).
/// The faults carry fixed corruption seeds: fresh ones come from a
/// process-wide counter, which would make two drives in one process
/// differ with test order.
fn drive_xed(c: &mut XedController, lines: u64) {
    let geometry = c.geometry();
    let data = [11u64, 22, 33, 44, 55, 66, 77, 88];
    for l in 0..lines {
        c.write_line(geometry.addr(l), &data);
    }
    let a = geometry.addr(1);
    c.inject_fault(
        2,
        InjectedFault::word(a, FaultKind::Transient).with_seed(0x5EED_0001),
    );
    let _ = c.read_line(a);
    let _ = c.read_line(a);
    let cw = c.catch_word(4).value();
    let mut line = data;
    line[4] = cw;
    let a = geometry.addr(2);
    c.write_line(a, &line);
    let _ = c.read_line(a);
    c.write_line(a, &data);
    let row_addr = geometry.addr(lines / 2);
    c.inject_fault(
        5,
        InjectedFault::row(row_addr.bank, row_addr.row, FaultKind::Permanent)
            .with_seed(0x5EED_0002),
    );
    for l in 0..lines {
        let _ = c.read_line(geometry.addr(l));
    }
}

#[test]
fn xed_controller_matches_registry() {
    let _guard = registry_lock();
    let mut c = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c, 64);
    let s = c.stats();
    assert!(
        s.reconstructions > 0 && s.collisions > 0,
        "workload too tame"
    );
    assert_eq!(counter("core.xed.reads"), s.reads);
    assert_eq!(counter("core.xed.writes"), s.writes);
    assert_eq!(counter("core.xed.catch_words"), s.catch_words_observed);
    assert_eq!(counter("core.xed.reconstructions"), s.reconstructions);
    assert_eq!(counter("core.xed.serial_modes"), s.serial_modes);
    assert_eq!(counter("core.xed.catchword_collisions"), s.collisions);
    assert_eq!(
        counter("core.xed.diagnosis_runs"),
        s.inter_line_runs + s.intra_line_runs
    );
    assert_eq!(counter("core.xed.due"), s.due_events);
    assert_eq!(counter("core.xed.scrub_writes"), s.scrub_writes);
}

#[test]
fn secded_dimm_matches_registry() {
    let _guard = registry_lock();
    let mut dimm = SecdedDimm::new(ChipGeometry::small());
    let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for l in 0..48 {
        dimm.write_line(l, &data);
    }
    dimm.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
    for l in 0..48 {
        let _ = dimm.read_line(l);
    }
    let s = dimm.stats();
    assert!(s.corrections + s.due_events > 0, "fault never surfaced");
    assert_eq!(counter("core.secded.reads"), s.reads);
    assert_eq!(counter("core.secded.corrections"), s.corrections);
    assert_eq!(counter("core.secded.due"), s.due_events);
}

#[test]
fn chipkill_system_matches_registry() {
    let _guard = registry_lock();
    let mut sys = XedChipkillSystem::new(2016);
    let data = [0xAB00_0001u32; 16];
    for l in 0..32 {
        sys.write_line(l, &data);
    }
    sys.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
    sys.inject_fault(11, InjectedFault::chip(FaultKind::Permanent));
    for l in 0..32 {
        let _ = sys.read_line(l);
    }
    let s = sys.stats();
    assert!(s.reconstructions > 0, "no erasure decodes happened");
    assert_eq!(counter("core.xed.reads"), s.reads);
    assert_eq!(counter("core.xed.writes"), s.writes);
    assert_eq!(counter("core.xed.catch_words"), s.catch_words_observed);
    assert_eq!(counter("core.xed.reconstructions"), s.reconstructions);
    assert_eq!(counter("core.xed.due"), s.due_events);
    assert_eq!(counter("core.xed.scrub_writes"), s.scrub_writes);
    // Two dead chips ⇒ every decoded plane repairs two erasure symbols.
    assert!(counter("ecc.rs.erasures") > 0);
}

#[test]
fn alert_dimm_matches_registry() {
    let _guard = registry_lock();
    for mode in [AlertMode::Anonymous, AlertMode::Identified] {
        registry::reset_all();
        let mut dimm = AlertDimm::new(ChipGeometry::small(), OnDieCode::Crc8Atm, mode);
        let data = [9u64, 8, 7, 6, 5, 4, 3, 2];
        for l in 0..32 {
            dimm.write_line(l, &data);
        }
        dimm.inject_fault(2, InjectedFault::chip(FaultKind::Permanent));
        for l in 0..32 {
            let _ = dimm.read_line(l);
        }
        let s = dimm.stats();
        assert!(s.alerts > 0, "{mode:?}: fault never alerted");
        assert_eq!(counter("core.alert.reads"), s.reads, "{mode:?}");
        assert_eq!(counter("core.alert.alerts"), s.alerts, "{mode:?}");
        assert_eq!(
            counter("core.alert.reconstructions"),
            s.reconstructions,
            "{mode:?}"
        );
        assert_eq!(counter("core.alert.diagnoses"), s.diagnoses, "{mode:?}");
        assert_eq!(counter("core.alert.due"), s.due_events, "{mode:?}");
    }
}

#[test]
fn eccpath_publish_matches_stats() {
    let _guard = registry_lock();
    let mut path = EccDatapath::new();
    for addr in 0..20_000u64 {
        let _ = path.read_line(addr);
    }
    let s = path.stats();
    assert_eq!(s.lines_decoded, 20_000);
    assert!(s.beats_corrected > 0, "error injection never fired");
    // Nothing reaches the registry until the merge-point publish.
    assert_eq!(counter("memsim.eccpath.lines_decoded"), 0);
    path.publish();
    assert_eq!(counter("memsim.eccpath.lines_decoded"), s.lines_decoded);
    assert_eq!(counter("memsim.eccpath.beats_corrected"), s.beats_corrected);
    assert_eq!(counter("memsim.eccpath.due_lines"), s.due_lines);
    assert_eq!(counter("ecc.lines_decoded"), s.lines_decoded);
    assert_eq!(counter("ecc.corrections"), s.beats_corrected);
    assert_eq!(counter("ecc.due_words"), s.due_lines);
    // Publishing twice accumulates — merge points must run exactly once.
    path.publish();
    assert_eq!(counter("ecc.lines_decoded"), 2 * s.lines_decoded);
}

#[test]
fn disabling_telemetry_keeps_legacy_stats_and_silences_registry() {
    let _guard = registry_lock();
    xed_telemetry::set_enabled(false);
    let mut c = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c, 64);
    let disabled_stats = c.stats();
    assert_eq!(counter("core.xed.reads"), 0, "gated site leaked a tick");
    assert_eq!(counter("core.xed.reconstructions"), 0);
    assert!(c.events().is_empty(), "ring recorded while disabled");
    xed_telemetry::set_enabled(true);

    // The same workload with telemetry on yields the same legacy stats:
    // instrumentation is observation, never behavior.
    let mut c2 = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c2, 64);
    assert_eq!(c2.stats(), disabled_stats);
    assert_eq!(counter("core.xed.reads"), disabled_stats.reads);
}

#[test]
fn memsim_scheduler_histograms_publish_once_per_run() {
    use xed_memsim::addrmap::Topology;
    use xed_memsim::scheduler::{MemController, SchedConfig};
    use xed_memsim::timing::DdrTiming;

    let _guard = registry_lock();
    let hist_count = |id: &str| {
        xed_telemetry::snapshot()
            .histogram(id)
            .unwrap_or_else(|| panic!("histogram {id} missing from the registry"))
            .count()
    };
    let mut mc = MemController::new(
        Topology::baseline(),
        DdrTiming::ddr3_1600(),
        SchedConfig::default(),
    );
    // Bursts of reads (some bounce off full queues) and writes, stepped
    // at the controller's own event cycles until every request is done.
    let (mut enqueued, mut next_id, mut now) = (0u64, 1u64, 0u64);
    let mut done = Vec::new();
    for burst in 0..20u64 {
        for k in 0..100u64 {
            let addr = burst * 7_919 + k * 4;
            if mc.enqueue_read(next_id, addr, now) {
                enqueued += 1;
                next_id += 1;
            }
            if k % 5 == 0 && mc.enqueue_write(next_id, addr + 1, now) {
                next_id += 1;
            }
        }
        while mc.pending() > 0 {
            now = mc.next_event().max(now + 1);
            mc.tick(now, &mut done);
        }
    }
    assert!(enqueued < 2_000, "some reads bounced off a full queue");
    assert_eq!(mc.stats.reads_done, enqueued);
    // Nothing reaches the registry until the end-of-run publish.
    assert_eq!(hist_count("memsim.sched.queue_depth"), 0);
    assert_eq!(hist_count("memsim.sched.read_latency"), 0);
    mc.publish();
    assert_eq!(hist_count("memsim.sched.queue_depth"), enqueued);
    assert_eq!(hist_count("memsim.sched.read_latency"), mc.stats.reads_done);
    assert_eq!(counter("memsim.sched.reads_done"), mc.stats.reads_done);
    assert_eq!(counter("memsim.sched.writes_done"), mc.stats.writes_done);

    // A whole simulation publishes exactly once, at its end.
    registry::reset_all();
    let r = xed_memsim::sim::Simulation::new(xed_memsim::sim::SimConfig {
        instructions_per_core: 5_000,
        ..Default::default()
    })
    .run();
    assert_eq!(hist_count("memsim.sched.read_latency"), r.reads);
    assert_eq!(counter("memsim.sched.reads_done"), r.reads);
    assert!(hist_count("memsim.sched.queue_depth") >= r.reads);
}
