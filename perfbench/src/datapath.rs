//! `datapath`: functional controller traffic through the XED x8
//! controller, XED-on-Chipkill (x4) and the rank-level SEC-DED DIMM.
//!
//! Each epoch boots the three systems, fills a working set, and runs
//! writes interleaved with reads through a fault schedule: clean → word
//! and row faults (catch-word + RAID-3 reconstruct) → a permanent chip
//! failure (every read reconstructs) → a second chip failure on the XED
//! DIMM (the reads the schedule marks uncorrectable must report a DUE).
//! Writes that store a chip's catch-word value exercise the collision and
//! re-key path. Every read is checked against a shadow copy.

use crate::report::Outcome;
use crate::spans::{Layer, Tracer};
use crate::stats::LatencyHist;
use crate::{median_rate, mix, push_end_to_end, time, timed_setup};
use std::time::{Duration, Instant};
use xed_core::chip::{ChipGeometry, OnDieCode, WordAddr};
use xed_core::fault::{FaultKind, InjectedFault};
use xed_core::secded_dimm::{SecdedDimm, SecdedReadout};
use xed_core::xed_chipkill::DATA_CHIPS as X4_DATA;
use xed_core::{XedChipkillSystem, XedController};
use xed_ecc::gf::Field;
use xed_ecc::rs::{ReedSolomon, RsScratch};
use xed_ecc::{CodeWord72, Crc8Atm, Hamming7264, SecDed};

/// Lines in each system's working set.
const WORKING_SET: usize = 1024;
/// Operations per fault phase.
const PHASE_OPS: usize = 10_000;
/// Operations per traced `core` span.
const SPAN_BATCH: usize = 64;
/// Reads the final double-failure phase probes.
const DUE_PROBES: usize = 16;

/// A splitmix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What an operation was, for the per-class timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Write,
    CleanRead,
    ReconstructRead,
    X4ErasureRead,
    OtherRead,
}

/// Per-class operation counts and host time.
#[derive(Debug, Default, Clone)]
pub struct ClassTimes {
    pub ns: [u64; 5],
    pub ops: [u64; 5],
}

impl ClassTimes {
    fn add(&mut self, class: OpClass, ns: u64) {
        self.ns[class as usize] += ns;
        self.ops[class as usize] += 1;
    }

    pub fn mean_ns(&self, class: OpClass) -> f64 {
        self.ns[class as usize] as f64 / self.ops[class as usize].max(1) as f64
    }
}

/// The three systems, their working sets and shadow copies.
struct Epoch {
    geometry: ChipGeometry,
    lines: Vec<u64>,
    x8: XedController,
    x8_shadow: Vec<[u64; 8]>,
    x4: XedChipkillSystem,
    x4_shadow: Vec<[u32; X4_DATA]>,
    sd: SecdedDimm,
    sd_shadow: Vec<[u64; 8]>,
    rng: Stream,
    /// The x8 and x4 chips the schedule breaks, and the second x8 chip.
    dead8: usize,
    dead4: usize,
    second8: usize,
    /// Whether writes may store catch-word values.
    collide: bool,
    /// Corrupted on-die codewords seen on the x8 DIMM (for the ecc probes).
    captured: Vec<CodeWord72>,
}

impl Epoch {
    fn boot(seed: u64) -> Self {
        // One bank of the small geometry: the patrol scrub after the chip
        // failure walks every line, and a quarter of the lines keeps it
        // from dominating the epoch.
        let geometry = ChipGeometry {
            banks: 1,
            ..ChipGeometry::small()
        };
        let mut rng = Stream(seed);
        let mut lines: Vec<u64> = Vec::with_capacity(WORKING_SET);
        while lines.len() < WORKING_SET {
            let l = rng.next() % geometry.words();
            if !lines.contains(&l) {
                lines.push(l);
            }
        }
        let mut e = Epoch {
            geometry,
            x8: XedController::new(geometry, OnDieCode::Crc8Atm, rng.next(), 8, 10),
            x8_shadow: Vec::with_capacity(WORKING_SET),
            x4: XedChipkillSystem::new(rng.next()),
            x4_shadow: Vec::with_capacity(WORKING_SET),
            sd: SecdedDimm::new(geometry),
            sd_shadow: Vec::with_capacity(WORKING_SET),
            dead8: rng.below(8),
            dead4: rng.below(X4_DATA),
            second8: 0,
            collide: false,
            captured: Vec::new(),
            lines,
            rng,
        };
        e.second8 = (e.dead8 + 1 + e.rng.below(7)) % 8;
        for i in 0..WORKING_SET {
            let (a, b, c) = (e.line8(), e.line4(), e.line8());
            let addr = e.addr(i);
            e.x8.write_line(addr, &a);
            e.x4.write_line(e.lines[i], &b);
            e.sd.write_line(e.lines[i], &c);
            e.x8_shadow.push(a);
            e.x4_shadow.push(b);
            e.sd_shadow.push(c);
        }
        e
    }

    fn addr(&self, slot: usize) -> WordAddr {
        self.geometry.addr(self.lines[slot])
    }

    fn line8(&mut self) -> [u64; 8] {
        std::array::from_fn(|_| self.rng.next())
    }

    fn line4(&mut self) -> [u32; X4_DATA] {
        std::array::from_fn(|_| self.rng.next() as u32)
    }

    /// One operation; returns its class and whether it matched the
    /// shadow copy.
    fn op(&mut self, lat: &mut LatencyHist, classes: &mut ClassTimes) -> bool {
        let slot = self.rng.below(WORKING_SET);
        let system = self.rng.below(20);
        let write = self.rng.below(10) < 3;
        let collide = self.collide && self.rng.below(16) == 0;
        let line = self.lines[slot];
        let (class, ok, ns) = match (system, write) {
            (0..=11, true) => {
                let mut data = self.line8();
                if collide {
                    data[self.dead8] = self.x8.catch_word(self.dead8).value();
                }
                let addr = self.addr(slot);
                let t = Instant::now();
                self.x8.write_line(addr, &data);
                let ns = t.elapsed().as_nanos() as u64;
                self.x8_shadow[slot] = data;
                (OpClass::Write, true, ns)
            }
            (0..=11, false) => {
                let addr = self.addr(slot);
                if self.captured.len() < 4096 {
                    let w = self.x8.chip(self.dead8).raw_codeword(addr);
                    self.captured.push(w);
                }
                let t = Instant::now();
                let r = self.x8.read_line(addr);
                let ns = t.elapsed().as_nanos() as u64;
                match r {
                    Ok(r) => {
                        let class = if r.reconstructed_chip.is_some() {
                            OpClass::ReconstructRead
                        } else if r.used_diagnosis {
                            OpClass::OtherRead
                        } else {
                            OpClass::CleanRead
                        };
                        (class, r.data == self.x8_shadow[slot], ns)
                    }
                    Err(_) => (OpClass::OtherRead, false, ns),
                }
            }
            (12..=16, true) => {
                let mut data = self.line4();
                if collide {
                    data[self.dead4] = self.x4.catch_word(self.dead4);
                }
                let t = Instant::now();
                self.x4.write_line(line, &data);
                let ns = t.elapsed().as_nanos() as u64;
                self.x4_shadow[slot] = data;
                (OpClass::Write, true, ns)
            }
            (12..=16, false) => {
                let t = Instant::now();
                let r = self.x4.read_line(line);
                let ns = t.elapsed().as_nanos() as u64;
                match r {
                    Ok(r) => {
                        let class = if r.corrected_chips[0].is_some() {
                            OpClass::X4ErasureRead
                        } else {
                            OpClass::OtherRead
                        };
                        (class, r.data == self.x4_shadow[slot], ns)
                    }
                    Err(_) => (OpClass::OtherRead, false, ns),
                }
            }
            (_, true) => {
                let data = self.line8();
                let t = Instant::now();
                self.sd.write_line(line, &data);
                let ns = t.elapsed().as_nanos() as u64;
                self.sd_shadow[slot] = data;
                (OpClass::Write, true, ns)
            }
            (_, false) => {
                let t = Instant::now();
                let r = self.sd.read_line(line);
                let ns = t.elapsed().as_nanos() as u64;
                let ok =
                    matches!(r, SecdedReadout::Ok { data, .. } if data == self.sd_shadow[slot]);
                (OpClass::OtherRead, ok, ns)
            }
        };
        lat.record(ns);
        classes.add(class, ns);
        ok
    }

    /// Word and row faults: a permanent row fault and transient word
    /// faults on the x8 chip that later dies, a row fault on the x4 chip
    /// that later dies, single-bit faults on the SEC-DED DIMM; catch-word
    /// writes start.
    fn inject_word_row_faults(&mut self) {
        let row_slot = self.rng.below(WORKING_SET);
        let a = self.addr(row_slot);
        let seed = self.rng.next();
        self.x8.inject_fault(
            self.dead8,
            InjectedFault::row(a.bank, a.row, FaultKind::Permanent).with_seed(seed),
        );
        // Transient word faults the on-die code flags: an isolated
        // transient error the code misses leaves XED no catch-word and no
        // faulty row to diagnose, so it is a DUE by design, not traffic.
        let crc = Crc8Atm::new();
        let mut placed = 0;
        while placed < 8 {
            let slot = self.rng.below(WORKING_SET);
            let w = self.addr(slot);
            let fault = InjectedFault::word(w, FaultKind::Transient).with_seed(self.rng.next());
            let raw = self.x8.chip(self.dead8).raw_codeword(w);
            let (dx, cx) = fault.corruption(w);
            if crc
                .decode(CodeWord72::new(raw.data() ^ dx, raw.check() ^ cx))
                .is_event()
            {
                self.x8.inject_fault(self.dead8, fault);
                placed += 1;
            }
        }
        let b = self.geometry.addr(self.lines[self.rng.below(WORKING_SET)]);
        let seed = self.rng.next();
        self.x4.inject_fault(
            self.dead4,
            InjectedFault::row(b.bank, b.row, FaultKind::Permanent).with_seed(seed),
        );
        // Single-bit faults on eight distinct lines: each beat sees at
        // most one flipped bit, which SEC-DED corrects.
        let mut slots: Vec<usize> = Vec::with_capacity(8);
        while slots.len() < 8 {
            let slot = self.rng.below(WORKING_SET);
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
        for slot in slots {
            let w = self.addr(slot);
            let chip = self.rng.below(9);
            let bit = self.rng.below(72) as u32;
            self.sd
                .inject_fault(chip, InjectedFault::bit(w, bit, FaultKind::Permanent));
        }
        self.collide = true;
    }

    fn inject_chip_failures(&mut self) {
        let s8 = self.rng.next();
        let s4 = self.rng.next();
        self.x8.inject_fault(
            self.dead8,
            InjectedFault::chip(FaultKind::Permanent).with_seed(s8),
        );
        self.x4.inject_fault(
            self.dead4,
            InjectedFault::chip(FaultKind::Permanent).with_seed(s4),
        );
        // The patrol scrub diagnoses the rows where the dead chip's
        // garbage slips past its on-die code, which fills the faulty-row
        // tracker and condemns the chip: from here every read
        // reconstructs it.
        self.x8.patrol_scrub();
    }

    /// Breaks a second x8 chip and reads the lines where both broken
    /// chips' on-die codes flag their words: two erasures exceed the
    /// single parity chip, so each read must report a DUE.
    fn due_probe(&mut self, lat: &mut LatencyHist, classes: &mut ClassTimes) -> (u64, u64) {
        let seed = self.rng.next();
        self.x8.inject_fault(
            self.second8,
            InjectedFault::chip(FaultKind::Permanent).with_seed(seed),
        );
        let (mut probed, mut wrong) = (0, 0);
        if self.x8.condemned_chip() != Some(self.dead8) {
            // The schedule requires the scrub to have condemned the chip.
            wrong += 1;
        }
        for slot in 0..WORKING_SET {
            if probed as usize == DUE_PROBES {
                break;
            }
            let addr = self.addr(slot);
            let flagged = |chip: usize| self.x8.chip(chip).read(addr).on_die_event;
            if !(flagged(self.dead8) && flagged(self.second8)) {
                continue;
            }
            let t = Instant::now();
            let r = self.x8.read_line(addr);
            let ns = t.elapsed().as_nanos() as u64;
            lat.record(ns);
            classes.add(OpClass::OtherRead, ns);
            probed += 1;
            if r.is_ok() {
                wrong += 1;
            }
        }
        (probed, wrong)
    }
}

/// Runs one epoch's schedule; returns (operations, mismatches).
fn run_epoch(
    e: &mut Epoch,
    ops_per_phase: usize,
    lat: &mut LatencyHist,
    classes: &mut ClassTimes,
    batch_rates: &mut Vec<f64>,
    tracer: &Tracer,
) -> (u64, u64) {
    let (mut ops, mut bad) = (0u64, 0u64);
    for phase in 0..3 {
        match phase {
            1 => e.inject_word_row_faults(),
            2 => e.inject_chip_failures(),
            _ => {}
        }
        // One `core` span per batch: a span per sub-microsecond operation
        // would cost more than the operations it measures.
        for first in (0..ops_per_phase).step_by(SPAN_BATCH) {
            let n = SPAN_BATCH.min(ops_per_phase - first);
            let unit = (phase * ops_per_phase + first) as u32;
            let ns_before: u64 = classes.ns.iter().sum();
            let wrong = tracer.span(Layer::Core, 0, unit, |_| {
                (0..n).filter(|_| !e.op(lat, classes)).count()
            });
            let ns = classes.ns.iter().sum::<u64>() - ns_before;
            batch_rates.push(n as f64 / (ns.max(1) as f64 / 1e9));
            ops += n as u64;
            bad += wrong as u64;
        }
    }
    let (probed, wrong) = e.due_probe(lat, classes);
    (ops + probed, bad + wrong)
}

/// One generator thread's share of a timed run.
#[derive(Debug, Default)]
struct Share {
    lat: LatencyHist,
    classes: ClassTimes,
    batch_rates: Vec<f64>,
    ops: u64,
    bad: u64,
    epochs: u64,
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(false);
    // Set-up: boot and fill the three systems, then one warm-up epoch.
    let ((), setup_s) = timed_setup(|| {
        let mut e = Epoch::boot(mix(seed, u64::MAX));
        run_epoch(
            &mut e,
            2_000,
            &mut LatencyHist::default(),
            &mut ClassTimes::default(),
            &mut Vec::new(),
            &tracer,
        );
    });
    // One set of controllers per core (like one per memory channel), each
    // on its own epoch sequence. Throughput is the median over
    // 64-operation batches of both: a batch that a preempted operation
    // lands in is an outlier, not a shift, and pooling the cores averages
    // out a busier one.
    let threads = crate::nproc() as u64;
    let start = Instant::now();
    let shares: Vec<Share> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tracer = &tracer;
                s.spawn(move || {
                    let mut share = Share::default();
                    while share.epochs == 0 || start.elapsed() < budget {
                        let mut epoch = Epoch::boot(mix(seed, share.epochs * threads + t));
                        let (ops, bad) = run_epoch(
                            &mut epoch,
                            PHASE_OPS,
                            &mut share.lat,
                            &mut share.classes,
                            &mut share.batch_rates,
                            tracer,
                        );
                        share.ops += ops;
                        share.bad += bad;
                        share.epochs += 1;
                    }
                    share
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("datapath thread"))
            .collect()
    });
    let mut lat = LatencyHist::default();
    let mut batch_rates = Vec::new();
    let mut epochs = 0;
    for sh in &shares {
        lat.merge(&sh.lat);
        batch_rates.extend_from_slice(&sh.batch_rates);
        out.attempted += sh.ops;
        out.failed += sh.bad;
        epochs += sh.epochs;
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} reads differed from the shadow copy or the required DUE")
    });
    let rate = median_rate(&mut out, &batch_rates);
    let p50 = lat.percentile_ns(50.0) as f64 / 1e6;
    let p90 = lat.percentile_ns(90.0) as f64 / 1e6;
    let p99 = lat.percentile_ns(99.0) as f64 / 1e6;
    push_end_to_end(&mut out, setup_s, rate, p50, p90);
    out.note("p99_ms", p99, "ms");
    out.note("line_ops_per_s", rate, "ops/s");
    out.note("epochs", epochs as f64, "count");
    out.note("line_ops", lat.count() as f64, "count");
    out
}

/// Results of the fixed-work layer pass.
#[derive(Debug, Default)]
pub struct PassTotals {
    pub classes: ClassTimes,
    pub reconstructions: u64,
    pub catch_words: u64,
    pub collisions: u64,
    pub mismatches: u64,
    pub captured: Vec<CodeWord72>,
}

/// The fixed-work layer pass: one epoch, one `core` span per operation.
pub fn layer_pass(seed: u64, tracer: &Tracer) -> PassTotals {
    let mut e = Epoch::boot(mix(seed, 1));
    let mut t = PassTotals::default();
    let (_, bad) = run_epoch(
        &mut e,
        PHASE_OPS / 2,
        &mut LatencyHist::default(),
        &mut t.classes,
        &mut Vec::new(),
        tracer,
    );
    let (s8, s4) = (e.x8.stats(), e.x4.stats());
    t.reconstructions = s8.reconstructions + s4.reconstructions;
    t.catch_words = s8.catch_words_observed + s4.catch_words_observed;
    t.collisions = s8.collisions + s4.collisions;
    t.mismatches = bad;
    t.captured = std::mem::take(&mut e.captured);
    let codes = Codes::new(&t.captured, seed);
    tracer.span(Layer::Ecc, 0, 0, |_| codes.decode_all(1));
    t
}

/// The `xed_ecc` decoders' inputs: the CRC8 codewords captured from the
/// x8 DIMM under the fault schedule, the same corruption patterns on
/// Hamming codewords, and RS(18,16) beats with one corrupted symbol (the
/// x4 system's dead chip).
struct Codes {
    crc: Crc8Atm,
    ham: Hamming7264,
    rs: ReedSolomon,
    lines: Vec<[CodeWord72; 8]>,
    hamming: Vec<CodeWord72>,
    beats: Vec<([u8; 18], usize, [u8; 16])>,
}

impl Codes {
    fn new(captured: &[CodeWord72], seed: u64) -> Self {
        let crc = Crc8Atm::new();
        let ham = Hamming7264::new();
        let rs = ReedSolomon::new(Field::gf256(), 18, 16);
        let mut rng = Stream(mix(seed, 4));
        let words: Vec<CodeWord72> = if captured.len() >= 8 {
            captured.to_vec()
        } else {
            (0..64).map(|_| crc.encode(rng.next())).collect()
        };
        // The corruption each captured word carries, relative to the
        // codeword its decoded data re-encodes to.
        let flips: Vec<(u64, u8)> = words
            .iter()
            .map(|w| {
                let clean = crc.encode(crc.decode(*w).data().unwrap_or_else(|| w.data()));
                (w.data() ^ clean.data(), w.check() ^ clean.check())
            })
            .collect();
        let lines = words
            .chunks_exact(8)
            .map(|c| std::array::from_fn(|i| c[i]))
            .collect();
        let hamming = flips
            .iter()
            .map(|&(dx, cx)| {
                let w = ham.encode(rng.next());
                CodeWord72::new(w.data() ^ dx, w.check() ^ cx)
            })
            .collect();
        let beats = flips
            .iter()
            .take(512)
            .map(|&(dx, _)| {
                let data: [u8; 16] = std::array::from_fn(|_| rng.next() as u8);
                let mut cw = [0u8; 18];
                rs.encode_into(&data, &mut cw);
                let chip = rng.below(18);
                cw[chip] ^= (dx as u8).max(1);
                (cw, chip, data)
            })
            .collect();
        Codes {
            crc,
            ham,
            rs,
            lines,
            hamming,
            beats,
        }
    }

    fn crc8_lines(&self, reps: usize) -> u64 {
        let mut acc = 0u64;
        for i in 0..reps * self.lines.len() {
            let line = &self.lines[i % self.lines.len()];
            acc = acc.wrapping_add(u64::from(self.crc.decode_line(line).bad_beats));
        }
        acc
    }

    fn hamming_words(&self, reps: usize) -> u64 {
        let mut acc = 0u64;
        for i in 0..reps * self.hamming.len() {
            let w = self.hamming[i % self.hamming.len()];
            acc = acc.wrapping_add(u64::from(self.ham.decode(w).is_event()));
        }
        acc
    }

    /// Decodes every beat `reps` times, blind or with the corrupted
    /// symbol as a known erasure; false if any decode missed the data.
    fn rs_beats(&self, reps: usize, erasures: bool, scratch: &mut RsScratch) -> bool {
        let mut ok = true;
        for i in 0..reps * self.beats.len() {
            let (cw, chip, data) = &self.beats[i % self.beats.len()];
            let erased = [*chip];
            let e: &[usize] = if erasures { &erased } else { &[] };
            ok &= matches!(self.rs.decode_with(cw, e, scratch), Ok(d) if d.data(16) == data);
        }
        ok
    }

    fn decode_all(&self, reps: usize) -> bool {
        let mut scratch = RsScratch::new();
        std::hint::black_box(self.crc8_lines(reps));
        std::hint::black_box(self.hamming_words(reps));
        self.rs_beats(reps, false, &mut scratch) & self.rs_beats(reps, true, &mut scratch)
    }
}

/// Per-layer metrics of `core` from an untraced pass, and of `ecc` from
/// timing its public decoders on the codewords that pass captured.
pub fn probes(t: &PassTotals, seed: u64, out: &mut Outcome) {
    out.check(t.mismatches == 0, || {
        format!("layer pass: {} reads differed", t.mismatches)
    });
    out.metric("core.ns_per_write", t.classes.mean_ns(OpClass::Write), "ns");
    out.metric(
        "core.ns_per_read.clean",
        t.classes.mean_ns(OpClass::CleanRead),
        "ns",
    );
    out.metric(
        "core.ns_per_read.reconstruct",
        t.classes.mean_ns(OpClass::ReconstructRead),
        "ns",
    );
    out.metric(
        "core.ns_per_read.x4_erasure",
        t.classes.mean_ns(OpClass::X4ErasureRead),
        "ns",
    );
    out.metric("core.reconstructions", t.reconstructions as f64, "count");
    out.metric("core.catch_words_observed", t.catch_words as f64, "count");
    out.metric("core.collisions", t.collisions as f64, "count");

    let codes = Codes::new(&t.captured, seed);
    let per = |n: usize, secs: f64| secs * 1e9 / n as f64;
    let (_, s) = time(|| std::hint::black_box(codes.crc8_lines(100)));
    out.metric(
        "ecc.crc8_line_decode_ns",
        per(100 * codes.lines.len(), s),
        "ns",
    );
    let (_, s) = time(|| std::hint::black_box(codes.hamming_words(100)));
    out.metric(
        "ecc.hamming_decode_ns",
        per(100 * codes.hamming.len(), s),
        "ns",
    );
    let mut scratch = RsScratch::new();
    let (blind, s) = time(|| codes.rs_beats(100, false, &mut scratch));
    out.metric(
        "ecc.rs18_16_decode_ns",
        per(100 * codes.beats.len(), s),
        "ns",
    );
    let (erased, s) = time(|| codes.rs_beats(100, true, &mut scratch));
    out.metric(
        "ecc.rs18_16_erasure_ns",
        per(100 * codes.beats.len(), s),
        "ns",
    );
    out.check(blind && erased, || {
        "RS(18,16) failed to correct one corrupted symbol".to_string()
    });
}
