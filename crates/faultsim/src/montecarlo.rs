//! The threaded Monte-Carlo simulation driver.
//!
//! Reproduces the paper's methodology (Section III): simulate many
//! independent systems over a 7-year lifetime, record whether and when each
//! encounters an uncorrectable (DUE) or silent (SDC) error, and report the
//! probability of system failure as a function of time.
//!
//! # Engine design (see DESIGN.md §9)
//!
//! * **Counter-based per-trial RNG streams.** Trial `i` of scheme `s`
//!   draws from the split form of stream `i` of `Streams::new(seed ⊕
//!   mix(s))`: `split_first(i)` yields the headline uniform that decides
//!   the zero-fault fast path, and `split_rest(i)` carries any remaining
//!   draws — together one logical stream, a pure function of `(seed,
//!   scheme, trial)`. Randomness is therefore independent of which worker
//!   executes the trial, which makes every [`SchemeResult`]
//!   **bit-identical for any thread count** (enforced by tier-1 tests).
//! * **Work-stealing chunk scheduler.** The trials of *all* schemes of
//!   an invocation are cut into `STEAL_CHUNK`-trial chunks and fanned out
//!   over the crate's one scheduler (`sched::steal_chunks`, shared with
//!   the rare-event engine), so [`MonteCarlo::run_all`] is parallel
//!   across schemes and no core idles at the tail. All accumulators are
//!   `u64` counters (commutative merges), so the claim order cannot
//!   affect results.
//! * **Bit-sliced trial classification.** The default [`TrialKernel`]
//!   processes trials in 64-lane blocks: the block's headline draws come
//!   from one Weyl-incremented SplitMix64 sweep, the zero-fault decisions
//!   transpose into a single `nonzero` word, one popcount credits the
//!   whole block's zero-fault trials, and only set bits spill to the
//!   scalar event machinery — bit-identical to the scalar loop by
//!   construction (see DESIGN.md §14).
//! * **Allocation-free hot loop.** Each worker owns reusable event/active
//!   buffers; `LifetimeSampler::sample_into` writes into them, and the
//!   zero-fault fast path draws only the Poisson count (one uniform) for
//!   the ~75 % of lifetimes that see no fault at all.
//! * **One timed entry point.** [`MonteCarlo::run_range`] simulates a
//!   trial range of any set of schemes and reports wall time and
//!   samples/sec via [`RunStats`]; [`MonteCarlo::run`] and
//!   [`MonteCarlo::run_all`] are its untimed whole-budget forms. The
//!   `mc_throughput` bench binary persists the trajectory to
//!   `BENCH_faultsim.json`.

use crate::event::{FaultEvent, LifetimeSampler};
use crate::fault::Persistence;
use crate::fit::{FitRates, HOURS_PER_YEAR, LIFETIME_YEARS};
use crate::sched;
use crate::schemes::{ModelParams, Scheme, SchemeModel, Verdict};
use rand::rngs::Streams;
use rand::Rng;
use std::time::Instant;
use xed_telemetry::{registry::metrics, Tallies};

/// Trials per scheduler chunk. Large enough that the chunk claim is noise
/// (one per ~4k trials), small enough that the tail imbalance at the end
/// of a run is microseconds. A multiple of [`LANES`], so every full chunk
/// decomposes into whole bit-sliced blocks.
const STEAL_CHUNK: u64 = 4096;

/// Trials per bit-sliced block: one trial per bit of the classification
/// word (see [`TrialKernel::BitSliced`]).
const LANES: u64 = 64;

/// `1 / HOURS_PER_YEAR`: the failure-year bucket divide as a multiply
/// (the hot loop computes it on every recorded failure).
const YEAR_RECIP: f64 = 1.0 / HOURS_PER_YEAR;

/// Which per-trial evaluation kernel the driver runs.
///
/// Both kernels consume the identical counter-based streams and produce
/// **bit-identical** [`SchemeResult`]s (enforced by tier-1 tests and the
/// ci.sh equivalence gate); the choice only affects how fast the ~75 %
/// zero-fault trials are classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialKernel {
    /// 64-lane bit-sliced classification (default): headline draws for a
    /// whole trial block are generated with one Weyl add + SplitMix64 mix
    /// per lane ([`Streams::split_first_block`]), transposed into a single
    /// `nonzero` word by [`LifetimeSampler::nonzero_mask`], credited to
    /// the zero-fault tally with one popcount, and only the set bits spill
    /// into the scalar event machinery.
    #[default]
    BitSliced,
    /// The straight scalar loop, one trial at a time — kept as the live
    /// differential oracle for the bit-sliced path.
    Scalar,
}

/// Monte-Carlo run configuration.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// Number of independent systems to simulate per scheme. The paper uses
    /// 10⁹; 10⁶–10⁸ gives tight estimates at the probabilities involved.
    pub samples: u64,
    /// Lifetime in years (paper: 7).
    pub years: f64,
    /// Base RNG seed. Results are a pure function of `(seed, scheme,
    /// samples)` — the thread count never changes them.
    pub seed: u64,
    /// Worker threads; `0` = use all available cores.
    pub threads: usize,
    /// Fault-response model parameters (on-die ECC, scaling faults, …).
    pub params: ModelParams,
    /// Per-chip FIT rates.
    pub rates: FitRates,
    /// Per-trial evaluation kernel (bit-sliced by default; results are
    /// bit-identical either way).
    pub kernel: TrialKernel,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            samples: 1_000_000,
            years: LIFETIME_YEARS,
            seed: 0x5EED,
            threads: 0,
            params: ModelParams::default(),
            rates: FitRates::table_i(),
            kernel: TrialKernel::default(),
        }
    }
}

/// Aggregated outcome of simulating one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The simulated scheme.
    pub scheme: Scheme,
    /// Systems simulated.
    pub samples: u64,
    /// Failures (DUE + SDC) whose failure time fell in year `i`
    /// (`failures_by_year[0]` = failures during the first year).
    pub failures_by_year: Vec<u64>,
    /// Total detected-uncorrectable failures.
    pub due: u64,
    /// Total silent failures.
    pub sdc: u64,
    /// Failures attributed to the extent of the fault whose arrival
    /// triggered them, indexed like [`crate::fault::FaultExtent::ALL`].
    pub failures_by_extent: [u64; 6],
}

impl SchemeResult {
    /// Total failed systems.
    pub fn failures(&self) -> u64 {
        self.due + self.sdc
    }

    /// Probability that a system fails within the first `years` years
    /// (cumulative; fractional years round up to the enclosing year bucket).
    pub fn failure_probability(&self, years: f64) -> f64 {
        let buckets = (years.ceil() as usize).min(self.failures_by_year.len());
        let failed: u64 = self.failures_by_year[..buckets].iter().sum();
        failed as f64 / self.samples as f64
    }

    /// Probability that a system fails at any point in the simulated
    /// lifetime (every recorded failure, regardless of year).
    pub fn lifetime_failure_probability(&self) -> f64 {
        self.failures() as f64 / self.samples as f64
    }

    /// Cumulative failure-probability curve, one point per year boundary —
    /// the series plotted in the paper's Figures 1 and 7–10.
    pub fn curve(&self) -> Vec<f64> {
        let mut acc = 0u64;
        self.failures_by_year
            .iter()
            .map(|&f| {
                acc += f;
                acc as f64 / self.samples as f64
            })
            .collect()
    }

    /// Failure share attributed to each triggering fault extent, as
    /// `(extent, count)` pairs in [`crate::fault::FaultExtent::ALL`] order.
    pub fn attribution(&self) -> [(crate::fault::FaultExtent, u64); 6] {
        let mut out = [(crate::fault::FaultExtent::Bit, 0u64); 6];
        for (i, (slot, &count)) in out
            .iter_mut()
            .zip(self.failures_by_extent.iter())
            .enumerate()
        {
            *slot = (crate::fault::FaultExtent::ALL[i], count);
        }
        out
    }

    /// Two-sided 95 % binomial confidence half-width on the lifetime
    /// failure probability: `1.96 · √(p(1−p)/n)` with `p` the observed
    /// [`Self::lifetime_failure_probability`] (normal approximation, which
    /// is comfortably valid at the ≥10⁵-sample counts the driver runs).
    pub fn confidence95(&self) -> f64 {
        let p = self.lifetime_failure_probability();
        1.96 * (p * (1.0 - p) / self.samples as f64).sqrt()
    }

    /// Two-sided 99 % binomial confidence half-width on the lifetime
    /// failure probability: `2.576 · √(p(1−p)/n)`. The analytic oracle in
    /// `xed-testkit` gates the Monte-Carlo estimate against closed-form
    /// probabilities at this stricter bound, so a divergence it reports is
    /// statistically significant, not sampling noise.
    pub fn confidence99(&self) -> f64 {
        let p = self.lifetime_failure_probability();
        2.576 * (p * (1.0 - p) / self.samples as f64).sqrt()
    }

    /// Folds another result for the *same scheme* over a *disjoint trial
    /// range* into this one.
    ///
    /// Every field is a plain `u64` tally, so accumulating the range runs
    /// `[0, B), [B, 2B), …` produced by [`MonteCarlo::run_range`]
    /// is **bit-identical** to one batch run over the union of the ranges
    /// — trial randomness is a pure function of `(seed, scheme, trial)`,
    /// never of how the trial space was partitioned. This is the merge
    /// that backs the streaming engine facade (`faultsim::engine`) and
    /// the `xedd` partial-confidence responses.
    pub fn merge_from(&mut self, other: &SchemeResult) {
        debug_assert_eq!(self.scheme, other.scheme, "merging different schemes");
        debug_assert_eq!(
            self.failures_by_year.len(),
            other.failures_by_year.len(),
            "merging different lifetimes"
        );
        self.samples += other.samples;
        self.due += other.due;
        self.sdc += other.sdc;
        for (a, b) in self
            .failures_by_year
            .iter_mut()
            .zip(&other.failures_by_year)
        {
            *a += b;
        }
        for (a, b) in self
            .failures_by_extent
            .iter_mut()
            .zip(&other.failures_by_extent)
        {
            *a += b;
        }
    }
}

/// One classifier decision inside a replayed trial ([`MonteCarlo::replay_trial`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStep {
    /// Arrival time of the evaluated fault, in hours since system start.
    pub time_hours: f64,
    /// Global chip index the fault struck; `None` on the isolated-fault
    /// fast path (the verdict is chip-independent there, and the replay
    /// mirrors the production loop draw-for-draw).
    pub chip: Option<u32>,
    /// Spatial extent of the evaluated fault.
    pub extent: crate::fault::FaultExtent,
    /// Persistence of the evaluated fault.
    pub persistence: Persistence,
    /// Faults still active (unexpired, survived) when this one arrived.
    pub active: usize,
    /// The classifier's verdict for this access.
    pub verdict: Verdict,
}

/// Failure record of a replayed trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialFailure {
    /// `true` for a detected-uncorrectable failure, `false` for silent
    /// data corruption.
    pub due: bool,
    /// Year bucket the failure falls in (clamped like the aggregate run).
    pub year: usize,
    /// Extent index (per [`crate::fault::FaultExtent::ALL`]) of the fault
    /// whose arrival triggered the failure.
    pub extent_index: usize,
}

/// Deterministic single-trial evaluation: the full decision timeline of
/// trial `trial`, exactly as the aggregate run scored it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReplay {
    /// The replayed scheme.
    pub scheme: Scheme,
    /// The replayed trial index.
    pub trial: u64,
    /// `true` if the lifetime drew zero faults (no steps).
    pub zero_fault: bool,
    /// Every classifier decision, in arrival order. Evaluation stops at
    /// the first failure, like the production loop.
    pub steps: Vec<TrialStep>,
    /// The failure that ended the trial, if any.
    pub failure: Option<TrialFailure>,
}

/// Throughput and scheduler counters for one Monte-Carlo invocation.
///
/// Everything here is *metadata*: the simulated [`SchemeResult`]s are
/// bit-identical regardless of threads or timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Wall-clock duration of the invocation, in seconds.
    pub wall_seconds: f64,
    /// Trials simulated per wall-clock second (all schemes combined).
    pub samples_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Total trials simulated (`samples × schemes`).
    pub samples: u64,
    /// Trials that took the zero-fault fast path (drew a Poisson count of
    /// zero and touched no buffer).
    pub zero_fault_samples: u64,
}

impl RunStats {
    /// Combines this invocation's stats with another's, as if the two had
    /// run back to back: wall times and sample counts add, throughput is
    /// recomputed over the combined run. Used by study binaries that sweep
    /// several configurations and report one aggregate footer.
    ///
    /// The countable fields ride [`Tallies::merge`] — the same commutative
    /// wrapping add the worker partials fold with, so every accumulation
    /// in this module shares one merge primitive.
    #[must_use]
    pub fn merge(&self, other: &RunStats) -> RunStats {
        let counts = Tallies::from_array([self.samples, self.zero_fault_samples]).merge(
            &Tallies::from_array([other.samples, other.zero_fault_samples]),
        );
        let wall_seconds = self.wall_seconds + other.wall_seconds;
        RunStats {
            wall_seconds,
            samples_per_sec: counts.get(0) as f64 / wall_seconds.max(1e-9),
            threads: self.threads.max(other.threads),
            samples: counts.get(0),
            zero_fault_samples: counts.get(1),
        }
    }
}

/// A [`SchemeResult`] plus the [`RunStats`] of the invocation that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The (thread-count-invariant) simulation outcome.
    pub result: SchemeResult,
    /// Timing metadata for this invocation.
    pub stats: RunStats,
}

/// The Monte-Carlo simulator.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    config: MonteCarloConfig,
}

impl MonteCarlo {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MonteCarloConfig) -> Self {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.years > 0.0, "lifetime must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// Worker threads this configuration resolves to (a run never uses
    /// more workers than it has chunks).
    pub fn threads(&self) -> usize {
        sched::resolve_threads(self.config.threads)
    }

    /// Simulates one scheme across all samples, in parallel.
    ///
    /// The result is a pure function of `(seed, scheme, samples, years,
    /// params, rates)`; thread count only affects wall time.
    pub fn run(&self, scheme: Scheme) -> SchemeResult {
        let mut results = self.run_all(&[scheme]);
        // invariant: run_range returns exactly one result per input scheme.
        results.pop().expect("one scheme in, one result out")
    }

    /// Runs every scheme in `schemes` over all samples and returns the
    /// results in order (the untimed form of [`Self::run_range`]).
    pub fn run_all(&self, schemes: &[Scheme]) -> Vec<SchemeResult> {
        self.run_range(schemes, 0, self.config.samples).0
    }

    /// Simulates trials `[first, first + count)` of every scheme in
    /// `schemes`, ignoring the configured sample count, and reports the
    /// per-scheme results in order plus the invocation's [`RunStats`].
    ///
    /// The schemes share one work-stealing pool: all `schemes.len() ×
    /// count` trials are interleaved across the workers, so a
    /// seven-scheme sweep saturates the machine instead of running seven
    /// serial barriers. Each result is bit-identical to a solo run of
    /// that scheme, because every trial's randomness is keyed by `(seed,
    /// scheme, trial)` — never by worker, batch composition or range.
    /// Accumulating consecutive range runs with
    /// [`SchemeResult::merge_from`] therefore reproduces a single batch
    /// run of the union **bit-for-bit** — the primitive behind the
    /// streaming `faultsim::engine` facade and `xedd`'s
    /// partial-confidence responses. Range boundaries need not align
    /// with the 64-lane bit-sliced blocks or the work-stealing chunks.
    pub fn run_range(
        &self,
        schemes: &[Scheme],
        first: u64,
        count: u64,
    ) -> (Vec<SchemeResult>, RunStats) {
        assert!(count > 0, "need at least one trial in the range");
        let config = &self.config;
        let years = config.years.ceil() as usize;
        let lanes: Vec<(SchemeModel, LifetimeSampler<'_>, Streams)> = schemes
            .iter()
            .map(|&s| {
                let model = SchemeModel::new(s, config.params);
                let sampler = LifetimeSampler::new(
                    &config.rates,
                    model.config().geometry,
                    model.config().total_chips(),
                    config.years,
                );
                (model, sampler, stream_family(config.seed, s))
            })
            .collect();
        // Chunk `c` is trials `[first + (c % chunks_per_scheme) ·
        // STEAL_CHUNK ..][..n]` of scheme `c / chunks_per_scheme`.
        let chunks_per_scheme = count.div_ceil(STEAL_CHUNK);
        // invariant: chunks_per_scheme ≤ samples and scheme counts are tiny
        // (≤ dozens), so the chunk-id space cannot overflow u64 for any
        // simulation size a machine can actually run.
        let total_chunks = chunks_per_scheme
            .checked_mul(lanes.len() as u64)
            .expect("chunk-id space overflow");

        // Wall-clock timing is reporting-only metadata; the simulation
        // itself stays deterministic.
        let start = Instant::now(); // xed-lint: allow(XL005)
        let (per_worker, threads) = sched::steal_chunks(
            config.threads,
            total_chunks,
            || {
                let partials: Vec<Partial> = lanes.iter().map(|_| Partial::new(years)).collect();
                (partials, Scratch::default())
            },
            |(partials, scratch), c| {
                let si = (c / chunks_per_scheme) as usize;
                let offset = (c % chunks_per_scheme) * STEAL_CHUNK;
                let n = STEAL_CHUNK.min(count - offset);
                // indexing: si < lanes.len() = partials.len(), since
                // c < total_chunks = chunks_per_scheme · lanes.len().
                let (model, sampler, streams) = &lanes[si];
                run_trials(
                    model,
                    sampler,
                    streams,
                    config.kernel,
                    first + offset,
                    n,
                    years,
                    &mut partials[si],
                    scratch,
                );
                n
            },
        );
        let wall_seconds = start.elapsed().as_secs_f64();

        let mut zero_fault_samples = 0u64;
        let mut bitslice_blocks = 0u64;
        let mut bitslice_spills = 0u64;
        let results: Vec<SchemeResult> = schemes
            .iter()
            .enumerate()
            .map(|(si, &scheme)| {
                let mut result = SchemeResult {
                    scheme,
                    samples: count,
                    failures_by_year: vec![0; years],
                    due: 0,
                    sdc: 0,
                    failures_by_extent: [0; 6],
                };
                let mut counts: Tallies<P_SLOTS> = Tallies::new();
                for (partials, _) in &per_worker {
                    let p = &partials[si];
                    counts.merge_from(&p.counts);
                    for (a, b) in result.failures_by_year.iter_mut().zip(&p.failures_by_year) {
                        *a += b;
                    }
                }
                result.due = counts.get(P_DUE);
                result.sdc = counts.get(P_SDC);
                zero_fault_samples += counts.get(P_ZERO_FAULT);
                bitslice_blocks += counts.get(P_BITSLICE_BLOCKS);
                bitslice_spills += counts.get(P_BITSLICE_SPILLS);
                for (i, slot) in result.failures_by_extent.iter_mut().enumerate() {
                    *slot = counts.get(P_EXTENT0 + i);
                }
                result
            })
            .collect();

        let samples = count * schemes.len() as u64;
        let stats = RunStats {
            wall_seconds,
            samples_per_sec: samples as f64 / wall_seconds.max(1e-9),
            threads,
            samples,
            zero_fault_samples,
        };

        // Publish-at-merge (DESIGN.md §11): the hot loop accumulated into
        // owned tallies; the global registry counters are bumped once per
        // invocation, here at the join point.
        if xed_telemetry::enabled() {
            metrics::FAULTSIM_RUNS.incr();
            metrics::FAULTSIM_TRIALS.add(samples);
            metrics::FAULTSIM_ZERO_FAULT_TRIALS.add(zero_fault_samples);
            metrics::FAULTSIM_DUE.add(results.iter().map(|r| r.due).sum());
            metrics::FAULTSIM_SDC.add(results.iter().map(|r| r.sdc).sum());
            metrics::FAULTSIM_BITSLICE_BLOCKS.add(bitslice_blocks);
            metrics::FAULTSIM_BITSLICE_SPILLS.add(bitslice_spills);
        }
        (results, stats)
    }

    /// Replays one trial of `scheme` and returns its full decision
    /// timeline.
    ///
    /// This is the deterministic single-shot evaluation hook behind the
    /// golden conformance traces (`xed-trace-v1`): it consumes the *same*
    /// counter-based stream as trial `trial` of [`Self::run`], mirrors the
    /// production loop draw-for-draw (zero-fault fast path, isolated-fault
    /// fast path, expiry bookkeeping, stop-at-first-failure), and so
    /// aggregating `replay_trial` over every trial index reproduces the
    /// aggregate [`SchemeResult`] bit-for-bit (asserted by
    /// `replaying_every_trial_reproduces_the_aggregate_result` below).
    pub fn replay_trial(&self, scheme: Scheme, trial: u64) -> TrialReplay {
        let config = &self.config;
        let years = config.years.ceil() as usize;
        let model = SchemeModel::new(scheme, config.params);
        let sampler = LifetimeSampler::new(
            &config.rates,
            model.config().geometry,
            model.config().total_chips(),
            config.years,
        );
        let streams = stream_family(config.seed, scheme);
        let mut replay = TrialReplay {
            scheme,
            trial,
            zero_fault: false,
            steps: Vec::new(),
            failure: None,
        };

        let u0 = streams.split_first(trial);
        if sampler.is_zero_fault(u0) {
            replay.zero_fault = true;
            return replay;
        }
        let mut rng = streams.split_rest(trial);
        let count = sampler.count_split(u0, &mut rng);
        if count == 0 {
            replay.zero_fault = true;
            return replay;
        }
        if count == 1 {
            let (extent, persistence, time_hours) = sampler.sample_mode_time(&mut rng);
            let verdict = model.evaluate_isolated(&mut rng, extent, persistence);
            replay.steps.push(TrialStep {
                time_hours,
                chip: None,
                extent,
                persistence,
                active: 0,
                verdict,
            });
        } else {
            let mut scratch = Scratch::default();
            sampler.events_into(count, &mut rng, &mut scratch.events);
            let steps = &mut replay.steps;
            run_timeline(
                &model,
                &mut rng,
                &scratch.events,
                &mut scratch.active,
                |e, active, verdict| {
                    steps.push(TrialStep {
                        time_hours: e.time_hours,
                        chip: Some(e.chip),
                        extent: e.fault.extent,
                        persistence: e.fault.persistence,
                        active,
                        verdict,
                    });
                },
            );
        }
        // Evaluation stops at the first failure, so only the last step
        // can be one.
        let last = replay.steps.last().filter(|s| s.verdict.is_failure());
        replay.failure = last.map(|s| TrialFailure {
            due: s.verdict == Verdict::Due,
            year: ((s.time_hours * YEAR_RECIP) as usize).min(years - 1),
            extent_index: s.extent.index(),
        });
        replay
    }
}

/// Slot layout of a [`Partial`]'s fixed-size tally block.
const P_DUE: usize = 0;
const P_SDC: usize = 1;
const P_ZERO_FAULT: usize = 2;
/// First of six failure-extent slots (indexed like
/// [`crate::fault::FaultExtent::ALL`]).
const P_EXTENT0: usize = 3;
/// 64-lane blocks classified by the bit-sliced kernel.
const P_BITSLICE_BLOCKS: usize = P_EXTENT0 + 6;
/// Trials a bit-sliced block spilled to the scalar event machinery
/// (the popcount of the block's `nonzero` word).
const P_BITSLICE_SPILLS: usize = P_BITSLICE_BLOCKS + 1;
const P_SLOTS: usize = P_BITSLICE_SPILLS + 1;

/// Per-worker, per-scheme accumulator. The fixed-size counters live in
/// one owned [`Tallies`] block (plain adds, commutative merge — the
/// foundation of thread-count invariance); only the variable-length
/// per-year failure counts stay a `Vec`.
struct Partial {
    failures_by_year: Vec<u64>,
    counts: Tallies<P_SLOTS>,
}

impl Partial {
    fn new(years: usize) -> Self {
        Self {
            failures_by_year: vec![0; years],
            counts: Tallies::new(),
        }
    }
}

/// Reusable per-worker scratch buffers; allocated once per worker, reused
/// for every trial (the hot loop itself never allocates). Shared with the
/// rare-event engine's trial loop.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Current trial's fault timeline.
    pub(crate) events: Vec<FaultEvent>,
    /// The active set [`run_timeline`] keeps in place.
    pub(crate) active: Vec<FaultEvent>,
}

/// Replays a time-sorted fault timeline against `model` and returns the
/// arrival that first fails (DUE/SDC), if any: the crate's one
/// expiry / first-failure loop (Monte-Carlo multi-fault trials,
/// [`MonteCarlo::replay_trial`] and the rare-event engine). Each arrival
/// is evaluated against `active`, kept in place: permanent faults stay,
/// a corrected transient stays for the exposure window (exclusive end),
/// or not at all without one. `on_step` sees every decision and the
/// active-set size it was made against. No allocation once the
/// caller-owned `active` has grown to the largest active set.
pub(crate) fn run_timeline<'e, R: Rng + ?Sized>(
    model: &SchemeModel,
    rng: &mut R,
    events: &'e [FaultEvent],
    active: &mut Vec<FaultEvent>,
    mut on_step: impl FnMut(&FaultEvent, usize, Verdict),
) -> Option<(&'e FaultEvent, Verdict)> {
    let exposure = model.params().transient_exposure_hours;
    active.clear();
    for e in events {
        if exposure > 0.0 {
            active.retain(|a| {
                a.fault.persistence == Persistence::Permanent
                    || a.time_hours + exposure > e.time_hours
            });
        }
        let verdict = model.evaluate(rng, e, active);
        on_step(e, active.len(), verdict);
        if verdict.is_failure() {
            return Some((e, verdict));
        }
        if e.fault.persistence == Persistence::Permanent || exposure > 0.0 {
            // alloc: amortized growth of the reused per-worker buffer.
            active.push(*e);
        }
    }
    None
}

/// The counter-based stream family of `(seed, scheme)`: trial `i` of
/// `scheme` draws from stream `i` of it. The Monte-Carlo workers,
/// [`MonteCarlo::replay_trial`] and the rare-event engine (with a salted
/// seed) all key their randomness here — part of the reproducibility
/// contract, like `Scheme::stream_tag`.
pub(crate) fn stream_family(seed: u64, scheme: Scheme) -> Streams {
    Streams::new(seed.wrapping_add(scheme.stream_tag().wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Simulates trials `[first, first + count)` of one scheme into `partial`.
#[allow(clippy::too_many_arguments)]
fn run_trials(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    kernel: TrialKernel,
    first: u64,
    count: u64,
    years: usize,
    partial: &mut Partial,
    scratch: &mut Scratch,
) {
    match kernel {
        TrialKernel::Scalar => {
            for trial in first..first + count {
                // Trial randomness is the split form of stream `trial`:
                // the headline draw decides the zero-fault fast path
                // without paying for generator construction, and
                // `split_rest` carries the (rare) remaining draws. Still a
                // pure function of `(seed, scheme, trial)` — thread-count
                // invariance intact.
                let u0 = streams.split_first(trial);
                run_trial(model, sampler, streams, trial, u0, years, partial, scratch);
            }
        }
        TrialKernel::BitSliced => {
            run_trials_bitsliced(
                model, sampler, streams, first, count, years, partial, scratch,
            );
        }
    }
}

/// The bit-sliced kernel: classifies whole 64-trial blocks.
///
/// Per block, one [`Streams::split_first_block`] fills the 64 headline
/// draws (one Weyl add + SplitMix64 mix per lane — the index multiply is
/// hoisted), [`LifetimeSampler::nonzero_mask`] transposes the zero-fault
/// decisions into one word, a single popcount credits the whole block's
/// zero-fault trials to the tally, and only the set bits spill into
/// [`run_trial`]. Spilled lanes consume *exactly* the draws the scalar
/// kernel would — `u0` is handed over, `split_rest` is keyed by trial —
/// so results are bit-identical to [`TrialKernel::Scalar`] by
/// construction. The tail of a short chunk (< 64 trials) runs scalar.
#[allow(clippy::too_many_arguments)]
fn run_trials_bitsliced(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    first: u64,
    count: u64,
    years: usize,
    partial: &mut Partial,
    scratch: &mut Scratch,
) {
    let end = first + count;
    let mut block = first;
    let mut u0s = [0u64; LANES as usize];
    while block + LANES <= end {
        streams.split_first_block(block, &mut u0s);
        let nonzero = sampler.nonzero_mask(&u0s);
        let spills = u64::from(nonzero.count_ones());
        partial.counts.add(P_ZERO_FAULT, LANES - spills);
        partial.counts.bump(P_BITSLICE_BLOCKS);
        partial.counts.add(P_BITSLICE_SPILLS, spills);
        let mut m = nonzero;
        while m != 0 {
            let lane = m.trailing_zeros() as u64;
            m &= m - 1;
            // indexing: lane < 64 (trailing_zeros of a non-zero u64).
            let u0 = u0s[lane as usize];
            run_trial(
                model,
                sampler,
                streams,
                block + lane,
                u0,
                years,
                partial,
                scratch,
            );
        }
        block += LANES;
    }
    for trial in block..end {
        let u0 = streams.split_first(trial);
        run_trial(model, sampler, streams, trial, u0, years, partial, scratch);
    }
}

/// Evaluates one trial whose headline draw `u0` is already taken. The
/// single per-trial body shared by both kernels — the scalar loop calls it
/// for every trial, the bit-sliced kernel only for spilled lanes (where
/// the `is_zero_fault` test is a redundant-but-cheap recheck that keeps
/// the draw sequence identical).
#[allow(clippy::too_many_arguments)]
fn run_trial(
    model: &SchemeModel,
    sampler: &LifetimeSampler<'_>,
    streams: &Streams,
    trial: u64,
    u0: u64,
    years: usize,
    partial: &mut Partial,
    scratch: &mut Scratch,
) {
    if sampler.is_zero_fault(u0) {
        partial.counts.bump(P_ZERO_FAULT);
        return;
    }
    let mut rng = streams.split_rest(trial);
    let count = sampler.count_split(u0, &mut rng);
    if count == 0 {
        // Unreachable for λ ≤ 30 (is_zero_fault caught it); kept for
        // the chunked large-λ Poisson path, where the headline draw
        // alone cannot prove the count is zero.
        partial.counts.bump(P_ZERO_FAULT);
        return;
    }
    let (time_hours, extent, verdict) = if count == 1 {
        // Single-fault lifetime (~86 % of the non-empty ones): the
        // only evaluation sees an empty active set, where the verdict
        // never depends on the chip or address range the fault struck
        // (`SchemeModel::evaluate_isolated`). Skip those draws, the
        // event buffer, and the timeline bookkeeping entirely.
        let (extent, persistence, time_hours) = sampler.sample_mode_time(&mut rng);
        let verdict = model.evaluate_isolated(&mut rng, extent, persistence);
        (time_hours, extent, verdict)
    } else {
        sampler.events_into(count, &mut rng, &mut scratch.events);
        let (events, active) = (&scratch.events, &mut scratch.active);
        match run_timeline(model, &mut rng, events, active, |_, _, _| {}) {
            Some((e, verdict)) => (e.time_hours, e.fault.extent, verdict),
            None => return,
        }
    };
    if verdict.is_failure() {
        let year = ((time_hours * YEAR_RECIP) as usize).min(years - 1);
        // indexing: year is clamped to years - 1 above.
        partial.failures_by_year[year] += 1;
        partial.counts.bump(P_EXTENT0 + extent.index());
        partial.counts.bump(if verdict == Verdict::Due {
            P_DUE
        } else {
            P_SDC
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(samples: u64) -> MonteCarlo {
        MonteCarlo::new(MonteCarloConfig {
            samples,
            seed: 7,
            ..MonteCarloConfig::default()
        })
    }

    #[test]
    fn deterministic_given_seed() {
        let mc = quick(20_000);
        let a = mc.run(Scheme::EccDimm);
        let b = mc.run(Scheme::EccDimm);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_changes_results() {
        // The tentpole invariant: bit-identical SchemeResult for any
        // thread count (work assignment must not leak into randomness).
        // 50k samples are 13 chunks, so 16 threads is more workers than
        // chunks.
        for scheme in [Scheme::Xed, Scheme::EccDimm] {
            let results: Vec<SchemeResult> = [1usize, 3, 8, 16]
                .iter()
                .map(|&threads| {
                    MonteCarlo::new(MonteCarloConfig {
                        samples: 50_000,
                        seed: 7,
                        threads,
                        ..MonteCarloConfig::default()
                    })
                    .run(scheme)
                })
                .collect();
            assert_eq!(results[0], results[1], "{scheme}: 1 vs 3 threads");
            assert_eq!(results[0], results[2], "{scheme}: 1 vs 8 threads");
            assert_eq!(results[0], results[3], "{scheme}: 1 vs 16 threads");
        }
    }

    #[test]
    fn workers_never_outnumber_chunks() {
        // One trial is one chunk: asking for 64 threads must start one
        // worker, and give the single-thread result.
        let run = |threads| {
            MonteCarlo::new(MonteCarloConfig {
                samples: 1,
                seed: 7,
                threads,
                ..MonteCarloConfig::default()
            })
            .run_range(&[Scheme::Xed], 0, 1)
        };
        let (wide, wide_stats) = run(64);
        let (solo, _) = run(1);
        assert_eq!(wide_stats.threads, 1);
        assert_eq!(wide, solo);
    }

    #[test]
    fn bit_sliced_kernel_is_bit_identical_to_scalar() {
        // The bit-sliced kernel must reproduce the scalar path bit for
        // bit: same streams, same draws, same verdicts per trial. Sample
        // counts straddle block boundaries (64·k, ±1) so the scalar tail
        // path is exercised too. Combined with
        // `replaying_every_trial_reproduces_the_aggregate_result` (which
        // pins the scalar semantics per trial), aggregate equality here
        // proves the per-trial failure sets are identical — each trial's
        // stream is keyed by (seed, scheme, trial), never by kernel.
        for samples in [6_336u64, 6_337, 6_399] {
            for scheme in [Scheme::EccDimm, Scheme::Xed, Scheme::XedChipkill] {
                let run = |kernel| {
                    MonteCarlo::new(MonteCarloConfig {
                        samples,
                        seed: 7,
                        kernel,
                        ..MonteCarloConfig::default()
                    })
                    .run(scheme)
                };
                assert_eq!(
                    run(TrialKernel::BitSliced),
                    run(TrialKernel::Scalar),
                    "{scheme} at {samples} samples"
                );
            }
        }
    }

    #[test]
    fn merged_range_runs_are_bit_identical_to_one_batch_run() {
        // The streaming contract: accumulating consecutive range runs with
        // merge_from reproduces the batch run of the union bit for bit.
        // Block sizes straddle both the 64-lane bit-sliced blocks and the
        // 4096-trial steal chunks, so unaligned range starts are covered.
        let mc = quick(20_000);
        for scheme in [Scheme::EccDimm, Scheme::Xed] {
            let batch = mc.run(scheme);
            for block in [1_000u64, 4_096, 4_100, 6_337] {
                let mut done = 0u64;
                let mut acc: Option<SchemeResult> = None;
                while done < 20_000 {
                    let n = block.min(20_000 - done);
                    let (mut part, _) = mc.run_range(&[scheme], done, n);
                    let part = part.pop().expect("one scheme in, one result out");
                    match acc.as_mut() {
                        Some(acc) => acc.merge_from(&part),
                        None => acc = Some(part),
                    }
                    done += n;
                }
                assert_eq!(
                    acc.expect("at least one block"),
                    batch,
                    "{scheme} at block size {block}"
                );
            }
        }
    }

    #[test]
    fn range_prefix_matches_smaller_batch_run() {
        // A partial estimate after N trials must equal what a batch run of
        // exactly N samples reports — the bit-reproducibility claim xedd
        // makes for every streamed chunk.
        for n in [4_096u64, 5_000, 12_288] {
            let (prefix, _) = quick(20_000).run_range(&[Scheme::Xed], 0, n);
            let batch = quick(n).run(Scheme::Xed);
            assert_eq!(prefix, [batch], "prefix of {n} trials");
        }
    }

    #[test]
    fn replaying_every_trial_reproduces_the_aggregate_result() {
        // replay_trial must consume the identical stream the aggregate
        // run does, so folding all replays together is the aggregate
        // SchemeResult, bit for bit. This is what licenses the golden
        // traces to describe "what the simulator did" for a trial.
        let mc = quick(6_000);
        for scheme in [Scheme::EccDimm, Scheme::Xed, Scheme::XedChipkill] {
            let aggregate = mc.run(scheme);
            let years = mc.config().years.ceil() as usize;
            let mut folded = SchemeResult {
                scheme,
                samples: 6_000,
                failures_by_year: vec![0; years],
                due: 0,
                sdc: 0,
                failures_by_extent: [0; 6],
            };
            for trial in 0..6_000 {
                let replay = mc.replay_trial(scheme, trial);
                if let Some(f) = replay.failure {
                    folded.failures_by_year[f.year] += 1;
                    folded.failures_by_extent[f.extent_index] += 1;
                    if f.due {
                        folded.due += 1;
                    } else {
                        folded.sdc += 1;
                    }
                }
            }
            assert_eq!(folded, aggregate, "{scheme}");
        }
    }

    #[test]
    fn replay_timeline_is_consistent() {
        let mc = quick(4_000);
        for trial in 0..4_000 {
            let replay = mc.replay_trial(Scheme::Xed, trial);
            assert_eq!(replay.zero_fault, replay.steps.is_empty());
            // Evaluation stops at the first failure, so a failure verdict
            // may only appear on the final step.
            for step in &replay.steps[..replay.steps.len().saturating_sub(1)] {
                assert!(matches!(step.verdict, Verdict::Benign | Verdict::Corrected));
            }
            if let Some(f) = replay.failure {
                // invariant: failure implies at least one step, and its
                // verdict must agree with the failure record.
                let last = replay.steps.last().expect("failure without steps");
                assert_eq!(f.due, last.verdict == Verdict::Due);
            }
            // Arrival order is non-decreasing in time.
            for pair in replay.steps.windows(2) {
                assert!(pair[0].time_hours <= pair[1].time_hours);
            }
        }
    }

    #[test]
    fn confidence99_is_wider_than_confidence95_by_z_ratio() {
        let r = SchemeResult {
            scheme: Scheme::EccDimm,
            samples: 1_000_000,
            failures_by_year: vec![],
            due: 300,
            sdc: 100,
            failures_by_extent: [0; 6],
        };
        let ratio = r.confidence99() / r.confidence95();
        assert!((ratio - 2.576 / 1.96).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn run_all_matches_individual_runs() {
        // Batching schemes into one work-stealing pool must not change any
        // scheme's result (streams are keyed by scheme, not batch).
        let mc = quick(30_000);
        let schemes = [Scheme::EccDimm, Scheme::Xed, Scheme::Chipkill];
        let batched = mc.run_all(&schemes);
        for (scheme, batched) in schemes.iter().zip(&batched) {
            assert_eq!(*batched, mc.run(*scheme), "{scheme}");
        }
    }

    #[test]
    fn run_range_reports_consistent_stats() {
        let mc = quick(40_000);
        let (results, stats) = mc.run_range(&[Scheme::EccDimm], 0, 40_000);
        assert_eq!(results, [mc.run(Scheme::EccDimm)]);
        assert_eq!(stats.samples, 40_000);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.samples_per_sec > 0.0);
        assert!(stats.threads >= 1);
        // λ ≈ 0.29 for a 72-chip system ⇒ ~75 % zero-fault lifetimes.
        let zero_frac = stats.zero_fault_samples as f64 / 40_000.0;
        assert!(
            (0.70..0.80).contains(&zero_frac),
            "zero-fault fraction {zero_frac}"
        );
    }

    #[test]
    fn run_stats_merge_adds_and_recomputes_throughput() {
        let a = RunStats {
            wall_seconds: 1.0,
            samples_per_sec: 100.0,
            threads: 2,
            samples: 100,
            zero_fault_samples: 70,
        };
        let b = RunStats {
            wall_seconds: 3.0,
            samples_per_sec: 100.0,
            threads: 4,
            samples: 300,
            zero_fault_samples: 210,
        };
        let m = a.merge(&b);
        assert_eq!(m.samples, 400);
        assert_eq!(m.zero_fault_samples, 280);
        assert_eq!(m.threads, 4);
        assert!((m.wall_seconds - 4.0).abs() < 1e-12);
        assert!((m.samples_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn confidence95_matches_hand_computed_binomial_half_width() {
        // 400 failures in 10⁴ samples: p = 0.04, and
        // 1.96·√(0.04·0.96/10⁴) = 1.96·1.9595917942…e-3 = 3.8408…e-3.
        let r = SchemeResult {
            scheme: Scheme::EccDimm,
            samples: 10_000,
            failures_by_year: vec![100, 300, 0, 0, 0, 0, 0],
            due: 300,
            sdc: 100,
            failures_by_extent: [0, 0, 0, 0, 400, 0],
        };
        assert_eq!(r.lifetime_failure_probability(), 0.04);
        let expected = 3.840_799_916_684e-3;
        assert!(
            (r.confidence95() - expected).abs() < 1e-9,
            "got {}",
            r.confidence95()
        );
        // And it shrinks with sample count like 1/√n.
        let bigger = SchemeResult {
            samples: 40_000,
            failures_by_year: vec![400, 1200, 0, 0, 0, 0, 0],
            due: 1200,
            sdc: 400,
            ..r.clone()
        };
        assert!((bigger.confidence95() - expected / 2.0).abs() < 1e-9);
    }

    #[test]
    fn ecc_dimm_fails_around_13_percent() {
        // Analytic: P ≈ 1 − exp(−72 · 33.3e-9 · 61320) ≈ 0.137.
        let r = quick(60_000).run(Scheme::EccDimm);
        let p = r.failure_probability(7.0);
        assert!((0.11..0.16).contains(&p), "p = {p}");
    }

    #[test]
    fn xed_orders_of_magnitude_better_than_ecc_dimm() {
        let mc = quick(120_000);
        let ecc = mc.run(Scheme::EccDimm).failure_probability(7.0);
        let xed = mc.run(Scheme::Xed).failure_probability(7.0);
        assert!(xed > 0.0, "xed should see some failures at 120k samples");
        assert!(ecc / xed > 30.0, "ecc {ecc} / xed {xed} = {}", ecc / xed);
    }

    #[test]
    fn chipkill_between_ecc_and_xed() {
        let mc = quick(120_000);
        let ecc = mc.run(Scheme::EccDimm).failure_probability(7.0);
        let ck = mc.run(Scheme::Chipkill).failure_probability(7.0);
        let xed = mc.run(Scheme::Xed).failure_probability(7.0);
        assert!(ck < ecc, "chipkill {ck} vs ecc {ecc}");
        assert!(xed <= ck, "xed {xed} vs chipkill {ck}");
    }

    #[test]
    fn curve_is_monotone() {
        let r = quick(40_000).run(Scheme::EccDimm);
        let c = r.curve();
        assert_eq!(c.len(), 7);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        assert!((c[6] - r.failure_probability(7.0)).abs() < 1e-12);
    }

    #[test]
    fn non_ecc_failures_are_silent() {
        let r = quick(30_000).run(Scheme::NonEcc);
        assert_eq!(r.due, 0);
        assert!(r.sdc > 0);
    }

    #[test]
    fn double_chipkill_very_reliable() {
        let r = quick(50_000).run(Scheme::DoubleChipkill);
        assert!(r.failure_probability(7.0) < 2e-3);
    }

    #[test]
    fn coarse_intersection_model_is_more_pessimistic() {
        use crate::schemes::ModelParams;
        let strict = quick(400_000).run(Scheme::Xed).failure_probability(7.0);
        let coarse = MonteCarlo::new(MonteCarloConfig {
            samples: 400_000,
            seed: 7,
            params: ModelParams {
                require_line_intersection: false,
                ..Default::default()
            },
            ..MonteCarloConfig::default()
        })
        .run(Scheme::Xed)
        .failure_probability(7.0);
        assert!(coarse > strict, "coarse {coarse} vs strict {strict}");
    }

    #[test]
    fn transient_exposure_window_increases_failures() {
        use crate::schemes::ModelParams;
        let immediate = quick(400_000).run(Scheme::Xed).failure_probability(7.0);
        // A month-long exposure lets transient faults pair up.
        let exposed = MonteCarlo::new(MonteCarloConfig {
            samples: 400_000,
            seed: 7,
            params: ModelParams {
                transient_exposure_hours: 30.0 * 24.0,
                ..Default::default()
            },
            ..MonteCarloConfig::default()
        })
        .run(Scheme::Xed)
        .failure_probability(7.0);
        assert!(
            exposed >= immediate,
            "exposure must not reduce failures: {exposed} vs {immediate}"
        );
    }
}
