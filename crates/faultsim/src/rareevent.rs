//! Importance-sampled rare-event estimation of tail failure probabilities.
//!
//! Plain Monte-Carlo wastes almost every trial on the Table-IV-class
//! schemes: a Double-Chipkill system fails with probability ~10⁻⁸ per
//! lifetime, so resolving it to a usable confidence interval needs ~10¹⁰
//! unweighted trials. This module estimates the same probabilities with
//! two nested variance-reduction layers (derivations in DESIGN.md §14):
//!
//! 1. **Count conditioning.** A scheme that needs at least `k` faults to
//!    fail (see [`min_failing_faults`]) draws its Poisson count from the
//!    truncated distribution `P(N = n | N ≥ k)` and multiplies every
//!    trial's contribution by the analytic factor `P(N ≥ k)`. Trials that
//!    cannot fail are never simulated; the estimator stays exactly
//!    unbiased because those trials contribute zero to the plain-MC mean.
//! 2. **Clique forcing** ([`TailMode::CliqueForced`]). Chipkill-class
//!    failures additionally require `k` *multi-bit* faults on distinct
//!    chips of one protection domain intersecting at a common cache line
//!    (an *A-clique*). The proposal plants such a clique: it tilts `k`
//!    fault modes by their clique weight, places them on distinct chips of
//!    one domain, and conditions their address ranges on sharing a line.
//!    The likelihood ratio is `C(n,k) · ρ / S(x)` where `ρ` — the
//!    probability that `k` independent faults form an A-clique — is exact
//!    and analytic, and `S(x)` counts the A-cliques actually realized in
//!    the trial (≥ 1 by construction).
//!
//! Both layers keep the counter-based `(seed, scheme, trial)` stream
//! discipline of the plain driver: every trial's randomness is a pure
//! function of its index, worker partial sums are folded in chunk order,
//! and the resulting [`TailEstimate`] is **bit-identical for any thread
//! count**.

use crate::analytic::p_line_overlap_n;
use crate::event::{FaultEvent, LifetimeSampler, POISSON_CHUNK};
use crate::fault::{Fault, FaultExtent, FaultRange, Persistence};
use crate::fit::{FitRates, HOURS_PER_YEAR, LIFETIME_YEARS};
use crate::montecarlo::{run_timeline, stream_family, MonteCarlo, MonteCarloConfig, Scratch};
use crate::sched;
use crate::schemes::{ModelParams, Scheme, SchemeModel, Verdict};
use rand::rngs::{StdRng, Streams};
use rand::Rng;
use std::time::Instant;
use xed_telemetry::registry::metrics;

/// Trials per scheduler chunk. Conditioned trials are ~10× the cost of
/// plain ones (no zero-fault fast path), so the chunk is smaller than the
/// plain driver's 4096 while the claim stays noise. Part of the
/// determinism rule: the `f64` sums are grouped per chunk before the
/// chunk-ordered fold, so changing this moves the estimate's low bits.
const TAIL_CHUNK: u64 = 1024;

/// Largest forced-clique size (Double-Chipkill needs three faults).
const MAX_CLIQUE: usize = 3;

/// Extra stream-key salt separating the rare-event stream family from the
/// plain Monte-Carlo family of the same `(seed, scheme)` — the two engines
/// must never replay each other's draws. Part of the reproducibility
/// contract, like `Scheme::stream_tag`.
const TAIL_STREAM_SALT: u64 = 0x7A11_5EED_CA5C_ADE5;

/// Ceiling of the truncated-count walk past the conditioning threshold.
/// The Poisson pmf decays faster than geometrically once `n > λ`, so for
/// the λ ≤ 30 regime this is unreachable in practice; it bounds the walk
/// against a floating-point stall where the partial sums converge a ulp
/// below the precomputed `P(N ≥ k)`.
const COUNT_WALK_CAP: u32 = 400;

/// How the rare-event engine conditioned a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailMode {
    /// Count conditioning *and* a forced fault clique: trials draw
    /// `N | N ≥ k` and plant `k` multi-bit faults on distinct chips of
    /// one protection domain at a common cache line, reweighted by the
    /// analytic likelihood ratio. The sharpest estimator; requires a
    /// Chipkill-class scheme (`k ≥ 2`) and scaling faults disabled (with
    /// scaling, a single-bit arrival can complete a failure, so the
    /// clique structure no longer covers every failing trial).
    CliqueForced,
    /// Count conditioning only: trials draw `N | N ≥ k` and are otherwise
    /// unweighted except for the `P(N ≥ k)` factor. Valid for every
    /// scheme and parameter set (with λ ≤ 30).
    CountConditioned,
    /// Plain Monte-Carlo (delegates to [`MonteCarlo`]): the fallback when
    /// λ exceeds the truncated-walk regime.
    PlainMc,
}

impl TailMode {
    /// Short stable identifier used in reports and JSON sidecars.
    pub fn label(self) -> &'static str {
        match self {
            TailMode::CliqueForced => "clique-forced",
            TailMode::CountConditioned => "count-conditioned",
            TailMode::PlainMc => "plain-mc",
        }
    }
}

/// Rare-event run configuration (mirrors [`MonteCarloConfig`]).
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Conditioned trials to simulate per scheme.
    pub samples: u64,
    /// Lifetime in years (paper: 7).
    pub years: f64,
    /// Base RNG seed. Results are a pure function of `(seed, scheme,
    /// samples)` — the thread count never changes them.
    pub seed: u64,
    /// Worker threads; `0` = use all available cores.
    pub threads: usize,
    /// Fault-response model parameters.
    pub params: ModelParams,
    /// Per-chip FIT rates.
    pub rates: FitRates,
    /// Force a specific mode instead of auto-selecting the sharpest valid
    /// one. A forced [`TailMode::CliqueForced`] still falls back to
    /// count conditioning when the scheme or parameters make clique
    /// forcing unsound — the override can weaken the estimator, never
    /// bias it.
    pub force_mode: Option<TailMode>,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            samples: 1_000_000,
            years: LIFETIME_YEARS,
            seed: 0x5EED,
            threads: 0,
            params: ModelParams::default(),
            rates: FitRates::table_i(),
            force_mode: None,
        }
    }
}

/// The importance-sampled estimate for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TailEstimate {
    /// The estimated scheme.
    pub scheme: Scheme,
    /// Conditioning mode the engine actually ran.
    pub mode: TailMode,
    /// Conditioned trials simulated (for [`TailMode::PlainMc`], plain
    /// trials).
    pub samples: u64,
    /// The conditioning threshold `k`: the minimum number of lifetime
    /// faults a failing trial of this scheme can have (0 for plain MC).
    pub min_faults: u32,
    /// `P(N ≥ k)` under the unconditioned Poisson count (1 for plain MC).
    pub conditioning_probability: f64,
    /// `ρ`: probability that `k` independent faults form an A-clique
    /// (0 unless [`TailMode::CliqueForced`]).
    pub clique_rho: f64,
    /// Estimated lifetime failure probability (DUE + SDC).
    pub p_fail: f64,
    /// Estimated lifetime detected-uncorrectable probability.
    pub p_due: f64,
    /// Estimated lifetime silent-corruption probability.
    pub p_sdc: f64,
    /// Raw failing conditioned trials (unweighted count).
    pub failures: u64,
    /// Sample variance of the `p_fail` estimator,
    /// `s²/T` with `s²` the per-trial weight variance.
    pub variance: f64,
    /// Wall-clock seconds of this invocation (metadata; the estimate
    /// itself is deterministic).
    pub wall_seconds: f64,
    /// Worker threads used (never more than the run had chunks; 0 for an
    /// exact-zero estimate, which simulates nothing).
    pub threads: usize,
}

impl TailEstimate {
    /// Two-sided 95 % confidence half-width on [`Self::p_fail`].
    pub fn ci95(&self) -> f64 {
        1.96 * self.variance.sqrt()
    }

    /// Two-sided 99 % confidence half-width on [`Self::p_fail`].
    pub fn ci99(&self) -> f64 {
        2.576 * self.variance.sqrt()
    }

    /// Relative precision: `ci95 / p_fail` (∞ when no failure was seen).
    pub fn relative_ci95(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.ci95() / self.p_fail
        } else {
            f64::INFINITY
        }
    }

    /// Number of *plain* Monte-Carlo trials that would be needed for the
    /// same variance: `p(1−p)/var`. The effective-throughput multiplier
    /// of the importance sampler is this divided by [`Self::samples`].
    pub fn effective_trials(&self) -> f64 {
        if self.variance > 0.0 {
            self.p_fail * (1.0 - self.p_fail) / self.variance
        } else {
            0.0
        }
    }
}

/// The minimum number of lifetime faults a failing trial of `scheme` can
/// contain, for any [`ModelParams`].
///
/// * 1 for the schemes a single multi-bit chip fault defeats (and NonECC,
///   which even a bit fault defeats);
/// * 2 for the single-erasure/single-symbol schemes: with one lifetime
///   fault the driver's evaluation sees an empty active set, where
///   `SchemeModel::evaluate_isolated` never fails these schemes;
/// * 3 for Double-Chipkill: its budget of two chips means a failure needs
///   `concurrent_chips ≥ 3`, i.e. an arrival plus two active faults.
pub fn min_failing_faults(scheme: Scheme) -> u32 {
    match scheme {
        Scheme::NonEcc | Scheme::EccDimm | Scheme::Xed => 1,
        Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::XedChipkill => 2,
        Scheme::DoubleChipkill => 3,
    }
}

/// A fault of mode `(extent, persistence)` on the cache line `(bank, row,
/// col)`: every line-address field its extent pins is set, the rest are
/// wildcards. `Bit` pins like `Word` at line granularity (mirrors
/// [`crate::analytic::p_line_overlap_n`]).
fn line_fault(extent: FaultExtent, persistence: Persistence, line: (u32, u32, u32)) -> Fault {
    let (pin_bank, pin_row, pin_col) = match extent {
        FaultExtent::Bit | FaultExtent::Word => (true, true, true),
        FaultExtent::Column => (true, false, true),
        FaultExtent::Row => (true, true, false),
        FaultExtent::Bank => (true, false, false),
        FaultExtent::Chip => (false, false, false),
    };
    Fault {
        extent,
        persistence,
        range: FaultRange {
            bank: pin_bank.then_some(line.0),
            row: pin_row.then_some(line.1),
            col: pin_col.then_some(line.2),
            bit: None,
        },
    }
}

/// One fault mode eligible for clique membership, with its probability
/// mass `q = FIT_mode / FIT_total` under the unconditioned mode draw.
#[derive(Debug, Clone, Copy)]
struct CliqueMode {
    q: f64,
    extent: FaultExtent,
    persistence: Persistence,
}

/// Precompiled clique-forcing proposal for one scheme.
#[derive(Debug, Clone)]
struct CliquePlan {
    /// Clique size `k` (2 or 3).
    j: usize,
    /// `ρ = Z · (s−1)⋯(s−k+1) / C^(k−1)`: the probability that `k`
    /// independent, unconditioned faults form an A-clique.
    rho: f64,
    /// `Z = Σ q₁⋯q_k · ov(e₁…e_k)` over ordered mode tuples: the
    /// mode/range part of `ρ`, and the normalizer of the *untilted* tuple
    /// distribution.
    z: f64,
    /// Per-tuple target weight `wᵢ = q₁⋯q_k · ov` (sums to `z`).
    weights: Vec<f64>,
    /// Cumulative **proposal** weights (ascending), scanned with
    /// `partition_point` to draw a tuple. Initially the prefix sums of
    /// `weights`; [`Self::apply_tilt`] rebuilds them as `Σ wᵢ·tᵢ`.
    cum: Vec<f64>,
    /// Per-tuple likelihood-ratio factor replacing `ρ` in the trial
    /// weight: `lrᵢ = chipfactor · W̃ / tᵢ` where `W̃ = Σ wᵢ·tᵢ` is the
    /// tilted normalizer. Untilted (`tᵢ = 1`) this is `ρ` for every
    /// tuple, so tilting is a strict generalization.
    lr: Vec<f64>,
    /// The mode tuple of each `cum` entry (`MAX_CLIQUE` slots; entries
    /// past `j` are padding).
    tuples: Vec<[(FaultExtent, Persistence); MAX_CLIQUE]>,
    /// Chips per protection domain (`s`). Domains are contiguous chip
    /// blocks of this span (rank or channel).
    domain_span: u32,
    /// Whether ranges must share a cache line (strict model) or merely
    /// coexist in the domain (coarse model).
    strict: bool,
    /// Time-ordered, persistence-restricted roles: member slots are
    /// assigned in arrival order and every member except the last must be
    /// a **permanent** fault. Sound only with a zero transient-exposure
    /// window, where the active set the evaluator consults contains
    /// permanent faults exclusively — a failing trial then always
    /// contains a permanent-until-last witness, so `S'` stays ≥ 1 on the
    /// support of `f`. Shrinks `Z` (and hence the weight) by the
    /// transient mass of the non-final slots.
    ordered: bool,
}

impl CliquePlan {
    /// Compiles the clique proposal, or `None` when clique forcing is
    /// unsound or degenerate for this scheme/parameter combination. With
    /// `ordered`, non-final clique slots draw only permanent modes (see
    /// [`Self::ordered`]); the caller must ensure the exposure window is
    /// zero before asking for it.
    fn build(model: &SchemeModel, rates: &FitRates, k: u32, ordered: bool) -> Option<CliquePlan> {
        // With scaling faults enabled a single-bit arrival can complete a
        // failure, so failing trials need not contain an all-multi-bit
        // clique — the structural argument below would be unsound.
        if k < 2 || k as usize > MAX_CLIQUE || model.params().scaling.enabled() {
            return None;
        }
        let total = rates.total_fit();
        if total <= 0.0 {
            return None;
        }
        let all_modes: Vec<CliqueMode> = rates
            .rows()
            .iter()
            .filter(|r| r.extent.is_multi_bit())
            .flat_map(|r| {
                [
                    (r.transient_fit, Persistence::Transient),
                    (r.permanent_fit, Persistence::Permanent),
                ]
                .into_iter()
                .filter(|&(fit, _)| fit > 0.0)
                .map(move |(fit, persistence)| CliqueMode {
                    q: fit / total,
                    extent: r.extent,
                    persistence,
                })
            })
            .collect();
        let perm_modes: Vec<CliqueMode> = all_modes
            .iter()
            .copied()
            .filter(|m| m.persistence == Persistence::Permanent)
            .collect();
        // Per-slot mode pools: ordered mode restricts every slot but the
        // last (the arrival that completes the failure) to permanent
        // faults.
        let slot_modes = |slot: usize| -> &[CliqueMode] {
            if ordered && slot + 1 < k as usize {
                &perm_modes
            } else {
                &all_modes
            }
        };
        if (0..k as usize).any(|slot| slot_modes(slot).is_empty()) {
            return None;
        }
        let config = model.config();
        let domain_span = model.scheme().domain_chips();
        if domain_span < k {
            return None;
        }
        let strict = model.params().require_line_intersection;
        let j = k as usize;
        let geom = &config.geometry;

        // Enumerate ordered mode j-tuples with an odometer; weight each by
        // ∏ qᵢ times the probability the tuple's ranges share a line.
        let mut cum = Vec::new();
        let mut weights = Vec::new();
        let mut tuples = Vec::new();
        let mut z = 0.0f64;
        let mut idx = [0usize; MAX_CLIQUE];
        let mut extents = [FaultExtent::Chip; MAX_CLIQUE];
        loop {
            let mut w = 1.0f64;
            let mut tuple = [(FaultExtent::Chip, Persistence::Transient); MAX_CLIQUE];
            for slot in 0..j {
                let m = slot_modes(slot)[idx[slot]];
                w *= m.q;
                tuple[slot] = (m.extent, m.persistence);
                extents[slot] = m.extent;
            }
            let ov = if strict {
                p_line_overlap_n(&extents[..j], geom)
            } else {
                1.0
            };
            let w = w * ov;
            if w > 0.0 {
                z += w;
                cum.push(z);
                weights.push(w);
                tuples.push(tuple);
            }
            // Odometer over the per-slot pools, least-significant slot
            // first.
            let mut carry = 0;
            while carry < j {
                idx[carry] += 1;
                if idx[carry] < slot_modes(carry).len() {
                    break;
                }
                idx[carry] = 0;
                carry += 1;
            }
            if carry == j {
                break;
            }
        }
        if z <= 0.0 {
            return None;
        }
        // Chip part: the first clique chip is free (any of the C chips);
        // each further chip must land on a distinct chip of the same
        // domain — (s−1)(s−2)⋯ of the C choices.
        let c_total = config.total_chips() as f64;
        let mut rho = z;
        for i in 1..k {
            rho *= f64::from(domain_span - i) / c_total;
        }
        let lr = vec![rho; tuples.len()];
        Some(CliquePlan {
            j,
            rho,
            z,
            weights,
            cum,
            lr,
            tuples,
            domain_span,
            strict,
            ordered,
        })
    }

    /// Draws one tuple index proportionally to its (possibly tilted)
    /// proposal weight.
    fn draw_index(&self, rng: &mut StdRng) -> usize {
        // invariant: cum is non-empty (build rejects z == 0) and the clamp
        // absorbs the floating-point edge u == total.
        let total = *self.cum.last().expect("build rejects empty tuple sets");
        let u = rng.gen::<f64>() * total;
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }

    /// Re-weights the tuple proposal by per-tuple tilt factors `tᵢ > 0`
    /// (importance tilting): tuples are drawn `∝ wᵢ·tᵢ` and each drawn
    /// tuple's trial weight uses `lrᵢ = chipfactor·W̃/tᵢ` in place of `ρ`.
    /// The estimator stays unbiased for *any* positive tilt because the
    /// support is unchanged and the likelihood ratio is exact; the tilt
    /// only moves variance. Minimal variance sits near `tᵢ ∝ √fᵢ` (the
    /// tuple's conditional failure propensity), which the pilot probe
    /// approximates.
    fn apply_tilt(&mut self, tilts: &[f64]) {
        debug_assert_eq!(tilts.len(), self.weights.len());
        let chip_factor = self.rho / self.z;
        let mut acc = 0.0f64;
        for (i, (&w, &t)) in self.weights.iter().zip(tilts).enumerate() {
            debug_assert!(t > 0.0, "tilt factors must keep the full support");
            acc += w * t;
            self.cum[i] = acc;
        }
        let tilted_norm = acc;
        for (l, &t) in self.lr.iter_mut().zip(tilts) {
            *l = chip_factor * tilted_norm / t;
        }
    }
}

/// Importance tilt over the conditioned fault-count draw, bucketed as
/// `N = k`, `N = k+1`, `N = k+2`, `N ≥ k+3`. Failure propensity usually
/// *rises* with extra unforced faults (any broad-extent arrival can
/// complete a clique), so oversampling the higher buckets — with the
/// exact pmf-ratio reweighting `T̃ / t_b` — trades wasted low-count
/// trials for variance. Unbiased for any positive tilt.
#[derive(Debug, Clone)]
struct CountTilt {
    /// Cumulative tilted bucket masses `Σ P_b·t_b` (ascending).
    cum: [f64; 4],
    /// Per-bucket weight multiplier `T̃ / t_b` applied to the trial weight.
    weight: [f64; 4],
    /// `P(N ≥ k+3)` — normalizer of the lump bucket's in-bucket walk.
    p_lump: f64,
    /// `P(N = k+3)` — the lump walk's starting pmf.
    pmf_lump: f64,
}

/// The per-scheme plan a conditioned run executes.
struct TailPlan<'a> {
    model: SchemeModel,
    sampler: LifetimeSampler<'a>,
    mode: TailMode,
    k: u32,
    /// `P(N ≥ k)`.
    p_ge_k: f64,
    /// `P(N = k)` — the truncated count walk starts here.
    pmf_k: f64,
    lambda: f64,
    hours: f64,
    clique: Option<CliquePlan>,
    /// Count-draw tilt for the clique-forced path (`None` until the pilot
    /// probe installs it, and always `None` for the fallback modes).
    count_tilt: Option<CountTilt>,
}

/// Per-chunk accumulator. Chunks are folded in ascending chunk-id order at
/// the join, so the floating-point sums are bit-identical for any thread
/// count.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkSums {
    y: f64,
    y2: f64,
    due: f64,
    sdc: f64,
    failures: u64,
}

impl<'a> TailPlan<'a> {
    /// Draws from the truncated count distribution `P(N = n | N ≥ k)` by
    /// walking the Poisson pmf upward from `k` (exact inverse-CDF).
    fn draw_count(&self, rng: &mut StdRng) -> u32 {
        self.walk_count(self.k, self.pmf_k, rng.gen::<f64>() * self.p_ge_k)
    }

    /// The inverse-CDF walk behind every conditioned count draw: the
    /// first `n ≥ start` whose cumulative pmf from `start` (with
    /// `P(N = start) = pmf`) exceeds `target`.
    fn walk_count(&self, start: u32, mut pmf: f64, target: f64) -> u32 {
        let mut n = start;
        let mut cdf = pmf;
        // invariant: the pmf decays geometrically once n > λ, so the walk
        // terminates; COUNT_WALK_CAP only guards a floating-point stall.
        while cdf <= target && pmf > 0.0 && n < self.k + COUNT_WALK_CAP {
            n += 1;
            pmf *= self.lambda / f64::from(n);
            cdf += pmf;
        }
        n
    }

    /// Draws the conditioned count through the bucket tilt (when
    /// installed), returning `(n, T̃/t_b)` — the count and the exact
    /// likelihood-ratio multiplier for its bucket.
    fn draw_count_tilted(&self, rng: &mut StdRng) -> (u32, f64) {
        let Some(tilt) = &self.count_tilt else {
            return (self.draw_count(rng), 1.0);
        };
        let total = tilt.cum[3];
        let u = rng.gen::<f64>() * total;
        let b = tilt.cum.partition_point(|&c| c <= u).min(3);
        let n = match b {
            0 => self.k,
            1 => self.k + 1,
            2 => self.k + 2,
            // In-bucket draw from `P(N = n | N ≥ k+3)`.
            _ => self.walk_count(self.k + 3, tilt.pmf_lump, rng.gen::<f64>() * tilt.p_lump),
        };
        // indexing: b is a partition_point over the 4-entry cum array,
        // clamped to 3 = weight.len() - 1.
        (n, tilt.weight[b])
    }

    /// Plants the forced clique: `j` faults with tilted modes, on distinct
    /// chips of one domain, at a shared cache line (strict model). Pushes
    /// the events into `out` and returns the drawn tuple's index (its
    /// likelihood-ratio factor lives in `plan.lr`).
    fn plant_clique(
        &self,
        plan: &CliquePlan,
        rng: &mut StdRng,
        out: &mut Vec<FaultEvent>,
    ) -> usize {
        let config = self.model.config();
        let geom = &config.geometry;
        let tuple_index = plan.draw_index(rng);
        // indexing: draw_index clamps into cum, and tuples is built in
        // lockstep with cum.
        let tuple = plan.tuples[tuple_index];
        // Distinct chips of one domain: the first is any chip of the
        // system; the rest are drawn without replacement from its
        // (contiguous) domain block.
        let chip0 = rng.gen_range(0..config.total_chips());
        let start = (chip0 / plan.domain_span) * plan.domain_span;
        let mut offsets = [chip0 - start, 0, 0];
        for i in 1..plan.j {
            let mut t = rng.gen_range(0..plan.domain_span - i as u32);
            let mut taken = offsets;
            // indexing: i < j ≤ MAX_CLIQUE, the length of both arrays.
            taken[..i].sort_unstable();
            for &o in &taken[..i] {
                if t >= o {
                    t += 1;
                }
            }
            // indexing: i < j ≤ MAX_CLIQUE, the length of offsets.
            offsets[i] = t;
        }
        let mut times = [0.0f64; MAX_CLIQUE];
        for slot in times.iter_mut().take(plan.j) {
            *slot = rng.gen::<f64>() * self.hours;
        }
        if plan.ordered {
            // Role i must arrive i-th: the permanent-restricted slots come
            // first, the unrestricted final slot lands last. Sorting the
            // iid uniforms and assigning them in slot order is exactly the
            // order statistics of j uniform arrivals, so the joint time
            // density is unchanged up to the j! role permutations that the
            // tuple weight (mode product) already accounts for per ordered
            // tuple.
            // indexing: j ≤ MAX_CLIQUE, the length of times.
            times[..plan.j].sort_unstable_by(f64::total_cmp);
        }
        // Strict model: condition all j ranges on sharing one cache line.
        // Draw the line's coordinates once and give them to every member
        // that pins that field. Per field, the unconditioned densities
        // contribute (1/N)^k and the overlap probability divides out
        // (1/N)^(k−1), leaving exactly one uniform draw — so this is the
        // exact conditional distribution given a shared line. Coarse
        // model: coexistence in the domain is the whole condition, so
        // ranges stay unconditioned.
        let line = plan.strict.then(|| {
            let bank = rng.gen_range(0..geom.banks);
            let row = rng.gen_range(0..geom.rows);
            (bank, row, rng.gen_range(0..geom.cols))
        });
        for i in 0..plan.j {
            // indexing: i < j ≤ MAX_CLIQUE, the common array length.
            let (extent, persistence) = tuple[i];
            // indexing: i < j ≤ MAX_CLIQUE, the common array length.
            let (time_hours, chip) = (times[i], start + offsets[i]);
            let fault = match line {
                Some(line) => line_fault(extent, persistence, line),
                None => Fault::sample(rng, extent, persistence, geom),
            };
            out.push(FaultEvent {
                time_hours,
                chip,
                fault,
            });
        }
        tuple_index
    }

    /// Pilot probe: tilts both proposals toward where failures actually
    /// live (near-optimal tilt is ∝ √f per stratum). Stage 1 measures
    /// each tuple's exact-`k` propensity f2ᵢ (e.g. only Word-final tuples
    /// can defeat XED's on-die code at N = k); stage 2 measures the
    /// per-count-bucket propensity f_b with full trials (extra broad-extent
    /// arrivals complete cliques regardless of the forced modes, so
    /// propensity rises with N). The tuple tilt uses the composite
    /// propensity P(N=k|·)·f2ᵢ + Σ_b P_b·f_b, the count tilt uses √f_b;
    /// both carry exact likelihood-ratio reweighting and a floor that
    /// keeps the full support, so probe noise moves only variance, never
    /// the mean. On schemes where every clique fails deterministically all
    /// propensities are 1 and both tilts are the identity. Runs
    /// single-threaded on a dedicated deterministic stream
    /// (thread-count-invariant); a no-op without a clique plan.
    fn install_pilot_tilts(&mut self, streams: &Streams) {
        let Some(clique) = &self.clique else {
            return;
        };
        let (k, lambda, pmf, p_ge_k) = (self.k, self.lambda, self.pmf_k, self.p_ge_k);
        let mut probe_rng = streams.stream(u64::MAX);
        let mut scratch = Scratch::default();
        // Conditional bucket probabilities P(N ∈ b | N ≥ k) for
        // buckets {k, k+1, k+2, ≥k+3}.
        let pmf_k1 = pmf * lambda / f64::from(k + 1);
        let pmf_k2 = pmf_k1 * lambda / f64::from(k + 2);
        let pmf_k3 = pmf_k2 * lambda / f64::from(k + 3);
        let p_lump = (p_ge_k - pmf - pmf_k1 - pmf_k2).max(0.0);
        let pb = [
            pmf / p_ge_k,
            pmf_k1 / p_ge_k,
            pmf_k2 / p_ge_k,
            p_lump / p_ge_k,
        ];

        // Stage 1: exact-k tuple propensities.
        let f2: Vec<f64> = (0..clique.tuples.len())
            .map(|i| self.probe_tuple(clique, i, &mut probe_rng, &mut scratch))
            .collect();

        // Stage 2: count-bucket propensities (skip negligible buckets).
        let mut fb = [0.0f64; 4];
        for b in 1..4usize {
            if pb[b] < 1e-6 {
                continue;
            }
            let fixed_n = k + b as u32;
            let lump = (b == 3).then_some((p_lump, pmf_k3));
            fb[b] = self.probe_bucket(clique, fixed_n, lump, &mut probe_rng, &mut scratch);
        }

        let rest: f64 = (1..4).map(|b| pb[b] * fb[b]).sum();
        let tilts: Vec<f64> = f2
            .iter()
            .map(|&f| (pb[0] * f + rest).max(1e-4).sqrt())
            .collect();

        // Exact-k bucket propensity under the *tilted* tuple draw.
        let tilted_mass: f64 = clique.weights.iter().zip(&tilts).map(|(w, t)| w * t).sum();
        fb[0] = clique
            .weights
            .iter()
            .zip(&tilts)
            .zip(&f2)
            .map(|((w, t), f)| w * t * f)
            .sum::<f64>()
            / tilted_mass;

        let tb: [f64; 4] = std::array::from_fn(|b| fb[b].max(1e-4).sqrt());
        let mut cum = [0.0f64; 4];
        let mut acc = 0.0;
        for b in 0..4 {
            acc += pb[b] * tb[b];
            cum[b] = acc;
        }
        let weight: [f64; 4] = std::array::from_fn(|b| acc / tb[b]);
        if let Some(clique) = self.clique.as_mut() {
            clique.apply_tilt(&tilts);
        }
        self.count_tilt = Some(CountTilt {
            cum,
            weight,
            p_lump,
            pmf_lump: pmf_k3,
        });
    }

    /// Estimates one tuple's conditional failure propensity `f̂ᵢ` — the
    /// probability a trial fails given the forced clique drew this tuple
    /// and no extra faults arrived — by evaluating a synthetic exact-`k`
    /// timeline for up to `MAX_ROUNDS` rounds. Unanimous verdicts settle
    /// after the first batch (all failures) or at `MIN_ROUNDS` (none);
    /// only rng-dependent tuples (e.g. XED's on-die-miss roll) consume the
    /// full budget. Feeds the proposal tilt only, so estimation error
    /// cannot bias the estimator.
    ///
    /// Short cut, exact: a first round that leaves `rng` untouched took no
    /// draws, so its path did not depend on the generator and every later
    /// round would repeat its verdict without drawing either. The result
    /// (1 or 0) and the final `rng` state are then exactly those of the
    /// full loop, so the remaining rounds are skipped. Only strict-model
    /// rounds can qualify: they replay one fixed timeline, while a coarse
    /// round samples fresh ranges and so always draws.
    fn probe_tuple(
        &self,
        plan: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        const BATCH: u32 = 64;
        const MIN_ROUNDS: u32 = 512;
        const MAX_ROUNDS: u32 = 2048;
        const TARGET_FAILURES: u32 = 24;
        let mut failures = 0u32;
        let mut rounds = 0u32;
        while rounds < MAX_ROUNDS {
            let start = (rounds == 0).then(|| rng.clone());
            self.probe_timeline(plan, index, rng, &mut scratch.events);
            let failed = self.evaluate_timeline(rng, scratch).is_some();
            if start.as_ref() == Some(&*rng) {
                return if failed { 1.0 } else { 0.0 };
            }
            failures += u32::from(failed);
            rounds += 1;
            // Unanimous batches are (almost surely) deterministic verdicts;
            // mixed ones keep sampling until the propensity is resolved.
            if rounds.is_multiple_of(BATCH)
                && (failures == rounds
                    || (rounds >= MIN_ROUNDS && (failures == 0 || failures >= TARGET_FAILURES)))
            {
                break;
            }
        }
        f64::from(failures) / f64::from(rounds)
    }

    /// Fills `out` with one round's synthetic exact-`k` timeline for tuple
    /// `index`: the members on chips `0..j` (the first domain block;
    /// `build` checked `domain_span ≥ k`), arriving in slot order at hours
    /// 1, 2, …, matching the ordered proposal. The strict model pins every
    /// member to the canonical shared line (propensity is
    /// translation-invariant in the line coordinates) and draws nothing;
    /// the coarse model samples each member's range.
    fn probe_timeline(
        &self,
        plan: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        out: &mut Vec<FaultEvent>,
    ) {
        let geom = &self.model.config().geometry;
        out.clear();
        for (i, &(extent, persistence)) in plan.tuples[index].iter().enumerate().take(plan.j) {
            let fault = if plan.strict {
                line_fault(extent, persistence, (0, 0, 0))
            } else {
                Fault::sample(rng, extent, persistence, geom)
            };
            out.push(FaultEvent {
                time_hours: (i + 1) as f64,
                chip: i as u32,
                fault,
            });
        }
    }

    /// Estimates `P(fail | N ∈ bucket)` for one count bucket by full-trial
    /// simulation: plant a clique through the (still untilted) proposal,
    /// append the bucket's unforced faults, and evaluate — the same
    /// machinery as a real trial, minus the weights. `lump` carries
    /// `(P(N ≥ k+3), P(N = k+3))` to draw in-bucket counts for the open
    /// bucket; `None` uses `fixed_n` exactly.
    fn probe_bucket(
        &self,
        plan: &CliquePlan,
        fixed_n: u32,
        lump: Option<(f64, f64)>,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        const ROUNDS: u32 = 768;
        let mut failures = 0u32;
        for _ in 0..ROUNDS {
            let n = match lump {
                None => fixed_n,
                Some((p_lump, pmf)) => self.walk_count(fixed_n, pmf, rng.gen::<f64>() * p_lump),
            };
            scratch.events.clear();
            self.plant_clique(plan, rng, &mut scratch.events);
            self.sampler
                .events_append(n - plan.j as u32, rng, &mut scratch.events);
            scratch
                .events
                .sort_unstable_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
            if self.evaluate_timeline(rng, scratch).is_some() {
                failures += 1;
            }
        }
        f64::from(failures) / f64::from(ROUNDS)
    }

    /// Counts the A-cliques of size `j` among `events`: all members
    /// multi-bit, pairwise-distinct chips, one protection domain, and (in
    /// the strict model) a common cache line. This is the `S(x)` of the
    /// likelihood ratio; computed only for failing trials.
    ///
    /// In `ordered` mode the clique is a time-ordered witness: `events` is
    /// already sorted by arrival time, and every member except the
    /// latest-arriving one must be permanent (the loops visit subsets in
    /// ascending index = ascending time, so "all but the innermost loop's
    /// member" is exactly "all but the latest").
    fn count_cliques(&self, plan: &CliquePlan, events: &[FaultEvent]) -> u64 {
        let compatible = |a: &FaultEvent, b: &FaultEvent| {
            a.chip != b.chip
                && b.fault.extent.is_multi_bit()
                && self.model.same_domain(a.chip, b.chip)
        };
        let is_perm = |e: &FaultEvent| e.fault.persistence == Persistence::Permanent;
        let mut count = 0u64;
        let n = events.len();
        for i in 0..n {
            // indexing: i < n = events.len().
            let a = &events[i];
            if !a.fault.extent.is_multi_bit() {
                continue;
            }
            // `a` is the earliest member of every subset the inner loops
            // complete, so ordered witnesses need it permanent.
            if plan.ordered && !is_perm(a) {
                continue;
            }
            for l in i + 1..n {
                // indexing: l < n = events.len().
                let b = &events[l];
                if !compatible(a, b) {
                    continue;
                }
                // For triples `b` is the middle member (for pairs it is the
                // last, which ordered mode leaves unrestricted).
                if plan.ordered && plan.j == 3 && !is_perm(b) {
                    continue;
                }
                let ab = if plan.strict {
                    let x = a.fault.range.line().intersect(&b.fault.range.line());
                    if x.is_none() {
                        continue;
                    }
                    x
                } else {
                    None
                };
                if plan.j == 2 {
                    count += 1;
                    continue;
                }
                for c in events.iter().skip(l + 1) {
                    if !compatible(a, c) || c.chip == b.chip {
                        continue;
                    }
                    if plan.strict {
                        // invariant: ab is Some here — the strict arm above
                        // skipped the pair otherwise.
                        let line = ab.as_ref().expect("strict pair intersection");
                        if line.intersect(&c.fault.range.line()).is_none() {
                            continue;
                        }
                    }
                    count += 1;
                }
            }
        }
        count
    }

    /// Runs one conditioned trial; returns its weighted contribution
    /// `(y, verdict)` with `y = 0` and no verdict when the trial survives.
    fn run_trial(
        &self,
        trial: u64,
        streams: &Streams,
        scratch: &mut Scratch,
    ) -> (f64, Option<Verdict>) {
        let mut rng = streams.stream(trial);
        match (&self.clique, self.mode) {
            (Some(plan), TailMode::CliqueForced) => {
                let (n, count_weight) = self.draw_count_tilted(&mut rng);
                // invariant: the count draws return n ≥ k = j, so the
                // subtraction cannot underflow.
                let normal = n - plan.j as u32;
                scratch.events.clear();
                let tuple_index = self.plant_clique(plan, &mut rng, &mut scratch.events);
                self.sampler
                    .events_append(normal, &mut rng, &mut scratch.events);
                scratch
                    .events
                    .sort_unstable_by(|a, b| a.time_hours.total_cmp(&b.time_hours));
                match self.evaluate_timeline(&mut rng, scratch) {
                    Some(verdict) => {
                        let s = self.count_cliques(plan, &scratch.events).max(1);
                        let pairs = choose(u64::from(n), plan.j as u64);
                        let y = self.p_ge_k * count_weight * pairs as f64
                            // indexing: plant_clique's index; lr is built
                            // in lockstep with the tuple arrays.
                            * plan.lr[tuple_index]
                            / s as f64;
                        (y, Some(verdict))
                    }
                    None => (0.0, None),
                }
            }
            _ => {
                let n = self.draw_count(&mut rng);
                self.sampler.events_into(n, &mut rng, &mut scratch.events);
                match self.evaluate_timeline(&mut rng, scratch) {
                    Some(verdict) => (self.p_ge_k, Some(verdict)),
                    None => (0.0, None),
                }
            }
        }
    }

    /// The trial's first failure verdict on `scratch.events`, if any (the
    /// crate's one timeline loop, [`run_timeline`]).
    fn evaluate_timeline(&self, rng: &mut StdRng, scratch: &mut Scratch) -> Option<Verdict> {
        run_timeline(
            &self.model,
            rng,
            &scratch.events,
            &mut scratch.active,
            |_, _, _| {},
        )
        .map(|(_, verdict)| verdict)
    }
}

/// `C(n, k)` in `u64` (clique sizes are ≤ 3, counts are small).
fn choose(n: u64, k: u64) -> u64 {
    match k {
        2 => n * (n - 1) / 2,
        3 => n * (n - 1) * (n - 2) / 6,
        _ => {
            debug_assert!(k <= 1);
            if k == 0 {
                1
            } else {
                n
            }
        }
    }
}

/// The rare-event simulator.
#[derive(Debug, Clone)]
pub struct TailSimulator {
    config: TailConfig,
}

impl TailSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: TailConfig) -> Self {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.years > 0.0, "lifetime must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TailConfig {
        &self.config
    }

    /// Estimates the tail failure probability of one scheme.
    ///
    /// Auto-selects the sharpest sound mode (clique forcing where valid,
    /// else count conditioning, else plain MC), unless
    /// [`TailConfig::force_mode`] overrides it. The estimate is a pure
    /// function of `(seed, scheme, samples, years, params, rates)` — the
    /// thread count never changes it.
    pub fn run(&self, scheme: Scheme) -> TailEstimate {
        let config = &self.config;
        let mut plan = match self.plan(scheme) {
            Ok(plan) => plan,
            Err(estimate) => return estimate,
        };
        let (mode, k, p_ge_k) = (plan.mode, plan.k, plan.p_ge_k);
        let clique_rho = plan.clique.as_ref().map_or(0.0, |c| c.rho);

        let streams = stream_family(config.seed.wrapping_add(TAIL_STREAM_SALT), scheme);
        let start = Instant::now(); // xed-lint: allow(XL005)
        if plan.clique.is_some() {
            plan.install_pilot_tilts(&streams);
            if xed_telemetry::enabled() {
                metrics::FAULTSIM_TAIL_PILOT_NS.record(start.elapsed().as_nanos() as u64);
            }
        }
        let plan = plan;
        let (per_worker, threads) = sched::steal_chunks(
            config.threads,
            config.samples.div_ceil(TAIL_CHUNK),
            || (Vec::new(), Scratch::default()),
            |(out, scratch): &mut (Vec<(u64, ChunkSums)>, Scratch), c| {
                let first = c * TAIL_CHUNK;
                let count = TAIL_CHUNK.min(config.samples - first);
                let mut sums = ChunkSums::default();
                for trial in first..first + count {
                    let (y, verdict) = plan.run_trial(trial, &streams, scratch);
                    if let Some(v) = verdict {
                        sums.y += y;
                        sums.y2 += y * y;
                        sums.failures += 1;
                        if v == Verdict::Due {
                            sums.due += y;
                        } else {
                            sums.sdc += y;
                        }
                    }
                }
                out.push((c, sums));
                count
            },
        );
        let wall_seconds = start.elapsed().as_secs_f64();

        // Deterministic fold: gather every worker's chunk partials, order
        // by chunk id, and sum in that fixed order — the floating-point
        // result is bit-identical for any thread count.
        let mut chunks_sorted: Vec<(u64, ChunkSums)> =
            per_worker.into_iter().flat_map(|(out, _)| out).collect();
        chunks_sorted.sort_unstable_by_key(|&(c, _)| c);
        let mut total = ChunkSums::default();
        for (_, s) in &chunks_sorted {
            total.y += s.y;
            total.y2 += s.y2;
            total.due += s.due;
            total.sdc += s.sdc;
            total.failures += s.failures;
        }

        let t = config.samples as f64;
        let p_fail = total.y / t;
        let variance = if config.samples > 1 {
            (((total.y2 - t * p_fail * p_fail) / (t - 1.0)) / t).max(0.0)
        } else {
            0.0
        };

        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
            metrics::FAULTSIM_TAIL_TRIALS.add(config.samples);
            if mode == TailMode::CliqueForced {
                metrics::FAULTSIM_TAIL_FORCED_PAIRS.add(config.samples);
            } else if k >= 2 {
                // A Chipkill-class scheme that could not be clique-forced
                // (scaling enabled, degenerate rates, or an override).
                metrics::FAULTSIM_TAIL_FALLBACKS.incr();
            }
        }

        TailEstimate {
            scheme,
            mode,
            samples: config.samples,
            min_faults: k,
            conditioning_probability: p_ge_k,
            clique_rho,
            p_fail,
            p_due: total.due / t,
            p_sdc: total.sdc / t,
            failures: total.failures,
            variance,
            wall_seconds,
            threads,
        }
    }

    /// Compiles the conditioned plan for `scheme` (mode, count
    /// conditioning and clique proposal, pilot tilts not yet installed),
    /// or the finished estimate when the run needs no conditioned trials:
    /// the plain-MC delegate or an exact zero.
    fn plan(&self, scheme: Scheme) -> Result<TailPlan<'_>, TailEstimate> {
        let config = &self.config;
        let model = SchemeModel::new(scheme, config.params);
        let sampler = LifetimeSampler::new(
            &config.rates,
            model.config().geometry,
            model.config().total_chips(),
            config.years,
        );
        let lambda = sampler.lambda();
        let k = min_failing_faults(scheme);

        if lambda > POISSON_CHUNK || config.force_mode == Some(TailMode::PlainMc) {
            return Err(self.run_plain(scheme));
        }
        // xed-lint: allow(XL004) — exact zero-rate sentinel
        if lambda == 0.0 {
            // No faults ever arrive: the tail probability is exactly zero.
            return Err(self.zero_estimate(scheme, k));
        }

        // P(N ≥ k) and P(N = k) for the truncated count draw.
        let exp_neg = (-lambda).exp();
        let mut pmf = exp_neg; // P(N = 0)
        let mut below = 0.0f64;
        for n in 0..k {
            below += pmf;
            pmf *= lambda / f64::from(n + 1);
        }
        let p_ge_k = (1.0 - below).max(0.0);
        // xed-lint: allow(XL004) — clamped to exactly 0 above
        if p_ge_k == 0.0 {
            return Err(self.zero_estimate(scheme, k));
        }

        let clique = match config.force_mode {
            Some(TailMode::CountConditioned) => None,
            _ => {
                // Prefer the time-ordered, persistence-restricted proposal:
                // with a zero exposure window the evaluator's active set
                // holds only permanent faults, so every failing trial
                // carries a permanent-until-last witness and the tighter
                // `Z'` buys variance for free. Any positive window breaks
                // that structural guarantee (a transient can still be
                // active when the completing fault lands), so fall back to
                // unrestricted cliques — which never relied on persistence.
                // xed-lint: allow(XL004) — an exactly-zero configured window
                let restricted = config.params.transient_exposure_hours == 0.0;
                let ordered = if restricted {
                    CliquePlan::build(&model, &config.rates, k, true)
                } else {
                    None
                };
                ordered.or_else(|| CliquePlan::build(&model, &config.rates, k, false))
            }
        };
        let mode = if clique.is_some() {
            TailMode::CliqueForced
        } else {
            TailMode::CountConditioned
        };
        Ok(TailPlan {
            model,
            sampler,
            mode,
            k,
            p_ge_k,
            pmf_k: pmf,
            lambda,
            hours: config.years * HOURS_PER_YEAR,
            clique,
            count_tilt: None,
        })
    }

    /// Estimates every scheme in `schemes`, in order.
    pub fn run_all(&self, schemes: &[Scheme]) -> Vec<TailEstimate> {
        schemes.iter().map(|&s| self.run(s)).collect()
    }

    /// The plain-MC delegate (λ too large for the truncated walk, or an
    /// explicit override).
    fn run_plain(&self, scheme: Scheme) -> TailEstimate {
        let config = &self.config;
        let (mut results, stats) = MonteCarlo::new(MonteCarloConfig {
            samples: config.samples,
            years: config.years,
            seed: config.seed,
            threads: config.threads,
            params: config.params,
            rates: config.rates.clone(),
            ..MonteCarloConfig::default()
        })
        .run_range(&[scheme], 0, config.samples);
        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
            metrics::FAULTSIM_TAIL_TRIALS.add(config.samples);
            metrics::FAULTSIM_TAIL_FALLBACKS.incr();
        }
        // invariant: run_range returns exactly one result per input scheme.
        let r = results.pop().expect("one scheme in, one result out");
        let t = config.samples as f64;
        let p = r.lifetime_failure_probability();
        TailEstimate {
            scheme,
            mode: TailMode::PlainMc,
            samples: config.samples,
            min_faults: 0,
            conditioning_probability: 1.0,
            clique_rho: 0.0,
            p_fail: p,
            p_due: r.due as f64 / t,
            p_sdc: r.sdc as f64 / t,
            failures: r.failures(),
            variance: p * (1.0 - p) / t,
            wall_seconds: stats.wall_seconds,
            threads: stats.threads,
        }
    }

    /// The exact-zero estimate (no fault can arrive, or `P(N ≥ k) = 0`).
    fn zero_estimate(&self, scheme: Scheme, k: u32) -> TailEstimate {
        if xed_telemetry::enabled() {
            metrics::FAULTSIM_TAIL_RUNS.incr();
        }
        TailEstimate {
            scheme,
            mode: TailMode::CountConditioned,
            samples: self.config.samples,
            min_faults: k,
            conditioning_probability: 0.0,
            clique_rho: 0.0,
            p_fail: 0.0,
            p_due: 0.0,
            p_sdc: 0.0,
            failures: 0,
            variance: 0.0,
            wall_seconds: 0.0,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{p_fail_single_fault, p_fail_triple_fault};

    fn tail(samples: u64) -> TailSimulator {
        TailSimulator::new(TailConfig {
            samples,
            seed: 7,
            ..TailConfig::default()
        })
    }

    /// The round loop `probe_tuple` short-cuts, kept whole as its
    /// reference: 64-round batches until a unanimous batch, a failure-free
    /// `MIN_ROUNDS`, 24 failures or `MAX_ROUNDS`.
    fn probe_tuple_full(
        plan: &TailPlan<'_>,
        clique: &CliquePlan,
        index: usize,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> f64 {
        let (mut failures, mut rounds) = (0u32, 0u32);
        while rounds < 2048 {
            for _ in 0..64 {
                plan.probe_timeline(clique, index, rng, &mut scratch.events);
                if plan.evaluate_timeline(rng, scratch).is_some() {
                    failures += 1;
                }
            }
            rounds += 64;
            if failures == rounds || (rounds >= 512 && (failures == 0 || failures >= 24)) {
                break;
            }
        }
        f64::from(failures) / f64::from(rounds)
    }

    #[test]
    fn probe_short_cut_matches_the_full_round_loop() {
        // Every tuple of both clique schemes, strict and coarse, probed in
        // pilot order on one shared stream: the short-cut loop must return
        // the same propensity and leave the stream exactly where the full
        // loop leaves it, or every later probe and trial would drift.
        let coarse = ModelParams {
            require_line_intersection: false,
            ..ModelParams::default()
        };
        for (scheme, params) in [
            (Scheme::XedChipkill, ModelParams::default()),
            (Scheme::DoubleChipkill, ModelParams::default()),
            (Scheme::XedChipkill, coarse),
        ] {
            let sim = TailSimulator::new(TailConfig {
                samples: 1_000,
                seed: 7,
                params,
                ..TailConfig::default()
            });
            let Ok(plan) = sim.plan(scheme) else {
                panic!("{scheme}: no conditioned plan");
            };
            let clique = plan.clique.as_ref().expect("clique-forced plan");
            let mut fast = stream_family(7, scheme).stream(u64::MAX);
            let mut full = fast.clone();
            let mut scratch = Scratch::default();
            let mut drawing = 0;
            for i in 0..clique.tuples.len() {
                let before = fast.clone();
                let f = plan.probe_tuple(clique, i, &mut fast, &mut scratch);
                let g = probe_tuple_full(&plan, clique, i, &mut full, &mut scratch);
                assert_eq!(f.to_bits(), g.to_bits(), "{scheme} tuple {i}");
                assert_eq!(fast, full, "{scheme} tuple {i}: stream state");
                drawing += usize::from(fast != before);
            }
            // The premise the short cut rests on: Double-Chipkill's strict
            // verdicts never draw, XED-on-Chipkill's word-miss roll does.
            match (scheme, params.require_line_intersection) {
                (Scheme::DoubleChipkill, true) => assert_eq!(drawing, 0),
                _ => assert!(drawing > 0, "{scheme}: no tuple drew"),
            }
        }
    }

    #[test]
    fn min_failing_faults_per_scheme() {
        assert_eq!(min_failing_faults(Scheme::NonEcc), 1);
        assert_eq!(min_failing_faults(Scheme::EccDimm), 1);
        assert_eq!(min_failing_faults(Scheme::Xed), 1);
        assert_eq!(min_failing_faults(Scheme::Chipkill), 2);
        assert_eq!(min_failing_faults(Scheme::ChipkillX4), 2);
        assert_eq!(min_failing_faults(Scheme::XedChipkill), 2);
        assert_eq!(min_failing_faults(Scheme::DoubleChipkill), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = tail(20_000);
        let a = sim.run(Scheme::XedChipkill);
        let b = sim.run(Scheme::XedChipkill);
        assert_eq!(a.p_fail.to_bits(), b.p_fail.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn thread_count_never_changes_estimates() {
        // Same invariant as the plain driver: chunk-ordered folding makes
        // the floating-point sums bit-identical for any thread count.
        // 30k samples are 30 chunks, so 40 threads is more workers than
        // chunks (and the scheduler starts only 30).
        let estimates: Vec<TailEstimate> = [1usize, 2, 5, 40]
            .iter()
            .map(|&threads| {
                TailSimulator::new(TailConfig {
                    samples: 30_000,
                    seed: 7,
                    threads,
                    ..TailConfig::default()
                })
                .run(Scheme::XedChipkill)
            })
            .collect();
        for e in &estimates[1..] {
            assert_eq!(e.p_fail.to_bits(), estimates[0].p_fail.to_bits());
            assert_eq!(e.p_due.to_bits(), estimates[0].p_due.to_bits());
            assert_eq!(e.variance.to_bits(), estimates[0].variance.to_bits());
            assert_eq!(e.failures, estimates[0].failures);
        }
        assert_eq!(estimates[3].threads, 30);
    }

    #[test]
    fn count_conditioned_matches_closed_form_on_ecc_dimm() {
        // Every multi-bit fault defeats SECDED on arrival and bit faults
        // are benign, so the lifetime failure probability is exactly
        // P(≥ 1 large fault) — a closed form the conditioned estimator
        // must reproduce within its own confidence interval.
        let est = tail(150_000).run(Scheme::EccDimm);
        assert_eq!(est.mode, TailMode::CountConditioned);
        assert_eq!(est.min_faults, 1);
        let exact = p_fail_single_fault(&FitRates::table_i(), 72, LIFETIME_YEARS);
        assert!(
            (est.p_fail - exact).abs() < 4.0 * est.ci95().max(1e-6),
            "estimate {} vs exact {exact}",
            est.p_fail
        );
    }

    #[test]
    fn clique_forced_agrees_with_count_conditioned() {
        // The two estimators are unbiased for the same quantity; their
        // estimates must agree within joint confidence bounds.
        let forced = tail(150_000).run(Scheme::XedChipkill);
        assert_eq!(forced.mode, TailMode::CliqueForced);
        let conditioned = TailSimulator::new(TailConfig {
            samples: 2_000_000,
            seed: 11,
            force_mode: Some(TailMode::CountConditioned),
            ..TailConfig::default()
        })
        .run(Scheme::XedChipkill);
        assert_eq!(conditioned.mode, TailMode::CountConditioned);
        assert!(forced.failures > 50, "forced failures {}", forced.failures);
        let joint = (forced.variance + conditioned.variance).sqrt();
        assert!(
            (forced.p_fail - conditioned.p_fail).abs() < 5.0 * joint,
            "forced {} vs conditioned {} (joint σ {joint})",
            forced.p_fail,
            conditioned.p_fail
        );
    }

    #[test]
    fn triple_forcing_brackets_double_chipkill_closed_form() {
        // Double-Chipkill's failure probability (~10⁻⁸) is far beyond
        // plain MC at test budgets; the triple-forced estimator resolves
        // it in 100k trials and must land near the first-order analytic
        // triple-fault probability.
        let est = tail(100_000).run(Scheme::DoubleChipkill);
        assert_eq!(est.mode, TailMode::CliqueForced);
        assert_eq!(est.min_faults, 3);
        assert!(est.failures > 20, "failures {}", est.failures);
        let config = Scheme::DoubleChipkill.system_config();
        let exact = p_fail_triple_fault(
            &FitRates::table_i(),
            &config,
            Scheme::DoubleChipkill.domain_chips(),
            config.total_chips() / Scheme::DoubleChipkill.domain_chips(),
            LIFETIME_YEARS,
        );
        assert!(
            est.p_fail > exact / 4.0 && est.p_fail < exact * 4.0,
            "estimate {} vs analytic {exact}",
            est.p_fail
        );
    }

    #[test]
    fn triple_forcing_agrees_with_count_conditioned() {
        // Cross-check the ordered triple proposal against the
        // proposal-free count-conditioned estimator on Double-Chipkill;
        // both are unbiased for the same tail probability.
        let forced = tail(200_000).run(Scheme::DoubleChipkill);
        assert_eq!(forced.mode, TailMode::CliqueForced);
        let conditioned = TailSimulator::new(TailConfig {
            samples: 3_000_000,
            seed: 23,
            force_mode: Some(TailMode::CountConditioned),
            ..TailConfig::default()
        })
        .run(Scheme::DoubleChipkill);
        assert_eq!(conditioned.mode, TailMode::CountConditioned);
        assert!(forced.failures > 30, "forced failures {}", forced.failures);
        let joint = (forced.variance + conditioned.variance).sqrt();
        assert!(
            (forced.p_fail - conditioned.p_fail).abs() < 5.0 * joint,
            "forced {} vs conditioned {} (joint σ {joint})",
            forced.p_fail,
            conditioned.p_fail
        );
    }

    #[test]
    fn clique_forcing_beats_plain_mc_variance_by_orders_of_magnitude() {
        // The acceptance criterion's engine-level form: effective plain-MC
        // trials per conditioned trial must exceed 100× (the bench
        // measures the wall-clock-normalized version).
        let est = tail(50_000).run(Scheme::XedChipkill);
        assert!(est.p_fail > 0.0);
        let gain = est.effective_trials() / est.samples as f64;
        assert!(gain > 100.0, "effective-trial gain {gain}");
    }

    #[test]
    fn scaling_faults_disable_clique_forcing() {
        use crate::scaling::ScalingFaults;
        let sim = TailSimulator::new(TailConfig {
            samples: 5_000,
            params: ModelParams {
                scaling: ScalingFaults::with_rate(1e-4),
                ..ModelParams::default()
            },
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::XedChipkill);
        assert_eq!(est.mode, TailMode::CountConditioned);
        assert_eq!(est.min_faults, 2);
    }

    #[test]
    fn forced_mode_overrides_are_safe() {
        // Forcing clique mode on a k = 1 scheme falls back to count
        // conditioning instead of producing a biased estimator.
        let sim = TailSimulator::new(TailConfig {
            samples: 5_000,
            force_mode: Some(TailMode::CliqueForced),
            ..TailConfig::default()
        });
        assert_eq!(sim.run(Scheme::EccDimm).mode, TailMode::CountConditioned);
        let plain = TailSimulator::new(TailConfig {
            samples: 5_000,
            force_mode: Some(TailMode::PlainMc),
            ..TailConfig::default()
        });
        assert_eq!(plain.run(Scheme::EccDimm).mode, TailMode::PlainMc);
    }

    #[test]
    fn large_lambda_falls_back_to_plain_mc() {
        use crate::fit::ModeRate;
        let rates = FitRates::custom(vec![ModeRate {
            extent: FaultExtent::Chip,
            transient_fit: 8_000.0,
            permanent_fit: 0.0,
        }]);
        let sampler_lambda = 8_000.0e-9 * LIFETIME_YEARS * HOURS_PER_YEAR * 144.0;
        assert!(sampler_lambda > 30.0, "test premise: λ {sampler_lambda}");
        let sim = TailSimulator::new(TailConfig {
            samples: 2_000,
            rates,
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::DoubleChipkill);
        assert_eq!(est.mode, TailMode::PlainMc);
        assert_eq!(est.conditioning_probability, 1.0);
    }

    #[test]
    fn zero_rates_give_exact_zero() {
        let sim = TailSimulator::new(TailConfig {
            samples: 1_000,
            rates: FitRates::custom(vec![]),
            ..TailConfig::default()
        });
        let est = sim.run(Scheme::XedChipkill);
        assert_eq!(est.p_fail, 0.0);
        assert_eq!(est.failures, 0);
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.conditioning_probability, 0.0);
    }

    #[test]
    fn coarse_intersection_model_supports_clique_forcing() {
        // With require_line_intersection off the clique condition drops
        // the shared-line constraint but the estimator stays valid (and
        // more pessimistic, like the plain driver).
        let coarse = TailSimulator::new(TailConfig {
            samples: 60_000,
            seed: 7,
            params: ModelParams {
                require_line_intersection: false,
                ..ModelParams::default()
            },
            ..TailConfig::default()
        })
        .run(Scheme::XedChipkill);
        assert_eq!(coarse.mode, TailMode::CliqueForced);
        let strict = tail(60_000).run(Scheme::XedChipkill);
        assert!(
            coarse.p_fail > strict.p_fail,
            "coarse {} vs strict {}",
            coarse.p_fail,
            strict.p_fail
        );
    }

    #[test]
    fn estimate_accessors_are_consistent() {
        let est = tail(40_000).run(Scheme::XedChipkill);
        assert!((est.ci99() / est.ci95() - 2.576 / 1.96).abs() < 1e-12);
        assert!((est.relative_ci95() - est.ci95() / est.p_fail).abs() < 1e-15);
        assert!((est.p_due + est.p_sdc - est.p_fail).abs() < 1e-18);
        assert!(est.clique_rho > 0.0);
        assert!(est.conditioning_probability > 0.0 && est.conditioning_probability < 1.0);
    }
}
