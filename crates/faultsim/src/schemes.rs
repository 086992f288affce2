//! The memory-protection schemes the paper compares, and their
//! fault-response models.
//!
//! Each scheme is evaluated FaultSim-style: after every fault arrival the
//! scheme decides whether the system *corrected* the error, suffered a
//! *detected uncorrectable error* (DUE), or suffered *silent data
//! corruption* (SDC). The decision depends on how many distinct chips in
//! the scheme's protection domain hold concurrent faults that intersect a
//! common cache line.
//!
//! | Scheme | Devices | Domain | Tolerates |
//! |---|---|---|---|
//! | `NonEcc` | x8, 8/rank | rank | nothing beyond on-die ECC |
//! | `EccDimm` | x8, 9/rank | rank | 1 bit per 72-bit beat |
//! | `Xed` | x8, 9/rank | rank | 1 chip (erasure via catch-word + parity) |
//! | `Chipkill` | x8, 2 ranks ganged | channel (18 chips) | 1 chip (SSC-DSD) |
//! | `ChipkillX4` | x4, 18/rank | rank | 1 chip (SSC-DSD) |
//! | `XedChipkill` | x4, 18/rank | rank | 2 chips (erasures) |
//! | `DoubleChipkill` | x4, 2 ranks ganged | channel (36 chips) | 2 chips |

use crate::event::FaultEvent;
use crate::fault::{FaultExtent, FaultRange, Persistence};
use crate::scaling::ScalingFaults;
use crate::system::SystemConfig;
use rand::Rng;
use std::fmt;

/// Identifies one of the evaluated protection schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// 8-chip non-ECC DIMM (Figure 1 baseline).
    NonEcc,
    /// 9-chip ECC-DIMM running conventional (72,64) SECDED.
    EccDimm,
    /// XED: 9-chip ECC-DIMM with RAID-3 parity + exposed on-die detection.
    Xed,
    /// Commercial chipkill on x8 parts: two 9-chip ranks ganged (18 chips).
    Chipkill,
    /// Single-Chipkill on x4 parts: one 18-chip rank (Section IX baseline).
    ChipkillX4,
    /// XED on top of single-chipkill hardware: 18 x4 chips, check symbols
    /// used as erasures (Double-Chipkill-level reliability, Section IX-A).
    XedChipkill,
    /// Double-Chipkill: 36 x4 chips across two ganged ranks.
    DoubleChipkill,
}

impl Scheme {
    /// Every scheme, in presentation order.
    pub const ALL: [Scheme; 7] = [
        Scheme::NonEcc,
        Scheme::EccDimm,
        Scheme::Xed,
        Scheme::Chipkill,
        Scheme::ChipkillX4,
        Scheme::XedChipkill,
        Scheme::DoubleChipkill,
    ];

    /// The physical system organization this scheme runs on.
    pub fn system_config(self) -> SystemConfig {
        match self {
            Scheme::NonEcc => SystemConfig::x8_non_ecc(),
            Scheme::EccDimm | Scheme::Xed | Scheme::Chipkill => SystemConfig::x8_ecc_dimm(),
            Scheme::ChipkillX4 | Scheme::XedChipkill | Scheme::DoubleChipkill => {
                SystemConfig::x4_chipkill()
            }
        }
    }

    /// Number of chips that share an ECC codeword (the protection domain).
    pub fn domain_chips(self) -> u32 {
        match self {
            Scheme::NonEcc => 8,
            Scheme::EccDimm | Scheme::Xed => 9,
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::XedChipkill => 18,
            Scheme::DoubleChipkill => 36,
        }
    }

    /// `true` if the protection domain spans both ranks of a channel
    /// (rank-ganged schemes).
    pub fn domain_is_channel(self) -> bool {
        matches!(self, Scheme::Chipkill | Scheme::DoubleChipkill)
    }

    /// Stable nonzero tag mixed into Monte-Carlo RNG stream keys, so trial
    /// `i` of one scheme draws randomness independent of trial `i` of every
    /// other scheme (the per-trial stream is keyed by `(seed, scheme,
    /// trial)`; see `montecarlo`).
    ///
    /// The values are part of the reproducibility contract: changing them
    /// changes every seeded simulation result.
    pub const fn stream_tag(self) -> u64 {
        match self {
            Scheme::NonEcc => 1,
            Scheme::EccDimm => 2,
            Scheme::Xed => 3,
            Scheme::Chipkill => 4,
            Scheme::ChipkillX4 => 5,
            Scheme::XedChipkill => 6,
            Scheme::DoubleChipkill => 7,
        }
    }

    /// Short stable identifier used in URLs, JSON payloads and CLI flags.
    ///
    /// [`Scheme::parse`] accepts these (and common alternative spellings)
    /// case- and punctuation-insensitively.
    pub const fn id(self) -> &'static str {
        match self {
            Scheme::NonEcc => "non-ecc",
            Scheme::EccDimm => "ecc-dimm",
            Scheme::Xed => "xed",
            Scheme::Chipkill => "chipkill",
            Scheme::ChipkillX4 => "chipkill-x4",
            Scheme::XedChipkill => "xed-chipkill",
            Scheme::DoubleChipkill => "double-chipkill",
        }
    }

    /// Parses a scheme name, tolerating case, `-`/`_`/space punctuation
    /// and the common alternative spellings (`secded`, `single-chipkill`,
    /// …). Every spelling of one scheme canonicalizes to the same variant,
    /// so semantically-equal queries hash to the same canonical key no
    /// matter how the scheme was written.
    pub fn parse(name: &str) -> Option<Scheme> {
        let mut key = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                key.push(c.to_ascii_lowercase());
            }
        }
        match key.as_str() {
            "nonecc" | "noecc" | "none" => Some(Scheme::NonEcc),
            "eccdimm" | "ecc" | "secded" => Some(Scheme::EccDimm),
            "xed" => Some(Scheme::Xed),
            "chipkill" | "chipkillx8" => Some(Scheme::Chipkill),
            "chipkillx4" | "singlechipkill" => Some(Scheme::ChipkillX4),
            "xedchipkill" | "xedsinglechipkill" => Some(Scheme::XedChipkill),
            "doublechipkill" | "dck" => Some(Scheme::DoubleChipkill),
            _ => None,
        }
    }

    /// Human-readable name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NonEcc => "Non-ECC DIMM (8 chips)",
            Scheme::EccDimm => "ECC-DIMM SECDED (9 chips)",
            Scheme::Xed => "XED (9 chips)",
            Scheme::Chipkill => "Chipkill (18 chips, x8 ganged)",
            Scheme::ChipkillX4 => "Single-Chipkill (18 chips, x4)",
            Scheme::XedChipkill => "XED + Single-Chipkill (18 chips, x4)",
            Scheme::DoubleChipkill => "Double-Chipkill (36 chips, x4)",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened to the system when a fault arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The fault is invisible outside the chip (on-die ECC absorbs it).
    Benign,
    /// The scheme detected and corrected the error.
    Corrected,
    /// Detected uncorrectable error — system failure.
    Due,
    /// Undetected or mis-corrected error — silent system failure.
    Sdc,
}

impl Verdict {
    /// `true` if the verdict terminates the system (DUE or SDC).
    pub fn is_failure(self) -> bool {
        matches!(self, Verdict::Due | Verdict::Sdc)
    }
}

/// How much the memory controller knows about the *on-die* ECC function.
///
/// XED's baseline (and this repo's default) assumes the vendor's (72,64)
/// code is disclosed. Real on-die ECC is proprietary; `xed_ecc::infer`
/// implements BEER-style recovery of the parity-check matrix from
/// retention-test probes, which either succeeds bit-exactly (up to the
/// unobservable check-column relabeling) or certifies an ambiguity
/// class. This knob propagates that epistemic state into the fault-model
/// scenarios so lifetime/tail estimates can be compared across it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeModel {
    /// The vendor disclosed the code — the paper's assumption.
    Known,
    /// Inference recovered the full matrix (certified bit-exact against
    /// ground truth). Indistinguishable from [`CodeModel::Known`] by
    /// construction: an exactly recovered code predicts the same
    /// detect/miss behavior, so results are bit-identical.
    InferredExact,
    /// Inference was pattern-starved: `unresolved_rows` of the 8 check
    /// rows could not be distinguished. The controller must treat any
    /// syndrome confined to the unresolved subspace as potentially
    /// aliasing, inflating the effective on-die miss probability.
    InferredAmbiguous {
        /// Check rows (of 8) the probe campaign failed to resolve.
        unresolved_rows: u8,
    },
}

impl CodeModel {
    /// Stable discriminant for canonical-key hashing.
    pub(crate) fn key_tag(self) -> (u64, u64) {
        match self {
            CodeModel::Known => (0, 0),
            CodeModel::InferredExact => (1, 0),
            CodeModel::InferredAmbiguous { unresolved_rows } => (2, u64::from(unresolved_rows)),
        }
    }

    /// The on-die miss probability under this knowledge state, given the
    /// known-code baseline `base`.
    ///
    /// With `u` unresolved check rows, the controller can only evaluate
    /// syndromes in the resolved `(8-u)`-dimensional quotient: each of
    /// the `2^u − 1` nonzero unresolved-subspace cosets may collapse a
    /// detectable syndrome onto one of the 73 correctable signatures
    /// (72 single-bit columns + zero), so the escape mass grows as
    /// `(2^u − 1) · 73/256` on top of the code's intrinsic miss:
    /// `effective = base + (1 − base) · min(1, (2^u − 1) · 73/256)`.
    /// `u = 0` (and both fully-known states) return `base` unchanged.
    pub fn effective_on_die_miss(self, base: f64) -> f64 {
        match self {
            CodeModel::Known | CodeModel::InferredExact => base,
            CodeModel::InferredAmbiguous { unresolved_rows } => {
                let cosets = (1u64 << u32::from(unresolved_rows).min(63)) - 1;
                let escape = (cosets as f64 * 73.0 / 256.0).min(1.0);
                base + (1.0 - base) * escape
            }
        }
    }
}

impl fmt::Display for CodeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeModel::Known => f.write_str("known"),
            CodeModel::InferredExact => f.write_str("inferred"),
            CodeModel::InferredAmbiguous { unresolved_rows } => {
                write!(f, "ambiguous:{unresolved_rows}")
            }
        }
    }
}

/// Tunable response-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Whether devices have on-die ECC (paper default: yes).
    pub on_die_ecc: bool,
    /// Probability that the on-die SECDED fails to flag a multi-bit error
    /// (paper Section VI: 0.8%).
    pub on_die_miss: f64,
    /// Probability that the DIMM-level SECDED *detects* (rather than
    /// silently mis-corrects) the 8-bit burst a faulty chip injects into a
    /// 72-bit beat. Measured from this repo's (72,64) Hamming code under
    /// burst-8 errors (cf. Table II, where the paper reports 50.75%).
    pub dimm_secded_burst_detect: f64,
    /// Scaling (birthtime) fault configuration.
    pub scaling: ScalingFaults,
    /// Whether two faults must intersect at a common cache line to defeat
    /// a scheme (FaultSim's range model, the default), or merely coexist
    /// anywhere in the protection domain (the coarser classical model —
    /// the `ablation_intersection` bench quantifies the difference).
    pub require_line_intersection: bool,
    /// How long a *corrected transient* fault's corruption lingers before
    /// a demand read or patrol scrub cleans it (hours). `0.0` (default)
    /// models immediate read-and-scrub; larger values let two transient
    /// faults coexist and defeat erasure schemes.
    pub transient_exposure_hours: f64,
    /// The controller's knowledge of the on-die ECC function (default:
    /// [`CodeModel::Known`], the paper's assumption). Inflates the
    /// effective on-die miss probability under inferred-code ambiguity;
    /// see [`CodeModel::effective_on_die_miss`].
    pub code_model: CodeModel,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            on_die_ecc: true,
            on_die_miss: 0.008,
            dimm_secded_burst_detect: 0.51,
            scaling: ScalingFaults::none(),
            require_line_intersection: true,
            transient_exposure_hours: 0.0,
            code_model: CodeModel::Known,
        }
    }
}

impl ModelParams {
    /// Exhaustively measures the probability modeled by
    /// [`ModelParams::dimm_secded_burst_detect`] against the repo's own
    /// (72,64) Hamming decoder: the fraction of the 9 × 255 chip-aligned
    /// nonzero 8-bit burst patterns that decode as *detected* rather than
    /// clean or (mis-)corrected. The code is linear and decoding is
    /// syndrome-based, so checking each pattern against the all-zeros
    /// codeword covers every codeword.
    pub fn measured_secded_burst_detect() -> f64 {
        use xed_ecc::secded::{DecodeOutcome, SecDed};
        let code = xed_ecc::Hamming7264::new();
        let clean = code.encode(0);
        let mut detected = 0u32;
        let mut total = 0u32;
        for chip in 0..9u32 {
            for pattern in 1..=255u8 {
                let e = xed_ecc::CodeWord72::error_pattern(
                    (0..8u32)
                        .filter(|j| (pattern >> j) & 1 == 1)
                        .map(|j| 8 * chip + (7 - j)),
                );
                total += 1;
                if code.decode(clean.with_error(e)) == DecodeOutcome::Detected {
                    detected += 1;
                }
            }
        }
        f64::from(detected) / f64::from(total)
    }

    /// [`ModelParams::default`] with `dimm_secded_burst_detect` replaced by
    /// the [`ModelParams::measured_secded_burst_detect`] census value.
    /// Opt-in: the default keeps the documented 0.51 so seeded Monte-Carlo
    /// outputs stay bit-stable across releases.
    pub fn with_measured_burst_detect() -> Self {
        Self {
            dimm_secded_burst_detect: Self::measured_secded_burst_detect(),
            ..Self::default()
        }
    }
}

/// A scheme plus its response-model parameters; evaluates fault arrivals.
#[derive(Debug, Clone)]
pub struct SchemeModel {
    scheme: Scheme,
    params: ModelParams,
    config: SystemConfig,
    /// Precomputed: with on-die ECC present and scaling faults disabled,
    /// *every* single-bit fault is corrected invisibly on die
    /// ([`Self::evaluate_bit_fault`] would return [`Verdict::Benign`]
    /// without consuming randomness). Half of Table I's faults are
    /// single-bit, so the Monte-Carlo hot loop short-circuits on this.
    bit_always_benign: bool,
    /// Precomputed `params.code_model.effective_on_die_miss(on_die_miss)`
    /// — under [`CodeModel::Known`] and [`CodeModel::InferredExact`] this
    /// is exactly `params.on_die_miss`, keeping those runs bit-identical.
    effective_on_die_miss: f64,
    /// [`Scheme::domain_chips`]. Domains are contiguous chip blocks (a
    /// rank, or both ranks of a channel), so `chip / domain_span` is the
    /// domain id and `chip % domain_span` (≤ 36) the chip's mask bit.
    domain_span: u32,
}

impl SchemeModel {
    /// Builds the model for a scheme with the given parameters.
    pub fn new(scheme: Scheme, params: ModelParams) -> Self {
        let config = scheme.system_config();
        Self {
            scheme,
            params,
            config,
            bit_always_benign: params.on_die_ecc && !params.scaling.enabled(),
            effective_on_die_miss: params.code_model.effective_on_die_miss(params.on_die_miss),
            domain_span: scheme.domain_chips(),
        }
    }

    /// The on-die miss probability actually used by the verdict logic:
    /// the configured baseline, inflated under inferred-code ambiguity.
    pub fn effective_on_die_miss(&self) -> f64 {
        self.effective_on_die_miss
    }

    /// The scheme being modeled.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The underlying system organization.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// `true` if chips `a` and `b` share this scheme's protection domain.
    pub fn same_domain(&self, a: u32, b: u32) -> bool {
        debug_assert!(a.max(b) < self.config.total_chips(), "chip out of range");
        a / self.domain_span == b / self.domain_span
    }

    /// The domain-mask bit of `a`'s chip if `a` is a *visible* (multi-bit)
    /// fault on another chip of `e`'s protection domain, else 0.
    fn peer_bit(&self, e: &FaultEvent, a: &FaultEvent) -> u64 {
        if a.chip != e.chip && a.fault.extent.is_multi_bit() && self.same_domain(a.chip, e.chip) {
            1 << (a.chip % self.domain_span)
        } else {
            0
        }
    }

    /// Counts the largest set of distinct chips (including `e.chip`) in
    /// `e`'s protection domain whose *visible* (multi-bit) faults all
    /// intersect one common cache line with `e`'s fault (or, with
    /// `require_line_intersection` disabled, merely coexist in the
    /// domain). Allocation-free: chips are bits of a domain mask.
    pub fn concurrent_chips(&self, e: &FaultEvent, active: &[FaultEvent]) -> u32 {
        if !self.params.require_line_intersection {
            let chips = active.iter().fold(0u64, |m, a| m | self.peer_bit(e, a));
            return 1 + chips.count_ones();
        }
        1 + self.common_line_chips(e, e.fault.range.line(), active, 0)
    }

    /// Brute-force subset search behind [`Self::concurrent_chips`]: the
    /// most distinct chips, beyond the `used` ones, whose visible faults in
    /// `rest` share one line with `current` (the intersection of `e`'s line
    /// and the faults chosen so far). Candidate counts are tiny in practice.
    fn common_line_chips(
        &self,
        e: &FaultEvent,
        current: FaultRange,
        rest: &[FaultEvent],
        used: u64,
    ) -> u32 {
        let mut best = used.count_ones();
        for (i, a) in rest.iter().enumerate() {
            let bit = self.peer_bit(e, a);
            if bit & !used == 0 {
                continue;
            }
            if let Some(next) = current.intersect(&a.fault.range.line()) {
                // indexing: i < rest.len(), so i + 1 is a valid start.
                best = best.max(self.common_line_chips(e, next, &rest[i + 1..], used | bit));
            }
        }
        best
    }

    /// Evaluates one fault arrival against the currently active faults.
    ///
    /// `active` must contain only faults that are still uncorrected (the
    /// Monte-Carlo driver drops transient faults once a scheme corrects
    /// them, modeling scrub-on-correct).
    #[inline]
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        if e.fault.extent == FaultExtent::Bit {
            if self.bit_always_benign {
                return Verdict::Benign;
            }
            self.evaluate_bit_fault(rng, e, active)
        } else {
            self.evaluate_large_fault(rng, e, active)
        }
    }

    /// Evaluates a fault that arrives with *no* other fault active in its
    /// protection domain, from its mode alone.
    ///
    /// With an empty active set, [`Self::evaluate`]'s verdict never
    /// depends on which chip or address range the fault struck
    /// (`concurrent_chips` is 1 regardless), so the Monte-Carlo driver's
    /// single-fault fast path skips those draws and calls this instead.
    /// Must consume the same randomness and return the same verdict as
    /// `evaluate(rng, e, &[])` for any event of this mode — pinned by the
    /// `isolated_evaluation_matches_general_path` test.
    #[inline]
    pub fn evaluate_isolated<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        extent: FaultExtent,
        persistence: Persistence,
    ) -> Verdict {
        if extent == FaultExtent::Bit {
            if self.bit_always_benign {
                return Verdict::Benign;
            }
            if !self.params.on_die_ecc {
                return match self.scheme {
                    Scheme::NonEcc => Verdict::Sdc,
                    _ => Verdict::Corrected,
                };
            }
            let collides_with_scaling = self.params.scaling.enabled()
                && rng.gen::<f64>() < self.params.scaling.p_word_faulty();
            if !collides_with_scaling {
                return Verdict::Benign;
            }
            return match self.scheme {
                Scheme::NonEcc => Verdict::Sdc,
                Scheme::EccDimm => {
                    if rng.gen::<f64>() < 7.0 / 63.0 {
                        Verdict::Due
                    } else {
                        Verdict::Corrected
                    }
                }
                // One erasure / one garbage symbol: within every other
                // scheme's budget.
                _ => Verdict::Corrected,
            };
        }
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                if rng.gen::<f64>() < self.params.dimm_secded_burst_detect {
                    Verdict::Due
                } else {
                    Verdict::Sdc
                }
            }
            Scheme::Xed => self.xed_single_chip_verdict(rng, extent, persistence),
            // A single faulty chip is within budget for the erasure and
            // symbol-correcting schemes.
            Scheme::XedChipkill
            | Scheme::Chipkill
            | Scheme::ChipkillX4
            | Scheme::DoubleChipkill => Verdict::Corrected,
        }
    }

    /// Response to a single-bit runtime fault.
    fn evaluate_bit_fault<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        if !self.params.on_die_ecc {
            // Without on-die ECC the bit error reaches the bus.
            return match self.scheme {
                Scheme::NonEcc => Verdict::Sdc,
                // Every other scheme corrects a single-bit (single-symbol)
                // error at DIMM level.
                _ => Verdict::Corrected,
            };
        }
        // On-die SECDED corrects an isolated single-bit error invisibly —
        // unless the struck word already holds a scaling fault, making it a
        // 2-bit error the on-die code detects but cannot correct.
        let collides_with_scaling =
            self.params.scaling.enabled() && rng.gen::<f64>() < self.params.scaling.p_word_faulty();
        if !collides_with_scaling {
            return Verdict::Benign;
        }
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                // The chip emits the word with 2 bad bits. They land in the
                // same 72-bit beat with probability 7/63 (2 of 8 beats × 8
                // bits); same beat ⇒ DIMM SECDED flags a DUE, different
                // beats ⇒ two correctable single-bit beats.
                if rng.gen::<f64>() < 7.0 / 63.0 {
                    Verdict::Due
                } else {
                    Verdict::Corrected
                }
            }
            Scheme::Xed | Scheme::XedChipkill => {
                // Catch-word identifies the chip; parity / erasure symbols
                // reconstruct it — unless other chips are concurrently
                // faulty at the same line.
                let n = self.concurrent_chips(e, active);
                if n <= self.erasure_budget() {
                    Verdict::Corrected
                } else {
                    Verdict::Due
                }
            }
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::DoubleChipkill => {
                // One garbage symbol: within symbol-correction budget.
                let n = self.concurrent_chips(e, active);
                self.symbol_verdict(n)
            }
        }
    }

    /// Response to a multi-bit (word or larger) fault.
    fn evaluate_large_fault<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        e: &FaultEvent,
        active: &[FaultEvent],
    ) -> Verdict {
        let n = self.concurrent_chips(e, active);
        match self.scheme {
            Scheme::NonEcc => Verdict::Sdc,
            Scheme::EccDimm => {
                // A multi-bit chip fault injects an 8-bit burst into each
                // affected 72-bit beat. The DIMM SECDED usually flags it
                // (DUE); otherwise it silently mis-corrects (SDC).
                if rng.gen::<f64>() < self.params.dimm_secded_burst_detect {
                    Verdict::Due
                } else {
                    Verdict::Sdc
                }
            }
            Scheme::Xed => {
                if n >= 2 {
                    // Two chips faulty at one line: one parity chip cannot
                    // reconstruct both.
                    return Verdict::Due;
                }
                self.xed_single_chip_verdict(rng, e.fault.extent, e.fault.persistence)
            }
            Scheme::XedChipkill => {
                if n > 2 {
                    return Verdict::Due;
                }
                if n == 2 {
                    // Two erasures consume both check symbols; if either
                    // chip's error additionally escapes on-die detection
                    // (possible only for word faults) the erasure set is
                    // wrong and decoding fails.
                    if e.fault.extent == FaultExtent::Word
                        && rng.gen::<f64>() < self.effective_on_die_miss
                    {
                        return Verdict::Due;
                    }
                    return Verdict::Corrected;
                }
                // Single faulty chip: even an on-die miss is recoverable —
                // RS(18,16) corrects one *unknown* symbol error.
                Verdict::Corrected
            }
            Scheme::Chipkill | Scheme::ChipkillX4 | Scheme::DoubleChipkill => {
                self.symbol_verdict(n)
            }
        }
    }

    /// XED's handling of exactly one faulty chip (paper Sections V–VI).
    /// Depends only on the fault's mode, never its location.
    fn xed_single_chip_verdict<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        extent: FaultExtent,
        persistence: Persistence,
    ) -> Verdict {
        if extent.spans_lines() {
            // Column/row/bank/chip faults: even if the on-die ECC misses
            // the requested line (0.8%), DIMM parity flags it and
            // Inter-Line Fault Diagnosis identifies the chip from the
            // neighboring faulty lines; parity reconstructs the data. The
            // residual SDC from diagnosis misidentification is ~1e-12 over
            // 7 years (Table IV) — below Monte-Carlo resolution, tracked
            // analytically instead.
            return Verdict::Corrected;
        }
        // Word fault confined to one line.
        if rng.gen::<f64>() >= self.effective_on_die_miss {
            // Detected on die → catch-word → parity reconstruction.
            return Verdict::Corrected;
        }
        // On-die miss: DIMM parity still detects the mismatch. Inter-line
        // diagnosis finds nothing (neighboring lines are clean); intra-line
        // diagnosis reproduces *permanent* faults only.
        match persistence {
            Persistence::Permanent => Verdict::Corrected,
            Persistence::Transient => Verdict::Due,
        }
    }

    /// Verdict for symbol-correcting codes given `n` concurrently faulty
    /// chips at one line.
    fn symbol_verdict(&self, n: u32) -> Verdict {
        let budget = self.symbol_correct_budget();
        if n <= budget {
            Verdict::Corrected
        } else if n == budget + 1 {
            // Within the guaranteed detection radius.
            Verdict::Due
        } else {
            Verdict::Sdc
        }
    }

    /// Chips correctable when locations are unknown (symbol codes).
    fn symbol_correct_budget(&self) -> u32 {
        match self.scheme {
            Scheme::Chipkill | Scheme::ChipkillX4 => 1,
            Scheme::DoubleChipkill => 2,
            _ => 0,
        }
    }

    /// Chips correctable when locations are known (erasure schemes).
    fn erasure_budget(&self) -> u32 {
        match self.scheme {
            Scheme::Xed => 1,
            Scheme::XedChipkill => 2,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ev(
        chip: u32,
        extent: FaultExtent,
        persistence: Persistence,
        range: FaultRange,
    ) -> FaultEvent {
        FaultEvent {
            time_hours: 0.0,
            chip,
            fault: Fault {
                extent,
                persistence,
                range,
            },
        }
    }

    fn bank_fault(chip: u32, bank: u32) -> FaultEvent {
        ev(
            chip,
            FaultExtent::Bank,
            Persistence::Permanent,
            FaultRange {
                bank: Some(bank),
                row: None,
                col: None,
                bit: None,
            },
        )
    }

    fn chip_fault(chip: u32) -> FaultEvent {
        ev(
            chip,
            FaultExtent::Chip,
            Persistence::Permanent,
            FaultRange::default(),
        )
    }

    fn model(scheme: Scheme) -> SchemeModel {
        SchemeModel::new(scheme, ModelParams::default())
    }

    #[test]
    fn bit_fault_is_benign_with_on_die() {
        let m = model(Scheme::EccDimm);
        let mut rng = StdRng::seed_from_u64(1);
        let e = ev(
            0,
            FaultExtent::Bit,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        assert_eq!(m.evaluate(&mut rng, &e, &[]), Verdict::Benign);
    }

    #[test]
    fn bit_fault_sdc_on_non_ecc_without_on_die() {
        let params = ModelParams {
            on_die_ecc: false,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::NonEcc, params);
        let mut rng = StdRng::seed_from_u64(1);
        let e = ev(
            0,
            FaultExtent::Bit,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        assert_eq!(m.evaluate(&mut rng, &e, &[]), Verdict::Sdc);
    }

    #[test]
    fn large_fault_fails_ecc_dimm() {
        let m = model(Scheme::EccDimm);
        let mut rng = StdRng::seed_from_u64(2);
        let e = bank_fault(0, 3);
        let v = m.evaluate(&mut rng, &e, &[]);
        assert!(v.is_failure());
    }

    #[test]
    fn large_fault_fails_non_ecc_silently() {
        let m = model(Scheme::NonEcc);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(m.evaluate(&mut rng, &bank_fault(0, 3), &[]), Verdict::Sdc);
    }

    #[test]
    fn xed_corrects_single_chip_failure() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &[]),
            Verdict::Corrected
        );
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(5, 0), &[]),
            Verdict::Corrected
        );
    }

    #[test]
    fn xed_two_chips_same_rank_due() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(4);
        let active = [chip_fault(1)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn xed_two_chips_different_rank_independent() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(5);
        // chip 9 is in rank 1; chip 0 in rank 0.
        let active = [chip_fault(9)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
    }

    #[test]
    fn xed_bank_faults_interact_only_in_same_bank() {
        let m = model(Scheme::Xed);
        let mut rng = StdRng::seed_from_u64(6);
        let active = [bank_fault(1, 2)];
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 3), &active),
            Verdict::Corrected
        );
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 2), &active),
            Verdict::Due
        );
    }

    #[test]
    fn xed_transient_word_fault_due_on_miss() {
        let params = ModelParams {
            on_die_miss: 1.0,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::Xed, params);
        let mut rng = StdRng::seed_from_u64(7);
        let word = ev(
            0,
            FaultExtent::Word,
            Persistence::Transient,
            FaultRange {
                bank: Some(0),
                row: Some(1),
                col: Some(2),
                bit: None,
            },
        );
        assert_eq!(m.evaluate(&mut rng, &word, &[]), Verdict::Due);
        let word_perm = FaultEvent {
            fault: Fault {
                persistence: Persistence::Permanent,
                ..word.fault
            },
            ..word
        };
        assert_eq!(m.evaluate(&mut rng, &word_perm, &[]), Verdict::Corrected);
    }

    #[test]
    fn chipkill_domain_spans_both_ranks_of_channel() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(8);
        // chips 0 (rank 0) and 9 (rank 1) are in the same channel: ganged.
        let active = [chip_fault(9)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
        // chip 18 is channel 1: independent.
        let active = [chip_fault(18)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
    }

    #[test]
    fn domains_are_ranks_or_channels_of_domain_chips() {
        // `same_domain` divides by `Scheme::domain_chips`; that must be
        // the rank (or, ganged, the channel) of the scheme's system, and
        // small enough for the u64 chip masks of `concurrent_chips`.
        for scheme in Scheme::ALL {
            let m = model(scheme);
            let c = m.config().clone();
            assert!(scheme.domain_chips() <= 64, "{scheme}");
            for a in 0..c.total_chips() {
                for b in 0..c.total_chips() {
                    let want = if scheme.domain_is_channel() {
                        c.channel_of(a) == c.channel_of(b)
                    } else {
                        c.rank_of(a) == c.rank_of(b)
                    };
                    assert_eq!(m.same_domain(a, b), want, "{scheme}: chips {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn chipkill_single_chip_corrected() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &[]),
            Verdict::Corrected
        );
    }

    #[test]
    fn chipkill_three_chips_sdc() {
        let m = model(Scheme::Chipkill);
        let mut rng = StdRng::seed_from_u64(10);
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Sdc);
    }

    #[test]
    fn double_chipkill_corrects_two_fails_at_three() {
        let m = model(Scheme::DoubleChipkill);
        let mut rng = StdRng::seed_from_u64(11);
        let active = [chip_fault(1)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn xed_chipkill_corrects_two_chips() {
        let m = model(Scheme::XedChipkill);
        let mut rng = StdRng::seed_from_u64(12);
        let active = [chip_fault(1)];
        assert_eq!(
            m.evaluate(&mut rng, &chip_fault(0), &active),
            Verdict::Corrected
        );
        let active = [chip_fault(1), chip_fault(2)];
        assert_eq!(m.evaluate(&mut rng, &chip_fault(0), &active), Verdict::Due);
    }

    #[test]
    fn concurrency_requires_common_line_not_just_pairwise() {
        // Row faults in three different chips, same bank: row 5, row 5 and a
        // column fault — rows at different rows don't stack.
        let m = model(Scheme::DoubleChipkill);
        let r5 = FaultRange {
            bank: Some(0),
            row: Some(5),
            col: None,
            bit: None,
        };
        let r6 = FaultRange {
            bank: Some(0),
            row: Some(6),
            col: None,
            bit: None,
        };
        let e = ev(0, FaultExtent::Row, Persistence::Permanent, r5);
        let a1 = ev(1, FaultExtent::Row, Persistence::Permanent, r5);
        let a2 = ev(2, FaultExtent::Row, Persistence::Permanent, r6);
        // a2's row 6 never meets row 5: only chips {0,1} share a line.
        assert_eq!(m.concurrent_chips(&e, &[a1, a2]), 2);
        let a3 = ev(3, FaultExtent::Row, Persistence::Permanent, r5);
        assert_eq!(m.concurrent_chips(&e, &[a1, a2, a3]), 3);
    }

    #[test]
    fn bit_faults_do_not_count_as_concurrent() {
        let m = model(Scheme::Xed);
        let bit = ev(
            1,
            FaultExtent::Bit,
            Persistence::Permanent,
            FaultRange {
                bank: Some(0),
                row: Some(0),
                col: Some(0),
                bit: Some(0),
            },
        );
        let e = chip_fault(0);
        assert_eq!(m.concurrent_chips(&e, &[bit]), 1);
    }

    #[test]
    fn multiple_faults_same_chip_count_once() {
        let m = model(Scheme::Xed);
        let active = [bank_fault(1, 0), bank_fault(1, 1), chip_fault(1)];
        assert_eq!(m.concurrent_chips(&chip_fault(0), &active), 2);
    }

    #[test]
    fn without_intersection_any_coexisting_pair_counts() {
        let params = ModelParams {
            require_line_intersection: false,
            ..ModelParams::default()
        };
        let m = SchemeModel::new(Scheme::Xed, params);
        let mut rng = StdRng::seed_from_u64(20);
        // Two row faults in *different* banks: disjoint ranges, but the
        // coarse model still counts them as a fatal pair.
        let active = [bank_fault(1, 2)];
        assert_eq!(m.concurrent_chips(&bank_fault(0, 3), &active), 2);
        assert_eq!(
            m.evaluate(&mut rng, &bank_fault(0, 3), &active),
            Verdict::Due
        );
        // The intersection model disagrees (cf. xed_bank_faults test).
        let strict = SchemeModel::new(Scheme::Xed, ModelParams::default());
        assert_eq!(strict.concurrent_chips(&bank_fault(0, 3), &active), 1);
    }

    #[test]
    fn known_and_inferred_exact_code_models_are_bit_identical() {
        // The headline property of exact BEER recovery: a bit-exactly
        // inferred code predicts the same on-die behavior as a disclosed
        // one, so the verdict stream is *identical*, not merely close.
        let known = SchemeModel::new(Scheme::Xed, ModelParams::default());
        let inferred = SchemeModel::new(
            Scheme::Xed,
            ModelParams {
                code_model: CodeModel::InferredExact,
                ..ModelParams::default()
            },
        );
        assert_eq!(
            known.effective_on_die_miss(),
            inferred.effective_on_die_miss()
        );
        for seed in 0..64u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let va = known.evaluate_isolated(&mut a, FaultExtent::Word, Persistence::Transient);
            let vb = inferred.evaluate_isolated(&mut b, FaultExtent::Word, Persistence::Transient);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn ambiguous_code_model_inflates_the_effective_miss_monotonically() {
        let base = ModelParams::default().on_die_miss;
        let mut prev = CodeModel::Known.effective_on_die_miss(base);
        assert_eq!(prev, base);
        assert_eq!(
            CodeModel::InferredAmbiguous { unresolved_rows: 0 }.effective_on_die_miss(base),
            base
        );
        for u in 1..=8u8 {
            let eff =
                CodeModel::InferredAmbiguous { unresolved_rows: u }.effective_on_die_miss(base);
            // Weakly monotone; strictly while the escape mass has not yet
            // saturated (every syndrome aliasing ⇒ miss pinned at 1).
            assert!(eff >= prev, "u={u}: {eff} < {prev}");
            if prev < 1.0 {
                assert!(eff > prev, "u={u}: {eff} !> {prev}");
            }
            assert!(eff <= 1.0);
            prev = eff;
        }
        // Fully unresolved: every syndrome may alias — miss saturates.
        assert_eq!(
            CodeModel::InferredAmbiguous { unresolved_rows: 8 }.effective_on_die_miss(base),
            1.0
        );
    }

    #[test]
    fn code_model_display_and_key_tags_are_distinct() {
        let models = [
            CodeModel::Known,
            CodeModel::InferredExact,
            CodeModel::InferredAmbiguous { unresolved_rows: 2 },
            CodeModel::InferredAmbiguous { unresolved_rows: 3 },
        ];
        let tags: Vec<(u64, u64)> = models.iter().map(|m| m.key_tag()).collect();
        let shown: Vec<String> = models.iter().map(|m| m.to_string()).collect();
        for (i, t) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(t));
            assert!(!shown[..i].contains(&shown[i]));
        }
        assert_eq!(shown[0], "known");
        assert_eq!(shown[3], "ambiguous:3");
    }

    #[test]
    fn verdict_failure_predicate() {
        assert!(Verdict::Due.is_failure());
        assert!(Verdict::Sdc.is_failure());
        assert!(!Verdict::Corrected.is_failure());
        assert!(!Verdict::Benign.is_failure());
    }

    #[test]
    fn scheme_labels_unique() {
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l));
        }
    }

    #[test]
    fn isolated_evaluation_matches_general_path() {
        // `evaluate_isolated` promises to return the same verdict *and*
        // consume the same randomness as `evaluate` with an empty active
        // set, for every scheme × mode × parameter variant the engine can
        // reach. Compare both the verdicts and the final RNG states.
        use crate::geometry::DramGeometry;
        use crate::scaling::ScalingFaults;
        let geom = DramGeometry::x8_2gb();
        let variants = [
            ModelParams::default(),
            ModelParams {
                on_die_ecc: false,
                ..ModelParams::default()
            },
            ModelParams {
                scaling: ScalingFaults::with_rate(1e-4),
                ..ModelParams::default()
            },
            ModelParams {
                scaling: ScalingFaults::with_rate(0.9),
                on_die_miss: 0.5,
                dimm_secded_burst_detect: 0.5,
                ..ModelParams::default()
            },
        ];
        let mut sample_rng = StdRng::seed_from_u64(99);
        for scheme in Scheme::ALL {
            for params in variants {
                let m = SchemeModel::new(scheme, params);
                for extent in FaultExtent::ALL {
                    for persistence in [Persistence::Transient, Persistence::Permanent] {
                        for round in 0..8u64 {
                            let e = FaultEvent {
                                time_hours: 0.0,
                                chip: sample_rng.gen_range(0..m.config().total_chips()),
                                fault: Fault::sample(&mut sample_rng, extent, persistence, &geom),
                            };
                            let seed = round
                                .wrapping_mul(1000)
                                .wrapping_add(scheme.stream_tag() * 100)
                                .wrapping_add(extent.index() as u64);
                            let mut general = StdRng::seed_from_u64(seed);
                            let mut isolated = general.clone();
                            let vg = m.evaluate(&mut general, &e, &[]);
                            let vi = m.evaluate_isolated(&mut isolated, extent, persistence);
                            assert_eq!(
                                vg, vi,
                                "verdict diverged: {scheme:?} {extent:?} {persistence:?} {params:?}"
                            );
                            assert_eq!(
                                general, isolated,
                                "rng consumption diverged: {scheme:?} {extent:?} {persistence:?} {params:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn measured_burst_detect_matches_paper_census() {
        let m = ModelParams::measured_secded_burst_detect();
        // Paper Table II reports 50.75% burst-8 detection for Hamming;
        // the chip-aligned census of our construction must land nearby.
        assert!((m - 0.5075).abs() < 0.03, "measured {m}");
        let p = ModelParams::with_measured_burst_detect();
        assert!((p.dimm_secded_burst_detect - m).abs() < 1e-12);
        // The documented default stays pinned for seeded reproducibility.
        let d = ModelParams::default().dimm_secded_burst_detect;
        assert!((d - 0.51).abs() < 1e-12);
    }

    #[test]
    fn scheme_stream_tags_unique_and_nonzero() {
        let tags: Vec<u64> = Scheme::ALL.iter().map(|s| s.stream_tag()).collect();
        for (i, t) in tags.iter().enumerate() {
            assert_ne!(*t, 0, "{}: zero tag would collide with the bare seed", i);
            assert!(!tags[..i].contains(t));
        }
    }
}
