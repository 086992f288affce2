//! The analytic oracle: closed-form failure probabilities vs Monte-Carlo.
//!
//! Each row of the gate compares one Monte-Carlo estimate against the
//! matching first-order closed form from [`xed_faultsim::analytic`]. The
//! tolerance has two documented components:
//!
//! * **statistical noise** — the 99% binomial confidence half-width of
//!   the Monte-Carlo estimate (`z = 2.576`); a sound simulator lands
//!   inside this band 99% of the time *if the model matches exactly*;
//! * **model band** — the analytic forms are first-order in the fault
//!   probabilities (they drop ≥3-fault pile-ups, transient×transient
//!   coexistence, and line-overlap correlations), so each row carries an
//!   explicit relative error budget for the truncation, from sharp
//!   (zero-fault fraction: the closed form is exact) to wide
//!   (triple-fault combinatorics).
//!
//! A row passes iff `|mc − analytic| ≤ noise + band·analytic`. Gating at
//! the *sum* keeps the check honest: a simulator bug that moves an
//! estimate outside both the sampling noise and the documented truncation
//! error fails the gate, while the gate never flakes on seeds that
//! merely land in the far tail of the binomial.

use crate::seeds;
use xed_faultsim::analytic;
use xed_faultsim::fit::{FitRates, HOURS_PER_YEAR};
use xed_faultsim::montecarlo::{MonteCarlo, MonteCarloConfig};
use xed_faultsim::rareevent::{TailConfig, TailMode, TailSimulator};
use xed_faultsim::schemes::Scheme;
use xed_faultsim::system::SystemConfig;

/// How many Monte-Carlo samples back each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateScope {
    /// 400k samples per scheme — the tier-1 CI setting.
    Quick,
    /// 4M samples per scheme — tighter noise bands for nightly runs.
    Full,
}

impl GateScope {
    fn samples(self) -> u64 {
        match self {
            GateScope::Quick => 400_000,
            GateScope::Full => 4_000_000,
        }
    }
}

/// One analytic-vs-MC comparison.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// What is being compared.
    pub label: &'static str,
    /// The Monte-Carlo estimate.
    pub mc: f64,
    /// The closed-form prediction.
    pub analytic: f64,
    /// 99% binomial confidence half-width of `mc`.
    pub noise: f64,
    /// Relative first-order truncation budget of the closed form.
    pub model_band: f64,
    /// `|mc − analytic| ≤ noise + model_band·analytic`.
    pub pass: bool,
}

/// All rows of one gate invocation.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Samples per Monte-Carlo run backing the rows.
    pub samples: u64,
    /// The comparisons.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// `true` iff every row passed.
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// One line per row for the driver's console output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<34} mc {:>11.4e}  analytic {:>11.4e}  tol {:>9.2e}  {}\n",
                r.label,
                r.mc,
                r.analytic,
                r.noise + r.model_band * r.analytic,
                if r.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

fn row(label: &'static str, mc: f64, analytic: f64, noise: f64, model_band: f64) -> GateRow {
    let pass = (mc - analytic).abs() <= noise + model_band * analytic;
    GateRow {
        label,
        mc,
        analytic,
        noise,
        model_band,
        pass,
    }
}

/// Runs every gate row.
pub fn run(scope: GateScope) -> GateReport {
    let samples = scope.samples();
    let mc = MonteCarlo::new(MonteCarloConfig {
        samples,
        seed: seeds::ANALYTIC_GATE,
        ..MonteCarloConfig::default()
    });
    let years = mc.config().years;
    let rates = FitRates::table_i();
    let x8 = SystemConfig::x8_ecc_dimm();
    let x4 = SystemConfig::x4_chipkill();
    let mut rows = Vec::new();

    // ECC-DIMM dies on the first multi-bit chip fault anywhere in the
    // system: a pure Poisson survival term, so the band is narrow (the
    // only truncation is double-counting of multi-fault trials).
    let r = mc.run(Scheme::EccDimm);
    rows.push(row(
        "ecc-dimm vs single-fault Poisson",
        r.lifetime_failure_probability(),
        analytic::p_fail_single_fault(&rates, x8.total_chips(), years),
        r.confidence99(),
        0.05,
    ));

    // XED fails on intersecting cross-chip pairs within a rank, plus the
    // escaped-transient-word DUE budget of Table IV. First-order pair
    // counting over coarse line-overlap probabilities: wide band.
    let r = mc.run(Scheme::Xed);
    let xed_pairs = analytic::p_fail_double_fault(&rates, &x8, 9, 8, years);
    let xed_escape =
        analytic::xed_vulnerability(&rates, &x8, x8.total_chips(), 0.008, years).due_word_fault;
    rows.push(row(
        "xed vs double-fault + word-escape",
        r.lifetime_failure_probability(),
        xed_pairs + xed_escape,
        r.confidence99(),
        0.8,
    ));

    // Chipkill: same pair model over the 18-chip channel domain.
    let r = mc.run(Scheme::Chipkill);
    rows.push(row(
        "chipkill vs double-fault pairs",
        r.lifetime_failure_probability(),
        analytic::p_fail_double_fault(&rates, &x8, 18, x8.total_chips() / 18, years),
        r.confidence99(),
        0.8,
    ));

    // Double-Chipkill: triple-fault combinatorics over the 36-chip x4
    // channel. The first-order triple sum is the coarsest closed form in
    // the crate; the expected count at CI sample sizes is O(1), so the
    // binomial noise term dominates anyway.
    let r = mc.run(Scheme::DoubleChipkill);
    rows.push(row(
        "double-chipkill vs triple-fault",
        r.lifetime_failure_probability(),
        analytic::p_fail_triple_fault(&rates, &x4, 36, x4.total_chips() / 36, years),
        r.confidence99(),
        3.0,
    ));

    // Zero-fault fraction: P(no fault arrives in the whole system over
    // the lifetime) = exp(−λ·chips). This closed form is *exact* for the
    // Poisson sampler — the model band is zero and the gate is the
    // sharpest statistical check in the suite.
    let (_, stats) = mc.run_range(&[Scheme::EccDimm], 0, mc.config().samples);
    let p0_mc = stats.zero_fault_samples as f64 / stats.samples as f64;
    let p0_an = (-rates.expected_faults(years * HOURS_PER_YEAR) * x8.total_chips() as f64).exp();
    let noise = 2.576 * (p0_an * (1.0 - p0_an) / stats.samples as f64).sqrt();
    rows.push(row(
        "zero-fault fraction vs exp(-λ)",
        p0_mc,
        p0_an,
        noise,
        0.0,
    ));

    GateReport { samples, rows }
}

/// Runs the importance-sampled tail-estimator gate (DESIGN.md §14).
///
/// The plain gate above closes the triangle `plain MC ↔ closed form`;
/// this one closes `importance sampling ↔ closed form` and
/// `clique-forced ↔ count-conditioned` — the reweighting math
/// (conditioning factor, clique likelihood ratios, pilot tilts) is what
/// is on trial, so every row pins a *weighted* estimate against an
/// estimator that shares none of that machinery. Noise terms come from
/// the tail estimates' own propagated variance (`ci99`), and the model
/// bands are the same documented first-order truncation budgets as the
/// plain gate.
pub fn run_tail(scope: GateScope) -> GateReport {
    // Conditioned trials are ~10x the cost of plain ones (no zero-fault
    // fast path), so the tail gate runs at a fraction of the plain
    // gate's trial count; the conditioning factor makes each trial worth
    // hundreds of plain trials in CI width regardless.
    let samples = scope.samples() / 2;
    let tail = |scheme: Scheme, samples: u64, force: Option<TailMode>| {
        TailSimulator::new(TailConfig {
            samples,
            seed: seeds::ANALYTIC_GATE,
            force_mode: force,
            ..TailConfig::default()
        })
        .run(scheme)
    };
    let years = TailConfig::default().years;
    let rates = FitRates::table_i();
    let x8 = SystemConfig::x8_ecc_dimm();
    let x4 = SystemConfig::x4_chipkill();
    let mut rows = Vec::new();

    // k = 1 ⇒ count conditioning only: checks the analytic P(N ≥ k)
    // factor and the truncated-Poisson draw against the sharp
    // single-fault closed form.
    let t = tail(Scheme::EccDimm, samples, None);
    rows.push(row(
        "ecc-dimm tail vs single-fault Poisson",
        t.p_fail,
        analytic::p_fail_single_fault(&rates, x8.total_chips(), years),
        t.ci99(),
        0.05,
    ));

    // k = 2 ⇒ the full clique-forced path (restricted proposal, pilot
    // tilts, witness counting) against the pair closed form.
    let chipkill = tail(Scheme::Chipkill, samples, None);
    rows.push(row(
        "chipkill tail vs double-fault pairs",
        chipkill.p_fail,
        analytic::p_fail_double_fault(&rates, &x8, 18, x8.total_chips() / 18, years),
        chipkill.ci99(),
        0.8,
    ));

    // k = 3 ⇒ triple cliques. Unlike the plain gate's row (where the
    // binomial noise dwarfs the band) the tail CI here is tight, so this
    // genuinely exercises the coarse triple-sum band.
    let t = tail(Scheme::DoubleChipkill, samples, None);
    rows.push(row(
        "double-chipkill tail vs triple-fault",
        t.p_fail,
        analytic::p_fail_triple_fault(&rates, &x4, 36, x4.total_chips() / 36, years),
        t.ci99(),
        3.0,
    ));

    // Cross-mode agreement: the clique-forced estimate above vs a
    // count-conditioned run that shares no clique/tilt machinery. Joint
    // 99 % noise, zero model band — both estimators target the same
    // exact quantity, so any systematic gap is a reweighting bug.
    let cc = tail(
        Scheme::Chipkill,
        samples * 16,
        Some(TailMode::CountConditioned),
    );
    rows.push(row(
        "chipkill forced vs count-conditioned",
        chipkill.p_fail,
        cc.p_fail,
        (chipkill.ci99().powi(2) + cc.ci99().powi(2)).sqrt(),
        0.0,
    ));

    GateReport { samples, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_passes_inside_and_fails_outside_the_band() {
        assert!(row("t", 0.105, 0.10, 0.002, 0.05).pass);
        assert!(!row("t", 0.12, 0.10, 0.002, 0.05).pass);
        // The noise term alone admits a zero analytic prediction.
        assert!(row("t", 0.001, 0.0, 0.002, 0.5).pass);
    }
}
