//! Golden `TailEstimate`s, floats compared by their bit patterns.
//!
//! `tests/data/tail_golden.tsv` pins ten rare-event estimates: XED on
//! Chipkill and Double-Chipkill in auto mode at two seeds, one forced
//! count-conditioned run, one forced plain-MC run, and both clique
//! schemes under the two non-default models the auto rows never reach —
//! a 24-hour transient exposure window (unordered cliques) and the coarse
//! coexistence model (`require_line_intersection = false`, whose pilot
//! probes draw fresh ranges every round). Each row must come out of the
//! engine bit for bit at 1 and at 3 worker threads.
//!
//! The thread-invariance tests only compare thread counts with each
//! other, and the closed-form tests allow a tolerance band; neither would
//! notice a changed chunk size, stream key or fold order. This table does:
//! the tail's floating-point sums are grouped per 1024-trial chunk and
//! folded in chunk order, so any change to that rule moves the low bits.
//! Sample counts are not multiples of the chunk sizes, so a short final
//! chunk is always part of the fold.

use xed_faultsim::rareevent::{TailConfig, TailEstimate, TailMode, TailSimulator};
use xed_faultsim::schemes::{ModelParams, Scheme};

const GOLDEN: &str = include_str!("data/tail_golden.tsv");

/// The fault-response model a case runs under.
#[derive(Debug, Clone, Copy)]
enum Model {
    /// `ModelParams::default()`: strict line intersection, no exposure.
    Default,
    /// Corrected transients stay visible for 24 hours.
    Exposure24h,
    /// Faults defeat a scheme by coexisting anywhere in the domain.
    Coarse,
}

impl Model {
    fn params(self) -> ModelParams {
        match self {
            Model::Default => ModelParams::default(),
            Model::Exposure24h => ModelParams {
                transient_exposure_hours: 24.0,
                ..ModelParams::default()
            },
            Model::Coarse => ModelParams {
                require_line_intersection: false,
                ..ModelParams::default()
            },
        }
    }
}

/// One case: `(scheme, seed, samples, forced mode, model)`.
type Case = (Scheme, u64, u64, Option<TailMode>, Model);

/// The cases, in table order.
const CASES: [Case; 10] = [
    (Scheme::XedChipkill, 7, 6_500, None, Model::Default),
    (Scheme::XedChipkill, 2016, 6_500, None, Model::Default),
    (Scheme::DoubleChipkill, 7, 6_500, None, Model::Default),
    (Scheme::DoubleChipkill, 2016, 6_500, None, Model::Default),
    (
        Scheme::Chipkill,
        7,
        6_500,
        Some(TailMode::CountConditioned),
        Model::Default,
    ),
    (
        Scheme::EccDimm,
        7,
        10_000,
        Some(TailMode::PlainMc),
        Model::Default,
    ),
    (Scheme::XedChipkill, 7, 20_000, None, Model::Exposure24h),
    (Scheme::DoubleChipkill, 7, 20_000, None, Model::Exposure24h),
    (Scheme::XedChipkill, 7, 20_000, None, Model::Coarse),
    (Scheme::DoubleChipkill, 7, 20_000, None, Model::Coarse),
];

/// One golden row, in column order: scheme, seed, mode, failures, then
/// `p_fail`, `p_due`, `p_sdc`, `variance` and `clique_rho` as
/// `f64::to_bits` hex.
fn render(seed: u64, e: &TailEstimate) -> String {
    let hex = |x: f64| format!("{:016x}", x.to_bits());
    [
        e.scheme.label().to_string(),
        seed.to_string(),
        e.mode.label().to_string(),
        e.failures.to_string(),
        hex(e.p_fail),
        hex(e.p_due),
        hex(e.p_sdc),
        hex(e.variance),
        hex(e.clique_rho),
    ]
    .join("\t")
}

fn estimate(case: Case, threads: usize) -> TailEstimate {
    let (scheme, seed, samples, force_mode, model) = case;
    TailSimulator::new(TailConfig {
        samples,
        seed,
        threads,
        force_mode,
        params: model.params(),
        ..TailConfig::default()
    })
    .run(scheme)
}

#[test]
fn tail_estimates_match_the_golden_table_at_1_and_3_threads() {
    let mut rows = GOLDEN.lines();
    for case in CASES {
        let want = rows.next().expect("one golden row per case");
        for threads in [1usize, 3] {
            let e = estimate(case, threads);
            assert_eq!(
                render(case.1, &e),
                want,
                "{} seed {} {:?} at {threads} thread(s)",
                case.0,
                case.1,
                case.4
            );
        }
    }
    assert_eq!(rows.next(), None, "golden rows without a case");
}
