//! Golden `TailEstimate`s, floats compared by their bit patterns.
//!
//! `tests/data/tail_golden.tsv` pins six rare-event estimates: XED on
//! Chipkill and Double-Chipkill in auto mode at two seeds, one forced
//! count-conditioned run and one forced plain-MC run. Each row must come
//! out of the engine bit for bit at 1 and at 3 worker threads.
//!
//! The thread-invariance tests only compare thread counts with each
//! other, and the closed-form tests allow a tolerance band; neither would
//! notice a changed chunk size, stream key or fold order. This table does:
//! the tail's floating-point sums are grouped per 1024-trial chunk and
//! folded in chunk order, so any change to that rule moves the low bits.
//! Sample counts are not multiples of the chunk sizes, so a short final
//! chunk is always part of the fold.

use xed_faultsim::rareevent::{TailConfig, TailEstimate, TailMode, TailSimulator};
use xed_faultsim::schemes::Scheme;

const GOLDEN: &str = include_str!("data/tail_golden.tsv");

/// The cases, in table order: `(scheme, seed, samples, forced mode)`.
const CASES: [(Scheme, u64, u64, Option<TailMode>); 6] = [
    (Scheme::XedChipkill, 7, 6_500, None),
    (Scheme::XedChipkill, 2016, 6_500, None),
    (Scheme::DoubleChipkill, 7, 6_500, None),
    (Scheme::DoubleChipkill, 2016, 6_500, None),
    (Scheme::Chipkill, 7, 6_500, Some(TailMode::CountConditioned)),
    (Scheme::EccDimm, 7, 10_000, Some(TailMode::PlainMc)),
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

fn estimate(case: (Scheme, u64, u64, Option<TailMode>), threads: usize) -> TailEstimate {
    let (scheme, seed, samples, force_mode) = case;
    TailSimulator::new(TailConfig {
        samples,
        seed,
        threads,
        force_mode,
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
                "{} seed {} at {threads} thread(s)",
                case.0,
                case.1
            );
        }
    }
    assert_eq!(rows.next(), None, "golden rows without a case");
}
