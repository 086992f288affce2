//! Figure 12: normalized memory power (vs the SECDED ECC-DIMM baseline)
//! for XED, Chipkill, XED-on-Chipkill and Double-Chipkill.
//!
//! Paper result: XED ≈ 1.00; Chipkill ≈ 0.92 (its longer execution time
//! spreads the energy); XED-on-Chipkill ≈ 0.92; Double-Chipkill ≈ 1.084
//! (36 activated chips overwhelm the time-stretching effect).
//!
//! `cargo run --release -p xed-bench --bin fig12_power`

use xed_bench::{scheme_column, Options, Report, J};
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::sim::{SimConfig, SimResult, Simulation};
use xed_memsim::workloads::{geometric_mean, ALL};

fn main() {
    let opts = Options::from_args();
    let schemes = ReliabilityScheme::figure11_set();

    println!(
        "Figure 12: normalized memory power (8 cores x {} instructions, DDR3-1600)\n",
        opts.instructions
    );
    print!("{:12}", "benchmark");
    for s in &schemes[1..] {
        print!(" {:>12}", scheme_column(s.name));
    }
    println!();

    let mut report = Report::new("fig12_power");
    report
        .param("instructions", J::U(opts.instructions))
        .param("seed", J::U(opts.seed))
        .param("baseline", J::S(schemes[0].name.to_string()));

    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len() - 1];
    let mut suite = None;
    for w in ALL {
        if suite != Some(w.suite) {
            suite = Some(w.suite);
            println!("--- {} ---", w.suite.label());
        }
        let base = run(w.name, schemes[0], opts.instructions, opts.seed).power_mw();
        print!("{:12}", w.name);
        let mut row: Vec<(&str, J)> = vec![("benchmark", J::S(w.name.to_string()))];
        for (i, s) in schemes[1..].iter().enumerate() {
            let r = run(w.name, *s, opts.instructions, opts.seed);
            let ratio = r.power_mw() / base;
            per_scheme[i].push(ratio);
            print!(" {:>12.3}", ratio);
            row.push((scheme_column(s.name), J::F(ratio)));
        }
        report.row(&row);
        println!();
    }

    let mut gmean_row: Vec<(&str, J)> = vec![("benchmark", J::S("Gmean".to_string()))];
    print!("{:12}", "Gmean");
    for (i, ratios) in per_scheme.iter().enumerate() {
        let g = geometric_mean(ratios.iter().copied());
        print!(" {g:>12.3}");
        gmean_row.push((scheme_column(schemes[1 + i].name), J::F(g)));
    }
    report.row(&gmean_row);
    println!(
        "\n\npaper Gmeans: XED 1.00, Chipkill 0.92, XED+Chipkill 0.92, Double-Chipkill 1.084\n\
         (our Chipkill lands above 1.0 because we charge ganged x8 accesses their physical\n\
         2x activation + overfetch transfer energy; see EXPERIMENTS.md)"
    );
    report.write("results/fig12.json");
}

fn run(name: &str, scheme: ReliabilityScheme, instructions: u64, seed: u64) -> SimResult {
    Simulation::new(SimConfig {
        workload: xed_memsim::workloads::Workload::by_name(name).unwrap(),
        scheme,
        instructions_per_core: instructions,
        seed,
        ..Default::default()
    })
    .run()
}
