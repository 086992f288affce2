//! Figure 11: normalized execution time (vs the SECDED ECC-DIMM baseline)
//! for XED, Chipkill, XED-on-Chipkill and Double-Chipkill, across the
//! paper's benchmark roster.
//!
//! Paper result: XED ≈ 1.00 (overhead < 0.01%); Chipkill averages 1.21
//! (libquantum up to 1.63, mcf 1.51); XED-on-Chipkill ≈ 1.21; traditional
//! Double-Chipkill averages 1.82 (libquantum up to 3.2).
//!
//! `cargo run --release -p xed-bench --bin fig11_exec_time`
//! (`--instructions N` per core; `--show-config` prints Table V.)

use xed_bench::{scheme_column, Options, Report, J};
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::sim::{SimConfig, Simulation};
use xed_memsim::workloads::{geometric_mean, ALL};

fn main() {
    let opts = Options::from_args();
    if std::env::args().any(|a| a == "--show-config") {
        print_table_v();
    }
    let schemes = ReliabilityScheme::figure11_set();

    println!(
        "Figure 11: normalized execution time (8 cores x {} instructions, DDR3-1600)\n",
        opts.instructions
    );
    print!("{:12}", "benchmark");
    for s in &schemes[1..] {
        print!(" {:>12}", scheme_column(s.name));
    }
    println!();

    let mut report = Report::new("fig11_exec_time");
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
        let base = run(w.name, schemes[0], opts.instructions, opts.seed);
        print!("{:12}", w.name);
        let mut row: Vec<(&str, J)> = vec![("benchmark", J::S(w.name.to_string()))];
        for (i, s) in schemes[1..].iter().enumerate() {
            let r = run(w.name, *s, opts.instructions, opts.seed);
            let ratio = r as f64 / base as f64;
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
    println!("\n\npaper Gmeans: XED 1.00, Chipkill 1.21, XED+Chipkill 1.21, Double-Chipkill 1.82");
    report.row(&gmean_row);
    report.write("results/fig11.json");
}

fn run(name: &str, scheme: ReliabilityScheme, instructions: u64, seed: u64) -> u64 {
    Simulation::new(SimConfig {
        workload: xed_memsim::workloads::Workload::by_name(name).unwrap(),
        scheme,
        instructions_per_core: instructions,
        seed,
        ..Default::default()
    })
    .run()
    .cycles
}

fn print_table_v() {
    println!("Table V: baseline system configuration");
    for (k, v) in [
        ("Number of cores", "8"),
        ("Processor clock speed", "3.2 GHz"),
        ("Processor ROB size", "160"),
        ("Processor retire width", "4"),
        ("Processor fetch width", "4"),
        (
            "Last Level Cache",
            "modeled via per-benchmark LLC MPKI profiles",
        ),
        ("Memory bus speed", "800 MHz (DDR3-1600)"),
        ("DDR3 Memory channels", "4"),
        ("Ranks per channel", "2"),
        ("Banks per rank", "8"),
        ("Rows per bank", "32K"),
        ("Columns (cache lines) per row", "128"),
    ] {
        println!("  {k:32} {v}");
    }
    println!();
}
