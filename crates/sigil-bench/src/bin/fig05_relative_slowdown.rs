//! **Figure 5**: slowdown of Sigil *relative to Callgrind* for baseline
//! function-level profiling, simsmall and simmedium inputs.
//!
//! Paper: "an average slowdown of 8-9x and remains fairly consistent …
//! dedup is an outlier which incurred more slowdown as we enabled the
//! memory limiting command line option."

use sigil_bench::{csv_header, header, measure_overhead};
use sigil_workloads::{Benchmark, InputSize};

fn main() {
    let _obs = sigil_bench::obs::session("fig05_relative_slowdown");
    header(
        "Figure 5: slowdown of Sigil relative to Callgrind",
        "fairly consistent ~8-9x across benchmarks and input sizes; dedup an outlier",
    );
    println!("{:>14} {:>14} {:>14}", "benchmark", "simsmall", "simmedium");
    let mut csv = Vec::new();
    for bench in Benchmark::parsec() {
        let small = measure_overhead(bench, InputSize::SimSmall, 3);
        let medium = measure_overhead(bench, InputSize::SimMedium, 3);
        println!(
            "{:>14} {:>13.1}x {:>13.1}x",
            bench.name(),
            small.relative_slowdown(),
            medium.relative_slowdown()
        );
        csv.push((bench, small.relative_slowdown(), medium.relative_slowdown()));
    }
    csv_header("benchmark,simsmall_rel,simmedium_rel");
    for (bench, s, m) in csv {
        println!("{},{s:.3},{m:.3}", bench.name());
    }
}
