//! **Figure 6**: memory usage for baseline function-level profiling,
//! simsmall vs simmedium inputs. The measured quantity is the bytes the
//! profiler's granule table holds for its resident chunks
//! (`MemoryStats::resident_bytes`).
//!
//! Paper: "The memory increase … remains consistent for increased
//! datasize. facesim and raytrace are intensive benchmarks that use
//! larger amounts of memory."

use sigil_bench::{csv_header, header, profile};
use sigil_core::SigilConfig;
use sigil_workloads::{Benchmark, InputSize};

fn main() {
    let _obs = sigil_bench::obs::session("fig06_memory");
    header(
        "Figure 6: shadow-memory usage for baseline profiling (granule-table bytes)",
        "usage grows with data size; facesim/raytrace/dedup are the memory-intensive ones",
    );
    println!(
        "{:>14} {:>16} {:>16}",
        "benchmark", "simsmall (MiB)", "simmedium (MiB)"
    );
    let mut csv = Vec::new();
    for bench in Benchmark::parsec() {
        let small = profile(bench, InputSize::SimSmall, SigilConfig::default());
        let medium = profile(bench, InputSize::SimMedium, SigilConfig::default());
        println!(
            "{:>14} {:>16.2} {:>16.2}",
            bench.name(),
            small.memory.resident_mib(),
            medium.memory.resident_mib()
        );
        csv.push((
            bench,
            small.memory.resident_mib(),
            medium.memory.resident_mib(),
        ));
    }
    csv_header("benchmark,simsmall_mib,simmedium_mib");
    for (bench, s, m) in csv {
        println!("{},{s:.4},{m:.4}", bench.name());
    }
}
