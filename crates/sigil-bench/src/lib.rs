//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md`'s experiment index).
//!
//! Each `src/bin/figNN_*.rs` / `src/bin/tableN_*.rs` binary prints the
//! same rows/series the paper reports, as an aligned text table followed
//! by a CSV block (for plotting). `src/bin/all_figures.rs` runs the lot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub mod obs;

use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
use sigil_core::{Profile, SigilConfig, SigilProfiler};
use sigil_trace::observer::CountingObserver;
use sigil_trace::{Engine, ExecutionObserver, RuntimeEvent};
use sigil_workloads::{Benchmark, InputSize};

/// Collects a Sigil profile of `bench` at `size` under `config`.
pub fn profile(bench: Benchmark, size: InputSize, config: SigilConfig) -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(config));
    bench.run(size, &mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

/// Times one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// One row of the overhead comparison (Figures 4 and 5).
#[derive(Debug, Clone, Copy)]
pub struct OverheadRow {
    /// The benchmark measured.
    pub bench: Benchmark,
    /// Input size used.
    pub size: InputSize,
    /// Median wall time of the native run: the workload generator
    /// driving a [`NativeFloor`].
    pub native: Duration,
    /// Median wall time under the Callgrind-like profiler.
    pub callgrind: Duration,
    /// Median wall time under the full Sigil profiler.
    pub sigil: Duration,
}

impl OverheadRow {
    /// Sigil's slowdown relative to native.
    pub fn sigil_slowdown(&self) -> f64 {
        ratio(self.sigil, self.native)
    }

    /// Callgrind's slowdown relative to native.
    pub fn callgrind_slowdown(&self) -> f64 {
        ratio(self.callgrind, self.native)
    }

    /// Sigil's slowdown relative to Callgrind (Figure 5's metric).
    pub fn relative_slowdown(&self) -> f64 {
        ratio(self.sigil, self.callgrind)
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-9)
}

/// The native baseline's observer: counts events behind a call the
/// optimizer may not inline, so a generator driven into it cannot be
/// folded away and each event costs the call a profiler's does.
#[derive(Debug, Default)]
pub struct NativeFloor(pub CountingObserver);

impl ExecutionObserver for NativeFloor {
    #[inline(never)]
    fn on_event(&mut self, event: RuntimeEvent) {
        self.0.on_event(event);
    }
}

/// Median wall time of `reps` runs (at least one), after one untimed
/// warm-up run.
fn median_time(reps: u32, mut run: impl FnMut()) -> Duration {
    run();
    let mut times: Vec<Duration> = (0..reps.max(1)).map(|_| time(&mut run).1).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Measures the three-way overhead of one benchmark. Each arm — native,
/// Callgrind, Sigil — is the median of `reps` runs after one warm-up.
pub fn measure_overhead(bench: Benchmark, size: InputSize, reps: u32) -> OverheadRow {
    let native = median_time(reps, || {
        let mut engine = Engine::new(NativeFloor::default());
        bench.run(size, &mut engine);
        std::hint::black_box(engine.finish());
    });
    let callgrind = median_time(reps, || {
        let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
        bench.run(size, &mut engine);
        let (profiler, symbols) = engine.finish_with_symbols();
        std::hint::black_box(profiler.into_profile(symbols));
    });
    let sigil = median_time(reps, || {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        bench.run(size, &mut engine);
        let (profiler, symbols) = engine.finish_with_symbols();
        std::hint::black_box(profiler.into_profile(symbols));
    });
    OverheadRow {
        bench,
        size,
        native,
        callgrind,
        sigil,
    }
}

/// Prints a figure header.
pub fn header(figure: &str, paper_says: &str) {
    println!("================================================================");
    println!("{figure}");
    println!("paper: {paper_says}");
    println!("================================================================");
}

/// Prints a CSV block delimiter plus its header row.
pub fn csv_header(columns: &str) {
    println!("--- csv ---");
    println!("{columns}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_helper_produces_nonempty_profile() {
        let p = profile(
            Benchmark::Blackscholes,
            InputSize::SimSmall,
            SigilConfig::default(),
        );
        assert!(p.callgrind.total_ops > 0);
        assert!(!p.edges.is_empty());
    }

    #[test]
    fn overhead_row_ratios() {
        let row = OverheadRow {
            bench: Benchmark::Vips,
            size: InputSize::SimSmall,
            native: Duration::from_millis(10),
            callgrind: Duration::from_millis(40),
            sigil: Duration::from_millis(200),
        };
        assert!((row.callgrind_slowdown() - 4.0).abs() < 1e-9);
        assert!((row.sigil_slowdown() - 20.0).abs() < 1e-9);
        assert!((row.relative_slowdown() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn measure_overhead_orders_sensibly() {
        let row = measure_overhead(Benchmark::Streamcluster, InputSize::SimSmall, 3);
        // Sigil must cost more than the native run.
        assert!(row.sigil > row.native);
    }
}
