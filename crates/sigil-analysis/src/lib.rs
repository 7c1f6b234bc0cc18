//! Post-processing of Sigil profiles (paper §II-C and §IV).
//!
//! Three analyses, matching the paper's case studies:
//!
//! 1. **Control data-flow graph partitioning** ([`cdfg`], [`inclusive`],
//!    [`partition`], [`breakeven`]) — build the calltree-with-dependencies
//!    graph, merge nodes so "an accelerator designed for a function node …
//!    include\[s\] all of the functions in the sub-tree", trim the tree by
//!    the *breakeven-speedup* heuristic
//!    (`S_be = t_sw / (t_sw − (t_comm:ip + t_comm:op))`, Eq. 1), and rank
//!    accelerator candidates (Figures 2 & 7, Tables II & III).
//! 2. **Data-reuse analysis** ([`reuse_analysis`]) — whole-program
//!    reuse-count breakdowns and per-function lifetime histograms
//!    (Figures 8–12).
//! 3. **Critical-path analysis** ([`critical_path`]) — dependency chains
//!    over the event file with non-blocking calls; the maximum
//!    function-level parallelism is the serial length divided by the
//!    critical-path length (Figures 3 & 13).
//!
//! # Example
//!
//! ```
//! use sigil_core::{SigilConfig, SigilProfiler};
//! use sigil_trace::{Engine, OpClass};
//! use sigil_analysis::partition::{trim_calltree, PartitionConfig};
//!
//! let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
//! engine.scoped_named("main", |e| {
//!     e.scoped_named("kernel", |e| {
//!         e.read(0x0, 64);
//!         e.op(OpClass::FloatArith, 10_000);
//!         e.write(0x100, 64);
//!     });
//! });
//! let (p, s) = engine.finish_with_symbols();
//! let profile = p.into_profile(s);
//!
//! let trimmed = trim_calltree(&profile, &PartitionConfig::default());
//! let best = &trimmed.leaves[0];
//! assert!(best.breakeven >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakeven;
pub mod buffer;
mod call_table;
pub mod cdfg;
pub mod critical_path;
pub mod dot;
pub mod inclusive;
mod merge;
pub mod partition;
pub mod reuse_analysis;
pub mod scaling;
pub mod schedule;
pub mod streaming;
pub mod whatif;

pub use breakeven::{breakeven_speedup, BusModel};
pub use buffer::{bb_curve, BufferPoint};
pub use cdfg::Cdfg;
pub use critical_path::{CommModel, CriticalPath, DependencyGraph};
pub use inclusive::{inclusive_table, InclusiveCosts};
pub use partition::{
    rank_functions, rank_functions_prepared, trim_calltree, trim_calltree_prepared, Candidate,
    PartitionConfig, PreparedCdfg, TrimmedTree,
};
pub use streaming::{
    critical_path_from_bin, event_cdfg_from_bin, phase_profile_from_bin, CriticalPathFold,
    EventCdfg, EventCdfgFold, PathSummary, PhaseFold, StreamError,
};
