//! A deliberately naive reference profiler and differential-testing
//! harness for the Sigil shadow-memory pipeline.
//!
//! The production [`SigilProfiler`](sigil_core::SigilProfiler) earns its
//! speed with a chunked shadow table, an MRU chunk cache, O(1) eviction
//! bookkeeping, interned call contexts, and a packed cost model. Every
//! one of those tricks is a place where a future optimisation can
//! silently corrupt the paper's Table-I byte classification. This crate
//! is the antidote:
//!
//! * [`OracleProfiler`] — a straight-line re-implementation of the
//!   classification semantics with *none* of the tricks: one flat
//!   `HashMap<addr, byte>` shadow map, function identity instead of call
//!   contexts, an O(n)-scan eviction model, and naive per-byte loops.
//!   It is written to be *obviously* correct against the paper, not fast.
//! * [`OracleReport`] — a per-function-name projection of a profile
//!   (calls, the eight Table-I counters, communication edges, reuse
//!   aggregates + lifetime histograms, and the line-mode report) that
//!   both the oracle and the production profiler can be reduced to, so
//!   the two can be compared field by field ([`diff_reports`]).
//! * [`harness`] — replay plumbing that runs the *same* recorded event
//!   stream through both profilers under a configurable
//!   [`SigilConfig`](sigil_core::SigilConfig) (including randomized
//!   shadow-memory limits so eviction paths are differentially covered),
//!   plus a delta-debugging shrinker over [`sigil_vm::GenProgram`]s and
//!   a first-divergent-access locator for actionable repros.
//! * [`InjectedBug`] — intentional semantic mutations of the oracle used
//!   to prove the harness actually catches classification bugs and
//!   produces small repros.
//! * [`OracleGraph`] — the critical-path reference: the whole Figure 3
//!   dependency graph with every fragment's incoming edges, and one
//!   longest-path pass over it. [`check_critical_path`] holds the
//!   production fold and the graph built from it to it, fragment by
//!   fragment.
//!
//! The oracle models *function-level* identity (the projection both
//! sides are compared under), not per-context identity; it is faithful
//! to the production profiler as long as call depth stays below the
//! calltree's folding limit (`CallTree::MAX_DEPTH`), which generated
//! programs and the built-in workloads do by a wide margin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod harness;
pub mod profiler;
pub mod report;
pub mod serve_axis;

pub use critical_path::{check_critical_path, OracleGraph};
pub use profiler::{InjectedBug, OracleProfiler};
pub use report::{
    diff_reports, project_profile, Divergence, EdgeReport, FunctionReport, OracleReport,
    ReuseReport,
};
