//! Callgrind-like profiling substrate.
//!
//! The original Sigil is built *on top of* Callgrind: "Callgrind captures
//! a calltree of the running programs and also performs on-the-fly cache
//! simulations … It maintains costs for each function in the call tree"
//! and "Sigil hooks into Callgrind to identify function names, obtain
//! addresses and count operations" (IISWC'13 §III).
//!
//! This crate reproduces that substrate:
//!
//! * [`calltree`] — a context-sensitive calltree: costs are kept "for
//!   functions called through different contexts" separately (the paper's
//!   `D1`/`D2` nodes in Fig. 2 and `conv_gen(1)` in Fig. 9);
//! * [`costs`] — per-context cost vectors (instructions, op mix, memory
//!   traffic, cache misses, branch mispredictions);
//! * [`cache`] — a two-level set-associative LRU data-cache simulation;
//! * [`branch`] — a bimodal branch predictor;
//! * [`cycle`] — Callgrind's cycle-estimation formula
//!   (`CEst = Ir + 10·Bm + 10·L1m + 100·LLm`), the source of the `t_sw`
//!   estimate used by the partitioning heuristic;
//! * [`profiler`] — [`CallgrindProfiler`], an
//!   [`sigil_trace::ExecutionObserver`] tying it all together;
//! * [`output`] — calltree text rendering.
//!
//! # Example
//!
//! ```
//! use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
//! use sigil_trace::{Engine, OpClass};
//!
//! let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
//! let main = engine.symbols_mut().intern("main");
//! engine.call(main);
//! engine.op(OpClass::IntArith, 100);
//! engine.write(0x1000, 64);
//! engine.ret();
//! let (profiler, symbols) = engine.finish_with_symbols();
//! let profile = profiler.into_profile(symbols);
//! let total = profile.total_costs();
//! assert_eq!(total.ops_total(), 100);
//! assert_eq!(total.bytes_written, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod calltree;
pub mod costs;
pub mod cycle;
pub mod output;
pub mod profiler;
pub mod stackdist;

pub use branch::BranchPredictor;
pub use cache::{CacheConfig, CacheHierarchy, CacheSim};
pub use calltree::{CallTree, ContextId};
pub use costs::CostVec;
pub use cycle::CycleModel;
pub use profiler::{CallgrindConfig, CallgrindProfile, CallgrindProfiler};
