//! The Sigil profiler.
//!
//! This crate implements the core methodology of *"Platform-independent
//! analysis of function-level communication in workloads"* (IISWC 2013):
//!
//! * **Producer/consumer tracking** — a shadow object per data byte
//!   records the last writer (function context + call number) and last
//!   reader, so every read can be attributed to the function that
//!   produced the value (§II-B, Table I).
//! * **Classification** — every communicated byte is classified on two
//!   axes: *input/output/local* and *unique/non-unique* (§II-A). Unique
//!   bytes are the true read/write set of a function — what a well-built
//!   accelerator with an internal buffer would actually transfer.
//! * **Reuse mode** — per-byte reuse counts and reuse lifetimes (time
//!   between first and last read of a byte within a function call,
//!   measured in retired ops), aggregated into per-function histograms
//!   (§IV-B, Figures 8–11).
//! * **Line mode** — shadowing per cache line instead of per byte
//!   (§IV-B3, Figure 12).
//! * **Two output representations** — per-function(-context) aggregates,
//!   or an *event file*: the execution as a sequence of dependent
//!   compute fragments separated by data-transfer edges, consumed by the
//!   critical-path analysis (§II-C2, Figure 3).
//!
//! Exactly as the paper's tool "hooks into Callgrind", [`SigilProfiler`]
//! embeds a [`sigil_callgrind::CallgrindProfiler`] for function/context
//! identification, op counting and cycle estimation, and layers shadow
//! memory on top.
//!
//! # Example
//!
//! ```
//! use sigil_core::{SigilConfig, SigilProfiler};
//! use sigil_trace::{Engine, OpClass};
//!
//! let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
//! let main = engine.symbols_mut().intern("main");
//! engine.call(main);
//! engine.scoped_named("producer", |e| e.write(0x100, 8));
//! engine.scoped_named("consumer", |e| {
//!     e.read(0x100, 8); // unique input, produced by `producer`
//!     e.read(0x100, 8); // non-unique (re-read within the same call)
//! });
//! engine.ret();
//! let (profiler, symbols) = engine.finish_with_symbols();
//! let profile = profiler.into_profile(symbols);
//!
//! let consumer = profile.function_by_name("consumer").unwrap();
//! assert_eq!(consumer.comm.input_unique_bytes, 8);
//! assert_eq!(consumer.comm.input_nonunique_bytes, 8);
//! let producer = profile.function_by_name("producer").unwrap();
//! assert_eq!(producer.comm.output_unique_bytes, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
pub mod config;
pub mod events_bin;
pub mod events_out;
pub mod phase;
pub mod profile;
pub mod profiler;
pub mod report;
pub mod reuse;
pub mod shard;
pub mod stats;
pub mod sweep;
mod timeline;

pub use config::SigilConfig;
pub use events_bin::{
    decode_events, encode_events, BinError, BinReader, BinTotals, BinWriter, ChunkInfo,
    ChunkRecord, ChunkStream, RecordKind, TraceRecord,
};
pub use events_out::{EventFile, EventRecord};
pub use phase::{PhaseBucket, PhaseBuilder, PhasePair, PhaseProfile};
pub use profile::{ContextComm, FunctionComm, Profile};
pub use profiler::{LineReport, SigilProfiler};
pub use reuse::{ContextReuse, LifetimeHistogram, ReuseBucket};
pub use shard::{merge_fragments, ShardFragment};
pub use stats::{CommEdge, CommStats};
pub use sweep::{clamp_jobs, clamp_jobs_to, SweepEntry};
