//! Shadow memory for `sigil-rs`.
//!
//! The Sigil methodology "uses a shadow memory implementation to keep track
//! of the producers and consumers of every data byte in the program"
//! (IISWC'13, §II-B), derived from Nethercote & Seward's *How to shadow
//! every byte of memory used by a program* (VEE 2007):
//!
//! * a **two-level table**, "similar to an operating system page-table,
//!   where each level is indexed by a portion of the data byte-address";
//! * second-level chunks of shadow objects are **created lazily** when the
//!   corresponding address-space region is first touched, and initialized
//!   to *invalid*;
//! * an optional **FIFO limiter** frees "shadow bytes of addresses that
//!   have been least recently touched" when a memory budget is exceeded
//!   (the paper needs this only for `dedup`, with negligible accuracy
//!   loss);
//! * a **cache-line granularity** mode shadows "every line in memory
//!   rather than every byte" (§IV-B3).
//!
//! [`ShadowObject`] is the record from the paper's Table I: the 32-byte
//! baseline fields, plus the reuse-mode extension [`ReuseInfo`] only in
//! `ShadowObject<ReuseInfo>`. [`GranuleTable`] is the table the profiler
//! classifies on: one object per aligned 4-byte granule, with per-byte
//! objects only where an access splits a granule. [`ShadowTable`] is the
//! generic per-slot two-level table (line shadow, residency oracles).
//! Both share one chunk-residency implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod granule;
pub mod line;
pub mod object;
mod residency;
pub mod stats;
pub mod table;

pub use granule::{GranuleRun, GranuleTable, CHUNK_GRANULES, GRANULE_BYTES};
pub use line::{LineShadow, LineStats};
pub use object::{Owner, ReuseInfo, ReuseSlot, ShadowObject};
pub use stats::MemoryStats;
pub use table::{chunk_key, chunk_run, EvictionPolicy, RunsMut, ShadowTable, CHUNK_SLOTS};
