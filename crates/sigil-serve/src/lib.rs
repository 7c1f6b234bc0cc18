//! `sigil-serve` — a concurrent trace-ingestion daemon.
//!
//! The paper computes communication profiles offline over recorded
//! traces; the production north-star is a long-running service ingesting
//! many streams at once. This crate is that server: `sigil serve`
//! accepts any number of concurrent *profile sessions* over a
//! length-framed protocol whose data payloads are chunk payloads of the
//! [`sigil_core::events_bin`] container: event records for event-record
//! sessions, and trace records (symbols, then runtime events) for full
//! trace sessions.
//!
//! # Architecture
//!
//! ```text
//! client ──frames──▶ reader thread ──bounded queue──▶ worker thread
//!                      │   ▲                             │
//!                      │   └──────── CREDIT (aux=1) ◀────┤ per processed chunk
//!                      └ STATUS answered inline          └ folds / profiler
//! ```
//!
//! One connection is one session. Each session runs two threads: a
//! *reader* that parses frames and enqueues chunk work into a bounded
//! queue, and a *worker* that decodes payloads and feeds them through
//! the session's aggregation state — the streaming folds
//! ([`PhaseFold`](sigil_analysis::streaming::PhaseFold),
//! [`EventCdfgFold`](sigil_analysis::streaming::EventCdfgFold),
//! [`CriticalPathFold`](sigil_analysis::streaming::CriticalPathFold))
//! for event-record sessions, or an incremental
//! [`SigilProfiler`](sigil_core::SigilProfiler) (the shadow/profile
//! aggregator) for trace sessions. The queue bound *is* the credit
//! window: the server grants the client `credits` chunk tokens up
//! front and returns one CREDIT frame per chunk processed, so a slow
//! consumer throttles its producer instead of buffering unboundedly.
//!
//! Sessions are isolated: each owns its profiler/folds, its queue, and
//! its per-session metrics; a protocol error or disconnect kills only
//! the offending session's threads and is reported with a located
//! error, while sibling sessions and the accept loop keep running.
//!
//! The online results are proven equal to the batch pipeline by the
//! `sigil-oracle` server axis: every golden workload and generated seed
//! is replayed both through `sigil profile` and through a real socket
//! into this daemon, and the finished Profile/phases/critpath must be
//! byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{shutdown_server, Client, ClientError};
pub use proto::{
    Frame, FrameKind, ProtoError, SessionResult, SessionSpec, ShutdownSummary, SnapshotInfo,
    StatusInfo, Welcome, WireError, FRAME_HEADER_LEN, WIRE_VERSION,
};
pub use server::{Listen, ServeConfig, Server};
