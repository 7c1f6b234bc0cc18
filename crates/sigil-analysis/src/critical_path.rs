//! Critical-path analysis over the event file (paper §II-C2, §IV-C,
//! Figures 3 and 13).
//!
//! Each dynamic call becomes a chain of *fragment* nodes (one per compute
//! record); calls are modelled as **non-blocking**, "so that they can
//! potentially run in parallel and start consuming data". Re-entering a
//! caller after a child returns appends a new fragment with an ordering
//! edge to the previous fragment, "to conservatively enforce order between
//! regions within" the function — exactly the construction of Figure 3.
//!
//! The longest chain from the program entry is the critical path; the
//! maximum theoretical function-level parallelism is the serial length
//! divided by the critical-path length.
//!
//! [`CriticalPathFold`] evaluates the recurrence; [`DependencyGraph`]
//! keeps the nodes it yields, for the path and the schedule.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_core::{EventFile, EventRecord, Profile};
use sigil_trace::CallNumber;

use crate::streaming::CriticalPathFold;

/// Analysis failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CriticalPathError {
    /// The profile was collected without event recording.
    MissingEvents,
    /// The event file contains no compute work.
    EmptyEventFile,
}

impl fmt::Display for CriticalPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriticalPathError::MissingEvents => {
                f.write_str("profile has no event file (enable SigilConfig::with_events)")
            }
            CriticalPathError::EmptyEventFile => f.write_str("event file contains no compute work"),
        }
    }
}

impl Error for CriticalPathError {}

/// One fragment node of the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentNode {
    /// The dynamic call this fragment belongs to.
    pub call: CallNumber,
    /// The function context of that call.
    pub ctx: ContextId,
    /// Retired ops in this fragment (the node's self cost).
    pub self_ops: u64,
    /// Longest-chain finish time: max over predecessors' finish + self
    /// cost (the paper's "inclusive cost" of Figure 3).
    pub finish: u64,
    /// The predecessor on the longest incoming chain.
    pub pred: Option<usize>,
    /// The ordering predecessor: the previous fragment of the same call,
    /// or the caller fragment that spawned this call.
    pub order_pred: Option<usize>,
    /// The data predecessor: the producer fragment of the latest-arriving
    /// transfer consumed by this fragment, if any.
    pub data_pred: Option<usize>,
}

/// Cost model for data-transfer edges in the dependency graph.
///
/// The paper's §IV-C deliberately ignores communication edges ("for the
/// sake of simplicity, we do not employ more sophisticated critical path
/// analysis … which also take communication edges into account") and
/// cites full-system critical-path work as the extension. This model
/// implements that extension: a transfer of `b` bytes delays the
/// consumer by `fixed_ops + b / bytes_per_op` retired-op units beyond
/// the producer's finish time. [`CommModel::free`] recovers the paper's
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    /// Per-transfer fixed latency in retired-op units.
    pub fixed_ops: u64,
    /// Transfer bandwidth: bytes moved per retired-op unit.
    pub bytes_per_op: f64,
}

impl CommModel {
    /// Zero-cost transfers — the paper's simplification.
    pub const fn free() -> Self {
        CommModel {
            fixed_ops: 0,
            bytes_per_op: f64::INFINITY,
        }
    }

    /// Latency of moving `bytes` bytes.
    pub fn latency(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let transfer = if self.bytes_per_op.is_finite() && self.bytes_per_op > 0.0 {
            (bytes as f64 / self.bytes_per_op).ceil() as u64
        } else {
            0
        };
        self.fixed_ops.saturating_add(transfer)
    }
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel::free()
    }
}

/// The dependency graph built from an event file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DependencyGraph {
    nodes: Vec<FragmentNode>,
    serial_ops: u64,
}

impl DependencyGraph {
    /// Builds the graph from an event file with zero-cost transfers
    /// (the paper's model).
    pub fn from_event_file(events: &EventFile) -> Self {
        Self::from_event_file_with(events, &CommModel::free())
    }

    /// Builds the graph, charging each data-transfer edge under `comm`.
    pub fn from_event_file_with(events: &EventFile, comm: &CommModel) -> Self {
        Self::from_records(events.records().iter().copied(), comm)
    }

    /// Builds the graph from any record sequence — an in-memory slice, or
    /// a streaming decode of the binary format — by collecting the nodes
    /// [`CriticalPathFold`] yields. The graph is O(records); the fold
    /// alone gives the summary numbers at bounded memory.
    pub fn from_records<I>(records: I, comm: &CommModel) -> Self
    where
        I: IntoIterator<Item = EventRecord>,
    {
        let mut fold = CriticalPathFold::with_comm(*comm);
        let nodes = records
            .into_iter()
            .filter_map(|record| fold.fragment(&record))
            .collect();
        DependencyGraph {
            nodes,
            serial_ops: fold.serial_ops(),
        }
    }

    /// The fragment nodes in creation order.
    pub fn nodes(&self) -> &[FragmentNode] {
        &self.nodes
    }

    /// Serial length: total retired ops across all fragments.
    pub fn serial_ops(&self) -> u64 {
        self.serial_ops
    }

    /// Extracts the critical path.
    ///
    /// # Errors
    ///
    /// Returns [`CriticalPathError::EmptyEventFile`] if no compute work
    /// exists.
    pub fn critical_path(&self) -> Result<CriticalPath, CriticalPathError> {
        if self.serial_ops == 0 {
            return Err(CriticalPathError::EmptyEventFile);
        }
        let tail = self
            .nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.finish)
            .map(|(i, _)| i)
            .expect("non-empty graph");
        let mut path = Vec::new();
        let mut cursor = Some(tail);
        while let Some(i) = cursor {
            path.push(self.nodes[i]);
            cursor = self.nodes[i].pred;
        }
        path.reverse();
        let length_ops = self.nodes[tail].finish;
        Ok(CriticalPath {
            serial_ops: self.serial_ops,
            length_ops,
            path,
        })
    }
}

/// The critical path and the parallelism limit it implies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Total retired ops of the run (serial length).
    pub serial_ops: u64,
    /// Length of the longest dependency chain in retired ops.
    pub length_ops: u64,
    /// The fragments on the longest chain, entry first.
    pub path: Vec<FragmentNode>,
}

impl CriticalPath {
    /// Builds the dependency graph from `profile`'s event file and
    /// extracts the critical path, with zero-cost transfers (the paper's
    /// model).
    ///
    /// # Errors
    ///
    /// Fails if the profile has no event file or no compute work.
    pub fn from_profile(profile: &Profile) -> Result<Self, CriticalPathError> {
        Self::from_profile_with(profile, &CommModel::free())
    }

    /// Like [`CriticalPath::from_profile`], but charges transfer edges
    /// under `comm` — the communication-aware extension the paper leaves
    /// to future work.
    ///
    /// # Errors
    ///
    /// Fails if the profile has no event file or no compute work.
    pub fn from_profile_with(
        profile: &Profile,
        comm: &CommModel,
    ) -> Result<Self, CriticalPathError> {
        let _span = sigil_obs::span("analysis:critical_path");
        let events = profile
            .events
            .as_ref()
            .ok_or(CriticalPathError::MissingEvents)?;
        DependencyGraph::from_event_file_with(events, comm).critical_path()
    }

    /// Maximum theoretical function-level parallelism:
    /// serial length / critical-path length (Figure 13's metric).
    pub fn max_parallelism(&self) -> f64 {
        if self.length_ops == 0 {
            1.0
        } else {
            self.serial_ops as f64 / self.length_ops as f64
        }
    }

    /// Function names along the path (deduplicated consecutive repeats),
    /// leaf last — the representation used in the paper's §IV-C chains.
    pub fn function_names(&self, profile: &Profile) -> Vec<String> {
        let tree = &profile.callgrind.tree;
        let symbols = profile.symbols();
        let mut names: Vec<String> = Vec::new();
        for frag in &self.path {
            let name = tree.node(frag.ctx).func.map_or_else(
                || "<root>".to_owned(),
                |f| {
                    symbols
                        .get_name(f)
                        .map_or_else(|| f.to_string(), str::to_owned)
                },
            );
            if names.last() != Some(&name) {
                names.push(name);
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    fn profile_with_events<F: FnOnce(&mut Engine<SigilProfiler>)>(body: F) -> Profile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_events()));
        body(&mut engine);
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s)
    }

    #[test]
    fn independent_children_run_in_parallel() {
        // Two children with no data dependency: the critical path is main
        // + one child, so parallelism > 1.
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("left", |e| e.op(OpClass::IntArith, 1000));
                e.scoped_named("right", |e| e.op(OpClass::IntArith, 1000));
            });
        });
        let cp = CriticalPath::from_profile(&profile).expect("events present");
        assert!(
            cp.max_parallelism() > 1.5,
            "got {} (serial {}, path {})",
            cp.max_parallelism(),
            cp.serial_ops,
            cp.length_ops
        );
    }

    #[test]
    fn data_dependency_serializes_chain() {
        // producer → consumer dependency forces them onto one chain.
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 1000);
                    e.write(0x0, 8);
                });
                e.scoped_named("consumer", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 1000);
                });
            });
        });
        let cp = CriticalPath::from_profile(&profile).expect("events present");
        // Both kernels must be on the path: length ≥ 2000.
        assert!(cp.length_ops >= 2000, "got {}", cp.length_ops);
        let names = cp.function_names(&profile);
        assert!(names.contains(&"producer".to_owned()));
        assert!(names.contains(&"consumer".to_owned()));
        assert!(cp.max_parallelism() < 1.2);
    }

    #[test]
    fn independent_consumers_parallelize_after_producer() {
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 100);
                    e.write(0x0, 8);
                    e.write(0x100, 8);
                });
                e.scoped_named("worker_a", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 900);
                });
                e.scoped_named("worker_b", |e| {
                    e.read(0x100, 8);
                    e.op(OpClass::IntArith, 900);
                });
            });
        });
        let cp = CriticalPath::from_profile(&profile).expect("events present");
        // Serial ≈ 1900+, path ≈ 1000+: parallelism approaching 2.
        assert!(cp.max_parallelism() > 1.5, "got {}", cp.max_parallelism());
    }

    #[test]
    fn missing_events_is_an_error() {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| e.op(OpClass::IntArith, 1));
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        assert_eq!(
            CriticalPath::from_profile(&profile),
            Err(CriticalPathError::MissingEvents)
        );
    }

    #[test]
    fn empty_event_file_is_an_error() {
        let graph = DependencyGraph::from_event_file(&EventFile::new());
        assert_eq!(
            graph.critical_path(),
            Err(CriticalPathError::EmptyEventFile)
        );
    }

    #[test]
    fn path_finish_times_are_monotonic() {
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.op(OpClass::IntArith, 10);
                e.scoped_named("a", |e| {
                    e.op(OpClass::IntArith, 10);
                    e.scoped_named("b", |e| e.op(OpClass::IntArith, 10));
                    e.op(OpClass::IntArith, 10);
                });
            });
        });
        let cp = CriticalPath::from_profile(&profile).expect("events present");
        for pair in cp.path.windows(2) {
            assert!(pair[0].finish <= pair[1].finish);
        }
        assert_eq!(
            cp.path.last().expect("non-empty").finish,
            cp.length_ops,
            "path ends at the critical finish time"
        );
    }

    #[test]
    fn comm_model_latency_math() {
        let free = CommModel::free();
        assert_eq!(free.latency(0), 0);
        assert_eq!(free.latency(1 << 20), 0);
        let bus = CommModel {
            fixed_ops: 100,
            bytes_per_op: 8.0,
        };
        assert_eq!(bus.latency(0), 0);
        assert_eq!(bus.latency(16), 102);
        assert_eq!(bus.latency(7), 101, "partial beats round up");
    }

    #[test]
    fn comm_aware_path_is_no_shorter_than_free_path() {
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 100);
                    for i in 0..64 {
                        e.write(0x2000 + i * 8, 8);
                    }
                });
                e.scoped_named("consumer", |e| {
                    for i in 0..64 {
                        e.read(0x2000 + i * 8, 8);
                    }
                    e.op(OpClass::IntArith, 100);
                });
            });
        });
        let free = CriticalPath::from_profile(&profile).expect("events");
        let bus = CommModel {
            fixed_ops: 50,
            bytes_per_op: 1.0,
        };
        let charged = CriticalPath::from_profile_with(&profile, &bus).expect("events");
        assert!(charged.length_ops > free.length_ops);
        // At least one 8-byte transfer (50 fixed + 8 ops) is on the path.
        assert!(charged.length_ops >= free.length_ops + 58);
        assert_eq!(charged.serial_ops, free.serial_ops);
        assert!(charged.max_parallelism() < free.max_parallelism());
    }

    #[test]
    fn free_comm_model_matches_paper_baseline() {
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("a", |e| {
                    e.op(OpClass::IntArith, 10);
                    e.write(0x0, 8);
                });
                e.scoped_named("b", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 10);
                });
            });
        });
        let baseline = CriticalPath::from_profile(&profile).expect("events");
        let explicit =
            CriticalPath::from_profile_with(&profile, &CommModel::free()).expect("events");
        assert_eq!(baseline, explicit);
    }

    #[test]
    fn serial_ops_match_event_file_total() {
        let profile = profile_with_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("x", |e| e.op(OpClass::IntArith, 123));
            });
        });
        let events = profile.events.as_ref().expect("events");
        let graph = DependencyGraph::from_event_file(events);
        assert_eq!(graph.serial_ops(), events.total_ops());
    }
}
