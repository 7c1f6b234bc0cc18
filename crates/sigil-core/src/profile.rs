//! The finished Sigil profile and its query API.

use serde::{Deserialize, Serialize};
use sigil_callgrind::{CallgrindProfile, ContextId, CostVec};
use sigil_mem::MemoryStats;
use sigil_trace::{FunctionId, SymbolTable};

use crate::events_out::EventFile;
use crate::phase::PhaseProfile;
use crate::profiler::LineReport;
use crate::reuse::ContextReuse;
use crate::stats::{CommEdge, CommStats};

/// Communication totals for one function context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextComm {
    /// The context.
    pub ctx: ContextId,
    /// Its communication totals.
    pub comm: CommStats,
}

/// Per-function totals (summed over the function's contexts).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionComm {
    /// The function.
    pub func: FunctionId,
    /// Its symbol name.
    pub name: String,
    /// Dynamic calls.
    pub calls: u64,
    /// Communication totals.
    pub comm: CommStats,
    /// Callgrind-style exclusive costs.
    pub costs: CostVec,
    /// Estimated cycles for the exclusive costs.
    pub cycles: u64,
}

/// Everything Sigil measured in one run.
///
/// Combines the embedded Callgrind profile (calltree, costs, cycle model)
/// with Sigil's communication classification, and optionally reuse
/// aggregates, a line-granularity report, and the event file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// The embedded Callgrind-like profile.
    pub callgrind: CallgrindProfile,
    /// Per-context communication, indexed by raw context id.
    pub contexts: Vec<ContextComm>,
    /// Data-dependency edges between contexts (the CDFG's dashed edges).
    pub edges: Vec<CommEdge>,
    /// Per-context reuse aggregates (present in reuse mode).
    pub reuse: Option<Vec<ContextReuse>>,
    /// Line-granularity report (present in line mode).
    pub lines: Option<LineReport>,
    /// The event file (present when event recording was enabled).
    pub events: Option<EventFile>,
    /// Phase-sliced communication profile (present when phase
    /// collection was enabled).
    pub phases: Option<PhaseProfile>,
    /// Shadow-memory footprint at end of run.
    pub memory: MemoryStats,
}

impl Profile {
    /// The symbol table naming all functions.
    pub fn symbols(&self) -> &SymbolTable {
        &self.callgrind.symbols
    }

    /// Communication totals for one context (zeros if it never
    /// communicated).
    pub fn context_comm(&self, ctx: ContextId) -> CommStats {
        self.contexts
            .get(ctx.index())
            .map_or_else(CommStats::default, |c| c.comm)
    }

    /// Per-function totals, sorted by estimated cycles descending.
    pub fn function_rows(&self) -> Vec<FunctionComm> {
        use std::collections::HashMap;
        let mut rows: HashMap<FunctionId, FunctionComm> = HashMap::new();
        for (ctx, node) in self.callgrind.tree.iter() {
            let Some(func) = node.func else { continue };
            let row = rows.entry(func).or_insert_with(|| FunctionComm {
                func,
                name: self
                    .symbols()
                    .get_name(func)
                    .map_or_else(|| func.to_string(), str::to_owned),
                calls: 0,
                comm: CommStats::default(),
                costs: CostVec::new(),
                cycles: 0,
            });
            row.calls += node.calls;
            row.costs += node.costs;
            row.comm.merge(&self.context_comm(ctx));
        }
        let mut rows: Vec<FunctionComm> = rows
            .into_values()
            .map(|mut row| {
                row.cycles = self.callgrind.cycle_model.estimate(&row.costs);
                row
            })
            .collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Totals for the function named `name`, if it was ever called.
    pub fn function_by_name(&self, name: &str) -> Option<FunctionComm> {
        let func = self.symbols().lookup(name)?;
        self.function_rows().into_iter().find(|r| r.func == func)
    }

    /// Reuse aggregates summed over all contexts of the function named
    /// `name` (reuse mode only).
    pub fn context_reuse_by_name(&self, name: &str) -> Option<ContextReuse> {
        let reuse = self.reuse.as_ref()?;
        let func = self.symbols().lookup(name)?;
        let mut merged: Option<ContextReuse> = None;
        for (ctx, node) in self.callgrind.tree.iter() {
            if node.func != Some(func) {
                continue;
            }
            let Some(row) = reuse.get(ctx.index()) else {
                continue;
            };
            match merged.as_mut() {
                None => {
                    merged = Some(row.clone());
                }
                Some(m) => {
                    // Rows of different contexts: keep the first row's
                    // label, fold the counters via the shard-merge
                    // algebra (ContextReuse::merge asserts matching ctx
                    // in debug builds, so realign first).
                    let mut row = row.clone();
                    row.ctx = m.ctx;
                    m.merge(&row);
                }
            }
        }
        merged
    }

    /// Whole-program reuse-count breakdown (Figure 8): returns
    /// `(zero, one_to_nine, more_than_nine)` byte-record counts.
    pub fn reuse_breakdown(&self) -> Option<(u64, u64, u64)> {
        let reuse = self.reuse.as_ref()?;
        let mut totals = (0u64, 0u64, 0u64);
        for row in reuse {
            totals.0 += row.zero_reuse_bytes;
            totals.1 += row.low_reuse_bytes;
            totals.2 += row.high_reuse_bytes;
        }
        Some(totals)
    }

    /// Whole-program unique bytes consumed (input + local across all
    /// contexts).
    pub fn total_unique_bytes(&self) -> u64 {
        self.contexts
            .iter()
            .map(|c| c.comm.unique_bytes_consumed())
            .sum()
    }

    /// Whole-program total bytes read.
    pub fn total_bytes_read(&self) -> u64 {
        self.contexts.iter().map(|c| c.comm.bytes_read).sum()
    }

    /// Checks the profile's internal consistency invariants, returning a
    /// description of the first violation.
    ///
    /// Useful after deserializing a profile from an untrusted file.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let tree_len = self.callgrind.tree.len();
        if self.contexts.len() < tree_len {
            return Err(format!(
                "{} communication rows for {tree_len} calltree contexts",
                self.contexts.len()
            ));
        }
        for (i, row) in self.contexts.iter().enumerate() {
            if row.ctx.index() != i {
                return Err(format!("context row {i} labelled {}", row.ctx));
            }
            let c = row.comm;
            let classified = c.input_unique_bytes
                + c.input_nonunique_bytes
                + c.local_unique_bytes
                + c.local_nonunique_bytes;
            if classified != c.bytes_read {
                return Err(format!(
                    "{}: classified reads {classified} != total reads {}",
                    row.ctx, c.bytes_read
                ));
            }
        }
        for edge in &self.edges {
            if edge.producer.index() >= tree_len || edge.consumer.index() >= tree_len {
                return Err(format!(
                    "edge {} -> {} references a missing context",
                    edge.producer, edge.consumer
                ));
            }
        }
        let edge_unique: u64 = self.edges.iter().map(|e| e.unique_bytes).sum();
        let input_unique: u64 = self
            .contexts
            .iter()
            .map(|c| c.comm.input_unique_bytes)
            .sum();
        if edge_unique != input_unique {
            return Err(format!(
                "edge unique bytes {edge_unique} != context input unique bytes {input_unique}"
            ));
        }
        if let Some(reuse) = &self.reuse {
            if reuse.len() > tree_len {
                return Err(format!(
                    "{} reuse rows for {tree_len} contexts",
                    reuse.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SigilConfig;
    use crate::profiler::SigilProfiler;
    use sigil_trace::Engine;

    fn two_function_profile() -> Profile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("a", |e| e.write(0x10, 4));
            e.scoped_named("b", |e| e.read(0x10, 4));
        });
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s)
    }

    #[test]
    fn function_rows_cover_all_functions() {
        let profile = two_function_profile();
        let names: Vec<String> = profile
            .function_rows()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert!(names.contains(&"main".to_owned()));
        assert!(names.contains(&"a".to_owned()));
        assert!(names.contains(&"b".to_owned()));
    }

    #[test]
    fn unknown_function_lookup_is_none() {
        let profile = two_function_profile();
        assert!(profile.function_by_name("missing").is_none());
        assert!(profile.context_reuse_by_name("a").is_none(), "reuse off");
    }

    #[test]
    fn totals_are_consistent() {
        let profile = two_function_profile();
        assert_eq!(profile.total_bytes_read(), 4);
        assert_eq!(profile.total_unique_bytes(), 4);
        assert!(profile.reuse_breakdown().is_none());
    }

    #[test]
    fn validate_accepts_real_profiles() {
        let profile = two_function_profile();
        profile.validate().expect("fresh profiles are consistent");
    }

    #[test]
    fn validate_catches_tampering() {
        let mut profile = two_function_profile();
        profile.contexts[1].comm.bytes_read += 1;
        assert!(profile.validate().is_err());

        let mut profile = two_function_profile();
        profile.edges[0].unique_bytes += 8;
        let err = profile.validate().unwrap_err();
        assert!(err.contains("unique bytes"));
    }
}
