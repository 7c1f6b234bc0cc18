//! Calltree trimming for HW/SW partitioning (paper §II-C1, §IV-A).
//!
//! "Given a control data flow graph, we must trim the calltree by merging
//! nodes such that the leaf nodes of the resulting tree are accelerator
//! candidates. … The goal of the heuristic is to minimize the
//! breakeven-speedup of all the leaf nodes of a trimmed call tree …
//! optimized for maximum application coverage with useful functions and
//! for minimal communication."

use std::cmp::Ordering;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_core::Profile;

use crate::breakeven::{breakeven_for, BusModel};
use crate::cdfg::Cdfg;
use crate::inclusive::{inclusive_table, InclusiveCosts};

/// Tuning knobs for the trimming heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// SoC bus model for offload costs.
    pub bus: BusModel,
    /// Sub-trees estimated below this many cycles are never candidates
    /// (noise floor).
    pub min_cycles: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            bus: BusModel::soc_default(),
            min_cycles: 1,
        }
    }
}

/// One accelerator candidate: a leaf of the trimmed calltree, i.e. a
/// function merged with its entire sub-tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The merged context.
    pub ctx: ContextId,
    /// Function name of the merged node.
    pub name: String,
    /// Breakeven speedup (Eq. 1) for offloading this sub-tree.
    pub breakeven: f64,
    /// Estimated software cycles of the merged sub-tree (`t_sw`).
    pub inclusive_cycles: u64,
    /// Fraction of whole-program estimated cycles this candidate covers.
    pub coverage: f64,
    /// Unique bytes entering the merged box.
    pub comm_in_unique: u64,
    /// Unique bytes leaving the merged box.
    pub comm_out_unique: u64,
}

/// The result of trimming: the selected leaves and their total coverage
/// (the quantity plotted in the paper's Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrimmedTree {
    /// Selected candidates, sorted by breakeven ascending (best first).
    pub leaves: Vec<Candidate>,
    /// Whole-program estimated cycles.
    pub total_cycles: u64,
    /// Fraction of execution time covered by the leaves.
    pub coverage: f64,
}

/// The CDFG and its inclusive-cost table, built once and shared by
/// [`trim_calltree_prepared`] and [`rank_functions_prepared`] — callers
/// that run both analyses (e.g. `sigil partition`) avoid rebuilding the
/// graph and re-walking every edge's ancestor chains.
#[derive(Debug, Clone)]
pub struct PreparedCdfg {
    /// The control data-flow graph.
    pub cdfg: Cdfg,
    /// Inclusive costs per context, indexed by raw context id.
    pub inclusive: Vec<InclusiveCosts>,
}

impl PreparedCdfg {
    /// Builds the CDFG and inclusive table from a finished profile.
    pub fn from_profile(profile: &Profile) -> Self {
        let cdfg = Cdfg::from_profile(profile);
        let inclusive = inclusive_table(&cdfg);
        PreparedCdfg { cdfg, inclusive }
    }

    /// The candidate row of every context, indexed by raw context id.
    ///
    /// A context is never a candidate when it is the root or the program
    /// entry (the paper's candidates are functions *inside* the
    /// application, never `main`), an opaque system call, a sub-tree
    /// under the noise floor, or a box whose communication costs at least
    /// its software time (infinite breakeven).
    fn candidates(&self, profile: &Profile, config: &PartitionConfig) -> Vec<Option<Candidate>> {
        let model = profile.callgrind.cycle_model;
        let total_cycles = profile.callgrind.total_cycles().max(1);
        self.cdfg
            .nodes()
            .iter()
            .zip(&self.inclusive)
            .map(|(node, inc)| {
                if node.func.is_none() || node.is_syscall || node.parent == Some(ContextId::ROOT) {
                    return None;
                }
                let cycles = model.estimate(&inc.costs);
                let breakeven = breakeven_for(inc, cycles, &config.bus);
                (cycles >= config.min_cycles && breakeven.is_finite()).then(|| Candidate {
                    ctx: node.ctx,
                    name: node.name.clone(),
                    breakeven,
                    inclusive_cycles: cycles,
                    coverage: cycles as f64 / total_cycles as f64,
                    comm_in_unique: inc.comm_in_unique,
                    comm_out_unique: inc.comm_out_unique,
                })
            })
            .collect()
    }
}

/// Best breakeven first; among equals, the larger sub-tree first.
fn by_breakeven(a: &Candidate, b: &Candidate) -> Ordering {
    a.breakeven
        .partial_cmp(&b.breakeven)
        .expect("breakevens are never NaN")
        .then_with(|| b.inclusive_cycles.cmp(&a.inclusive_cycles))
}

/// Trims the calltree of `profile` into accelerator candidates.
///
/// # Example
///
/// ```
/// use sigil_analysis::partition::{trim_calltree, PartitionConfig};
/// use sigil_core::{SigilConfig, SigilProfiler};
/// use sigil_trace::{Engine, OpClass};
///
/// let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
/// engine.scoped_named("main", |e| {
///     e.scoped_named("kernel", |e| e.op(OpClass::FloatArith, 50_000));
/// });
/// let (p, s) = engine.finish_with_symbols();
/// let profile = p.into_profile(s);
///
/// let trimmed = trim_calltree(&profile, &PartitionConfig::default());
/// assert_eq!(trimmed.leaves[0].name, "kernel");
/// assert!(trimmed.leaves[0].breakeven < 1.01, "pure compute ≈ breakeven 1");
/// ```
pub fn trim_calltree(profile: &Profile, config: &PartitionConfig) -> TrimmedTree {
    trim_calltree_prepared(&PreparedCdfg::from_profile(profile), profile, config)
}

/// Like [`trim_calltree`], reusing an already-built [`PreparedCdfg`].
pub fn trim_calltree_prepared(
    prepared: &PreparedCdfg,
    profile: &Profile,
    config: &PartitionConfig,
) -> TrimmedTree {
    let _span = sigil_obs::span("analysis:trim_calltree");
    let mut rows = prepared.candidates(profile, config);
    let breakevens: Vec<f64> = rows
        .iter()
        .map(|row| row.as_ref().map_or(f64::INFINITY, |c| c.breakeven))
        .collect();
    let mut leaves: Vec<Candidate> = prepared
        .cdfg
        .forest()
        .trim(ContextId::ROOT.index(), &breakevens)
        .into_iter()
        .filter_map(|node| rows[node].take())
        .collect();
    leaves.sort_by(by_breakeven);
    let coverage = leaves.iter().map(|l| l.coverage).sum();
    TrimmedTree {
        leaves,
        total_cycles: profile.callgrind.total_cycles().max(1),
        coverage,
    }
}

/// Ranks every profiled function (best context per function) by breakeven
/// speedup, ascending. The head of the list is the paper's Table II, the
/// tail its Table III.
pub fn rank_functions(profile: &Profile, config: &PartitionConfig) -> Vec<Candidate> {
    rank_functions_prepared(&PreparedCdfg::from_profile(profile), profile, config)
}

/// Like [`rank_functions`], reusing an already-built [`PreparedCdfg`].
pub fn rank_functions_prepared(
    prepared: &PreparedCdfg,
    profile: &Profile,
    config: &PartitionConfig,
) -> Vec<Candidate> {
    let _span = sigil_obs::span("analysis:rank_functions");
    let mut best: HashMap<String, Candidate> = HashMap::new();
    for row in prepared.candidates(profile, config).into_iter().flatten() {
        let kept = best.entry(row.name.clone()).or_insert_with(|| row.clone());
        if row.breakeven < kept.breakeven {
            *kept = row;
        }
    }
    let mut rows: Vec<Candidate> = best.into_values().collect();
    // Ties on breakeven and cycles come out in name order, not hash order.
    rows.sort_by(|a, b| by_breakeven(a, b).then_with(|| a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    /// main calls a compute-heavy kernel (little communication) and a
    /// chatty helper (communication-dominated).
    fn profile() -> Profile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            // Data prepared by main.
            e.write(0x0, 64);
            e.scoped_named("kernel", |e| {
                e.read(0x0, 64);
                e.op(OpClass::FloatArith, 100_000);
                e.write(0x1000, 64);
            });
            e.scoped_named("chatty", |e| {
                for i in 0..64u64 {
                    e.read(0x2000 + i * 8, 8);
                }
                e.op(OpClass::IntArith, 4);
                for i in 0..64u64 {
                    e.write(0x3000 + i * 8, 8);
                }
            });
            e.read(0x1000, 64);
            e.read(0x3000, 8);
        });
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s)
    }

    #[test]
    fn kernel_ranks_better_than_chatty() {
        let rows = rank_functions(&profile(), &PartitionConfig::default());
        let pos = |name: &str| rows.iter().position(|r| r.name == name).expect(name);
        assert!(pos("kernel") < pos("chatty"));
        let kernel = &rows[pos("kernel")];
        assert!(
            kernel.breakeven < 1.1,
            "compute-heavy ≈ 1.0, got {}",
            kernel.breakeven
        );
        let chatty = &rows[pos("chatty")];
        assert!(chatty.breakeven > kernel.breakeven);
    }

    #[test]
    fn trimmed_leaves_are_disjoint_subtrees() {
        let trimmed = trim_calltree(&profile(), &PartitionConfig::default());
        let cdfg = Cdfg::from_profile(&profile());
        for (i, a) in trimmed.leaves.iter().enumerate() {
            for b in trimmed.leaves.iter().skip(i + 1) {
                assert!(
                    !cdfg.is_in_subtree(a.ctx, b.ctx) && !cdfg.is_in_subtree(b.ctx, a.ctx),
                    "{} and {} overlap",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn coverage_is_a_fraction() {
        let trimmed = trim_calltree(&profile(), &PartitionConfig::default());
        assert!(trimmed.coverage > 0.0 && trimmed.coverage <= 1.0 + 1e-9);
        for leaf in &trimmed.leaves {
            assert!(leaf.coverage >= 0.0 && leaf.coverage <= 1.0);
        }
    }

    #[test]
    fn leaves_sorted_by_breakeven() {
        let trimmed = trim_calltree(&profile(), &PartitionConfig::default());
        for pair in trimmed.leaves.windows(2) {
            assert!(pair[0].breakeven <= pair[1].breakeven);
        }
    }

    #[test]
    fn entry_function_is_never_a_candidate() {
        // Even when merging at `main` would absorb all communication
        // (breakeven exactly 1), the top-level driver is not offloadable:
        // the leaves must be its children.
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("a", |e| {
                e.write(0x0, 32);
                e.op(OpClass::IntArith, 10_000);
            });
            e.scoped_named("b", |e| {
                e.read(0x0, 32);
                e.op(OpClass::IntArith, 10_000);
            });
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        let trimmed = trim_calltree(&profile, &PartitionConfig::default());
        let names: Vec<&str> = trimmed.leaves.iter().map(|l| l.name.as_str()).collect();
        assert!(!names.contains(&"main"));
        assert!(names.contains(&"a") && names.contains(&"b"));
        assert!(trimmed.coverage < 1.0, "main's self cost stays uncovered");
    }

    #[test]
    fn syscalls_are_never_candidates() {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("worker", |e| {
                e.syscall("sys_read", |e| e.write(0x0, 64));
                e.read(0x0, 64);
                e.op(OpClass::IntArith, 10_000);
            });
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        let trimmed = trim_calltree(&profile, &PartitionConfig::default());
        assert!(trimmed.leaves.iter().all(|l| l.name != "sys_read"));
        let ranked = rank_functions(&profile, &PartitionConfig::default());
        assert!(ranked.iter().all(|r| r.name != "sys_read"));
        assert!(ranked.iter().all(|r| r.name != "main"));
        assert!(ranked.iter().any(|r| r.name == "worker"));
    }

    #[test]
    fn rank_functions_dedupes_contexts() {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("p", |e| {
                e.scoped_named("d", |e| e.op(OpClass::IntArith, 100));
            });
            e.scoped_named("q", |e| {
                e.scoped_named("d", |e| e.op(OpClass::IntArith, 100));
            });
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        let rows = rank_functions(&profile, &PartitionConfig::default());
        assert_eq!(rows.iter().filter(|r| r.name == "d").count(), 1);
    }

    #[test]
    fn rank_ties_come_out_in_name_order() {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            for name in ["k7", "k3", "k5", "k0", "k6", "k1", "k4", "k2"] {
                e.scoped_named(name, |e| e.op(OpClass::IntArith, 1_000));
            }
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        for _ in 0..50 {
            let rows = rank_functions(&profile, &PartitionConfig::default());
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"]);
        }
    }
}
