//! Inclusive (merged-subtree) costs and crossing communication
//! (paper Figure 2).
//!
//! "An accelerator designed for a function node in the call tree should
//! include all of the functions in the sub-tree to absorb the cost of
//! communication. … Any dashed edges within the box are then discarded
//! and edges flowing in/out of the box are accumulated into the
//! communication cost of the parent node."

use serde::{Deserialize, Serialize};
use sigil_callgrind::CostVec;

use crate::cdfg::Cdfg;
use crate::merge::Flow;

/// Costs of a node merged with its entire sub-tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusiveCosts {
    /// Sum of exclusive cost vectors over the sub-tree (computation).
    pub costs: CostVec,
    /// Unique bytes flowing *into* the merged box (t_comm:ip input).
    pub comm_in_unique: u64,
    /// Unique bytes flowing *out of* the merged box (t_comm:op input).
    pub comm_out_unique: u64,
    /// Non-unique bytes flowing into the box (not charged to an
    /// accelerator with an internal buffer, reported for completeness).
    pub comm_in_nonunique: u64,
    /// Non-unique bytes flowing out of the box.
    pub comm_out_nonunique: u64,
}

impl InclusiveCosts {
    /// Unique bytes crossing the box boundary in either direction.
    pub fn boundary_unique_bytes(&self) -> u64 {
        self.comm_in_unique + self.comm_out_unique
    }
}

/// Computes [`InclusiveCosts`] for **every** context of the CDFG in one
/// pass, indexed by raw context id.
///
/// For each data edge `p → c`, the edge crosses into exactly the
/// subtrees that contain `c` but not `p`: the ancestors of `c` strictly
/// below the lowest common ancestor of `p` and `c` (and symmetrically out
/// of the ancestors of `p`).
pub fn inclusive_table(cdfg: &Cdfg) -> Vec<InclusiveCosts> {
    let forest = cdfg.forest();
    let mut table: Vec<InclusiveCosts> = cdfg
        .nodes()
        .iter()
        .map(|node| InclusiveCosts {
            costs: node.costs,
            ..InclusiveCosts::default()
        })
        .collect();
    forest.sum_subtrees(&mut table, |up, below| up.costs += below.costs);
    for edge in cdfg.data_edges() {
        let (producer, consumer) = (edge.producer.index(), edge.consumer.index());
        forest.crossings(producer, consumer, |node, flow| {
            let row = &mut table[node];
            let (unique, nonunique) = match flow {
                Flow::In => (&mut row.comm_in_unique, &mut row.comm_in_nonunique),
                Flow::Out => (&mut row.comm_out_unique, &mut row.comm_out_nonunique),
            };
            *unique += edge.unique_bytes;
            *nonunique += edge.nonunique_bytes;
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_callgrind::ContextId;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    /// The paper's toy shape: main → {A → {C, D1}, B → D2}; C produces
    /// data that D2 (under B) consumes, plus A-local traffic.
    fn toy() -> (Cdfg, Vec<InclusiveCosts>) {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("A", |e| {
                e.op(OpClass::IntArith, 10);
                e.scoped_named("C", |e| {
                    e.op(OpClass::IntArith, 20);
                    e.write(0x0, 16); // consumed by D under B (crosses A's box)
                    e.write(0x100, 8); // consumed by D under A (inside A's box)
                });
                e.scoped_named("D", |e| {
                    e.read(0x100, 8);
                    e.op(OpClass::IntArith, 5);
                });
            });
            e.scoped_named("B", |e| {
                e.scoped_named("D", |e| {
                    e.read(0x0, 16);
                    e.op(OpClass::IntArith, 5);
                });
            });
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        let cdfg = Cdfg::from_profile(&profile);
        let table = inclusive_table(&cdfg);
        (cdfg, table)
    }

    fn ctx_of(cdfg: &Cdfg, name: &str) -> ContextId {
        cdfg.nodes()
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
            .ctx
    }

    #[test]
    fn merging_discards_internal_edges() {
        let (cdfg, table) = toy();
        let a = ctx_of(&cdfg, "A");
        let inc = table[a.index()];
        // The C→D1 8-byte edge is inside A's box: discarded.
        // The C→D2 16-byte edge crosses out of A's box.
        assert_eq!(inc.comm_out_unique, 16);
        assert_eq!(inc.comm_in_unique, 0);
    }

    #[test]
    fn inclusive_costs_sum_subtree_ops() {
        let (cdfg, table) = toy();
        let a = ctx_of(&cdfg, "A");
        // A self 10 + C 20 + D1 5 = 35 compute ops.
        assert_eq!(table[a.index()].costs.ops_total(), 35);
    }

    #[test]
    fn leaf_inclusive_equals_exclusive() {
        let (cdfg, table) = toy();
        let c = ctx_of(&cdfg, "C");
        assert_eq!(table[c.index()].costs, cdfg.node(c).costs);
        // C produces both buffers; all 24 bytes leave C's own box.
        assert_eq!(table[c.index()].comm_out_unique, 24);
    }

    #[test]
    fn consumer_box_counts_inflow() {
        let (cdfg, table) = toy();
        let b = ctx_of(&cdfg, "B");
        assert_eq!(table[b.index()].comm_in_unique, 16);
        assert_eq!(table[b.index()].comm_out_unique, 0);
        assert_eq!(table[b.index()].boundary_unique_bytes(), 16);
    }

    #[test]
    fn root_box_has_no_crossing_traffic() {
        let (_cdfg, table) = toy();
        // Everything is inside the root box except synthetic root input
        // (none here: all reads had producers).
        let root = &table[ContextId::ROOT.index()];
        assert_eq!(root.comm_in_unique, 0);
        assert_eq!(root.comm_out_unique, 0);
    }
}
