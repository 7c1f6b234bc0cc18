//! The control data-flow graph (paper Figure 1): a calltree whose nodes
//! are function contexts, with call edges (bold) and data-dependency
//! edges (dashed) weighted by communicated bytes.

use serde::{Deserialize, Serialize};
use sigil_callgrind::{ContextId, CostVec};
use sigil_core::{CommEdge, CommStats, Profile};
use sigil_trace::FunctionId;

use crate::merge::Forest;

/// One CDFG node: a function context with its exclusive costs and
/// communication totals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdfgNode {
    /// The context this node represents.
    pub ctx: ContextId,
    /// The function executing in this context (`None` for the root).
    pub func: Option<FunctionId>,
    /// Resolved name (`<root>` for the root).
    pub name: String,
    /// Parent context.
    pub parent: Option<ContextId>,
    /// Children, in first-call order.
    pub children: Vec<ContextId>,
    /// Dynamic calls into this context.
    pub calls: u64,
    /// Exclusive costs.
    pub costs: CostVec,
    /// Communication totals.
    pub comm: CommStats,
    /// Whether this context is an opaque system call.
    pub is_syscall: bool,
}

/// The control data-flow graph of one profile.
///
/// # Example
///
/// ```
/// use sigil_core::{SigilConfig, SigilProfiler};
/// use sigil_trace::Engine;
/// use sigil_analysis::Cdfg;
///
/// let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
/// engine.scoped_named("main", |e| {
///     e.scoped_named("a", |e| e.write(0x0, 8));
///     e.scoped_named("b", |e| e.read(0x0, 8));
/// });
/// let (p, s) = engine.finish_with_symbols();
/// let cdfg = Cdfg::from_profile(&p.into_profile(s));
/// assert_eq!(cdfg.data_edges().len(), 1);
/// assert_eq!(cdfg.data_edges()[0].unique_bytes, 8);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Cdfg {
    nodes: Vec<CdfgNode>,
    data_edges: Vec<CommEdge>,
    /// The calltree over raw context ids, for merging and trimming.
    #[serde(skip)]
    forest: Forest,
}

impl Cdfg {
    /// Builds the CDFG from a finished profile.
    pub fn from_profile(profile: &Profile) -> Self {
        let _span = sigil_obs::span("analysis:cdfg");
        let symbols = profile.symbols();
        let nodes = profile
            .callgrind
            .tree
            .iter()
            .map(|(ctx, node)| CdfgNode {
                ctx,
                func: node.func,
                name: node.func.map_or_else(
                    || "<root>".to_owned(),
                    |f| {
                        symbols
                            .get_name(f)
                            .map_or_else(|| f.to_string(), str::to_owned)
                    },
                ),
                parent: node.parent,
                children: node.children.clone(),
                calls: node.calls,
                costs: node.costs,
                comm: profile.context_comm(ctx),
                is_syscall: node.is_syscall,
            })
            .collect::<Vec<_>>();
        let forest = Forest::new(
            nodes
                .iter()
                .map(|node| node.children.iter().map(|c| c.index()).collect())
                .collect(),
        );
        Cdfg {
            nodes,
            data_edges: profile.edges.clone(),
            forest,
        }
    }

    /// All nodes, indexed by raw context id (root first).
    pub fn nodes(&self) -> &[CdfgNode] {
        &self.nodes
    }

    /// Borrow one node.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn node(&self, ctx: ContextId) -> &CdfgNode {
        &self.nodes[ctx.index()]
    }

    /// The data-dependency edges.
    pub fn data_edges(&self) -> &[CommEdge] {
        &self.data_edges
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Iterates the contexts of the subtree rooted at `ctx` (inclusive),
    /// in depth-first order.
    pub fn subtree(&self, ctx: ContextId) -> Vec<ContextId> {
        let mut out = Vec::new();
        let mut work = vec![ctx];
        while let Some(c) = work.pop() {
            out.push(c);
            work.extend(self.node(c).children.iter().copied().rev());
        }
        out
    }

    /// Whether `ancestor` is `ctx` itself or one of its calltree
    /// ancestors.
    pub fn is_in_subtree(&self, ctx: ContextId, ancestor: ContextId) -> bool {
        let mut cursor = Some(ctx);
        while let Some(c) = cursor {
            if c == ancestor {
                return true;
            }
            cursor = self.node(c).parent;
        }
        false
    }

    pub(crate) fn forest(&self) -> &Forest {
        &self.forest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    fn sample_cdfg() -> Cdfg {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("a", |e| {
                e.op(OpClass::IntArith, 10);
                e.scoped_named("c", |e| e.write(0x0, 4));
            });
            e.scoped_named("b", |e| e.read(0x0, 4));
        });
        let (p, s) = engine.finish_with_symbols();
        Cdfg::from_profile(&p.into_profile(s))
    }

    #[test]
    fn nodes_mirror_calltree() {
        let cdfg = sample_cdfg();
        // root + main + a + c + b
        assert_eq!(cdfg.len(), 5);
        let names: Vec<&str> = cdfg.nodes().iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"<root>"));
        assert!(names.contains(&"main"));
        assert!(names.contains(&"c"));
    }

    #[test]
    fn subtree_is_depth_first_and_inclusive() {
        let cdfg = sample_cdfg();
        let main = cdfg
            .nodes()
            .iter()
            .find(|n| n.name == "main")
            .expect("main");
        let sub = cdfg.subtree(main.ctx);
        assert_eq!(sub.len(), 4); // main, a, c, b
        assert_eq!(sub[0], main.ctx);
        let names: Vec<&str> = sub.iter().map(|&c| cdfg.node(c).name.as_str()).collect();
        assert_eq!(names, vec!["main", "a", "c", "b"]);
    }

    #[test]
    fn ancestry_checks() {
        let cdfg = sample_cdfg();
        let main = cdfg.nodes().iter().find(|n| n.name == "main").unwrap().ctx;
        let c = cdfg.nodes().iter().find(|n| n.name == "c").unwrap().ctx;
        let b = cdfg.nodes().iter().find(|n| n.name == "b").unwrap().ctx;
        assert!(cdfg.is_in_subtree(c, main));
        assert!(!cdfg.is_in_subtree(b, c));
    }

    #[test]
    fn data_edge_connects_producer_to_consumer() {
        let cdfg = sample_cdfg();
        assert_eq!(cdfg.data_edges().len(), 1);
        let edge = cdfg.data_edges()[0];
        assert_eq!(cdfg.node(edge.producer).name, "c");
        assert_eq!(cdfg.node(edge.consumer).name, "b");
        assert_eq!(edge.unique_bytes, 4);
    }
}
