//! A deliberately naive reference for the critical-path recurrence
//! (paper §II-C2, Figure 3).
//!
//! Production evaluates the recurrence once, in
//! [`CriticalPathFold`], which keeps per dynamic call only the latest
//! fragment's finish time and the latest-arriving pending transfer.
//! [`OracleGraph`] builds the whole Figure 3 graph instead: every
//! fragment keeps the full list of its incoming ordering and data edges,
//! each with its weight, and a separate pass over the fragments in
//! creation order finds the longest path ending at each one. Nothing is
//! decided while records arrive.
//!
//! [`check_critical_path`] runs one record sequence through both and
//! names the first fragment, or summary number, where they disagree.

use std::collections::HashMap;

use sigil_analysis::critical_path::{CommModel, DependencyGraph};
use sigil_analysis::streaming::CriticalPathFold;
use sigil_callgrind::ContextId;
use sigil_core::EventRecord;
use sigil_trace::CallNumber;

/// One incoming edge of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OracleEdge {
    /// The predecessor fragment.
    from: usize,
    /// Ops between the predecessor's finish and this fragment's start:
    /// 0 on an ordering edge, the transfer latency on a data edge.
    weight: u64,
}

/// One fragment node with all of its incoming edges.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OracleFragment {
    /// The dynamic call the fragment belongs to.
    call: CallNumber,
    /// The context its record names.
    ctx: ContextId,
    /// Retired ops of the fragment (0 for the fragment a call opens).
    self_ops: u64,
    /// The ordering edge: from the call's previous fragment, or from the
    /// caller's latest fragment for the fragment a call opens.
    order: Option<OracleEdge>,
    /// One data edge per transfer consumed, in arrival order: from the
    /// producer call's latest fragment when the transfer was recorded.
    data: Vec<OracleEdge>,
}

/// The Figure 3 dependency graph, kept whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleGraph {
    /// The fragments in creation order; every edge points backwards.
    fragments: Vec<OracleFragment>,
}

impl OracleGraph {
    /// Builds the graph from a record sequence, charging data edges
    /// under `comm`.
    ///
    /// Every Call or Compute record opens a fragment. A transfer is an
    /// edge into the consumer's next Compute fragment, and it is dropped
    /// when its producer call has no fragment yet.
    pub fn build(records: &[EventRecord], comm: &CommModel) -> Self {
        let mut fragments: Vec<OracleFragment> = Vec::new();
        // Every fragment of each call, in creation order.
        let mut of_call: HashMap<CallNumber, Vec<usize>> = HashMap::new();
        // Every transfer still waiting for its consumer to compute.
        let mut pending: HashMap<CallNumber, Vec<OracleEdge>> = HashMap::new();
        for record in records {
            let fragment = match *record {
                EventRecord::Call {
                    parent_call,
                    call,
                    ctx,
                } => OracleFragment {
                    call,
                    ctx,
                    self_ops: 0,
                    order: last_fragment(&of_call, parent_call)
                        .map(|from| OracleEdge { from, weight: 0 }),
                    data: Vec::new(),
                },
                EventRecord::Compute { call, ctx, ops } => OracleFragment {
                    call,
                    ctx,
                    self_ops: ops,
                    order: last_fragment(&of_call, call).map(|from| OracleEdge { from, weight: 0 }),
                    data: pending.remove(&call).unwrap_or_default(),
                },
                EventRecord::Transfer {
                    from_call,
                    to_call,
                    bytes,
                } => {
                    if let Some(from) = last_fragment(&of_call, from_call) {
                        pending.entry(to_call).or_default().push(OracleEdge {
                            from,
                            weight: comm.latency(bytes),
                        });
                    }
                    continue;
                }
            };
            of_call
                .entry(fragment.call)
                .or_default()
                .push(fragments.len());
            fragments.push(fragment);
        }
        OracleGraph { fragments }
    }

    /// The longest-path finish time of every fragment: one pass in
    /// creation order, taking the latest arrival over all incoming edges
    /// and adding the fragment's own ops.
    pub fn finish_times(&self) -> Vec<u64> {
        let mut finish: Vec<u64> = Vec::with_capacity(self.fragments.len());
        for fragment in &self.fragments {
            let start = fragment
                .order
                .iter()
                .chain(&fragment.data)
                .map(|edge| finish[edge.from].saturating_add(edge.weight))
                .max()
                .unwrap_or(0);
            finish.push(start.saturating_add(fragment.self_ops));
        }
        finish
    }

    /// The critical-path length: the latest finish time of any fragment.
    pub fn length_ops(&self) -> u64 {
        self.finish_times().into_iter().max().unwrap_or(0)
    }

    /// Total retired ops of every fragment (saturating at `u64::MAX`).
    pub fn serial_ops(&self) -> u64 {
        self.fragments
            .iter()
            .fold(0, |sum, f| sum.saturating_add(f.self_ops))
    }
}

fn last_fragment(of_call: &HashMap<CallNumber, Vec<usize>>, call: CallNumber) -> Option<usize> {
    of_call.get(&call).and_then(|list| list.last().copied())
}

/// Checks production's critical path against [`OracleGraph`] on one
/// record sequence: every node of [`DependencyGraph::from_records`]
/// (call, context, ops, finish time, ordering predecessor, the producer
/// of its latest-arriving transfer, the first on a tie, and a path
/// predecessor on a longest chain), the graph's `serial_ops` and
/// `length_ops`, and the summary of a [`CriticalPathFold`] fed the same
/// records.
///
/// # Errors
///
/// Names the first disagreement.
pub fn check_critical_path(records: &[EventRecord], comm: &CommModel) -> Result<(), String> {
    let oracle = OracleGraph::build(records, comm);
    let finish = oracle.finish_times();
    let graph = DependencyGraph::from_records(records.iter().copied(), comm);
    if graph.nodes().len() != oracle.fragments.len() {
        return Err(format!(
            "{} fragments, the reference has {}",
            graph.nodes().len(),
            oracle.fragments.len()
        ));
    }
    let arrival = |edge: &OracleEdge| finish[edge.from].saturating_add(edge.weight);
    for (i, (node, want)) in graph.nodes().iter().zip(&oracle.fragments).enumerate() {
        let latest_data = want
            .data
            .iter()
            .map(|edge| (arrival(edge), edge.from))
            .reduce(|first, next| if next.0 > first.0 { next } else { first })
            .map(|(_, from)| from);
        let got = (
            node.call,
            node.ctx,
            node.self_ops,
            node.finish,
            node.order_pred,
            node.data_pred,
        );
        let expected = (
            want.call,
            want.ctx,
            want.self_ops,
            finish[i],
            want.order.map(|edge| edge.from),
            latest_data,
        );
        if got != expected {
            return Err(format!(
                "fragment {i}: (call, ctx, ops, finish, order, data) = {got:?}, \
                 the reference has {expected:?}"
            ));
        }
        // The path follows `pred`: it must be an incoming edge the
        // fragment's finish time is reached through (none: start at 0).
        let on_a_longest_chain = match node.pred {
            None => want.self_ops == finish[i],
            Some(p) => want.order.iter().chain(&want.data).any(|edge| {
                edge.from == p && arrival(edge).saturating_add(want.self_ops) == finish[i]
            }),
        };
        if !on_a_longest_chain {
            return Err(format!(
                "fragment {i}: predecessor {:?} is on no longest chain to it",
                node.pred
            ));
        }
    }
    let serial_ops = oracle.serial_ops();
    let length_ops = oracle.length_ops();
    let mut fold = CriticalPathFold::with_comm(*comm);
    fold.extend(records);
    match (graph.critical_path(), fold.finish()) {
        (Ok(path), Ok(summary)) => {
            let numbers = [
                ("graph serial_ops", path.serial_ops, serial_ops),
                ("graph length_ops", path.length_ops, length_ops),
                ("fold serial_ops", summary.serial_ops, serial_ops),
                ("fold length_ops", summary.length_ops, length_ops),
            ];
            for (what, got, want) in numbers {
                if got != want {
                    return Err(format!("{what} {got}, the reference has {want}"));
                }
            }
            Ok(())
        }
        (Err(_), Err(_)) if serial_ops == 0 => Ok(()),
        (path, summary) => Err(format!(
            "graph {:?} and fold {summary:?} on a reference serial length of {serial_ops}",
            path.map(|p| (p.serial_ops, p.length_ops))
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    fn compute(c: u64, ops: u64) -> EventRecord {
        EventRecord::Compute {
            call: call(c),
            ctx: ContextId(c as u32),
            ops,
        }
    }

    fn spawn(parent: u64, c: u64) -> EventRecord {
        EventRecord::Call {
            parent_call: call(parent),
            call: call(c),
            ctx: ContextId(c as u32),
        }
    }

    fn transfer(from: u64, to: u64, bytes: u64) -> EventRecord {
        EventRecord::Transfer {
            from_call: call(from),
            to_call: call(to),
            bytes,
        }
    }

    /// The paper's Figure 3 shape: main spawns a producer and a
    /// consumer; the consumer's second fragment waits for the producer.
    fn producer_consumer() -> Vec<EventRecord> {
        vec![
            spawn(0, 1),
            compute(1, 10),
            spawn(1, 2),
            compute(2, 50),
            spawn(1, 3),
            compute(3, 5),
            transfer(2, 3, 16),
            compute(3, 7),
            compute(1, 3),
        ]
    }

    #[test]
    fn reference_finds_the_figure3_longest_path() {
        let graph = OracleGraph::build(&producer_consumer(), &CommModel::free());
        // main 0..10; producer 10..60; consumer 10..15, then waits for
        // the producer: 60..67; main's tail 10..13.
        assert_eq!(graph.finish_times(), vec![0, 10, 10, 60, 10, 15, 67, 13]);
        assert_eq!(graph.serial_ops(), 75);
        assert_eq!(
            graph.fragments[6].data,
            vec![OracleEdge { from: 3, weight: 0 }]
        );
    }

    #[test]
    fn data_edges_carry_the_transfer_latency() {
        let bus = CommModel {
            fixed_ops: 100,
            bytes_per_op: 8.0,
        };
        let graph = OracleGraph::build(&producer_consumer(), &bus);
        assert_eq!(graph.finish_times()[6], 60 + 102 + 7);
    }

    #[test]
    fn production_matches_the_reference() {
        for comm in [
            CommModel::free(),
            CommModel {
                fixed_ops: 3,
                bytes_per_op: 2.0,
            },
        ] {
            check_critical_path(&producer_consumer(), &comm).expect("agrees");
        }
        check_critical_path(&[], &CommModel::free()).expect("empty agrees");
    }

    #[test]
    fn orphan_transfers_and_undeclared_calls_are_dropped_or_rooted() {
        // A transfer from a call with no fragment is no edge; a compute
        // of an undeclared call starts at 0.
        let records = [transfer(9, 4, 8), compute(4, 5), compute(7, 2)];
        let graph = OracleGraph::build(&records, &CommModel::free());
        assert!(graph.fragments.iter().all(|f| f.data.is_empty()));
        assert_eq!(graph.finish_times(), vec![5, 2]);
        check_critical_path(&records, &CommModel::free()).expect("agrees");
    }
}
