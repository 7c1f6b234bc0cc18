//! Node merging and the breakeven trim (paper §II-C1, Figure 2, Eq. 1)
//! over a dense calltree forest, shared by the profile CDFG and the event
//! CDFG. Every walk is a loop, so a million-deep call chain needs no stack.

/// Which way a data edge crosses a merged box.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// Into the box: it holds the consumer but not the producer.
    In,
    /// Out of the box: it holds the producer but not the consumer.
    Out,
}

/// A calltree forest over node indices `0..n`.
#[derive(Debug, Clone)]
pub(crate) struct Forest {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    depth: Vec<usize>,
    /// Every node, parents before children: depth-first from each root,
    /// roots in index order.
    order: Vec<usize>,
}

impl Forest {
    /// Builds the forest from each node's children, in call order. A node
    /// may appear in at most one child list, and the links are acyclic.
    pub(crate) fn new(children: Vec<Vec<usize>>) -> Self {
        let n = children.len();
        let mut parent = vec![None; n];
        for (node, kids) in children.iter().enumerate() {
            for &kid in kids {
                parent[kid] = Some(node);
            }
        }
        let mut depth = vec![0; n];
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<usize> = (0..n).rev().filter(|&v| parent[v].is_none()).collect();
        while let Some(node) = stack.pop() {
            order.push(node);
            for &kid in children[node].iter().rev() {
                depth[kid] = depth[node] + 1;
                stack.push(kid);
            }
        }
        debug_assert_eq!(order.len(), n, "child lists form a forest");
        Forest {
            parent,
            children,
            depth,
            order,
        }
    }

    /// Adds every node's value into its parent's, children first, so that
    /// each node ends up holding the total over its whole sub-tree.
    pub(crate) fn sum_subtrees<T: Copy>(&self, values: &mut [T], add: impl Fn(&mut T, T)) {
        for &node in self.order.iter().rev() {
            if let Some(parent) = self.parent[node] {
                let below = values[node];
                add(&mut values[parent], below);
            }
        }
    }

    /// Calls `visit` on every box the data edge `producer → consumer`
    /// crosses: the consumer and its ancestors strictly below the lowest
    /// common ancestor with [`Flow::In`], the producer and its ancestors
    /// with [`Flow::Out`].
    pub(crate) fn crossings(
        &self,
        producer: usize,
        consumer: usize,
        mut visit: impl FnMut(usize, Flow),
    ) {
        let (mut out, mut into) = (Some(producer), Some(consumer));
        while let (Some(p), Some(c)) = (out, into) {
            if p == c {
                break;
            }
            // Climb the deeper side, or both at equal depth.
            if self.depth[c] >= self.depth[p] {
                visit(c, Flow::In);
                into = self.parent[c];
            }
            if self.depth[p] >= self.depth[c] {
                visit(p, Flow::Out);
                out = self.parent[p];
            }
        }
    }

    /// Trims the sub-trees below `top` into accelerator candidates.
    ///
    /// `breakeven[v]` is the breakeven speedup of `v` merged with its
    /// whole sub-tree, `f64::INFINITY` when `v` can never be a candidate.
    /// A node is merged into one candidate when its breakeven is at least
    /// as good as the best candidate below it; otherwise the trim descends
    /// into its children. Merging absorbs internal communication, so this
    /// maximizes coverage while minimizing crossing traffic. Returns the
    /// merged nodes in depth-first order.
    pub(crate) fn trim(&self, top: usize, breakeven: &[f64]) -> Vec<usize> {
        // Children first: `best[v]` gathers the best breakeven selectable
        // below `v`, then becomes the best selectable in `v`'s sub-tree.
        let mut best = vec![f64::INFINITY; self.order.len()];
        let mut merged = vec![false; self.order.len()];
        for &node in self.order.iter().rev() {
            let own = breakeven[node];
            if own.is_finite() && own <= best[node] {
                merged[node] = true;
                best[node] = own;
            }
            if let Some(parent) = self.parent[node] {
                best[parent] = best[parent].min(best[node]);
            }
        }
        let mut selected = Vec::new();
        let mut stack: Vec<usize> = self.children[top].iter().rev().copied().collect();
        while let Some(node) = stack.pop() {
            if merged[node] {
                selected.push(node);
            } else {
                stack.extend(self.children[node].iter().rev());
            }
        }
        selected
    }
}
