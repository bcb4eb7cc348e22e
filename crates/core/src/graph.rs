//! A small weighted directed graph with Dijkstra shortest paths.
//!
//! The right-region fitting algorithm (paper Fig. 6) encodes candidate
//! piecewise fits as paths in a segment graph and selects the
//! minimum-estimation-error fit as a shortest path. The graph here is
//! deliberately minimal: dense adjacency lists over `usize` node ids with
//! non-negative `f64` weights.
//!
//! The production right fit no longer goes through this module: since the
//! segment graph is a DAG ordered by front index, `roofline::fit_right_front`
//! solves the same shortest-path problem with a topological dynamic program
//! and on-the-fly edges, in `O(k² log k)` without materializing adjacency
//! lists. `DiGraph` remains only as the engine of the retained reference
//! fit (`roofline::reference`), which the fast path is proptested
//! against, so the module is compiled only for tests and under the
//! `reference-fit` feature.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a node in a [`DiGraph`].
pub type NodeId = usize;

/// A weighted directed graph with non-negative edge weights.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

/// A shortest path returned by [`DiGraph::shortest_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node sequence from source to target, inclusive.
    pub nodes: Vec<NodeId>,
    /// Total weight along the path.
    pub cost: f64,
}

/// Heap entry ordered so that `BinaryHeap` pops the smallest distance.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the max-heap acts as a min-heap on distance. Distances
        // are never NaN (weights are validated); total_cmp keeps this total.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Creates an empty graph with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        DiGraph {
            adjacency: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Adds a node and returns its id. Ids are dense, starting at 0.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    /// Adds a directed edge `from -> to` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range, or if `weight` is negative
    /// or NaN (Dijkstra requires non-negative weights).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) {
        assert!(from < self.adjacency.len(), "`from` node out of range");
        assert!(to < self.adjacency.len(), "`to` node out of range");
        assert!(
            weight >= 0.0 && !weight.is_nan(),
            "edge weight must be non-negative and not NaN"
        );
        self.adjacency[from].push((to, weight));
        self.edge_count += 1;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Outgoing edges of `node` as `(target, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn edges(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[node]
    }

    /// Computes the minimum-weight path from `source` to `target` with
    /// Dijkstra's algorithm, or `None` if `target` is unreachable.
    ///
    /// Ties between equal-cost paths are broken deterministically (by node
    /// id), so repeated runs yield identical fits.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is out of range.
    pub fn shortest_path(&self, source: NodeId, target: NodeId) -> Option<Path> {
        assert!(source < self.adjacency.len(), "`source` node out of range");
        assert!(target < self.adjacency.len(), "`target` node out of range");

        let n = self.adjacency.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });

        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if settled[node] {
                continue;
            }
            settled[node] = true;
            if node == target {
                break;
            }
            for &(next, w) in &self.adjacency[node] {
                let nd = d + w;
                if nd < dist[next] || (nd == dist[next] && prev[next].is_none_or(|p| node < p)) {
                    dist[next] = nd;
                    prev[next] = Some(node);
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }

        if dist[target].is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while let Some(p) = prev[cur] {
            nodes.push(p);
            cur = p;
        }
        if cur != source {
            // target == source with no self-loop handled above; any other
            // case means the chain is broken, which cannot happen.
            debug_assert_eq!(cur, source);
        }
        nodes.reverse();
        Some(Path {
            nodes,
            cost: dist[target],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> (DiGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 2.0);
        g.add_edge(a, t, 5.0);
        g.add_edge(b, t, 1.0);
        (g, s, a, b, t)
    }

    #[test]
    fn shortest_path_picks_cheaper_branch() {
        let (g, s, _a, b, t) = diamond();
        let p = g.shortest_path(s, t).unwrap();
        assert_eq!(p.nodes, vec![s, b, t]);
        assert_eq!(p.cost, 3.0);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        assert!(g.shortest_path(s, t).is_none());
    }

    #[test]
    fn source_equals_target_is_trivial_path() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let p = g.shortest_path(s, s).unwrap();
        assert_eq!(p.nodes, vec![s]);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 0.0);
        g.add_edge(a, t, 0.0);
        let p = g.shortest_path(s, t).unwrap();
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.nodes, vec![s, a, t]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, -1.0);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-cost paths; the one through the lower node id wins.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(b, t, 1.0);
        let p = g.shortest_path(s, t).unwrap();
        assert_eq!(p.nodes, vec![s, a, t]);
    }

    #[test]
    fn counts_track_insertions() {
        let (g, ..) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn longer_chain_is_reconstructed_in_order() {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1.0);
        }
        let p = g.shortest_path(ids[0], ids[5]).unwrap();
        assert_eq!(p.nodes, ids);
        assert_eq!(p.cost, 5.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dijkstra agrees with Floyd-Warshall on random small graphs.
        #[test]
        fn dijkstra_matches_floyd_warshall(
            n in 2usize..10,
            edges in prop::collection::vec((0usize..10, 0usize..10, 0.0f64..10.0), 0..40)
        ) {
            let mut g = DiGraph::new();
            for _ in 0..n {
                g.add_node();
            }
            let mut dist = vec![vec![f64::INFINITY; n]; n];
            for (i, row) in dist.iter_mut().enumerate() {
                row[i] = 0.0;
            }
            for &(a, b, w) in &edges {
                let (a, b) = (a % n, b % n);
                g.add_edge(a, b, w);
                if w < dist[a][b] {
                    dist[a][b] = w;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = dist[i][k] + dist[k][j];
                        if via < dist[i][j] {
                            dist[i][j] = via;
                        }
                    }
                }
            }
            #[allow(clippy::needless_range_loop)] // `target` indexes the dist matrix
            for target in 0..n {
                match g.shortest_path(0, target) {
                    Some(path) => {
                        prop_assert!((path.cost - dist[0][target]).abs() <= 1e-9);
                        // The reported path must be real: verify its cost.
                        let mut acc = 0.0;
                        for w in path.nodes.windows(2) {
                            let best = g
                                .edges(w[0])
                                .iter()
                                .filter(|(t, _)| *t == w[1])
                                .map(|(_, c)| *c)
                                .fold(f64::INFINITY, f64::min);
                            acc += best;
                        }
                        prop_assert!(acc <= dist[0][target] + 1e-9);
                    }
                    None => prop_assert!(dist[0][target].is_infinite()),
                }
            }
        }
    }
}
