//! Undirected simple graphs in compressed sparse row (CSR) form.
//!
//! Adjacency lists are sorted ascending by node ID, matching the paper's
//! standing assumption (§2: "adjacency lists in graphs are sorted ascending
//! by node ID"). Each undirected edge `{u, v}` appears twice, once in each
//! endpoint's list.

use crate::GraphError;

/// Node identifier. Graphs with more than `u32::MAX` nodes are outside the
/// scope of this in-memory study.
pub type NodeId = u32;

/// An immutable undirected simple graph (no self-loops, no parallel edges)
/// in CSR form with ascending-sorted adjacency lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from per-node adjacency lists.
    ///
    /// Lists are sorted internally, flattened, and validated by
    /// [`Graph::from_csr`]; returns an error if any list contains a
    /// self-loop, a duplicate, an out-of-range ID, or if the adjacency is not
    /// symmetric.
    pub fn from_adjacency(mut adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0usize);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut neighbors = Vec::with_capacity(total);
        for list in &mut adj {
            list.sort_unstable();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Self::from_csr(offsets, neighbors)
    }

    /// Builds a graph from CSR arrays: node `v`'s neighbors are
    /// `neighbors[offsets[v]..offsets[v + 1]]`.
    ///
    /// Every list must be strictly ascending (so duplicate-free), in range
    /// and free of self-loops, and the adjacency must be symmetric;
    /// otherwise the first violation, scanning nodes in order, is returned.
    /// Validation is `O(n + m)`: symmetry holds iff the CSR equals its
    /// transpose, and visiting sources in ascending order produces every
    /// transposed list already sorted, so it is compared in place.
    ///
    /// # Panics
    ///
    /// If `offsets` is not a CSR offset array for `neighbors`: it must be
    /// non-empty, start at 0, never decrease and end at `neighbors.len()`.
    pub fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Result<Self, GraphError> {
        assert!(
            offsets.first() == Some(&0)
                && offsets.last() == Some(&neighbors.len())
                && offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must run from 0 to neighbors.len() without decreasing"
        );
        let g = Graph { offsets, neighbors };
        let n = g.n();
        for v in 0..n as NodeId {
            let list = g.neighbors(v);
            for pair in list.windows(2) {
                if pair[0] == pair[1] {
                    return Err(GraphError::DuplicateEdge { u: v, v: pair[0] });
                }
                if pair[0] > pair[1] {
                    return Err(GraphError::Unsorted { node: v });
                }
            }
            for &u in list {
                if u as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: u, n });
                }
                if u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
            }
        }
        g.check_symmetry()?;
        Ok(g)
    }

    /// Builds a graph from an undirected edge list.
    ///
    /// Self-loops and duplicate edges are rejected; use
    /// [`crate::builder::GraphBuilder`] to deduplicate first.
    ///
    /// ```
    /// use trilist_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    /// assert_eq!(g.m(), 3);
    /// assert!(g.has_edge(2, 0));
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        Self::from_adjacency(adj)
    }

    /// Compares the CSR with its transpose in one pass. `next[w]` is the
    /// position in `w`'s list where the next source listing `w` must
    /// appear: sources arrive in ascending order and lists are sorted, so
    /// in a symmetric graph every probe matches and every list ends fully
    /// consumed. Requires lists already checked sorted and in range.
    fn check_symmetry(&self) -> Result<(), GraphError> {
        let mut next = self.offsets[..self.n()].to_vec();
        for u in 0..self.n() as NodeId {
            for &w in self.neighbors(u) {
                let at = next[w as usize];
                let listed = (at < self.offsets[w as usize + 1]).then(|| self.neighbors[at]);
                match listed {
                    Some(x) if x == u => next[w as usize] += 1,
                    // `w`'s list passed `u` without listing it
                    Some(x) if x > u => return Err(GraphError::Asymmetric { u, v: w }),
                    // `w` lists `x < u`, but `x` never listed `w`
                    Some(x) => return Err(GraphError::Asymmetric { u: w, v: x }),
                    None => return Err(GraphError::Asymmetric { u, v: w }),
                }
            }
        }
        // an unconsumed entry names a neighbor that never listed it back
        for (w, &at) in next.iter().enumerate() {
            if at < self.offsets[w + 1] {
                return Err(GraphError::Asymmetric {
                    u: w as NodeId,
                    v: self.neighbors[at],
                });
            }
        }
        Ok(())
    }

    /// Number of nodes `n`.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// All degrees, indexed by node ID.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v) as u32)
            .collect()
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge-existence test via binary search: `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Sum of `deg(v)^2` over all nodes — the unoriented candidate-edge count
    /// `Θ(Σ dᵢ²)` cited in §1.1 drives vertex/edge iterators without
    /// orientation.
    pub fn degree_square_sum(&self) -> u64 {
        (0..self.n() as NodeId)
            .map(|v| (self.degree(v) as u64).pow(2))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (tail)
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degree_square_sum(), 4 + 4 + 9 + 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_listed_once_ordered() {
        let g = triangle_plus_tail();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(0, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 0 }));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        let err = Graph::from_adjacency(vec![vec![1], vec![]]).unwrap_err();
        assert!(matches!(err, GraphError::Asymmetric { .. }));
    }

    #[test]
    fn csr_rejects_each_malformed_shape() {
        // 0-1, 0-2, 1-2 is the valid shape each case perturbs
        let ok = Graph::from_csr(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]).unwrap();
        assert_eq!(ok, Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap());
        let cases: [(Vec<usize>, Vec<NodeId>, GraphError); 7] = [
            (
                vec![0, 2, 4, 6],
                vec![2, 1, 0, 2, 0, 1],
                GraphError::Unsorted { node: 0 },
            ),
            (
                vec![0, 2, 4],
                vec![1, 1, 0, 0],
                GraphError::DuplicateEdge { u: 0, v: 1 },
            ),
            (
                vec![0, 1, 2],
                vec![5, 0],
                GraphError::NodeOutOfRange { node: 5, n: 2 },
            ),
            (vec![0, 1, 1], vec![0], GraphError::SelfLoop { node: 0 }),
            // 0 lists 1, 1 lists nobody
            (
                vec![0, 1, 1],
                vec![1],
                GraphError::Asymmetric { u: 0, v: 1 },
            ),
            // 1 lists 0, 0 lists nobody: found once every source is seen
            (
                vec![0, 0, 1],
                vec![0],
                GraphError::Asymmetric { u: 1, v: 0 },
            ),
            // 0 lists 2; 2 lists 1, which never lists 2
            (
                vec![0, 1, 1, 3],
                vec![2, 0, 1],
                GraphError::Asymmetric { u: 2, v: 1 },
            ),
        ];
        for (offsets, neighbors, want) in cases {
            assert_eq!(Graph::from_csr(offsets, neighbors).unwrap_err(), want);
        }
    }

    #[test]
    #[should_panic(expected = "offsets")]
    fn csr_offsets_must_cover_neighbors() {
        let _ = Graph::from_csr(vec![0, 1], vec![1, 0]);
    }

    #[test]
    fn adjacency_is_sorted_even_if_input_is_not() {
        let g = Graph::from_adjacency(vec![vec![2, 1], vec![0, 2], vec![1, 0]]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_edges(3, &[]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(1), 0);
    }
}
