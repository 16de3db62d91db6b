//! Seeded workload inputs: Pareto graphs and the serve_edit edit stream.
//! The same seed always gives the same edge lists and the same stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use trilist_graph::dist::{DegreeModel, DiscretePareto, Truncated, Truncation};
use trilist_graph::gen::{GraphGenerator, ResidualSampler};
use trilist_graph::{DegreeSequence, Graph};

/// A discretized Pareto α = 1.5 graph (β = 30(α − 1)) on `n` nodes with
/// degrees truncated at `truncation.t_n(n)`, wired by `ResidualSampler`.
///
/// The degree sequence is the distribution's `n` mid-point quantiles,
/// `F⁻¹((i + ½)/n)`, dealt to nodes in a seeded random order; the seed
/// also drives the wiring. Drawing the degrees at random instead would
/// let one seed's largest hub be several times another's, and with
/// α = 1.5 that alone moves listing cost by 2× between seeds.
pub fn pareto_graph(n: usize, truncation: Truncation, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), truncation.t_n(n));
    let mut degrees: Vec<u32> = (0..n)
        .map(|i| dist.quantile((i as f64 + 0.5) / n as f64) as u32)
        .collect();
    degrees.shuffle(&mut rng);
    let mut seq = DegreeSequence::new(degrees);
    seq.make_even();
    ResidualSampler.generate(&seq, &mut rng).graph
}

/// The seed of a run's `i`-th graph; graph 0 takes the run's own seed.
pub fn graph_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Edges per edit batch.
pub const BATCH: usize = 64;

/// One edit of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    Add(Vec<(u32, u32)>),
    Remove(Vec<(u32, u32)>),
}

/// The serve_edit edit stream over a base graph: 64-edge insert batches,
/// each removed again two batches later, so the edge count stays within
/// two batches of the base. Operations run `add B0, add B1, add B2,
/// remove B0, add B3, remove B1, …`; operation `i` creates epoch `i + 1`.
///
/// New edges join two endpoints of uniformly drawn base edges, so churn
/// lands on hubs in proportion to degree. A batch avoids the base graph
/// and the two batches still live when it is added.
pub struct EditStream {
    base_edges: Vec<(u32, u32)>,
    base: HashSet<(u32, u32)>,
    rng: StdRng,
    /// Batches added so far, in order (kept so removals can replay them).
    batches: Vec<Vec<(u32, u32)>>,
    ops: usize,
}

impl EditStream {
    pub fn new(base: &Graph, seed: u64) -> EditStream {
        let base_edges: Vec<(u32, u32)> = base.edges().collect();
        EditStream {
            base: base_edges.iter().copied().collect(),
            base_edges,
            rng: StdRng::seed_from_u64(seed ^ 0x6564_6974_7374_726d),
            batches: Vec::new(),
            ops: 0,
        }
    }

    fn endpoint(&mut self) -> u32 {
        let (u, v) = self.base_edges[self.rng.gen_range(0..self.base_edges.len())];
        if self.rng.gen::<bool>() {
            u
        } else {
            v
        }
    }

    fn fresh_batch(&mut self) -> Vec<(u32, u32)> {
        let k = self.batches.len();
        let live: HashSet<(u32, u32)> = self.batches[k.saturating_sub(2)..]
            .iter()
            .flatten()
            .copied()
            .collect();
        let mut batch: Vec<(u32, u32)> = Vec::with_capacity(BATCH);
        while batch.len() < BATCH {
            let (a, b) = (self.endpoint(), self.endpoint());
            let e = (a.min(b), a.max(b));
            if a != b && !self.base.contains(&e) && !live.contains(&e) && !batch.contains(&e) {
                batch.push(e);
            }
        }
        batch
    }

    /// The next edit.
    pub fn next_edit(&mut self) -> Edit {
        let i = self.ops;
        self.ops += 1;
        // ops 0, 1, 2 add; from op 3 on, odd ops remove the batch added
        // two adds earlier
        if i >= 3 && i % 2 == 1 {
            let k = (i - 3) / 2;
            Edit::Remove(self.batches[k].clone())
        } else {
            let batch = self.fresh_batch();
            self.batches.push(batch.clone());
            Edit::Add(batch)
        }
    }
}

/// Stream edges present after the first `epoch` edits (the base graph's
/// edges are always present; the stream never removes them).
pub fn live_at(edits: &[Edit], epoch: usize) -> HashSet<(u32, u32)> {
    let mut live = HashSet::new();
    for edit in &edits[..epoch] {
        match edit {
            Edit::Add(b) => live.extend(b.iter().copied()),
            Edit::Remove(b) => {
                for e in b {
                    live.remove(e);
                }
            }
        }
    }
    live
}

/// T(b) \ T(a), computed naively: every triangle of the epoch-`b` graph
/// with an edge absent at epoch `a`, as sorted triples in ascending order.
pub fn new_triangles(base: &Graph, edits: &[Edit], a: usize, b: usize) -> Vec<(u32, u32, u32)> {
    let live_a = live_at(edits, a);
    let live_b = live_at(edits, b);
    let mut stream_adj: std::collections::HashMap<u32, Vec<u32>> = Default::default();
    for &(u, v) in &live_b {
        stream_adj.entry(u).or_default().push(v);
        stream_adj.entry(v).or_default().push(u);
    }
    let adjacent = |u: u32, v: u32| base.has_edge(u, v) || live_b.contains(&(u.min(v), u.max(v)));
    let mut out = std::collections::BTreeSet::new();
    for &(u, v) in live_b.difference(&live_a) {
        let extra = stream_adj.get(&u).map_or(&[][..], |n| n.as_slice());
        for &w in base.neighbors(u).iter().chain(extra) {
            if w != v && adjacent(v, w) {
                let mut t = [u, v, w];
                t.sort_unstable();
                out.insert((t[0], t[1], t[2]));
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_edges_and_edit_stream() {
        let g1 = pareto_graph(2_000, Truncation::Root, 11);
        let g2 = pareto_graph(2_000, Truncation::Root, 11);
        let e1: Vec<_> = g1.edges().collect();
        assert_eq!(e1, g2.edges().collect::<Vec<_>>());
        assert!(!e1.is_empty());
        let mut s1 = EditStream::new(&g1, 11);
        let mut s2 = EditStream::new(&g2, 11);
        let ops1: Vec<Edit> = (0..12).map(|_| s1.next_edit()).collect();
        let ops2: Vec<Edit> = (0..12).map(|_| s2.next_edit()).collect();
        assert_eq!(ops1, ops2);

        let other = pareto_graph(2_000, Truncation::Root, 12);
        assert_ne!(e1, other.edges().collect::<Vec<_>>());
        let mut s3 = EditStream::new(&g1, 12);
        assert_ne!(ops1[0], s3.next_edit());

        // a batch run's graphs: the first takes the run's seed, the rest differ
        let seeds: Vec<u64> = (0..3).map(|i| graph_seed(11, i)).collect();
        assert_eq!(seeds[0], 11);
        assert!(seeds[1] != 11 && seeds[2] != 11 && seeds[1] != seeds[2]);
    }

    #[test]
    fn stream_adds_absent_edges_and_removes_them_two_batches_later() {
        let g = pareto_graph(2_000, Truncation::Root, 5);
        let mut s = EditStream::new(&g, 5);
        let ops: Vec<Edit> = (0..9).map(|_| s.next_edit()).collect();
        let kinds: Vec<bool> = ops.iter().map(|e| matches!(e, Edit::Add(_))).collect();
        assert_eq!(
            kinds,
            [true, true, true, false, true, false, true, false, true]
        );
        let Edit::Add(b0) = &ops[0] else {
            unreachable!()
        };
        assert_eq!(ops[3], Edit::Remove(b0.clone()));
        for epoch in 0..=ops.len() {
            let live = live_at(&ops, epoch);
            assert!(live.iter().all(|&(u, v)| u < v && !g.has_edge(u, v)));
            assert!(live.len() <= 3 * BATCH);
        }
    }

    #[test]
    fn naive_new_triangles_on_a_hand_built_window() {
        // base path 0-1-2; the stream adds (0,2) closing one triangle
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let ops = vec![Edit::Add(vec![(0, 2)]), Edit::Add(vec![(1, 3)])];
        assert_eq!(new_triangles(&g, &ops, 0, 1), vec![(0, 1, 2)]);
        assert_eq!(new_triangles(&g, &ops, 1, 2), vec![(1, 2, 3)]);
        assert_eq!(new_triangles(&g, &ops, 0, 2), vec![(0, 1, 2), (1, 2, 3)]);
        assert!(new_triangles(&g, &ops, 2, 2).is_empty());
    }
}
