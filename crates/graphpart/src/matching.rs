//! Heavy-edge matching (HEM) for graph coarsening.
//!
//! Greedy first-choice matching in random visit order: each unmatched
//! vertex pairs with its unmatched neighbor across the heaviest edge.
//! The adaptive repartitioner uses the *local* variant that only matches
//! vertices assigned to the same old part, which keeps the old partition
//! exactly representable on every coarse level (the ParMETIS adaptive
//! strategy).

use dlb_hypergraph::CsrGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A graph matching: `mate[v] == v` when unmatched.
#[derive(Clone, Debug)]
pub(crate) struct GraphMatching {
    /// Partner per vertex (self if unmatched).
    pub mate: Vec<usize>,
    /// Matched pair count.
    pub num_pairs: usize,
}

impl GraphMatching {
    /// Number of coarse vertices the matching produces.
    pub(crate) fn coarse_count(&self) -> usize {
        self.mate.len() - self.num_pairs
    }
}

/// Heavy-edge matching. When `same_part_only` is `Some(part)`, vertices
/// may only match within the same part label (local matching for
/// adaptive repartitioning).
pub(crate) fn heavy_edge_matching(
    g: &CsrGraph,
    same_part_only: Option<&[usize]>,
    rng: &mut StdRng,
) -> GraphMatching {
    let n = g.num_vertices();
    let mut mate: Vec<usize> = (0..n).collect();
    let mut num_pairs = 0;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    for &u in &order {
        if mate[u] != u {
            continue;
        }
        let mut best: Option<usize> = None;
        let mut best_w = 0.0f64;
        for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
            if mate[v] != v || v == u {
                continue;
            }
            if let Some(part) = same_part_only {
                if part[u] != part[v] {
                    continue;
                }
            }
            if w > best_w {
                best_w = w;
                best = Some(v);
            }
        }
        if let Some(v) = best {
            mate[u] = v;
            mate[v] = u;
            num_pairs += 1;
        }
    }
    GraphMatching { mate, num_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::GraphBuilder;
    use rand::SeedableRng;

    #[test]
    fn picks_heaviest_edges() {
        // Path 0 -5- 1 -1- 2 -5- 3: heavy pairs (0,1) and (2,3).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 5.0);
        let g = b.build();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = heavy_edge_matching(&g, None, &mut rng);
            assert_eq!(m.mate[0], 1, "seed {seed}");
            assert_eq!(m.mate[2], 3, "seed {seed}");
        }
    }

    #[test]
    fn local_matching_respects_parts() {
        let g = crate::tests::grid_graph(4, 4);
        let part: Vec<usize> = (0..16).map(|v| v / 8).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let m = heavy_edge_matching(&g, Some(&part), &mut rng);
        for v in 0..16 {
            let u = m.mate[v];
            if u != v {
                assert_eq!(part[v], part[u], "cross-part match {v}-{u}");
            }
        }
    }

    #[test]
    fn matching_is_symmetric() {
        let g = crate::tests::random_graph(50, 120, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let m = heavy_edge_matching(&g, None, &mut rng);
        let mut pairs = 0;
        for v in 0..50 {
            assert_eq!(m.mate[m.mate[v]], v);
            if m.mate[v] != v {
                pairs += 1;
            }
        }
        assert_eq!(pairs, 2 * m.num_pairs);
    }

    #[test]
    fn isolated_vertices_unmatched() {
        let g = CsrGraph::from_edges_unit(3, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(0);
        let m = heavy_edge_matching(&g, None, &mut rng);
        assert_eq!(m.mate[2], 2);
    }
}
