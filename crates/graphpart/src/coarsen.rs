//! Graph contraction: merge matched pairs, sum parallel edge weights,
//! drop collapsed self-edges, and (for adaptive repartitioning) carry
//! part labels down to the coarse graph.

use dlb_hypergraph::{CsrGraph, GraphBuilder, PartId};
use rand::rngs::StdRng;

use crate::matching::{heavy_edge_matching, GraphMatching};

/// Stop coarsening at roughly this many vertices per part.
const COARSE_TO_FACTOR: usize = 20;
/// Hard floor on coarse size regardless of `k`.
const MIN_COARSE_VERTICES: usize = 80;
/// Abort coarsening when a level shrinks by less than this fraction.
const MIN_REDUCTION: f64 = 0.10;
/// Safety cap on coarsening levels.
const MAX_LEVELS: usize = 40;

/// One graph coarsening level.
#[derive(Clone, Debug)]
pub(crate) struct GraphLevel {
    /// The coarse graph.
    pub coarse: CsrGraph,
    /// `fine_to_coarse[fine_v] = coarse_v`.
    pub fine_to_coarse: Vec<usize>,
}

/// Contracts `g` along `matching`. Vertex weights and sizes sum; edges
/// between merged endpoints vanish; parallel coarse edges merge with
/// summed weights (handled by [`GraphBuilder`]).
pub(crate) fn contract_graph(g: &CsrGraph, matching: &GraphMatching) -> GraphLevel {
    let n = g.num_vertices();
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        let m = matching.mate[v];
        if m >= v {
            fine_to_coarse[v] = next;
            if m != v {
                fine_to_coarse[m] = next;
            }
            next += 1;
        }
    }
    let nc = next;

    let mut b = GraphBuilder::new(nc);
    let mut cw = vec![0.0f64; nc];
    let mut cs = vec![0.0f64; nc];
    for v in 0..n {
        let c = fine_to_coarse[v];
        cw[c] += g.vertex_weight(v);
        cs[c] += g.vertex_size(v);
    }
    for c in 0..nc {
        b.set_vertex_weight(c, cw[c]);
        b.set_vertex_size(c, cs[c]);
    }
    for v in 0..n {
        let cv = fine_to_coarse[v];
        for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            if u > v {
                let cu = fine_to_coarse[u];
                if cu != cv {
                    b.add_edge(cv, cu, w);
                }
            }
        }
    }
    GraphLevel {
        coarse: b.build(),
        fine_to_coarse,
    }
}

/// The coarsening half of a V-cycle for `k` parts: heavy-edge matching
/// and contraction until the graph is down to
/// `max(COARSE_TO_FACTOR·k, MIN_COARSE_VERTICES)` vertices, a level
/// shrinks by less than [`MIN_REDUCTION`], or [`MAX_LEVELS`] is hit.
/// With `labels` (the old parts, for adaptive repartitioning) only
/// same-label pairs match, and each level comes with the labels carried
/// down to its coarse graph; without, that vector is empty.
pub(crate) fn coarsen_graph(
    g: &CsrGraph,
    k: usize,
    labels: Option<&[PartId]>,
    rng: &mut StdRng,
) -> Vec<(GraphLevel, Vec<PartId>)> {
    let coarse_target = (COARSE_TO_FACTOR * k).max(MIN_COARSE_VERTICES);
    let mut levels: Vec<(GraphLevel, Vec<PartId>)> = Vec::new();
    let mut current = g.clone();
    let mut current_labels = labels.map(<[PartId]>::to_vec);
    while current.num_vertices() > coarse_target && levels.len() < MAX_LEVELS {
        let m = heavy_edge_matching(&current, current_labels.as_deref(), rng);
        let before = current.num_vertices();
        if ((before - m.coarse_count()) as f64) < before as f64 * MIN_REDUCTION {
            break;
        }
        let level = contract_graph(&current, &m);
        current_labels = current_labels.map(|l| project_labels_to_coarse(&level, &l));
        current = level.coarse.clone();
        levels.push((level, current_labels.clone().unwrap_or_default()));
    }
    levels
}

/// Projects per-fine-vertex labels onto the coarse graph (all fine
/// vertices of a coarse vertex must agree — guaranteed under local
/// matching).
pub(crate) fn project_labels_to_coarse(level: &GraphLevel, labels: &[usize]) -> Vec<usize> {
    let mut coarse = vec![usize::MAX; level.coarse.num_vertices()];
    for (v, &c) in level.fine_to_coarse.iter().enumerate() {
        if coarse[c] == usize::MAX {
            coarse[c] = labels[v];
        } else {
            debug_assert_eq!(coarse[c], labels[v], "coarse vertex spans two labels");
        }
    }
    coarse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_matching(n: usize, pairs: &[(usize, usize)]) -> GraphMatching {
        let mut mate: Vec<usize> = (0..n).collect();
        for &(u, v) in pairs {
            mate[u] = v;
            mate[v] = u;
        }
        GraphMatching {
            mate,
            num_pairs: pairs.len(),
        }
    }

    #[test]
    fn contraction_merges_and_sums() {
        // Square 0-1-2-3-0 with an extra 0-2 diagonal.
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 0, 4.0),
                (0, 2, 5.0),
            ],
        );
        let lvl = contract_graph(&g, &pair_matching(4, &[(0, 1), (2, 3)]));
        assert_eq!(lvl.coarse.num_vertices(), 2);
        // Edges between the two coarse vertices: 1-2 (2.0), 3-0 (4.0),
        // 0-2 (5.0) → one edge weight 11; internal 0-1 and 2-3 vanish.
        assert_eq!(lvl.coarse.num_edges(), 1);
        assert_eq!(lvl.coarse.edge_weights(0), &[11.0]);
        assert_eq!(lvl.coarse.vertex_weight(0), 2.0);
        lvl.coarse.validate().unwrap();
    }

    #[test]
    fn weight_is_conserved() {
        let g = crate::tests::random_graph(40, 100, 5);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let m = crate::matching::heavy_edge_matching(&g, None, &mut rng);
        let lvl = contract_graph(&g, &m);
        assert!((lvl.coarse.total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9);
    }

    #[test]
    fn label_projection() {
        let g = crate::tests::grid_graph(2, 4);
        let labels = vec![0, 0, 1, 1, 0, 0, 1, 1];
        // Match within labels only: (0,1), (2,3).
        let m = pair_matching(8, &[(0, 1), (2, 3)]);
        let lvl = contract_graph(&g, &m);
        let coarse = project_labels_to_coarse(&lvl, &labels);
        assert_eq!(coarse.len(), 6);
        assert_eq!(coarse[lvl.fine_to_coarse[0]], 0);
        assert_eq!(coarse[lvl.fine_to_coarse[2]], 1);
    }
}
