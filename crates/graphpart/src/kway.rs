//! K-way graph partitioning from scratch (the `Partkway` analog):
//! multilevel recursive bisection with heavy-edge matching, greedy graph
//! growing, and boundary FM on the edge cut.

use dlb_hypergraph::subset::induced_subgraph;
use dlb_hypergraph::{CsrGraph, PartId, PartTargets};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coarsen::coarsen_graph;
use crate::config::GraphConfig;
use crate::initial::initial_graph_partition;
use crate::refine::{refine_graph, Objective};
use crate::GraphPartitionResult;

/// Randomized greedy-graph-growing attempts for the coarse partition.
const INITIAL_ATTEMPTS: usize = 8;

/// One multilevel V-cycle on a graph (any number of parts in `targets`).
fn multilevel_graph(g: &CsrGraph, targets: &PartTargets, rng: &mut StdRng) -> Vec<PartId> {
    let k = targets.k();
    if k == 1 {
        return vec![0; g.num_vertices()];
    }
    if g.num_vertices() == 0 {
        return Vec::new();
    }

    let levels = coarsen_graph(g, k, None, rng);

    // Coarse partition + refine.
    let coarsest: &CsrGraph = levels.last().map(|(l, _)| &l.coarse).unwrap_or(g);
    let mut part = initial_graph_partition(coarsest, targets, INITIAL_ATTEMPTS, rng);
    refine_graph(coarsest, targets, &Objective::CUT_ONLY, &mut part, rng);

    // Uncoarsen.
    for i in (0..levels.len()).rev() {
        let (level, _) = &levels[i];
        let finer: &CsrGraph = if i == 0 { g } else { &levels[i - 1].0.coarse };
        let mut finer_part = vec![0usize; finer.num_vertices()];
        for (v, &c) in level.fine_to_coarse.iter().enumerate() {
            finer_part[v] = part[c];
        }
        refine_graph(finer, targets, &Objective::CUT_ONLY, &mut finer_part, rng);
        part = finer_part;
    }
    part
}

fn per_level_epsilon(epsilon: f64, k: usize) -> f64 {
    let depth = (k.max(2) as f64).log2().ceil().max(1.0);
    (1.0 + epsilon).powf(1.0 / depth) - 1.0
}

fn recurse(g: &CsrGraph, k: usize, eps: f64, rng: &mut StdRng) -> Vec<PartId> {
    if k == 1 {
        return vec![0; g.num_vertices()];
    }
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let targets = PartTargets::proportional(g.total_vertex_weight(), &[k0, k1], eps);
    let sides = multilevel_graph(g, &targets, rng);

    let keep0: Vec<bool> = sides.iter().map(|&s| s == 0).collect();
    let keep1: Vec<bool> = sides.iter().map(|&s| s == 1).collect();
    let side0 = induced_subgraph(g, &keep0);
    let side1 = induced_subgraph(g, &keep1);
    let part0 = recurse(&side0.graph, k0, eps, rng);
    let part1 = recurse(&side1.graph, k1, eps, rng);

    let mut part = vec![0usize; g.num_vertices()];
    for (new_v, &old_v) in side0.to_base.iter().enumerate() {
        part[old_v] = part0[new_v];
    }
    for (new_v, &old_v) in side1.to_base.iter().enumerate() {
        part[old_v] = k0 + part1[new_v];
    }
    part
}

/// Partitions `g` into `k` parts from scratch (edge-cut objective).
pub fn partition_kway(g: &CsrGraph, k: usize, cfg: &GraphConfig) -> GraphPartitionResult {
    assert!(k > 0, "k must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let eps = per_level_epsilon(cfg.epsilon, k);
    let part = recurse(g, k, eps, &mut rng);
    GraphPartitionResult::evaluate(g, part, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;

    #[test]
    fn eight_way_grid() {
        let g = crate::tests::grid_graph(16, 16);
        let cfg = GraphConfig::seeded(3);
        let r = partition_kway(&g, 8, &cfg);
        assert!(r.part.iter().all(|&p| p < 8));
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 0.02,
            "imbalance {}",
            r.imbalance
        );
        let w = metrics::graph_part_weights(&g, &r.part, 8);
        assert!(w.iter().all(|&x| x > 0.0), "empty part: {w:?}");
    }

    #[test]
    fn deterministic() {
        let g = crate::tests::random_graph(150, 400, 9);
        let a = partition_kway(&g, 4, &GraphConfig::seeded(5));
        let b = partition_kway(&g, 4, &GraphConfig::seeded(5));
        assert_eq!(a.part, b.part);
    }

    #[test]
    fn k_one() {
        let g = crate::tests::grid_graph(3, 3);
        let r = partition_kway(&g, 1, &GraphConfig::default());
        assert!(r.part.iter().all(|&p| p == 0));
        assert_eq!(r.edge_cut, 0.0);
    }

    #[test]
    fn odd_k() {
        let g = crate::tests::grid_graph(12, 12);
        let r = partition_kway(&g, 5, &GraphConfig::seeded(7));
        assert!(r.imbalance <= 1.15, "imbalance {}", r.imbalance);
    }
}
