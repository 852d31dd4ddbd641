//! A ParMETIS-like multilevel **graph** partitioner: the baseline the
//! paper compares against.
//!
//! Two entry points mirror the two ParMETIS options used in Section 5:
//!
//! * [`partition_kway`] — multilevel k-way graph partitioning from
//!   scratch via recursive bisection (`Partkway` analog): heavy-edge
//!   matching, greedy graph growing, boundary FM on the edge cut.
//! * [`adaptive_repart`] — the adaptive repartitioning scheme
//!   (`AdaptiveRepart` analog, after Schloegel et al.'s unified
//!   algorithm): coarsening matches only vertices in the same old part so
//!   the old partition stays representable, the coarsest solution *is*
//!   the old partition (rebalanced by greedy diffusion), and refinement
//!   optimizes the combined objective `α·edgecut + migration` — i.e.
//!   migration cost is accounted for **only during refinement**, which is
//!   exactly the structural property the paper contrasts with its own
//!   model (where migration is part of the hypergraph itself, "deeply
//!   integrated starting from coarsening").
//!
//! The trade-off measured in the paper follows from this structure: the
//! graph partitioner is markedly faster (edge gains are O(degree), no
//! pin-count bookkeeping) but optimizes the approximate edge-cut metric
//! rather than true communication volume, and its migration control is
//! shallower.

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod adaptive;
mod coarsen;
mod config;
mod initial;
mod kway;
mod matching;
mod refine;

pub use adaptive::{adaptive_repart, AdaptiveConfig};
pub use config::GraphConfig;
pub use kway::partition_kway;

use dlb_hypergraph::{metrics, CsrGraph, PartId};

/// Result of a graph partitioning call.
#[derive(Clone, Debug)]
pub struct GraphPartitionResult {
    /// Part per vertex.
    pub part: Vec<PartId>,
    /// Weighted edge cut of the assignment.
    pub edge_cut: f64,
    /// Load imbalance `max W_p / W_avg`.
    pub imbalance: f64,
}

impl GraphPartitionResult {
    /// Computes edge cut and imbalance for `part` on `g`.
    pub(crate) fn evaluate(g: &CsrGraph, part: Vec<PartId>, k: usize) -> Self {
        let edge_cut = metrics::edge_cut(g, &part, k);
        let imbalance = metrics::graph_imbalance(g, &part, k);
        GraphPartitionResult {
            part,
            edge_cut,
            imbalance,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dlb_hypergraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 2D grid graph.
    pub(crate) fn grid_graph(rows: usize, cols: usize) -> CsrGraph {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut b = GraphBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_edge(idx(r, c), idx(r, c + 1), 1.0);
                }
                if r + 1 < rows {
                    b.add_edge(idx(r, c), idx(r + 1, c), 1.0);
                }
            }
        }
        b.build()
    }

    /// Random graph for smoke tests.
    pub(crate) fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(u, v, rng.gen_range(1..4) as f64);
            }
        }
        b.build()
    }

    #[test]
    fn kway_scratch_on_grid() {
        let g = grid_graph(16, 16);
        let cfg = GraphConfig::seeded(1);
        let r = partition_kway(&g, 4, &cfg);
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 0.02,
            "imbalance {}",
            r.imbalance
        );
        assert!(r.edge_cut <= 64.0, "edge cut {}", r.edge_cut);
    }

    #[test]
    fn kway_two_cliques() {
        let mut b = GraphBuilder::new(12);
        for i in 0..6 {
            for j in i + 1..6 {
                b.add_edge(i, j, 5.0);
                b.add_edge(6 + i, 6 + j, 5.0);
            }
        }
        b.add_edge(5, 6, 1.0);
        let g = b.build();
        let r = partition_kway(&g, 2, &GraphConfig::seeded(2));
        assert_eq!(r.edge_cut, 1.0, "should cut only the bridge");
    }
}
