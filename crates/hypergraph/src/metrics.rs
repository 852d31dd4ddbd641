//! Partition-quality metrics.
//!
//! The central metric is the **connectivity-1 cut** (k-1 cut) of Eq. (2)
//! of the paper: `cut(H, P) = Σ_j c_j (λ_j − 1)` where `λ_j` is the number
//! of parts that net `j`'s pins touch. For the column-net hypergraph model
//! of a sparse-matrix computation this equals the application's true
//! communication volume, which is why the paper prefers hypergraphs over
//! graphs (whose edge cut only approximates volume).
//!
//! Every metric is one serial pass, summing in net or vertex order — the
//! same functions report a result and decide whether an extra V-cycle is
//! kept (`dlb_partitioner::kway`).

use crate::{CsrGraph, Hypergraph, PartId};

/// Per-part total vertex weight under `part`.
///
/// # Panics
/// Panics if an assignment is `>= k` or `part` has the wrong length.
pub fn part_weights(h: &Hypergraph, part: &[PartId], k: usize) -> Vec<f64> {
    assert_eq!(part.len(), h.num_vertices());
    let mut w = vec![0.0; k];
    for (v, &p) in part.iter().enumerate() {
        assert!(p < k, "vertex {v} assigned to out-of-range part {p}");
        w[p] += h.vertex_weight(v);
    }
    w
}

/// Per-constraint per-part loads under `part`: row `c` is the total of
/// load constraint `c` in every part. Row `0` is bit-identical to
/// [`part_weights`] (the primary constraint *is* the scalar weight, and
/// both accumulate in vertex order).
///
/// # Panics
/// Panics if an assignment is `>= k` or `part` has the wrong length.
pub fn part_loads(h: &Hypergraph, part: &[PartId], k: usize) -> Vec<Vec<f64>> {
    assert_eq!(part.len(), h.num_vertices());
    let arity = h.load_arity();
    let mut w = vec![vec![0.0; k]; arity];
    for c in 0..arity {
        let col = h.loads().constraint(c);
        let row = &mut w[c];
        for (v, &p) in part.iter().enumerate() {
            assert!(p < k, "vertex {v} assigned to out-of-range part {p}");
            row[p] += col[v];
        }
    }
    w
}

/// Per-part loads of the *auxiliary* constraints only (`1..arity`), in
/// the layout [`crate::balance::PartTargets::feasible`] expects. Empty at
/// arity 1.
pub fn aux_part_loads(h: &Hypergraph, part: &[PartId], k: usize) -> Vec<Vec<f64>> {
    let mut rows = part_loads(h, part, k);
    rows.remove(0);
    rows
}

/// Per-constraint imbalance: `imbalance_of_weights` of every row of
/// [`part_loads`]. Entry `0` equals [`imbalance`].
pub fn imbalance_per_constraint(h: &Hypergraph, part: &[PartId], k: usize) -> Vec<f64> {
    part_loads(h, part, k)
        .iter()
        .map(|row| imbalance_of_weights(row))
        .collect()
}

/// Per-part total vertex weight for a graph.
pub fn graph_part_weights(g: &CsrGraph, part: &[PartId], k: usize) -> Vec<f64> {
    assert_eq!(part.len(), g.num_vertices());
    let mut w = vec![0.0; k];
    for (v, &p) in part.iter().enumerate() {
        assert!(p < k, "vertex {v} assigned to out-of-range part {p}");
        w[p] += g.vertex_weight(v);
    }
    w
}

/// The load imbalance of a weight vector: `max_p W_p / W_avg`.
///
/// A perfectly balanced partition returns `1.0`. Eq. (1) of the paper
/// requires `imbalance ≤ 1 + ε`. Returns `1.0` when total weight is zero.
pub fn imbalance_of_weights(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || weights.is_empty() {
        return 1.0;
    }
    let avg = total / weights.len() as f64;
    weights.iter().cloned().fold(0.0, f64::max) / avg
}

/// Load imbalance of `part` on hypergraph `h`.
pub fn imbalance(h: &Hypergraph, part: &[PartId], k: usize) -> f64 {
    imbalance_of_weights(&part_weights(h, part, k))
}

/// Load imbalance of `part` on graph `g`.
pub fn graph_imbalance(g: &CsrGraph, part: &[PartId], k: usize) -> f64 {
    imbalance_of_weights(&graph_part_weights(g, part, k))
}

/// The connectivity `λ_j` of every net: the number of distinct parts its
/// pins touch. Empty nets have connectivity `0`.
pub fn connectivities(h: &Hypergraph, part: &[PartId], k: usize) -> Vec<usize> {
    assert_eq!(part.len(), h.num_vertices());
    let mut lambda = vec![0usize; h.num_nets()];
    let mut mark = vec![usize::MAX; k];
    for j in 0..h.num_nets() {
        let mut count = 0;
        for &v in h.net(j) {
            let p = part[v];
            assert!(p < k);
            if mark[p] != j {
                mark[p] = j;
                count += 1;
            }
        }
        lambda[j] = count;
    }
    lambda
}

/// Which cut metric to optimize / report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CutMetric {
    /// Connectivity-1 (`Σ c_j (λ_j − 1)`), Eq. (2); models true
    /// communication volume. The paper's metric.
    #[default]
    Connectivity,
    /// Cut-net (`Σ c_j [λ_j > 1]`); counted once per cut net.
    CutNet,
}

/// Cut size of `part` under the chosen metric.
pub fn cutsize(h: &Hypergraph, part: &[PartId], k: usize, metric: CutMetric) -> f64 {
    let lambda = connectivities(h, part, k);
    let mut cut = 0.0;
    for (j, &l) in lambda.iter().enumerate() {
        match metric {
            CutMetric::Connectivity => {
                if l > 1 {
                    cut += h.net_cost(j) * (l - 1) as f64;
                }
            }
            CutMetric::CutNet => {
                if l > 1 {
                    cut += h.net_cost(j);
                }
            }
        }
    }
    cut
}

/// Connectivity-1 cut (Eq. (2)): the paper's communication-volume metric.
pub fn cutsize_connectivity(h: &Hypergraph, part: &[PartId], k: usize) -> f64 {
    cutsize(h, part, k, CutMetric::Connectivity)
}

/// Weighted edge cut of a graph partition: the sum of weights of edges
/// whose endpoints lie in different parts (each edge counted once).
pub fn edge_cut(g: &CsrGraph, part: &[PartId], k: usize) -> f64 {
    assert_eq!(part.len(), g.num_vertices());
    let mut cut = 0.0;
    for v in 0..g.num_vertices() {
        let pv = part[v];
        assert!(pv < k);
        for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            if u > v && part[u] != pv {
                cut += w;
            }
        }
    }
    cut
}

/// Total migration volume between two assignments of the *same* vertex
/// set: `Σ_v size(v) · [old(v) ≠ new(v)]`.
///
/// This is exactly the cost that the repartitioning hypergraph's migration
/// nets charge (Section 3 of the paper): a moved vertex's migration net is
/// cut with connectivity 2 and contributes its cost (= the vertex size)
/// once.
pub fn migration_volume(sizes: &[f64], old: &[PartId], new: &[PartId]) -> f64 {
    assert_eq!(sizes.len(), old.len());
    assert_eq!(old.len(), new.len());
    // `+ 0.0` normalizes the empty sum's -0.0 to +0.0.
    sizes
        .iter()
        .zip(old.iter().zip(new))
        .filter(|(_, (o, n))| o != n)
        .map(|(s, _)| *s)
        .sum::<f64>()
        + 0.0
}

/// Number of vertices that change parts between two assignments.
pub fn moved_vertex_count(old: &[PartId], new: &[PartId]) -> usize {
    assert_eq!(old.len(), new.len());
    old.iter().zip(new).filter(|(o, n)| o != n).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Section 3 / Figure 1 of the paper:
    /// nine unit vertices in three parts, three cut nets of unit cost and
    /// connectivity two ⇒ total communication volume 3.
    #[test]
    fn paper_figure1_left_cut() {
        // Parts: {1,2,3}=0, {4,5,6}=1, {7,8,9}=2 (0-indexed: 0..3, 3..6, 6..9).
        // Cut nets (unit cost): {2,3,4}, {4,6,7}, {5,6,7} in paper numbering.
        let h = Hypergraph::from_nets_unit(
            9,
            &[
                vec![1, 2, 3], // spans parts 0 and 1
                vec![3, 5, 6], // spans parts 1 and 2
                vec![4, 5, 6], // spans parts 1 and 2
                vec![0, 1],    // internal to part 0
            ],
        );
        let part = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let lambda = connectivities(&h, &part, 3);
        assert_eq!(lambda, vec![2, 2, 2, 1]);
        assert_eq!(cutsize_connectivity(&h, &part, 3), 3.0);
        assert_eq!(cutsize(&h, &part, 3, CutMetric::CutNet), 3.0);
    }

    #[test]
    fn connectivity_metric_counts_lambda_minus_one() {
        // One net with cost 5 spanning 3 parts contributes 10 under k-1
        // and 5 under cut-net.
        let h = Hypergraph::from_nets(4, &[vec![0, 1, 2, 3]], vec![5.0]);
        let part = vec![0, 1, 2, 2];
        assert_eq!(cutsize(&h, &part, 3, CutMetric::Connectivity), 10.0);
        assert_eq!(cutsize(&h, &part, 3, CutMetric::CutNet), 5.0);
    }

    #[test]
    fn uncut_partition_has_zero_cut() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![2, 3]]);
        let part = vec![0, 0, 1, 1];
        assert_eq!(cutsize_connectivity(&h, &part, 2), 0.0);
    }

    #[test]
    fn part_weights_and_imbalance() {
        let mut h = Hypergraph::from_nets_unit(4, &[vec![0, 1, 2, 3]]);
        h.set_vertex_weight(0, 3.0);
        let part = vec![0, 0, 1, 1];
        let w = part_weights(&h, &part, 2);
        assert_eq!(w, vec![4.0, 2.0]);
        // max 4 / avg 3
        assert!((imbalance(&h, &part, 2) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn part_loads_per_constraint() {
        use crate::VertexLoads;
        let mut h = Hypergraph::from_nets_unit(4, &[vec![0, 1, 2, 3]]);
        h.set_loads(VertexLoads::from_columns(vec![
            vec![3.0, 1.0, 1.0, 1.0],  // primary
            vec![8.0, 2.0, 4.0, 16.0], // bytes
        ]));
        let part = vec![0, 0, 1, 1];
        let loads = part_loads(&h, &part, 2);
        assert_eq!(loads[0], part_weights(&h, &part, 2));
        assert_eq!(loads[0], vec![4.0, 2.0]);
        assert_eq!(loads[1], vec![10.0, 20.0]);
        assert_eq!(aux_part_loads(&h, &part, 2), vec![vec![10.0, 20.0]]);
        let imb = imbalance_per_constraint(&h, &part, 2);
        assert_eq!(imb[0], imbalance(&h, &part, 2));
        assert!((imb[1] - 20.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn aux_part_loads_empty_at_arity_one() {
        let h = Hypergraph::from_nets_unit(3, &[vec![0, 1, 2]]);
        let part = vec![0, 1, 0];
        assert!(aux_part_loads(&h, &part, 2).is_empty());
        assert_eq!(imbalance_per_constraint(&h, &part, 2).len(), 1);
    }

    #[test]
    fn perfectly_balanced_imbalance_is_one() {
        assert_eq!(imbalance_of_weights(&[2.0, 2.0, 2.0]), 1.0);
        assert_eq!(imbalance_of_weights(&[]), 1.0);
        assert_eq!(imbalance_of_weights(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn edge_cut_counts_each_edge_once() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)]);
        let part = vec![0, 0, 1];
        assert_eq!(edge_cut(&g, &part, 2), 3.0 + 4.0);
    }

    #[test]
    fn migration_volume_from_paper_example() {
        // Figure 1 (right): vertices 3 and 6 move, each of size 3 ⇒ 6.
        let sizes = vec![3.0; 9];
        let old = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let mut new = old.clone();
        new[2] = 1; // paper's vertex 3
        new[5] = 2; // paper's vertex 6
        assert_eq!(migration_volume(&sizes, &old, &new), 6.0);
        assert_eq!(moved_vertex_count(&old, &new), 2);
    }

    #[test]
    fn graph_part_weights_match() {
        let g = CsrGraph::from_edges_unit(4, &[(0, 1), (2, 3)]);
        let part = vec![0, 1, 0, 1];
        assert_eq!(graph_part_weights(&g, &part, 2), vec![2.0, 2.0]);
        assert_eq!(graph_imbalance(&g, &part, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "out-of-range part")]
    fn out_of_range_part_panics() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        part_weights(&h, &[0, 5], 2);
    }

    /// Empty nets (zero pins) have connectivity 0 and contribute nothing.
    #[test]
    fn empty_nets_contribute_nothing() {
        let h = Hypergraph::from_nets_unit(4, &[vec![], vec![0, 3], vec![]]);
        let part = vec![0, 0, 1, 1];
        assert_eq!(connectivities(&h, &part, 2), vec![0, 2, 0]);
        assert_eq!(cutsize_connectivity(&h, &part, 2), 1.0);
    }

    /// Single-pin nets can never be cut: connectivity 1, zero cut.
    #[test]
    fn single_pin_nets_are_never_cut() {
        let h = Hypergraph::from_nets(3, &[vec![0], vec![1], vec![2]], vec![9.0, 9.0, 9.0]);
        let part = vec![0, 1, 2];
        assert_eq!(connectivities(&h, &part, 3), vec![1, 1, 1]);
        assert_eq!(cutsize_connectivity(&h, &part, 3), 0.0);
        assert_eq!(cutsize(&h, &part, 3, CutMetric::CutNet), 0.0);
    }

    /// Zero total vertex weight: imbalance degrades gracefully to 1.0.
    #[test]
    fn zero_total_weight_imbalance_is_one() {
        let mut h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2, 3]]);
        for v in 0..4 {
            h.set_vertex_weight(v, 0.0);
        }
        let part = vec![0, 1, 0, 1];
        assert_eq!(imbalance(&h, &part, 2), 1.0);
    }

    /// A hypergraph with no nets at all: zero cut.
    #[test]
    fn netless_hypergraph_has_zero_cut() {
        let h = Hypergraph::from_nets_unit(5, &[]);
        let part = vec![0, 1, 0, 1, 0];
        assert_eq!(cutsize_connectivity(&h, &part, 2), 0.0);
    }
}
