//! Coarse partitioning for graphs: randomized greedy graph growing (GGG)
//! with a best-of-N wrapper, mirroring METIS's coarse phase.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dlb_hypergraph::{metrics, CsrGraph, PartId, PartTargets};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const UNASSIGNED: usize = usize::MAX;

struct Cand {
    affinity: f64,
    v: usize,
}
impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.affinity
            .total_cmp(&other.affinity)
            .then_with(|| other.v.cmp(&self.v))
    }
}

/// One greedy-graph-growing attempt.
fn greedy_growing(g: &CsrGraph, targets: &PartTargets, rng: &mut StdRng) -> Vec<PartId> {
    let n = g.num_vertices();
    let k = targets.k();
    let mut part = vec![UNASSIGNED; n];
    let mut weights = vec![0.0f64; k];
    let mut affinity = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut cursor = 0usize;

    for p in 0..k.saturating_sub(1) {
        affinity.iter_mut().for_each(|a| *a = 0.0);
        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        while weights[p] < targets.target[p] {
            let next = loop {
                match heap.pop() {
                    Some(c) => {
                        if part[c.v] != UNASSIGNED {
                            continue;
                        }
                        if (c.affinity - affinity[c.v]).abs() > 1e-12 {
                            heap.push(Cand {
                                affinity: affinity[c.v],
                                v: c.v,
                            });
                            continue;
                        }
                        break Some(c.v);
                    }
                    None => break None,
                }
            };
            let v = match next {
                Some(v) => v,
                None => {
                    while cursor < order.len() && part[order[cursor]] != UNASSIGNED {
                        cursor += 1;
                    }
                    match order.get(cursor) {
                        Some(&v) => v,
                        None => break,
                    }
                }
            };
            part[v] = p;
            weights[p] += g.vertex_weight(v);
            for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                if part[u] == UNASSIGNED {
                    affinity[u] += w;
                    heap.push(Cand {
                        affinity: affinity[u],
                        v: u,
                    });
                }
            }
        }
    }
    for v in 0..n {
        if part[v] == UNASSIGNED {
            let w = g.vertex_weight(v);
            let last = k - 1;
            let p = if weights[last] + w <= targets.cap(last) {
                last
            } else {
                (0..k)
                    .min_by(|&a, &b| {
                        (weights[a] + w - targets.target[a])
                            .total_cmp(&(weights[b] + w - targets.target[b]))
                    })
                    .unwrap()
            };
            part[v] = p;
            weights[p] += w;
        }
    }
    part
}

/// Scores an assignment: edge cut plus a heavy penalty for cap overshoot.
fn score(g: &CsrGraph, part: &[PartId], targets: &PartTargets) -> f64 {
    let k = targets.k();
    let cut = metrics::edge_cut(g, part, k);
    let weights = metrics::graph_part_weights(g, part, k);
    let violation = (targets.violation(&weights) - targets.epsilon).max(0.0);
    let total_w: f64 = (0..g.num_vertices())
        .map(|v| g.edge_weights(v).iter().sum::<f64>())
        .sum();
    cut + violation * (1.0 + total_w)
}

/// Best-of-N greedy graph growing.
pub(crate) fn initial_graph_partition(
    g: &CsrGraph,
    targets: &PartTargets,
    attempts: usize,
    rng: &mut StdRng,
) -> Vec<PartId> {
    let mut best: Option<(f64, Vec<PartId>)> = None;
    for _ in 0..attempts.max(1) {
        let mut attempt_rng = StdRng::seed_from_u64(rng.gen());
        let part = greedy_growing(g, targets, &mut attempt_rng);
        let s = score(g, &part, targets);
        if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
            best = Some((s, part));
        }
    }
    best.expect("at least one attempt").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_assignment() {
        let g = crate::tests::random_graph(50, 120, 1);
        let t = PartTargets::uniform(g.total_vertex_weight(), 4, 0.05);
        let mut rng = StdRng::seed_from_u64(0);
        let part = initial_graph_partition(&g, &t, 4, &mut rng);
        assert_eq!(part.len(), 50);
        assert!(part.iter().all(|&p| p < 4));
    }

    #[test]
    fn grows_connected_regions_on_grid() {
        let g = crate::tests::grid_graph(8, 8);
        let t = PartTargets::uniform(64.0, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        let part = initial_graph_partition(&g, &t, 8, &mut rng);
        let cut = metrics::edge_cut(&g, &part, 2);
        // A good bisection of an 8x8 grid cuts ~8; grown regions should
        // be far below the random expectation (~56).
        assert!(cut <= 20.0, "cut {cut}");
    }

    #[test]
    fn respects_targets_roughly() {
        let g = crate::tests::grid_graph(10, 10);
        let t = PartTargets::proportional(100.0, &[3, 1], 0.05);
        let mut rng = StdRng::seed_from_u64(4);
        let part = initial_graph_partition(&g, &t, 4, &mut rng);
        let w = metrics::graph_part_weights(&g, &part, 2);
        assert!((w[0] - 75.0).abs() <= 8.0, "weights {w:?}");
    }
}
