//! Property-based tests of the ParMETIS-like graph partitioner: valid
//! assignments, determinism, balance, and the adaptive repartitioner's
//! contract (old partition respected as the no-migration anchor).
//!
//! Cases are drawn from a seeded `StdRng` so every run exercises the
//! same instances (no external property-testing dependency is available
//! offline).

use dlb::graphpart::{adaptive_repart, partition_kway, AdaptiveConfig, GraphConfig};
use dlb::hypergraph::{metrics, CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Draws one random instance: a graph on `n ∈ [10, 70)` vertices with
/// `[n, 3n)` weighted edges, `k ∈ [2, 5)`, and a partitioner seed.
fn random_graph(rng: &mut StdRng) -> (CsrGraph, usize, u64) {
    let k = rng.gen_range(2usize..5);
    let n = rng.gen_range(10usize..70);
    let num_edges = rng.gen_range(n..3 * n);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let w = rng.gen_range(0.5f64..4.0);
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    let seed = rng.gen::<u64>();
    (b.build(), k, seed)
}

/// k-way scratch partitioning: complete, in range, deterministic, cut
/// correctly reported.
#[test]
fn kway_contract() {
    let mut rng = StdRng::seed_from_u64(0x6A1);
    for case in 0..CASES {
        let (g, k, seed) = random_graph(&mut rng);
        let cfg = GraphConfig::seeded(seed);
        let a = partition_kway(&g, k, &cfg);
        assert_eq!(a.part.len(), g.num_vertices(), "case {case}");
        assert!(a.part.iter().all(|&p| p < k), "case {case}");
        let cut = metrics::edge_cut(&g, &a.part, k);
        assert!((a.edge_cut - cut).abs() < 1e-9, "case {case}");
        let b = partition_kway(&g, k, &cfg);
        assert_eq!(a.part, b.part, "case {case}");
    }
}

/// Adaptive repartitioning from a balanced old partition: complete, in
/// range, and at tiny α it stays home (migration is the whole
/// objective).
#[test]
fn adaptive_contract() {
    let mut rng = StdRng::seed_from_u64(0xADA);
    for case in 0..CASES {
        let (g, k, seed) = random_graph(&mut rng);
        let n = g.num_vertices();
        let old: Vec<usize> = (0..n).map(|v| v % k).collect(); // balanced
        let cfg = AdaptiveConfig {
            base: GraphConfig::seeded(seed),
            alpha: 1e-9,
        };
        let r = adaptive_repart(&g, k, &old, &cfg);
        assert!(r.part.iter().all(|&p| p < k), "case {case}");
        // Unit weights, perfectly balanced old partition, negligible
        // edge-cut reward: nothing should move.
        assert_eq!(metrics::moved_vertex_count(&old, &r.part), 0, "case {case}");
    }
}

/// The adaptive repartitioner restores balance when the old partition is
/// skewed, under any α.
#[test]
fn adaptive_rebalances() {
    let mut rng = StdRng::seed_from_u64(0x4E8);
    for case in 0..CASES {
        let (g, k, seed) = random_graph(&mut rng);
        let n = g.num_vertices();
        let old = vec![0usize; n]; // everything on part 0
        let cfg = AdaptiveConfig {
            base: GraphConfig::seeded(seed),
            alpha: 10.0,
        };
        let r = adaptive_repart(&g, k, &old, &cfg);
        let avg = n as f64 / k as f64;
        let bound = (1.0 + cfg.base.epsilon) + 1.5 / avg;
        assert!(
            r.imbalance <= bound + 1e-9,
            "case {case}: imbalance {} > {bound} (n={n}, k={k})",
            r.imbalance
        );
    }
}

/// Edge-less graphs: both partitioners still balance by weight alone.
#[test]
fn partitioners_handle_edgeless_graphs() {
    let g = CsrGraph::from_edges_unit(24, &[]);
    let r = partition_kway(&g, 4, &GraphConfig::seeded(1));
    let w = metrics::graph_part_weights(&g, &r.part, 4);
    for (p, &wp) in w.iter().enumerate() {
        assert!((wp - 6.0).abs() <= 2.0, "part {p}: {wp}");
    }
    let old: Vec<usize> = (0..24).map(|v| v / 6).collect();
    let r = adaptive_repart(&g, 4, &old, &AdaptiveConfig::seeded(1.0, 2));
    assert_eq!(metrics::moved_vertex_count(&old, &r.part), 0);
}
