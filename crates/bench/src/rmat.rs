//! Seeded RMAT hypergraph generator for large-scale benchmarks.
//!
//! Produces the column-net hypergraph of a directed RMAT graph
//! (Chakrabarti et al.): `2^scale` vertices, `edge_factor * 2^scale`
//! edges drawn by recursive quadrant descent with the Graph500
//! probabilities `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`. The skewed
//! quadrant weights yield a power-law degree distribution — a few
//! vertices accumulate very large nets while most stay small, which is
//! exactly the workload shape that stresses chunked parallel kernels
//! (uneven per-chunk cost) far more than the bundled mesh-like
//! datasets do.
//!
//! Each vertex `u` with at least one out-edge becomes one net
//! `{u} ∪ out(u)` of unit cost (the column-net model of the paper's
//! Section 2.1 applied to the transpose); out-degree-0 vertices emit no
//! net, and duplicate targets are deduplicated by the builder. The
//! generator is a pure function of `(scale, edge_factor, seed)` — same
//! arguments, bit-identical hypergraph — so benchmark inputs never need
//! to be checked in.

use dlb_hypergraph::{Hypergraph, HypergraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Graph500 RMAT quadrant probabilities (a, b, c); d is the remainder.
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// Generates the column-net hypergraph of a seeded RMAT graph with
/// `2^scale` vertices and `edge_factor * 2^scale` directed edges.
///
/// Deterministic: the result is a pure function of the arguments.
/// Self-loops are kept (they collapse into the source pin), duplicate
/// edges are deduplicated per net, and vertices without out-edges emit
/// no net, so `num_nets() <= num_vertices()`.
pub fn rmat_hypergraph(scale: u32, edge_factor: usize, seed: u64) -> Hypergraph {
    assert!(
        (1..usize::BITS).contains(&scale),
        "scale {scale} out of range"
    );
    let n: usize = 1 << scale;
    let num_edges = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);

    // Draw every edge by quadrant recursion, counting out-degrees as we
    // go so the adjacency can be laid out CSR-style in one pass.
    let mut sources = vec![0u32; num_edges];
    let mut targets = vec![0u32; num_edges];
    let mut out_degree = vec![0u32; n];
    for e in 0..num_edges {
        let (u, v) = rmat_edge(scale, &mut rng);
        sources[e] = u as u32;
        targets[e] = v as u32;
        out_degree[u] += 1;
    }

    // Prefix-sum into per-source slots, then scatter the targets.
    let mut offsets = vec![0usize; n + 1];
    for u in 0..n {
        offsets[u + 1] = offsets[u] + out_degree[u] as usize;
    }
    let mut cursor = offsets.clone();
    let mut adjacency = vec![0u32; num_edges];
    for e in 0..num_edges {
        let u = sources[e] as usize;
        adjacency[cursor[u]] = targets[e];
        cursor[u] += 1;
    }

    // One unit-cost net per source vertex: {u} ∪ out(u). The builder
    // deduplicates repeated pins (multi-edges, self-loops).
    let mut builder = HypergraphBuilder::new(n);
    let mut pins: Vec<usize> = Vec::new();
    for u in 0..n {
        let out = &adjacency[offsets[u]..offsets[u + 1]];
        if out.is_empty() {
            continue;
        }
        pins.clear();
        pins.push(u);
        pins.extend(out.iter().map(|&v| v as usize));
        builder.add_net(1.0, pins.iter().copied());
    }
    builder.build()
}

/// One RMAT edge: descend `scale` quadrant levels, narrowing the
/// adjacency matrix by half per level.
fn rmat_edge(scale: u32, rng: &mut StdRng) -> (usize, usize) {
    let mut u = 0usize;
    let mut v = 0usize;
    for _ in 0..scale {
        let r: f64 = rng.gen();
        let (ubit, vbit) = if r < RMAT_A {
            (0, 0)
        } else if r < RMAT_A + RMAT_B {
            (0, 1)
        } else if r < RMAT_A + RMAT_B + RMAT_C {
            (1, 0)
        } else {
            (1, 1)
        };
        u = (u << 1) | ubit;
        v = (v << 1) | vbit;
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_bit_identical() {
        let a = rmat_hypergraph(10, 8, 42);
        let b = rmat_hypergraph(10, 8, 42);
        assert!(
            a == b,
            "same (scale, edge_factor, seed) must reproduce the hypergraph"
        );
        a.validate().expect("valid hypergraph");
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat_hypergraph(10, 8, 42);
        let b = rmat_hypergraph(10, 8, 43);
        assert!(a != b, "different seeds should not collide");
    }

    #[test]
    fn degree_distribution_is_power_law_shaped() {
        let scale = 12u32;
        let h = rmat_hypergraph(scale, 8, 7);
        let n = 1usize << scale;
        assert_eq!(h.num_vertices(), n);
        // Not every vertex has out-edges under skewed quadrants, but
        // most of the graph must participate.
        assert!(
            h.num_nets() > n / 4,
            "only {} nets for {} vertices",
            h.num_nets(),
            n
        );
        assert!(h.num_nets() <= n);

        // Heavy tail: the largest net must dwarf the mean net size, and
        // the mean itself stays near edge_factor (dedup loses a bit).
        let sizes: Vec<usize> = (0..h.num_nets()).map(|j| h.net(j).len()).collect();
        let max = *sizes.iter().max().unwrap();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 2.0 && mean < 16.0, "mean net size {mean}");
        assert!(
            (max as f64) > 8.0 * mean,
            "expected a heavy tail: max net {max} vs mean {mean:.2}"
        );
        h.validate().expect("valid hypergraph");
    }
}
