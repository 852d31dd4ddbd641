//! Graph ⇄ hypergraph model conversions.
//!
//! The paper's datasets are structurally symmetric, so each can be fed to
//! both the graph-based baseline (ParMETIS-like) and the hypergraph
//! partitioner. The **column-net model** (Catalyurek & Aykanat, 1999) is
//! the standard hypergraph model of a sparse-matrix–vector computation:
//! one net per vertex `v` containing `v` and its neighbors, so the k-1 cut
//! of the hypergraph equals the application's true communication volume.

use crate::{CsrGraph, Hypergraph, HypergraphBuilder};

/// Column-net model: one net per vertex `v` whose pins are `{v} ∪ adj(v)`,
/// with net cost equal to the vertex's communication size (`comm_size`).
///
/// With `comm_size = |v| = 1` for every `v`, the k-1 cut of the resulting
/// hypergraph under a partition equals the number of (vertex, part) data
/// transfers in an SpMV-like computation — the paper's "communication
/// volume".
///
/// Vertex weights and sizes are copied from the graph.
pub fn column_net_model(g: &CsrGraph, comm_size: impl Fn(usize) -> f64) -> Hypergraph {
    let n = g.num_vertices();
    let mut b = HypergraphBuilder::new(n);
    for v in 0..n {
        b.set_vertex_weight(v, g.vertex_weight(v));
        b.set_vertex_size(v, g.vertex_size(v));
        let pins = std::iter::once(v).chain(g.neighbors(v).iter().copied());
        b.add_net(comm_size(v), pins);
    }
    b.build()
}

/// Column-net model with unit communication sizes.
pub fn column_net_model_unit(g: &CsrGraph) -> Hypergraph {
    column_net_model(g, |_| 1.0)
}

/// Clique expansion of a hypergraph into a graph: every net of size `s ≥ 2`
/// becomes a clique whose edges carry weight `c / (s − 1)`.
///
/// This is the standard (lossy) way to hand hypergraph-modeled problems to
/// a graph partitioner; the edge cut of the expansion approximates — but
/// does not equal — the k-1 cut, which is precisely the modeling error
/// the paper's hypergraph approach avoids.
pub fn clique_expansion(h: &Hypergraph) -> CsrGraph {
    let n = h.num_vertices();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for j in 0..h.num_nets() {
        let pins = h.net(j);
        let s = pins.len();
        if s < 2 {
            continue;
        }
        let w = h.net_cost(j) / (s - 1) as f64;
        for a in 0..s {
            for b in a + 1..s {
                edges.push((pins[a] as usize, pins[b] as usize, w));
            }
        }
    }
    let mut g = CsrGraph::from_edges(n, &edges);
    g.set_vertex_weights(h.loads().scalar().to_vec());
    g.set_vertex_sizes(h.vertex_sizes().to_vec());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{cutsize_connectivity, edge_cut};

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1-2 triangle, 2-3 tail.
        CsrGraph::from_edges_unit(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    /// Edge-net model: one two-pin net per undirected edge, with net
    /// cost equal to the edge weight, so the k-1 cut of the hypergraph
    /// equals the weighted edge cut of the graph.
    fn edge_net_model(g: &CsrGraph) -> Hypergraph {
        let mut b = HypergraphBuilder::new(g.num_vertices());
        for v in 0..g.num_vertices() {
            for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                if u > v {
                    b.add_net(w, [v, u]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn column_net_shape() {
        let g = triangle_plus_tail();
        let h = column_net_model_unit(&g);
        assert_eq!(h.num_nets(), 4);
        // Net of vertex 2 contains itself and all neighbors.
        let mut net2 = h.net(2).to_vec();
        net2.sort_unstable();
        assert_eq!(net2, vec![0, 1, 2, 3]);
        h.validate().unwrap();
    }

    #[test]
    fn column_net_cut_is_communication_volume() {
        // Path 0-1-2-3 split {0,1} | {2,3}: vertex 1's value is needed by
        // vertex 2's part and vice versa ⇒ volume 2.
        let g = CsrGraph::from_edges_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = column_net_model_unit(&g);
        let part = vec![0, 0, 1, 1];
        assert_eq!(cutsize_connectivity(&h, &part, 2), 2.0);
    }

    #[test]
    fn column_net_copies_weights() {
        let mut g = triangle_plus_tail();
        g.set_vertex_weight(1, 5.0);
        g.set_vertex_size(3, 2.0);
        let h = column_net_model_unit(&g);
        assert_eq!(h.vertex_weight(1), 5.0);
        assert_eq!(h.vertex_size(3), 2.0);
    }

    #[test]
    fn edge_net_cut_equals_edge_cut() {
        let g = triangle_plus_tail();
        let h = edge_net_model(&g);
        assert_eq!(h.num_nets(), g.num_edges());
        for part in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 0, 0, 1]] {
            assert_eq!(
                cutsize_connectivity(&h, &part, 2),
                edge_cut(&g, &part, 2),
                "edge-net k-1 cut must equal edge cut for {part:?}"
            );
        }
    }

    #[test]
    fn clique_expansion_roundtrip_on_two_pin_nets() {
        // A hypergraph of only 2-pin nets expands to the same graph.
        let g = triangle_plus_tail();
        let h = edge_net_model(&g);
        let g2 = clique_expansion(&h);
        assert_eq!(g2.num_edges(), g.num_edges());
        let part = vec![0, 1, 1, 0];
        assert_eq!(edge_cut(&g2, &part, 2), edge_cut(&g, &part, 2));
    }

    #[test]
    fn clique_expansion_weights() {
        // One net of 4 pins, cost 3 ⇒ 6 clique edges of weight 1 each.
        let h = Hypergraph::from_nets(4, &[vec![0, 1, 2, 3]], vec![3.0]);
        let g = clique_expansion(&h);
        assert_eq!(g.num_edges(), 6);
        assert!((g.edge_weights(0)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clique_expansion_skips_single_pin_nets() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0], vec![0, 1]]);
        let g = clique_expansion(&h);
        assert_eq!(g.num_edges(), 1);
    }
}
