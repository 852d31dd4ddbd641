//! Induced sub(hyper)graphs.
//!
//! The paper's *structural perturbation* workload deletes a different
//! random subset of vertices (with incident edges) each epoch, so the
//! epoch hypergraph `H^j` is an induced substructure of the base dataset.
//! These helpers build the induced structure and report the
//! new-index → old-index mapping needed to carry partition assignments,
//! weights and migration identities across epochs.

use crate::{CsrGraph, GraphBuilder, Hypergraph, HypergraphBuilder};

/// Result of an induced-subgraph extraction: the structure plus the
/// mapping from new (dense) vertex indices back to the base indices.
#[derive(Clone, Debug)]
pub struct InducedGraph {
    /// The induced graph on the kept vertices.
    pub graph: CsrGraph,
    /// `to_base[new_index] = base_index`.
    pub to_base: Vec<usize>,
    /// `from_base[base_index] = Some(new_index)` for kept vertices.
    pub from_base: Vec<Option<usize>>,
}

/// Result of an induced-subhypergraph extraction.
#[derive(Clone, Debug)]
pub struct InducedHypergraph {
    /// The induced hypergraph on the kept vertices.
    pub hypergraph: Hypergraph,
    /// `to_base[new_index] = base_index`.
    pub to_base: Vec<usize>,
    /// `from_base[base_index] = Some(new_index)` for kept vertices.
    pub from_base: Vec<Option<usize>>,
}

fn index_maps(keep: &[bool]) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut to_base = Vec::new();
    let mut from_base = vec![None; keep.len()];
    for (v, &k) in keep.iter().enumerate() {
        if k {
            from_base[v] = Some(to_base.len());
            to_base.push(v);
        }
    }
    (to_base, from_base)
}

/// Induced subgraph on the vertices with `keep[v] == true`. Edges with a
/// deleted endpoint are dropped; weights and sizes are copied.
pub fn induced_subgraph(g: &CsrGraph, keep: &[bool]) -> InducedGraph {
    assert_eq!(keep.len(), g.num_vertices());
    let (to_base, from_base) = index_maps(keep);
    let mut b = GraphBuilder::new(to_base.len());
    for (new_v, &old_v) in to_base.iter().enumerate() {
        b.set_vertex_weight(new_v, g.vertex_weight(old_v));
        b.set_vertex_size(new_v, g.vertex_size(old_v));
        for (&old_u, &w) in g.neighbors(old_v).iter().zip(g.edge_weights(old_v)) {
            if old_u > old_v {
                if let Some(new_u) = from_base[old_u] {
                    b.add_edge(new_v, new_u, w);
                }
            }
        }
    }
    InducedGraph {
        graph: b.build(),
        to_base,
        from_base,
    }
}

/// Induced subhypergraph on the vertices with `keep[v] == true`.
///
/// Deleted pins are removed from every net; nets left with **fewer than
/// two pins are dropped** (they can never be cut, so they carry no
/// information for partitioning), as are empty nets.
pub fn induced_subhypergraph(h: &Hypergraph, keep: &[bool]) -> InducedHypergraph {
    assert_eq!(keep.len(), h.num_vertices());
    let (to_base, from_base) = index_maps(keep);
    let mut b = HypergraphBuilder::new(to_base.len());
    for (new_v, &old_v) in to_base.iter().enumerate() {
        b.set_vertex_weight(new_v, h.vertex_weight(old_v));
        b.set_vertex_size(new_v, h.vertex_size(old_v));
    }
    // Auxiliary load columns restrict alongside the vertices (never
    // reached at arity 1, where the scalar copy above is complete).
    let arity = h.load_arity();
    if arity > 1 {
        let columns: Vec<Vec<f64>> = (0..arity)
            .map(|c| {
                to_base
                    .iter()
                    .map(|&old_v| h.vertex_load(old_v, c))
                    .collect()
            })
            .collect();
        b.set_loads(crate::VertexLoads::from_columns(columns));
    }
    let mut pins: Vec<usize> = Vec::new();
    for j in 0..h.num_nets() {
        pins.clear();
        pins.extend(h.net(j).iter().filter_map(|&v| from_base[v as usize]));
        if pins.len() >= 2 {
            b.add_net(h.net_cost(j), pins.iter().copied());
        }
    }
    InducedHypergraph {
        hypergraph: b.build(),
        to_base,
        from_base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_graph_drops_incident_edges() {
        // Square 0-1-2-3-0; drop vertex 2.
        let g = CsrGraph::from_edges_unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let keep = vec![true, true, false, true];
        let ind = induced_subgraph(&g, &keep);
        assert_eq!(ind.graph.num_vertices(), 3);
        assert_eq!(ind.graph.num_edges(), 2); // 0-1 and 3-0 survive
        assert_eq!(ind.to_base, vec![0, 1, 3]);
        assert_eq!(ind.from_base[3], Some(2));
        assert_eq!(ind.from_base[2], None);
        ind.graph.validate().unwrap();
    }

    #[test]
    fn induced_graph_copies_attributes() {
        let mut g = CsrGraph::from_edges_unit(3, &[(0, 1), (1, 2)]);
        g.set_vertex_weight(2, 9.0);
        g.set_vertex_size(2, 4.0);
        let ind = induced_subgraph(&g, &[false, true, true]);
        assert_eq!(ind.graph.vertex_weight(1), 9.0);
        assert_eq!(ind.graph.vertex_size(1), 4.0);
    }

    #[test]
    fn induced_hypergraph_drops_small_nets() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1, 2], vec![2, 3], vec![0, 3]]);
        // Dropping vertex 3 kills nets {2,3} and {0,3} (single pin left).
        let ind = induced_subhypergraph(&h, &[true, true, true, false]);
        assert_eq!(ind.hypergraph.num_vertices(), 3);
        assert_eq!(ind.hypergraph.num_nets(), 1);
        assert_eq!(ind.hypergraph.net(0), &[0, 1, 2]);
        ind.hypergraph.validate().unwrap();
    }

    #[test]
    fn keep_all_is_identity_shaped() {
        let h = Hypergraph::from_nets_unit(3, &[vec![0, 1], vec![1, 2]]);
        let ind = induced_subhypergraph(&h, &[true; 3]);
        assert_eq!(ind.hypergraph.num_vertices(), 3);
        assert_eq!(ind.hypergraph.num_nets(), 2);
        assert_eq!(ind.to_base, vec![0, 1, 2]);
    }

    #[test]
    fn keep_none_is_empty() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        let ind = induced_subhypergraph(&h, &[false, false]);
        assert_eq!(ind.hypergraph.num_vertices(), 0);
        assert_eq!(ind.hypergraph.num_nets(), 0);
    }

    #[test]
    fn net_costs_survive() {
        let h = Hypergraph::from_nets(3, &[vec![0, 1, 2]], vec![7.0]);
        let ind = induced_subhypergraph(&h, &[true, true, false]);
        assert_eq!(ind.hypergraph.net_cost(0), 7.0);
    }
}
