//! Lowering a quadtree mesh to the partitioning problem's graph and
//! hypergraph.
//!
//! * **Vertices** — one per leaf cell, in canonical cell order.
//! * **Vertex weight** — local work: a cell at level `ℓ` performs
//!   `2^(ℓ − base)` sub-timesteps per epoch step (standard AMR time
//!   sub-cycling), so finer cells are proportionally heavier.
//! * **Vertex size** — migration payload: the cell's state vector in
//!   bytes (`STATE_BYTES` = 40), the volume `dlb_core`'s
//!   migration service moves when the cell changes owner.
//! * **Graph edges** — one per face-adjacent leaf pair (the stencil
//!   couplings a finite-volume scheme exchanges fluxes over).
//! * **Nets** — the column-net model of that adjacency: net `v` pins
//!   `{v} ∪ face-neighbors(v)` with cost `STATE_BYTES`, so the k-1 cut
//!   is exactly the ghost-exchange volume per iteration in bytes.
//!
//! Weights, sizes, and net costs are all integer-valued `f64`s, which
//! keeps every downstream cost sum exact and order-independent.
//!
//! With [`AmrConfig::multi_constraint`] the hypergraph carries
//! two-constraint load vectors — constraint 0 the flops weight above,
//! constraint 1 the resident state bytes — so the partitioner balances
//! compute and memory footprint simultaneously. The two columns
//! genuinely diverge on an adapted mesh: flops grow like
//! `2^(ℓ − base)` with depth while every cell's state is the same
//! `STATE_BYTES`.

use dlb_hypergraph::convert::column_net_model;
use dlb_hypergraph::{CsrGraph, GraphBuilder, Hypergraph};

use crate::cell::{Cell, Direction};
use crate::mesh::QuadMesh;
use crate::AmrConfig;

/// Migration payload per cell in bytes: every cell's vertex size and
/// the cost of its net. Integer-valued, like every lowered weight.
pub(crate) const STATE_BYTES: f64 = 40.0;

/// One epoch's mesh, lowered.
#[derive(Clone, Debug)]
pub struct LoweredMesh {
    /// Face-adjacency graph (for the graph-based baselines).
    pub graph: CsrGraph,
    /// Column-net hypergraph of the face adjacency.
    pub hypergraph: Hypergraph,
    /// `cells[v]` is the leaf cell behind vertex `v`, in canonical order.
    pub cells: Vec<Cell>,
}

/// Lowers the current leaves of `mesh` under `cfg`'s work/payload model.
/// Vertex `v` is `mesh.leaves()[v]`; neighbor vertices come straight
/// from the mesh's leaf index.
pub(crate) fn lower(mesh: &QuadMesh, cfg: &AmrConfig) -> LoweredMesh {
    let cells = mesh.leaves().to_vec();
    let mut b = GraphBuilder::new(cells.len());
    for (v, &c) in cells.iter().enumerate() {
        b.set_vertex_weight(v, (1u64 << (c.level - mesh.base_level())) as f64);
        b.set_vertex_size(v, STATE_BYTES);
        // Scanning only +x and +y discovers every face-adjacent pair
        // exactly once: for a pair split across a face, the west/south
        // cell sees the east/north cell regardless of which is finer.
        for dir in [Direction::East, Direction::North] {
            mesh.for_each_neighbor_leaf(c, dir, |_, u| b.add_edge(v, u, 1.0));
        }
    }
    let graph = b.build();
    let mut hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
    // Two-constraint lowering: balance flops AND resident state bytes.
    // The flops column is exactly the scalar weights, so constraint 0 of
    // the multi-constraint hypergraph is bitwise the scalar lowering.
    if cfg.multi_constraint {
        let flops: Vec<f64> = (0..cells.len()).map(|v| graph.vertex_weight(v)).collect();
        let bytes = vec![STATE_BYTES; cells.len()];
        hypergraph.set_loads(dlb_hypergraph::VertexLoads::from_columns(vec![
            flops, bytes,
        ]));
    }
    LoweredMesh {
        graph,
        hypergraph,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample_mesh() -> QuadMesh {
        let mut m = QuadMesh::uniform(2, 5);
        let ind = |x: f64, y: f64| {
            let d2 = (x - 1.0f64 / 3.0).powi(2) + (y - 0.6f64).powi(2);
            (-d2 / (2.0 * 0.1 * 0.1)).exp()
        };
        m.adapt_to_stable(ind, 0.4, 0.1);
        m
    }

    #[test]
    fn uniform_mesh_lowers_to_a_grid() {
        let m = QuadMesh::uniform(2, 4);
        let low = lower(&m, &AmrConfig::default());
        assert_eq!(low.graph.num_vertices(), 16);
        // 4×4 grid: 2 * 4 * 3 = 24 interior faces.
        assert_eq!(low.graph.num_edges(), 24);
        assert_eq!(low.hypergraph.num_nets(), 16);
        low.hypergraph.validate().unwrap();
        for v in 0..16 {
            assert_eq!(low.graph.vertex_weight(v), 1.0, "uniform level ⇒ unit work");
        }
    }

    #[test]
    fn nets_exactly_match_face_adjacencies() {
        let m = sample_mesh();
        let cfg = AmrConfig::default();
        let low = lower(&m, &cfg);
        for (v, &c) in low.cells.iter().enumerate() {
            // Independently recompute the face neighbors from the mesh.
            let mut expect: BTreeSet<usize> = Direction::ALL
                .into_iter()
                .flat_map(|dir| m.neighbor_leaves(c, dir))
                .map(|n| low.cells.binary_search(&n).unwrap())
                .collect();
            expect.insert(v);
            let got: BTreeSet<usize> = low.hypergraph.net(v).iter().map(|&u| u as usize).collect();
            assert_eq!(got, expect, "net of cell {c:?}");
            assert_eq!(low.hypergraph.net_cost(v), STATE_BYTES);
        }
    }

    #[test]
    fn multi_constraint_lowering_diverges_bytes_from_flops() {
        let m = sample_mesh();
        let cfg = AmrConfig {
            multi_constraint: true,
            ..AmrConfig::default()
        };
        let low = lower(&m, &cfg);
        let scalar = lower(&m, &AmrConfig::default());
        assert_eq!(scalar.hypergraph.load_arity(), 1);
        assert_eq!(low.hypergraph.load_arity(), 2);
        // Constraint 0 is bitwise the scalar lowering's weights.
        assert_eq!(
            low.hypergraph.loads().scalar(),
            scalar.hypergraph.loads().scalar()
        );
        for (v, &c) in low.cells.iter().enumerate() {
            assert_eq!(
                low.hypergraph.vertex_load(v, 0),
                (1u64 << (c.level - m.base_level())) as f64
            );
            assert_eq!(low.hypergraph.vertex_load(v, 1), STATE_BYTES);
        }
        // An adapted mesh has refined cells, so the columns are not
        // proportional: flops vary with level, bytes do not.
        let flops = low.hypergraph.loads().constraint(0);
        assert!(flops.iter().any(|&w| w != flops[0]), "mesh must be adapted");
    }

    #[test]
    fn graph_adjacency_is_symmetric_across_levels() {
        let m = sample_mesh();
        let low = lower(&m, &AmrConfig::default());
        let g = &low.graph;
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v), "edge {v}-{u} one-sided");
            }
        }
    }

    #[test]
    fn weights_encode_subcycling() {
        let m = sample_mesh();
        let low = lower(&m, &AmrConfig::default());
        for (v, &c) in low.cells.iter().enumerate() {
            let expect = (1u64 << (c.level - m.base_level())) as f64;
            assert_eq!(low.graph.vertex_weight(v), expect);
            assert_eq!(low.hypergraph.vertex_weight(v), expect);
        }
        let max_w = low
            .cells
            .iter()
            .enumerate()
            .map(|(v, _)| low.graph.vertex_weight(v) as u64)
            .max()
            .unwrap();
        assert!(max_w >= 8, "refined cells are heavier ({max_w})");
    }
}
