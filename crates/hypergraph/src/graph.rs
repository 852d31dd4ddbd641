//! Symmetric weighted graphs in compressed sparse row form.
//!
//! The ParMETIS-like baseline partitioner operates on graphs; the paper's
//! test problems (Table 1) are all structurally symmetric, so each dataset
//! exists both as a [`CsrGraph`] and, through [`crate::convert`], as a
//! hypergraph.

use std::fmt;

/// An undirected graph with edge weights, vertex weights and vertex sizes,
/// stored in CSR form. Every edge `{u, v}` appears in both adjacency
/// lists with the same weight.
#[derive(Clone, PartialEq)]
pub struct CsrGraph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
    adjwgt: Vec<f64>,
    vwgt: Vec<f64>,
    vsize: Vec<f64>,
}

impl CsrGraph {
    /// Builds a graph from an undirected edge list. Each `(u, v, w)` is
    /// inserted once regardless of orientation; parallel edges have their
    /// weights summed; self-loops are dropped.
    pub fn from_edges(num_vertices: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut b = GraphBuilder::new(num_vertices);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Builds a graph from an unweighted undirected edge list.
    pub fn from_edges_unit(num_vertices: usize, edges: &[(usize, usize)]) -> Self {
        let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_edges(num_vertices, &weighted)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges (each counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// The weights of the edges incident to `v`, aligned with
    /// [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: usize) -> &[f64] {
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Computational weight of `v`.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> f64 {
        self.vwgt[v]
    }

    /// Migration data size of `v`.
    #[inline]
    pub fn vertex_size(&self, v: usize) -> f64 {
        self.vsize[v]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[f64] {
        &self.vwgt
    }

    /// All vertex sizes.
    #[inline]
    pub fn vertex_sizes(&self) -> &[f64] {
        &self.vsize
    }

    /// Sets the weight of `v`.
    pub fn set_vertex_weight(&mut self, v: usize, w: f64) {
        assert!(w >= 0.0);
        self.vwgt[v] = w;
    }

    /// Sets the migration size of `v`.
    pub fn set_vertex_size(&mut self, v: usize, s: f64) {
        assert!(s >= 0.0);
        self.vsize[v] = s;
    }

    /// Replaces all vertex weights.
    pub fn set_vertex_weights(&mut self, w: Vec<f64>) {
        assert_eq!(w.len(), self.num_vertices());
        self.vwgt = w;
    }

    /// Replaces all vertex sizes.
    pub fn set_vertex_sizes(&mut self, s: Vec<f64>) {
        assert_eq!(s.len(), self.num_vertices());
        self.vsize = s;
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Degree statistics as reported in Table 1 of the paper.
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.num_vertices();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                avg: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        for v in 0..n {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
        }
        DegreeStats {
            min,
            max,
            avg: self.adjncy.len() as f64 / n as f64,
        }
    }

    /// Checks structural invariants (CSR shape, symmetry, no self-loops).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.xadj.len() != n + 1 {
            return Err("xadj length must be num_vertices + 1".into());
        }
        if self.adjncy.len() != self.adjwgt.len() {
            return Err("adjncy and adjwgt must be parallel arrays".into());
        }
        if self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err("xadj must be non-decreasing".into());
        }
        if *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err("xadj must end at adjncy length".into());
        }
        for v in 0..n {
            for (&u, &w) in self.neighbors(v).iter().zip(self.edge_weights(v)) {
                if u >= n {
                    return Err(format!("vertex {v} has out-of-range neighbor {u}"));
                }
                if u == v {
                    return Err(format!("vertex {v} has a self-loop"));
                }
                // Symmetry: u must list v with equal weight.
                let back = self
                    .neighbors(u)
                    .iter()
                    .position(|&x| x == v)
                    .ok_or_else(|| format!("edge {v}-{u} missing reverse direction"))?;
                if (self.edge_weights(u)[back] - w).abs() > 1e-9 {
                    return Err(format!("edge {v}-{u} has asymmetric weight"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

/// Min / max / average vertex degree, as in Table 1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree over all vertices.
    pub min: usize,
    /// Maximum degree over all vertices.
    pub max: usize,
    /// Average degree (`2|E| / |V|`).
    pub avg: f64,
}

/// Incremental graph constructor that symmetrizes, merges parallel edges
/// (summing weights) and drops self-loops.
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(usize, usize, f64)>,
    vwgt: Vec<f64>,
    vsize: Vec<f64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_vertices` vertices with unit
    /// weights and sizes.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            vwgt: vec![1.0; num_vertices],
            vsize: vec![1.0; num_vertices],
        }
    }

    /// Adds an undirected edge. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or negative weight.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "edge endpoint out of range"
        );
        assert!(w >= 0.0, "edge weight must be non-negative");
        if u != v {
            self.edges.push((u.min(v), u.max(v), w));
        }
    }

    /// Sets the computational weight of a vertex.
    pub fn set_vertex_weight(&mut self, v: usize, w: f64) {
        assert!(w >= 0.0);
        self.vwgt[v] = w;
    }

    /// Sets the migration size of a vertex.
    pub fn set_vertex_size(&mut self, v: usize, s: f64) {
        assert!(s >= 0.0);
        self.vsize[v] = s;
    }

    /// Finalizes the CSR structure.
    pub fn build(mut self) -> CsrGraph {
        // Deduplicate: sort canonical (u <= v) edges, merge weights.
        self.edges.sort_unstable_by_key(|e| (e.0, e.1));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        let n = self.num_vertices;
        let mut xadj = vec![0usize; n + 1];
        for &(u, v, _) in &merged {
            xadj[u + 1] += 1;
            xadj[v + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut adjncy = vec![0usize; merged.len() * 2];
        let mut adjwgt = vec![0f64; merged.len() * 2];
        let mut cursor = xadj.clone();
        for &(u, v, w) in &merged {
            adjncy[cursor[u]] = v;
            adjwgt[cursor[u]] = w;
            cursor[u] += 1;
            adjncy[cursor[v]] = u;
            adjwgt[cursor[v]] = w;
            cursor[v] += 1;
        }

        CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt: self.vwgt,
            vsize: self.vsize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges_unit(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn construction() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        g.validate().unwrap();
    }

    #[test]
    fn parallel_edges_merge_weights() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1.0), (1, 0, 2.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weights(0), &[3.5]);
        assert_eq!(g.edge_weights(1), &[3.5]);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_dropped() {
        let g = CsrGraph::from_edges(3, &[(0, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn degree_stats() {
        let g = CsrGraph::from_edges_unit(4, &[(0, 1), (0, 2), (0, 3)]);
        let s = g.degree_stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert!((s.avg - 1.5).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_edges_unit(5, &[(0, 1)]);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[usize]);
        g.validate().unwrap();
    }

    #[test]
    fn vertex_weight_updates() {
        let mut g = path4();
        g.set_vertex_weight(2, 6.0);
        g.set_vertex_size(2, 2.0);
        assert_eq!(g.vertex_weight(2), 6.0);
        assert_eq!(g.vertex_size(2), 2.0);
        assert_eq!(g.total_vertex_weight(), 9.0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges_unit(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }
}
