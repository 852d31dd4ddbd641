//! Parameterized generators reproducing the regimes of the paper's five
//! test datasets (Table 1).
//!
//! | Name      | \|V\|     | \|E\|      | deg min/max/avg | Application        |
//! |-----------|-----------|------------|-----------------|--------------------|
//! | xyce680s  | 682,712   | 823,232    | 1 / 209 / 2.4   | VLSI design        |
//! | 2DLipid   | 4,368     | 2,793,988  | 396/1984/1279.3 | Polymer DFT        |
//! | auto      | 448,695   | 3,314,611  | 4 / 37 / 14.8   | Structural analysis|
//! | apoa1-10  | 92,224    | 17,100,850 | 54 / 503 /370.9 | Molecular dynamics |
//! | cage14    | 1,505,785 | 13,565,176 | 3 / 41 / 18.0   | DNA electrophoresis|
//!
//! Each generator accepts a `scale ∈ (0, 1]` that shrinks the vertex
//! count. Sparse datasets (xyce680s, auto, cage14, apoa1-10) hold their
//! average degree constant under scaling — degree there is a physical
//! property (fanout, mesh valence, interaction cutoff). The dense
//! 2DLipid holds its *density* (avg degree / \|V\|, ≈29%) constant
//! instead, since its regime is "a third of the domain interacts".

use dlb_hypergraph::{CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's datasets to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Sparse VLSI circuit: tree-like with preferential-attachment hubs.
    Xyce680s,
    /// Dense 2D polymer system: geometric graph with a huge radius.
    Lipid2D,
    /// 3D structural-analysis mesh: geometric graph, valence ~15.
    Auto,
    /// Molecular dynamics neighbor lists: 3D geometric, valence ~371.
    Apoa1_10,
    /// DNA electrophoresis matrix: near-regular random graph, valence ~18.
    Cage14,
}

impl DatasetKind {
    /// All five datasets in the paper's Table 1 order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Xyce680s,
        DatasetKind::Lipid2D,
        DatasetKind::Auto,
        DatasetKind::Apoa1_10,
        DatasetKind::Cage14,
    ];

    /// The dataset name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Xyce680s => "xyce680s",
            DatasetKind::Lipid2D => "2DLipid",
            DatasetKind::Auto => "auto",
            DatasetKind::Apoa1_10 => "apoa1-10",
            DatasetKind::Cage14 => "cage14",
        }
    }

    /// Full-scale vertex count from Table 1.
    pub fn full_vertices(self) -> usize {
        match self {
            DatasetKind::Xyce680s => 682_712,
            DatasetKind::Lipid2D => 4_368,
            DatasetKind::Auto => 448_695,
            DatasetKind::Apoa1_10 => 92_224,
            DatasetKind::Cage14 => 1_505_785,
        }
    }

    /// Full-scale edge count from Table 1.
    pub fn full_edges(self) -> usize {
        match self {
            DatasetKind::Xyce680s => 823_232,
            DatasetKind::Lipid2D => 2_793_988,
            DatasetKind::Auto => 3_314_611,
            DatasetKind::Apoa1_10 => 17_100_850,
            DatasetKind::Cage14 => 13_565_176,
        }
    }

    /// Full-scale average degree (`2|E|/|V|`).
    pub fn full_avg_degree(self) -> f64 {
        2.0 * self.full_edges() as f64 / self.full_vertices() as f64
    }

    /// The paper's application-area column.
    pub fn application(self) -> &'static str {
        match self {
            DatasetKind::Xyce680s => "VLSI design",
            DatasetKind::Lipid2D => "Polymer DFT",
            DatasetKind::Auto => "Structural analysis",
            DatasetKind::Apoa1_10 => "Molecular dynamics",
            DatasetKind::Cage14 => "DNA electrophoresis",
        }
    }
}

/// A generated dataset: the graph plus its provenance.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which regime this emulates.
    pub kind: DatasetKind,
    /// The scale it was generated at.
    pub scale: f64,
    /// The generated graph (unit vertex weights and sizes).
    pub graph: CsrGraph,
}

impl Dataset {
    /// Generates the dataset at `scale ∈ (0, 1]` with the given seed.
    ///
    /// # Panics
    /// Panics if `scale` is outside `(0, 1]`.
    pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((kind.full_vertices() as f64 * scale).round() as usize).max(16);
        let mut rng = StdRng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9));
        let graph = match kind {
            DatasetKind::Xyce680s => sparse_circuit(n, kind.full_avg_degree(), 209, &mut rng),
            DatasetKind::Lipid2D => {
                // Density regime: avg degree is ~29% of |V|.
                let density = kind.full_avg_degree() / kind.full_vertices() as f64;
                let avg_deg = (density * n as f64).max(4.0);
                geometric_torus(n, 2, avg_deg, &mut rng)
            }
            DatasetKind::Auto => geometric_torus(n, 3, kind.full_avg_degree(), &mut rng),
            DatasetKind::Apoa1_10 => {
                // Physical cutoff: constant valence, capped below |V|.
                let avg_deg = kind.full_avg_degree().min(n as f64 * 0.5);
                geometric_torus(n, 3, avg_deg, &mut rng)
            }
            DatasetKind::Cage14 => near_regular(n, kind.full_avg_degree(), &mut rng),
        };
        Dataset { kind, scale, graph }
    }
}

/// Sparse circuit generator: a random spanning tree (every vertex
/// reachable, min degree 1) plus preferential-attachment extras that
/// create the hub distribution (max degree ~200 at full scale).
fn sparse_circuit(n: usize, avg_deg: f64, hub_cap: usize, rng: &mut StdRng) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    // Endpoint pool for preferential attachment; seeded with the tree.
    let mut pool: Vec<usize> = Vec::with_capacity((avg_deg as usize + 1) * n);
    let mut degree = vec![0usize; n];
    let connect = |b: &mut GraphBuilder,
                   degree: &mut Vec<usize>,
                   pool: &mut Vec<usize>,
                   u: usize,
                   v: usize| {
        b.add_edge(u, v, 1.0);
        degree[u] += 1;
        degree[v] += 1;
        pool.push(u);
        pool.push(v);
    };
    for v in 1..n {
        let u = rng.gen_range(0..v);
        connect(&mut b, &mut degree, &mut pool, u, v);
    }
    // Extra edges to reach the target average degree, preferentially to
    // already-popular endpoints (capped so hubs stay realistic).
    let target_edges = (avg_deg * n as f64 / 2.0).round() as usize;
    let extra = target_edges.saturating_sub(n - 1);
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        // Preferential endpoint: sample from the pool, skip saturated hubs.
        let mut v = pool[rng.gen_range(0..pool.len())];
        if degree[v] >= hub_cap {
            v = rng.gen_range(0..n);
        }
        if u != v {
            connect(&mut b, &mut degree, &mut pool, u, v);
        }
    }
    b.build()
}

/// Random geometric graph on a `dim`-dimensional unit torus with the
/// radius chosen to hit `avg_deg` expected neighbors, built with a cell
/// grid so construction is near-linear in the number of edges.
fn geometric_torus(n: usize, dim: usize, avg_deg: f64, rng: &mut StdRng) -> CsrGraph {
    assert!(dim == 2 || dim == 3, "2D or 3D only");
    // Expected neighbors = n * volume(ball(r)).
    let r = if dim == 2 {
        (avg_deg / (n as f64 * std::f64::consts::PI)).sqrt()
    } else {
        (avg_deg * 3.0 / (n as f64 * 4.0 * std::f64::consts::PI)).cbrt()
    };
    let r = r.min(0.49); // torus wraparound sanity
    let points: Vec<[f64; 3]> = (0..n)
        .map(|_| {
            [
                rng.gen::<f64>(),
                rng.gen::<f64>(),
                if dim == 3 { rng.gen::<f64>() } else { 0.0 },
            ]
        })
        .collect();

    // Cell grid with cell size >= r.
    let cells_per_axis = ((1.0 / r).floor() as usize).clamp(1, 512);
    let cell_of = |x: f64| ((x * cells_per_axis as f64) as usize).min(cells_per_axis - 1);
    let zdim = if dim == 3 { cells_per_axis } else { 1 };
    let cell_index = |p: &[f64; 3]| {
        let cx = cell_of(p[0]);
        let cy = cell_of(p[1]);
        let cz = if dim == 3 { cell_of(p[2]) } else { 0 };
        (cz * cells_per_axis + cy) * cells_per_axis + cx
    };
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells_per_axis * cells_per_axis * zdim];
    for (v, p) in points.iter().enumerate() {
        buckets[cell_index(p)].push(v);
    }

    let torus_d2 = |a: &[f64; 3], b: &[f64; 3]| {
        let mut d2 = 0.0;
        for i in 0..dim {
            let mut d = (a[i] - b[i]).abs();
            if d > 0.5 {
                d = 1.0 - d;
            }
            d2 += d * d;
        }
        d2
    };

    let r2 = r * r;
    let mut b = GraphBuilder::new(n);
    let reach = ((r * cells_per_axis as f64).ceil() as isize).max(1);
    let zreach = if dim == 3 { reach } else { 0 };
    let m = cells_per_axis as isize;
    for v in 0..n {
        let p = &points[v];
        let cx = cell_of(p[0]) as isize;
        let cy = cell_of(p[1]) as isize;
        let cz = if dim == 3 { cell_of(p[2]) as isize } else { 0 };
        for dz in -zreach..=zreach {
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    let nx = (cx + dx).rem_euclid(m) as usize;
                    let ny = (cy + dy).rem_euclid(m) as usize;
                    let nz = if dim == 3 {
                        (cz + dz).rem_euclid(m) as usize
                    } else {
                        0
                    };
                    let idx = (nz * cells_per_axis + ny) * cells_per_axis + nx;
                    for &u in &buckets[idx] {
                        if u > v && torus_d2(p, &points[u]) <= r2 {
                            b.add_edge(v, u, 1.0);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Near-regular random graph: a ring (degree ≥ 2 guaranteed) plus random
/// edges up to the target average degree, giving a tight, low-variance
/// degree distribution like cage14's (3..41 around 18).
fn near_regular(n: usize, avg_deg: f64, rng: &mut StdRng) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, 1.0);
    }
    let target_edges = (avg_deg * n as f64 / 2.0).round() as usize;
    // Spread extras evenly: each vertex draws a similar number of
    // partners, keeping the distribution concentrated.
    let extra = target_edges.saturating_sub(n);
    let per_vertex = extra / n + 1;
    let mut added = 0usize;
    'outer: for round in 0..per_vertex {
        for v in 0..n {
            if added >= extra {
                break 'outer;
            }
            let _ = round;
            let u = rng.gen_range(0..n);
            if u != v {
                b.add_edge(v, u, 1.0);
                added += 1;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata_matches_paper() {
        assert_eq!(DatasetKind::Xyce680s.full_vertices(), 682_712);
        assert_eq!(DatasetKind::Cage14.full_edges(), 13_565_176);
        assert!((DatasetKind::Lipid2D.full_avg_degree() - 1279.3).abs() < 0.5);
        assert!((DatasetKind::Auto.full_avg_degree() - 14.8).abs() < 0.1);
        assert!((DatasetKind::Apoa1_10.full_avg_degree() - 370.9).abs() < 0.2);
        assert!((DatasetKind::Xyce680s.full_avg_degree() - 2.4).abs() < 0.1);
    }

    #[test]
    fn xyce_like_regime() {
        let d = Dataset::generate(DatasetKind::Xyce680s, 0.01, 1);
        let g = &d.graph;
        let s = g.degree_stats();
        assert!(g.num_vertices() >= 6_000);
        assert!((s.avg - 2.4).abs() < 0.5, "avg degree {}", s.avg);
        assert!(s.min >= 1);
        assert!(s.max >= 15, "expect hubs, max {}", s.max);
        assert!(s.max <= 250, "hubs capped, max {}", s.max);
        g.validate().unwrap();
    }

    #[test]
    fn lipid_like_is_dense() {
        let d = Dataset::generate(DatasetKind::Lipid2D, 0.125, 2);
        let g = &d.graph;
        let s = g.degree_stats();
        let density = s.avg / g.num_vertices() as f64;
        // Full-scale density is ~0.293.
        assert!((density - 0.29).abs() < 0.1, "density {density}");
        assert!(s.min > 0);
    }

    #[test]
    fn auto_like_mesh_valence() {
        let d = Dataset::generate(DatasetKind::Auto, 0.01, 3);
        let s = d.graph.degree_stats();
        assert!((s.avg - 14.8).abs() < 4.0, "avg {}", s.avg);
        assert!(s.max < 80, "geometric max degree {}", s.max);
    }

    #[test]
    fn cage_like_tight_distribution() {
        let d = Dataset::generate(DatasetKind::Cage14, 0.005, 4);
        let s = d.graph.degree_stats();
        assert!((s.avg - 18.0).abs() < 3.0, "avg {}", s.avg);
        assert!(s.min >= 2, "min {}", s.min);
        assert!(s.max <= 60, "max {}", s.max);
    }

    #[test]
    fn apoa_like_high_valence() {
        let d = Dataset::generate(DatasetKind::Apoa1_10, 0.02, 5);
        let s = d.graph.degree_stats();
        assert!((s.avg - 370.9).abs() < 80.0, "avg {}", s.avg);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetKind::Auto, 0.005, 7);
        let b = Dataset::generate(DatasetKind::Auto, 0.005, 7);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.neighbors(0), b.graph.neighbors(0));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(DatasetKind::Cage14, 0.002, 1);
        let b = Dataset::generate(DatasetKind::Cage14, 0.002, 2);
        assert_ne!(a.graph.neighbors(0), b.graph.neighbors(0));
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_panics() {
        let _ = Dataset::generate(DatasetKind::Auto, 0.0, 1);
    }

    #[test]
    fn from_matrix_market_roundtrip() {
        // A real Table 1 matrix enters as a `Dataset` through the
        // MatrixMarket reader, tagged with the regime it stands in for.
        let graph =
            dlb_hypergraph::io::read_matrix_market_graph("3 3 2\n1 2\n2 3\n".as_bytes()).unwrap();
        let d = Dataset {
            kind: DatasetKind::Auto,
            scale: 1.0,
            graph,
        };
        assert_eq!(d.graph.num_vertices(), 3);
        assert_eq!(d.graph.num_edges(), 2);
    }
}
