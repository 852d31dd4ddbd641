//! The B-tree mesh, lowering and epoch stream the hashed leaf index
//! replaced, kept as a differential oracle: leaves in a `BTreeSet`,
//! quartets grouped through a `BTreeMap` on every pass, neighbors
//! returned as a fresh `Vec`, vertices found by `binary_search`, deltas
//! diffed as two `BTreeSet`s and inherited parts read from a
//! `BTreeMap`. The test below drives it next to [`AmrStream`] and
//! [`QuadMesh`] and requires bit-equal output everywhere.

use std::collections::{BTreeMap, BTreeSet};

use dlb_hypergraph::convert::column_net_model;
use dlb_hypergraph::{GraphBuilder, PartId};

use crate::cell::{Cell, Direction};
use crate::feature::{indicator, seeded_features, Feature};
use crate::lower::{LoweredMesh, STATE_BYTES};
use crate::stream::{
    AmrDelta, AmrDeltaCell, AmrEpoch, COARSEN_THRESHOLD, NUM_FEATURES, REFINE_THRESHOLD, SIGMA,
    SPEED,
};
use crate::AmrConfig;

/// The leaf set of an adaptive quadtree, in a `BTreeSet`.
pub(crate) struct RefMesh {
    leaves: BTreeSet<Cell>,
    base_level: u8,
    max_level: u8,
}

impl RefMesh {
    pub(crate) fn uniform(base_level: u8, max_level: u8) -> Self {
        let side = 1u32 << base_level;
        let mut leaves = BTreeSet::new();
        for y in 0..side {
            for x in 0..side {
                leaves.insert(Cell {
                    level: base_level,
                    x,
                    y,
                });
            }
        }
        RefMesh {
            leaves,
            base_level,
            max_level,
        }
    }

    pub(crate) fn leaves(&self) -> Vec<Cell> {
        self.leaves.iter().copied().collect()
    }

    fn leaf_covering(&self, c: Cell) -> Option<Cell> {
        let mut cur = Some(c);
        while let Some(cell) = cur {
            if self.leaves.contains(&cell) {
                return Some(cell);
            }
            cur = cell.parent();
        }
        None
    }

    pub(crate) fn neighbor_leaves(&self, c: Cell, dir: Direction) -> Vec<Cell> {
        let Some(n) = c.neighbor(dir) else {
            return Vec::new();
        };
        if let Some(leaf) = self.leaf_covering(n) {
            return vec![leaf];
        }
        let mut out = Vec::new();
        self.collect_face_leaves(n, dir.opposite(), &mut out);
        out
    }

    fn collect_face_leaves(&self, region: Cell, face: Direction, out: &mut Vec<Cell>) {
        if self.leaves.contains(&region) {
            out.push(region);
            return;
        }
        if region.level >= self.max_level {
            return;
        }
        for child in region.face_children(face) {
            self.collect_face_leaves(child, face, out);
        }
    }

    pub(crate) fn adapt(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> bool {
        let mut changed = false;
        let mut marked: BTreeSet<Cell> = self
            .leaves
            .iter()
            .copied()
            .filter(|c| {
                let (cx, cy) = c.center();
                c.level < self.max_level && indicator(cx, cy) > refine_t
            })
            .collect();
        let mut worklist: Vec<Cell> = marked.iter().copied().collect();
        while let Some(c) = worklist.pop() {
            for dir in Direction::ALL {
                for n in self.neighbor_leaves(c, dir) {
                    if n.level < c.level && marked.insert(n) {
                        worklist.push(n);
                    }
                }
            }
        }
        for c in &marked {
            self.leaves.remove(c);
            for child in c.children() {
                self.leaves.insert(child);
            }
            changed = true;
        }
        let mut quartets: BTreeMap<Cell, usize> = BTreeMap::new();
        for c in &self.leaves {
            if c.level > self.base_level && !marked.contains(&c.parent().expect("level > 0")) {
                *quartets.entry(c.parent().expect("level > 0")).or_insert(0) += 1;
            }
        }
        for (parent, siblings) in quartets {
            if siblings != 4 {
                continue;
            }
            let quiet = parent.children().iter().all(|c| {
                let (cx, cy) = c.center();
                indicator(cx, cy) < coarsen_t
            });
            if !quiet {
                continue;
            }
            let child_level = parent.level + 1;
            let balanced = Direction::ALL.iter().all(|&dir| {
                self.neighbor_leaves(parent, dir)
                    .iter()
                    .all(|n| n.level <= child_level)
            });
            if !balanced {
                continue;
            }
            for c in parent.children() {
                self.leaves.remove(&c);
            }
            self.leaves.insert(parent);
            changed = true;
        }
        changed
    }

    /// The iteration cap of `QuadMesh::adapt_to_stable`.
    pub(crate) fn pass_cap(&self) -> usize {
        (self.max_level - self.base_level) as usize * 2 + 2
    }

    pub(crate) fn adapt_to_stable(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> usize {
        let cap = self.pass_cap();
        let mut passes = 0;
        while passes < cap && self.adapt(&indicator, refine_t, coarsen_t) {
            passes += 1;
        }
        passes
    }
}

/// Lowering with a `binary_search` vertex index.
pub(crate) fn ref_lower(mesh: &RefMesh, cfg: &AmrConfig) -> LoweredMesh {
    let cells = mesh.leaves();
    let index_of = |c: Cell| {
        cells
            .binary_search(&c)
            .expect("neighbor leaf not in leaf list")
    };
    let mut b = GraphBuilder::new(cells.len());
    for (v, &c) in cells.iter().enumerate() {
        b.set_vertex_weight(v, (1u64 << (c.level - mesh.base_level)) as f64);
        b.set_vertex_size(v, STATE_BYTES);
        for dir in [Direction::East, Direction::North] {
            for n in mesh.neighbor_leaves(c, dir) {
                b.add_edge(v, index_of(n), 1.0);
            }
        }
    }
    let graph = b.build();
    let mut hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
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

fn ref_adapt(mesh: &mut RefMesh, features: &[Feature]) {
    mesh.adapt_to_stable(
        |x, y| indicator(features, SIGMA, x, y),
        REFINE_THRESHOLD,
        COARSEN_THRESHOLD,
    );
}

/// The epoch stream over [`RefMesh`], with a `BTreeMap` of last parts.
pub(crate) struct RefStream {
    cfg: AmrConfig,
    mesh: RefMesh,
    features: Vec<Feature>,
    last_part: BTreeMap<Cell, PartId>,
}

impl RefStream {
    pub(crate) fn new(cfg: AmrConfig, seed: u64) -> Self {
        let mut mesh = RefMesh::uniform(cfg.base_level, cfg.max_level);
        let features = seeded_features(NUM_FEATURES, SPEED, seed);
        ref_adapt(&mut mesh, &features);
        RefStream {
            cfg,
            mesh,
            features,
            last_part: BTreeMap::new(),
        }
    }

    pub(crate) fn mesh(&self) -> &RefMesh {
        &self.mesh
    }

    pub(crate) fn initial_lowering(&self) -> LoweredMesh {
        ref_lower(&self.mesh, &self.cfg)
    }

    pub(crate) fn next_epoch(&mut self) -> AmrEpoch {
        for f in &mut self.features {
            f.advance();
        }
        ref_adapt(&mut self.mesh, &self.features);
        let low = ref_lower(&self.mesh, &self.cfg);
        let old_part = low.cells.iter().map(|&c| self.inherited_part(c)).collect();
        AmrEpoch {
            graph: low.graph,
            hypergraph: low.hypergraph,
            cells: low.cells,
            old_part,
        }
    }

    pub(crate) fn next_epoch_delta(&mut self) -> AmrDelta {
        let before: BTreeSet<Cell> = self.mesh.leaves.clone();
        for f in &mut self.features {
            f.advance();
        }
        ref_adapt(&mut self.mesh, &self.features);
        let after: BTreeSet<Cell> = self.mesh.leaves.clone();
        let removed: Vec<Cell> = before.difference(&after).copied().collect();
        let added_cells: Vec<Cell> = after.difference(&before).copied().collect();
        let mut dirty: BTreeSet<Cell> = added_cells.iter().copied().collect();
        for &c in removed.iter().chain(added_cells.iter()) {
            for dir in Direction::ALL {
                dirty.extend(self.mesh.neighbor_leaves(c, dir));
            }
        }
        let adjacency = dirty
            .iter()
            .map(|&c| {
                let mut ns = Vec::new();
                for dir in Direction::ALL {
                    ns.extend(self.mesh.neighbor_leaves(c, dir));
                }
                (c, ns)
            })
            .collect();
        let base = self.mesh.base_level;
        let added = added_cells
            .iter()
            .map(|&c| AmrDeltaCell {
                cell: c,
                old_part: self.inherited_part(c),
                weight: (1u64 << (c.level - base)) as f64,
                size: STATE_BYTES,
            })
            .collect();
        AmrDelta {
            cells: after.iter().copied().collect(),
            removed,
            added,
            adjacency,
        }
    }

    pub(crate) fn commit_assignment(&mut self, cells: &[Cell], part: &[PartId]) {
        self.last_part = cells.iter().copied().zip(part.iter().copied()).collect();
    }

    fn inherited_part(&self, c: Cell) -> PartId {
        let mut cur = Some(c);
        while let Some(cell) = cur {
            if let Some(&p) = self.last_part.get(&cell) {
                return p;
            }
            cur = cell.parent();
        }
        self.first_descendant_part(c)
            .expect("cell has neither assigned ancestors nor descendants")
    }

    fn first_descendant_part(&self, c: Cell) -> Option<PartId> {
        if c.level >= self.cfg.max_level {
            return None;
        }
        for child in c.children() {
            if let Some(&p) = self.last_part.get(&child) {
                return Some(p);
            }
            if let Some(p) = self.first_descendant_part(child) {
                return Some(p);
            }
        }
        None
    }
}

mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::mesh::QuadMesh;
    use crate::stream::AmrStream;

    const K: usize = 4;
    const EPOCHS: usize = 30;

    fn assert_same_lowering(got: &LoweredMesh, want: &LoweredMesh, what: &str) {
        assert_eq!(got.cells, want.cells, "{what}: cells");
        assert_eq!(
            got.hypergraph.pin_csr(),
            want.hypergraph.pin_csr(),
            "{what}: pins"
        );
        assert!(
            got.hypergraph.loads() == want.hypergraph.loads(),
            "{what}: weights"
        );
        assert_eq!(
            got.hypergraph.vertex_sizes(),
            want.hypergraph.vertex_sizes(),
            "{what}: sizes"
        );
        assert!(got.hypergraph == want.hypergraph, "{what}: hypergraph");
        assert!(got.graph == want.graph, "{what}: graph");
    }

    /// Steps both meshes one `adapt` call at a time to their fixed
    /// point, comparing the leaves after every call.
    fn step_to_stable(mesh: &mut QuadMesh, oracle: &mut RefMesh, features: &[Feature], what: &str) {
        let ind = |x: f64, y: f64| indicator(features, SIGMA, x, y);
        for call in 0..oracle.pass_cap() {
            let changed = mesh.adapt(ind, REFINE_THRESHOLD, COARSEN_THRESHOLD);
            let want = oracle.adapt(ind, REFINE_THRESHOLD, COARSEN_THRESHOLD);
            assert_eq!(changed, want, "{what}, call {call}: changed");
            assert_eq!(
                mesh.leaves(),
                oracle.leaves(),
                "{what}, call {call}: leaves"
            );
            if !changed {
                break;
            }
        }
    }

    /// What an epoch commits: the inherited parts, a block partition, a
    /// scattered one, or labels beyond `k` (a grown world).
    fn commit_labels(epoch: usize, seed: u64, inherited: &[PartId]) -> Vec<PartId> {
        let n = inherited.len();
        match epoch % 4 {
            0 => inherited.to_vec(),
            1 => (0..n).map(|v| v * K / n).collect(),
            2 => (0..n)
                .map(|v| {
                    let h = (v as u64 ^ seed ^ (epoch as u64) << 32)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (h >> 40) as usize % K
                })
                .collect(),
            _ => (0..n).map(|v| (v + epoch) % (K + 2)).collect(),
        }
    }

    /// The inherited part of every cell of a delta epoch: the committed
    /// part of a survivor, the creation part of an added cell.
    fn delta_inherited(d: &AmrDelta, committed: &BTreeMap<Cell, PartId>) -> Vec<PartId> {
        let created: BTreeMap<Cell, PartId> =
            d.added.iter().map(|a| (a.cell, a.old_part)).collect();
        d.cells
            .iter()
            .map(|c| {
                *committed
                    .get(c)
                    .or_else(|| created.get(c))
                    .expect("every cell survived or was added")
            })
            .collect()
    }

    /// Scales 0–2 of one seed's stream, [`EPOCHS`] epochs each,
    /// alternating full and delta epochs.
    fn matches_the_oracle(seed: u64) {
        for scale in 0..=2u8 {
            let cfg = AmrConfig {
                multi_constraint: seed % 2 == 1,
                ..AmrConfig::for_scale(scale)
            };
            let what = format!("seed {seed}, scale {scale}");
            let mut stream = AmrStream::new(cfg, K, seed);
            let mut oracle = RefStream::new(cfg, seed);
            let mut mesh = QuadMesh::uniform(cfg.base_level, cfg.max_level);
            let mut ref_mesh = RefMesh::uniform(cfg.base_level, cfg.max_level);
            let mut features = seeded_features(NUM_FEATURES, SPEED, seed);
            step_to_stable(&mut mesh, &mut ref_mesh, &features, &what);
            assert_eq!(stream.mesh().leaves(), oracle.mesh().leaves(), "{what}");
            assert_eq!(mesh.leaves(), stream.mesh().leaves(), "{what}");

            let low = stream.initial_lowering();
            assert_same_lowering(&low, &oracle.initial_lowering(), &what);
            let n = low.cells.len();
            let init: Vec<PartId> = (0..n).map(|v| v * K / n).collect();
            stream.set_initial_partition(&init);
            oracle.commit_assignment(&low.cells, &init);
            let mut committed: BTreeMap<Cell, PartId> = low
                .cells
                .iter()
                .copied()
                .zip(init.iter().copied())
                .collect();

            for epoch in 0..EPOCHS {
                let what = format!("{what}, epoch {epoch}");
                for f in &mut features {
                    f.advance();
                }
                step_to_stable(&mut mesh, &mut ref_mesh, &features, &what);
                let (cells, inherited) = if epoch % 2 == 0 {
                    let e = stream.next_epoch();
                    let want = oracle.next_epoch();
                    assert_same_lowering(
                        &LoweredMesh {
                            graph: e.graph,
                            hypergraph: e.hypergraph,
                            cells: e.cells.clone(),
                        },
                        &LoweredMesh {
                            graph: want.graph,
                            hypergraph: want.hypergraph,
                            cells: want.cells,
                        },
                        &what,
                    );
                    assert_eq!(e.old_part, want.old_part, "{what}: old_part");
                    (e.cells, e.old_part)
                } else {
                    let d = stream.next_epoch_delta();
                    let want = oracle.next_epoch_delta();
                    assert_eq!(d.cells, want.cells, "{what}: cells");
                    assert_eq!(d.removed, want.removed, "{what}: removed");
                    assert_eq!(d.added, want.added, "{what}: added");
                    assert_eq!(d.adjacency, want.adjacency, "{what}: adjacency");
                    let inherited = delta_inherited(&d, &committed);
                    (d.cells, inherited)
                };
                assert_eq!(mesh.leaves(), stream.mesh().leaves(), "{what}: mesh");
                let part = commit_labels(epoch, seed, &inherited);
                stream.commit_assignment(&cells, &part);
                oracle.commit_assignment(&cells, &part);
                committed = cells.iter().copied().zip(part.iter().copied()).collect();
            }
        }
    }

    #[test]
    fn hashed_index_matches_the_btree_oracle_seed_1() {
        matches_the_oracle(1);
    }

    #[test]
    fn hashed_index_matches_the_btree_oracle_seed_7() {
        matches_the_oracle(7);
    }

    #[test]
    fn hashed_index_matches_the_btree_oracle_seed_42() {
        matches_the_oracle(42);
    }

    #[test]
    fn hashed_index_matches_the_btree_oracle_seed_1234() {
        matches_the_oracle(1234);
    }

    #[test]
    fn lowering_matches_the_binary_search_index() {
        let mut mesh = QuadMesh::uniform(2, 6);
        let mut oracle = RefMesh::uniform(2, 6);
        let features = seeded_features(NUM_FEATURES, SPEED, 3);
        step_to_stable(&mut mesh, &mut oracle, &features, "seed 3");
        let cfg = AmrConfig::default();
        assert_same_lowering(&lower(&mesh, &cfg), &ref_lower(&oracle, &cfg), "seed 3");
        // Leaves and the non-leaf parents coarsening queries.
        let queries = mesh
            .leaves()
            .iter()
            .flat_map(|&c| [Some(c), c.parent()])
            .flatten();
        for c in queries {
            for dir in Direction::ALL {
                assert_eq!(
                    mesh.neighbor_leaves(c, dir),
                    oracle.neighbor_leaves(c, dir),
                    "{c:?} {dir:?}"
                );
            }
        }
    }
}
