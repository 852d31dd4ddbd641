//! The adaptive quadtree mesh with 2:1 face balance.
//!
//! The mesh is the set of quadtree *leaves* covering the unit square.
//! Adaptation is indicator-driven: cells whose error indicator exceeds
//! the refine threshold split into four children; sibling quartets whose
//! indicators all fall below the coarsen threshold merge back into their
//! parent. Both operations preserve the standard **2:1 balance**
//! invariant — face-adjacent leaves differ by at most one level — via
//! ripple propagation on refinement and an eligibility check on
//! coarsening.
//!
//! Everything iterates in the canonical [`Cell`] order, so the mesh
//! evolution is a pure function of the initial state and the indicator
//! sequence: bit-identical on every rank, at every thread count.

use std::collections::{BTreeMap, BTreeSet};

use crate::cell::{Cell, Direction};

/// The leaf set of an adaptive quadtree over `[0,1]²`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadMesh {
    leaves: BTreeSet<Cell>,
    /// Coarsest level any leaf may reach (the initial uniform level).
    base_level: u8,
    /// Finest level any leaf may reach.
    max_level: u8,
}

impl QuadMesh {
    /// A uniform mesh of `2^base_level × 2^base_level` cells.
    ///
    /// # Panics
    /// Panics if `max_level < base_level` or `max_level` exceeds 20
    /// (beyond which `u32` cell coordinates and `f64` geometry stop
    /// being comfortable).
    pub fn uniform(base_level: u8, max_level: u8) -> Self {
        assert!(base_level <= max_level, "base_level must not exceed max_level");
        assert!(max_level <= 20, "max_level too deep");
        let side = 1u32 << base_level;
        let mut leaves = BTreeSet::new();
        for y in 0..side {
            for x in 0..side {
                leaves.insert(Cell { level: base_level, x, y });
            }
        }
        QuadMesh { leaves, base_level, max_level }
    }

    /// Number of leaf cells.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The coarsest admissible level.
    pub fn base_level(&self) -> u8 {
        self.base_level
    }

    /// The leaves in canonical order (level-major, then row, column).
    pub fn leaves(&self) -> impl Iterator<Item = Cell> + '_ {
        self.leaves.iter().copied()
    }

    /// True if `c` is a leaf of the mesh.
    pub fn is_leaf(&self, c: Cell) -> bool {
        self.leaves.contains(&c)
    }

    /// The leaf equal to `c` or the nearest ancestor of `c` that is a
    /// leaf, if any.
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

    /// All leaves sharing the face of `c` in direction `dir`. `c` itself
    /// need not be a leaf: for an interior (refined) cell this returns
    /// the leaves adjacent to that side of `c`'s region, which is what
    /// coarsening eligibility needs.
    ///
    /// Returns at most one coarser/equal leaf, or the finer leaves along
    /// the face (any number for a non-leaf query cell).
    pub fn neighbor_leaves(&self, c: Cell, dir: Direction) -> Vec<Cell> {
        let Some(n) = c.neighbor(dir) else {
            return Vec::new(); // domain boundary
        };
        if let Some(leaf) = self.leaf_covering(n) {
            return vec![leaf];
        }
        // The neighbor region is refined: descend along the shared face.
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

    /// One adaptation step driven by `indicator` (evaluated at cell
    /// centers): refine leaves above `refine_t` (up to `max_level`),
    /// then coarsen sibling quartets entirely below `coarsen_t` (down to
    /// `base_level`), maintaining 2:1 balance throughout. Returns `true`
    /// if the mesh changed.
    ///
    /// Refinement moves a cell at most one level per call, so a feature
    /// appearing over a coarse region takes several calls to resolve
    /// fully; [`Self::adapt_to_stable`] iterates to the fixed point.
    pub fn adapt(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> bool {
        assert!(refine_t > coarsen_t, "thresholds must leave a hysteresis band");
        let mut changed = false;

        // --- Refinement marks, then 2:1 ripple propagation. ---
        let mut marked: BTreeSet<Cell> = self
            .leaves
            .iter()
            .copied()
            .filter(|c| {
                let (cx, cy) = c.center();
                c.level < self.max_level && indicator(cx, cy) > refine_t
            })
            .collect();
        // Refining `c` puts children at level+1 next to every face
        // neighbor; a neighbor more than one level coarser than the
        // children (i.e. coarser than `c`) must refine too. Worklist in
        // canonical order for determinism (the result is order-free —
        // marking is monotone — but keep traversal canonical anyway).
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
            let removed = self.leaves.remove(c);
            debug_assert!(removed, "marked cell was not a leaf");
            for child in c.children() {
                self.leaves.insert(child);
            }
            changed = true;
        }

        // --- Coarsening: sibling quartets, eligibility-checked. ---
        // Group leaves by parent; a quartet merges when all four
        // siblings are leaves not created by this call's refinement,
        // every sibling's indicator is below the coarsen threshold, and
        // no face-adjacent leaf of the parent region is finer than the
        // siblings (which would break 2:1 after the merge). Applying
        // merges in canonical order only ever *lowers* neighbor levels,
        // so eligibility established against the pre-pass mesh stays
        // valid as merges land.
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
                let removed = self.leaves.remove(&c);
                debug_assert!(removed, "quartet sibling was not a leaf");
            }
            self.leaves.insert(parent);
            changed = true;
        }

        debug_assert_eq!(self.validate(), Ok(()));
        changed
    }

    /// Iterates [`Self::adapt`] until the mesh stops changing (bounded
    /// by the level range, plus slack for refinement ripples). Returns
    /// the number of adaptation passes that changed the mesh.
    pub fn adapt_to_stable(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> usize {
        let cap = (self.max_level - self.base_level) as usize * 2 + 2;
        let mut passes = 0;
        while passes < cap && self.adapt(&indicator, refine_t, coarsen_t) {
            passes += 1;
        }
        passes
    }

    /// Checks every structural invariant: leaves tile the domain exactly
    /// (no gaps, no overlaps), levels lie in `[base_level, max_level]`,
    /// and 2:1 face balance holds.
    pub fn validate(&self) -> Result<(), String> {
        // Exact area accounting in integer units of the finest grid.
        let mut area: u64 = 0;
        let unit = |level: u8| -> u64 {
            let d = (self.max_level - level) as u32;
            1u64 << (2 * d)
        };
        for c in &self.leaves {
            if c.level < self.base_level || c.level > self.max_level {
                return Err(format!("leaf {c:?} outside level range"));
            }
            area += unit(c.level);
        }
        let full = 1u64 << (2 * self.max_level as u32);
        if area != full {
            return Err(format!("leaves cover {area}/{full} of the domain"));
        }
        // Overlap: tiling + exact area already rules overlaps out only
        // if no leaf is an ancestor of another.
        for c in &self.leaves {
            let mut p = c.parent();
            while let Some(anc) = p {
                if self.leaves.contains(&anc) {
                    return Err(format!("leaf {anc:?} is an ancestor of leaf {c:?}"));
                }
                p = anc.parent();
            }
        }
        // 2:1 face balance.
        for c in &self.leaves {
            for dir in Direction::ALL {
                for n in self.neighbor_leaves(*c, dir) {
                    let diff = (n.level as i32 - c.level as i32).abs();
                    if diff > 1 {
                        return Err(format!(
                            "2:1 violated: {c:?} and {n:?} across dir {dir:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_indicator(px: f64, py: f64, sigma: f64) -> impl Fn(f64, f64) -> f64 {
        move |x, y| {
            let d2 = (x - px).powi(2) + (y - py).powi(2);
            (-d2 / (2.0 * sigma * sigma)).exp()
        }
    }

    #[test]
    fn uniform_mesh_is_valid() {
        let m = QuadMesh::uniform(3, 6);
        assert_eq!(m.num_leaves(), 64);
        m.validate().unwrap();
    }

    #[test]
    fn refinement_concentrates_at_the_feature() {
        let mut m = QuadMesh::uniform(2, 6);
        // (1/3, 1/3) stays within ~0.24·2^-ℓ of a cell center at every
        // level, so the center-sampled indicator sees the feature from
        // the base grid all the way down.
        let ind = point_indicator(1.0 / 3.0, 1.0 / 3.0, 0.1);
        m.adapt_to_stable(&ind, 0.4, 0.1);
        m.validate().unwrap();
        let finest = m.leaves().map(|c| c.level).max().unwrap();
        assert_eq!(finest, 6, "feature fully resolved");
        // The far corner stays coarse.
        let far = m
            .leaves()
            .filter(|c| {
                let (x, y) = c.center();
                x > 0.75 && y > 0.75
            })
            .map(|c| c.level)
            .max()
            .unwrap();
        assert!(far <= 3, "far corner over-refined to level {far}");
    }

    #[test]
    fn coarsening_returns_to_uniform_when_feature_leaves() {
        let mut m = QuadMesh::uniform(2, 5);
        let ind = point_indicator(1.0 / 3.0, 1.0 / 3.0, 0.1);
        m.adapt_to_stable(&ind, 0.4, 0.1);
        assert!(m.num_leaves() > 16);
        // Feature gone: everything decays to the base level.
        let gone = |_x: f64, _y: f64| 0.0;
        m.adapt_to_stable(gone, 0.4, 0.1);
        m.validate().unwrap();
        assert_eq!(m.num_leaves(), 16, "mesh re-coarsened to the base grid");
    }

    #[test]
    fn two_one_balance_holds_after_every_single_step() {
        let mut m = QuadMesh::uniform(2, 7);
        // March a narrow feature across the domain; validate after every
        // individual adapt call (not only at stable points).
        for step in 0..24 {
            let t = step as f64 / 24.0;
            let ind = point_indicator(0.1 + 0.8 * t, 0.3 + 0.4 * t, 0.03);
            m.adapt(&ind, 0.5, 0.15);
            m.validate().unwrap();
        }
    }

    #[test]
    fn neighbor_leaves_spans_levels() {
        let mut m = QuadMesh::uniform(1, 4);
        // Refine the SW cell only: its neighbors see two finer leaves.
        let sw = Cell::new(1, 0, 0);
        let ind = move |x: f64, y: f64| if x < 0.5 && y < 0.5 { 1.0 } else { 0.0 };
        m.adapt(ind, 0.5, 0.1);
        let east = Cell::new(1, 1, 0);
        let ns = m.neighbor_leaves(east, Direction::West);
        assert_eq!(ns.len(), 2, "west neighbor refined into two face leaves");
        assert!(ns.iter().all(|c| c.level == 2 && c.descends_from(sw)));
        // And from a fine leaf, the coarse neighbor comes back whole.
        let fine = Cell::new(2, 1, 0);
        assert_eq!(m.neighbor_leaves(fine, Direction::East), vec![east]);
    }

    #[test]
    fn refinement_ripples_preserve_balance() {
        let mut m = QuadMesh::uniform(2, 6);
        // The indicator crosses the refine threshold at radius ~0.12
        // from the feature — a cliff relative to coarse cell widths, so
        // every intermediate level around the refined disk exists only
        // because 2:1 ripples created it.
        let ind = point_indicator(1.0 / 3.0, 1.0 / 3.0, 0.1);
        m.adapt_to_stable(&ind, 0.5, 0.1);
        m.validate().unwrap();
        let levels: BTreeSet<u8> = m.leaves().map(|c| c.level).collect();
        assert!(levels.contains(&6), "feature resolved to the finest level");
        for l in 3..=5 {
            assert!(levels.contains(&l), "ripple gradation missing level {l}");
        }
    }

    #[test]
    fn adapt_is_deterministic() {
        let run = || {
            let mut m = QuadMesh::uniform(2, 6);
            for step in 0..10 {
                let t = step as f64 * 0.07;
                let ind = point_indicator(0.2 + t, 0.8 - t, 0.04);
                m.adapt(&ind, 0.45, 0.12);
            }
            m.leaves().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
