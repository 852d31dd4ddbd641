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
//! The leaves live in one hashed index, [`CellMap`], that maps each leaf
//! to its position in the canonical [`Cell`] order — its vertex number
//! once lowered. Adaptation probes that index; the canonical `Vec` of
//! leaves is rebuilt once per adaptation call. No iteration over the
//! index reaches an output: what a pass collects from it is either a
//! set or sorted before use, so the mesh evolution is a pure function
//! of the initial state and the indicator sequence — bit-identical on
//! every rank, at every thread count.

use crate::cell::{Cell, CellMap, CellSet, Direction};

/// The position of a leaf created inside an adaptation call, until the
/// call renumbers.
const UNNUMBERED: u32 = u32::MAX;

/// The leaf set of an adaptive quadtree over `[0,1]²`.
#[derive(Clone)]
pub(crate) struct QuadMesh {
    /// Every leaf, mapped to its index in `sorted`. Membership is exact
    /// at all times; positions are exact between adaptation calls.
    index: CellMap<u32>,
    /// The leaves in canonical order.
    sorted: Vec<Cell>,
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
    pub(crate) fn uniform(base_level: u8, max_level: u8) -> Self {
        assert!(
            base_level <= max_level,
            "base_level must not exceed max_level"
        );
        assert!(max_level <= 20, "max_level too deep");
        let side = 1u32 << base_level;
        // Row-major over one level is the canonical order.
        let sorted: Vec<Cell> = (0..side)
            .flat_map(|y| {
                (0..side).map(move |x| Cell {
                    level: base_level,
                    x,
                    y,
                })
            })
            .collect();
        let index = sorted.iter().copied().zip(0..).collect();
        QuadMesh {
            index,
            sorted,
            base_level,
            max_level,
        }
    }

    /// Number of leaf cells.
    pub(crate) fn num_leaves(&self) -> usize {
        self.sorted.len()
    }

    /// The coarsest admissible level.
    pub(crate) fn base_level(&self) -> u8 {
        self.base_level
    }

    /// The leaves in canonical order (level-major, then row, column);
    /// `leaves()[v]` is the cell [`crate::lower()`] numbers `v`.
    pub(crate) fn leaves(&self) -> &[Cell] {
        &self.sorted
    }

    /// True if `c` is a leaf of the mesh.
    pub(crate) fn is_leaf(&self, c: Cell) -> bool {
        self.index.contains_key(&c)
    }

    /// Calls `f(leaf, v)` for every leaf sharing the face of `c` in
    /// direction `dir`, where `v` is the leaf's index in
    /// [`Self::leaves`] (inside an adaptation call, a leaf the call
    /// created reads [`UNNUMBERED`]). `c` itself need not be a leaf:
    /// for an interior (refined) cell this visits the leaves adjacent to
    /// that side of `c`'s region, which is what coarsening eligibility
    /// needs.
    ///
    /// Visits at most one coarser/equal leaf, or the finer leaves along
    /// the face in depth-first face-child order (any number for a
    /// non-leaf query cell).
    pub(crate) fn for_each_neighbor_leaf(
        &self,
        c: Cell,
        dir: Direction,
        mut f: impl FnMut(Cell, usize),
    ) {
        let Some(n) = c.neighbor(dir) else {
            return; // domain boundary
        };
        // The leaf equal to `n` or the nearest leaf ancestor of it; no
        // leaf is coarser than the base level.
        let mut cur = n;
        loop {
            if let Some(&v) = self.index.get(&cur) {
                return f(cur, v as usize);
            }
            match cur.parent() {
                Some(p) if cur.level > self.base_level => cur = p,
                _ => break,
            }
        }
        // The neighbor region is refined: descend along the shared face.
        self.visit_face_leaves(n, dir.opposite(), &mut f);
    }

    fn visit_face_leaves(&self, region: Cell, face: Direction, f: &mut impl FnMut(Cell, usize)) {
        if let Some(&v) = self.index.get(&region) {
            return f(region, v as usize);
        }
        if region.level >= self.max_level {
            return;
        }
        for child in region.face_children(face) {
            self.visit_face_leaves(child, face, f);
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
    /// fully; [`Self::adapt_to_stable`] iterates to the fixed point. Only
    /// the tests and the B-tree oracle take single steps.
    #[cfg(test)]
    pub(crate) fn adapt(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> bool {
        let changed = self.adapt_pass(&indicator, refine_t, coarsen_t);
        if changed {
            self.renumber();
        }
        debug_assert_eq!(self.validate(), Ok(()));
        changed
    }

    /// Iterates `adapt` until the mesh stops changing (bounded
    /// by the level range, plus slack for refinement ripples). Returns
    /// the number of adaptation passes that changed the mesh. The
    /// canonical leaf order is rebuilt once, after the last pass.
    pub(crate) fn adapt_to_stable(
        &mut self,
        indicator: impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> usize {
        let cap = (self.max_level - self.base_level) as usize * 2 + 2;
        let mut passes = 0;
        while passes < cap && self.adapt_pass(&indicator, refine_t, coarsen_t) {
            passes += 1;
        }
        if passes > 0 {
            self.renumber();
        }
        debug_assert_eq!(self.validate(), Ok(()));
        passes
    }

    /// One pass of [`Self::adapt`] on the index alone: leaves it creates
    /// stay [`UNNUMBERED`] and `sorted` goes stale until [`Self::renumber`].
    fn adapt_pass(
        &mut self,
        indicator: &impl Fn(f64, f64) -> f64,
        refine_t: f64,
        coarsen_t: f64,
    ) -> bool {
        assert!(
            refine_t > coarsen_t,
            "thresholds must leave a hysteresis band"
        );
        let mut changed = false;

        // --- Refinement marks, then 2:1 ripple propagation. ---
        let mut marked: CellSet = self
            .index
            .keys()
            .copied()
            .filter(|c| {
                let (cx, cy) = c.center();
                c.level < self.max_level && indicator(cx, cy) > refine_t
            })
            .collect();
        // Refining `c` puts children at level+1 next to every face
        // neighbor; a neighbor more than one level coarser than the
        // children (i.e. coarser than `c`) must refine too. Marking is
        // monotone, so the marked set — the only thing this loop
        // yields — is the same whatever order the index hands cells out.
        let mut worklist: Vec<Cell> = marked.iter().copied().collect();
        while let Some(c) = worklist.pop() {
            for dir in Direction::ALL {
                self.for_each_neighbor_leaf(c, dir, |n, _| {
                    if n.level < c.level && marked.insert(n) {
                        worklist.push(n);
                    }
                });
            }
        }
        for c in &marked {
            let removed = self.index.remove(c);
            debug_assert!(removed.is_some(), "marked cell was not a leaf");
            for child in c.children() {
                self.index.insert(child, UNNUMBERED);
            }
            changed = true;
        }

        // --- Coarsening: sibling quartets, eligibility-checked. ---
        // A quartet merges when all four siblings are leaves not created
        // by this call's refinement, every sibling's indicator is below
        // the coarsen threshold, and no face-adjacent leaf of the parent
        // region is finer than the siblings (which would break 2:1 after
        // the merge). The first two conditions hold or fail whatever
        // merges land first, so each full quartet is found from its
        // south-west child and its three siblings are probed. The last
        // condition is checked against the live mesh, which makes the
        // order decide: merges apply in canonical parent order.
        let base_level = self.base_level;
        let mut parents: Vec<Cell> = self
            .index
            .keys()
            .filter(|c| c.level > base_level && c.x % 2 == 0 && c.y % 2 == 0)
            .map(|c| c.parent().expect("level > 0"))
            .filter(|p| {
                let kids = p.children();
                !marked.contains(p)
                    && kids[1..].iter().all(|k| self.index.contains_key(k))
                    && kids.iter().all(|k| {
                        let (cx, cy) = k.center();
                        indicator(cx, cy) < coarsen_t
                    })
            })
            .collect();
        parents.sort_unstable_by_key(|p| p.key());
        for parent in parents {
            let child_level = parent.level + 1;
            let mut balanced = true;
            for dir in Direction::ALL {
                self.for_each_neighbor_leaf(parent, dir, |n, _| balanced &= n.level <= child_level);
            }
            if !balanced {
                continue;
            }
            for c in parent.children() {
                let removed = self.index.remove(&c);
                debug_assert!(removed.is_some(), "quartet sibling was not a leaf");
            }
            self.index.insert(parent, UNNUMBERED);
            changed = true;
        }
        changed
    }

    /// Rebuilds the canonical leaf order from the index and writes every
    /// leaf's position back into it.
    fn renumber(&mut self) {
        assert!(
            self.index.len() < UNNUMBERED as usize,
            "leaf positions must fit in u32"
        );
        self.sorted.clear();
        self.sorted.extend(self.index.keys().copied());
        self.sorted.sort_unstable_by_key(|c| c.key());
        for (v, c) in self.sorted.iter().enumerate() {
            *self.index.get_mut(c).expect("sorted cell is a leaf") = v as u32;
        }
    }

    /// Checks every structural invariant: the index and the canonical
    /// order agree, leaves tile the domain exactly (no gaps, no
    /// overlaps), levels lie in `[base_level, max_level]`, and 2:1 face
    /// balance holds.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.index.len() != self.sorted.len() {
            return Err(format!(
                "index holds {} leaves, canonical order {}",
                self.index.len(),
                self.sorted.len()
            ));
        }
        for (v, c) in self.sorted.iter().enumerate() {
            if self.index.get(c) != Some(&(v as u32)) {
                return Err(format!("leaf {c:?} is not indexed at position {v}"));
            }
            if v > 0 && self.sorted[v - 1] >= *c {
                return Err(format!("leaf {c:?} out of canonical order"));
            }
        }
        // Exact area accounting in integer units of the finest grid.
        let mut area: u64 = 0;
        let unit = |level: u8| -> u64 {
            let d = (self.max_level - level) as u32;
            1u64 << (2 * d)
        };
        for c in &self.sorted {
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
        for c in &self.sorted {
            let mut p = c.parent();
            while let Some(anc) = p {
                if self.is_leaf(anc) {
                    return Err(format!("leaf {anc:?} is an ancestor of leaf {c:?}"));
                }
                p = anc.parent();
            }
        }
        // 2:1 face balance.
        for &c in &self.sorted {
            for dir in Direction::ALL {
                let mut violation = None;
                self.for_each_neighbor_leaf(c, dir, |n, _| {
                    if violation.is_none() && n.level.abs_diff(c.level) > 1 {
                        violation = Some(n);
                    }
                });
                if let Some(n) = violation {
                    return Err(format!("2:1 violated: {c:?} and {n:?} across dir {dir:?}"));
                }
            }
        }
        Ok(())
    }

    /// The leaves [`Self::for_each_neighbor_leaf`] visits, collected.
    #[cfg(test)]
    pub(crate) fn neighbor_leaves(&self, c: Cell, dir: Direction) -> Vec<Cell> {
        let mut out = Vec::new();
        self.for_each_neighbor_leaf(c, dir, |n, _| out.push(n));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        let finest = m.leaves().iter().map(|c| c.level).max().unwrap();
        assert_eq!(finest, 6, "feature fully resolved");
        // The far corner stays coarse.
        let far = m
            .leaves()
            .iter()
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
        let levels: BTreeSet<u8> = m.leaves().iter().map(|c| c.level).collect();
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
            m.leaves().to_vec()
        };
        assert_eq!(run(), run());
    }
}
