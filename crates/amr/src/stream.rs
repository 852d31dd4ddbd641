//! The AMR epoch stream: the adaptive computation the repartitioner
//! balances.
//!
//! Each epoch the Gaussian features move, the mesh refines/coarsens
//! around them (2:1-balanced), and the resulting leaf set is lowered to
//! the epoch's partitioning problem. Cell identity persists across
//! epochs through the quadtree address: a cell that survives keeps its
//! part; children created by refinement are *created* on their parent's
//! part; a parent recreated by coarsening is created where its first
//! (canonical-order) surviving descendant lived. That "previous or
//! creation part" is exactly what the paper's migration nets attach to.

use dlb_hypergraph::{CsrGraph, Hypergraph, PartId};

use crate::cell::{Cell, CellMap, Direction};
use crate::feature::{indicator, seeded_features, Feature};
use crate::lower::{lower, LoweredMesh, STATE_BYTES};
use crate::mesh::QuadMesh;
use crate::AmrConfig;

/// Number of moving Gaussian features.
pub(crate) const NUM_FEATURES: usize = 2;
/// Gaussian width of each feature.
pub(crate) const SIGMA: f64 = 0.08;
/// Feature speed in domain units per epoch.
pub(crate) const SPEED: f64 = 0.06;
/// Refine a leaf whose center indicator exceeds this.
pub(crate) const REFINE_THRESHOLD: f64 = 0.4;
/// Coarsen a quartet whose centers are all below this.
pub(crate) const COARSEN_THRESHOLD: f64 = 0.1;

/// Re-adapts `mesh` to a fixed point around `features`.
fn adapt(mesh: &mut QuadMesh, features: &[Feature]) {
    let _span = dlb_trace::span!("amr.adapt");
    mesh.adapt_to_stable(
        |x, y| indicator(features, SIGMA, x, y),
        REFINE_THRESHOLD,
        COARSEN_THRESHOLD,
    );
}

/// One epoch's AMR problem instance.
#[derive(Clone, Debug)]
pub struct AmrEpoch {
    /// Face-adjacency graph of the epoch mesh.
    pub graph: CsrGraph,
    /// Column-net hypergraph of the epoch mesh.
    pub hypergraph: Hypergraph,
    /// The leaf cell behind each vertex, in canonical order.
    pub cells: Vec<Cell>,
    /// Previous/creation part per vertex.
    pub old_part: Vec<PartId>,
}

/// A cell created by the current adaptation step, with the lowering
/// attributes a patcher needs to splice it in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmrDeltaCell {
    /// The new leaf.
    pub cell: Cell,
    /// Creation part (the parent's part for refined children, the first
    /// surviving descendant's part for a coarsened parent).
    pub old_part: PartId,
    /// Subcycling weight, exactly as [`lower`] computes it.
    pub weight: f64,
    /// Migration data size (`STATE_BYTES`).
    pub size: f64,
}

/// The structural diff produced by one adaptation step — what changed
/// between the previous epoch's leaf set and the current one.
///
/// `adjacency` is *complete for the change*: it lists the refreshed
/// face-neighbor set of every new leaf and of every surviving leaf
/// whose neighborhood was altered by the step, and of no others. A
/// survivor's neighborhood changes only when a leaf across one of its
/// faces appears or disappears, so scanning the new mesh's neighbor
/// leaves around every added *and* removed cell's region finds each
/// such survivor.
#[derive(Clone, Debug)]
pub struct AmrDelta {
    /// The new epoch's leaves, in canonical order.
    pub cells: Vec<Cell>,
    /// Former leaves no longer in the mesh, in canonical order.
    pub removed: Vec<Cell>,
    /// New leaves with creation parts and lowering attributes, in
    /// canonical order.
    pub added: Vec<AmrDeltaCell>,
    /// `(cell, face neighbors)` for every cell whose neighborhood
    /// changed, in canonical cell order; neighbor lists follow the
    /// canonical direction order (west, east, south, north).
    pub adjacency: Vec<(Cell, Vec<Cell>)>,
}

/// A stateful generator of AMR epochs.
pub struct AmrStream {
    cfg: AmrConfig,
    mesh: QuadMesh,
    features: Vec<Feature>,
    k: usize,
    /// Last committed part per leaf cell (exactly the current leaves
    /// after a commit), stored as `u32` to keep the table small.
    last_part: CellMap<u32>,
    epochs_emitted: usize,
}

impl AmrStream {
    /// Creates a stream for a `k`-way decomposition. The initial mesh is
    /// adapted to a fixed point around the features' starting positions;
    /// call [`Self::initial_lowering`], partition it, and hand the result
    /// to [`Self::set_initial_partition`] before the first epoch.
    ///
    /// # Panics
    /// Panics on an invalid configuration or `k == 0`.
    pub fn new(cfg: AmrConfig, k: usize, seed: u64) -> Self {
        cfg.validate().expect("valid AMR configuration");
        assert!(k > 0, "k must be positive");
        let mut mesh = QuadMesh::uniform(cfg.base_level, cfg.max_level);
        let features = seeded_features(NUM_FEATURES, SPEED, seed);
        adapt(&mut mesh, &features);
        AmrStream {
            cfg,
            mesh,
            features,
            k,
            last_part: CellMap::default(),
            epochs_emitted: 0,
        }
    }

    /// Number of parts in the decomposition.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of epochs emitted so far.
    pub fn epochs_emitted(&self) -> usize {
        self.epochs_emitted
    }

    /// The current mesh (epoch `j`'s leaves once epoch `j` is emitted).
    #[cfg(test)]
    pub(crate) fn mesh(&self) -> &QuadMesh {
        &self.mesh
    }

    /// Lowers the *initial* mesh (before the first epoch) so the caller
    /// can compute the static starting partition.
    pub fn initial_lowering(&self) -> LoweredMesh {
        assert_eq!(
            self.epochs_emitted, 0,
            "initial lowering requested mid-stream"
        );
        lower(&self.mesh, &self.cfg)
    }

    /// Records the static partition of the initial mesh, aligned with
    /// [`Self::initial_lowering`]'s cell order.
    pub fn set_initial_partition(&mut self, part: &[PartId]) {
        assert_eq!(self.epochs_emitted, 0, "initial partition set mid-stream");
        assert_eq!(
            part.len(),
            self.mesh.num_leaves(),
            "partition length mismatch"
        );
        assert!(
            part.iter().all(|&p| p < self.k),
            "initial part out of range"
        );
        record(&mut self.last_part, self.mesh.leaves(), part);
    }

    /// Generates the next epoch: features advance, the mesh re-adapts to
    /// a fixed point, and the leaves are lowered with inherited parts.
    ///
    /// # Panics
    /// Panics if no initial partition was set.
    pub fn next_epoch(&mut self) -> AmrEpoch {
        assert!(
            !self.last_part.is_empty(),
            "set_initial_partition must be called before the first epoch"
        );
        self.epochs_emitted += 1;
        for f in &mut self.features {
            f.advance();
        }
        adapt(&mut self.mesh, &self.features);
        let _span = dlb_trace::span!("amr.lower");
        let low = lower(&self.mesh, &self.cfg);
        let old_part: Vec<PartId> = low.cells.iter().map(|&c| self.inherited_part(c)).collect();
        AmrEpoch {
            graph: low.graph,
            hypergraph: low.hypergraph,
            cells: low.cells,
            old_part,
        }
    }

    /// Generates the next epoch as a structural diff against the
    /// previous one: features advance and the mesh re-adapts exactly as
    /// in [`Self::next_epoch`], but instead of lowering the whole mesh
    /// the step reports only what changed — removed leaves, created
    /// leaves (with creation parts and lowering attributes), and the
    /// refreshed neighborhoods of every cell the change touched.
    ///
    /// Advances the stream by one epoch; callers use this *instead of*
    /// [`Self::next_epoch`] for the epoch in question.
    ///
    /// # Panics
    /// Panics if no initial partition was set.
    pub fn next_epoch_delta(&mut self) -> AmrDelta {
        assert!(
            !self.last_part.is_empty(),
            "set_initial_partition must be called before the first epoch"
        );
        self.epochs_emitted += 1;
        let before = self.mesh.leaves().to_vec();
        for f in &mut self.features {
            f.advance();
        }
        adapt(&mut self.mesh, &self.features);
        let _span = dlb_trace::span!("amr.delta");
        let after = self.mesh.leaves();
        let (removed, added_cells) = sorted_difference(&before, after);

        // Every new leaf needs its neighborhood; every survivor whose
        // neighborhood changed is face-adjacent to some added or
        // removed cell's region, so scanning the neighbor leaves of the
        // *new* mesh around each changed cell finds them all (the scan
        // accepts non-leaf query cells, which covers removed cells both
        // finer and coarser than the current leaves).
        let mut dirty = added_cells.clone();
        for &c in removed.iter().chain(added_cells.iter()) {
            for dir in Direction::ALL {
                self.mesh
                    .for_each_neighbor_leaf(c, dir, |n, _| dirty.push(n));
            }
        }
        dirty.sort_unstable_by_key(|c| c.key());
        dirty.dedup();
        let adjacency: Vec<(Cell, Vec<Cell>)> = dirty
            .into_iter()
            .map(|c| {
                debug_assert!(self.mesh.is_leaf(c), "dirty cell {c:?} is not a leaf");
                let mut ns = Vec::new();
                for dir in Direction::ALL {
                    self.mesh.for_each_neighbor_leaf(c, dir, |n, _| ns.push(n));
                }
                (c, ns)
            })
            .collect();

        let base = self.mesh.base_level();
        let added: Vec<AmrDeltaCell> = added_cells
            .iter()
            .map(|&c| AmrDeltaCell {
                cell: c,
                old_part: self.inherited_part(c),
                // Bitwise the same expressions `lower` uses.
                weight: (1u64 << (c.level - base)) as f64,
                size: STATE_BYTES,
            })
            .collect();

        AmrDelta {
            cells: after.to_vec(),
            removed,
            added,
            adjacency,
        }
    }

    /// Records the assignment the load balancer chose for the epoch
    /// whose vertices are `cells` (an `AmrEpoch`'s cell list), so the
    /// next epoch's old parts see it.
    pub fn commit_assignment(&mut self, cells: &[Cell], part: &[PartId]) {
        assert_eq!(part.len(), cells.len(), "assignment length mismatch");
        // Labels at or beyond the launch `k` are accepted: elastic
        // worlds grow the label space, and the mesh dynamics never
        // depend on the decomposition.
        record(&mut self.last_part, cells, part);
    }

    /// The previous/creation part of leaf `c` against the last committed
    /// assignment: `c`'s own part if it survived, else the nearest
    /// assigned ancestor (refinement creates children on the parent's
    /// part), else the first assigned descendant in canonical child
    /// order (coarsening recreates the parent where its children lived).
    fn inherited_part(&self, c: Cell) -> PartId {
        let mut cur = Some(c);
        while let Some(cell) = cur {
            if let Some(&p) = self.last_part.get(&cell) {
                return p as PartId;
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
                return Some(p as PartId);
            }
            if let Some(p) = self.first_descendant_part(child) {
                return Some(p);
            }
        }
        None
    }
}

/// Replaces the contents of `last_part` with `cells[i] → part[i]`.
fn record(last_part: &mut CellMap<u32>, cells: &[Cell], part: &[PartId]) {
    last_part.clear();
    last_part.extend(
        cells
            .iter()
            .zip(part)
            .map(|(&c, &p)| (c, u32::try_from(p).expect("part label fits in u32"))),
    );
}

/// The cells only in `before` and the cells only in `after`, both
/// canonical-order slices, by one merge pass.
fn sorted_difference(before: &[Cell], after: &[Cell]) -> (Vec<Cell>, Vec<Cell>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < before.len() && j < after.len() {
        match before[i].cmp(&after[j]) {
            std::cmp::Ordering::Less => {
                removed.push(before[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(after[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&before[i..]);
    added.extend_from_slice(&after[j..]);
    (removed, added)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> AmrStream {
        let mut s = AmrStream::new(AmrConfig::default(), 4, seed);
        let low = s.initial_lowering();
        // Block partition of the initial cells, deterministic.
        let n = low.cells.len();
        let part: Vec<usize> = (0..n).map(|v| v * 4 / n).collect();
        s.set_initial_partition(&part);
        s
    }

    #[test]
    fn epochs_evolve_the_mesh() {
        let mut s = stream(3);
        let e1 = s.next_epoch();
        e1.hypergraph.validate().unwrap();
        s.mesh().validate().unwrap();
        s.commit_assignment(&e1.cells, &e1.old_part.clone());
        let mut changed = false;
        let mut prev = e1.cells.clone();
        for _ in 0..6 {
            let e = s.next_epoch();
            s.mesh().validate().unwrap();
            changed |= e.cells != prev;
            prev = e.cells.clone();
            s.commit_assignment(&e.cells, &e.old_part.clone());
        }
        assert!(
            changed,
            "moving features must change the mesh within 6 epochs"
        );
    }

    #[test]
    fn surviving_cells_keep_their_parts() {
        let mut s = stream(5);
        let e1 = s.next_epoch();
        let assigned: Vec<usize> = (0..e1.cells.len()).map(|v| v % 4).collect();
        s.commit_assignment(&e1.cells, &assigned);
        let e2 = s.next_epoch();
        for (v, c) in e2.cells.iter().enumerate() {
            if let Ok(prev) = e1.cells.binary_search(c) {
                assert_eq!(e2.old_part[v], assigned[prev], "surviving cell {c:?}");
            }
        }
    }

    #[test]
    fn refined_children_inherit_the_parent_part() {
        let mut s = stream(7);
        let e1 = s.next_epoch();
        let assigned: Vec<usize> = (0..e1.cells.len()).map(|v| (v * 7) % 4).collect();
        s.commit_assignment(&e1.cells, &assigned);
        let e2 = s.next_epoch();
        let mut checked = 0;
        for (v, c) in e2.cells.iter().enumerate() {
            if e1.cells.binary_search(c).is_ok() {
                continue;
            }
            // New cell: if its parent was an epoch-1 leaf it came from a
            // refinement and must inherit that part.
            if let Some(parent) = c.parent() {
                if let Ok(pi) = e1.cells.binary_search(&parent) {
                    assert_eq!(e2.old_part[v], assigned[pi], "child of {parent:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no refinements happened; weak test scenario");
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = stream(11);
        let mut b = stream(11);
        for _ in 0..4 {
            let ea = a.next_epoch();
            let eb = b.next_epoch();
            assert_eq!(ea.cells, eb.cells);
            assert_eq!(ea.old_part, eb.old_part);
            a.commit_assignment(&ea.cells, &ea.old_part.clone());
            b.commit_assignment(&eb.cells, &eb.old_part.clone());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = stream(1);
        let mut b = stream(2);
        let ea = a.next_epoch();
        let eb = b.next_epoch();
        assert_ne!(ea.cells, eb.cells, "seeds must move features differently");
    }

    #[test]
    #[should_panic(expected = "set_initial_partition")]
    fn next_epoch_requires_initialization() {
        let mut s = AmrStream::new(AmrConfig::default(), 4, 1);
        let _ = s.next_epoch();
    }
}
