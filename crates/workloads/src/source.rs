//! The epoch-source abstraction: anything that can feed the
//! repartitioning driver a sequence of [`EpochSnapshot`]s.
//!
//! Two implementations exist: [`EpochStream`] (the paper's synthetic
//! perturbations of a static base dataset) and [`AmrSource`] (a *real*
//! adaptive computation — the quadtree AMR simulator of [`dlb_amr`],
//! whose mesh genuinely refines and coarsens every epoch). The driver in
//! `dlb_core::epoch` is generic over this trait, so every algorithm,
//! the SPMD path included, runs unchanged against either dynamic.

use dlb_amr::{AmrStream, Cell, CellMap};
use dlb_hypergraph::PartId;

use crate::epoch::{EpochSnapshot, EpochStream};

/// A newly created vertex in an [`EpochDelta`].
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaVertex {
    /// Persistent base id of the vertex.
    pub base: usize,
    /// Computational weight (balance constraint).
    pub weight: f64,
    /// Migration data size (cost of the vertex's migration net).
    pub size: f64,
    /// The part the vertex was *created* on — where its migration net
    /// anchors for its first epoch.
    pub old_part: PartId,
}

/// A surviving vertex whose weight or size changed between epochs.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaReweight {
    /// Persistent base id of the vertex.
    pub base: usize,
    /// New computational weight.
    pub weight: f64,
    /// New migration data size.
    pub size: f64,
}

/// The refreshed adjacency of one vertex whose neighborhood changed.
///
/// In the column-net model the net owned by vertex `v` is
/// `{v} ∪ adj(v)`, so a changed neighborhood splices exactly one net.
/// The owner is implicit; `neighbors` lists the other pins by base id,
/// in any order (the patcher canonicalizes).
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaNet {
    /// Persistent base id of the owning vertex.
    pub base: usize,
    /// Base ids of the owner's face/structure neighbors after the
    /// change. Must be kept symmetric across the delta: if `u` lists
    /// `v`, some net entry must also give `v`'s refreshed list with `u`.
    pub neighbors: Vec<usize>,
}

/// A structural diff between two consecutive epochs, expressed in the
/// source's persistent base-id space.
///
/// The diff is *complete*: every vertex whose weight, size, or
/// neighborhood differs from the previous epoch appears in `added`,
/// `reweighted`, or `nets`. Applying it to the previous epoch's state
/// (see `dlb_core::delta::ModelPatcher`) must reproduce the epoch that
/// [`EpochSource::next_epoch`] would have emitted, bit for bit.
///
/// Delta-capable sources must use unit edge weights in their adjacency
/// graphs (true of the AMR lowering); sources with weighted edges
/// should keep the full-snapshot fallback.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochDelta {
    /// Base id of each vertex of the *new* epoch, in the epoch's
    /// canonical vertex order — the order spine the patcher rebuilds
    /// the CSR structures along.
    pub to_base: Vec<usize>,
    /// Base ids present in the previous epoch but not in this one
    /// (coarsened away / deleted).
    pub removed: Vec<usize>,
    /// Vertices appearing for the first time since the previous epoch
    /// (refined into existence / re-inserted).
    pub added: Vec<DeltaVertex>,
    /// Surviving vertices whose weight or size changed.
    pub reweighted: Vec<DeltaReweight>,
    /// Refreshed nets: one entry per vertex whose neighborhood changed
    /// (every added vertex, plus touched survivors).
    pub nets: Vec<DeltaNet>,
}

/// What [`EpochSource::next_delta`] yields: either a structural diff
/// against the previous epoch, or a full snapshot when no cheaper
/// description exists (first epoch, non-incremental source, or drift
/// too large to be worth diffing).
// The Full variant dominates the size, but updates are transient —
// returned once and destructured immediately — so boxing would buy
// nothing but an allocation per epoch.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum EpochUpdate {
    /// A complete epoch snapshot; resets any incremental state.
    Full(EpochSnapshot),
    /// A structural diff against the previously emitted epoch.
    Delta(EpochDelta),
}

/// A stateful generator of repartitioning epochs.
///
/// The protocol mirrors the paper's Section 3 loop: `next_epoch` yields
/// epoch `j`'s problem (hypergraph + old parts), the caller repartitions
/// it, and `commit_assignment` records the decision so epoch `j+1`'s
/// old parts (and any assignment-dependent dynamics) see it.
pub trait EpochSource {
    /// Number of parts in the decomposition.
    fn k(&self) -> usize;

    /// Number of epochs emitted so far.
    fn epochs_emitted(&self) -> usize;

    /// Generates the next epoch.
    fn next_epoch(&mut self) -> EpochSnapshot;

    /// Generates the next epoch as an incremental update.
    ///
    /// Advances the source exactly like [`Self::next_epoch`] (one call
    /// per epoch — callers use one method or the other, not both). The
    /// default emits a [`EpochUpdate::Full`] snapshot so existing
    /// sources work unchanged under the incremental driver; sources
    /// with native change tracking (the AMR quadtree) override it to
    /// return [`EpochUpdate::Delta`].
    fn next_delta(&mut self) -> EpochUpdate {
        EpochUpdate::Full(self.next_epoch())
    }

    /// Records the assignment chosen for `snapshot` (which must be the
    /// most recently emitted epoch).
    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]);

    /// Moves every remembered part label into a resized world:
    /// `map[old] = new` covers every label of the world before the
    /// resize. The driver calls it once per resize, before committing
    /// that epoch's assignment, so vertices absent from the epoch come
    /// back with a label of the new world. The default does nothing —
    /// right for sources that remember only the committed epoch's
    /// vertices (an AMR cell re-created later takes a present parent's
    /// part).
    fn relabel_parts(&mut self, map: &[PartId]) {
        let _ = map;
    }
}

/// Boxed sources delegate, so factory-style callers (`rank -> Box<dyn
/// EpochSource>`) plug straight into generic drivers.
impl<S: EpochSource + ?Sized> EpochSource for Box<S> {
    fn k(&self) -> usize {
        (**self).k()
    }

    fn epochs_emitted(&self) -> usize {
        (**self).epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        (**self).next_epoch()
    }

    fn next_delta(&mut self) -> EpochUpdate {
        (**self).next_delta()
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        (**self).commit_assignment(snapshot, part)
    }

    fn relabel_parts(&mut self, map: &[PartId]) {
        (**self).relabel_parts(map)
    }
}

impl EpochSource for EpochStream {
    fn k(&self) -> usize {
        EpochStream::k(self)
    }

    fn epochs_emitted(&self) -> usize {
        EpochStream::epochs_emitted(self)
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        EpochStream::next_epoch(self)
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        EpochStream::commit_assignment(self, snapshot, part)
    }

    fn relabel_parts(&mut self, map: &[PartId]) {
        EpochStream::relabel_parts(self, map)
    }
}

/// Adapts [`AmrStream`] to the [`EpochSource`] protocol.
///
/// The AMR stream identifies vertices by quadtree [`Cell`] address; the
/// snapshot protocol identifies them by *base id*. The adapter keeps a
/// persistent cell-id registry: the first time a cell appears it is
/// assigned the next free base id, and keeps it for the lifetime of the
/// source — so a cell that coarsens away and later re-refines into
/// existence maps to the same base id, exactly like a deleted base
/// vertex reappearing in a structural [`EpochStream`].
pub struct AmrSource {
    stream: AmrStream,
    /// Every cell ever emitted, with its base id. Ids are stored as
    /// `u32`: the registry only grows, and half-width values keep its
    /// table from outgrowing the B-tree it replaced.
    base_id: CellMap<u32>,
    id_cell: Vec<Cell>,
}

impl AmrSource {
    /// Wraps an [`AmrStream`] whose initial mesh has been partitioned.
    /// `initial_part` must align with the stream's
    /// [`AmrStream::initial_lowering`] cell order.
    ///
    /// # Panics
    /// Panics if the stream has already emitted epochs or the partition
    /// does not fit the initial mesh.
    pub fn new(mut stream: AmrStream, initial_part: &[PartId]) -> Self {
        stream.set_initial_partition(initial_part);
        AmrSource {
            stream,
            base_id: CellMap::default(),
            id_cell: Vec::new(),
        }
    }

    /// The underlying AMR stream.
    pub fn stream(&self) -> &AmrStream {
        &self.stream
    }

    /// The stable base id of `c`, if the cell has ever appeared in an
    /// emitted epoch. Newly refined cells get their id the moment the
    /// epoch (full or delta) naming them is emitted, so deltas can
    /// reference them immediately.
    pub fn base_id_of(&self, c: Cell) -> Option<usize> {
        self.base_id.get(&c).map(|&id| id as usize)
    }

    /// The cell behind base id `base`, if one was ever registered.
    pub fn cell_of(&self, base: usize) -> Option<Cell> {
        self.id_cell.get(base).copied()
    }

    /// The base id of a registered cell.
    fn id(&self, c: &Cell) -> usize {
        self.base_id[c] as usize
    }

    fn register(&mut self, c: Cell) -> usize {
        let next = u32::try_from(self.id_cell.len()).expect("fewer than 2^32 cells registered");
        let id = *self.base_id.entry(c).or_insert(next);
        if id == next {
            self.id_cell.push(c);
        }
        id as usize
    }
}

impl EpochSource for AmrSource {
    fn k(&self) -> usize {
        self.stream.k()
    }

    fn epochs_emitted(&self) -> usize {
        self.stream.epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        let e = self.stream.next_epoch();
        let to_base: Vec<usize> = e.cells.iter().map(|&c| self.register(c)).collect();
        EpochSnapshot {
            graph: e.graph,
            hypergraph: e.hypergraph,
            to_base,
            old_part: e.old_part,
        }
    }

    /// Native delta support: the first epoch is emitted as a full
    /// snapshot (there is no previous epoch to diff against); every
    /// later epoch is the quadtree's refine/coarsen diff, translated
    /// from cell space into the persistent base-id space.
    fn next_delta(&mut self) -> EpochUpdate {
        if self.stream.epochs_emitted() == 0 {
            return EpochUpdate::Full(self.next_epoch());
        }
        let d = self.stream.next_epoch_delta();
        // Register the new mesh's cells first (newly refined cells get
        // their stable ids here) so every lookup below is infallible.
        let to_base: Vec<usize> = d.cells.iter().map(|&c| self.register(c)).collect();
        let removed: Vec<usize> = d.removed.iter().map(|c| self.id(c)).collect();
        let added: Vec<DeltaVertex> = d
            .added
            .iter()
            .map(|a| DeltaVertex {
                base: self.id(&a.cell),
                weight: a.weight,
                size: a.size,
                old_part: a.old_part,
            })
            .collect();
        let nets: Vec<DeltaNet> = d
            .adjacency
            .iter()
            .map(|(c, ns)| DeltaNet {
                base: self.id(c),
                neighbors: ns.iter().map(|n| self.id(n)).collect(),
            })
            .collect();
        // AMR weights are a function of the (immutable) cell level and
        // sizes are uniform, so surviving cells never reweight.
        EpochUpdate::Delta(EpochDelta {
            to_base,
            removed,
            added,
            reweighted: Vec::new(),
            nets,
        })
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        let cells: Vec<Cell> = snapshot.to_base.iter().map(|&b| self.id_cell[b]).collect();
        self.stream.commit_assignment(&cells, part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_amr::AmrConfig;
    use std::collections::BTreeMap;

    fn amr_source(seed: u64) -> AmrSource {
        let stream = AmrStream::new(AmrConfig::small(), 4, seed);
        let low = stream.initial_lowering();
        let n = low.cells.len();
        let part: Vec<usize> = (0..n).map(|v| v * 4 / n).collect();
        AmrSource::new(stream, &part)
    }

    #[test]
    fn amr_source_emits_valid_snapshots() {
        let mut s = amr_source(3);
        assert_eq!(EpochSource::k(&s), 4);
        for epoch in 1..=3 {
            let snap = s.next_epoch();
            assert_eq!(s.epochs_emitted(), epoch);
            snap.hypergraph.validate().unwrap();
            assert_eq!(snap.graph.num_vertices(), snap.to_base.len());
            assert_eq!(snap.old_part.len(), snap.to_base.len());
            assert!(snap.old_part.iter().all(|&p| p < 4));
            let part = snap.old_part.clone();
            s.commit_assignment(&snap, &part);
        }
    }

    #[test]
    fn base_ids_are_stable_across_epochs() {
        let mut s = amr_source(5);
        let mut seen: BTreeMap<usize, Cell> = BTreeMap::new();
        for _ in 0..5 {
            let snap = s.next_epoch();
            for (v, &b) in snap.to_base.iter().enumerate() {
                let cell = s.id_cell[b];
                // A base id maps to one cell, forever.
                if let Some(&prev) = seen.get(&b) {
                    assert_eq!(prev, cell, "base id {b} remapped");
                }
                seen.insert(b, cell);
                // And the registry inverts correctly.
                assert_eq!(s.id(&cell), b, "registry out of sync");
                let _ = v;
            }
            let part = snap.old_part.clone();
            s.commit_assignment(&snap, &part);
        }
        assert_eq!(s.base_id.len(), s.id_cell.len());
    }

    #[test]
    fn trait_object_dispatch_works() {
        // The CLI and bench select the workload at runtime.
        let mut boxed: Box<dyn EpochSource> = Box::new(amr_source(7));
        let snap = boxed.next_epoch();
        assert!(snap.graph.num_vertices() > 0);
        let part = snap.old_part.clone();
        boxed.commit_assignment(&snap, &part);
        assert_eq!(boxed.epochs_emitted(), 1);
    }
}
