//! What a V-cycle kernel reads of one rank's share of a level.
//!
//! A level is held **replicated** — the whole hypergraph and fixed
//! assignment on every rank, of which a rank *owns* (computes for) a
//! block, or everything in the serial partitioner — or **distributed**
//! (`par::disthg::DistLevel`): a rank stores exactly the block it owns
//! plus the nets touching it. The per-vertex kernels (IPM scoring, move gains, the
//! rebalance step, FM proposals) are written once over [`LevelView`],
//! generic and monomorphized, so the serial hot loops pay nothing for it.
//!
//! Vertices are named by global id, nets by the index the form stores
//! them under (global when replicated, local when distributed). Both
//! come out of [`LevelView::pins`] and [`LevelView::nets_of`] as the
//! 32-bit ids the storage holds (see `dlb_hypergraph`'s storage docs);
//! a kernel widens one with `as usize` where it indexes, and everything
//! it indexes — slots, parts, per-vertex state — stays `usize`.
//! Per-vertex kernel state covers [`LevelView::stored`], indexed through
//! [`LevelView::slot`].

use std::ops::Range;

use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::BlockDist;

use crate::fixed::FixedAssignment;

/// One rank's share of a level (see the module docs).
pub(crate) trait LevelView: Copy {
    /// Global vertex count of the level.
    fn num_vertices(&self) -> usize;
    /// The vertices whose nets and attributes this rank holds.
    fn stored(&self) -> Range<usize>;
    /// The vertices this rank computes for; a sub-range of `stored`.
    fn owned(&self) -> Range<usize>;
    /// Number of nets this rank sees (indices `0..num_nets()`).
    fn num_nets(&self) -> usize;
    /// Nets of stored vertex `v`, ascending; complete for a stored vertex.
    fn nets_of(&self, v: usize) -> &[u32];
    /// The pins of net `j` this rank holds, in net order: every stored
    /// pin of the net, and possibly pins of vertices it does not store
    /// (filter through `stored`/`owned` before indexing per-vertex state).
    fn pins(&self, j: usize) -> &[u32];
    /// Global pin count of net `j`.
    fn net_size(&self, j: usize) -> usize;
    /// Cost of net `j`.
    fn net_cost(&self, j: usize) -> f64;
    /// Weight (primary load) of stored vertex `v`.
    fn weight(&self, v: usize) -> f64;
    /// Load of stored vertex `v` on auxiliary constraint `i` (0-based
    /// over the auxiliary columns, i.e. load constraint `i + 1`).
    fn aux_load(&self, v: usize, i: usize) -> f64;
    /// The part stored vertex `v` is fixed to, if any.
    fn fixed(&self, v: usize) -> Option<PartId>;

    /// Index of stored vertex `v` in per-vertex state arrays.
    #[inline]
    fn slot(&self, v: usize) -> usize {
        v - self.stored().start
    }
}

/// A replicated level: everything stored, `owned` computed for.
#[derive(Clone, Copy)]
pub(crate) struct Replicated<'a> {
    pub(crate) h: &'a Hypergraph,
    pub(crate) fixed: &'a FixedAssignment,
    owned_start: usize,
    owned_end: usize,
}

impl<'a> Replicated<'a> {
    /// The serial case: one rank owning every vertex.
    pub(crate) fn whole(h: &'a Hypergraph, fixed: &'a FixedAssignment) -> Self {
        Replicated {
            h,
            fixed,
            owned_start: 0,
            owned_end: h.num_vertices(),
        }
    }

    /// Rank `rank`'s block of a level replicated on `size` ranks.
    pub(crate) fn block(
        h: &'a Hypergraph,
        fixed: &'a FixedAssignment,
        rank: usize,
        size: usize,
    ) -> Self {
        let owned = BlockDist::new(h.num_vertices(), size).range(rank);
        Replicated {
            h,
            fixed,
            owned_start: owned.start,
            owned_end: owned.end,
        }
    }
}

impl LevelView for Replicated<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.h.num_vertices()
    }
    #[inline]
    fn stored(&self) -> Range<usize> {
        0..self.h.num_vertices()
    }
    #[inline]
    fn owned(&self) -> Range<usize> {
        self.owned_start..self.owned_end
    }
    #[inline]
    fn num_nets(&self) -> usize {
        self.h.num_nets()
    }
    #[inline]
    fn nets_of(&self, v: usize) -> &[u32] {
        self.h.vertex_nets(v)
    }
    #[inline]
    fn pins(&self, j: usize) -> &[u32] {
        self.h.net(j)
    }
    #[inline]
    fn net_size(&self, j: usize) -> usize {
        self.h.net_size(j)
    }
    #[inline]
    fn net_cost(&self, j: usize) -> f64 {
        self.h.net_cost(j)
    }
    #[inline]
    fn weight(&self, v: usize) -> f64 {
        self.h.vertex_weight(v)
    }
    #[inline]
    fn aux_load(&self, v: usize, i: usize) -> f64 {
        self.h.vertex_load(v, i + 1)
    }
    #[inline]
    fn fixed(&self, v: usize) -> Option<PartId> {
        self.fixed.get(v)
    }
}
