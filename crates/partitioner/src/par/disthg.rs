//! One distributed level of the V-cycle: block-distributed hypergraph
//! storage (owner-computes nets + ghost pin halos) and this rank's owned
//! block of every per-vertex attribute, in one type, [`DistLevel`].
//!
//! The paper's parallel refinement lives inside Zoltan's PHG, where the
//! hypergraph is *distributed*: no rank holds the whole structure, so
//! per-rank memory scales as `O((|pins| + n)/p + halo)` instead of
//! `O(|pins| + n)`. This module provides that storage for the simulated
//! SPMD machine in `dlb-mpisim`; the kernels that step a level (matching,
//! contraction, state, refinement, projection) are in [`super::dist`].
//!
//! * [`DistLevel`] — vertices block-distributed via [`BlockDist`];
//!   each net's **full pin list lives only on its owner rank**. Every
//!   other rank that owns at least one of the net's pins holds a compact
//!   *stub*: the net's global id, cost, global size and only this
//!   rank's own pins in net order — exactly the incidence the matching
//!   and FM kernels read locally. Remote pins of *owned* nets
//!   become ghost vertices; stub pins are owned by construction, so the
//!   ghost list stays proportional to the owned-net halo rather than to
//!   every net the rank touches. Weights, sizes, auxiliary load columns
//!   and fixed parts are held for the owned block only.
//! * [`GhostExchange`] — a reusable [`CommPlan`]-based halo update that
//!   pulls per-vertex data (parts, weights, match targets) from owner
//!   ranks into ghost-aligned buffers, plus an **incremental** push path
//!   ([`GhostExchange::push_dirty`], wrapped by [`GhostHalo`]): owners
//!   send only the entries whose value changed since the last sync, so
//!   a quiet FM round costs bytes proportional to the moved vertices,
//!   not to the halo (PMondriaan-style dirty push; the delta bytes are
//!   charged to `CommStats` like any other exchange).
//!
//! The driver's own per-vertex state (the part vector, the fine→coarse
//! map) is block-distributed alongside the vertices and reaches remote
//! vertices through the halo; see DESIGN.md §9 and §17. Local nets are
//! kept sorted by global net id, and pin order within a net (full list
//! or stub) preserves the replicated hypergraph's order — both
//! invariants are load-bearing for the bit-identical distributed
//! V-cycle in [`super::dist`].

use std::ops::Range;

use dlb_hypergraph::{Hypergraph, HypergraphBuilder, PartId, VertexLoads};
use dlb_mpisim::{BlockDist, Comm, CommPlan};

use crate::fixed::FixedAssignment;
use crate::view::LevelView;

/// One rank's share of one net, as routed during distributed
/// contraction: either the full pin list (for the owner) or the stub
/// (this rank's own pins in net order).
#[derive(Clone, Debug)]
pub(crate) struct NetShare {
    /// Global net id.
    pub(crate) gid: usize,
    /// Net cost.
    pub(crate) cost: f64,
    /// Global pin count of the net.
    pub(crate) global_size: usize,
    /// The rank that stores the full pin list.
    pub(crate) owner: usize,
    /// Pins carried by this share (32-bit global vertex ids): the full
    /// list when `owner` is the receiving rank, otherwise the receiver's
    /// own pins in net order.
    pub(crate) pins: Vec<u32>,
}

/// One level held in distributed form: one rank's share of a
/// block-distributed hypergraph plus its *owned block* of every
/// per-vertex attribute. Nothing in a `DistLevel` is proportional to
/// the global vertex count.
///
/// Vertices are owned by contiguous blocks ([`BlockDist`]). A net is
/// *local* to every rank owning at least one of its pins; the net's
/// **owner** rank stores the full pin list, every other local rank
/// stores a stub with only its own pins. Local nets are sorted by
/// global net id and pin order follows the replicated hypergraph. The
/// kernels read it through [`LevelView`], with local net indices.
pub(crate) struct DistLevel {
    rank: usize,
    vdist: BlockDist,
    /// First owned vertex (`vdist.range(rank).start`, which costs a
    /// division to recompute — too much for the per-pin kernels).
    start: usize,
    /// Nets of the whole level, on all ranks together (no rank stores
    /// them all; the count is what the contraction counters report).
    pub(super) global_nets: usize,
    /// Global ids of local nets, strictly ascending.
    net_ids: Vec<usize>,
    /// Per local net: does this rank store the full pin list?
    owned: Vec<bool>,
    /// Per local net: global pin count (stubs store fewer pins).
    gsize: Vec<usize>,
    /// CSR offsets into `pins`, one slot per local net.
    xpins: Vec<usize>,
    /// Global vertex ids, 32-bit as in [`Hypergraph`]: the full pin list
    /// for owned nets, this rank's own pins (in net order) for stubs.
    pins: Vec<u32>,
    /// Cost per local net.
    cost: Vec<f64>,
    /// Remote pins of *owned* nets, sorted ascending (stub pins are
    /// owned, so these are the only non-owned vertices stored).
    ghosts: Vec<usize>,
    /// Transpose CSR: slot (owned offset, then ghost offset) → indices
    /// of local nets containing that vertex, ascending, as 32-bit ids.
    xslot: Vec<usize>,
    slot_nets: Vec<u32>,
    /// Owned vertex weights (primary loads); this and the blocks below
    /// are indexed by `v - start`.
    wgt: Vec<f64>,
    /// Owned vertex sizes (data-migration volumes).
    pub(super) vsize: Vec<f64>,
    /// Owned auxiliary load columns (`aux[c-1][off]` is constraint `c`
    /// of owned vertex `start + off`); empty in the scalar pipeline.
    pub(super) aux: Vec<Vec<f64>>,
    /// Owned fixed-vertex constraints.
    fixed: Vec<Option<PartId>>,
}

impl DistLevel {
    /// Builds rank `rank`'s share of `h` (with its fixed assignment)
    /// under a `size`-rank block distribution. Purely local — every rank
    /// derives its share from the replicated input without communication
    /// (the simulation analogue of reading a pre-distributed file in
    /// parallel). Ranks that own no vertices (more ranks than vertices)
    /// get an empty but fully valid share.
    pub(crate) fn from_replicated(
        h: &Hypergraph,
        fixed: &FixedAssignment,
        rank: usize,
        size: usize,
    ) -> Self {
        let vdist = BlockDist::new(h.num_vertices(), size);
        let mine = vdist.range(rank);
        let mut shares = Vec::new();
        for j in 0..h.num_nets() {
            let net = h.net(j);
            // A net without pins has no owner and no rank to hold it.
            if net.is_empty() {
                continue;
            }
            // Owner = owner of the pin at position `id % size`; rotating
            // over pin positions balances ownership even when every
            // net's first pin falls in the same vertex block.
            let owner = vdist.owner(net[j % net.len()] as usize);
            let pins: Vec<u32> = if owner == rank {
                net.to_vec()
            } else {
                net.iter()
                    .copied()
                    .filter(|&v| mine.contains(&(v as usize)))
                    .collect()
            };
            if pins.is_empty() {
                continue;
            }
            shares.push(NetShare {
                gid: j,
                cost: h.net_cost(j),
                global_size: net.len(),
                owner,
                pins,
            });
        }
        Self::from_local_nets(
            vdist,
            rank,
            h.num_nets(),
            shares,
            h.loads().scalar()[mine.clone()].to_vec(),
            h.vertex_sizes()[mine.clone()].to_vec(),
            (1..h.load_arity())
                .map(|c| h.loads().constraint(c)[mine.clone()].to_vec())
                .collect(),
            mine.map(|v| fixed.get(v)).collect(),
        )
    }

    /// Builds a rank's share directly from its net shares and owned
    /// blocks — used by distributed contraction, where no rank ever
    /// materializes the replicated coarse hypergraph. `shares` must be
    /// sorted strictly ascending by `gid`; the owner share must carry
    /// the full pin list, stubs only the receiver's own pins in net
    /// order. Every block covers exactly this rank's vertex block.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_local_nets(
        vdist: BlockDist,
        rank: usize,
        global_nets: usize,
        shares: Vec<NetShare>,
        wgt: Vec<f64>,
        vsize: Vec<f64>,
        aux: Vec<Vec<f64>>,
        fixed: Vec<Option<PartId>>,
    ) -> Self {
        assert!(
            shares.windows(2).all(|w| w[0].gid < w[1].gid),
            "net ids must be ascending"
        );
        let mine = vdist.range(rank);
        assert!(
            [wgt.len(), vsize.len(), fixed.len()]
                .into_iter()
                .chain(aux.iter().map(Vec::len))
                .all(|len| len == mine.len()),
            "every owned block covers the rank's vertices"
        );
        let mut net_ids = Vec::with_capacity(shares.len());
        let mut owned = Vec::with_capacity(shares.len());
        let mut gsize = Vec::with_capacity(shares.len());
        let mut cost = Vec::with_capacity(shares.len());
        let mut xpins = Vec::with_capacity(shares.len() + 1);
        xpins.push(0);
        let mut pins = Vec::new();
        for s in shares {
            let is_owner = s.owner == rank;
            debug_assert!(
                !is_owner || s.pins.len() == s.global_size,
                "owner share of net {} must carry the full pin list",
                s.gid
            );
            net_ids.push(s.gid);
            owned.push(is_owner);
            gsize.push(s.global_size);
            cost.push(s.cost);
            pins.extend_from_slice(&s.pins);
            xpins.push(pins.len());
        }
        // Ghost list: sorted distinct remote pins of owned nets. Stub
        // pins are owned by construction and need no ghost slots.
        let mut ghosts: Vec<usize> = Vec::new();
        for lj in 0..net_ids.len() {
            if owned[lj] {
                ghosts.extend(
                    pins[xpins[lj]..xpins[lj + 1]]
                        .iter()
                        .map(|&v| v as usize)
                        .filter(|v| !mine.contains(v)),
                );
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        let mut level = DistLevel {
            rank,
            vdist,
            start: mine.start,
            global_nets,
            net_ids,
            owned,
            gsize,
            xpins,
            pins,
            cost,
            ghosts,
            xslot: Vec::new(),
            slot_nets: Vec::new(),
            wgt,
            vsize,
            aux,
            fixed,
        };
        level.build_transpose();
        level
    }

    /// Transpose the local pin lists: slot → local nets, counting-sorted
    /// over nets in ascending order so every per-vertex net list comes
    /// out ascending (mirroring `Hypergraph::vertex_nets`).
    fn build_transpose(&mut self) {
        // Local nets are a subset of a level's nets, and every level has
        // at most as many nets as the `Hypergraph` it descends from, so
        // this holds unless a share was built by hand.
        assert!(
            u32::try_from(self.net_ids.len()).is_ok(),
            "local net indices are 32-bit"
        );
        let nslots = self.wgt.len() + self.ghosts.len();
        let mut counts = vec![0usize; nslots];
        for &v in &self.pins {
            counts[self.halo_slot(v as usize).expect("pin has a slot")] += 1;
        }
        let mut xslot = Vec::with_capacity(nslots + 1);
        xslot.push(0);
        for s in 0..nslots {
            xslot.push(xslot[s] + counts[s]);
        }
        let mut cursor = xslot.clone();
        let mut slot_nets = vec![0u32; self.pins.len()];
        for lj in 0..self.net_ids.len() {
            for p in self.xpins[lj]..self.xpins[lj + 1] {
                let s = self
                    .halo_slot(self.pins[p] as usize)
                    .expect("pin has a slot");
                slot_nets[cursor[s]] = lj as u32;
                cursor[s] += 1;
            }
        }
        self.xslot = xslot;
        self.slot_nets = slot_nets;
    }

    /// This rank.
    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// The vertex ownership distribution.
    #[inline]
    pub(crate) fn vertex_dist(&self) -> BlockDist {
        self.vdist
    }

    /// Global id of local net `lj`.
    #[inline]
    pub(crate) fn net_global_id(&self, lj: usize) -> usize {
        self.net_ids[lj]
    }

    /// Local index of the net with global id `gid`, if this rank sees
    /// it (as owner or stub holder). Local nets are stored ascending by
    /// global id, so this is a binary search.
    #[inline]
    pub(crate) fn local_net_index(&self, gid: usize) -> Option<usize> {
        self.net_ids.binary_search(&gid).ok()
    }

    /// True if this rank stores the full pin list of local net `lj`.
    /// Exactly one rank owns each net, and the owner always sees it.
    #[inline]
    pub(crate) fn owns_net(&self, lj: usize) -> bool {
        self.owned[lj]
    }

    /// Local pin entries on this rank: full lists of owned nets plus
    /// stub entries — the memory-scaling figure of merit
    /// (≈ `|pins|/p` owned plus a halo term).
    #[inline]
    pub(crate) fn local_pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Pins of the nets this rank *owns* — the canonical share of the
    /// global pin storage, with each net counted exactly once (at its
    /// owner). Sums to the hypergraph's total pin count across ranks.
    pub(crate) fn owned_pin_count(&self) -> usize {
        (0..self.net_ids.len())
            .filter(|&lj| self.owned[lj])
            .map(|lj| self.xpins[lj + 1] - self.xpins[lj])
            .sum()
    }

    /// Ghost vertices (sorted ascending global ids): the distinct
    /// remote pins of this rank's owned nets.
    #[inline]
    pub(crate) fn ghosts(&self) -> &[usize] {
        &self.ghosts
    }

    /// Auxiliary loads of owned vertex `v`, one per auxiliary column.
    pub(crate) fn aux_of(&self, v: usize) -> Vec<f64> {
        self.aux.iter().map(|col| col[v - self.start]).collect()
    }

    /// Total bytes this rank keeps resident for the level: pin entries
    /// (owned full lists + stubs) with their transpose, ghost ids,
    /// per-net metadata, the owned blocks (weight, size, fixed part,
    /// auxiliary columns), and the driver's per-vertex arrays, which
    /// are not held here — a partition entry and a fine→coarse map
    /// entry per owned vertex, and a ghost-part cache as wide as
    /// `ghosts`. Every term is `O((|pins| + nets + n)/p + halo)`; none
    /// is proportional to the global instance. This is a distributed
    /// level's figure only: a level gathered whole onto every rank, and
    /// the levels coarsened from it, are in no `resident_bytes`.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let aux: usize = self.aux.iter().map(|col| size_of_val(col.as_slice())).sum();
        let driver = self.wgt.len() * (size_of::<PartId>() + size_of::<usize>())
            + size_of_val(self.ghosts.as_slice());
        size_of_val(self.pins.as_slice())
            + size_of_val(self.slot_nets.as_slice())
            + size_of_val(self.xpins.as_slice())
            + size_of_val(self.xslot.as_slice())
            + size_of_val(self.ghosts.as_slice())
            + size_of_val(self.wgt.as_slice())
            + size_of_val(self.net_ids.as_slice())
            + size_of_val(self.gsize.as_slice())
            + size_of_val(self.cost.as_slice())
            + size_of_val(self.owned.as_slice())
            + size_of_val(self.vsize.as_slice())
            + size_of_val(self.fixed.as_slice())
            + aux
            + driver
    }

    /// The storage slot of global vertex `v` — owned offset for owned
    /// vertices, `owned + ghost_index` for ghosts, `None` if `v` is
    /// neither owned nor a ghost of an owned net. Unlike
    /// [`LevelView::slot`], it answers for ghosts too.
    #[inline]
    pub(crate) fn halo_slot(&self, v: usize) -> Option<usize> {
        let owned = self.wgt.len();
        if v >= self.start && v - self.start < owned {
            Some(v - self.start)
        } else {
            self.ghosts.binary_search(&v).ok().map(|i| owned + i)
        }
    }

    /// Gathers the whole level onto every rank (collective): owner ranks
    /// contribute their nets, and each rank rebuilds the replicated
    /// hypergraph with nets in global-id order, then the owned blocks —
    /// weights, sizes, each auxiliary column, fixed parts — are
    /// all-gathered in that order. Ranks that own nothing contribute
    /// empty batches.
    pub(crate) fn gather(&self, comm: &mut Comm) -> (Hypergraph, FixedAssignment) {
        let mine: Vec<(usize, f64, Vec<u32>)> = (0..self.net_ids.len())
            .filter(|&lj| self.owned[lj])
            .map(|lj| (self.net_ids[lj], self.cost[lj], self.pins(lj).to_vec()))
            .collect();
        let mut nets: Vec<(usize, f64, Vec<u32>)> =
            comm.allgather(mine).into_iter().flatten().collect();
        nets.sort_unstable_by_key(|&(id, _, _)| id);
        let mut whole = |block: &Vec<f64>| -> Vec<f64> {
            comm.allgather(block.clone())
                .into_iter()
                .flatten()
                .collect()
        };
        let mut columns = vec![whole(&self.wgt)];
        let vsize = whole(&self.vsize);
        columns.extend(self.aux.iter().map(&mut whole));
        let fixed: Vec<Option<PartId>> = comm
            .allgather(self.fixed.clone())
            .into_iter()
            .flatten()
            .collect();
        let mut b = HypergraphBuilder::new(self.vdist.len());
        b.set_loads(VertexLoads::from_columns(columns));
        for (id, cost, pins) in nets {
            let j = b.add_net(cost, pins.into_iter().map(|v| v as usize));
            debug_assert_eq!(j, id, "gathered nets must arrive densely in id order");
        }
        let mut h = b.build();
        h.set_vertex_sizes(vsize);
        (h, FixedAssignment::from_options(&fixed))
    }
}

/// A distributed level as the shared kernels see it: a rank stores
/// exactly the vertex block it owns, and a net's locally stored pins are
/// the full list on its owner and this rank's own pins elsewhere. Nets
/// are named by local index; `nets_of` also answers for a ghost, with
/// the owned nets that pin it.
impl LevelView for &DistLevel {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.vdist.len()
    }
    #[inline]
    fn stored(&self) -> Range<usize> {
        self.start..self.start + self.wgt.len()
    }
    #[inline]
    fn owned(&self) -> Range<usize> {
        self.stored()
    }
    #[inline]
    fn num_nets(&self) -> usize {
        self.net_ids.len()
    }
    #[inline]
    fn nets_of(&self, v: usize) -> &[u32] {
        match self.halo_slot(v) {
            Some(s) => &self.slot_nets[self.xslot[s]..self.xslot[s + 1]],
            None => &[],
        }
    }
    #[inline]
    fn pins(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }
    #[inline]
    fn net_size(&self, j: usize) -> usize {
        self.gsize[j]
    }
    #[inline]
    fn net_cost(&self, j: usize) -> f64 {
        self.cost[j]
    }
    #[inline]
    fn weight(&self, v: usize) -> f64 {
        self.wgt[self.slot(v)]
    }
    #[inline]
    fn aux_load(&self, v: usize, i: usize) -> f64 {
        self.aux[i][self.slot(v)]
    }
    #[inline]
    fn fixed(&self, v: usize) -> Option<PartId> {
        self.fixed[self.slot(v)]
    }
}

/// A reusable halo update: pulls per-vertex values from owner ranks
/// into buffers aligned with a ghost id list (by default
/// [`DistLevel::ghosts`]).
///
/// Built once per distribution (collective); each [`GhostExchange::pull`]
/// is then a single plan execution carrying only the requested values,
/// and [`GhostExchange::push_dirty`] moves just a changed subset.
pub(crate) struct GhostExchange {
    /// Reply plan: owners → ghost holders.
    inverse: CommPlan,
    /// For each incoming query (grouped by source rank, the grouping of
    /// `inverse.send_counts()`), the owned offset it is served from.
    serve: Vec<usize>,
    /// Scatter map: reply `j` answers ghost `positions[j]`.
    positions: Vec<usize>,
    num_ghosts: usize,
}

impl GhostExchange {
    /// Builds the exchange for `level`'s ghost list (collective).
    pub(crate) fn build(comm: &mut Comm, level: &DistLevel) -> Self {
        Self::build_for_ids(comm, &level.vdist, &level.ghosts)
    }

    /// Builds an exchange for an arbitrary list of remote vertex ids
    /// under `dist` (collective). `ids[i]` must not be owned by the
    /// calling rank; pulls return values aligned with `ids`. Used for
    /// ad-hoc halos such as the coarse-vertex targets of a contraction
    /// map during projection.
    pub(crate) fn build_for_ids(comm: &mut Comm, dist: &BlockDist, ids: &[usize]) -> Self {
        let dests: Vec<usize> = ids.iter().map(|&g| dist.owner(g)).collect();
        let plan = CommPlan::build(comm, &dests);
        let queried = plan.execute(comm, ids);
        let owner_range = dist.range(comm.rank());
        let serve: Vec<usize> = queried
            .iter()
            .map(|&g| {
                assert!(
                    owner_range.contains(&g),
                    "ghost query reached the wrong owner"
                );
                g - owner_range.start
            })
            .collect();
        GhostExchange {
            positions: plan.send_positions().to_vec(),
            inverse: plan.invert(),
            serve,
            num_ghosts: ids.len(),
        }
    }

    /// Fetches `owned[offset]` from each ghost's owner (collective).
    /// Returns values aligned with the id list the exchange was built
    /// for.
    pub(crate) fn pull<T: Clone + Send + 'static>(&self, comm: &mut Comm, owned: &[T]) -> Vec<T> {
        let replies: Vec<T> = self.serve.iter().map(|&i| owned[i].clone()).collect();
        let back = self.inverse.execute(comm, &replies);
        let mut out: Vec<Option<T>> = vec![None; self.num_ghosts];
        for (j, &pos) in self.positions.iter().enumerate() {
            out[pos] = Some(back[j].clone());
        }
        out.into_iter()
            .map(|v| v.expect("every ghost answered"))
            .collect()
    }

    /// Incremental halo update (collective): pushes `owned[offset]` to
    /// the ranks ghosting it, but **only** for offsets flagged in
    /// `dirty`, patching the ghost-aligned buffer `ghost_vals` in
    /// place. Returns the patched entries as `(ghost slot, old, new)`
    /// triples — each slot answers one owner vertex, so a slot appears
    /// at most once — letting callers apply exact deltas (e.g. sigma
    /// row updates in distributed FM). The wire carries one
    /// `(slot, value)` pair per dirty ghost copy — a quiet round costs
    /// bytes proportional to the changes, not the halo — and
    /// `CommStats` charges those delta bytes like any other
    /// `alltoallv`.
    pub(crate) fn push_dirty<T: Clone + Send + 'static>(
        &self,
        comm: &mut Comm,
        owned: &[T],
        dirty: &[bool],
        ghost_vals: &mut [T],
    ) -> Vec<(usize, T, T)> {
        assert_eq!(ghost_vals.len(), self.num_ghosts);
        let nranks = comm.size();
        // Serve entries are grouped by querying rank exactly as the
        // inverse plan sends replies; walk the grouping and keep only
        // the dirty offsets, tagging each with its index *within* the
        // group so the receiver can find the ghost it answers.
        let mut outgoing: Vec<Vec<(u32, T)>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut pos = 0usize;
        for (holder, &count) in self.inverse.send_counts().iter().enumerate() {
            for idx in 0..count {
                let off = self.serve[pos];
                if dirty[off] {
                    outgoing[holder].push((idx as u32, owned[off].clone()));
                }
                pos += 1;
            }
        }
        let incoming = comm.alltoallv(outgoing);
        // My queries to owner `o` occupied a contiguous group of the
        // original plan's send order; `positions` maps group entries
        // back to ghost indices.
        let query_counts = self.inverse.recv_counts();
        let mut start = 0usize;
        let mut updates = Vec::new();
        for (owner, batch) in incoming.into_iter().enumerate() {
            for (idx, val) in batch {
                let slot = self.positions[start + idx as usize];
                let old = std::mem::replace(&mut ghost_vals[slot], val.clone());
                updates.push((slot, old, val));
            }
            start += query_counts[owner];
        }
        updates
    }
}

/// A ghost-value cache with dirty-bitmap maintenance: the first
/// [`GhostHalo::sync`] pulls the full halo, every later sync pushes
/// only the owned entries marked dirty since the previous one
/// (PMondriaan-style incremental exchange; see DESIGN.md §17).
pub(crate) struct GhostHalo<T> {
    exch: GhostExchange,
    cache: Vec<T>,
    synced: bool,
    /// Dirty flags over *owned offsets* (the push side of the halo).
    dirty: Vec<bool>,
    any_dirty: bool,
}

impl<T: Clone + Send + 'static> GhostHalo<T> {
    /// Wraps `exch` with an empty cache; `owned_len` is the length of
    /// this rank's owned block (the dirty bitmap's domain).
    pub(crate) fn new(exch: GhostExchange, owned_len: usize) -> Self {
        GhostHalo {
            exch,
            cache: Vec::new(),
            synced: false,
            dirty: vec![false; owned_len],
            any_dirty: false,
        }
    }

    /// Flags an owned offset as changed since the last sync; the next
    /// [`GhostHalo::sync`] will push it to every rank ghosting it.
    pub(crate) fn mark_dirty(&mut self, owned_offset: usize) {
        self.dirty[owned_offset] = true;
        self.any_dirty = true;
    }

    /// Brings every rank's ghost cache up to date (collective — all
    /// ranks must call even when locally clean). The first call pulls
    /// the full halo; later calls push only dirty entries.
    pub(crate) fn sync(&mut self, comm: &mut Comm, owned: &[T]) -> &[T] {
        self.sync_updates(comm, owned);
        &self.cache
    }

    /// Like [`GhostHalo::sync`], but returns the ghost entries that
    /// changed this round as `(ghost slot, old, new)` triples (empty on
    /// the initial full pull — callers treat that pull as the baseline).
    /// Collective like `sync`.
    pub(crate) fn sync_updates(&mut self, comm: &mut Comm, owned: &[T]) -> Vec<(usize, T, T)> {
        let updates = if !self.synced {
            self.cache = self.exch.pull(comm, owned);
            self.synced = true;
            Vec::new()
        } else {
            self.exch
                .push_dirty(comm, owned, &self.dirty, &mut self.cache)
        };
        if self.any_dirty {
            self.dirty.iter_mut().for_each(|d| *d = false);
            self.any_dirty = false;
        }
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use dlb_mpisim::run_spmd;

    /// A small deterministic hypergraph with cross-rank nets.
    fn sample(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n {
            b.set_vertex_weight(v, 1.0 + (v % 3) as f64);
        }
        for j in 0..(2 * n) {
            let a = (j * 7 + 1) % n;
            let c = (j * 13 + 4) % n;
            let d = (j * 5 + 2) % n;
            b.add_net(1.0 + (j % 4) as f64, [a, c, d]);
        }
        b.build()
    }

    /// Rank `rank`'s share of `h` with no vertex fixed.
    fn share(h: &Hypergraph, rank: usize, size: usize) -> DistLevel {
        DistLevel::from_replicated(h, &FixedAssignment::free(h.num_vertices()), rank, size)
    }

    /// Distributed connectivity−1 cut (collective): each net is counted
    /// once, by its owner (which stores its full pin list), with ghost
    /// parts pulled through `exch` — exercises the owner/stub layout
    /// and the halo together.
    fn cut_k1(
        level: &DistLevel,
        comm: &mut Comm,
        exch: &GhostExchange,
        owned_part: &[PartId],
    ) -> f64 {
        let ghost_part = exch.pull(comm, owned_part);
        let owned = level.owned().len();
        let mut local = 0.0;
        for lj in (0..level.num_nets()).filter(|&lj| level.owns_net(lj)) {
            let mut parts: Vec<PartId> = level
                .pins(lj)
                .iter()
                .map(|&v| {
                    let s = level.halo_slot(v as usize).expect("pin has a slot");
                    if s < owned {
                        owned_part[s]
                    } else {
                        ghost_part[s - owned]
                    }
                })
                .collect();
            parts.sort_unstable();
            parts.dedup();
            local += level.net_cost(lj) * (parts.len() - 1) as f64;
        }
        comm.allreduce_sum(local)
    }

    #[test]
    fn owned_vertices_see_their_full_incidence() {
        let h = sample(23);
        for size in [1usize, 2, 4] {
            for rank in 0..size {
                let level = &share(&h, rank, size);
                for v in level.owned() {
                    let local: Vec<u32> = level
                        .nets_of(v)
                        .iter()
                        .map(|&lj| level.net_global_id(lj as usize) as u32)
                        .collect();
                    assert_eq!(local, h.vertex_nets(v), "v={v} rank={rank}/{size}");
                }
            }
        }
    }

    /// A net without pins is on no rank (it used to divide by its size).
    #[test]
    fn empty_nets_are_held_by_no_rank() {
        let h = Hypergraph::from_nets_unit(4, &[vec![], vec![0, 3], vec![], vec![2]]);
        for size in [1usize, 2, 5] {
            for rank in 0..size {
                let level = &share(&h, rank, size);
                let held: Vec<usize> = (0..level.num_nets())
                    .map(|lj| level.net_global_id(lj))
                    .collect();
                assert!(
                    held.iter().all(|j| [1, 3].contains(j)),
                    "rank {rank}/{size}: {held:?}"
                );
            }
        }
    }

    #[test]
    fn pin_storage_partitions_and_nets_have_one_owner() {
        let h = sample(37);
        for size in [1usize, 2, 4] {
            let shares: Vec<DistLevel> = (0..size).map(|r| share(&h, r, size)).collect();
            let mut owner_count = vec![0usize; h.num_nets()];
            for level in &shares {
                assert!(level.local_pin_count() <= h.num_pins());
                let my_range = level.owned();
                for lj in 0..level.num_nets() {
                    let j = level.net_global_id(lj);
                    // Stubs still report the global size.
                    assert_eq!(level.net_size(lj), h.net(j).len());
                    if level.owns_net(lj) {
                        assert_eq!(level.pins(lj), h.net(j));
                        owner_count[j] += 1;
                    } else {
                        // Stub: exactly this rank's own pins, net order.
                        let expect: Vec<u32> = h
                            .net(j)
                            .iter()
                            .copied()
                            .filter(|&v| my_range.contains(&(v as usize)))
                            .collect();
                        assert_eq!(level.pins(lj), expect, "stub pins, net {j}");
                        assert!(!expect.is_empty());
                    }
                }
                // Ghosts are exactly the remote pins of owned nets.
                for &g in level.ghosts() {
                    assert!(!my_range.contains(&g));
                }
                assert!(level.owned_pin_count() <= level.local_pin_count());
            }
            assert_eq!(owner_count, vec![1; h.num_nets()], "size={size}");
            // Owned (canonical) pin storage partitions the global pins.
            let owned_total: usize = shares.iter().map(|level| level.owned_pin_count()).sum();
            assert_eq!(owned_total, h.num_pins(), "size={size}");
            if size == 1 {
                assert_eq!(shares[0].local_pin_count(), h.num_pins());
                assert_eq!(shares[0].owned_pin_count(), h.num_pins());
                assert!(shares[0].ghosts().is_empty());
            }
        }
    }

    /// Total per-rank storage (pins + ghosts + weights + metadata)
    /// must shrink as ranks are added, even on uniformly random nets —
    /// the owner/stub scheme stores each full pin list exactly once.
    #[test]
    fn resident_bytes_scale_down_with_ranks() {
        let h = sample(211);
        let mut prev = usize::MAX;
        for size in [1usize, 2, 4, 8] {
            let peak = (0..size)
                .map(|r| share(&h, r, size).resident_bytes())
                .max()
                .unwrap();
            assert!(peak < prev, "size={size}: {peak} !< {prev}");
            prev = peak;
        }
    }

    #[test]
    fn ghost_exchange_pulls_owner_values() {
        let h = sample(29);
        for size in [1usize, 2, 4] {
            let results = run_spmd(size, |comm| {
                let level = &share(&h, comm.rank(), comm.size());
                let exch = GhostExchange::build(comm, level);
                // Owner value of vertex v is v * 10 + 1.
                let owned: Vec<usize> = level.owned().map(|v| v * 10 + 1).collect();
                let ghost_vals = exch.pull(comm, &owned);
                ghost_vals
                    .iter()
                    .zip(level.ghosts())
                    .all(|(&got, &g)| got == g * 10 + 1)
            });
            assert!(results.into_iter().all(|ok| ok), "size={size}");
        }
    }

    /// The incremental dirty-push path must leave every ghost cache
    /// exactly where a fresh full pull would, while a quiet round
    /// moves (close to) zero bytes.
    #[test]
    fn dirty_push_matches_full_pull() {
        let h = sample(41);
        for size in [1usize, 2, 3, 4] {
            let results = run_spmd(size, |comm| {
                let level = &share(&h, comm.rank(), comm.size());
                let exch = GhostExchange::build(comm, level);
                let mut halo =
                    GhostHalo::new(GhostExchange::build(comm, level), level.owned().len());
                let mut owned: Vec<u64> = level.owned().map(|v| v as u64).collect();
                halo.sync(comm, &owned);
                let quiet_before = comm.stats().bytes_sent;
                // Quiet round: nothing dirty, nothing moves.
                halo.sync(comm, &owned);
                let quiet_bytes = comm.stats().bytes_sent - quiet_before;
                // Mutate a subset of owned values and mark them dirty.
                for (off, val) in owned.iter_mut().enumerate() {
                    if off % 3 == 0 {
                        *val += 1000;
                        halo.mark_dirty(off);
                    }
                }
                let incr = halo.sync(comm, &owned).to_vec();
                let full = exch.pull(comm, &owned);
                (incr == full, quiet_bytes)
            });
            for (rank, (matches, quiet_bytes)) in results.into_iter().enumerate() {
                assert!(matches, "size={size} rank={rank}");
                // A quiet alltoallv of empty batches carries no item bytes.
                assert_eq!(quiet_bytes, 0, "size={size} rank={rank}");
            }
        }
    }

    /// `build_for_ids` serves arbitrary remote-id halos (used for
    /// projecting contraction maps across ranks).
    #[test]
    fn ad_hoc_exchange_serves_arbitrary_ids() {
        for size in [1usize, 2, 4] {
            let n = 50usize;
            let results = run_spmd(size, |comm| {
                let dist = BlockDist::new(n, comm.size());
                let range = dist.range(comm.rank());
                // Ask for a scattered set of remote ids.
                let ids: Vec<usize> = (0..n)
                    .filter(|v| v % 7 == comm.rank() % 7 && !range.contains(v))
                    .collect();
                let exch = GhostExchange::build_for_ids(comm, &dist, &ids);
                let owned: Vec<usize> = range.map(|v| v * 3).collect();
                let vals = exch.pull(comm, &owned);
                ids.iter().zip(&vals).all(|(&g, &x)| x == g * 3)
            });
            assert!(results.into_iter().all(|ok| ok), "size={size}");
        }
    }

    #[test]
    fn distributed_metrics_match_replicated() {
        let h = sample(31);
        let k = 4;
        let part: Vec<usize> = (0..h.num_vertices()).map(|v| (v * 3 + 1) % k).collect();
        let expect_cut = metrics::cutsize_connectivity(&h, &part, k);
        for size in [1usize, 2, 3] {
            let results = run_spmd(size, |comm| {
                let level = &share(&h, comm.rank(), comm.size());
                let exch = GhostExchange::build(comm, level);
                let owned: Vec<usize> = part[level.owned()].to_vec();
                cut_k1(level, comm, &exch, &owned)
            });
            for cut in results {
                assert!((cut - expect_cut).abs() < 1e-9, "size={size}");
            }
        }
    }

    /// `sample(n)` with a second load column, vertex sizes that differ
    /// from the default, and every third vertex fixed.
    fn two_constraint_sample(n: usize) -> (Hypergraph, FixedAssignment) {
        let mut h = sample(n);
        h.set_loads(VertexLoads::from_columns(vec![
            h.loads().scalar().to_vec(),
            (0..n).map(|v| 0.5 + (v % 4) as f64).collect(),
        ]));
        h.set_vertex_sizes((0..n).map(|v| 2.0 + (v % 5) as f64).collect());
        let mut fixed = FixedAssignment::free(n);
        for v in (1..n).step_by(3) {
            fixed.fix(v, v % 2);
        }
        (h, fixed)
    }

    /// The gathered level is the input, whole: the hypergraph equals it
    /// with `==` (nets, costs, sizes and every load column), and so does
    /// the fixed assignment — on two constraints with fixed vertices, at
    /// ranks 1, 2 and 4, and in a world with empty ranks (7 on 5).
    #[test]
    fn gather_replicated_rebuilds_the_input() {
        for (n, sizes) in [(19usize, &[1usize, 2, 4][..]), (5, &[7][..])] {
            let (h, fixed) = two_constraint_sample(n);
            assert_eq!(h.load_arity(), 2);
            assert!(fixed.num_fixed() > 0);
            for &size in sizes {
                let results = run_spmd(size, |comm| {
                    DistLevel::from_replicated(&h, &fixed, comm.rank(), comm.size()).gather(comm)
                });
                for (rank, (g, g_fixed)) in results.into_iter().enumerate() {
                    assert!(g == h, "n={n} size={size} rank={rank}: hypergraph differs");
                    assert_eq!(g_fixed, fixed, "n={n} size={size} rank={rank}");
                }
            }
        }
    }

    /// Worlds with more ranks than vertices: ranks past the vertex
    /// count own nothing and must still build, exchange, measure, and
    /// gather without panicking.
    #[test]
    fn empty_ranks_survive_every_collective() {
        let h = sample(5);
        let k = 2;
        let part: Vec<usize> = (0..h.num_vertices()).map(|v| v % k).collect();
        let expect_cut = metrics::cutsize_connectivity(&h, &part, k);
        for size in [7usize, 9] {
            let results = run_spmd(size, |comm| {
                let level = &share(&h, comm.rank(), comm.size());
                let exch = GhostExchange::build(comm, level);
                let owned: Vec<usize> = part[level.owned()].to_vec();
                let mut halo = GhostHalo::new(GhostExchange::build(comm, level), owned.len());
                halo.sync(comm, &owned);
                // Dirty-push round on a world with empty ranks.
                halo.sync(comm, &owned);
                let cut = cut_k1(level, comm, &exch, &owned);
                let (g, _) = level.gather(comm);
                (level.owned().len(), cut, g.num_nets(), g.num_pins())
            });
            let mut owned_total = 0usize;
            for (owned, cut, nets, pins) in results {
                owned_total += owned;
                assert!((cut - expect_cut).abs() < 1e-9, "size={size}");
                assert_eq!(nets, h.num_nets());
                assert_eq!(pins, h.num_pins());
            }
            assert_eq!(owned_total, h.num_vertices(), "size={size}");
        }
    }
}
