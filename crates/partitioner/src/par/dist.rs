//! The kernels that step a distributed level of the V-cycle — matching,
//! contraction, the partition state, refinement and projection — with
//! their wire formats, and [`dist_multilevel`], one V-cycle
//! (`crate::vcycle`) on a communicator. The level itself, storage and
//! gather, is `par::disthg::DistLevel`.
//!
//! A replicated level keeps the whole hypergraph on every rank; a
//! distributed level runs the same V-cycle step with **owner-computes**
//! storage: each net's full pin list lives only on its owner rank,
//! other pin-owning ranks hold compact stubs, and every per-vertex
//! array — partition vector, primary and auxiliary loads, vertex sizes,
//! fixed assignments, and the fine→coarse projection maps — is
//! block-distributed alongside the vertex blocks (see DESIGN.md §9).
//! Remote state crosses the wire only
//! through explicit ghost halos (`disthg::GhostExchange`), and
//! after the first full pull each FM round pushes only the vertices
//! that actually moved (the dirty-bitmap incremental exchange of
//! DESIGN.md §17). Per-rank residency is `O((n + |pins|)/p + halo)`
//! with no term proportional to the global instance.
//!
//! Both kinds of level run the same per-vertex kernels (IPM scoring,
//! candidate rounds, move gains, FM proposals, the rebalance step),
//! written once over the crate's storage view; this module supplies the
//! distributed steps, their wire formats, and what keeps the state exact.
//! Bit-identity with the replicated levels is preserved:
//!
//! * **Matching** — a stub stores this rank's own pins *in net order*,
//!   so per-candidate scoring sweeps exactly the elements the
//!   replicated loop restricted to the owned range would visit, in the
//!   same order (same float accumulation, same first-touch order).
//!   Global candidates travel with their complete ascending net-id
//!   lists, attached by their owner rank.
//! * **Contraction** — coarse vertex ids follow the replicated
//!   ascending-representative numbering (rank blocks prefix-summed);
//!   per-coarse-vertex attributes are accumulated at the coarse owner
//!   in ascending fine order (at most two contributions each, the
//!   replicated add order); identical coarse pin-sets collapse on a
//!   deterministic shard rank in ascending fine-net order; and the
//!   coarse net shares are routed owner-computes again.
//! * **Refinement** — sigma rows cover every locally visible net (an
//!   owned net's row is exact via the ghost-part cache; a stub's row is
//!   kept exact by per-move delta events from the net's owner), so an
//!   owner rank's gains are exact. Verdicts are decided by each move's
//!   owner against the evolving state and broadcast; replicated part
//!   *weights* (an O(k) vector, not O(n)) update in lockstep on every
//!   rank through the proposal payloads.
//!
//! Once the current level has at most `cfg.dist.gather_threshold`
//! vertices it is gathered onto every rank and the remaining levels are
//! held replicated (coarse hypergraphs are tiny). With
//! `cfg.dist.distributed` off nothing is ever distributed: every level
//! is a replicated one, so "replicated" is the SPMD V-cycle with zero
//! distributed levels.

use std::borrow::Cow;

use dlb_hypergraph::{parallel, Hypergraph, PartId};
use dlb_mpisim::{BlockDist, Comm};
use rand::rngs::StdRng;

use super::disthg::{DistLevel, GhostExchange, GhostHalo, NetShare};
use crate::coarsen::NetCollapser;
use crate::config::{CoarseningConfig, Config, PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;
use crate::kway::multilevel;
use crate::matching::Matching;
use crate::par::matching::candidate_matching;
use crate::par::refine::propose_moves;
use crate::refine::{rebalance, CommitMove, PartitionState, RefineScratch};
use crate::vcycle::Cx;
use crate::view::LevelView;

/// Per-rank memory/communication figures of one distributed V-cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistStats {
    /// Number of levels (including the finest) held in distributed form.
    pub dist_levels: usize,
    /// Sum of local pin counts over all simultaneously-alive
    /// distributed levels — the rank's peak pin storage for the cycle,
    /// including stub copies of its own pins under remote nets.
    pub total_local_pins: usize,
    /// Sum over levels of the *owned* (canonical) pin storage — each
    /// net counted once, at its owner, so the per-level sum across
    /// ranks equals the hypergraph's pin count.
    pub total_owned_pins: usize,
    /// Largest ghost count of any distributed level.
    pub peak_ghosts: usize,
    /// Sum over levels of the rank's **total** resident bytes: pin
    /// storage (owned lists + stubs + transpose), per-net metadata, and
    /// every per-vertex array the driver holds (owned weight/size/fixed
    /// blocks, auxiliary load columns, the partition slice, the
    /// fine→coarse map, and the ghost-part cache). This is the
    /// end-to-end memory-scaling figure of merit: it must shrink with
    /// the rank count on any input, localized or not.
    ///
    /// It counts distributed levels only: levels are observed where they
    /// are built distributed (the input and each distributed
    /// contraction), so the level gathered whole onto every rank and
    /// every level coarsened from that replica are in no figure. Two
    /// rank counts can therefore compare hierarchies of different
    /// depths — on the cage14 instance of the memory-budget test, 2
    /// distributed levels at 64 ranks against 11 at 16.
    pub total_resident_bytes: usize,
    /// Vertex count at which the hypergraph was gathered (0 = the input
    /// was already at or below the threshold; never distributed).
    pub gathered_vertices: usize,
}

impl DistStats {
    pub(crate) fn observe(&mut self, d: &DistLevel) {
        self.dist_levels += 1;
        self.total_local_pins += d.local_pin_count();
        self.total_owned_pins += d.owned_pin_count();
        self.peak_ghosts = self.peak_ghosts.max(d.ghosts().len());
        self.total_resident_bytes += d.resident_bytes();
    }
}

/// An optional part id (a fixed constraint, a part under the
/// restriction) in the wire records: -1 for none.
fn to_wire(p: Option<PartId>) -> i64 {
    p.map_or(-1, |p| p as i64)
}

fn from_wire(p: i64) -> Option<PartId> {
    (p >= 0).then_some(p as PartId)
}

/// A matching candidate on the wire: the vertex, its fixed constraint,
/// its part under the restriction, and its complete incidence list as
/// ascending global net ids — attached by the owner rank, whose
/// transpose is complete for owned vertices.
type CandRecord = (usize, i64, i64, Vec<usize>);

/// One level of distributed matching (collective), restricted to the
/// parts of `parts` (this rank's owned block of the restriction) if
/// given: the mates of this rank's owned vertices (global ids, self if
/// unmatched) with the global pair count. The same rounds as
/// [`par_ipm_matching`] run, over the owner-computes storage.
pub(crate) fn dist_ipm_matching(
    comm: &mut Comm,
    d: &DistLevel,
    parts: Option<&[PartId]>,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Matching {
    let mine = d.owned();
    let start = mine.start;
    let pack = |u: usize| -> CandRecord {
        let gids = d
            .nets_of(u)
            .iter()
            .map(|&lj| d.net_global_id(lj as usize))
            .collect();
        let (fixed, part) = (d.fixed(u), parts.map(|p| p[u - start]));
        (u, to_wire(fixed), to_wire(part), gids)
    };
    // A net this rank cannot see contains none of its owned vertices, so
    // dropping it leaves this rank's proposals unchanged. This rank's own
    // candidates were packed from their stored incidence lists, which
    // are complete, so they borrow those instead of a translated copy.
    let unpack = |(u, fixed, part, nets): CandRecord| {
        let local = if mine.contains(&u) {
            Cow::Borrowed(d.nets_of(u))
        } else {
            let mut local = Vec::with_capacity(nets.len());
            local.extend(
                nets.iter()
                    .filter_map(|&g| d.local_net_index(g).map(|lj| lj as u32)),
            );
            Cow::Owned(local)
        };
        (u, from_wire(fixed), from_wire(part), local)
    };
    candidate_matching(comm, &d, parts, cfg, rng, |comm, mine| {
        let records: Vec<CandRecord> = mine.into_iter().map(pack).collect();
        comm.allgather(records)
            .into_iter()
            .flatten()
            .map(unpack)
            .collect()
    })
}

/// Deterministic shard rank for a coarse pin-set: every copy of an
/// identical pin-set lands on the same rank, which performs the
/// duplicate collapse for that set (FNV-1a over the pins).
fn pinset_shard(pins: &[u32], nranks: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in pins {
        hash ^= v as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % nranks as u64) as usize
}

/// Values pulled once for a sorted, deduplicated id list; resolved by
/// binary search.
struct RemoteLookup {
    ids: Vec<usize>,
    vals: Vec<usize>,
}

impl RemoteLookup {
    fn get(&self, id: usize) -> usize {
        self.vals[self.ids.binary_search(&id).expect("id was pulled")]
    }
}

/// Fetches `owned_vals[offset]` from the owner of each remote id in
/// `ids` (collective — every rank must call, even with no ids). `ids`
/// must be sorted, deduplicated, and contain no locally owned vertex.
fn pull_remote(
    comm: &mut Comm,
    dist: &BlockDist,
    ids: Vec<usize>,
    owned_vals: &[usize],
) -> RemoteLookup {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    let exch = GhostExchange::build_for_ids(comm, dist, &ids);
    let vals = exch.pull(comm, owned_vals);
    RemoteLookup { ids, vals }
}

/// Distinct owner ranks of local net `lj`'s pins, ascending. Only
/// meaningful on the net's owner (which stores the full pin list).
fn pin_owner_ranks(d: &DistLevel, lj: usize, owners: &mut Vec<usize>) {
    debug_assert!(d.owns_net(lj));
    let vdist = d.vertex_dist();
    owners.clear();
    owners.extend(d.pins(lj).iter().map(|&w| vdist.owner(w as usize)));
    owners.sort_unstable();
    owners.dedup();
}

/// Distributed contraction: builds the coarse level without any rank
/// materializing a replicated coarse hypergraph **or** a replicated
/// fine→coarse map. The coarse hypergraph equals the replicated
/// [`contract`](crate::coarsen::contract) output net-for-net:
///
/// 1. Representatives (`mate >= self`) take coarse ids in ascending
///    fine order; per-rank representative counts are prefix-summed so
///    the global numbering matches the replicated scan. Non-reps copy
///    their mate's id, pulling it from the mate's owner if remote.
/// 2. Per-coarse-vertex attributes (weight, size, fixed flag, the part
///    of the restriction `part` if given, auxiliary loads) are routed to
///    the coarse owner and accumulated
///    in ascending fine order — at most two contributions per coarse
///    vertex, the replicated add order.
/// 3. Each fine net's owner remaps, sorts and dedups its pins (ghost
///    pins through a one-shot f2c halo pull), drops sub-2-pin nets and
///    submits `(fine_id, cost, pins)` to the pin-set's shard rank.
/// 4. The shard collapses duplicates in ascending fine-net order through
///    the replicated contraction's own kernel
///    ([`NetCollapser`](crate::coarsen::NetCollapser)), so group costs
///    are summed in the replicated order; a group is keyed by its first
///    fine net, and coarse net ids are the positions of those keys in
///    globally sorted order.
/// 5. Each surviving coarse net is routed owner-computes: the full pin
///    list to its owner rank, a stub (that rank's own pins, which form
///    one contiguous run of the sorted list) to every other pin-owning
///    rank.
pub(crate) fn dist_contract(
    comm: &mut Comm,
    d: &DistLevel,
    mate: &[usize],
    part: Option<&[PartId]>,
) -> (DistLevel, Vec<usize>, Option<Vec<PartId>>) {
    let my_range = d.owned();
    let start = my_range.start;
    let owned = my_range.len();
    let nranks = comm.size();
    let vdist = d.vertex_dist();

    // --- Global coarse numbering. ---
    let my_reps = (0..owned).filter(|&i| mate[i] >= start + i).count();
    let rep_counts = comm.allgather(my_reps);
    let nc: usize = rep_counts.iter().sum();
    let my_base: usize = rep_counts[..comm.rank()].iter().sum();
    let mut f2c = vec![usize::MAX; owned];
    let mut next = my_base;
    for i in 0..owned {
        if mate[i] >= start + i {
            f2c[i] = next;
            next += 1;
        }
    }
    let mut remote_mates: Vec<usize> = (0..owned)
        .filter(|&i| mate[i] < start + i && !my_range.contains(&mate[i]))
        .map(|i| mate[i])
        .collect();
    remote_mates.sort_unstable();
    remote_mates.dedup();
    // A non-rep's mate is a representative at its owner, so its coarse
    // id is already assigned there.
    let mate_lookup = pull_remote(comm, &vdist, remote_mates, &f2c);
    for i in 0..owned {
        let m = mate[i];
        if m < start + i {
            f2c[i] = if my_range.contains(&m) {
                f2c[m - start]
            } else {
                mate_lookup.get(m)
            };
        }
    }

    // --- Coarse per-vertex attributes, accumulated at the coarse
    // owner in ascending fine order. ---
    let cdist = BlockDist::new(nc, nranks);
    let crange = cdist.range(comm.rank());
    // (coarse id, fine id, weight, size, fixed, part under the
    // restriction, aux values).
    type CoarseContribution = (usize, usize, f64, f64, i64, i64, Vec<f64>);
    let mut contrib: Vec<Vec<CoarseContribution>> = (0..nranks).map(|_| Vec::new()).collect();
    for i in 0..owned {
        let c = f2c[i];
        contrib[cdist.owner(c)].push((
            c,
            start + i,
            d.weight(start + i),
            d.vsize[i],
            to_wire(d.fixed(start + i)),
            to_wire(part.map(|p| p[i])),
            d.aux_of(start + i),
        ));
    }
    let mut incoming: Vec<CoarseContribution> =
        comm.alltoallv(contrib).into_iter().flatten().collect();
    incoming.sort_unstable_by_key(|r| r.1);
    let cown = crange.len();
    let mut cw = vec![0.0f64; cown];
    let mut cs = vec![0.0f64; cown];
    let mut cfixed: Vec<Option<PartId>> = vec![None; cown];
    let mut cpart = part.map(|_| vec![0; cown]);
    let mut caux: Vec<Vec<f64>> = (0..d.aux.len()).map(|_| vec![0.0f64; cown]).collect();
    for (c, _v, w, s, fx, p, aux_vals) in incoming {
        let off = c - crange.start;
        cw[off] += w;
        cs[off] += s;
        if let Some(fx) = from_wire(fx) {
            debug_assert!(cfixed[off].is_none_or(|q| q == fx));
            cfixed[off] = Some(fx);
        }
        // Siblings share their part under a restricted matching.
        if let (Some(cpart), Some(p)) = (cpart.as_mut(), from_wire(p)) {
            cpart[off] = p;
        }
        for (col, &a) in aux_vals.iter().enumerate() {
            caux[col][off] += a;
        }
    }

    // --- Net remap and shard submission. ---
    let exch = GhostExchange::build(comm, d);
    let ghost_f2c = exch.pull(comm, &f2c);
    // A coarse id is below `nc`, at most the fine level's vertex count,
    // which its 32-bit pins already hold: each `as u32` is exact.
    let mut outgoing: Vec<Vec<(usize, f64, Vec<u32>)>> = (0..nranks).map(|_| Vec::new()).collect();
    let mut pins: Vec<u32> = Vec::new();
    for lj in 0..d.num_nets() {
        if !d.owns_net(lj) {
            continue;
        }
        pins.clear();
        for &v in d.pins(lj) {
            let s = d.halo_slot(v as usize).expect("pin has a slot");
            let c = if s < owned {
                f2c[s]
            } else {
                ghost_f2c[s - owned]
            };
            pins.push(c as u32);
        }
        pins.sort_unstable();
        pins.dedup();
        if pins.len() < 2 {
            continue;
        }
        let shard = pinset_shard(&pins, nranks);
        outgoing[shard].push((d.net_global_id(lj), d.net_cost(lj), pins.clone()));
    }
    let mut submitted: Vec<(usize, f64, Vec<u32>)> =
        comm.alltoallv(outgoing).into_iter().flatten().collect();
    // Ascending fine-net order = the replicated collapse order.
    submitted.sort_unstable_by_key(|&(j, _, _)| j);

    // Collapse duplicates with the kernel of the replicated contraction;
    // a group is keyed by its first fine net id.
    let mut groups = NetCollapser::new(
        submitted.len(),
        submitted.iter().map(|(_, _, net)| net.len()).sum(),
    );
    let mut my_keys: Vec<usize> = Vec::new();
    for (j, cost, net) in submitted {
        let group = groups
            .push(cost, net)
            .expect("a submitted net has two or more pins");
        if group == my_keys.len() {
            my_keys.push(j);
        }
    }
    let groups = groups.finish();

    // Global coarse net ids: the replicated construction appends a
    // group the first time its pin-set occurs while scanning fine nets
    // in order, so sorting the first-occurrence keys reproduces its ids.
    let mut all_keys: Vec<usize> = comm
        .allgather(my_keys.clone())
        .into_iter()
        .flatten()
        .collect();
    all_keys.sort_unstable();
    dlb_trace::count(dlb_trace::Counter::ContractNetsIn, d.global_nets as u64);
    dlb_trace::count(dlb_trace::Counter::ContractNetsOut, all_keys.len() as u64);

    // --- Owner-computes share routing. The pin list is sorted, so
    // each rank's pins form one contiguous run. ---
    let mut routed: Vec<Vec<NetShare>> = (0..nranks).map(|_| Vec::new()).collect();
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    for (min_j, (cost, net)) in my_keys.into_iter().zip(groups.iter()) {
        let cid = all_keys
            .binary_search(&min_j)
            .expect("group key is present");
        runs.clear();
        let mut s = 0usize;
        while s < net.len() {
            let r = cdist.owner(net[s] as usize);
            let mut e = s + 1;
            while e < net.len() && cdist.owner(net[e] as usize) == r {
                e += 1;
            }
            runs.push((r, s, e));
            s = e;
        }
        // Rotate ownership over the distinct pin-holding ranks rather
        // than pin positions: coarsening concentrates pins on a few
        // high-degree coarse vertices, and a position-based rotation
        // would hand those ranks most full pin-list copies on top of
        // their already-large stub shares.
        let owner = runs[cid % runs.len()].0;
        let global_size = net.len();
        for &(r, s, e) in &runs {
            let share_pins = if r == owner {
                net.to_vec()
            } else {
                net[s..e].to_vec()
            };
            routed[r].push(NetShare {
                gid: cid,
                cost,
                global_size,
                owner,
                pins: share_pins,
            });
        }
    }
    let mut shares: Vec<NetShare> = comm.alltoallv(routed).into_iter().flatten().collect();
    shares.sort_unstable_by_key(|s| s.gid);
    let coarse = DistLevel::from_local_nets(
        cdist,
        comm.rank(),
        all_keys.len(),
        shares,
        cw,
        cs,
        caux,
        cfixed,
    );
    (coarse, f2c, cpart)
}

/// Replicated part-weight vectors from distributed per-vertex data
/// (collective). The scalar column folds on the global `DEFAULT_CHUNK`
/// grid and each auxiliary column folds straight — bitwise identical to
/// `refine::fold_weights` on the replicated level.
fn fold_part_weights(
    comm: &mut Comm,
    level: &DistLevel,
    k: usize,
    part: &[PartId],
) -> (Vec<f64>, Vec<f64>) {
    let start = level.owned().start;
    let weights = comm.fold_blocked(
        k,
        start,
        part.len(),
        Some(parallel::DEFAULT_CHUNK),
        |v, acc| {
            acc[part[v - start]] += level.weight(v);
        },
    );
    let mut aux_weights = Vec::new();
    for col in &level.aux {
        let col_w = comm.fold_blocked(k, start, part.len(), None, |v, acc| {
            acc[part[v - start]] += col[v - start];
        });
        aux_weights.extend(col_w);
    }
    (weights, aux_weights)
}

/// [`PartitionState`] over owner-computes storage. Sigma rows exist for
/// every locally visible net and always hold the net's **global** part
/// distribution (owned nets count their ghost pins through the halo
/// cache; stub rows are seeded by the owner and patched by per-move
/// delta events), which is what makes the shared move kernels exact for
/// an owned vertex. The O(k) part-weight vectors are replicated and kept
/// in bitwise lockstep on every rank; the partition vector itself is
/// owned-block only.
type DistState<'a> = PartitionState<&'a DistLevel>;

impl<'a> DistState<'a> {
    /// Builds the shared state (collective): first halo pull seeds the
    /// ghost-part cache, owners compute exact rows for their nets and
    /// send each stub holder its copy, and the part weights fold in the
    /// replicated order.
    fn new(
        comm: &mut Comm,
        halo: &mut GhostHalo<PartId>,
        level: &'a DistLevel,
        k: usize,
        part: Vec<PartId>,
    ) -> Self {
        let owned = level.owned().len();
        assert_eq!(part.len(), owned);
        let ghost_part: Vec<PartId> = halo.sync(comm, &part).to_vec();
        let mut sigma = vec![0u32; level.num_nets() * k];
        let mut row_msgs: Vec<Vec<(usize, Vec<u32>)>> =
            (0..comm.size()).map(|_| Vec::new()).collect();
        let mut owners: Vec<usize> = Vec::new();
        for lj in 0..level.num_nets() {
            if !level.owns_net(lj) {
                continue;
            }
            for &v in level.pins(lj) {
                let s = level.halo_slot(v as usize).expect("pin has a slot");
                let p = if s < owned {
                    part[s]
                } else {
                    ghost_part[s - owned]
                };
                sigma[lj * k + p] += 1;
            }
            pin_owner_ranks(level, lj, &mut owners);
            let gid = level.net_global_id(lj);
            for &r in owners.iter() {
                if r != level.rank() {
                    row_msgs[r].push((gid, sigma[lj * k..(lj + 1) * k].to_vec()));
                }
            }
        }
        for batch in comm.alltoallv(row_msgs) {
            for (gid, row) in batch {
                let lj = level
                    .local_net_index(gid)
                    .expect("sigma row for a non-local net");
                debug_assert!(!level.owns_net(lj));
                sigma[lj * k..(lj + 1) * k].copy_from_slice(&row);
            }
        }
        let (weights, aux_weights) = fold_part_weights(comm, level, k, &part);
        PartitionState::assemble(level, k, sigma, weights, aux_weights, part, Vec::new())
    }

    /// Applies the replicated (O(k)) share of a remote vertex's move:
    /// the weight vectors shift by the payload values in the same
    /// arithmetic order as [`PartitionState::apply`] on the owner, so
    /// the vectors stay bitwise identical across ranks. Sigma rows are
    /// reconciled separately by [`sync_moves`].
    fn apply_remote(&mut self, from: PartId, to: PartId, w: f64, aux_vals: &[f64]) {
        self.weights[from] -= w;
        self.weights[to] += w;
        for (i, &a) in aux_vals.iter().enumerate() {
            self.aux_weights[i * self.k + from] -= a;
            self.aux_weights[i * self.k + to] += a;
        }
    }
}

/// Reconciles sigma rows after a batch of committed moves (collective).
/// Every row change goes through [`PartitionState::shift`], which also
/// carries it into the gain-table rows of the net's locally stored pins,
/// so a rank's table sees exactly the events its rows see.
///
/// Three disjoint row families update:
///
/// * **Owned-net rows for owned movers** — already updated inside
///   [`PartitionState::apply`] (an owned vertex's incidence list is
///   complete), nothing to do here.
/// * **Owned-net rows for ghost movers** — the incremental halo push
///   delivers `(slot, old, new)` triples for exactly the ghosts whose
///   part changed; each triple patches the rows of the owned nets that
///   ghost pins.
/// * **Stub rows** — patched by delta events `(net gid, from, to)`
///   emitted by the net's *owner* (exactly one sender per (net, move)):
///   for its own movers directly, for ghost movers on receipt of the
///   halo triple. The mover's owner rank is skipped — its own rows are
///   already exact.
fn sync_moves(
    comm: &mut Comm,
    state: &mut DistState<'_>,
    halo: &mut GhostHalo<PartId>,
    own_moves: &[(usize, PartId, PartId)],
) {
    let level = state.view;
    let me = level.rank();
    let vdist = level.vertex_dist();
    let mut outgoing: Vec<Vec<(usize, u32, u32)>> = (0..comm.size()).map(|_| Vec::new()).collect();
    let mut owners: Vec<usize> = Vec::new();

    let triples = halo.sync_updates(comm, &state.part);
    for (slot, old, new) in triples {
        let v = level.ghosts()[slot];
        // A ghost's local incidence list holds exactly the owned nets
        // that pin it, so these are all owned-net rows.
        for &lj in level.nets_of(v) {
            let lj = lj as usize;
            state.shift(lj, old, new, v);
            stub_events(
                level,
                lj,
                old,
                new,
                vdist.owner(v),
                me,
                &mut outgoing,
                &mut owners,
            );
        }
    }
    for &(v, from, to) in own_moves {
        for &lj in level.nets_of(v) {
            let lj = lj as usize;
            if level.owns_net(lj) {
                stub_events(level, lj, from, to, me, me, &mut outgoing, &mut owners);
            }
        }
    }
    for batch in comm.alltoallv(outgoing) {
        for (gid, from, to) in batch {
            let lj = level
                .local_net_index(gid)
                .expect("stub event for a non-local net");
            debug_assert!(!level.owns_net(lj));
            // The mover lives on another rank (its owner is skipped).
            state.shift(lj, from as usize, to as usize, usize::MAX);
        }
    }
}

/// Queues one stub delta event per remote pin-owning rank of owned net
/// `lj`, skipping the mover's owner (`skip`) whose rows are already
/// exact.
#[allow(clippy::too_many_arguments)]
fn stub_events(
    level: &DistLevel,
    lj: usize,
    from: PartId,
    to: PartId,
    skip: usize,
    me: usize,
    outgoing: &mut [Vec<(usize, u32, u32)>],
    owners: &mut Vec<usize>,
) {
    pin_owner_ranks(level, lj, owners);
    let gid = level.net_global_id(lj);
    for &r in owners.iter() {
        if r != me && r != skip {
            outgoing[r].push((gid, from as u32, to as u32));
        }
    }
}

/// Applies one globally agreed move on every rank (collective): the
/// owner updates its slice and marks the vertex dirty; everyone else
/// applies the O(k) weight shift; sigma rows reconcile through the
/// halo push either way.
#[allow(clippy::too_many_arguments)]
fn apply_global(
    comm: &mut Comm,
    state: &mut DistState<'_>,
    halo: &mut GhostHalo<PartId>,
    v: usize,
    from: PartId,
    to: PartId,
    w: f64,
    aux_vals: &[f64],
) {
    let range = state.view.owned();
    if range.contains(&v) {
        debug_assert_eq!(state.part_of(v), from);
        state.apply(v, to);
        halo.mark_dirty(v - range.start);
        sync_moves(comm, state, halo, &[(v, from, to)]);
    } else {
        state.apply_remote(from, to, w, aux_vals);
        sync_moves(comm, state, halo, &[]);
    }
}

/// One move on the wire: (vertex, from, to, weight, auxiliary loads). The
/// payload lets non-owner ranks shift the replicated weight vectors
/// without holding the mover's per-vertex data.
type MoveProp = (usize, PartId, PartId, f64, Vec<f64>);

/// [`CommitMove`] for a distributed level: each rank's best evacuation
/// covers only the block it stores, so the level-wide best is the
/// allreduce maximum with the replicated tie-break (higher gain, then
/// lower vertex id), applied collectively — through
/// [`PartitionState::shift`] on every rank, which is how each rank's
/// evacuation queues hear of a move another rank's candidate won.
struct Collective<'c> {
    comm: &'c mut Comm,
    halo: &'c mut GhostHalo<PartId>,
}

impl<'a> CommitMove<&'a DistLevel> for Collective<'_> {
    /// The mover's weight and auxiliary loads, which only its owner holds.
    type Undo = (f64, Vec<f64>);

    fn commit(
        &mut self,
        state: &mut DistState<'a>,
        from: PartId,
        local: Option<(usize, PartId, f64)>,
    ) -> Option<(usize, PartId, Self::Undo)> {
        let level = state.view;
        let entry: (f64, usize, usize, f64, Vec<f64>) = match local {
            Some((v, q, g)) => (g, v, q, level.weight(v), level.aux_of(v)),
            None => (f64::NEG_INFINITY, usize::MAX, usize::MAX, 0.0, Vec::new()),
        };
        let (_, v, q, w, aux_vals) = self
            .comm
            .allreduce_vec(vec![entry], |a, b| match a.0.total_cmp(&b.0) {
                std::cmp::Ordering::Greater => a.clone(),
                std::cmp::Ordering::Less => b.clone(),
                std::cmp::Ordering::Equal => {
                    if a.1 <= b.1 {
                        a.clone()
                    } else {
                        b.clone()
                    }
                }
            })
            .pop()
            .expect("allreduce keeps the element");
        if v == usize::MAX {
            return None;
        }
        apply_global(self.comm, state, self.halo, v, from, q, w, &aux_vals);
        Some((v, q, (w, aux_vals)))
    }

    fn revert(
        &mut self,
        state: &mut DistState<'a>,
        v: usize,
        from: PartId,
        to: PartId,
        (w, aux_vals): Self::Undo,
    ) {
        apply_global(self.comm, state, self.halo, v, to, from, w, &aux_vals);
    }
}

/// One distributed FM pass (collective), the owner-computes form of
/// `par_pass`: each rank proposes for its owned boundary on a private
/// copy ([`propose_moves`]), proposals are all-gathered, and each batch
/// is revalidated ([`PartitionState::revalidates`]) *by its owner rank*
/// against the exact evolving state; the verdict bitmap is broadcast and
/// every rank applies the surviving moves' O(k) weight shifts. Sigma rows
/// and the ghost-part cache reconcile after every batch via the
/// incremental (dirty-subset) halo push.
fn dist_pass(
    comm: &mut Comm,
    state: &mut DistState<'_>,
    halo: &mut GhostHalo<PartId>,
    targets: &PartTargets,
    rng: &mut StdRng,
) -> usize {
    let level = state.view;
    let start = level.owned().start;
    let my_moves: Vec<MoveProp> = {
        // The replicated reference folds its private weights from the
        // part vector each pass, so these must be fresh folds too, not
        // the incrementally maintained shared vectors.
        let (weights, aux_weights) = fold_part_weights(comm, level, state.k, &state.part);
        let mut private = state.private_copy(weights, aux_weights);
        propose_moves(comm.rank(), &mut private, targets, rng)
            .into_iter()
            .map(|(v, from, to)| (v, from, to, level.weight(v), level.aux_of(v)))
            .collect()
    };

    let all_moves: Vec<Vec<MoveProp>> = comm.allgather(my_moves);
    let mut applied = 0usize;
    for (r, batch) in all_moves.iter().enumerate() {
        let mut own_applied: Vec<(usize, PartId, PartId)> = Vec::new();
        let verdicts: Vec<bool> = if comm.rank() == r {
            // Decide sequentially against the exact evolving state —
            // every vertex in the batch is owned here, so gains are
            // exact and `from == part[v]` (one proposal per vertex).
            batch
                .iter()
                .map(|&(v, from, to, ..)| {
                    let ok = state.revalidates(v, to, targets);
                    if ok {
                        debug_assert_eq!(state.part_of(v), from);
                        state.apply(v, to);
                        halo.mark_dirty(v - start);
                        own_applied.push((v, from, to));
                    }
                    ok
                })
                .collect()
        } else {
            vec![false; batch.len()]
        };
        let verdicts = comm.broadcast(r, verdicts);
        if comm.rank() != r {
            for (ok, &(_, from, to, w, ref aux_vals)) in verdicts.iter().zip(batch) {
                if *ok {
                    state.apply_remote(from, to, w, aux_vals);
                }
            }
        }
        applied += verdicts.iter().filter(|&&ok| ok).count();
        // Reconcile after *every* batch so batch r+1 is decided against
        // fully synchronized sigma rows.
        sync_moves(comm, state, halo, &own_applied);
    }
    applied
}

/// Distributed refinement over an owner-computes level (collective).
/// `part_owned` is this rank's owned partition slice; it is refined in
/// place.
///
/// The replicated path's auxiliary-feasibility step (`greedy_repair`)
/// has no distributed form. A distributed level starts exactly as
/// aux-feasible as the coarser level left it — the coarsest level is
/// always replicated (and repaired there), and projection preserves
/// every part load — and FM moves respect the auxiliary caps, so the
/// one way a multi-constraint run can lose feasibility here is the
/// rebalance fallback destination, which is chosen on primary load
/// alone; such a violation stays until a replicated level (or the
/// caller's final repair) sees it.
pub(crate) fn dist_refine(
    comm: &mut Comm,
    level: &DistLevel,
    targets: &PartTargets,
    part_owned: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
) {
    let k = targets.k();
    if k < 2 || level.num_vertices() == 0 {
        return;
    }
    let mut halo = GhostHalo::new(GhostExchange::build(comm, level), level.owned().len());
    let mut state = DistState::new(comm, &mut halo, level, k, std::mem::take(part_owned));
    let mut collective = Collective {
        comm: &mut *comm,
        halo: &mut halo,
    };
    rebalance(&mut state, targets, &mut collective);
    for _ in 0..cfg.max_passes {
        let moved = dist_pass(comm, &mut state, &mut halo, targets, rng);
        if moved == 0 {
            break;
        }
    }
    *part_owned = state.part;
}

/// Projects an owned coarse partition slice through an owned
/// fine→coarse map (collective): coarse parts of remotely owned coarse
/// vertices are fetched with a one-shot pull. `PartId` rides the
/// `usize` pull used for f2c ids.
pub(crate) fn project_to_fine(
    comm: &mut Comm,
    cdist: &BlockDist,
    coarse_owned: &[PartId],
    f2c_owned: &[usize],
) -> Vec<PartId> {
    let crange = cdist.range(comm.rank());
    let mut remote: Vec<usize> = f2c_owned
        .iter()
        .copied()
        .filter(|c| !crange.contains(c))
        .collect();
    remote.sort_unstable();
    remote.dedup();
    let lookup = pull_remote(comm, cdist, remote, coarse_owned);
    f2c_owned
        .iter()
        .map(|&c| {
            if crange.contains(&c) {
                coarse_owned[c - crange.start]
            } else {
                lookup.get(c)
            }
        })
        .collect()
}

/// One multilevel V-cycle on `comm`'s ranks — what every V-cycle of the
/// pipeline runs when it has a communicator. Collective; every rank
/// returns the identical assignment, and the assignment is the same
/// whether or not `cfg.dist.distributed` holds any level in distributed
/// form (the two settings differ only in per-rank memory and
/// communication).
pub fn dist_multilevel(
    comm: &mut Comm,
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &Config,
    rng: &mut StdRng,
) -> Vec<PartId> {
    dist_multilevel_stats(comm, h, targets, fixed, cfg, rng).0
}

/// [`dist_multilevel`] also reporting this rank's memory figures.
pub fn dist_multilevel_stats(
    comm: &mut Comm,
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &Config,
    rng: &mut StdRng,
) -> (Vec<PartId>, DistStats) {
    let mut scratch = RefineScratch::new();
    let mut cx = Cx::new(Some(comm), cfg, targets, rng, &mut scratch);
    (multilevel(h, fixed, &mut cx), cx.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::contract;
    use crate::refine::VertexReads;
    use dlb_mpisim::run_spmd;
    use rand::{Rng, SeedableRng};

    fn dist_cfg(seed: u64, gather_threshold: usize) -> Config {
        let mut cfg = Config::seeded(seed);
        cfg.dist.distributed = true;
        cfg.dist.gather_threshold = gather_threshold;
        cfg
    }

    /// The same configuration with every level replicated — the oracle
    /// the distributed levels must reproduce bit for bit.
    fn replicated(cfg: &Config) -> Config {
        let mut cfg = cfg.clone();
        cfg.dist.distributed = false;
        cfg
    }

    /// The distributed levels must be bit-identical to the replicated
    /// levels at the same rank count, for every rank count — also in a
    /// direct k-way call with k > 2, where rebalance ties between equally
    /// overweight parts occur (recursive bisection only ever passes
    /// k = 2, where they cannot) — and on degenerate shapes: single-pin,
    /// empty, duplicate and all-vertex nets, zero-weight vertices, and a
    /// world with fewer vertices than parts and ranks.
    #[test]
    fn dist_multilevel_matches_replicated_levels() {
        let check =
            |h: &Hypergraph, k: usize, eps: f64, cfg: Config, rng_seed: u64, ranks: usize| {
                let targets = PartTargets::uniform(h.total_vertex_weight(), k, eps);
                let fixed = FixedAssignment::free(h.num_vertices());
                let repl_cfg = replicated(&cfg);
                let run = |cfg: &Config| {
                    run_spmd(ranks, |comm| {
                        let mut rng = StdRng::seed_from_u64(rng_seed);
                        dist_multilevel(comm, h, &targets, &fixed, cfg, &mut rng)
                    })
                };
                let (repl, dist) = (run(&repl_cfg), run(&cfg));
                assert_eq!(dist, repl, "k={k} ranks={ranks} cfg seed {}", cfg.seed);
                for r in &dist[1..] {
                    assert_eq!(*r, dist[0], "ranks themselves disagree at {ranks}");
                }
            };
        let grid = crate::tests::grid_hypergraph(16, 16);
        for ranks in [1usize, 2, 4] {
            check(&grid, 4, 0.05, dist_cfg(11, 60), 2, ranks);
        }
        for seed in [0u64, 9, 17, 23, 31] {
            let h = crate::tests::random_hypergraph(240, 500, 5, seed);
            for k in [2usize, 4, 8] {
                for ranks in [1usize, 2, 3, 4] {
                    check(&h, k, 0.03, dist_cfg(seed, 40), 5, ranks);
                }
            }
        }
        for seed in [0u64, 9, 17] {
            let base = crate::tests::random_hypergraph(200, 300, 5, seed);
            let n = base.num_vertices();
            let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
            for j in 0..base.num_nets() {
                b.add_net(base.net_cost(j), base.net(j).iter().map(|&v| v as usize));
            }
            for v in (0..n).step_by(17) {
                b.add_net(2.0, [v]);
            }
            b.add_net(1.0, []);
            for _ in 0..20 {
                b.add_net(1.0, base.net(0).iter().map(|&v| v as usize));
            }
            b.add_net(1.0, 0..n);
            for v in (0..n).step_by(11) {
                b.set_vertex_weight(v, 0.0);
            }
            let h = b.build();
            for k in [2usize, 4, 8] {
                for ranks in [1usize, 2, 3, 4] {
                    check(&h, k, 0.03, dist_cfg(seed, 40), 5, ranks);
                }
            }
        }
        let tiny =
            Hypergraph::from_nets_unit(5, &[vec![0, 1], vec![1, 2, 3], vec![3, 4], vec![0, 4]]);
        for ranks in [1usize, 2, 4, 7] {
            check(&tiny, 8, 0.05, dist_cfg(3, 40), 5, ranks);
        }
    }

    /// Distributed contraction against its replicated twin, directly (the
    /// V-cycle oracles above only see it through the final partition):
    /// on duplicate-heavy levels with fractional net costs, fixed
    /// vertices and arity-2 loads, the gathered coarse level equals
    /// [`contract`] on the replicated level net for net — ids,
    /// pin order, cost bits (costs are positive and finite, so `==` is
    /// equality of bits) — with the same coarse loads, sizes and fixed
    /// assignment, and each rank's `f2c` is its block of
    /// `fine_to_coarse`. Ranks 1–4, and worlds where ranks own nothing.
    #[test]
    fn dist_contract_equals_replicated_contraction() {
        use crate::coarsen::tests::random_case;
        let worlds = [
            (random_case(1, 30, 700, 3, true), vec![1usize, 2, 3, 4]),
            (random_case(2, 41, 900, 3, true), vec![2, 3, 4]),
            (random_case(3, 24, 300, 4, false), vec![1, 4]),
            // Fewer vertices than ranks: the last ranks are empty.
            (random_case(4, 3, 40, 3, true), vec![4, 7]),
        ];
        for (c, rank_counts) in &worlds {
            let want = contract(&c.h, &c.matching, &c.fixed);
            assert!(
                want.coarse.num_nets() < c.h.num_nets() / 2,
                "{}: few duplicates",
                c.name
            );
            for &ranks in rank_counts {
                run_spmd(ranks, |comm| {
                    let level = &DistLevel::from_replicated(&c.h, &c.fixed, comm.rank(), ranks);
                    let owned = level.owned();
                    let mate = &c.matching.mate[owned.clone()];
                    let (coarse, f2c, _) = dist_contract(comm, level, mate, None);
                    assert_eq!(f2c, want.fine_to_coarse[owned], "{} ranks={ranks}", c.name);
                    assert_eq!(coarse.global_nets, want.coarse.num_nets());
                    let (gathered, gathered_fixed) = coarse.gather(comm);
                    assert!(
                        gathered == want.coarse,
                        "{} ranks={ranks}: coarse differs",
                        c.name
                    );
                    assert_eq!(
                        gathered_fixed, want.coarse_fixed,
                        "{} ranks={ranks}",
                        c.name
                    );
                });
            }
        }
    }

    /// The one chunk grid the pipeline keeps: the distributed part-weight
    /// fold equals `refine::fold_weights` bit for bit at ranks 1–4, on
    /// more than three `DEFAULT_CHUNK`s of vertices whose weights
    /// (1/1 … 1/7) round in every sum — where a straight sum, the grid
    /// dropped, already differs — and on an auxiliary column.
    #[test]
    fn dist_weight_fold_matches_replicated_fold() {
        use crate::refine::fold_weights;
        use dlb_hypergraph::VertexLoads;
        let (n, k) = (3 * parallel::DEFAULT_CHUNK + 17, 5usize);
        let nets: Vec<Vec<usize>> = (1..n).map(|v| vec![v - 1, v]).collect();
        let mut h = Hypergraph::from_nets_unit(n, &nets);
        h.set_loads(VertexLoads::from_columns(vec![
            (0..n).map(|v| 1.0 / (1 + v % 7) as f64).collect(),
            (0..n).map(|v| 0.1 * (1 + v % 3) as f64).collect(),
        ]));
        let part: Vec<PartId> = (0..n).map(|v| (v * 7 + v / 5) % k).collect();
        let want = fold_weights(&h, k, &part);
        let straight = dlb_hypergraph::metrics::part_weights(&h, &part, k);
        assert_ne!(straight, want.0, "the grid decides no bit of this input");
        let fixed = FixedAssignment::free(n);
        for ranks in 1..=4usize {
            let got = run_spmd(ranks, |comm| {
                let level = &DistLevel::from_replicated(&h, &fixed, comm.rank(), ranks);
                fold_part_weights(comm, level, k, &part[level.owned()])
            });
            for (weights, aux) in got {
                let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&weights), bits(&want.0), "ranks={ranks}");
                assert_eq!(bits(&aux), bits(&want.1), "ranks={ranks}");
            }
        }
    }

    /// What the whole-V-cycle oracles above cannot localise: the state
    /// the shared move kernels read. After the collective build and
    /// after every owner's batch of moves has been reconciled
    /// (`sync_moves`), each locally visible net's sigma row (stub rows
    /// included) and the replicated weight vector equal the replicated
    /// `PartitionState`'s, and everything readable of the owned
    /// vertices — best move, gain to every part, boundary — equals,
    /// bitwise, both the replicated state that made the same moves and
    /// one built from scratch; so does a private copy. On integer costs
    /// (table entries updated in place) and fractional ones (marked and
    /// re-summed), with fixed vertices present — and on the double tie of
    /// `refine::tests::double_tie_case`, where the owner's row read must
    /// elect the lower part like everyone else's.
    #[test]
    fn dist_state_matches_replicated_state() {
        use crate::view::Replicated;
        let (n, k) = (120usize, 4usize);
        let integer = crate::tests::random_hypergraph(n, 260, 5, 3);
        let fractional = {
            let mut rng = StdRng::seed_from_u64(77);
            let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
            for j in 0..integer.num_nets() {
                b.add_net(
                    rng.gen_range(0.5f64..4.0),
                    integer.net(j).iter().map(|&v| v as usize),
                );
            }
            b.build()
        };
        let mut fixed = FixedAssignment::free(n);
        let part0: Vec<PartId> = (0..n).map(|v| (v * 7 + v / 5) % k).collect();
        for v in (4..n).step_by(9) {
            fixed.fix(v, part0[v]);
        }
        let targets = PartTargets::uniform(integer.total_vertex_weight(), k, 0.25);
        let (tied, tied_fixed, tied_part0, tied_targets) = crate::refine::tests::double_tie_case();
        // The last one has three vertices: too few for every rank to
        // hold a stub, or even a vertex.
        let cases = [
            (false, &integer, &fixed, &part0, &targets),
            (false, &fractional, &fixed, &part0, &targets),
            (true, &tied, &tied_fixed, &tied_part0, &tied_targets),
        ];

        for ((tiny, h, fixed, part0, targets), ranks) in cases
            .into_iter()
            .flat_map(|case| [1usize, 2, 3, 4].map(|ranks| (case, ranks)))
        {
            let (n, k) = (h.num_vertices(), targets.k());
            // Three rounds of batches; a vertex moves again in each.
            let moves = |round: usize| -> Vec<(usize, PartId)> {
                (round..n)
                    .step_by(9 - 2 * round)
                    .map(|v| (v, (part0[v] + 1 + v % 3) % k))
                    .collect()
            };
            run_spmd(ranks, |comm| {
                let level = &DistLevel::from_replicated(h, fixed, comm.rank(), comm.size());
                let owned = level.owned();
                if ranks > 1 && !tiny {
                    assert!(
                        (0..level.num_nets()).any(|lj| !level.owns_net(lj)),
                        "no stub held"
                    );
                }
                let whole = Replicated::whole(h, fixed);
                let mut reference = PartitionState::<Replicated<'_>>::new(whole, k, part0.clone());
                let mut halo = GhostHalo::new(GhostExchange::build(comm, level), owned.len());
                let mut state =
                    DistState::new(comm, &mut halo, level, k, part0[owned.clone()].to_vec());
                if tiny && owned.contains(&0) {
                    assert_eq!(state.best_move(0, targets), Some((1, 2.0)), "ranks={ranks}");
                }

                let agree =
                    |comm: &mut Comm,
                     state: &mut DistState<'_>,
                     reference: &mut PartitionState<Replicated<'_>>| {
                        for lj in 0..level.num_nets() {
                            let j = level.net_global_id(lj);
                            assert_eq!(
                                state.sigma[lj * k..(lj + 1) * k],
                                reference.sigma[j * k..(j + 1) * k],
                                "ranks={ranks} net {j} (owned: {})",
                                level.owns_net(lj)
                            );
                        }
                        assert_eq!(state.weights, reference.weights, "ranks={ranks}");
                        let mine = |(per_vertex, boundary): (Vec<VertexReads>, Vec<usize>)| {
                            let per_vertex: Vec<VertexReads> = per_vertex
                                .into_iter()
                                .filter(|r| owned.contains(&r.0))
                                .collect();
                            let boundary: Vec<usize> =
                                boundary.into_iter().filter(|v| owned.contains(v)).collect();
                            (per_vertex, boundary)
                        };
                        let reads = state.reads(targets);
                        assert_eq!(reads, mine(reference.reads(targets)), "ranks={ranks}");
                        let mut fresh =
                            PartitionState::<Replicated<'_>>::new(whole, k, reference.part.clone());
                        let fresh_reads = mine(fresh.reads(targets));
                        assert_eq!(reads, fresh_reads, "ranks={ranks}: stale entry");
                        // A private copy, given the folded weights a fresh
                        // build computes, reads like one.
                        let (weights, aux) = fold_part_weights(comm, level, k, &state.part);
                        assert_eq!(weights, fresh.weights, "ranks={ranks}");
                        assert_eq!(state.private_copy(weights, aux).reads(targets), fresh_reads);
                    };
                agree(comm, &mut state, &mut reference);

                // One batch per owner rank, reconciled after each — the
                // cadence of `dist_pass`.
                for round in 0..3 {
                    for r in 0..comm.size() {
                        let batch = level.vertex_dist().range(r);
                        let mut own: Vec<(usize, PartId, PartId)> = Vec::new();
                        for (v, to) in moves(round) {
                            let from = reference.part[v];
                            if !batch.contains(&v) || fixed.is_fixed(v) || from == to {
                                continue;
                            }
                            reference.apply(v, to);
                            if owned.contains(&v) {
                                state.apply(v, to);
                                halo.mark_dirty(v - owned.start);
                                own.push((v, from, to));
                            } else {
                                state.apply_remote(from, to, h.vertex_weight(v), &[]);
                            }
                        }
                        sync_moves(comm, &mut state, &mut halo, &own);
                        agree(comm, &mut state, &mut reference);
                    }
                }
            });
        }
    }

    /// The pin a 2→1 or 1→2 transition singles out may be a ghost of the
    /// rank that applies the move: that rank has no row for it, and the
    /// pin's owner — which receives the same delta on its copy of the
    /// sigma row — updates the entry. Net {0, 2, 3} spans both ranks;
    /// vertex 2 (rank 1) leaves vertex 0 (rank 0) alone in part 0 and
    /// comes back.
    #[test]
    fn transition_singling_out_a_ghost_updates_it_at_its_owner() {
        use crate::view::Replicated;
        let mut b = dlb_hypergraph::HypergraphBuilder::new(4);
        b.add_net(3.0, [0, 2, 3]);
        b.add_net(1.0, [0, 1]);
        b.add_net(1.0, [2, 3]);
        let h = b.build();
        let fixed = FixedAssignment::free(4);
        let targets = PartTargets::uniform(4.0, 2, 1.0);
        let part0: Vec<PartId> = vec![0, 1, 0, 1];
        run_spmd(2, |comm| {
            let level = &DistLevel::from_replicated(&h, &fixed, comm.rank(), 2);
            let owned = level.owned();
            assert_eq!(owned, 2 * comm.rank()..2 * comm.rank() + 2);
            let mut halo = GhostHalo::new(GhostExchange::build(comm, level), 2);
            let mut state =
                DistState::new(comm, &mut halo, level, 2, part0[owned.clone()].to_vec());
            let mut part = part0.clone();
            let mut gains_of_0 = Vec::new();
            for to in [1usize, 0] {
                let from = part[2];
                part[2] = to;
                let own = if comm.rank() == 1 {
                    state.apply(2, to);
                    halo.mark_dirty(0);
                    vec![(2, from, to)]
                } else {
                    state.apply_remote(from, to, 1.0, &[]);
                    Vec::new()
                };
                sync_moves(comm, &mut state, &mut halo, &own);
                let whole = Replicated::whole(&h, &fixed);
                let mut fresh = PartitionState::<Replicated<'_>>::new(whole, 2, part.clone());
                let (per_vertex, _) = fresh.reads(&targets);
                let mine = state.reads(&targets).0;
                assert_eq!(mine, per_vertex[owned.clone()]);
                if comm.rank() == 0 {
                    // Vertex 0's gain to part 1, as bits.
                    gains_of_0.push(f64::from_bits(mine[0].2[1]));
                }
            }
            // Alone in part 0 on the big net, then not: rank 0 saw both.
            if comm.rank() == 0 {
                assert_eq!(gains_of_0, [3.0 + 1.0, 1.0]);
            }
        });
    }

    /// [`Collective`], keeping the evacuations it makes and counting the
    /// ones won by a candidate this rank had popped for an earlier
    /// evacuation and lost the all-reduce with.
    struct Watching<'c> {
        inner: Collective<'c>,
        made: Vec<(usize, PartId)>,
        lost: Vec<usize>,
        won_after_losing: usize,
    }

    impl<'a> CommitMove<&'a DistLevel> for Watching<'_> {
        type Undo = (f64, Vec<f64>);
        fn commit(
            &mut self,
            state: &mut DistState<'a>,
            from: PartId,
            local: Option<(usize, PartId, f64)>,
        ) -> Option<(usize, PartId, Self::Undo)> {
            let made = self.inner.commit(state, from, local)?;
            self.made.push((made.0, made.1));
            match local {
                Some((v, ..)) if v != made.0 => self.lost.push(v),
                Some((v, ..)) => self.won_after_losing += usize::from(self.lost.contains(&v)),
                None => {}
            }
            Some(made)
        }
        fn revert(
            &mut self,
            state: &mut DistState<'a>,
            v: usize,
            from: PartId,
            to: PartId,
            undo: Self::Undo,
        ) {
            self.made.pop();
            self.inner.revert(state, v, from, to, undo)
        }
    }

    /// `rebalance` on a distributed level makes the evacuations it makes
    /// on a replicated one, in the same order, and leaves the same parts
    /// and the same weight bits — ranks 1–4, on every row of
    /// `refine::tests::rebalance_cases` (integer and fractional costs,
    /// weights 1–16, fixed vertices, k 2–6, the fallback destination).
    /// Each rank pops candidates from its own block only, so at two or
    /// more ranks most evacuations are won by another rank's candidate
    /// than the one a rank popped: it must be back in that rank's queue,
    /// which shows when it wins a later evacuation.
    #[test]
    fn dist_rebalance_equals_replicated_rebalance() {
        use crate::refine::tests::{rebalance_cases, Recording};
        use crate::view::Replicated;
        for case in rebalance_cases() {
            let (h, fixed, targets) = (&case.h, &case.fixed, &case.targets);
            let k = targets.k();
            let whole = Replicated::whole(h, fixed);
            let mut reference = PartitionState::<Replicated<'_>>::new(whole, k, case.part.clone());
            let mut recording = Recording(Vec::new());
            rebalance(&mut reference, targets, &mut recording);

            for ranks in 1usize..=4 {
                let per_rank = run_spmd(ranks, |comm| {
                    let level = &DistLevel::from_replicated(h, fixed, comm.rank(), ranks);
                    let owned = level.owned();
                    let mut halo = GhostHalo::new(GhostExchange::build(comm, level), owned.len());
                    let mut state =
                        DistState::new(comm, &mut halo, level, k, case.part[owned].to_vec());
                    let mut watching = Watching {
                        inner: Collective {
                            comm: &mut *comm,
                            halo: &mut halo,
                        },
                        made: Vec::new(),
                        lost: Vec::new(),
                        won_after_losing: 0,
                    };
                    rebalance(&mut state, targets, &mut watching);
                    let Watching {
                        made,
                        won_after_losing,
                        ..
                    } = watching;
                    (
                        made,
                        comm.allgather(state.part).concat(),
                        state.weights,
                        won_after_losing,
                    )
                });
                let mut won_after_losing = 0;
                for (made, part, weights, won) in per_rank {
                    assert_eq!(made, recording.0, "{} ranks={ranks}", case.name);
                    assert_eq!(part, reference.part, "{} ranks={ranks}", case.name);
                    assert_eq!(weights, reference.weights, "{} ranks={ranks}", case.name);
                    won_after_losing += won;
                }
                if ranks > 1 && recording.0.len() >= 20 {
                    assert!(
                        won_after_losing > 0,
                        "{} ranks={ranks}: no loser ever won",
                        case.name
                    );
                }
            }
        }
    }

    /// `part` refined every way a level is: by the serial refiner, and by
    /// `par_refine` and `dist_refine` on 2 and 4 ranks (every rank's
    /// answer, a distributed one all-gathered).
    fn refined_every_way(
        h: &Hypergraph,
        fixed: &FixedAssignment,
        targets: &PartTargets,
        part: &[PartId],
    ) -> Vec<(String, Vec<PartId>)> {
        let cfg = RefinementConfig::default();
        let mut serial = part.to_vec();
        crate::refine::refine(
            h,
            targets,
            fixed,
            &mut serial,
            &cfg,
            &mut StdRng::seed_from_u64(1),
        );
        let mut out = vec![("serial".to_string(), serial)];
        for ranks in [2usize, 4] {
            let replicated = run_spmd(ranks, |comm| {
                let mut part = part.to_vec();
                let mut rng = StdRng::seed_from_u64(1);
                crate::par::refine::par_refine(comm, h, targets, fixed, &mut part, &cfg, &mut rng);
                part
            });
            let distributed = run_spmd(ranks, |comm| {
                let level = &DistLevel::from_replicated(h, fixed, comm.rank(), ranks);
                let mut mine = part[level.owned()].to_vec();
                dist_refine(
                    comm,
                    level,
                    targets,
                    &mut mine,
                    &cfg,
                    &mut StdRng::seed_from_u64(1),
                );
                comm.allgather(mine).concat()
            });
            for (form, answers) in [("replicated", replicated), ("distributed", distributed)] {
                for (rank, part) in answers.into_iter().enumerate() {
                    out.push((format!("{form}, rank {rank} of {ranks}"), part));
                }
            }
        }
        out
    }

    /// Part weights of `part`, and how far they are above the caps in
    /// total.
    fn weights_and_violation(
        h: &Hypergraph,
        targets: &PartTargets,
        part: &[PartId],
    ) -> (Vec<f64>, f64) {
        let weights = dlb_hypergraph::metrics::part_weights(h, part, targets.k());
        let over = weights
            .iter()
            .enumerate()
            .map(|(p, &w)| (w - targets.cap(p)).max(0.0))
            .sum();
        (weights, over)
    }

    /// A free vertex of weight zero is no evacuation candidate, however
    /// good its gain: moving it relieves nothing, and picking it used to
    /// end `rebalance` with the part still over its cap. Vertices 8 and 9
    /// are weightless and have the best gain out of part 0 (their one net
    /// goes to vertex 10, alone in part 1); the chain 0–7 can follow
    /// vertex 7 across at no cost.
    #[test]
    fn rebalance_passes_over_weightless_vertices() {
        let instance = |weight_of_10: f64| {
            let mut b = dlb_hypergraph::HypergraphBuilder::new(11);
            b.add_net(1.0, [8, 10]);
            b.add_net(1.0, [9, 10]);
            for v in 0..7 {
                b.add_net(1.0, [v, v + 1]);
            }
            b.add_net(1.0, [7, 10]);
            b.set_vertex_weight(8, 0.0);
            b.set_vertex_weight(9, 0.0);
            b.set_vertex_weight(10, weight_of_10);
            b.build()
        };
        let part: Vec<PartId> = (0..11).map(|v| usize::from(v == 10)).collect();
        let fixed = FixedAssignment::free(11);

        // Total weight 10, caps 5.25: three of the chain leave and both
        // parts end under their caps.
        let h = instance(2.0);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        for (how, refined) in refined_every_way(&h, &fixed, &targets, &part) {
            let (weights, over) = weights_and_violation(&h, &targets, &refined);
            assert_eq!(over, 0.0, "{how}: weights {weights:?}");
        }
        // Total weight 9, caps 4.725 (weights [8, 1] before the fix): no
        // split of nine unit weights fits, five against four is the
        // nearest, and it is reached.
        let h = instance(1.0);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        for (how, refined) in refined_every_way(&h, &fixed, &targets, &part) {
            let (mut weights, _) = weights_and_violation(&h, &targets, &refined);
            weights.sort_by(f64::total_cmp);
            assert_eq!(weights, [4.0, 5.0], "{how}");
        }
    }

    /// Inputs `rebalance` cannot make feasible: it terminates without a
    /// panic, moves no fixed vertex and never leaves the caps exceeded by
    /// more in total than it found them, on every form.
    #[test]
    fn rebalance_survives_parts_it_cannot_relieve() {
        let grid = crate::tests::grid_hypergraph(6, 6);
        let mut cases: Vec<(&str, Hypergraph, FixedAssignment, Vec<PartId>, PartTargets)> =
            Vec::new();

        // Every member of the overweight part is fixed there.
        let part: Vec<PartId> = (0..36).map(|v| usize::from(v >= 27)).collect();
        let mut fixed = FixedAssignment::free(36);
        (0..27).for_each(|v| fixed.fix(v, 0));
        cases.push((
            "all fixed",
            grid.clone(),
            fixed,
            part,
            PartTargets::uniform(36.0, 2, 0.05),
        ));

        // One vertex heavier than any cap.
        let mut h = crate::tests::random_hypergraph(40, 80, 4, 13);
        h.set_vertex_weight(7, 100.0);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 3, 0.05);
        let part: Vec<PartId> = (0..40).map(|v| v % 3).collect();
        cases.push(("heavy vertex", h, FixedAssignment::free(40), part, targets));

        // Both parts of a bisection above their caps: the targets cover
        // 70 % of the weight.
        let part: Vec<PartId> = (0..36).map(|v| usize::from(v >= 20)).collect();
        let targets = PartTargets::uniform(0.7 * 36.0, 2, 0.05);
        cases.push(("both over", grid, FixedAssignment::free(36), part, targets));

        for (name, h, fixed, part, targets) in &cases {
            let (_, before) = weights_and_violation(h, targets, part);
            assert!(before > 0.0, "{name}: nothing to relieve");
            for (how, refined) in refined_every_way(h, fixed, targets, part) {
                let (weights, after) = weights_and_violation(h, targets, &refined);
                assert!(
                    after <= before + 1e-9,
                    "{name}, {how}: {before} -> {after} ({weights:?})"
                );
                assert!(fixed.is_respected_by(&refined), "{name}, {how}");
            }
        }
    }

    /// All-tied levels: unit costs, unit weights, eight equally heavy
    /// parts, and every vertex on the boundary with the same gain into
    /// its two equally heavy neighbour parts, so nothing but the lower
    /// part id tells any two candidates apart. On a ring the gain is 1
    /// (one ring net closed); with every vertex also paired inside its
    /// part it is 0 (one in-part net opened), the value refinement tests
    /// with `==`. Every form terminates within the caps and no worse than
    /// it started, and a level refines the same replicated and
    /// distributed, on every rank.
    /// (The serial refiner is another algorithm — FM with rollback climbs
    /// through the zero-gain plateau the localized passes stay on — so
    /// its partition is held to the invariants, not to equality.)
    #[test]
    fn all_tied_levels_refine_the_same_replicated_and_distributed() {
        let (n, k) = (64usize, 8usize);
        let part: Vec<PartId> = (0..n).map(|v| v % k).collect();
        let fixed = FixedAssignment::free(n);
        for tied_gain in [1.0f64, 0.0] {
            let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
            for v in 0..n {
                b.add_net(1.0, [v, (v + 1) % n]);
                if tied_gain == 0.0 && v & 8 == 0 {
                    b.add_net(1.0, [v, v | 8]);
                }
            }
            let h = b.build();
            let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.15);
            let whole = crate::view::Replicated::whole(&h, &fixed);
            let mut state =
                PartitionState::<crate::view::Replicated<'_>>::new(whole, k, part.clone());
            for (v, best, gains) in state.reads(&targets).0 {
                let (below, above) = ((part[v] + k - 1) % k, (part[v] + 1) % k);
                assert_eq!(
                    best,
                    Some((below.min(above), tied_gain.to_bits())),
                    "vertex {v}"
                );
                assert_eq!(gains[below], gains[above], "vertex {v}");
            }

            let cut = |part: &[PartId]| dlb_hypergraph::metrics::cutsize_connectivity(&h, part, k);
            let refined = refined_every_way(&h, &fixed, &targets, &part);
            for (how, refined) in &refined {
                let (weights, over) = weights_and_violation(&h, &targets, refined);
                assert_eq!(over, 0.0, "gain {tied_gain}, {how}: weights {weights:?}");
                assert!(cut(refined) <= cut(&part), "gain {tied_gain}, {how}");
            }
            // Per rank count: `ranks` replicated answers, then `ranks`
            // distributed ones.
            let (of_two, of_four) = refined[1..].split_at(4);
            for answers in [of_two, of_four] {
                for (how, refined) in answers {
                    assert_eq!(refined, &answers[0].1, "gain {tied_gain}, {how}");
                }
            }
        }
    }

    /// Same check on an irregular hypergraph with fixed vertices and a
    /// non-uniform (proportional) target.
    #[test]
    fn dist_multilevel_matches_with_fixed_vertices() {
        let h = crate::tests::random_hypergraph(300, 600, 5, 29);
        let targets = PartTargets::proportional(h.total_vertex_weight(), &[2, 1], 0.06);
        let mut fixed = FixedAssignment::free(300);
        for v in (0..300).step_by(17) {
            fixed.fix(v, v % 2);
        }
        let cfg = dist_cfg(7, 100);
        let repl_cfg = replicated(&cfg);
        for ranks in [1usize, 2, 3] {
            let repl = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(5);
                dist_multilevel(comm, &h, &targets, &fixed, &repl_cfg, &mut rng)
            });
            let dist = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(5);
                dist_multilevel(comm, &h, &targets, &fixed, &cfg, &mut rng)
            });
            assert_eq!(dist, repl, "ranks={ranks}");
        }
    }

    /// The identity the single driver rests on: `distributed = false`
    /// *is* `distributed = true` with nothing over the threshold — no
    /// level is ever held in distributed form, and the partition is the
    /// same one.
    #[test]
    fn replicated_is_distributed_with_nothing_distributed() {
        let h = crate::tests::random_hypergraph(300, 600, 5, 41);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        let fixed = FixedAssignment::free(h.num_vertices());
        let unbounded = dist_cfg(27, usize::MAX);
        let off = replicated(&dist_cfg(27, 60));
        for ranks in [1usize, 2, 4] {
            let run = |cfg: &Config| {
                run_spmd(ranks, |comm| {
                    let mut rng = StdRng::seed_from_u64(3);
                    dist_multilevel_stats(comm, &h, &targets, &fixed, cfg, &mut rng)
                })
            };
            for ((part, stats), (unbounded_part, _)) in run(&off).iter().zip(&run(&unbounded)) {
                assert_eq!(stats.dist_levels, 0, "ranks={ranks}");
                assert_eq!(stats.gathered_vertices, 0, "ranks={ranks}");
                assert_eq!(part, unbounded_part, "ranks={ranks}");
            }
        }
    }

    /// A replicated bisection on four ranks finds a near-ideal cut.
    #[test]
    fn replicated_bisection_quality() {
        let h = crate::tests::grid_hypergraph(14, 14);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        let fixed = FixedAssignment::free(h.num_vertices());
        let cfg = Config::seeded(17);
        let results = run_spmd(4, |comm| {
            let mut rng = StdRng::seed_from_u64(1);
            dist_multilevel(comm, &h, &targets, &fixed, &cfg, &mut rng)
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
        let part = &results[0];
        let cut = dlb_hypergraph::metrics::cutsize_connectivity(&h, part, 2);
        // Ideal vertical split of a 14x14 grid cuts 14 edges.
        assert!(cut <= 32.0, "cut {cut}");
        assert!(dlb_hypergraph::metrics::imbalance(&h, part, 2) <= 1.06);
    }

    /// With the threshold above the input size the distributed driver
    /// degenerates to the replicated code path (no distributed levels).
    #[test]
    fn threshold_above_input_means_no_distribution() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let targets = PartTargets::uniform(100.0, 2, 0.05);
        let fixed = FixedAssignment::free(100);
        let cfg = dist_cfg(3, 1_000);
        let results = run_spmd(2, |comm| {
            let mut rng = StdRng::seed_from_u64(9);
            dist_multilevel_stats(comm, &h, &targets, &fixed, &cfg, &mut rng)
        });
        for (_, stats) in &results {
            assert_eq!(stats.dist_levels, 0);
            assert_eq!(stats.gathered_vertices, 0);
        }
    }

    /// Pin storage must shrink with the rank count.
    #[test]
    fn local_pins_scale_down_with_ranks() {
        let h = crate::tests::grid_hypergraph(20, 20);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        let fixed = FixedAssignment::free(h.num_vertices());
        let cfg = dist_cfg(13, 80);
        let mut peak_by_ranks = Vec::new();
        for ranks in [1usize, 2, 4] {
            let results = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(4);
                dist_multilevel_stats(comm, &h, &targets, &fixed, &cfg, &mut rng)
            });
            let max_total = results
                .iter()
                .map(|(_, s)| s.total_local_pins)
                .max()
                .unwrap();
            let max_owned = results
                .iter()
                .map(|(_, s)| s.total_owned_pins)
                .max()
                .unwrap();
            assert!(results.iter().all(|(_, s)| s.dist_levels > 0));
            assert!(max_owned <= max_total);
            peak_by_ranks.push((max_total, max_owned));
        }
        // Owner-computes storage: both the stub-inclusive and the
        // canonical (owned) pin figures shrink with the rank count on
        // any input, localized or not.
        assert!(
            peak_by_ranks[0].0 > peak_by_ranks[1].0 && peak_by_ranks[1].0 > peak_by_ranks[2].0,
            "per-rank pin storage should strictly decrease: {peak_by_ranks:?}"
        );
        assert!(
            peak_by_ranks[0].1 > peak_by_ranks[1].1 && peak_by_ranks[1].1 > peak_by_ranks[2].1,
            "per-rank owned pin storage should strictly decrease: {peak_by_ranks:?}"
        );
    }

    /// The `cfg.dist.distributed` flag distributes the levels of the
    /// whole pipeline with unchanged results: either scheme, one V-cycle
    /// or a second one restricted to the first's parts, cold or warm —
    /// a warm start runs the flat pass on the (distributed) input level
    /// and restricted cycles only.
    #[test]
    fn config_flag_routes_partition_identically() {
        use crate::{partition_fixed_on, Scheme};
        let h = crate::tests::random_hypergraph(250, 500, 4, 31);
        let mut fixed = FixedAssignment::free(250);
        for v in (0..250).step_by(13) {
            fixed.fix(v, v % 4);
        }
        let seed: Vec<PartId> = (0..250).map(|v| (v * 7) % 4).collect();
        for ranks in [1usize, 2, 4] {
            for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
                for (num_vcycles, warm) in [(1, false), (2, false), (1, true), (2, true)] {
                    let mut cfg = dist_cfg(19, 64);
                    (cfg.scheme, cfg.num_vcycles, cfg.warm_start) = (scheme, num_vcycles, warm);
                    let seed = warm.then_some(seed.as_slice());
                    let run = |cfg: &Config| {
                        run_spmd(ranks, |comm| {
                            partition_fixed_on(Some(comm), &h, 4, &fixed, seed, cfg)
                        })
                    };
                    let (dist, repl) = (run(&cfg), run(&replicated(&cfg)));
                    let row = format!("ranks={ranks} {scheme:?} vcycles={num_vcycles} warm={warm}");
                    assert!(fixed.is_respected_by(&repl[0].part), "{row}");
                    for (a, b) in dist.iter().zip(&repl) {
                        assert_eq!(a.part, repl[0].part, "{row}");
                        assert_eq!(a.part, b.part, "{row}");
                        assert_eq!(a.cut, b.cut, "{row}");
                    }
                }
            }
        }
    }

    /// More ranks than vertices: some ranks own nothing at every level.
    /// The cycle must neither panic nor diverge from the replicated
    /// levels.
    #[test]
    fn empty_ranks_match_replicated_levels() {
        let h = crate::tests::grid_hypergraph(3, 4); // 12 vertices
        let targets = PartTargets::uniform(h.total_vertex_weight(), 2, 0.05);
        let fixed = FixedAssignment::free(h.num_vertices());
        let mut cfg = dist_cfg(17, 4);
        cfg.coarsening.min_coarse_vertices = 2;
        cfg.coarsening.coarse_to_factor = 1;
        let repl_cfg = replicated(&cfg);
        for ranks in [13usize, 16] {
            let repl = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(6);
                dist_multilevel(comm, &h, &targets, &fixed, &repl_cfg, &mut rng)
            });
            let dist = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(6);
                dist_multilevel(comm, &h, &targets, &fixed, &cfg, &mut rng)
            });
            assert_eq!(dist, repl, "ranks={ranks}");
        }
    }

    /// Total per-rank residency — pins, metadata, and every per-vertex
    /// array — must strictly decrease with the rank count, on a *random*
    /// (non-localized) hypergraph: the owner-computes representation has
    /// no replicated term left.
    #[test]
    fn resident_bytes_scale_down_with_ranks() {
        let h = crate::tests::random_hypergraph(400, 800, 5, 37);
        let targets = PartTargets::uniform(h.total_vertex_weight(), 4, 0.05);
        let fixed = FixedAssignment::free(h.num_vertices());
        let cfg = dist_cfg(23, 60);
        let mut peak = Vec::new();
        for ranks in [1usize, 2, 4, 8] {
            let results = run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(8);
                dist_multilevel_stats(comm, &h, &targets, &fixed, &cfg, &mut rng)
            });
            assert!(results.iter().all(|(_, s)| s.dist_levels > 0));
            peak.push(
                results
                    .iter()
                    .map(|(_, s)| s.total_resident_bytes)
                    .max()
                    .unwrap(),
            );
        }
        assert!(
            peak.windows(2).all(|w| w[1] < w[0]),
            "per-rank resident bytes should strictly decrease: {peak:?}"
        );
    }
}
