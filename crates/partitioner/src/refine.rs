//! Fiduccia–Mattheyses refinement with fixed vertices (Section 4.3).
//!
//! The refiner improves the connectivity-1 cut of a k-way assignment by
//! hill-climbing vertex moves with rollback: within a pass, boundary
//! vertices move one at a time to their best-gain feasible target part
//! (each vertex at most once per pass), the running cumulative gain is
//! tracked, and at the end the pass is rolled back to its best prefix —
//! so individual negative-gain moves are allowed as escapes from local
//! minima, but a pass never ends worse than it started. Fixed vertices
//! are never moved.
//!
//! Gains use the k-1 metric directly: moving `v` from `p` to `q` changes
//! the cut by `Σ_{n ∋ v} c_n·([σ(n,p)=1] − [σ(n,q)=0])`, where `σ(n,p)`
//! is the number of `n`'s pins in part `p`.
//!
//! With multi-constraint loads every move is additionally capped on each
//! auxiliary constraint, and a separate **greedy repair** pass
//! (`greedy_repair`) recovers feasibility when FM stalls: it moves the
//! highest-gain vertices out of the most-violated constraint's heaviest
//! part, accepting only moves that strictly shrink the largest relative
//! overshoot. At arity 1 neither the aux checks nor the repair pass
//! execute a single floating-point operation, so scalar runs stay
//! bitwise identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dlb_hypergraph::{parallel, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;
use crate::view::{LevelView, Replicated};

/// Nets larger than this do not trigger neighbor re-queues after a move;
/// their pins' gains drift slightly until popped (and are then
/// recomputed exactly). Keeps huge nets from making passes quadratic.
const MAX_NET_SIZE_FOR_UPDATES: usize = 400;

/// An FM pass stops after this many consecutive non-improving moves:
/// past that the pass is wandering the tail of the move sequence, which
/// the rollback to the best prefix discards anyway.
const MAX_NEGATIVE_STREAK: usize = 200;

/// Chunk size for parallel FM gain seeding: a `best_move` walks all of a
/// vertex's nets, so chunks are smaller than [`parallel::DEFAULT_CHUNK`]
/// to keep workers even on skewed boundaries.
const SEED_CHUNK: usize = 1024;

/// Incrementally maintained partition state of one rank's share of a
/// level: per-net-per-part pin counts and part weights. The move
/// kernels (`gain`, `best_move`, `apply`, …) are the same code on both
/// storage forms; what differs is how the sigma rows are seeded and kept
/// exact (`new` here for a replicated level, `par::dist` for a
/// distributed one).
pub(crate) struct PartitionState<V> {
    pub(crate) view: V,
    pub(crate) k: usize,
    /// Worker threads for state builds and whole-partition scans
    /// (`owned_boundary_into`). Any value gives bit-identical
    /// results — all reductions follow the chunked-reduction rule.
    pub(crate) threads: usize,
    /// `sigma[j*k + p]` = number of net `j`'s pins in part `p` — the
    /// net's **global** count, also for a net whose pins this rank
    /// stores only partly.
    pub(crate) sigma: Vec<u32>,
    /// Total vertex weight per part (of the whole level).
    pub(crate) weights: Vec<f64>,
    /// Per-part totals of the auxiliary load constraints, flattened as
    /// `aux_weights[(c-1)*k + p]`. Empty when the hypergraph is scalar
    /// (arity 1), so the scalar pipeline never touches it.
    pub(crate) aux_weights: Vec<f64>,
    /// Current parts of the stored vertices, by [`LevelView::slot`].
    pub(crate) part: Vec<PartId>,
}

impl<'a> PartitionState<Replicated<'a>> {
    /// Builds the state for `part` on a replicated level.
    pub(crate) fn new(view: Replicated<'a>, k: usize, part: Vec<PartId>) -> Self {
        Self::new_threads(view, k, part, 1)
    }

    /// [`Self::new`] with an explicit worker-thread count. The sigma
    /// table is built per net chunk and concatenated in chunk order; the
    /// part weights are per-chunk partial sums folded in chunk order —
    /// so the state is bit-identical at every thread count.
    fn new_threads(
        view: Replicated<'a>,
        k: usize,
        part: Vec<PartId>,
        threads: usize,
    ) -> Self {
        let h = view.h;
        assert_eq!(part.len(), h.num_vertices());
        let threads = threads.max(1);
        // Sigma table: each chunk of nets owns the `k`-strided window of
        // the destination buffer directly — no per-chunk vectors, no
        // concatenation pass.
        let mut sigma = vec![0u32; h.num_nets() * k];
        let part_ref = &part;
        parallel::fill_chunks(
            threads,
            h.num_nets(),
            parallel::DEFAULT_CHUNK,
            k,
            &mut sigma,
            |_, range, window| {
                for j in range.clone() {
                    let base = (j - range.start) * k;
                    for &v in h.net(j) {
                        window[base + part_ref[v]] += 1;
                    }
                }
            },
        );
        // Part weights: per-chunk partial vectors live in one arena-backed
        // flat buffer (chunk i owns window i), folded in chunk order —
        // bit-identical at every thread count.
        let n_chunks = parallel::num_chunks(h.num_vertices(), parallel::DEFAULT_CHUNK);
        let mut partials = parallel::scratch_vec_filled::<f64>(n_chunks * k, 0.0);
        parallel::fill_per_chunk(
            threads,
            h.num_vertices(),
            parallel::DEFAULT_CHUNK,
            k,
            &mut partials,
            |_, range, window| {
                for v in range {
                    window[part_ref[v]] += h.vertex_weight(v);
                }
            },
        );
        let mut weights = vec![0.0f64; k];
        for local in partials.chunks(k) {
            for p in 0..k {
                weights[p] += local[p];
            }
        }
        // Auxiliary constraints are new behavior, so a serial (and hence
        // thread-count-independent) accumulation suffices; arity 1 skips
        // this entirely.
        let arity = h.load_arity();
        let mut aux_weights = Vec::new();
        if arity > 1 {
            aux_weights = vec![0.0f64; (arity - 1) * k];
            for c in 1..arity {
                let col = h.loads().constraint(c);
                let row = &mut aux_weights[(c - 1) * k..c * k];
                for (v, &p) in part.iter().enumerate() {
                    row[p] += col[v];
                }
            }
        }
        PartitionState { view, k, threads, sigma, weights, aux_weights, part }
    }

    /// Per-part load of auxiliary constraint `c` (1-based, `c ∈ 1..arity`).
    #[inline]
    fn aux_weight(&self, c: usize, p: usize) -> f64 {
        self.aux_weights[(c - 1) * self.k + p]
    }
}

impl<V: LevelView> PartitionState<V> {
    #[inline]
    fn sigma(&self, j: usize, p: usize) -> u32 {
        self.sigma[j * self.k + p]
    }

    /// Current part of stored vertex `v`.
    #[inline]
    pub(crate) fn part_of(&self, v: usize) -> PartId {
        self.part[self.view.slot(v)]
    }

    /// Moves stored vertex `v` to part `q`, updating pin counts (a
    /// stored vertex's net list is complete, so every row this rank
    /// keeps is updated) and weights.
    pub(crate) fn apply(&mut self, v: usize, q: PartId) {
        let view = self.view;
        let p = self.part_of(v);
        if p == q {
            return;
        }
        for &j in view.nets_of(v) {
            self.sigma[j * self.k + p] -= 1;
            self.sigma[j * self.k + q] += 1;
        }
        let w = view.weight(v);
        self.weights[p] -= w;
        self.weights[q] += w;
        for (i, row) in self.aux_weights.chunks_exact_mut(self.k).enumerate() {
            let l = view.aux_load(v, i);
            row[p] -= l;
            row[q] += l;
        }
        self.part[view.slot(v)] = q;
    }

    /// True when moving `v` into `q` respects every auxiliary cap. A
    /// no-op (empty loop, no float ops) when `targets` is scalar.
    #[inline]
    fn aux_fits(&self, v: usize, q: PartId, targets: &PartTargets) -> bool {
        for (i, a) in targets.aux.iter().enumerate() {
            if self.aux_weights[i * self.k + q] + self.view.aux_load(v, i) > a.cap(q) {
                return false;
            }
        }
        true
    }

    /// True iff every part is within its cap on every constraint of
    /// `targets` (with a tiny slack for float noise).
    pub(crate) fn feasible(&self, targets: &PartTargets) -> bool {
        let slack = 1e-9;
        for p in 0..self.k {
            if self.weights[p] > targets.cap(p) + slack {
                return false;
            }
        }
        for (i, a) in targets.aux.iter().enumerate() {
            for p in 0..self.k {
                if self.aux_weights[i * self.k + p] > a.cap(p) + slack {
                    return false;
                }
            }
        }
        true
    }

    /// The gain (cut decrease) of moving stored vertex `v` to `q` under
    /// the k-1 metric. Exact on either storage form: every net of a
    /// stored vertex has a row, and rows hold global counts.
    fn gain(&self, v: usize, q: PartId) -> f64 {
        let p = self.part_of(v);
        if p == q {
            return 0.0;
        }
        let mut g = 0.0;
        for &j in self.view.nets_of(v) {
            let c = self.view.net_cost(j);
            if self.sigma(j, p) == 1 {
                g += c;
            }
            if self.sigma(j, q) == 0 {
                g -= c;
            }
        }
        g
    }

    /// Owned vertices on the cut boundary — incident to at least one net
    /// that touches more than one part — ascending, into a caller-owned
    /// buffer (cleared first) so refinement passes can reuse the
    /// allocation. Every net of an owned vertex has a globally exact row
    /// here and lists the vertex among its stored pins, so none is missed
    /// and none is spurious. The expensive per-net part scan runs chunked
    /// over the nets; the cheap pin-marking pass stays serial, so the
    /// result is order-identical at every thread count.
    pub(crate) fn owned_boundary_into(&self, out: &mut Vec<usize>)
    where
        V: Sync,
    {
        let owned = self.view.owned();
        let num_nets = self.view.num_nets();
        // Cut-net flags straight into an arena-backed buffer: one write
        // per net, no per-chunk vectors (the buffer itself is reused
        // across passes on this thread).
        let mut cut_net = parallel::scratch_vec_filled::<bool>(num_nets, false);
        parallel::fill_chunks(
            self.threads,
            num_nets,
            parallel::DEFAULT_CHUNK,
            1,
            &mut cut_net,
            |_, range, window| {
                for j in range.clone() {
                    window[j - range.start] =
                        (0..self.k).filter(|&p| self.sigma(j, p) > 0).count() > 1;
                }
            },
        );
        let mut boundary = parallel::scratch_vec_filled::<bool>(owned.len(), false);
        for (j, &is_cut) in cut_net.iter().enumerate() {
            if is_cut {
                for &v in self.view.pins(j) {
                    if owned.contains(&v) {
                        boundary[v - owned.start] = true;
                    }
                }
            }
        }
        out.clear();
        out.extend(owned.clone().filter(|&v| boundary[v - owned.start]));
    }

    /// Whether a move proposed against a private copy still holds
    /// against this (the evolving shared) state: the vertex is free and
    /// not there already, fits, and the move strictly improves the cut
    /// or, at zero gain, shifts weight from the heavier to the lighter
    /// side.
    pub(crate) fn revalidates(&self, v: usize, to: PartId, targets: &PartTargets) -> bool {
        let from = self.part_of(v);
        if self.view.fixed(v).is_some() || from == to {
            return false;
        }
        let w = self.view.weight(v);
        if self.weights[to] + w > targets.cap(to) || !self.aux_fits(v, to, targets) {
            return false;
        }
        let gain = self.gain(v, to);
        gain > 0.0 || (gain == 0.0 && self.weights[from] > self.weights[to] + w)
    }

    /// The best feasible move for `v`: the highest-gain target part among
    /// the parts `v`'s nets already touch (ties → lighter part), subject
    /// to the weight cap.
    pub(crate) fn best_move(
        &self,
        v: usize,
        targets: &PartTargets,
        scratch: &mut MoveScratch,
    ) -> Option<(PartId, f64)> {
        let p = self.part_of(v);
        scratch.stamp += 1;
        let stamp = scratch.stamp;

        let mut base = 0.0; // gain component from leaving p
        let mut total = 0.0;
        for &j in self.view.nets_of(v) {
            let c = self.view.net_cost(j);
            total += c;
            if self.sigma(j, p) == 1 {
                base += c;
            }
            // Candidate targets: parts with pins on v's nets.
            for q in 0..self.k {
                if q != p && self.sigma(j, q) > 0 {
                    if scratch.mark[q] != stamp {
                        scratch.mark[q] = stamp;
                        scratch.present[q] = 0.0;
                        scratch.cands.push(q);
                    }
                    scratch.present[q] += c;
                }
            }
        }

        let gain_to = |q: PartId| base - (total - scratch.present[q]);
        let best = self.best_feasible(v, targets, &scratch.cands, gain_to);
        scratch.cands.clear();
        best
    }

    /// Among `cands`, the part `v` fits into with the highest `gain_to`
    /// (ties → lighter part).
    #[inline]
    fn best_feasible(
        &self,
        v: usize,
        targets: &PartTargets,
        cands: &[PartId],
        gain_to: impl Fn(PartId) -> f64,
    ) -> Option<(PartId, f64)> {
        let w = self.view.weight(v);
        let mut best: Option<(PartId, f64)> = None;
        for &q in cands {
            if self.weights[q] + w > targets.cap(q) || !self.aux_fits(v, q, targets) {
                continue;
            }
            let gain = gain_to(q);
            match best {
                Some((bq, bg)) => {
                    if gain > bg + 1e-12
                        || (gain > bg - 1e-12 && self.weights[q] < self.weights[bq])
                    {
                        best = Some((q, gain));
                    }
                }
                None => best = Some((q, gain)),
            }
        }
        best
    }
}

/// Reusable per-call scratch for [`PartitionState::best_move`].
pub(crate) struct MoveScratch {
    mark: Vec<u64>,
    present: Vec<f64>,
    cands: Vec<usize>,
    stamp: u64,
}

impl MoveScratch {
    /// Scratch for `k` parts.
    pub(crate) fn new(k: usize) -> Self {
        MoveScratch {
            mark: vec![0; k],
            present: vec![0.0; k],
            cands: Vec::new(),
            stamp: 0,
        }
    }

    /// Grows the scratch to cover `k` parts (never shrinks; the stamp
    /// counter survives, so stale marks are ignored automatically).
    fn ensure(&mut self, k: usize) {
        if self.mark.len() < k {
            self.mark.resize(k, 0);
            self.present.resize(k, 0.0);
        }
    }
}

/// Allocation-reusing scratch for [`refine_threads`]: the move scratch,
/// the candidate heap, and the per-pass vertex flag arrays. One instance
/// serves every level of a multilevel V-cycle (and every bisection of a
/// recursive-bisection tree), so the per-pass `O(n)` allocations of the
/// original refiner are paid once per partitioner call instead of once
/// per pass.
pub struct RefineScratch {
    mv: MoveScratch,
    heap: BinaryHeap<Cand>,
    locked: Vec<bool>,
    queued: Vec<bool>,
    applied: Vec<(usize, PartId)>,
    boundary: Vec<usize>,
}

impl RefineScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        RefineScratch {
            mv: MoveScratch::new(0),
            heap: BinaryHeap::new(),
            locked: Vec::new(),
            queued: Vec::new(),
            applied: Vec::new(),
            boundary: Vec::new(),
        }
    }

    /// Prepares the scratch for one FM pass over `n` vertices and `k`
    /// parts: clears (retaining capacity) and resizes the flag arrays.
    fn prepare_pass(&mut self, k: usize, n: usize) {
        self.mv.ensure(k);
        self.heap.clear();
        self.locked.clear();
        self.locked.resize(n, false);
        self.queued.clear();
        self.queued.resize(n, false);
        self.applied.clear();
    }
}

impl Default for RefineScratch {
    fn default() -> Self {
        Self::new()
    }
}

struct Cand {
    gain: f64,
    v: usize,
    to: PartId,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.v.cmp(&self.v))
    }
}

/// Total primary load above the caps.
fn total_violation(weights: &[f64], targets: &PartTargets) -> f64 {
    weights
        .iter()
        .enumerate()
        .map(|(p, &w)| (w - targets.cap(p)).max(0.0))
        .sum()
}

/// The part a rebalance step relieves: the one furthest above its cap
/// (the last such on ties), if any is above by more than float noise.
fn most_overweight(weights: &[f64], targets: &PartTargets) -> Option<PartId> {
    (0..weights.len())
        .filter(|&p| weights[p] > targets.cap(p) + 1e-9)
        .max_by(|&a, &b| (weights[a] - targets.cap(a)).total_cmp(&(weights[b] - targets.cap(b))))
}

/// The cheapest vertex to evacuate from `p` among those this rank
/// stores, as `(vertex, destination, gain)`: best gain to any part with
/// spare capacity, falling back to the relatively lightest part; the
/// lowest id among equals. `None` when only fixed vertices are left.
fn best_evacuation<V: LevelView>(
    state: &PartitionState<V>,
    p: PartId,
    targets: &PartTargets,
    scratch: &mut MoveScratch,
) -> Option<(usize, PartId, f64)> {
    let mut best: Option<(usize, PartId, f64)> = None;
    for v in state.view.stored() {
        if state.part_of(v) != p || state.view.fixed(v).is_some() {
            continue;
        }
        let (q, g) = state.best_move(v, targets, scratch).unwrap_or_else(|| {
            // No adjacent feasible part: move toward the part with the
            // most spare relative capacity.
            let w = state.view.weight(v);
            let rel = |q: PartId| (state.weights[q] + w) / targets.target[q].max(1e-12);
            let q = (0..state.k)
                .filter(|&q| q != p)
                .min_by(|&a, &b| rel(a).total_cmp(&rel(b)))
                .expect("rebalancing needs a second part");
            (q, state.gain(v, q))
        });
        if best.is_none_or(|(_, _, bg)| g > bg) {
            best = Some((v, q, g));
        }
    }
    best
}

/// How a level makes the move a rebalance step chose — the one thing
/// the storage forms do differently there. A replicated level is
/// rebalanced redundantly (every rank stores every vertex, picks the same
/// move and applies it: [`Lockstep`]); on a distributed level the ranks'
/// picks are reduced to one and the move is applied collectively.
pub(crate) trait CommitMove<V> {
    /// What `revert` needs to take a committed move back.
    type Move;
    /// Makes the level-wide best of the ranks' `local` evacuations out
    /// of `from`; `None` (nothing made) when no rank has one.
    fn commit(
        &mut self,
        state: &mut PartitionState<V>,
        from: PartId,
        local: Option<(usize, PartId, f64)>,
    ) -> Option<Self::Move>;
    /// Takes `made` back.
    fn revert(&mut self, state: &mut PartitionState<V>, made: Self::Move);
}

/// [`CommitMove`] for a level every rank stores whole.
pub(crate) struct Lockstep;

impl<V: LevelView> CommitMove<V> for Lockstep {
    type Move = (usize, PartId);
    fn commit(
        &mut self,
        state: &mut PartitionState<V>,
        from: PartId,
        local: Option<(usize, PartId, f64)>,
    ) -> Option<(usize, PartId)> {
        let (v, q, _) = local?;
        state.apply(v, q);
        Some((v, from))
    }
    fn revert(&mut self, state: &mut PartitionState<V>, (v, from): (usize, PartId)) {
        state.apply(v, from);
    }
}

/// Restores balance greedily: while a part exceeds its cap, move the
/// cheapest (highest-gain, i.e. least cut damage) movable vertex out of
/// the most-overweight part into the part with the most spare capacity.
///
/// Needed when projection or fixed-vertex constraints leave the coarse
/// partition overweight; plain FM cannot fix imbalance because it only
/// makes cap-respecting moves.
pub(crate) fn rebalance<V: LevelView>(
    state: &mut PartitionState<V>,
    targets: &PartTargets,
    scratch: &mut MoveScratch,
    commit: &mut impl CommitMove<V>,
) {
    dlb_trace::count(dlb_trace::Counter::RebalanceInvocations, 1);
    let max_moves = 2 * state.view.num_vertices() + 16;
    for _ in 0..max_moves {
        let violation_before = total_violation(&state.weights, targets);
        let Some(p) = most_overweight(&state.weights, targets) else { return };
        let local = best_evacuation(state, p, targets, scratch);
        // Nothing made: only fixed vertices are left in `p`.
        let Some(made) = commit.commit(state, p, local) else { return };
        // Keep only moves that strictly reduce total violation;
        // otherwise we are ping-ponging load between parts that can
        // never fit under their caps — undo and stop.
        if total_violation(&state.weights, targets) >= violation_before - 1e-12 {
            commit.revert(state, made);
            return;
        }
    }
}

/// Greedy rebalancing repair for multi-constraint feasibility (Maas et
/// al.): while any constraint of any part exceeds its cap, relocate one
/// vertex that carries load on a violated constraint out of its part —
/// choosing, over every such vertex and destination, the move that
/// minimizes the resulting global maximum relative violation (cut gain
/// breaks ties). When no single relocation helps, it falls back to
/// *swapping* a vertex of a most-violated part against one elsewhere —
/// the escape needed when the only parts with headroom on the violated
/// constraint are saturated on another. Every step must strictly shrink
/// the descending-sorted vector of all per-(constraint, part)
/// violations in lexicographic order, so the pass terminates and never
/// cycles. Returns the number of vertex moves applied (a swap counts
/// two).
///
/// This runs only when auxiliary constraints are present and plain FM
/// (whose moves all respect the caps) cannot restore feasibility; the
/// scalar pipeline never reaches it.
pub(crate) fn greedy_repair(
    state: &mut PartitionState<Replicated<'_>>,
    targets: &PartTargets,
) -> usize {
    dlb_trace::count(dlb_trace::Counter::RepairInvocations, 1);
    let Replicated { h, fixed, .. } = state.view;
    let n = h.num_vertices();
    let k = state.k;
    let arity = targets.arity();
    assert!(
        arity <= h.load_arity(),
        "balance targets reference more constraints than the hypergraph carries"
    );
    let cap = |c: usize, p: usize| -> f64 {
        if c == 0 {
            targets.cap(p)
        } else {
            targets.aux_cap(c, p)
        }
    };
    let load_of = |state: &PartitionState<Replicated<'_>>, c: usize, p: usize| -> f64 {
        if c == 0 {
            state.weights[p]
        } else {
            state.aux_weight(c, p)
        }
    };
    // Largest relative overshoot over all (constraint, part) pairs, with
    // its argmax. Zero-capacity parts count as violated when loaded.
    let max_violation = |state: &PartitionState<Replicated<'_>>| -> (f64, usize, usize) {
        let mut best = (0.0, 0, 0);
        for c in 0..arity {
            for p in 0..k {
                let cp = cap(c, p);
                let w = load_of(state, c, p);
                let over = if cp > 0.0 {
                    w / cp - 1.0
                } else if w > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                if over > best.0 {
                    best = (over, c, p);
                }
            }
        }
        best
    };
    let over_of = |w: f64, cp: f64| -> f64 {
        if cp > 0.0 {
            w / cp - 1.0
        } else if w > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    };
    // Lexicographic progress test. The pass's well-founded measure is the
    // descending-sorted vector of all `arity * k` relative violations; a
    // step is kept only if it makes that vector strictly smaller, which
    // both drives the maximum down *and* lets the pass chip away at
    // secondary violations when the maximum is momentarily immovable
    // (merging the identical untouched entries into two sorted sequences
    // preserves their order, so the comparison reduces to the touched
    // entries alone). Strictly decreasing measure: no cycles.
    fn lex_improves(old_t: &mut [f64], new_t: &mut [f64]) -> bool {
        old_t.sort_by(|x, y| y.partial_cmp(x).unwrap());
        new_t.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (o, nw) in old_t.iter().zip(new_t.iter()) {
            if *nw < *o - 1e-12 {
                return true;
            }
            if *nw > *o + 1e-12 {
                return false;
            }
        }
        false
    }
    let mut old_t = vec![0.0f64; 2 * arity];
    let mut new_t = vec![0.0f64; 2 * arity];
    let mut moves = 0usize;
    let max_moves = 2 * n + 16;
    while moves < max_moves {
        let (viol, _, _) = max_violation(state);
        if viol <= 1e-9 {
            break; // feasible on every constraint
        }
        // Violation matrix and, per constraint, the top-three violations
        // with their parts: a step only touches two parts, so the
        // resulting global maximum is O(arity) to evaluate from these.
        let over: Vec<Vec<f64>> = (0..arity)
            .map(|c| (0..k).map(|p| over_of(load_of(state, c, p), cap(c, p))).collect())
            .collect();
        let mut top3 = vec![[(f64::NEG_INFINITY, usize::MAX); 3]; arity];
        for (c, top) in top3.iter_mut().enumerate() {
            for (p, &o) in over[c].iter().enumerate() {
                if o > top[0].0 {
                    top[2] = top[1];
                    top[1] = top[0];
                    top[0] = (o, p);
                } else if o > top[1].0 {
                    top[2] = top[1];
                    top[1] = (o, p);
                } else if o > top[2].0 {
                    top[2] = (o, p);
                }
            }
        }
        let others_max = |c: usize, a: usize, q: usize| -> f64 {
            for &(o, p) in &top3[c] {
                if p != a && p != q {
                    return o;
                }
            }
            f64::NEG_INFINITY
        };
        // Anchor parts: every part violated on some constraint. A vertex
        // is a relocation candidate if it carries load on one of its
        // part's violated constraints.
        let violated: Vec<Vec<usize>> = (0..k)
            .map(|p| (0..arity).filter(|&c| over[c][p] > 1e-9).collect())
            .collect();
        // Over every movable vertex of a violated part and every
        // destination, the relocation that minimizes the resulting
        // global maximum violation, among those making lexicographic
        // progress; among equals, the one whose touched parts end
        // lowest, then the best cut gain.
        let mut best: Option<(usize, PartId, f64, f64, f64)> = None;
        for v in 0..n {
            let a = state.part[v];
            if violated[a].is_empty() || fixed.is_fixed(v) {
                continue;
            }
            if !violated[a].iter().any(|&c| h.vertex_load(v, c) > 0.0) {
                continue;
            }
            for q in 0..k {
                if q == a {
                    continue;
                }
                let mut after = 0.0f64;
                let mut touched = f64::NEG_INFINITY;
                for c in 0..arity {
                    let lv = h.vertex_load(v, c);
                    let from = over_of(load_of(state, c, a) - lv, cap(c, a));
                    let to = over_of(load_of(state, c, q) + lv, cap(c, q));
                    old_t[2 * c] = over[c][a];
                    old_t[2 * c + 1] = over[c][q];
                    new_t[2 * c] = from;
                    new_t[2 * c + 1] = to;
                    after = after.max(from).max(to).max(others_max(c, a, q));
                    touched = touched.max(from).max(to);
                }
                if !lex_improves(&mut old_t, &mut new_t) {
                    continue;
                }
                let g = state.gain(v, q);
                let better = match best {
                    None => true,
                    Some((_, _, ba, bt, bg)) => {
                        after < ba - 1e-12
                            || (after < ba + 1e-12
                                && (touched < bt - 1e-12
                                    || (touched < bt + 1e-12 && g > bg + 1e-12)))
                    }
                };
                if better {
                    best = Some((v, q, after, touched, g));
                }
            }
        }
        if let Some((v, q, _, _, _)) = best {
            state.apply(v, q);
            moves += 1;
            continue;
        }
        // No relocation makes progress — typically the remaining slack
        // sits on parts that are themselves at a cap on another
        // constraint (e.g. byte headroom only on flop-saturated parts).
        // A *swap* trades a vertex of an overloaded part against one
        // elsewhere, changing both parts' loads by the difference; swaps
        // anchor at each constraint's most-violated part.
        let mut anchors: Vec<usize> = (0..arity)
            .filter(|&c| top3[c][0].0 > 1e-9)
            .map(|c| top3[c][0].1)
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        let mut best_swap: Option<(usize, usize, f64, f64, f64)> = None;
        for &a in &anchors {
            for v in 0..n {
                if state.part[v] != a || fixed.is_fixed(v) {
                    continue;
                }
                if !violated[a].iter().any(|&c| h.vertex_load(v, c) > 0.0) {
                    continue;
                }
                for u in 0..n {
                    let q = state.part[u];
                    if q == a || fixed.is_fixed(u) {
                        continue;
                    }
                    let mut after = 0.0f64;
                    let mut touched = f64::NEG_INFINITY;
                    for c in 0..arity {
                        let d = h.vertex_load(v, c) - h.vertex_load(u, c);
                        let from = over_of(load_of(state, c, a) - d, cap(c, a));
                        let to = over_of(load_of(state, c, q) + d, cap(c, q));
                        old_t[2 * c] = over[c][a];
                        old_t[2 * c + 1] = over[c][q];
                        new_t[2 * c] = from;
                        new_t[2 * c + 1] = to;
                        after = after.max(from).max(to).max(others_max(c, a, q));
                        touched = touched.max(from).max(to);
                    }
                    if !lex_improves(&mut old_t, &mut new_t) {
                        continue;
                    }
                    let g = state.gain(v, q) + state.gain(u, a);
                    let better = match best_swap {
                        None => true,
                        Some((_, _, ba, bt, bg)) => {
                            after < ba - 1e-12
                                || (after < ba + 1e-12
                                    && (touched < bt - 1e-12
                                        || (touched < bt + 1e-12 && g > bg + 1e-12)))
                        }
                    };
                    if better {
                        best_swap = Some((v, u, after, touched, g));
                    }
                }
            }
        }
        let (v, u, _, _, _) = match best_swap {
            Some(s) => s,
            None => break, // no step makes progress — stop, stay deterministic
        };
        let a = state.part[v];
        let q = state.part[u];
        state.apply(v, q);
        state.apply(u, a);
        moves += 2;
    }
    dlb_trace::count(dlb_trace::Counter::RepairMovesApplied, moves as u64);
    moves
}

/// One FM pass with rollback. Returns the cut improvement kept.
fn fm_pass(
    state: &mut PartitionState<Replicated<'_>>,
    targets: &PartTargets,
    scratch: &mut RefineScratch,
    rng: &mut StdRng,
) -> f64 {
    let Replicated { h, fixed, .. } = state.view;
    let n = h.num_vertices();
    // At most one live heap entry per vertex: pops revalidate gains, so
    // extra pushes only add churn. `queued` dedupes; it is cleared on pop
    // so later gain changes can re-queue the vertex.
    scratch.prepare_pass(state.k, n);

    let mut boundary = std::mem::take(&mut scratch.boundary);
    state.owned_boundary_into(&mut boundary);
    boundary.shuffle(rng);
    // Parallel gain seeding: the partition is frozen here, so
    // `best_move` is a pure function of (state, v) — computing
    // seeds across workers (per-worker MoveScratch) and pushing them in
    // boundary order is bit-identical to the serial loop in both
    // determinism modes.
    let state_ref: &PartitionState<_> = state;
    let seeds = parallel::map_chunks_with(
        state_ref.threads,
        boundary.len(),
        SEED_CHUNK,
        || MoveScratch::new(state_ref.k),
        |mv, _, range| {
            let mut out: Vec<(usize, PartId, f64)> = Vec::with_capacity(range.len());
            for &v in &boundary[range] {
                if fixed.is_fixed(v) {
                    continue;
                }
                if let Some((to, gain)) = state_ref.best_move(v, targets, mv) {
                    out.push((v, to, gain));
                }
            }
            out
        },
    );
    for (v, to, gain) in seeds.into_iter().flatten() {
        scratch.heap.push(Cand { gain, v, to });
        scratch.queued[v] = true;
    }
    scratch.boundary = boundary;

    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;
    let mut neg_streak = 0usize;

    while let Some(c) = scratch.heap.pop() {
        scratch.queued[c.v] = false;
        if scratch.locked[c.v] || fixed.is_fixed(c.v) {
            continue;
        }
        // Lazy revalidation: the stored move may be stale.
        let current = state.best_move(c.v, targets, &mut scratch.mv);
        match current {
            None => continue,
            Some((to, gain)) => {
                if to != c.to || (gain - c.gain).abs() > 1e-9 {
                    scratch.heap.push(Cand { gain, v: c.v, to });
                    scratch.queued[c.v] = true;
                    continue;
                }
                let from = state.part[c.v];
                state.apply(c.v, to);
                scratch.locked[c.v] = true;
                scratch.applied.push((c.v, from));
                cum += gain;
                if cum > best_cum + 1e-12 {
                    best_cum = cum;
                    best_len = scratch.applied.len();
                    neg_streak = 0;
                } else {
                    neg_streak += 1;
                    if neg_streak >= MAX_NEGATIVE_STREAK {
                        break;
                    }
                }
                // Re-queue neighbors whose gains changed (deduped).
                for &j in h.vertex_nets(c.v) {
                    if h.net_size(j) > MAX_NET_SIZE_FOR_UPDATES {
                        continue;
                    }
                    for &w in h.net(j) {
                        if !scratch.locked[w] && !scratch.queued[w] && !fixed.is_fixed(w) {
                            if let Some((to, gain)) = state.best_move(w, targets, &mut scratch.mv) {
                                scratch.heap.push(Cand { gain, v: w, to });
                                scratch.queued[w] = true;
                            }
                        }
                    }
                }
            }
        }
    }

    // Roll back past the best prefix.
    for &(v, from) in scratch.applied[best_len..].iter().rev() {
        state.apply(v, from);
    }

    let attempted = scratch.applied.len() as u64;
    dlb_trace::count(dlb_trace::Counter::FmPasses, 1);
    dlb_trace::count(dlb_trace::Counter::FmMovesAttempted, attempted);
    dlb_trace::count(dlb_trace::Counter::FmMovesAccepted, best_len as u64);
    dlb_trace::count(
        dlb_trace::Counter::FmMovesRolledBack,
        attempted - best_len as u64,
    );
    best_cum
}

/// Refines `part` in place: first restores balance if violated, then runs
/// FM passes until no pass improves the cut (or `cfg.max_passes`).
/// Returns the total cut improvement from the FM passes.
pub fn refine(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
) -> f64 {
    let mut scratch = RefineScratch::new();
    refine_threads(h, targets, fixed, part, cfg, rng, 1, &mut scratch)
}

/// [`refine`] with an explicit worker-thread count (state builds and
/// boundary/cut scans) and a caller-owned [`RefineScratch`] reused across
/// calls. Bit-identical to [`refine`] at every thread count: the FM move
/// loop itself is serial; only whole-partition scans are chunked.
#[allow(clippy::too_many_arguments)]
pub fn refine_threads(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> f64 {
    let k = targets.k();
    if k < 2 || h.num_vertices() == 0 {
        return 0.0;
    }
    let multi = !targets.aux.is_empty();
    if multi {
        assert!(
            targets.arity() <= h.load_arity(),
            "balance targets reference more constraints than the hypergraph carries"
        );
    }
    let view = Replicated::whole(h, fixed);
    let mut state = PartitionState::new_threads(view, k, std::mem::take(part), threads);
    scratch.mv.ensure(k);

    rebalance(&mut state, targets, &mut scratch.mv, &mut Lockstep);
    // Primary-only rebalancing cannot see auxiliary violations; repair
    // them before FM so the pass starts from a feasible assignment.
    if multi && !state.feasible(targets) {
        greedy_repair(&mut state, targets);
    }

    let mut total = 0.0;
    for _ in 0..cfg.max_passes {
        let improvement = fm_pass(&mut state, targets, scratch, rng);
        total += improvement;
        if improvement <= 1e-12 {
            break;
        }
    }
    // FM only makes cap-respecting moves, so it preserves feasibility —
    // but if repair could not finish above, try once more now that FM
    // has untangled the cut, and let one extra pass recover cut quality.
    if multi && !state.feasible(targets) && greedy_repair(&mut state, targets) > 0 {
        total += fm_pass(&mut state, targets, scratch, rng);
    }
    *part = state.part;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use rand::SeedableRng;

    fn uniform_targets(h: &Hypergraph, k: usize) -> PartTargets {
        PartTargets::uniform(h.total_vertex_weight(), k, 0.05)
    }

    #[test]
    fn state_tracks_cut_incrementally() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let part: Vec<usize> = (0..16).map(|v| v % 2).collect();
        let fixed = FixedAssignment::free(16);
        let view = Replicated::whole(&h, &fixed);
        let mut state = PartitionState::new(view, 2, part.clone());
        state.apply(3, 0);
        let mut moved = part;
        moved[3] = 0;
        let fresh = PartitionState::new(view, 2, moved);
        assert_eq!(state.sigma, fresh.sigma);
        assert_eq!(state.weights, fresh.weights);
        assert_eq!(state.part, fresh.part);
    }

    #[test]
    fn gain_matches_recomputed_cut_delta() {
        let h = crate::tests::random_hypergraph(30, 60, 5, 11);
        let part: Vec<usize> = (0..30).map(|v| v % 3).collect();
        let fixed = FixedAssignment::free(30);
        let mut state = PartitionState::new(Replicated::whole(&h, &fixed), 3, part);
        for v in [0usize, 7, 13, 29] {
            for q in 0..3 {
                if q == state.part[v] {
                    continue;
                }
                let before = metrics::cutsize_connectivity(&h, &state.part, 3);
                let gain = state.gain(v, q);
                let from = state.part[v];
                state.apply(v, q);
                let after = metrics::cutsize_connectivity(&h, &state.part, 3);
                assert!(
                    (before - after - gain).abs() < 1e-9,
                    "v={v} q={q}: predicted {gain}, actual {}",
                    before - after
                );
                state.apply(v, from);
            }
        }
    }

    #[test]
    fn refine_improves_a_bad_partition() {
        let h = crate::tests::grid_hypergraph(8, 8);
        // Stripes by column parity: terrible cut.
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let before = metrics::cutsize_connectivity(&h, &part, 2);
        let t = uniform_targets(&h, 2);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(0);
        let gain = refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let after = metrics::cutsize_connectivity(&h, &part, 2);
        assert!((before - after - gain).abs() < 1e-9);
        assert!(after < before / 2.0, "cut {before} -> {after}");
        assert!(metrics::imbalance(&h, &part, 2) <= 1.05 + 1e-9);
    }

    #[test]
    fn refine_never_moves_fixed_vertices() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let mut fixed = FixedAssignment::free(64);
        for v in (0..64).step_by(7) {
            fixed.fix(v, part[v]);
        }
        let t = uniform_targets(&h, 2);
        let mut rng = StdRng::seed_from_u64(1);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        for v in (0..64).step_by(7) {
            assert_eq!(part[v], v % 2, "fixed vertex {v} moved");
        }
    }

    #[test]
    fn refine_respects_caps() {
        let h = crate::tests::random_hypergraph(80, 160, 4, 5);
        let mut part: Vec<usize> = (0..80).map(|v| v % 4).collect();
        let t = uniform_targets(&h, 4);
        let fixed = FixedAssignment::free(80);
        let mut rng = StdRng::seed_from_u64(2);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let w = metrics::part_weights(&h, &part, 4);
        for p in 0..4 {
            assert!(w[p] <= t.cap(p) + 1e-9, "part {p} weight {} > cap {}", w[p], t.cap(p));
        }
    }

    #[test]
    fn rebalance_fixes_gross_imbalance() {
        let h = crate::tests::grid_hypergraph(8, 8);
        // Everything in part 0.
        let mut part = vec![0usize; 64];
        let t = uniform_targets(&h, 2);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(3);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let imb = metrics::imbalance(&h, &part, 2);
        assert!(imb <= 1.05 + 1e-9, "imbalance {imb} after rebalance+refine");
    }

    #[test]
    fn boundary_detection() {
        let h = crate::tests::grid_hypergraph(4, 4);
        // Left half vs right half: boundary is columns 1 and 2.
        let part: Vec<usize> = (0..16).map(|v| if v % 4 < 2 { 0 } else { 1 }).collect();
        let fixed = FixedAssignment::free(16);
        let state = PartitionState::new(Replicated::whole(&h, &fixed), 2, part);
        let expected: Vec<usize> = (0..16).filter(|v| v % 4 == 1 || v % 4 == 2).collect();
        let mut boundary = Vec::new();
        state.owned_boundary_into(&mut boundary);
        assert_eq!(boundary, expected);
    }

    #[test]
    fn refine_with_all_fixed_is_a_noop() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let orig: Vec<usize> = (0..16).map(|v| v % 2).collect();
        let mut part = orig.clone();
        let opts: Vec<Option<usize>> = orig.iter().map(|&p| Some(p)).collect();
        let fixed = FixedAssignment::from_options(&opts);
        let t = uniform_targets(&h, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let gain = refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        assert_eq!(part, orig);
        assert_eq!(gain, 0.0);
    }

    #[test]
    fn k_one_is_noop() {
        let h = crate::tests::grid_hypergraph(3, 3);
        let mut part = vec![0usize; 9];
        let t = uniform_targets(&h, 1);
        let fixed = FixedAssignment::free(9);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng), 0.0);
    }
}
