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

use dlb_hypergraph::metrics::CutMetric;
use dlb_hypergraph::{parallel, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;

/// Nets larger than this do not trigger neighbor re-queues after a move;
/// their pins' gains drift slightly until popped (and are then
/// recomputed exactly). Keeps huge nets from making passes quadratic.
const MAX_NET_SIZE_FOR_UPDATES: usize = 400;

/// Chunk size for parallel FM gain seeding: a `best_move` walks all of a
/// vertex's nets, so chunks are smaller than [`parallel::DEFAULT_CHUNK`]
/// to keep workers even on skewed boundaries.
const SEED_CHUNK: usize = 1024;

/// Incrementally maintained partition state: per-net-per-part pin counts
/// and part weights.
pub struct PartitionState<'a> {
    h: &'a Hypergraph,
    k: usize,
    /// Worker threads for state builds and whole-partition scans
    /// (`cut`, `boundary_vertices`). Any value gives bit-identical
    /// results — all reductions follow the chunked-reduction rule.
    threads: usize,
    /// `sigma[j*k + p]` = number of net `j`'s pins in part `p`.
    sigma: Vec<u32>,
    /// Total vertex weight per part.
    pub weights: Vec<f64>,
    /// Per-part totals of the auxiliary load constraints, flattened as
    /// `aux_weights[(c-1)*k + p]`. Empty when the hypergraph is scalar
    /// (arity 1), so the scalar pipeline never touches it.
    pub aux_weights: Vec<f64>,
    /// Current assignment.
    pub part: Vec<PartId>,
}

impl<'a> PartitionState<'a> {
    /// Builds the state for `part` on `h`.
    pub fn new(h: &'a Hypergraph, k: usize, part: Vec<PartId>) -> Self {
        Self::new_threads(h, k, part, 1)
    }

    /// [`Self::new`] with an explicit worker-thread count. The sigma
    /// table is built per net chunk and concatenated in chunk order; the
    /// part weights are per-chunk partial sums folded in chunk order —
    /// so the state is bit-identical at every thread count.
    pub fn new_threads(h: &'a Hypergraph, k: usize, part: Vec<PartId>, threads: usize) -> Self {
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
        PartitionState { h, k, threads, sigma, weights, aux_weights, part }
    }

    #[inline]
    fn sigma(&self, j: usize, p: usize) -> u32 {
        self.sigma[j * self.k + p]
    }

    /// Moves `v` to part `q`, updating pin counts and weights.
    pub fn apply(&mut self, v: usize, q: PartId) {
        let p = self.part[v];
        if p == q {
            return;
        }
        for &j in self.h.vertex_nets(v) {
            self.sigma[j * self.k + p] -= 1;
            self.sigma[j * self.k + q] += 1;
        }
        let w = self.h.vertex_weight(v);
        self.weights[p] -= w;
        self.weights[q] += w;
        if !self.aux_weights.is_empty() {
            for c in 1..self.h.load_arity() {
                let l = self.h.vertex_load(v, c);
                self.aux_weights[(c - 1) * self.k + p] -= l;
                self.aux_weights[(c - 1) * self.k + q] += l;
            }
        }
        self.part[v] = q;
    }

    /// Per-part load of auxiliary constraint `c` (1-based, `c ∈ 1..arity`).
    #[inline]
    pub fn aux_weight(&self, c: usize, p: usize) -> f64 {
        self.aux_weights[(c - 1) * self.k + p]
    }

    /// True when moving `v` into `q` respects every auxiliary cap. A
    /// no-op (empty loop, no float ops) when `targets` is scalar.
    #[inline]
    pub fn aux_fits(&self, v: usize, q: PartId, targets: &PartTargets) -> bool {
        for (i, a) in targets.aux.iter().enumerate() {
            if self.aux_weights[i * self.k + q] + self.h.vertex_load(v, i + 1) > a.cap(q) {
                return false;
            }
        }
        true
    }

    /// True iff every part is within its cap on every constraint of
    /// `targets` (with a tiny slack for float noise).
    pub fn feasible(&self, targets: &PartTargets) -> bool {
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

    /// The gain (cut decrease) of moving `v` to `q` under the k-1 metric.
    pub fn gain(&self, v: usize, q: PartId) -> f64 {
        let p = self.part[v];
        if p == q {
            return 0.0;
        }
        let mut g = 0.0;
        for &j in self.h.vertex_nets(v) {
            let c = self.h.net_cost(j);
            if self.sigma(j, p) == 1 {
                g += c;
            }
            if self.sigma(j, q) == 0 {
                g -= c;
            }
        }
        g
    }

    /// The gain of moving `v` to `q` under the chosen metric. For
    /// [`CutMetric::CutNet`], a net only contributes when the move makes
    /// it entirely internal to `q` (+cost) or splits a net that was
    /// entirely internal to `p` (−cost).
    pub fn gain_metric(&self, v: usize, q: PartId, metric: CutMetric) -> f64 {
        match metric {
            CutMetric::Connectivity => self.gain(v, q),
            CutMetric::CutNet => {
                let p = self.part[v];
                if p == q {
                    return 0.0;
                }
                let mut g = 0.0;
                for &j in self.h.vertex_nets(v) {
                    let size = self.h.net_size(j) as u32;
                    let c = self.h.net_cost(j);
                    if self.sigma(j, q) == size - 1 {
                        g += c; // net becomes internal to q
                    }
                    if self.sigma(j, p) == size {
                        g -= c; // net was internal to p; move cuts it
                    }
                }
                g
            }
        }
    }

    /// The best feasible move for `v`: the highest-gain target part among
    /// the parts `v`'s nets already touch (ties → lighter part), subject
    /// to the weight cap. `scratch` must be a `k`-length pair of arrays
    /// used as a stamped accumulator.
    pub fn best_move(
        &self,
        v: usize,
        targets: &PartTargets,
        scratch: &mut MoveScratch,
    ) -> Option<(PartId, f64)> {
        let p = self.part[v];
        scratch.stamp += 1;
        let stamp = scratch.stamp;

        let mut base = 0.0; // gain component from leaving p
        let mut total = 0.0;
        for &j in self.h.vertex_nets(v) {
            let c = self.h.net_cost(j);
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

        let w = self.h.vertex_weight(v);
        let mut best: Option<(PartId, f64)> = None;
        for &q in &scratch.cands {
            if self.weights[q] + w > targets.cap(q) || !self.aux_fits(v, q, targets) {
                continue;
            }
            let gain = base - (total - scratch.present[q]);
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
        scratch.cands.clear();
        best
    }

    /// [`Self::best_move`] under the chosen metric (the k-1 path uses the
    /// specialized decomposition; cut-net evaluates candidates directly).
    pub fn best_move_metric(
        &self,
        v: usize,
        targets: &PartTargets,
        metric: CutMetric,
        scratch: &mut MoveScratch,
    ) -> Option<(PartId, f64)> {
        if metric == CutMetric::Connectivity {
            return self.best_move(v, targets, scratch);
        }
        let p = self.part[v];
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.cands.clear();
        for &j in self.h.vertex_nets(v) {
            for q in 0..self.k {
                if q != p && self.sigma(j, q) > 0 && scratch.mark[q] != stamp {
                    scratch.mark[q] = stamp;
                    scratch.cands.push(q);
                }
            }
        }
        let w = self.h.vertex_weight(v);
        let mut best: Option<(PartId, f64)> = None;
        for &q in &scratch.cands {
            if self.weights[q] + w > targets.cap(q) || !self.aux_fits(v, q, targets) {
                continue;
            }
            let gain = self.gain_metric(v, q, metric);
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
        scratch.cands.clear();
        best
    }

    /// Vertices on the cut boundary: incident to at least one net that
    /// touches more than one part.
    pub fn boundary_vertices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.boundary_vertices_into(&mut out);
        out
    }

    /// [`Self::boundary_vertices`] into a caller-owned buffer (cleared
    /// first), so refinement passes can reuse the allocation. The
    /// expensive per-net part scan runs chunked over the nets; the cheap
    /// pin-marking pass stays serial, so the result is order-identical
    /// at every thread count.
    pub fn boundary_vertices_into(&self, out: &mut Vec<usize>) {
        // Cut-net flags straight into an arena-backed buffer: one write
        // per net, no per-chunk vectors (the buffer itself is reused
        // across passes on this thread).
        let mut cut_net = parallel::scratch_vec_filled::<bool>(self.h.num_nets(), false);
        parallel::fill_chunks(
            self.threads,
            self.h.num_nets(),
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
        let mut boundary = parallel::scratch_vec_filled::<bool>(self.h.num_vertices(), false);
        for (j, &is_cut) in cut_net.iter().enumerate() {
            if is_cut {
                for &v in self.h.net(j) {
                    boundary[v] = true;
                }
            }
        }
        out.clear();
        out.extend(
            boundary
                .iter()
                .enumerate()
                .filter_map(|(v, &b)| b.then_some(v)),
        );
    }

    /// Current k-1 cut computed from the maintained pin counts: per-chunk
    /// partial sums over the nets folded in chunk order (bit-identical at
    /// every thread count).
    pub fn cut(&self) -> f64 {
        parallel::sum_chunks(
            self.threads,
            self.h.num_nets(),
            parallel::DEFAULT_CHUNK,
            |range| {
                let mut cut = 0.0;
                for j in range {
                    let touched = (0..self.k).filter(|&p| self.sigma(j, p) > 0).count();
                    if touched > 1 {
                        cut += self.h.net_cost(j) * (touched - 1) as f64;
                    }
                }
                cut
            },
        )
    }
}

/// Reusable per-call scratch for [`PartitionState::best_move`].
pub struct MoveScratch {
    mark: Vec<u64>,
    present: Vec<f64>,
    cands: Vec<usize>,
    stamp: u64,
}

impl MoveScratch {
    /// Scratch for `k` parts.
    pub fn new(k: usize) -> Self {
        MoveScratch {
            mark: vec![0; k],
            present: vec![0.0; k],
            cands: Vec::new(),
            stamp: 0,
        }
    }

    /// Grows the scratch to cover `k` parts (never shrinks; the stamp
    /// counter survives, so stale marks are ignored automatically).
    pub fn ensure(&mut self, k: usize) {
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

/// Restores balance greedily: while a part exceeds its cap, move the
/// cheapest (highest-gain, i.e. least cut damage) movable vertex out of
/// the most-overweight part into the part with the most spare capacity.
///
/// Needed when projection or fixed-vertex constraints leave the coarse
/// partition overweight; plain FM cannot fix imbalance because it only
/// makes cap-respecting moves.
pub(crate) fn rebalance(
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    scratch: &mut MoveScratch,
) {
    dlb_trace::count(dlb_trace::Counter::RebalanceInvocations, 1);
    let n = state.h.num_vertices();
    let max_moves = 2 * n + 16;
    let total_violation = |weights: &[f64]| -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(p, &w)| (w - targets.cap(p)).max(0.0))
            .sum()
    };
    for _ in 0..max_moves {
        let violation_before = total_violation(&state.weights);
        // Most-overweight part (relative to cap).
        let over = (0..state.k)
            .filter(|&p| state.weights[p] > targets.cap(p) + 1e-9)
            .max_by(|&a, &b| {
                (state.weights[a] - targets.cap(a)).total_cmp(&(state.weights[b] - targets.cap(b)))
            });
        let p = match over {
            Some(p) => p,
            None => return,
        };
        // Cheapest movable vertex in p: best gain to any part with spare
        // capacity; fall back to the relatively lightest part.
        let mut best: Option<(usize, PartId, f64)> = None;
        for v in 0..n {
            if state.part[v] != p || fixed.is_fixed(v) {
                continue;
            }
            let w = state.h.vertex_weight(v);
            let candidate = match state.best_move(v, targets, scratch) {
                Some((q, g)) => Some((q, g)),
                None => {
                    // No adjacent feasible part: move toward the part with
                    // the most spare relative capacity.
                    let q = (0..state.k)
                        .filter(|&q| q != p)
                        .min_by(|&a, &b| {
                            ((state.weights[a] + w) / targets.target[a].max(1e-12)).total_cmp(
                                &((state.weights[b] + w) / targets.target[b].max(1e-12)),
                            )
                        })
                        .unwrap();
                    Some((q, state.gain(v, q)))
                }
            };
            if let Some((q, g)) = candidate {
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((v, q, g));
                }
            }
        }
        match best {
            Some((v, q, _)) => {
                state.apply(v, q);
                // Keep only moves that strictly reduce total violation;
                // otherwise we are ping-ponging load between parts that
                // can never fit under their caps — stop.
                if total_violation(&state.weights) >= violation_before - 1e-12 {
                    state.apply(v, p);
                    return;
                }
            }
            None => return, // only fixed vertices left in p; nothing to do
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
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
) -> usize {
    dlb_trace::count(dlb_trace::Counter::RepairInvocations, 1);
    let n = state.h.num_vertices();
    let k = state.k;
    let arity = targets.arity();
    assert!(
        arity <= state.h.load_arity(),
        "balance targets reference more constraints than the hypergraph carries"
    );
    let cap = |c: usize, p: usize| -> f64 {
        if c == 0 {
            targets.cap(p)
        } else {
            targets.aux_cap(c, p)
        }
    };
    let load_of = |state: &PartitionState, c: usize, p: usize| -> f64 {
        if c == 0 {
            state.weights[p]
        } else {
            state.aux_weight(c, p)
        }
    };
    // Largest relative overshoot over all (constraint, part) pairs, with
    // its argmax. Zero-capacity parts count as violated when loaded.
    let max_violation = |state: &PartitionState| -> (f64, usize, usize) {
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
            if !violated[a].iter().any(|&c| state.h.vertex_load(v, c) > 0.0) {
                continue;
            }
            for q in 0..k {
                if q == a {
                    continue;
                }
                let mut after = 0.0f64;
                let mut touched = f64::NEG_INFINITY;
                for c in 0..arity {
                    let lv = state.h.vertex_load(v, c);
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
                if !violated[a].iter().any(|&c| state.h.vertex_load(v, c) > 0.0) {
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
                        let d = state.h.vertex_load(v, c) - state.h.vertex_load(u, c);
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
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &RefinementConfig,
    scratch: &mut RefineScratch,
    rng: &mut StdRng,
) -> f64 {
    let n = state.h.num_vertices();
    // At most one live heap entry per vertex: pops revalidate gains, so
    // extra pushes only add churn. `queued` dedupes; it is cleared on pop
    // so later gain changes can re-queue the vertex.
    scratch.prepare_pass(state.k, n);

    let mut boundary = std::mem::take(&mut scratch.boundary);
    state.boundary_vertices_into(&mut boundary);
    boundary.shuffle(rng);
    // Parallel gain seeding: the partition is frozen here, so
    // `best_move_metric` is a pure function of (state, v) — computing
    // seeds across workers (per-worker MoveScratch) and pushing them in
    // boundary order is bit-identical to the serial loop in both
    // determinism modes.
    let state_ref: &PartitionState = state;
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
                if let Some((to, gain)) = state_ref.best_move_metric(v, targets, cfg.metric, mv) {
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
        let current = state.best_move_metric(c.v, targets, cfg.metric, &mut scratch.mv);
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
                    if cfg.max_negative_streak > 0 && neg_streak >= cfg.max_negative_streak {
                        break;
                    }
                }
                // Re-queue neighbors whose gains changed (deduped).
                for &j in state.h.vertex_nets(c.v) {
                    if state.h.net_size(j) > MAX_NET_SIZE_FOR_UPDATES {
                        continue;
                    }
                    for &w in state.h.net(j) {
                        if !scratch.locked[w] && !scratch.queued[w] && !fixed.is_fixed(w) {
                            if let Some((to, gain)) =
                                state.best_move_metric(w, targets, cfg.metric, &mut scratch.mv)
                            {
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
    let mut state = PartitionState::new_threads(h, k, std::mem::take(part), threads);
    scratch.mv.ensure(k);

    rebalance(&mut state, targets, fixed, &mut scratch.mv);
    // Primary-only rebalancing cannot see auxiliary violations; repair
    // them before FM so the pass starts from a feasible assignment.
    if multi && !state.feasible(targets) {
        greedy_repair(&mut state, targets, fixed);
    }

    let mut total = 0.0;
    for _ in 0..cfg.max_passes {
        let improvement = fm_pass(&mut state, targets, fixed, cfg, scratch, rng);
        total += improvement;
        if improvement <= 1e-12 {
            break;
        }
    }
    // FM only makes cap-respecting moves, so it preserves feasibility —
    // but if repair could not finish above, try once more now that FM
    // has untangled the cut, and let one extra pass recover cut quality.
    if multi && !state.feasible(targets) && greedy_repair(&mut state, targets, fixed) > 0 {
        total += fm_pass(&mut state, targets, fixed, cfg, scratch, rng);
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
        let mut state = PartitionState::new(&h, 2, part.clone());
        assert_eq!(state.cut(), metrics::cutsize_connectivity(&h, &part, 2));
        state.apply(3, 0);
        let mut moved = part;
        moved[3] = 0;
        assert_eq!(state.cut(), metrics::cutsize_connectivity(&h, &moved, 2));
    }

    #[test]
    fn gain_matches_recomputed_cut_delta() {
        let h = crate::tests::random_hypergraph(30, 60, 5, 11);
        let part: Vec<usize> = (0..30).map(|v| v % 3).collect();
        let mut state = PartitionState::new(&h, 3, part);
        for v in [0usize, 7, 13, 29] {
            for q in 0..3 {
                if q == state.part[v] {
                    continue;
                }
                let before = state.cut();
                let gain = state.gain(v, q);
                let from = state.part[v];
                state.apply(v, q);
                let after = state.cut();
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
    fn cutnet_gain_matches_recomputed_delta() {
        use dlb_hypergraph::metrics::cutsize;
        let h = crate::tests::random_hypergraph(25, 50, 5, 19);
        let part: Vec<usize> = (0..25).map(|v| v % 3).collect();
        let mut state = PartitionState::new(&h, 3, part);
        for v in [0usize, 6, 12, 24] {
            for q in 0..3 {
                if q == state.part[v] {
                    continue;
                }
                let before = cutsize(&h, &state.part, 3, CutMetric::CutNet);
                let gain = state.gain_metric(v, q, CutMetric::CutNet);
                let from = state.part[v];
                state.apply(v, q);
                let after = cutsize(&h, &state.part, 3, CutMetric::CutNet);
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
    fn refine_with_cutnet_objective_improves_cutnet() {
        use dlb_hypergraph::metrics::cutsize;
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let before = cutsize(&h, &part, 2, CutMetric::CutNet);
        let t = uniform_targets(&h, 2);
        let fixed = FixedAssignment::free(64);
        let cfg = RefinementConfig { metric: CutMetric::CutNet, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(8);
        refine(&h, &t, &fixed, &mut part, &cfg, &mut rng);
        let after = cutsize(&h, &part, 2, CutMetric::CutNet);
        assert!(after < before, "cut-net {before} -> {after}");
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
        let state = PartitionState::new(&h, 2, part);
        let boundary = state.boundary_vertices();
        let expected: Vec<usize> = (0..16).filter(|v| v % 4 == 1 || v % 4 == 2).collect();
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
