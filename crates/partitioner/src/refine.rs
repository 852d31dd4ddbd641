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
//! # The gain table
//!
//! `PartitionState` keeps that sum per stored vertex instead of
//! rescanning the vertex's nets against all `k` parts for every question
//! (Gottesbüren et al., *Scalable Shared-Memory Hypergraph
//! Partitioning*): `present(v,q) = Σ c_n·[σ(n,q) > 0]` for every part
//! and `benefit(v) = Σ c_n·[σ(n,Π(v)) = 1]`. `v`'s total net cost is
//! `present(v, Π(v))`, the penalty of a move to `q` is
//! `total − present(v,q)`, so `gain(v,q) = benefit − (total − present)`
//! is O(1), `best_move` O(k), and a part is a candidate target iff
//! `present > 0`. Sigma changes in one function, `shift`, and a pin move
//! changes table entries only when a count crosses 0↔1 (the net's
//! `present` contribution, for all its pins) or 1↔2 (the `benefit` of the
//! one pin left alone, or no longer alone); the same crossings keep each
//! net's connectivity λ, which is what finds the boundary.
//!
//! **Entries are exact or marked.** Refinement compares gains with
//! `== 0.0`, and a distributed level must answer bit for bit what a
//! replicated one does although it receives the same deltas in another
//! order — so an entry may never hold a sum that depends on the order of
//! the updates. On a level whose net costs are all integer-valued (and
//! whose per-vertex totals stay below 2^53: the model's α-scaled unit
//! costs, sizes and 2^level weights) `±= c` is exact and transitions
//! update entries in place. On any other level a transition only *marks*
//! the entry (NaN), and the next read of a marked row re-sums it over the
//! vertex's nets in net order — the scan's order, hence the scan's bits.
//! There is one read path (`row`) and no choice between table and scan.
//!
//! **The scan** (`scan_best_move`) survives in one role: the oracle.
//! It answers `best_move` from the sigma rows without the table, and
//! under `debug_assertions` and in tests every table answer is compared
//! with it bit for bit. It is compiled into no release build and decides
//! nothing: the best move is defined on the row (`best_move`), and its
//! one tie rule — equal gain into equally heavy parts goes to the lower
//! part id — is stated at `PartitionState::beats`.
//!
//! **The row log.** `rebalance` keeps, per part it evacuates, a heap of
//! candidates keyed by a bound read from their rows (`EvacuationQueues`),
//! so it must hear of every row write: while it listens, `shift` appends
//! the stored vertices whose row it writes to a log on the state. Nobody
//! else listens; for them the log is one untaken branch.
//!
//! **The build** runs on the calling thread, like every kernel here:
//! sigma rows net by net, table rows vertex by vertex (`sum_row`), and
//! the part weights on the `parallel::DEFAULT_CHUNK` grid
//! (`fold_weights`) that a distributed level's fold shares.
//!
//! On a distributed level (`par::dist`) a rank keeps rows for the block
//! it stores; `shift` runs for its own moves, for ghost movers on the
//! nets it owns (halo triples) and for the stub events net owners send —
//! exactly the events that already kept its sigma rows exact — and
//! updates the entries of the pins it stores. No message is added.
//!
//! With multi-constraint loads every move is additionally capped on each
//! auxiliary constraint, and a separate **greedy repair** pass
//! (`greedy_repair`) recovers feasibility when FM stalls: it moves the
//! highest-gain vertices out of the most-violated constraint's heaviest
//! part, accepting only moves that strictly shrink the largest relative
//! overshoot. At arity 1 neither the aux checks nor the repair pass
//! execute a single floating-point operation, so scalar runs stay
//! bitwise identical.

use dlb_hypergraph::{parallel, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;
use crate::heap::Heaps;
use crate::view::{LevelView, Replicated};

/// Nets larger than this do not trigger neighbor re-queues after a move;
/// their pins' gains drift slightly until popped (and are then
/// recomputed exactly). Keeps huge nets from making passes quadratic.
const MAX_NET_SIZE_FOR_UPDATES: usize = 400;

/// An FM pass stops after this many consecutive non-improving moves:
/// past that the pass is wandering the tail of the move sequence, which
/// the rollback to the best prefix discards anyway.
const MAX_NEGATIVE_STREAK: usize = 200;

/// Largest integer below which every integer is an `f64`: sums of
/// integer-valued costs under it are exact in any order.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Incrementally maintained partition state of one rank's share of a
/// level: per-net-per-part pin counts, part weights, and the gain table
/// the move kernels read (module docs). The kernels (`gain`,
/// `best_move`, `apply`, …) are the same code on both storage forms;
/// what differs is how the sigma rows are seeded and which events reach
/// [`Self::shift`] (`new` here for a replicated level, `par::dist` for a
/// distributed one).
#[derive(Clone)]
pub(crate) struct PartitionState<V> {
    pub(crate) view: V,
    pub(crate) k: usize,
    /// `sigma[j*k + p]` = number of net `j`'s pins in part `p` — the
    /// net's **global** count, also for a net whose pins this rank
    /// stores only partly. Written by the two builders and by
    /// [`Self::shift`], nowhere else.
    pub(crate) sigma: Vec<u32>,
    /// `lambda[j]` = number of parts net `j` touches (non-zero sigma
    /// entries of its row); the net is cut iff `lambda[j] > 1`.
    lambda: Vec<u32>,
    /// Total vertex weight per part (of the whole level).
    pub(crate) weights: Vec<f64>,
    /// Per-part totals of the auxiliary load constraints, flattened as
    /// `aux_weights[(c-1)*k + p]`. Empty when the hypergraph is scalar
    /// (arity 1), so the scalar pipeline never touches it.
    pub(crate) aux_weights: Vec<f64>,
    /// Current parts of the stored vertices, by [`LevelView::slot`].
    pub(crate) part: Vec<PartId>,
    /// The gain table, `k + 1` entries per stored vertex `v` at slot
    /// `s`: `table[s*(k+1) + q]` = `present(v, q)` = Σ c_j over `v`'s
    /// nets with a pin in `q`, and `table[s*(k+1) + k]` = `benefit(v)` =
    /// Σ c_j over `v`'s nets whose only pin in `v`'s part is `v`. Every
    /// entry holds either exactly the bits of that sum taken in net
    /// order, or NaN — the mark of an entry a transition invalidated.
    table: Vec<f64>,
    /// Whether a transition may update an entry by `±= c` (every net
    /// cost integer-valued and every vertex's total below 2^53, so every
    /// partial sum is an exactly represented integer whatever the order
    /// of the updates) instead of marking it.
    exact: bool,
    /// While someone listens (`Some`): the stored vertices whose table
    /// row [`Self::shift`] has written since the listener last drained
    /// it, in write order, repeats included — what a structure keyed by
    /// table rows has to re-read. [`rebalance`] listens for its queues;
    /// for everyone else the log is the one `None` branch in `shift`.
    row_log: Option<Vec<usize>>,
    /// Table work since the build, for whoever reports it.
    pub(crate) tally: GainTally,
}

/// Exact work counts of one state's gain table. Kept on the state and
/// flushed to `dlb_trace` once per [`refine_with`] call — not by the
/// SPMD passes, where a rank's share depends on the storage form.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub(crate) struct GainTally {
    /// `best_move` answers read from the table.
    pub(crate) evaluations: u64,
    /// Marked entries re-summed by a read.
    pub(crate) resums: u64,
    /// Vertices `rebalance` popped and evaluated as evacuation candidates.
    pub(crate) rebalance_candidates: u64,
    /// Evacuations `rebalance` committed and kept.
    pub(crate) rebalance_moves: u64,
}

impl GainTally {
    fn flush(self) {
        use dlb_trace::Counter;
        dlb_trace::count(Counter::GainEvaluations, self.evaluations);
        dlb_trace::count(Counter::GainResums, self.resums);
        dlb_trace::count(
            Counter::RebalanceCandidatesScanned,
            self.rebalance_candidates,
        );
        dlb_trace::count(Counter::RebalanceMoves, self.rebalance_moves);
    }
}

/// Part weights of `part` on a replicated level: the primary column
/// summed per chunk of [`parallel::DEFAULT_CHUNK`] vertices and the
/// chunk sums folded in chunk order — the grid `par::dist` folds a
/// distributed level on, which keeps the two bitwise equal — and the
/// auxiliary columns accumulated straight (arity 1 skips them).
pub(crate) fn fold_weights(h: &Hypergraph, k: usize, part: &[PartId]) -> (Vec<f64>, Vec<f64>) {
    let mut weights = vec![0.0f64; k];
    let mut chunk_sum = vec![0.0f64; k];
    for chunk in (0..h.num_vertices()).step_by(parallel::DEFAULT_CHUNK) {
        chunk_sum.fill(0.0);
        for v in chunk..(chunk + parallel::DEFAULT_CHUNK).min(h.num_vertices()) {
            chunk_sum[part[v]] += h.vertex_weight(v);
        }
        for p in 0..k {
            weights[p] += chunk_sum[p];
        }
    }
    let arity = h.load_arity();
    let mut aux_weights = vec![0.0f64; (arity - 1) * k];
    for c in 1..arity {
        let col = h.loads().constraint(c);
        let row = &mut aux_weights[(c - 1) * k..c * k];
        for (v, &p) in part.iter().enumerate() {
            row[p] += col[v];
        }
    }
    (weights, aux_weights)
}

impl<'a> PartitionState<Replicated<'a>> {
    /// Builds the state for `part` on a replicated level.
    pub(crate) fn new(view: Replicated<'a>, k: usize, part: Vec<PartId>) -> Self {
        Self::with_table(view, k, part, Vec::new())
    }

    /// [`Self::new`] building the gain table in `table`'s allocation.
    fn with_table(view: Replicated<'a>, k: usize, part: Vec<PartId>, table: Vec<f64>) -> Self {
        let h = view.h;
        assert_eq!(part.len(), h.num_vertices());
        let mut sigma = vec![0u32; h.num_nets() * k];
        for (j, row) in sigma.chunks_exact_mut(k).enumerate() {
            for &v in h.net(j) {
                row[part[v as usize]] += 1;
            }
        }
        let (weights, aux_weights) = fold_weights(h, k, &part);
        Self::assemble(view, k, sigma, weights, aux_weights, part, table)
    }

    /// Per-part load of auxiliary constraint `c` (1-based, `c ∈ 1..arity`).
    #[inline]
    fn aux_weight(&self, c: usize, p: usize) -> f64 {
        self.aux_weights[(c - 1) * self.k + p]
    }
}

/// Sums stored vertex `v`'s table row from the sigma rows, in net order
/// — the one summation order every table entry reproduces (the state
/// build, every re-sum of a marked row, and `scan_best_move` all add a
/// vertex's net costs in this order).
fn sum_row<V: LevelView>(view: V, k: usize, sigma: &[u32], p: PartId, v: usize, row: &mut [f64]) {
    row.fill(0.0);
    for &j in view.nets_of(v) {
        let j = j as usize;
        let c = view.net_cost(j);
        let counts = &sigma[j * k..(j + 1) * k];
        // Branch-free: `x + 0.0` is `x` bit for bit (no sum here is -0.0).
        for (entry, &count) in row[..k].iter_mut().zip(counts) {
            *entry += if count > 0 { c } else { 0.0 };
        }
        if counts[p] == 1 {
            row[k] += c;
        }
    }
}

impl<V: LevelView> PartitionState<V> {
    /// Completes a state whose sigma rows and weights a builder has
    /// seeded: derives each net's connectivity and every stored vertex's
    /// table row (into `table`, whose allocation is reused), and decides
    /// once whether the level's costs let transitions update entries in
    /// place.
    pub(crate) fn assemble(
        view: V,
        k: usize,
        sigma: Vec<u32>,
        weights: Vec<f64>,
        aux_weights: Vec<f64>,
        part: Vec<PartId>,
        mut table: Vec<f64>,
    ) -> Self {
        let lambda: Vec<u32> = sigma
            .chunks_exact(k)
            .map(|row| row.iter().filter(|&&c| c > 0).count() as u32)
            .collect();
        let stored = view.stored();
        table.clear();
        table.resize(stored.len() * (k + 1), 0.0);
        for (s, row) in table.chunks_exact_mut(k + 1).enumerate() {
            sum_row(view, k, &sigma, part[s], stored.start + s, row);
        }
        // A vertex's total is its `present` entry for its own part.
        let exact = (0..view.num_nets()).all(|j| view.net_cost(j).fract() == 0.0)
            && table
                .chunks_exact(k + 1)
                .zip(&part)
                .all(|(row, &p)| row[p] < EXACT_INT_LIMIT);
        PartitionState {
            view,
            k,
            sigma,
            lambda,
            weights,
            aux_weights,
            part,
            table,
            exact,
            row_log: None,
            tally: GainTally::default(),
        }
    }

    /// A private working copy for proposal generation, with the given
    /// freshly folded weights (the incrementally maintained ones can
    /// differ from a fold in the last ulp). Rows and table are clones:
    /// an entry is exact or marked, so every read of the copy returns
    /// the bits a state built from scratch on `part` would.
    pub(crate) fn private_copy(&self, weights: Vec<f64>, aux_weights: Vec<f64>) -> Self {
        PartitionState {
            weights,
            aux_weights,
            tally: GainTally::default(),
            ..self.clone()
        }
    }

    #[inline]
    fn sigma(&self, j: usize, p: usize) -> u32 {
        self.sigma[j * self.k + p]
    }

    /// Current part of stored vertex `v`.
    #[inline]
    pub(crate) fn part_of(&self, v: usize) -> PartId {
        self.part[self.view.slot(v)]
    }

    /// Moves one pin of net `j` from part `from` to part `to` — the one
    /// place a sigma row changes after the build — and carries the
    /// change into the net's connectivity and the table rows of the
    /// net's **stored** pins. Only four pin-count transitions touch the
    /// table (`c` = the net's cost):
    ///
    /// * `from` 1→0: the net left `from`; `present(u, from) -= c` for
    ///   every pin `u`.
    /// * `to` 0→1: the net reached `to`; `present(u, to) += c` for every
    ///   pin `u`.
    /// * `from` 2→1: the one pin left in `from` is now alone there;
    ///   its `benefit += c`.
    /// * `to` 1→2: the pin that was alone in `to` no longer is; its
    ///   `benefit -= c`.
    ///
    /// "`-=`/`+=`" is literal on a level with exact costs and a mark
    /// otherwise; either way the pin is appended to the row log if
    /// someone listens. `mover` is the vertex whose pin moves if this rank
    /// stores it (any id it does not store otherwise): the last two
    /// rules single out a pin *other* than the mover, whose own benefit
    /// [`Self::apply`] re-sums. That pin may be a ghost here, or, under
    /// a stub, not held at all: then there is nothing to update on this
    /// rank — the pin's owner sees the same event on its copy of the row
    /// and updates the entry there.
    pub(crate) fn shift(&mut self, j: usize, from: PartId, to: PartId, mover: usize) {
        let (k, view) = (self.k, self.view);
        self.sigma[j * k + from] -= 1;
        self.sigma[j * k + to] += 1;
        let (left, arrived) = (self.sigma[j * k + from], self.sigma[j * k + to]);
        self.lambda[j] = self.lambda[j] + u32::from(arrived == 1) - u32::from(left == 0);
        let c = view.net_cost(j);
        // No transition, or a free net: no entry changes.
        if (left > 1 && arrived > 2) || c == 0.0 {
            return;
        }
        let stored = view.stored();
        let exact = self.exact;
        // In place when that is exact, a mark (NaN) when it is not.
        let bump = |entry: &mut f64, delta: f64| {
            *entry = if exact { *entry + delta } else { f64::NAN };
        };
        if left == 0 || arrived == 1 {
            for &u in view.pins(j) {
                let u = u as usize;
                if !stored.contains(&u) {
                    continue;
                }
                let row = &mut self.table[view.slot(u) * (k + 1)..][..k];
                if left == 0 {
                    bump(&mut row[from], -c);
                }
                if arrived == 1 {
                    bump(&mut row[to], c);
                }
            }
            if let Some(log) = &mut self.row_log {
                log.extend(
                    view.pins(j)
                        .iter()
                        .map(|&u| u as usize)
                        .filter(|u| stored.contains(u)),
                );
            }
        }
        let mut singled_out = u32::from(left == 1) + u32::from(arrived == 2);
        for &u in view.pins(j) {
            let u = u as usize;
            if singled_out == 0 {
                break;
            }
            if u == mover || !stored.contains(&u) {
                continue;
            }
            let s = view.slot(u);
            let delta = match self.part[s] {
                p if p == from && left == 1 => c,
                p if p == to && arrived == 2 => -c,
                _ => continue,
            };
            bump(&mut self.table[s * (k + 1) + k], delta);
            if let Some(log) = &mut self.row_log {
                log.push(u);
            }
            singled_out -= 1;
        }
    }

    /// Moves stored vertex `v` to part `q`, updating pin counts (a
    /// stored vertex's net list is complete, so every row this rank
    /// keeps is updated), the table and the weights.
    pub(crate) fn apply(&mut self, v: usize, q: PartId) {
        let view = self.view;
        let s = view.slot(v);
        let p = self.part[s];
        if p == q {
            return;
        }
        // The mover's benefit in its new part, summed in net order.
        let mut benefit = 0.0;
        for &j in view.nets_of(v) {
            let j = j as usize;
            self.shift(j, p, q, v);
            if self.sigma(j, q) == 1 {
                benefit += view.net_cost(j);
            }
        }
        self.table[s * (self.k + 1) + self.k] = benefit;
        self.part[s] = q;
        let w = view.weight(v);
        self.weights[p] -= w;
        self.weights[q] += w;
        for (i, row) in self.aux_weights.chunks_exact_mut(self.k).enumerate() {
            let l = view.aux_load(v, i);
            row[p] -= l;
            row[q] += l;
        }
    }

    /// Stored vertex `v`'s table row with no entry marked — the one read
    /// path of the table. A marked row is re-summed whole, in net order.
    fn row(&mut self, v: usize) -> &[f64] {
        let (k, s) = (self.k, self.view.slot(v));
        let row = &mut self.table[s * (k + 1)..(s + 1) * (k + 1)];
        let marked = row.iter().filter(|x| x.is_nan()).count();
        if marked > 0 {
            self.tally.resums += marked as u64;
            sum_row(self.view, k, &self.sigma, self.part[s], v, row);
        }
        row
    }

    /// True when moving `v` (of weight `w`) into `q` respects the weight
    /// cap and every auxiliary cap (the latter an empty loop, no float
    /// ops, when `targets` is scalar).
    #[inline]
    fn fits(&self, v: usize, w: f64, q: PartId, targets: &PartTargets) -> bool {
        if self.weights[q] + w > targets.cap(q) {
            return false;
        }
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
    /// the k-1 metric: `benefit(v) − (total(v) − present(v, q))`, the
    /// formula `best_move` ranks targets by. Exact on either storage
    /// form: every net of a stored vertex has a row, and rows hold
    /// global counts.
    fn gain(&mut self, v: usize, q: PartId) -> f64 {
        let (k, p) = (self.k, self.part_of(v));
        if p == q {
            return 0.0;
        }
        let row = self.row(v);
        let gain = row[k] - (row[p] - row[q]);
        #[cfg(debug_assertions)]
        {
            let mut fresh = vec![0.0; k + 1];
            sum_row(self.view, k, &self.sigma, p, v, &mut fresh);
            debug_assert_eq!(gain.to_bits(), (fresh[k] - (fresh[p] - fresh[q])).to_bits());
        }
        gain
    }

    /// The most any move of stored vertex `v` can gain: its gain to the
    /// part its nets touch most, cap or no cap (a part they do not touch
    /// at all has `present` 0). Float rounding is monotone, so no
    /// `gain(v, q)` exceeds it.
    fn max_gain(&mut self, v: usize) -> f64 {
        let (k, p) = (self.k, self.part_of(v));
        let row = self.row(v);
        let most = (0..k)
            .filter(|&q| q != p)
            .fold(0.0, |most, q| row[q].max(most));
        row[k] - (row[p] - most)
    }

    /// Owned vertices on the cut boundary — incident to at least one net
    /// that touches more than one part — ascending, into a caller-owned
    /// buffer (cleared first) so refinement passes can reuse the
    /// allocation. Every net of an owned vertex has a globally exact row
    /// here and lists the vertex among its stored pins, so none is missed
    /// and none is spurious.
    pub(crate) fn owned_boundary_into(&self, out: &mut Vec<usize>) {
        let owned = self.view.owned();
        let mut boundary = vec![false; owned.len()];
        for (j, &parts) in self.lambda.iter().enumerate() {
            if parts > 1 {
                for &v in self.view.pins(j) {
                    let v = v as usize;
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
    pub(crate) fn revalidates(&mut self, v: usize, to: PartId, targets: &PartTargets) -> bool {
        let from = self.part_of(v);
        if self.view.fixed(v).is_some() || from == to {
            return false;
        }
        let w = self.view.weight(v);
        if !self.fits(v, w, to, targets) {
            return false;
        }
        let gain = self.gain(v, to);
        gain > 0.0 || (gain == 0.0 && self.weights[from] > self.weights[to] + w)
    }

    /// The best feasible move for `v`, read from its table row in O(k):
    /// the parts `v`'s nets of non-zero cost already touch, within the
    /// caps, folded in ascending part order through [`Self::beats`]. A
    /// function of the row and the part weights alone, so the same on
    /// every storage form and whatever order the input lists its nets in.
    pub(crate) fn best_move(&mut self, v: usize, targets: &PartTargets) -> Option<(PartId, f64)> {
        self.tally.evaluations += 1;
        let (k, p, w) = (self.k, self.part_of(v), self.view.weight(v));
        // Re-summed if marked; borrowed again, shared, beside the weights.
        self.row(v);
        let s = self.view.slot(v);
        let row = &self.table[s * (k + 1)..(s + 1) * (k + 1)];
        let cands = (0..k).filter(|&q| q != p && row[q] > 0.0 && self.fits(v, w, q, targets));
        let best = self.pick(cands, |q| row[k] - (row[p] - row[q]));
        #[cfg(debug_assertions)]
        assert_eq!(
            best.map(|(q, g)| (q, g.to_bits())),
            self.scan_best_move(v, targets)
                .map(|(q, g)| (q, g.to_bits())),
            "table and scan disagree on vertex {v}"
        );
        best
    }

    /// [`Self::best_move`] without the table, by scanning all of `v`'s
    /// nets against all `k` parts — what every table answer is checked
    /// against under `debug_assertions` and in tests, and nothing else:
    /// no release code path, no tie resolver.
    #[cfg(any(test, debug_assertions))]
    fn scan_best_move(&self, v: usize, targets: &PartTargets) -> Option<(PartId, f64)> {
        let (k, p, w) = (self.k, self.part_of(v), self.view.weight(v));
        let mut base = 0.0; // gain component from leaving p
        let mut total = 0.0;
        // Per part, the cost of `v`'s nets with a pin there. A part is a
        // candidate once that is positive: a net of zero cost makes none
        // — moving along it gains what moving to a non-adjacent part does.
        let mut present = vec![0.0; k];
        for &j in self.view.nets_of(v) {
            let j = j as usize;
            let c = self.view.net_cost(j);
            total += c;
            if self.sigma(j, p) == 1 {
                base += c;
            }
            for q in (0..k).filter(|&q| self.sigma(j, q) > 0) {
                present[q] += c;
            }
        }
        let cands = (0..k).filter(|&q| q != p && present[q] > 0.0 && self.fits(v, w, q, targets));
        self.pick(cands, |q| base - (total - present[q]))
    }

    /// Whether candidate `a` displaces incumbent `b`: a higher gain, or
    /// an equal one into a lighter part. Otherwise the incumbent stays —
    /// and candidates are met in ascending part order, so **a tie on gain
    /// and on part weight goes to the lower part id**. This is the whole
    /// tie rule of a best move; nothing else breaks one.
    #[inline]
    fn beats(&self, a: (PartId, f64), b: (PartId, f64)) -> bool {
        a.1 > b.1 + 1e-12 || (a.1 > b.1 - 1e-12 && self.weights[a.0] < self.weights[b.0])
    }

    /// Folds the (feasible) `cands`, ascending, each displacing the
    /// incumbent it [`beats`](Self::beats).
    #[inline]
    fn pick(
        &self,
        cands: impl Iterator<Item = PartId>,
        gain_to: impl Fn(PartId) -> f64,
    ) -> Option<(PartId, f64)> {
        let mut best: Option<(PartId, f64)> = None;
        for q in cands {
            let cand = (q, gain_to(q));
            if best.is_none_or(|b| self.beats(cand, b)) {
                best = Some(cand);
            }
        }
        best
    }
}

/// Everything the move kernels can read of one owned vertex, bitwise:
/// the vertex, its best move, and its gain to every part.
#[cfg(test)]
pub(crate) type VertexReads = (usize, Option<(PartId, u64)>, Vec<u64>);

#[cfg(test)]
impl<V: LevelView> PartitionState<V> {
    /// The [`VertexReads`] of every owned vertex in ascending order, and
    /// the owned boundary — what two states of one partition must agree
    /// on whatever their histories and storage forms.
    pub(crate) fn reads(&mut self, targets: &PartTargets) -> (Vec<VertexReads>, Vec<usize>) {
        let per_vertex = self
            .view
            .owned()
            .map(|v| {
                let best = self.best_move(v, targets).map(|(q, g)| (q, g.to_bits()));
                (
                    v,
                    best,
                    (0..self.k).map(|q| self.gain(v, q).to_bits()).collect(),
                )
            })
            .collect();
        let mut boundary = Vec::new();
        self.owned_boundary_into(&mut boundary);
        (per_vertex, boundary)
    }
}

/// Allocation-reusing scratch for [`refine`]: the candidate
/// queue, the per-pass vertex arrays, and the gain table's buffer (lent
/// to each call's state and taken back). One instance serves every level
/// of a multilevel V-cycle (and every bisection of a recursive-bisection
/// tree), so the per-pass `O(n)` allocations of the original refiner are
/// paid once per partitioner call instead of once per pass.
pub(crate) struct RefineScratch {
    /// FM's queue, heap 0 over the level's vertices: a vertex is keyed by
    /// the gain of the move it entered the queue with, whose destination
    /// is `to[v]`.
    heap: Heaps,
    to: Vec<PartId>,
    locked: Vec<bool>,
    applied: Vec<(usize, PartId)>,
    boundary: Vec<usize>,
    table: Vec<f64>,
}

impl RefineScratch {
    /// An empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        RefineScratch {
            heap: Heaps::new(1, 0),
            to: Vec::new(),
            locked: Vec::new(),
            applied: Vec::new(),
            boundary: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Prepares the scratch for one FM pass over `n` vertices: clears
    /// (retaining capacity) and resizes the vertex arrays.
    fn prepare_pass(&mut self, n: usize) {
        self.heap.reset(n);
        self.to.resize(n, 0);
        self.locked.clear();
        self.locked.resize(n, false);
        self.applied.clear();
    }

    /// Puts `v` in the queue with the move `(to, gain)`; it must not be
    /// there already.
    fn queue(&mut self, v: usize, (to, gain): (PartId, f64)) {
        debug_assert!(!self.heap.contains(v), "vertex {v} is in the queue already");
        self.heap.set(0, v, gain);
        self.to[v] = to;
    }
}

impl Default for RefineScratch {
    fn default() -> Self {
        Self::new()
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

/// Whether stored vertex `v` may be evacuated: free, and of positive
/// weight — moving a weightless vertex relieves nothing, so picking one
/// would only end the loop on its "no progress" test while heavier
/// members could still leave.
#[inline]
fn evacuable<V: LevelView>(view: V, v: usize) -> bool {
    view.fixed(v).is_none() && view.weight(v) > 0.0
}

/// What evacuating stored vertex `v` from `p` does, as `(destination,
/// gain)`: its best move to a part with spare capacity, falling back to
/// the relatively lightest part. Both depend on the part weights, so the
/// value can rise or fall with no change to `v`'s table row.
fn evacuation<V: LevelView>(
    state: &mut PartitionState<V>,
    v: usize,
    p: PartId,
    targets: &PartTargets,
) -> (PartId, f64) {
    state.best_move(v, targets).unwrap_or_else(|| {
        // No adjacent feasible part: move toward the part with the
        // most spare relative capacity.
        let w = state.view.weight(v);
        let rel = |q: PartId| (state.weights[q] + w) / targets.target[q].max(1e-12);
        let q = (0..state.k)
            .filter(|&q| q != p)
            .min_by(|&a, &b| rel(a).total_cmp(&rel(b)))
            .expect("rebalancing needs a second part");
        (q, state.gain(v, q))
    })
}

/// The cheapest vertex to evacuate from `p` by walking every stored
/// vertex, as `(vertex, destination, gain)`: the highest
/// [`evacuation`] gain, the lowest id among equals. What
/// [`EvacuationQueues::best`] must answer — its oracle on every pick
/// under `debug_assertions`, the role `scan_best_move` has for the
/// table. Counts nothing. (Every row it reads the queues have re-read
/// since it was last written, so it re-sums nothing either.)
#[cfg(debug_assertions)]
fn best_evacuation<V: LevelView>(
    state: &mut PartitionState<V>,
    p: PartId,
    targets: &PartTargets,
) -> Option<(usize, PartId, f64)> {
    let tally = state.tally;
    let mut best: Option<(usize, PartId, f64)> = None;
    for v in state.view.stored() {
        if state.part_of(v) == p && evacuable(state.view, v) {
            let (q, g) = evacuation(state, v, p, targets);
            if best.is_none_or(|(_, _, bg)| g > bg) {
                best = Some((v, q, g));
            }
        }
    }
    state.tally = tally;
    best
}

/// The evacuation candidates this rank stores, one max-heap per part,
/// keyed by [`PartitionState::max_gain`] — an **upper bound** of the
/// candidate's [`evacuation`] gain, not the gain. The gain cannot be the
/// key: destination feasibility and the fallback destination move with
/// the part weights, so a gain can rise while nothing tells the heap, and
/// a stale entry would hide the vertex that has become the best. The
/// bound reads the table row and the vertex's part only, both of which
/// change in [`PartitionState::shift`] and `apply` alone; [`Self::follow`]
/// re-keys from the row log after every move, so every key is exactly
/// the current bound and popping in key order until the bound falls
/// below the best gain found finds what walking the part would.
struct EvacuationQueues {
    /// Heap `p` holds, by slot, the [`evacuable`] stored vertices of part
    /// `p` — once `built[p]`; empty until then.
    heaps: Heaps,
    /// Parts that have been the most overweight one. Only their heaps are
    /// filled and followed: most parts never need evacuating.
    built: Vec<bool>,
    /// What one [`Self::best`] popped, until it puts them back.
    examined: Vec<(usize, f64)>,
}

impl EvacuationQueues {
    /// Empty queues for `state`, which logs its row writes from now on.
    fn listen<V: LevelView>(state: &mut PartitionState<V>) -> Self {
        state.row_log = Some(Vec::new());
        EvacuationQueues {
            heaps: Heaps::new(state.k, state.view.stored().len()),
            built: vec![false; state.k],
            examined: Vec::new(),
        }
    }

    /// Fills part `p`'s heap the first time the part needs evacuating.
    fn build<V: LevelView>(&mut self, state: &mut PartitionState<V>, p: PartId) {
        if std::mem::replace(&mut self.built[p], true) {
            return;
        }
        for v in state.view.stored() {
            if state.part_of(v) == p && evacuable(state.view, v) {
                self.heaps.set(p, state.view.slot(v), state.max_gain(v));
            }
        }
    }

    /// The cheapest vertex to evacuate from `p` among those this rank
    /// stores, as `(vertex, destination, gain)`: the highest
    /// [`evacuation`] gain, the lowest id among equals; `None` when the
    /// rank stores no candidate. Pops while the top's bound can still
    /// beat the best found — candidates surface by descending bound,
    /// ascending id among equal bounds, so once the top cannot, nothing
    /// under it can — and puts what it popped back: on a distributed
    /// level another rank's candidate may be the one that moves.
    fn best<V: LevelView>(
        &mut self,
        state: &mut PartitionState<V>,
        p: PartId,
        targets: &PartTargets,
    ) -> Option<(usize, PartId, f64)> {
        let start = state.view.stored().start;
        let mut best: Option<(usize, PartId, f64)> = None;
        while let Some((slot, bound)) = self.heaps.peek(p) {
            let v = start + slot;
            if best.is_some_and(|(bv, _, bg)| bound < bg || (bound == bg && v > bv)) {
                break;
            }
            self.heaps.pop(p);
            self.examined.push((slot, bound));
            state.tally.rebalance_candidates += 1;
            let (q, g) = evacuation(state, v, p, targets);
            debug_assert!(g <= bound, "vertex {v}: gain {g} above its bound {bound}");
            if best.is_none_or(|(bv, _, bg)| g > bg || (g == bg && v < bv)) {
                best = Some((v, q, g));
            }
        }
        for (slot, bound) in self.examined.drain(..) {
            self.heaps.set(p, slot, bound);
        }
        best
    }

    /// Carries the committed move of `v` from `from` to `to` (made here
    /// or on another rank) into the queues: the mover changes heaps if
    /// this rank stores it, and every held vertex whose row the move
    /// wrote is re-keyed (drains the row log; reading the bound re-sums a
    /// row a non-integer level marked).
    fn follow<V: LevelView>(
        &mut self,
        state: &mut PartitionState<V>,
        v: usize,
        from: PartId,
        to: PartId,
    ) {
        let view = state.view;
        if view.stored().contains(&v) && self.heaps.contains(view.slot(v)) {
            self.heaps.remove(from, view.slot(v));
            if self.built[to] {
                self.heaps.set(to, view.slot(v), state.max_gain(v));
            }
        }
        let mut log = state.row_log.take().expect("rebalance is listening");
        for u in log.drain(..) {
            if self.heaps.contains(view.slot(u)) {
                self.heaps
                    .set(state.part_of(u), view.slot(u), state.max_gain(u));
            }
        }
        state.row_log = Some(log);
    }
}

/// How a level makes the move a rebalance step chose — the one thing
/// the storage forms do differently there. A replicated level is
/// rebalanced redundantly (every rank stores every vertex, picks the same
/// move and applies it: [`Lockstep`]); on a distributed level the ranks'
/// picks are reduced to one and the move is applied collectively.
pub(crate) trait CommitMove<V> {
    /// What `revert` needs, besides the move, to take it back.
    type Undo;
    /// Makes the level-wide best of the ranks' `local` evacuations out
    /// of `from` and returns it as `(vertex, destination, undo)`; `None`
    /// (nothing made) when no rank has one.
    fn commit(
        &mut self,
        state: &mut PartitionState<V>,
        from: PartId,
        local: Option<(usize, PartId, f64)>,
    ) -> Option<(usize, PartId, Self::Undo)>;
    /// Takes `v`, which `commit` moved from `from` to `to`, back.
    fn revert(
        &mut self,
        state: &mut PartitionState<V>,
        v: usize,
        from: PartId,
        to: PartId,
        undo: Self::Undo,
    );
}

/// [`CommitMove`] for a level every rank stores whole.
pub(crate) struct Lockstep;

impl<V: LevelView> CommitMove<V> for Lockstep {
    type Undo = ();
    fn commit(
        &mut self,
        state: &mut PartitionState<V>,
        _from: PartId,
        local: Option<(usize, PartId, f64)>,
    ) -> Option<(usize, PartId, ())> {
        let (v, q, _) = local?;
        state.apply(v, q);
        Some((v, q, ()))
    }
    fn revert(
        &mut self,
        state: &mut PartitionState<V>,
        v: usize,
        from: PartId,
        _to: PartId,
        _: (),
    ) {
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
///
/// An evacuation is a few pops of the part's [`EvacuationQueues`] heap
/// plus the re-keying of the vertices whose rows the move wrote — not a
/// walk of the part. Nothing is built or logged until a part is found
/// overweight (usually none is).
pub(crate) fn rebalance<V: LevelView>(
    state: &mut PartitionState<V>,
    targets: &PartTargets,
    commit: &mut impl CommitMove<V>,
) {
    dlb_trace::count(dlb_trace::Counter::RebalanceInvocations, 1);
    let max_moves = 2 * state.view.num_vertices() + 16;
    let mut queues: Option<EvacuationQueues> = None;
    for _ in 0..max_moves {
        let violation_before = total_violation(&state.weights, targets);
        let Some(p) = most_overweight(&state.weights, targets) else {
            break;
        };
        let queues = queues.get_or_insert_with(|| EvacuationQueues::listen(state));
        queues.build(state, p);
        let local = queues.best(state, p, targets);
        #[cfg(debug_assertions)]
        {
            let bits = |(v, q, g): (usize, PartId, f64)| (v, q, g.to_bits());
            let walked = best_evacuation(state, p, targets);
            debug_assert_eq!(
                local.map(bits),
                walked.map(bits),
                "queue and walk disagree on part {p}"
            );
        }
        // Nothing made: only fixed or weightless vertices are left in `p`.
        let Some((v, to, undo)) = commit.commit(state, p, local) else {
            break;
        };
        // Keep only moves that strictly reduce total violation;
        // otherwise we are ping-ponging load between parts that can
        // never fit under their caps — undo and stop.
        if total_violation(&state.weights, targets) >= violation_before - 1e-12 {
            commit.revert(state, v, p, to, undo);
            break;
        }
        state.tally.rebalance_moves += 1;
        queues.follow(state, v, p, to);
    }
    state.row_log = None;
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
    // Relative overshoot of load `w` under cap `cp`. Zero-capacity parts
    // count as violated when loaded.
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
    // What a step is ranked by: the resulting global maximum violation,
    // the maximum over the two parts it touches, and its cut gain.
    type Score = (f64, f64, f64);
    // Whether a step displaces the best one so far: a lower resulting
    // global maximum, then touched parts that end lower, then the better
    // cut gain.
    let better = |(after, touched, g): Score, best: Option<Score>| {
        best.is_none_or(|(ba, bt, bg)| {
            after < ba - 1e-12
                || (after < ba + 1e-12
                    && (touched < bt - 1e-12 || (touched < bt + 1e-12 && g > bg + 1e-12)))
        })
    };
    while moves < max_moves {
        // Violation matrix and, per constraint, the top-three violations
        // with their parts: a step only touches two parts, so the
        // resulting global maximum is O(arity) to evaluate from these.
        let over: Vec<Vec<f64>> = (0..arity)
            .map(|c| {
                (0..k)
                    .map(|p| over_of(load_of(state, c, p), cap(c, p)))
                    .collect()
            })
            .collect();
        if over.iter().flatten().fold(0.0f64, |worst, &o| worst.max(o)) <= 1e-9 {
            break; // feasible on every constraint
        }
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
        // What shifting `delta(c)` of every constraint `c`'s load from
        // part `a` to part `q` does: `None` unless it makes lexicographic
        // progress, else the resulting global maximum violation and the
        // maximum over the two touched parts.
        let mut step = |state: &PartitionState<Replicated<'_>>,
                        a: PartId,
                        q: PartId,
                        delta: &dyn Fn(usize) -> f64| {
            let mut after = 0.0f64;
            let mut touched = f64::NEG_INFINITY;
            for c in 0..arity {
                let d = delta(c);
                let from = over_of(load_of(state, c, a) - d, cap(c, a));
                let to = over_of(load_of(state, c, q) + d, cap(c, q));
                old_t[2 * c] = over[c][a];
                old_t[2 * c + 1] = over[c][q];
                new_t[2 * c] = from;
                new_t[2 * c + 1] = to;
                after = after.max(from).max(to).max(others_max(c, a, q));
                touched = touched.max(from).max(to);
            }
            lex_improves(&mut old_t, &mut new_t).then_some((after, touched))
        };
        // Anchor parts: every part violated on some constraint. A vertex
        // is a relocation candidate if it carries load on one of its
        // part's violated constraints.
        let violated: Vec<Vec<usize>> = (0..k)
            .map(|p| (0..arity).filter(|&c| over[c][p] > 1e-9).collect())
            .collect();
        let relieves = |v: usize, a: PartId| violated[a].iter().any(|&c| h.vertex_load(v, c) > 0.0);
        // Over every movable vertex of a violated part and every
        // destination, the relocation that minimizes the resulting
        // global maximum violation, among those making lexicographic
        // progress; among equals, the one whose touched parts end
        // lowest, then the best cut gain.
        let mut best: Option<((usize, PartId), Score)> = None;
        for v in 0..n {
            let a = state.part[v];
            if fixed.is_fixed(v) || !relieves(v, a) {
                continue;
            }
            for q in (0..k).filter(|&q| q != a) {
                let Some((after, touched)) = step(state, a, q, &|c| h.vertex_load(v, c)) else {
                    continue;
                };
                let score = (after, touched, state.gain(v, q));
                if better(score, best.map(|(_, s)| s)) {
                    best = Some(((v, q), score));
                }
            }
        }
        if let Some(((v, q), _)) = best {
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
        let mut best_swap: Option<((usize, usize), Score)> = None;
        for &a in &anchors {
            for v in 0..n {
                if state.part[v] != a || fixed.is_fixed(v) || !relieves(v, a) {
                    continue;
                }
                for u in 0..n {
                    let q = state.part[u];
                    if q == a || fixed.is_fixed(u) {
                        continue;
                    }
                    let exchanged = |c: usize| h.vertex_load(v, c) - h.vertex_load(u, c);
                    let Some((after, touched)) = step(state, a, q, &exchanged) else {
                        continue;
                    };
                    let score = (after, touched, state.gain(v, q) + state.gain(u, a));
                    if better(score, best_swap.map(|(_, s)| s)) {
                        best_swap = Some(((v, u), score));
                    }
                }
            }
        }
        // No step makes progress — stop, stay deterministic.
        let Some(((v, u), _)) = best_swap else { break };
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
///
/// The queue is seeded with every free boundary vertex that has a move,
/// in one [`Heaps::fill`]; pops are a function of the queued `(gain,
/// id)` entries, not of the order they entered in. After each applied
/// move the pass walks the mover's nets (up to
/// [`MAX_NET_SIZE_FOR_UPDATES`] pins) and queues every free vertex that
/// is neither locked nor queued — an *idle* one. It keeps the number of
/// idle vertices, and the walk stops as soon as none is left: every pin
/// after that would be skipped anyway, so the moves, the prefix kept and
/// the `best_move` evaluations are those of the full walk, and only
/// `fm_pins_touched` (the pins the walk visits) tells them apart.
fn fm_pass(
    state: &mut PartitionState<Replicated<'_>>,
    targets: &PartTargets,
    scratch: &mut RefineScratch,
    rng: &mut StdRng,
) -> f64 {
    let Replicated { h, fixed, .. } = state.view;
    let n = h.num_vertices();
    // A vertex is in the queue at most once, under the gain it had when
    // it entered: pops revalidate, and an entry is never re-keyed — a
    // stale key is part of what orders the pops.
    scratch.prepare_pass(n);

    let mut boundary = std::mem::take(&mut scratch.boundary);
    state.owned_boundary_into(&mut boundary);
    let to = &mut scratch.to;
    scratch.heap.fill(
        0,
        boundary
            .iter()
            .filter(|&&v| !fixed.is_fixed(v))
            .filter_map(|&v| {
                let (q, gain) = state.best_move(v, targets)?;
                to[v] = q;
                Some((v, gain))
            }),
    );
    // The pop order does not depend on the seeding order, so this
    // shuffle decides nothing in this pass. It stays because later
    // passes and levels draw from the RNG stream after it: dropping it
    // would move every later draw.
    boundary.shuffle(rng);
    scratch.boundary = boundary;

    // Free vertices neither locked nor queued: the ones a neighbour walk
    // can still queue.
    let mut idle = n - fixed.num_fixed() - scratch.heap.len(0);
    let mut pins_touched = 0u64;
    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;
    let mut neg_streak = 0usize;

    while let Some((v, key)) = scratch.heap.pop(0) {
        if scratch.locked[v] || fixed.is_fixed(v) {
            continue;
        }
        idle += 1;
        // Lazy revalidation: the move it entered with may be stale.
        let Some((to, gain)) = state.best_move(v, targets) else {
            continue;
        };
        if to != scratch.to[v] || (gain - key).abs() > 1e-9 {
            scratch.queue(v, (to, gain));
            idle -= 1;
            continue;
        }
        let from = state.part[v];
        state.apply(v, to);
        scratch.locked[v] = true;
        idle -= 1;
        scratch.applied.push((v, from));
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
        // Queue the neighbors whose gains changed, unless they are in it,
        // while any vertex is left to queue.
        'walk: for &j in h.vertex_nets(v) {
            let j = j as usize;
            if idle == 0 {
                break;
            }
            if h.net_size(j) > MAX_NET_SIZE_FOR_UPDATES {
                continue;
            }
            for &w in h.net(j) {
                let w = w as usize;
                pins_touched += 1;
                if !scratch.locked[w] && !scratch.heap.contains(w) && !fixed.is_fixed(w) {
                    if let Some(mv) = state.best_move(w, targets) {
                        scratch.queue(w, mv);
                        idle -= 1;
                        if idle == 0 {
                            break 'walk;
                        }
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        idle,
        (0..n)
            .filter(|&w| !scratch.locked[w] && !scratch.heap.contains(w) && !fixed.is_fixed(w))
            .count(),
        "idle count drifted"
    );

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
    dlb_trace::count(dlb_trace::Counter::FmPinsTouched, pins_touched);
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
    refine_with(h, targets, fixed, part, cfg, rng, &mut RefineScratch::new())
}

/// [`refine`] with a caller-owned [`RefineScratch`], reused across the
/// levels and cycles of one partitioner call.
pub(crate) fn refine_with(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
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
    let table = std::mem::take(&mut scratch.table);
    let mut state = PartitionState::with_table(view, k, std::mem::take(part), table);

    rebalance(&mut state, targets, &mut Lockstep);
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
    state.tally.flush();
    *part = state.part;
    scratch.table = state.table;
    total
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use rand::{Rng, SeedableRng};

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
        let gain = refine(
            &h,
            &t,
            &fixed,
            &mut part,
            &RefinementConfig::default(),
            &mut rng,
        );
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
        refine(
            &h,
            &t,
            &fixed,
            &mut part,
            &RefinementConfig::default(),
            &mut rng,
        );
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
        refine(
            &h,
            &t,
            &fixed,
            &mut part,
            &RefinementConfig::default(),
            &mut rng,
        );
        let w = metrics::part_weights(&h, &part, 4);
        for p in 0..4 {
            assert!(
                w[p] <= t.cap(p) + 1e-9,
                "part {p} weight {} > cap {}",
                w[p],
                t.cap(p)
            );
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
        refine(
            &h,
            &t,
            &fixed,
            &mut part,
            &RefinementConfig::default(),
            &mut rng,
        );
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
        let gain = refine(
            &h,
            &t,
            &fixed,
            &mut part,
            &RefinementConfig::default(),
            &mut rng,
        );
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
        assert_eq!(
            refine(
                &h,
                &t,
                &fixed,
                &mut part,
                &RefinementConfig::default(),
                &mut rng
            ),
            0.0
        );
    }

    /// A random hypergraph on `n` vertices whose nets have 1–6 pins (a
    /// 1-in-8 net is a single pin) and integer or `0.5..4.0` costs, about
    /// a quarter of the vertices fixed where they start, and a random
    /// partition.
    fn random_instance(
        rng: &mut StdRng,
        n: usize,
        k: usize,
        fractional: bool,
    ) -> (Hypergraph, FixedAssignment, Vec<PartId>) {
        let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
        for _ in 0..rng.gen_range(n / 2..3 * n) {
            let size = if rng.gen_bool(0.125) {
                1
            } else {
                rng.gen_range(2usize..7)
            };
            let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            let cost = if fractional {
                rng.gen_range(0.5f64..4.0)
            } else {
                rng.gen_range(1..5) as f64
            };
            b.add_net(cost, pins);
        }
        let part: Vec<PartId> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        let fixed: Vec<Option<PartId>> = part
            .iter()
            .map(|&p| rng.gen_bool(0.25).then_some(p))
            .collect();
        (b.build(), FixedAssignment::from_options(&fixed), part)
    }

    /// Applies `steps` random moves of free vertices to a state built on
    /// `part`, then rolls the last half back in reverse; after every
    /// step, everything readable of the state equals, bitwise, what a
    /// state built from scratch on the current partition answers.
    fn check_applies_against_fresh_builds(
        h: &Hypergraph,
        fixed: &FixedAssignment,
        k: usize,
        part: Vec<PartId>,
        steps: usize,
        rng: &mut StdRng,
    ) {
        let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.3);
        let view = Replicated::whole(h, fixed);
        let mut state = PartitionState::new(view, k, part);
        let agrees = |state: &mut PartitionState<Replicated<'_>>, what: &str| {
            let mut fresh = PartitionState::new(view, k, state.part.clone());
            assert_eq!(state.sigma, fresh.sigma, "{what}");
            assert_eq!(state.lambda, fresh.lambda, "{what}");
            assert_eq!(state.reads(&targets), fresh.reads(&targets), "{what}");
            // A private copy is a fresh build too.
            let (w, aux) = fold_weights(h, k, &state.part);
            assert_eq!(
                state.private_copy(w, aux).reads(&targets),
                fresh.reads(&targets),
                "{what}"
            );
        };
        agrees(&mut state, "at the build");
        let free: Vec<usize> = (0..h.num_vertices())
            .filter(|&v| !fixed.is_fixed(v))
            .collect();
        if free.is_empty() {
            return;
        }
        let mut undo = Vec::new();
        for step in 0..steps {
            let v = free[rng.gen_range(0..free.len())];
            undo.push((v, state.part[v]));
            state.apply(v, rng.gen_range(0..k));
            agrees(&mut state, &format!("after step {step}"));
        }
        for (v, from) in undo.into_iter().rev().take(steps / 2) {
            state.apply(v, from);
            agrees(&mut state, &format!("after rolling back vertex {v}"));
        }
    }

    /// (a) The table stays the scan's cache under any move sequence, on
    /// integer costs (updated in place) and fractional ones (marked and
    /// re-summed) alike.
    #[test]
    fn table_equals_a_fresh_build_after_every_apply() {
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for case in 0..24 {
            let k = rng.gen_range(2usize..7);
            let fractional = case % 2 == 1;
            let n = rng.gen_range(12usize..70);
            let (h, fixed, part) = random_instance(&mut rng, n, k, fractional);
            let view = Replicated::whole(&h, &fixed);
            assert_eq!(
                PartitionState::new(view, k, part.clone()).exact,
                !fractional
            );
            check_applies_against_fresh_builds(&h, &fixed, k, part, 40, &mut rng);
        }
    }

    /// The instance of `a_double_tie_goes_to_the_lower_part`: vertex 0 of
    /// part 0 reaches parts 1 and 2 through one net of cost 2 each —
    /// equal gains into equally heavy parts — and the nets are listed so
    /// that part 2's comes first.
    pub(crate) fn double_tie_case() -> (Hypergraph, FixedAssignment, Vec<PartId>, PartTargets) {
        let mut b = dlb_hypergraph::HypergraphBuilder::new(3);
        b.add_net(2.0, [0, 2]);
        b.add_net(2.0, [0, 1]);
        (
            b.build(),
            FixedAssignment::free(3),
            vec![0, 1, 2],
            PartTargets::uniform(3.0, 3, 2.0),
        )
    }

    /// (c) Two targets tie on gain and on part weight: the lower part id
    /// wins, whatever order the nets meet them in, and a lighter part
    /// wins before that.
    #[test]
    fn a_double_tie_goes_to_the_lower_part() {
        let (h, fixed, part, targets) = double_tie_case();
        let mut state = PartitionState::new(Replicated::whole(&h, &fixed), 3, part);
        assert_eq!(state.best_move(0, &targets), Some((1, 2.0)));
        state.weights[2] -= 0.5;
        assert_eq!(state.best_move(0, &targets), Some((2, 2.0)));
        assert_eq!(
            state.tally,
            GainTally {
                evaluations: 2,
                ..Default::default()
            }
        );
    }

    /// (a) Flat refinement on integer costs is a function of the
    /// hypergraph, not of the order its nets are listed in: the same 150
    /// unit nets added forwards and backwards refine to the same
    /// partition. (When a double tie went to the part the vertex's nets
    /// reached first, about half of these rows differed.)
    #[test]
    fn refine_ignores_the_order_of_the_nets() {
        let (n, k) = (60usize, 4usize);
        let mut rng = StdRng::seed_from_u64(0x0DE5);
        let mut differing = 0;
        for case in 0..40 {
            let nets: Vec<Vec<usize>> = (0..150)
                .map(|_| {
                    (0..rng.gen_range(2usize..5))
                        .map(|_| rng.gen_range(0..n))
                        .collect()
                })
                .collect();
            let refined = |order: Vec<&Vec<usize>>| {
                let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
                for pins in order {
                    b.add_net(1.0, pins.iter().copied());
                }
                let h = b.build();
                let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.1);
                let mut part: Vec<PartId> = (0..n).map(|v| v % k).collect();
                let fixed = FixedAssignment::free(n);
                let mut rng = StdRng::seed_from_u64(case);
                refine(
                    &h,
                    &targets,
                    &fixed,
                    &mut part,
                    &RefinementConfig::default(),
                    &mut rng,
                );
                part
            };
            differing +=
                usize::from(refined(nets.iter().collect()) != refined(nets.iter().rev().collect()));
        }
        assert_eq!(differing, 0, "of 40 instances");
    }

    /// A move FM has queued, ordered as `BinaryHeap` pops it: the highest
    /// gain, the lowest vertex among equal gains.
    struct Cand {
        gain: f64,
        v: usize,
        to: PartId,
    }

    impl PartialEq for Cand {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Cand {}
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&other.gain)
                .then_with(|| other.v.cmp(&self.v))
        }
    }

    /// [`fm_pass`] as it was before it queued on [`Heaps`]: a
    /// `BinaryHeap<Cand>` with a `queued` flag per vertex beside it,
    /// seeded one push at a time in shuffled order, and a neighbour walk
    /// over every pin of the mover's nets. The reference of
    /// `fm_on_the_shared_heap_equals_the_binary_heap_reference` (the role
    /// `greedy_growing_lazy` has for GHG). Returns the moves applied as
    /// `(vertex, from)`, how many of them were kept, the gain kept and
    /// the pins the neighbour walks visited.
    fn fm_pass_binary_heap(
        state: &mut PartitionState<Replicated<'_>>,
        targets: &PartTargets,
        rng: &mut StdRng,
    ) -> (Vec<(usize, PartId)>, usize, f64, u64) {
        use std::collections::BinaryHeap;
        let Replicated { h, fixed, .. } = state.view;
        let mut heap = BinaryHeap::new();
        let mut locked = vec![false; h.num_vertices()];
        let mut queued = vec![false; h.num_vertices()];
        let mut applied = Vec::new();
        let mut pins_touched = 0u64;

        let mut boundary = Vec::new();
        state.owned_boundary_into(&mut boundary);
        boundary.shuffle(rng);
        for &v in &boundary {
            if fixed.is_fixed(v) {
                continue;
            }
            if let Some((to, gain)) = state.best_move(v, targets) {
                heap.push(Cand { gain, v, to });
                queued[v] = true;
            }
        }

        let (mut cum, mut best_cum, mut best_len, mut neg_streak) = (0.0, 0.0, 0usize, 0usize);
        while let Some(c) = heap.pop() {
            queued[c.v] = false;
            if locked[c.v] || fixed.is_fixed(c.v) {
                continue;
            }
            let Some((to, gain)) = state.best_move(c.v, targets) else {
                continue;
            };
            if to != c.to || (gain - c.gain).abs() > 1e-9 {
                heap.push(Cand { gain, v: c.v, to });
                queued[c.v] = true;
                continue;
            }
            let from = state.part[c.v];
            state.apply(c.v, to);
            locked[c.v] = true;
            applied.push((c.v, from));
            cum += gain;
            if cum > best_cum + 1e-12 {
                best_cum = cum;
                best_len = applied.len();
                neg_streak = 0;
            } else {
                neg_streak += 1;
                if neg_streak >= MAX_NEGATIVE_STREAK {
                    break;
                }
            }
            for &j in h.vertex_nets(c.v) {
                let j = j as usize;
                if h.net_size(j) > MAX_NET_SIZE_FOR_UPDATES {
                    continue;
                }
                for &w in h.net(j) {
                    let w = w as usize;
                    pins_touched += 1;
                    if !locked[w] && !queued[w] && !fixed.is_fixed(w) {
                        if let Some((to, gain)) = state.best_move(w, targets) {
                            heap.push(Cand { gain, v: w, to });
                            queued[w] = true;
                        }
                    }
                }
            }
        }
        for &(v, from) in applied[best_len..].iter().rev() {
            state.apply(v, from);
        }
        (applied, best_len, best_cum, pins_touched)
    }

    /// (c) FM on the crate's addressable heap pops what the `BinaryHeap`
    /// did — a vertex is queued at most once and never re-keyed, so the
    /// pop sequence is a function of the queued set, whatever order the
    /// seeds went in: same moves applied in the same order, same prefix
    /// kept, same partition, same `best_move` evaluations, pass after
    /// pass — while the neighbour walks, stopping once no vertex is idle,
    /// visit fewer pins than the full walks.
    #[test]
    fn fm_on_the_shared_heap_equals_the_binary_heap_reference() {
        let mut rng = StdRng::seed_from_u64(0xF3A9);
        let mut applied_total = 0;
        let (mut touched, mut touched_full) = (0u64, 0u64);
        for case in 0..24 {
            let k = rng.gen_range(2usize..7);
            let n = rng.gen_range(40usize..160);
            let (h, fixed, part) = random_instance(&mut rng, n, k, case % 2 == 1);
            let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.3);
            let view = Replicated::whole(&h, &fixed);
            let mut state = PartitionState::new(view, k, part.clone());
            let mut reference = PartitionState::new(view, k, part);
            let mut scratch = RefineScratch::new();
            let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(case), StdRng::seed_from_u64(case));
            // Several passes on one scratch: the queue a pass leaves behind
            // (it may stop early) must not leak into the next.
            for pass in 0..4 {
                let start = state.part.clone();
                let session = dlb_trace::session();
                let kept = fm_pass(&mut state, &targets, &mut scratch, &mut rng_a);
                let report = session.finish();
                let (applied, best_len, best_cum, full) =
                    fm_pass_binary_heap(&mut reference, &targets, &mut rng_b);
                assert_eq!(
                    state.tally.evaluations, reference.tally.evaluations,
                    "case {case} pass {pass}: gain evaluations"
                );
                let walked = report.counter(dlb_trace::Counter::FmPinsTouched);
                assert!(walked <= full, "case {case} pass {pass}: pins touched");
                (touched, touched_full) = (touched + walked, touched_full + full);
                assert_eq!(
                    scratch.applied, applied,
                    "case {case} pass {pass}: applied sequence"
                );
                assert_eq!(
                    kept.to_bits(),
                    best_cum.to_bits(),
                    "case {case} pass {pass}: gain kept"
                );
                assert_eq!(
                    state.part, reference.part,
                    "case {case} pass {pass}: partition"
                );
                let mut prefix = PartitionState::new(view, k, start);
                for &(v, _) in &applied[..best_len] {
                    let to = state.part[v];
                    prefix.apply(v, to);
                }
                assert_eq!(
                    state.part, prefix.part,
                    "case {case} pass {pass}: kept prefix"
                );
                applied_total += applied.len();
            }
        }
        assert!(
            applied_total > 500,
            "only {applied_total} moves: the rows exercise nothing"
        );
        assert!(
            touched < touched_full,
            "the walks never stopped early: {touched} of {touched_full} pins"
        );
    }

    /// [`Lockstep`], keeping the evacuations it makes.
    pub(crate) struct Recording(pub(crate) Vec<(usize, PartId)>);

    impl<V: LevelView> CommitMove<V> for Recording {
        type Undo = ();
        fn commit(
            &mut self,
            state: &mut PartitionState<V>,
            from: PartId,
            local: Option<(usize, PartId, f64)>,
        ) -> Option<(usize, PartId, ())> {
            self.0.extend(local.map(|(v, q, _)| (v, q)));
            Lockstep.commit(state, from, local)
        }
        fn revert(
            &mut self,
            state: &mut PartitionState<V>,
            v: usize,
            from: PartId,
            to: PartId,
            _: (),
        ) {
            self.0.pop();
            Lockstep.revert(state, v, from, to, ())
        }
    }

    /// One input of `rebalance`: a level and a partition of it with at
    /// least one part above its cap.
    pub(crate) struct RebalanceCase {
        pub(crate) name: String,
        pub(crate) h: Hypergraph,
        pub(crate) fixed: FixedAssignment,
        pub(crate) part: Vec<PartId>,
        pub(crate) targets: PartTargets,
        /// Evacuations the instance must need at least.
        min_moves: usize,
    }

    /// The `rebalance` inputs its oracles run on, here and in
    /// `par::dist::tests`:
    ///
    /// * `crowded` — unit weights and integer costs, nearly everything in
    ///   part 0 of 4, a quarter of the vertices fixed, a second part that
    ///   becomes the most overweight on the way;
    /// * `random-*` — k in 2..6, weights 2^0..2^4, about a quarter of the
    ///   vertices fixed, a partition skewed towards part 0; odd rows have
    ///   costs in 0.5..4.0, so every row a move writes is marked and
    ///   re-summed;
    /// * `fallback` — the overweight part's nets reach only a part that
    ///   is itself full, so no adjacent part fits and the relatively
    ///   lightest part decides every destination at first.
    pub(crate) fn rebalance_cases() -> Vec<RebalanceCase> {
        let mut cases = Vec::new();

        let (n, k) = (90usize, 4usize);
        let h = crate::tests::random_hypergraph(n, 200, 5, 17);
        let mut fixed = FixedAssignment::free(n);
        let part: Vec<PartId> = (0..n).map(|v| usize::from(v % 9 == 0)).collect();
        for v in (0..n).step_by(4) {
            fixed.fix(v, part[v]);
        }
        let targets = uniform_targets(&h, k);
        cases.push(RebalanceCase {
            name: "crowded".into(),
            h,
            fixed,
            part,
            targets,
            min_moves: n / 2,
        });

        let mut rng = StdRng::seed_from_u64(0xEBA1);
        for row in 0..10 {
            let k = rng.gen_range(2usize..7);
            let n = rng.gen_range(60usize..140);
            let (mut h, fixed, mut part) = random_instance(&mut rng, n, k, row % 2 == 1);
            for v in 0..h.num_vertices() {
                h.set_vertex_weight(v, f64::from(1u32 << rng.gen_range(0u32..5)));
                if !fixed.is_fixed(v) && rng.gen_bool(0.6) {
                    part[v] = 0;
                }
            }
            let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.1);
            cases.push(RebalanceCase {
                name: format!("random-{row}"),
                h,
                fixed,
                part,
                targets,
                min_moves: 1,
            });
        }

        // Parts 0 (vertices 0..15) and 1 (15..27) are both above their
        // caps and every net joins the two; part 2 (27..30) has room and
        // no net.
        let mut b = dlb_hypergraph::HypergraphBuilder::new(30);
        for v in 0..15 {
            b.add_net(1.0 + (v % 3) as f64, [v, 15 + v % 12]);
            b.add_net(2.0, [v, (v + 1) % 15, 15 + (v * 5) % 12]);
        }
        let h = b.build();
        let part: Vec<PartId> = (0..30)
            .map(|v| usize::from(v >= 15) + usize::from(v >= 27))
            .collect();
        let targets = uniform_targets(&h, 3);
        let fixed = FixedAssignment::free(30);
        cases.push(RebalanceCase {
            name: "fallback".into(),
            h,
            fixed,
            part,
            targets,
            min_moves: 4,
        });
        cases
    }

    /// What `rebalance` must do on `case`, by the walk its queues
    /// replaced: per evacuation every stored vertex, ascending, the first
    /// of the best gains among the free members of positive weight. The
    /// evacuations as `(vertex, destination)`, the state they leave, and
    /// how many members the walk evaluated.
    fn walk_rebalance(
        case: &RebalanceCase,
    ) -> (Vec<(usize, PartId)>, PartitionState<Replicated<'_>>, u64) {
        let RebalanceCase {
            h, fixed, targets, ..
        } = case;
        let k = targets.k();
        let mut walked = PartitionState::new(Replicated::whole(h, fixed), k, case.part.clone());
        let (mut made, mut evaluated) = (Vec::new(), 0);
        while let Some(p) = most_overweight(&walked.weights, targets) {
            let before = total_violation(&walked.weights, targets);
            let mut best: Option<(usize, PartId, f64)> = None;
            for v in 0..h.num_vertices() {
                let w = h.vertex_weight(v);
                if walked.part[v] != p || fixed.is_fixed(v) || w <= 0.0 {
                    continue;
                }
                evaluated += 1;
                let (q, g) = walked.best_move(v, targets).unwrap_or_else(|| {
                    let rel = |q: PartId| (walked.weights[q] + w) / targets.target[q];
                    let q = (0..k)
                        .filter(|&q| q != p)
                        .min_by(|&a, &b| rel(a).total_cmp(&rel(b)));
                    (q.unwrap(), walked.gain(v, q.unwrap()))
                });
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((v, q, g));
                }
            }
            let Some((v, q, _)) = best else { break };
            walked.apply(v, q);
            if total_violation(&walked.weights, targets) >= before - 1e-12 {
                walked.apply(v, p);
                break;
            }
            made.push((v, q));
        }
        assert!(
            made.len() >= case.min_moves,
            "{}: only {} evacuations",
            case.name,
            made.len()
        );
        (made, walked, evaluated)
    }

    /// (d) `rebalance` popping its per-part queues makes the evacuations
    /// a walk over every stored vertex would, on every row of
    /// [`rebalance_cases`] — and looks at a handful of candidates per
    /// evacuation, which no walk of the part's members could.
    #[test]
    fn rebalance_from_member_lists_matches_the_full_walk() {
        for case in rebalance_cases() {
            let RebalanceCase {
                name,
                h,
                fixed,
                targets,
                ..
            } = &case;
            let (expected, walked, evaluated) = walk_rebalance(&case);
            if name == "fallback" {
                // No net reaches part 2: only the fallback sends anyone there.
                assert_eq!(expected[0].1, 2, "{name}");
            }

            let view = Replicated::whole(h, fixed);
            let mut state = PartitionState::new(view, targets.k(), case.part.clone());
            let mut recording = Recording(Vec::new());
            rebalance(&mut state, targets, &mut recording);
            assert_eq!(recording.0, expected, "{name}");
            assert_eq!(state.part, walked.part, "{name}");
            assert_eq!(state.weights, walked.weights, "{name}");
            assert!(fixed.is_respected_by(&state.part), "{name}");
            assert!(state.row_log.is_none(), "{name}: still listening");
            assert_eq!(state.tally.rebalance_moves, expected.len() as u64, "{name}");
            // Where the bound is near the value, popping evaluates under a
            // third of what walking the members does (measured: a seventh
            // at most on the random rows, a quarter on `crowded`); where
            // the fallback decides, every bound overshoots and nearly the
            // whole part is popped — never more than the walk.
            let popped = state.tally.rebalance_candidates;
            let limit = if name == "fallback" {
                evaluated
            } else {
                evaluated / 3
            };
            assert!(
                popped < limit,
                "{name}: popped {popped}, the walk evaluates {evaluated}"
            );
        }
    }

    /// (e) A part a vertex reaches only through zero-cost nets is no
    /// candidate — for the table (`present` stays 0) and the scan alike.
    #[test]
    fn zero_cost_nets_make_no_candidates() {
        let mut b = dlb_hypergraph::HypergraphBuilder::new(4);
        b.add_net(0.0, [0, 1]);
        b.add_net(3.0, [0, 2]);
        b.add_net(0.0, [3, 1]);
        let h = b.build();
        let fixed = FixedAssignment::free(4);
        let targets = PartTargets::uniform(4.0, 3, 2.0);
        let mut state = PartitionState::new(Replicated::whole(&h, &fixed), 3, vec![0, 1, 2, 0]);
        assert_eq!(state.best_move(0, &targets), Some((2, 3.0)));
        assert_eq!(state.scan_best_move(0, &targets), Some((2, 3.0)));
        // Vertex 3 touches part 1 through a free net only: nowhere to go,
        // and the move there gains what a move to untouched part 2 does.
        assert_eq!(state.best_move(3, &targets), None);
        assert_eq!(state.scan_best_move(3, &targets), None);
        assert_eq!(state.gain(3, 1), state.gain(3, 2));
        let mut rng = StdRng::seed_from_u64(8);
        check_applies_against_fresh_builds(&h, &fixed, 3, vec![0, 1, 2, 0], 30, &mut rng);
    }

    /// (e) Degenerate levels neither panic nor leave a stale entry:
    /// single-pin and empty nets, fewer vertices than parts, every
    /// vertex fixed, zero-weight vertices, a net wholly inside one part,
    /// and a net too large for FM's neighbour re-queue.
    #[test]
    fn degenerate_levels_keep_the_table_exact() {
        let mut rng = StdRng::seed_from_u64(0xDE6);
        let run = |h: &Hypergraph,
                   fixed: &FixedAssignment,
                   k: usize,
                   part: Vec<PartId>,
                   rng: &mut StdRng| {
            check_applies_against_fresh_builds(h, fixed, k, part.clone(), 24, rng);
            let mut refined = part;
            let targets = uniform_targets(h, k);
            refine(
                h,
                &targets,
                fixed,
                &mut refined,
                &RefinementConfig::default(),
                rng,
            );
            assert!(fixed.is_respected_by(&refined) && refined.iter().all(|&p| p < k));
        };

        // Single-pin, empty and one-part nets among ordinary ones; two
        // weightless vertices.
        let mut b = dlb_hypergraph::HypergraphBuilder::new(10);
        b.add_net(2.0, [4]);
        b.add_net(1.5, std::iter::empty());
        b.add_net(3.0, [0, 1, 2]);
        b.add_net(1.0, [2, 3, 5, 7]);
        b.add_net(2.5, [6, 8, 9, 0]);
        b.set_vertex_weight(5, 0.0);
        b.set_vertex_weight(9, 0.0);
        let h = b.build();
        let part = vec![0, 0, 0, 1, 1, 2, 2, 1, 0, 2];
        run(&h, &FixedAssignment::free(10), 3, part.clone(), &mut rng);

        // Every vertex fixed: nothing may move, the build must still hold.
        let opts: Vec<Option<PartId>> = part.iter().map(|&p| Some(p)).collect();
        run(&h, &FixedAssignment::from_options(&opts), 3, part, &mut rng);

        // Fewer vertices than parts.
        let h = crate::tests::grid_hypergraph(2, 2);
        run(&h, &FixedAssignment::free(4), 6, vec![0, 1, 5, 5], &mut rng);

        // One net over the re-queue limit (plus small ones): its 0↔1
        // transitions still reach every pin's row.
        let n = MAX_NET_SIZE_FOR_UPDATES + 50;
        let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
        b.add_net(2.0, 0..n);
        for v in (0..n - 1).step_by(3) {
            b.add_net(1.0, [v, v + 1]);
        }
        let h = b.build();
        // Part 2 holds two pins of the big net, part 1 one: moves in and
        // out of them cross every transition.
        let part: Vec<PartId> = (0..n)
            .map(|v| [2, 2, 1].get(v).copied().unwrap_or(0))
            .collect();
        run(&h, &FixedAssignment::free(n), 3, part, &mut rng);
    }
}
