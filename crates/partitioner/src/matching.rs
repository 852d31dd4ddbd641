//! Inner-product matching (IPM) with fixed-vertex constraints.
//!
//! IPM — PaToH's *heavy-connectivity matching*, later adopted by hMETIS
//! and Mondriaan — scores a candidate pair `(u, v)` by the inner product
//! of their net-incidence vectors: the sum over shared nets of the net's
//! contribution. With `scaled_ipm` the contribution of net `n` is
//! `c_n / (|n| − 1)`, favoring small tightly-coupled nets; unscaled it is
//! plain `c_n`.
//!
//! Greedy first-choice matching visits vertices in random order; each
//! unmatched vertex matches its best-scoring unmatched neighbor that is
//! *compatible* (not fixed to a different part — Section 4.1's
//! constraint). Scores for incompatible pairs are still computed and then
//! discarded at selection time, mirroring the paper's "compute all match
//! scores including infeasible ones, select a feasible best" strategy
//! (which it reports adds only insignificant overhead).
//!
//! # One Strict matcher
//!
//! [`Determinism::Strict`] matching is this greedy loop at every thread
//! count. Each selection depends on every earlier one, and a visit scores
//! only still-unmatched partners; scoring every vertex's full candidate
//! list on other threads first does the work this walk skips (over 3×
//! slower at 2 threads than the walk at 1, EXPERIMENTS.md "One executor,
//! one Strict matcher"). Fast mode with real concurrency runs the CAS
//! matcher instead (`ipm_matching_mode`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dlb_hypergraph::{parallel, Hypergraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::{CoarseningConfig, Determinism};
use crate::fixed::FixedAssignment;
use crate::view::{LevelView, Replicated};

/// Nets with more pins than this are skipped when computing match
/// scores: huge nets make IPM quadratic and carry little similarity
/// signal (standard practice in PaToH/hMETIS/Zoltan).
const MAX_NET_SIZE_FOR_MATCHING: usize = 300;

/// A matching: `mate[v] == v` for unmatched vertices, otherwise the
/// partner (symmetric: `mate[mate[v]] == v`). A distributed level's
/// matching holds, on each rank, the mates of the block it stores, with
/// the pair count of the whole level.
#[derive(Clone, Debug)]
pub struct Matching {
    /// Partner per vertex (self for unmatched).
    pub mate: Vec<usize>,
    /// Number of matched pairs.
    pub num_pairs: usize,
}

impl Matching {
    /// Validates symmetry and fixed-compatibility.
    pub(crate) fn validate(&self, fixed: &FixedAssignment) -> Result<(), String> {
        if self.mate.len() != fixed.len() {
            return Err("matching length mismatch".into());
        }
        let mut pairs = 0;
        for (v, &m) in self.mate.iter().enumerate() {
            if m >= self.mate.len() {
                return Err(format!("vertex {v} matched out of range"));
            }
            if self.mate[m] != v {
                return Err(format!("matching not symmetric at {v}"));
            }
            if m != v {
                pairs += 1;
                if !fixed.compatible(v, m) {
                    return Err(format!("vertices {v} and {m} fixed to different parts"));
                }
            }
        }
        if pairs != 2 * self.num_pairs {
            return Err("pair count mismatch".into());
        }
        Ok(())
    }
}

/// What net `j` of `view` adds to the score of each pair of its pins, or
/// `None` for a net scoring skips: one outside
/// `2..=MAX_NET_SIZE_FOR_MATCHING` pins or one whose contribution is not
/// positive. The one definition of both, for every [`PinSource`].
#[inline]
fn contribution<V: LevelView>(view: &V, j: usize, cfg: &CoarseningConfig) -> Option<f64> {
    let size = view.net_size(j);
    if !(2..=MAX_NET_SIZE_FOR_MATCHING).contains(&size) {
        return None;
    }
    let contrib = if cfg.scaled_ipm {
        view.net_cost(j) / (size - 1) as f64
    } else {
        view.net_cost(j)
    };
    (contrib > 0.0).then_some(contrib)
}

/// Where [`accumulate_scores`] reads a net from.
pub(crate) trait PinSource {
    /// The net's [`contribution`].
    fn contribution(&self, j: usize) -> Option<f64>;
    /// Calls `visit` on every pin of net `j` that `admit` lets through,
    /// in stored order, and returns the pins walked.
    fn walk(&mut self, j: usize, admit: impl FnMut(usize) -> bool, visit: impl FnMut(usize))
        -> u64;
}

/// A view's own pin lists, walked whole: for the SPMD rounds, whose
/// admit test is per round (a pin refused in one round may be admitted
/// in the next), and for the CAS matcher, whose admit test races.
#[derive(Clone, Copy)]
pub(crate) struct StoredPins<'a, V> {
    pub(crate) view: &'a V,
    pub(crate) cfg: &'a CoarseningConfig,
}

impl<V: LevelView> PinSource for StoredPins<'_, V> {
    #[inline]
    fn contribution(&self, j: usize) -> Option<f64> {
        contribution(self.view, j, self.cfg)
    }

    #[inline]
    fn walk(
        &mut self,
        j: usize,
        mut admit: impl FnMut(usize) -> bool,
        mut visit: impl FnMut(usize),
    ) -> u64 {
        let pins = self.view.pins(j);
        for &w in pins {
            let w = w as usize;
            if admit(w) {
                visit(w);
            }
        }
        pins.len() as u64
    }
}

/// The serial matcher's live pins: a per-call copy of the 32-bit pin
/// lists of the nets [`contribution`] scores, each holding first the
/// pins still unmatched when it was last walked, in stored order.
///
/// A matched vertex stays matched, so a walk drops every pin `admit`
/// refuses by a stable in-place compaction: the pins it keeps are the
/// ones the full list would have admitted, in the same order, so every
/// score sums the same terms in the same order and the first-touch order
/// is unchanged. The walk costs the net's live pins, not its stored ones,
/// and a net's contribution is read from the same record as its pins.
struct LivePins {
    nets: Vec<LiveNet>,
    pins: Vec<u32>,
}

/// One net of [`LivePins`].
#[derive(Clone, Copy)]
struct LiveNet {
    /// The net's contribution, 0 for a net scoring skips (whose copy is
    /// empty).
    contrib: f64,
    /// Where the net's copy starts in `pins`.
    from: u32,
    /// How many of the copied pins are live.
    len: u32,
}

impl LivePins {
    fn new(view: &Replicated<'_>, cfg: &CoarseningConfig) -> Self {
        let h = view.h;
        let (xpins, all) = h.pin_csr();
        let offset = |at: usize| u32::try_from(at).expect("live pins hold under 2^32 pins");
        // Sized first, then filled: one allocation of the exact size.
        let mut copied = 0;
        let nets: Vec<LiveNet> = (0..h.num_nets())
            .map(|j| {
                let from = offset(copied);
                let contrib = contribution(view, j, cfg).unwrap_or(0.0);
                if contrib > 0.0 {
                    copied += xpins[j + 1] - xpins[j];
                }
                LiveNet {
                    contrib,
                    from,
                    len: offset(copied) - from,
                }
            })
            .collect();
        let mut pins = Vec::with_capacity(copied);
        for (j, net) in nets.iter().enumerate() {
            if net.len > 0 {
                pins.extend_from_slice(&all[xpins[j]..xpins[j + 1]]);
            }
        }
        LivePins { nets, pins }
    }
}

impl PinSource for &mut LivePins {
    #[inline]
    fn contribution(&self, j: usize) -> Option<f64> {
        let contrib = self.nets[j].contrib;
        (contrib > 0.0).then_some(contrib)
    }

    #[inline]
    fn walk(
        &mut self,
        j: usize,
        mut admit: impl FnMut(usize) -> bool,
        mut visit: impl FnMut(usize),
    ) -> u64 {
        let LiveNet { from, len, .. } = self.nets[j];
        let live = &mut self.pins[from as usize..][..len as usize];
        let mut kept = 0;
        for at in 0..live.len() {
            let w = live[at];
            if admit(w as usize) {
                // Only what moves is written: until a pin is dropped,
                // the walk leaves the copy as it was.
                if kept != at {
                    live[kept] = w;
                }
                kept += 1;
                visit(w as usize);
            }
        }
        if kept != live.len() {
            self.nets[j].len = kept as u32;
        }
        u64::from(len)
    }
}

/// The IPM scoring kernel, the one copy every matcher runs: accumulates
/// `u`'s inner products over `nets` against the pins of `pins` that
/// `admit` lets through, into `scores` (indexed by [`LevelView::slot`],
/// all-zero on entry and wherever `touched` does not list). `touched`
/// receives the scored vertices in first-touch order; the caller reads
/// their scores and resets them to zero. Returns the pins walked.
///
/// `pins` is the serial matcher's [`LivePins`], which walk only the pins
/// still unmatched, or the view's own lists ([`StoredPins`]: SPMD
/// rounds, the CAS matcher). Either way the admitted pins are met in
/// stored order, so the float accumulation and the first-touch order are
/// the same. Net order and pin order are the storage's, and a
/// distributed level stores a rank's own pins in net order, so
/// restricted to the vertices a rank stores they are also the same on
/// both storage forms.
#[inline]
pub(crate) fn accumulate_scores<V: LevelView>(
    view: &V,
    mut pins: impl PinSource,
    u: usize,
    nets: &[u32],
    mut admit: impl FnMut(usize) -> bool,
    scores: &mut [f64],
    touched: &mut Vec<usize>,
) -> u64 {
    touched.clear();
    let mut pins_walked = 0u64;
    for &j in nets {
        let j = j as usize;
        let Some(contrib) = pins.contribution(j) else {
            continue;
        };
        pins_walked += pins.walk(j, &mut admit, |w| {
            if w == u {
                return;
            }
            let s = view.slot(w);
            if scores[s] == 0.0 {
                touched.push(w);
            }
            scores[s] += contrib;
        });
    }
    pins_walked
}

/// Computes a greedy first-choice IPM matching of `h` honoring `fixed`.
///
/// `rng` drives the visit order; equal seeds give identical matchings.
pub fn ipm_matching(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Matching {
    ipm_matching_mode(h, fixed, None, cfg, rng, 1, Determinism::Strict)
}

/// [`ipm_matching`] with an optional part restriction, a worker-thread
/// count and a [`Determinism`] mode. When `parts` is `Some`, two vertices
/// may only match if they currently share a part. Used by V-cycle
/// iterations (re-coarsening must keep the current partition
/// representable, exactly like adaptive graph coarsening).
///
/// `Strict` (or any run at one effective thread) is the serial greedy
/// matcher, whatever `threads` is: bit-identical matchings at every
/// thread count. `Fast` with more than one thread of *real* concurrency
/// runs CAS-based concurrent matching (`ipm_matching_cas`) instead:
/// vertices pair concurrently on a shared atomic mate array with
/// candidates selected in `(score desc, id asc)` order — a deterministic
/// *preference* order, though the realized matching still depends on
/// thread interleaving. The Fast path does not consume `rng` (there is
/// no visit-order shuffle), which is fine because Fast makes no
/// reproducibility promise beyond its quality bounds.
///
/// Dispatch keys on [`parallel::effective_concurrency`], not the raw
/// request: an 8-thread request on a 1-core host executes serially, and
/// serial CAS matching is strictly worse than the Strict matcher (same
/// work, plus atomics, minus the bitwise guarantee). So Fast on an
/// oversubscribed host degrades gracefully to the Strict path — still
/// within Fast's quality contract, since Strict *is* the quality
/// reference.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ipm_matching_mode(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    parts: Option<&[usize]>,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
    threads: usize,
    determinism: Determinism,
) -> Matching {
    if determinism == Determinism::Fast && parallel::effective_concurrency(threads) > 1 {
        return ipm_matching_cas(h, fixed, parts, cfg, threads);
    }
    let n = h.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    let mut mate: Vec<usize> = (0..n).collect();
    // `mate[v] != v` as one byte per vertex: the test every live pin
    // meets, on an array an eighth the size of `mate`.
    let mut matched = vec![false; n];
    let mut num_pairs = 0;

    // Deterministic trace tallies (emitted once at the end): live pins
    // walked while scoring visited-unmatched vertices, and candidates
    // refused for fixed-part incompatibility.
    let mut pins_scanned = 0u64;
    let mut refused_fixed = 0u64;

    // Sparse score accumulator: scores[w] for candidate partners w of the
    // current vertex, reset via the touched list.
    let mut scores = vec![0.0; n];
    let mut touched = Vec::new();

    let view = Replicated::whole(h, fixed);
    // Freed on return: one copy per call, sized to this level.
    let mut live = LivePins::new(&view, cfg);
    for &u in &order {
        if matched[u] {
            continue;
        }
        pins_scanned += accumulate_scores(
            &view,
            &mut live,
            u,
            h.vertex_nets(u),
            |w| !matched[w],
            &mut scores,
            &mut touched,
        );
        // Select the best *compatible* candidate (infeasible scores were
        // computed but are skipped here, as in the paper).
        let mut best: Option<usize> = None;
        let mut best_score = 0.0;
        for &w in touched.iter() {
            let s = scores[w];
            scores[w] = 0.0;
            if !fixed.compatible(u, w) {
                refused_fixed += 1;
                continue;
            }
            if s > best_score && parts.is_none_or(|p| p[u] == p[w]) {
                best_score = s;
                best = Some(w);
            }
        }
        if let Some(w) = best {
            mate[u] = w;
            mate[w] = u;
            (matched[u], matched[w]) = (true, true);
            num_pairs += 1;
        }
    }

    dlb_trace::count(dlb_trace::Counter::CoarsenPinsScanned, pins_scanned);
    dlb_trace::count(
        dlb_trace::Counter::CoarsenMatchesRefusedFixed,
        refused_fixed,
    );
    dlb_trace::count(dlb_trace::Counter::CoarsenMatchesAccepted, num_pairs as u64);
    Matching { mate, num_pairs }
}

/// Chunk size for the CAS matcher's concurrent sweep, its only user:
/// scoring a vertex walks all of its nets' pins, so chunks are much
/// smaller than the generic [`parallel::DEFAULT_CHUNK`] to keep worker
/// load even.
const SCORE_CHUNK: usize = 256;

/// Mate-array sentinel: vertex is unmatched and unclaimed.
const FREE: usize = usize::MAX;
/// Mate-array sentinel: vertex is transiently locked by a pairing CAS.
const HELD: usize = usize::MAX - 1;
/// Bounded spin count before a transiently-[`HELD`] vertex is treated as
/// taken. The hold window is a few instructions, so this is generous.
const HELD_SPINS: usize = 64;

/// Outcome of one [`try_lock_pair`] attempt.
enum PairAttempt {
    /// `u` and `w` are now matched to each other.
    Matched,
    /// `u` itself was matched by another thread; stop trying.
    SelfTaken,
    /// `w` is matched (or persistently busy); try the next candidate.
    PartnerTaken,
}

/// Marks candidate `w` as consumed in the argmax scan by sinking its
/// score to `NEG_INFINITY` (real candidate scores are strictly positive).
fn mark_consumed(cands: &mut [(usize, f64)], w: usize) {
    for c in cands.iter_mut() {
        if c.0 == w {
            c.1 = f64::NEG_INFINITY;
            return;
        }
    }
}

/// Atomically pairs `u` with `w` on the mate array: locks the
/// lower-numbered endpoint first (a global acquisition order, so no two
/// pairing attempts can deadlock), then the higher, then publishes the
/// pair. Either lock failing releases everything acquired.
fn try_lock_pair(slots: &[AtomicUsize], u: usize, w: usize) -> PairAttempt {
    let (a, b) = if u < w { (u, w) } else { (w, u) };
    let taken = |x: usize| {
        if x == u {
            PairAttempt::SelfTaken
        } else {
            PairAttempt::PartnerTaken
        }
    };

    let mut spins = 0;
    loop {
        match slots[a].compare_exchange(FREE, HELD, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break,
            Err(HELD) if spins < HELD_SPINS => {
                spins += 1;
                std::hint::spin_loop();
            }
            Err(_) => return taken(a),
        }
    }
    let mut spins = 0;
    loop {
        match slots[b].compare_exchange(FREE, HELD, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break,
            Err(HELD) if spins < HELD_SPINS => {
                spins += 1;
                std::hint::spin_loop();
            }
            Err(_) => {
                slots[a].store(FREE, Ordering::Release);
                return taken(b);
            }
        }
    }
    slots[a].store(b, Ordering::Release);
    slots[b].store(a, Ordering::Release);
    PairAttempt::Matched
}

/// CAS-based concurrent greedy matching — the Fast-mode matcher.
///
/// Workers sweep vertex chunks concurrently. Each still-free vertex
/// scores its IPM candidates exactly as the serial matcher does, orders
/// them by `(score desc, id asc)` — deterministic tie-breaking by vertex
/// id — and then walks the list trying to [`try_lock_pair`] with each
/// candidate until one sticks or the vertex itself gets matched from the
/// other side. There is no selection barrier, so the realized matching
/// depends on interleaving; symmetry and fixed-compatibility are
/// guaranteed by construction ([`Matching::validate`] holds for every
/// schedule), and matching quality — not bitwise output — is the
/// contract ([`Determinism::Fast`]).
fn ipm_matching_cas(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    parts: Option<&[usize]>,
    cfg: &CoarseningConfig,
    threads: usize,
) -> Matching {
    let n = h.num_vertices();
    let slots: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(FREE)).collect();
    let view = Replicated::whole(h, fixed);
    let pins_scanned = AtomicU64::new(0);
    let refused_fixed = AtomicU64::new(0);

    parallel::map_chunks_with(
        threads,
        n,
        SCORE_CHUNK,
        || (vec![0.0; n], Vec::new(), Vec::new()),
        |(scores, touched, cands), _, range| {
            let mut local_pins = 0u64;
            let mut local_refused = 0u64;
            // Visit high ids first: generators and matrix orderings tend
            // to place hubs at low ids, and whichever endpoint of a pair
            // is visited first pays the scoring scan. Letting the cheap
            // leaf side claim the pair means the hub is already taken by
            // the time it comes up and is skipped outright.
            for u in range.rev() {
                // Skip vertices already matched (HELD counts as taken —
                // the hold is transient, but re-checking later costs more
                // than the rare missed match is worth).
                if slots[u].load(Ordering::Acquire) != FREE {
                    continue;
                }
                // Neighbors already claimed are skipped — the same
                // pruning the serial matcher gets from `mate[w]`. The
                // relaxed load is advisory (a racing worker may claim
                // `w` right after); staleness only costs a failed lock
                // attempt below.
                local_pins += accumulate_scores(
                    &view,
                    StoredPins { view: &view, cfg },
                    u,
                    h.vertex_nets(u),
                    |w| slots[w].load(Ordering::Relaxed) >= HELD,
                    scores,
                    touched,
                );
                cands.clear();
                for &w in touched.iter() {
                    let s = scores[w];
                    scores[w] = 0.0;
                    if !fixed.compatible(u, w) {
                        local_refused += 1;
                        continue;
                    }
                    if s > 0.0 && parts.is_none_or(|p| p[u] == p[w]) {
                        cands.push((w, s));
                    }
                }
                // Deterministic preference order: best score first, ties
                // broken by the smaller vertex id. Almost every vertex
                // locks its first choice, so a repeated argmax scan beats
                // sorting the whole candidate list up front.
                loop {
                    let mut best: Option<(usize, f64)> = None;
                    for &(w, s) in cands.iter() {
                        if s.is_infinite() {
                            continue; // consumed in an earlier round
                        }
                        match best {
                            Some((bw, bs)) if s < bs || (s == bs && w > bw) => {}
                            _ => best = Some((w, s)),
                        }
                    }
                    let Some((w, _)) = best else { break };
                    if slots[w].load(Ordering::Acquire) < HELD {
                        // Already matched; consume without the CAS.
                        mark_consumed(cands, w);
                        continue;
                    }
                    match try_lock_pair(&slots, u, w) {
                        PairAttempt::Matched | PairAttempt::SelfTaken => break,
                        PairAttempt::PartnerTaken => mark_consumed(cands, w),
                    }
                }
            }
            pins_scanned.fetch_add(local_pins, Ordering::Relaxed);
            refused_fixed.fetch_add(local_refused, Ordering::Relaxed);
        },
    );

    // Quiesced: every slot is FREE or a real partner (all holds are
    // released before a worker abandons an attempt).
    let mate: Vec<usize> = slots
        .iter()
        .enumerate()
        .map(|(v, s)| {
            let m = s.load(Ordering::Acquire);
            if m >= n {
                debug_assert_eq!(m, FREE);
                v
            } else {
                m
            }
        })
        .collect();
    let num_pairs = mate.iter().enumerate().filter(|&(v, &m)| v < m).count();

    dlb_trace::count(
        dlb_trace::Counter::CoarsenPinsScanned,
        pins_scanned.into_inner(),
    );
    dlb_trace::count(
        dlb_trace::Counter::CoarsenMatchesRefusedFixed,
        refused_fixed.into_inner(),
    );
    dlb_trace::count(dlb_trace::Counter::CoarsenMatchesAccepted, num_pairs as u64);
    let matching = Matching { mate, num_pairs };
    debug_assert!(matching.validate(fixed).is_ok());
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> CoarseningConfig {
        CoarseningConfig::default()
    }

    #[test]
    fn matches_tightly_coupled_pairs() {
        // Vertices 0,1 share two nets; 2,3 share two nets; one weak net
        // crosses. IPM should pair (0,1) and (2,3).
        let h = Hypergraph::from_nets_unit(
            4,
            &[vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3], vec![1, 2]],
        );
        let fixed = FixedAssignment::free(4);
        let mut rng = StdRng::seed_from_u64(0);
        let m = ipm_matching(&h, &fixed, &cfg(), &mut rng);
        m.validate(&fixed).unwrap();
        assert_eq!(m.num_pairs, 2);
        assert_eq!(m.mate[0], 1);
        assert_eq!(m.mate[2], 3);
    }

    #[test]
    fn incompatible_fixed_pairs_never_match() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1], vec![0, 1]]);
        let mut fixed = FixedAssignment::free(2);
        fixed.fix(0, 0);
        fixed.fix(1, 1);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = ipm_matching(&h, &fixed, &cfg(), &mut rng);
            m.validate(&fixed).unwrap();
            assert_eq!(m.num_pairs, 0, "fixed-to-different-parts pair matched");
        }
    }

    #[test]
    fn same_part_fixed_pairs_do_match() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        let mut fixed = FixedAssignment::free(2);
        fixed.fix(0, 3);
        fixed.fix(1, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let m = ipm_matching(&h, &fixed, &cfg(), &mut rng);
        assert_eq!(m.num_pairs, 1);
    }

    #[test]
    fn huge_nets_are_ignored_for_scores() {
        // Only a net one pin over the limit connects anything: no
        // matches possible.
        let n = MAX_NET_SIZE_FOR_MATCHING + 1;
        let h = Hypergraph::from_nets_unit(n, &[(0..n).collect()]);
        let fixed = FixedAssignment::free(n);
        let mut rng = StdRng::seed_from_u64(2);
        let m = ipm_matching(&h, &fixed, &cfg(), &mut rng);
        assert_eq!(m.num_pairs, 0);
    }

    #[test]
    fn scaled_ipm_prefers_small_nets() {
        let mut c = cfg();
        c.scaled_ipm = true;
        // 0-1 share a 2-pin net (contrib 1.0); 0-2 share a 3-pin net
        // (contrib 0.5); 2-3 share both a 2-pin and the 3-pin net
        // (contrib 1.5), so every visit order pairs (0,1) and (2,3)
        // under scaled IPM.
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![0, 2, 3], vec![2, 3]]);
        let fixed = FixedAssignment::free(4);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = ipm_matching(&h, &fixed, &c, &mut rng);
            assert_eq!(
                m.mate[0], 1,
                "seed {seed}: scaled IPM should pick the 2-pin net"
            );
            assert_eq!(m.mate[2], 3, "seed {seed}");
        }
    }

    #[test]
    fn isolated_vertices_stay_unmatched() {
        let h = Hypergraph::from_nets_unit(3, &[vec![0, 1]]);
        let fixed = FixedAssignment::free(3);
        let mut rng = StdRng::seed_from_u64(3);
        let m = ipm_matching(&h, &fixed, &cfg(), &mut rng);
        assert_eq!(m.mate[2], 2);
        assert!(m.mate.len() - m.num_pairs >= 2);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let h =
            Hypergraph::from_nets_unit(6, &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![1, 4]]);
        let fixed = FixedAssignment::free(6);
        let a = ipm_matching(&h, &fixed, &cfg(), &mut StdRng::seed_from_u64(7));
        let b = ipm_matching(&h, &fixed, &cfg(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a.mate, b.mate);
    }

    /// Fast-mode CAS matching: always a *valid* matching (symmetric,
    /// fixed-compatible, part-restricted) under every schedule, and a
    /// non-trivial one on a matchable instance. Calls the CAS matcher
    /// directly so the path is exercised even on hosts where
    /// `effective_concurrency` would route the mode dispatch to Strict.
    #[test]
    fn cas_matching_is_valid_and_productive() {
        use rand::Rng;
        let h = crate::tests::random_hypergraph(400, 800, 6, 31);
        let mut setup_rng = StdRng::seed_from_u64(5);
        let mut fixed = FixedAssignment::free(400);
        for v in 0..400 {
            if setup_rng.gen_bool(0.2) {
                fixed.fix(v, setup_rng.gen_range(0..4));
            }
        }
        let parts: Vec<usize> = (0..400).map(|v| v % 4).collect();
        for round in 0..10u64 {
            for restriction in [None, Some(parts.as_slice())] {
                let m = ipm_matching_cas(&h, &fixed, restriction, &cfg(), 4);
                m.validate(&fixed).unwrap();
                if let Some(p) = restriction {
                    for (v, &mv) in m.mate.iter().enumerate() {
                        assert_eq!(p[v], p[mv], "cross-part match under restriction");
                    }
                }
                assert!(
                    m.num_pairs > 50,
                    "round {round}: only {} pairs",
                    m.num_pairs
                );
            }
        }
    }

    /// The serial matcher as it was before [`LivePins`]: every visit
    /// walks the view's whole pin lists. The reference of
    /// `live_pins_match_the_full_walk` (the role `contract_reference` has
    /// for contraction). Returns the matching, the pins walked and the
    /// candidates refused for fixed-part incompatibility.
    fn ipm_matching_reference(
        h: &Hypergraph,
        fixed: &FixedAssignment,
        parts: Option<&[usize]>,
        cfg: &CoarseningConfig,
        rng: &mut StdRng,
    ) -> (Matching, u64, u64) {
        let n = h.num_vertices();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut mate: Vec<usize> = (0..n).collect();
        let (mut num_pairs, mut pins_scanned, mut refused_fixed) = (0, 0u64, 0u64);
        let mut scores = vec![0.0f64; n];
        let mut touched = Vec::new();
        let view = Replicated::whole(h, fixed);
        for &u in &order {
            if mate[u] != u {
                continue;
            }
            pins_scanned += accumulate_scores(
                &view,
                StoredPins { view: &view, cfg },
                u,
                h.vertex_nets(u),
                |w| mate[w] == w,
                &mut scores,
                &mut touched,
            );
            let mut best: Option<usize> = None;
            let mut best_score = 0.0;
            for &w in touched.iter() {
                let s = scores[w];
                scores[w] = 0.0;
                if !fixed.compatible(u, w) {
                    refused_fixed += 1;
                    continue;
                }
                if s > best_score && parts.is_none_or(|p| p[u] == p[w]) {
                    best_score = s;
                    best = Some(w);
                }
            }
            if let Some(w) = best {
                mate[u] = w;
                mate[w] = u;
                num_pairs += 1;
            }
        }
        (Matching { mate, num_pairs }, pins_scanned, refused_fixed)
    }

    /// A random level for the matcher: nets of 0, 1, 2–7 and 301–340
    /// pins, a few of zero cost, the rest integer or (`fractional`)
    /// `0.1..3.0`; about a fifth of the vertices fixed to one of 4 parts,
    /// and a 4-part restriction.
    fn random_level(
        rng: &mut StdRng,
        fractional: bool,
    ) -> (Hypergraph, FixedAssignment, Vec<usize>) {
        use rand::Rng;
        let n = rng.gen_range(350usize..600);
        let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
        for _ in 0..rng.gen_range(n..3 * n) {
            let size = match rng.gen_range(0..40) {
                0 => 0,
                1..=3 => 1,
                4 => rng.gen_range(MAX_NET_SIZE_FOR_MATCHING + 1..=340),
                _ => rng.gen_range(2usize..8),
            };
            let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            let cost = match rng.gen_range(0..10) {
                0 => 0.0,
                _ if fractional => rng.gen_range(0.1f64..3.0),
                _ => rng.gen_range(1..4) as f64,
            };
            b.add_net(cost, pins);
        }
        let fixed: Vec<Option<usize>> = (0..n)
            .map(|_| rng.gen_bool(0.2).then(|| rng.gen_range(0..4)))
            .collect();
        let parts = (0..n).map(|_| rng.gen_range(0..4)).collect();
        (b.build(), FixedAssignment::from_options(&fixed), parts)
    }

    /// Live-pin scoring picks the mates the full walk picks — same
    /// matching, same RNG draws, same fixed-part refusals — with and
    /// without a part restriction, scaled and unscaled, on integer and
    /// fractional costs, and walks fewer pins doing it.
    #[test]
    fn live_pins_match_the_full_walk() {
        let mut rng = StdRng::seed_from_u64(0x11FE);
        let (mut live_total, mut full_total) = (0u64, 0u64);
        for case in 0..16u64 {
            let (h, fixed, parts) = random_level(&mut rng, case % 2 == 1);
            let mut c = cfg();
            c.scaled_ipm = case % 4 < 2;
            for restriction in [None, Some(parts.as_slice())] {
                let (want, full, refused) = ipm_matching_reference(
                    &h,
                    &fixed,
                    restriction,
                    &c,
                    &mut StdRng::seed_from_u64(case),
                );
                let session = dlb_trace::session();
                let got = ipm_matching_mode(
                    &h,
                    &fixed,
                    restriction,
                    &c,
                    &mut StdRng::seed_from_u64(case),
                    1,
                    Determinism::Strict,
                );
                let report = session.finish();
                let what = format!("case {case}, restricted {}", restriction.is_some());
                assert_eq!(got.mate, want.mate, "{what}");
                assert_eq!(got.num_pairs, want.num_pairs, "{what}");
                assert!(got.num_pairs > 0, "{what}: nothing matched");
                use dlb_trace::Counter;
                assert_eq!(
                    report.counter(Counter::CoarsenMatchesRefusedFixed),
                    refused,
                    "{what}"
                );
                let live = report.counter(Counter::CoarsenPinsScanned);
                assert!(
                    live <= full,
                    "{what}: {live} live pins walked, {full} in all"
                );
                (live_total, full_total) = (live_total + live, full_total + full);
            }
        }
        assert!(
            3 * live_total < 2 * full_total,
            "{live_total} live pins walked of {full_total}"
        );
    }

    /// Fast at one effective thread dispatches to the exact Strict
    /// matcher, including RNG consumption.
    #[test]
    fn fast_mode_single_thread_equals_strict() {
        let h = crate::tests::random_hypergraph(200, 400, 5, 13);
        let fixed = FixedAssignment::free(200);
        let strict = ipm_matching_mode(
            &h,
            &fixed,
            None,
            &cfg(),
            &mut StdRng::seed_from_u64(3),
            1,
            Determinism::Strict,
        );
        let fast = ipm_matching_mode(
            &h,
            &fixed,
            None,
            &cfg(),
            &mut StdRng::seed_from_u64(3),
            1,
            Determinism::Fast,
        );
        assert_eq!(fast.mate, strict.mate);
    }
}
