//! Round-based parallel inner-product matching (Section 4.1, parallel).
//!
//! Mirrors the candidate protocol of Zoltan's parallel IPM: in each round
//! every rank nominates a subset of its owned unmatched vertices as
//! *candidates*, candidates travel to all ranks (all-gather), every rank
//! computes its best owned partner for every candidate (computing scores
//! for fixed-incompatible pairs too, discarding them only at selection —
//! the paper notes this adds insignificant overhead), and a global
//! all-reduce picks each candidate's best partner. All ranks then apply
//! the winning matches identically, so the coarse hypergraph is built
//! consistently everywhere without further communication.
//!
//! The ranks are the parallelism, as in Zoltan: within a rank the
//! candidates are scored one after another, each skipping the partners
//! earlier candidates of the round have taken.

use std::borrow::Cow;
use std::collections::HashSet;

use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::Comm;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::CoarseningConfig;
use crate::fixed::{compatible_parts, FixedAssignment};
use crate::matching::{accumulate_scores, Matching};
use crate::view::{LevelView, Replicated};

/// Fraction of a rank's unmatched owned vertices nominated per round.
const CANDIDATE_FRACTION: f64 = 0.5;
/// Maximum candidate rounds per coarsening level.
const MAX_ROUNDS: usize = 4;

/// A rank's proposal for one candidate: (score, proposing rank, partner).
type Proposal = (f64, usize, usize);

const NO_PROPOSAL: Proposal = (0.0, usize::MAX, usize::MAX);

/// Lexicographic max on (score, -rank), so ties resolve to the lowest
/// rank deterministically.
fn better_of(a: &Proposal, b: &Proposal) -> Proposal {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Greater => *a,
        std::cmp::Ordering::Less => *b,
        std::cmp::Ordering::Equal => {
            if a.1 <= b.1 {
                *a
            } else {
                *b
            }
        }
    }
}

/// A matching candidate as a rank scores it: the vertex, the part it is
/// fixed to, and those of its nets this rank stores (ascending). How it
/// got there is the level's wire format: a replicated level ships the
/// bare id — every rank can look the vertex up — while a distributed
/// level ships what only the owner holds.
pub(crate) type Candidate<'v> = (usize, Option<PartId>, Cow<'v, [usize]>);

/// Draws this round's candidate subset from a rank's unmatched owned
/// vertices: shuffle with the rank-decorrelated stream, keep the ceil
/// fraction, and sort ascending so the all-gathered candidate order is
/// deterministic.
fn draw_candidates(mut unmatched: Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
    unmatched.shuffle(rng);
    let ncand =
        ((unmatched.len() as f64 * CANDIDATE_FRACTION).ceil() as usize).min(unmatched.len());
    let mut cands = unmatched[..ncand].to_vec();
    cands.sort_unstable();
    cands
}

/// Reads out (and zeroes) the scores [`accumulate_scores`] left, in
/// first-touch order. Must be consumed to the end.
fn drain_scores<'a, V: LevelView>(
    view: &'a V,
    scores: &'a mut [f64],
    touched: &'a [usize],
) -> impl Iterator<Item = (usize, f64)> + 'a {
    touched.iter().map(move |&w| (w, std::mem::take(&mut scores[view.slot(w)])))
}

/// The best-scoring of `partners` (first wins on ties) that is not
/// `skip`ped and may merge with a vertex fixed to `u_fixed`. The
/// feasibility check happens here, after scoring (Section 4.1).
fn select_partner<V: LevelView>(
    view: &V,
    u_fixed: Option<PartId>,
    partners: impl Iterator<Item = (usize, f64)>,
    skip: impl Fn(usize) -> bool,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (w, s) in partners {
        if !skip(w) && compatible_parts(u_fixed, view.fixed(w)) && best.is_none_or(|(_, bs)| s > bs) {
            best = Some((w, s));
        }
    }
    best
}

/// This rank's proposal for candidate `c` among its scored `partners`: the
/// best one not yet `taken` this round, which it then takes. Of two
/// candidates that prefer each other only the lower id proposes.
fn propose<V: LevelView>(
    view: &V,
    rank: usize,
    ids: &[usize],
    c: &Candidate<'_>,
    partners: impl Iterator<Item = (usize, f64)>,
    taken: &mut [bool],
) -> Proposal {
    match select_partner(view, c.1, partners, |w| taken[view.slot(w)]) {
        Some((w, s)) if !ids.contains(&w) || w > c.0 => {
            taken[view.slot(w)] = true;
            (s, rank, w)
        }
        _ => NO_PROPOSAL,
    }
}

/// The candidate rounds of one matching level, on either storage form.
/// Collective. `exchange` sends this rank's nominated vertices to every
/// rank and returns all ranks' candidates in rank order. Returns the
/// mates of the stored vertices (indexed by [`LevelView::slot`], self for
/// unmatched) with the global pair count; every rank agrees on the mate of
/// every vertex it stores.
pub(crate) fn candidate_matching<'v, V: LevelView>(
    comm: &mut Comm,
    view: &'v V,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
    mut exchange: impl FnMut(&mut Comm, Vec<usize>) -> Vec<Candidate<'v>>,
) -> Matching {
    let rank = comm.rank();
    let owned = view.owned();
    let stored = view.stored();
    // Per-rank decorrelated RNG derived from the shared stream so all
    // ranks advance their shared `rng` identically.
    let shared_draw: u64 = rng.gen();
    let mut my_rng = StdRng::seed_from_u64(
        shared_draw ^ (rank as u64).wrapping_mul(0xA5A5_5A5A_DEAD_BEEF),
    );

    let mut mate: Vec<usize> = stored.clone().collect();
    let mut num_pairs = 0usize;
    let mut scores = vec![0.0f64; stored.len()];
    let mut touched: Vec<usize> = Vec::new();

    for _round in 0..MAX_ROUNDS {
        // Nominate candidates among owned unmatched vertices; they
        // travel to every rank.
        let my_unmatched: Vec<usize> =
            owned.clone().filter(|&v| mate[view.slot(v)] == v).collect();
        let cands = exchange(comm, draw_candidates(my_unmatched, &mut my_rng));
        if cands.is_empty() {
            break;
        }
        let ids: Vec<usize> = cands.iter().map(|c| c.0).collect();

        // Every rank proposes its best owned partner per candidate. A
        // candidate cannot partner itself; candidates owned by this rank
        // may still be proposed as partners of others.
        // `taken` keeps one owned vertex from being proposed to two
        // candidates in the same round; scoring skips taken vertices.
        let mut taken = vec![false; stored.len()];
        let proposals: Vec<Proposal> = cands
            .iter()
            .map(|c| {
                let free = |w: usize| {
                    owned.contains(&w) && mate[view.slot(w)] == w && !taken[view.slot(w)]
                };
                accumulate_scores(view, c.0, &c.2, cfg, free, &mut scores, &mut touched);
                let partners = drain_scores(view, &mut scores, &touched);
                propose(view, rank, &ids, c, partners, &mut taken)
            })
            .collect();

        // Global best proposal per candidate.
        let winners = comm.allreduce_vec(proposals, better_of);

        // Apply winners in deterministic candidate order; identical on
        // all ranks. Candidates and their scored partners are all
        // unmatched at round start, so a conflict is exactly "matched
        // earlier in this loop" — which a rank can tell without seeing
        // the mates it does not store.
        let mut newly: HashSet<usize> = HashSet::new();
        for (&u, &(best_score, proposer, partner)) in ids.iter().zip(&winners) {
            if proposer == usize::MAX || best_score <= 0.0 {
                continue;
            }
            if u == partner || newly.contains(&u) || newly.contains(&partner) {
                continue;
            }
            newly.insert(u);
            newly.insert(partner);
            if stored.contains(&u) {
                mate[view.slot(u)] = partner;
            }
            if stored.contains(&partner) {
                mate[view.slot(partner)] = u;
            }
        }
        if newly.is_empty() {
            break;
        }
        num_pairs += newly.len() / 2;
    }
    Matching { mate, num_pairs }
}

/// Local IPM (the paper's proposed speedup, Section 5/6: "using local
/// IPM instead of global IPM"): a rank greedily matches its owned
/// vertices against *owned* partners only — no candidate broadcast, no
/// best-match reduction. Cross-rank pairs are lost (the quality trade).
/// Purely local; returns the mates of the stored vertices (this rank's
/// pairs only; self for unmatched).
pub(crate) fn local_matching<V: LevelView>(
    rank: usize,
    view: &V,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Vec<usize> {
    let owned = view.owned();
    let stored = view.stored();
    let shared_draw: u64 = rng.gen();
    let mut my_rng =
        StdRng::seed_from_u64(shared_draw ^ (rank as u64).wrapping_mul(0x0BAD_CAFE_F00D_BEEF));

    let mut mate: Vec<usize> = stored.clone().collect();
    let mut scores = vec![0.0f64; stored.len()];
    let mut touched: Vec<usize> = Vec::new();

    let mut order: Vec<usize> = owned.clone().collect();
    order.shuffle(&mut my_rng);
    for &u in &order {
        if mate[view.slot(u)] != u {
            continue;
        }
        let free = |w: usize| owned.contains(&w) && mate[view.slot(w)] == w;
        accumulate_scores(view, u, view.nets_of(u), cfg, free, &mut scores, &mut touched);
        let partners = drain_scores(view, &mut scores, &touched);
        if let Some((w, _)) = select_partner(view, view.fixed(u), partners, |_| false) {
            mate[view.slot(u)] = w;
            mate[view.slot(w)] = u;
        }
    }
    mate
}

/// One level of parallel matching. Collective: all ranks must call with
/// identical `h`, `fixed`, `cfg`; `rng` seeds may differ per rank only
/// through `comm.rank()` (handled internally). Returns the same matching
/// on every rank.
pub fn par_ipm_matching(
    comm: &mut Comm,
    h: &Hypergraph,
    fixed: &FixedAssignment,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Matching {
    let view = Replicated::block(h, fixed, comm.rank(), comm.size());
    if !cfg.local_ipm {
        let lookup = |u: usize| (u, view.fixed(u), Cow::Borrowed(view.nets_of(u)));
        return candidate_matching(comm, &view, cfg, rng, |comm, mine| {
            comm.allgather(mine).into_iter().flatten().map(lookup).collect()
        });
    }
    // The disjoint per-rank matchings are merged with a single
    // all-gather: per-level communication drops from `O(rounds)`
    // collectives to one.
    let mine = local_matching(comm.rank(), &view, cfg, rng);
    let my_pairs: Vec<(usize, usize)> =
        view.owned().filter(|&v| mine[v] > v).map(|v| (v, mine[v])).collect();
    let all_pairs: Vec<(usize, usize)> = comm.allgather(my_pairs).into_iter().flatten().collect();
    let mut mate: Vec<usize> = (0..h.num_vertices()).collect();
    for &(u, w) in &all_pairs {
        debug_assert!(mate[u] == u && mate[w] == w, "ranks produced overlapping pairs");
        mate[u] = w;
        mate[w] = u;
    }
    Matching { mate, num_pairs: all_pairs.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_mpisim::{run_spmd, BlockDist};

    #[test]
    fn all_ranks_agree_on_matching() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let fixed = FixedAssignment::free(100);
        let cfg = CoarseningConfig::default();
        let results = run_spmd(4, |comm| {
            let mut rng = StdRng::seed_from_u64(7);
            par_ipm_matching(comm, &h, &fixed, &cfg, &mut rng).mate
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn parallel_matching_is_valid_and_productive() {
        let h = crate::tests::grid_hypergraph(12, 12);
        let fixed = FixedAssignment::free(144);
        let cfg = CoarseningConfig::default();
        let results = run_spmd(3, |comm| {
            let mut rng = StdRng::seed_from_u64(9);
            par_ipm_matching(comm, &h, &fixed, &cfg, &mut rng)
        });
        let m = &results[0];
        m.validate(&fixed).unwrap();
        // A grid should match a decent fraction of vertices.
        assert!(
            m.num_pairs * 2 >= 144 / 3,
            "only {} pairs matched",
            m.num_pairs
        );
    }

    #[test]
    fn local_ipm_matches_only_within_blocks() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let fixed = FixedAssignment::free(100);
        let cfg = CoarseningConfig { local_ipm: true, ..Default::default() };
        let results = run_spmd(4, |comm| {
            let mut rng = StdRng::seed_from_u64(5);
            let dist = BlockDist::new(100, comm.size());
            let m = par_ipm_matching(comm, &h, &fixed, &cfg, &mut rng);
            (m, dist)
        });
        let (m, dist) = &results[0];
        m.validate(&fixed).unwrap();
        assert!(m.num_pairs > 0, "local matching should find pairs");
        for v in 0..100 {
            let u = m.mate[v];
            if u != v {
                assert_eq!(
                    dist.owner(v),
                    dist.owner(u),
                    "local IPM must not match across ranks ({v}-{u})"
                );
            }
        }
        // All ranks agree.
        for r in &results[1..] {
            assert_eq!(r.0.mate, m.mate);
        }
    }

    #[test]
    fn local_ipm_whole_partition_works() {
        // End-to-end: the parallel partitioner with local IPM still
        // produces a valid, reasonably balanced partition.
        let h = crate::tests::grid_hypergraph(12, 12);
        let mut cfg = crate::Config::seeded(3);
        cfg.coarsening.local_ipm = true;
        let results = run_spmd(3, |comm| {
            crate::par::parallel_partition(comm, &h, 4, &cfg)
        });
        let r = &results[0];
        assert!(r.part.iter().all(|&p| p < 4));
        assert!(r.imbalance <= 1.12, "imbalance {}", r.imbalance);
    }

    #[test]
    fn parallel_matching_respects_fixed_constraint() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut fixed = FixedAssignment::free(64);
        // Checkerboard of incompatible fixations on the left column pairs.
        for v in 0..8 {
            fixed.fix(v, v % 2);
        }
        let cfg = CoarseningConfig::default();
        let results = run_spmd(2, |comm| {
            let mut rng = StdRng::seed_from_u64(11);
            par_ipm_matching(comm, &h, &fixed, &cfg, &mut rng)
        });
        results[0].validate(&fixed).unwrap();
    }
}
