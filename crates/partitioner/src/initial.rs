//! Coarse partitioning (Section 4.2).
//!
//! The coarsest hypergraph is partitioned by **randomized greedy
//! hypergraph growing** (GHG): parts are grown one at a time from seed
//! vertices — the part's fixed vertices if it has any, otherwise a random
//! free vertex — absorbing the unassigned vertex with the highest
//! affinity to the growing part until the part reaches its target weight.
//! Several attempts with different random seeds are made and the best
//! (lowest k-1 cut, ties broken by balance) wins, mirroring Zoltan's
//! "every processor computes a different coarse partition and the best is
//! kept".
//!
//! Fixed coarse vertices are pre-assigned to their parts and never
//! reconsidered.

use dlb_hypergraph::{metrics, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{InitialConfig, PartTargets};
use crate::fixed::FixedAssignment;
use crate::heap::Heaps;

const UNASSIGNED: usize = usize::MAX;

/// Auxiliary part-load tracker for the construction heuristics. For
/// scalar targets it holds no storage and every method is a no-op, so
/// the arity-1 pipeline performs no additional float operations.
struct AuxTracker {
    /// `weights[(c-1)*k + p]`; empty for scalar targets.
    weights: Vec<f64>,
    k: usize,
}

impl AuxTracker {
    /// Tracker seeded from the already-assigned entries of `part`.
    fn new(h: &Hypergraph, targets: &PartTargets, part: &[PartId]) -> Self {
        let k = targets.k();
        let mut weights = Vec::new();
        if !targets.aux.is_empty() {
            weights = vec![0.0f64; targets.aux.len() * k];
            for c in 1..=targets.aux.len() {
                let col = h.loads().constraint(c);
                let row = &mut weights[(c - 1) * k..c * k];
                for (v, &p) in part.iter().enumerate() {
                    if p != UNASSIGNED {
                        row[p] += col[v];
                    }
                }
            }
        }
        AuxTracker { weights, k }
    }

    /// Records the assignment of `v` to `p`.
    #[inline]
    fn add(&mut self, h: &Hypergraph, v: usize, p: PartId) {
        if !self.weights.is_empty() {
            for c in 1..=self.weights.len() / self.k {
                self.weights[(c - 1) * self.k + p] += h.vertex_load(v, c);
            }
        }
    }

    /// True when assigning `v` to `p` keeps every auxiliary cap.
    #[inline]
    fn fits(&self, h: &Hypergraph, targets: &PartTargets, v: usize, p: PartId) -> bool {
        for (i, a) in targets.aux.iter().enumerate() {
            if self.weights[i * self.k + p] + h.vertex_load(v, i + 1) > a.cap(p) {
                return false;
            }
        }
        true
    }
}

/// Nets larger than this are ignored when computing growing affinities.
/// A hub net's per-pin contribution (`cost / (s - 1)`) is noise, but its
/// first scan would flood the frontier with thousands of
/// equal-affinity pins — power-law coarse levels keep multi-thousand-pin
/// nets. The same reasoning caps FM delta updates
/// (`refine::MAX_NET_SIZE_FOR_UPDATES`).
const MAX_NET_SIZE_FOR_AFFINITY: usize = 400;

/// One GHG attempt. Returns a complete assignment.
fn greedy_growing(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    rng: &mut StdRng,
) -> Vec<PartId> {
    dlb_trace::count(dlb_trace::Counter::InitialGhgSeeds, 1);
    let n = h.num_vertices();
    let k = targets.k();
    let mut part = vec![UNASSIGNED; n];
    let mut weights = vec![0.0f64; k];
    for v in 0..n {
        if let Some(p) = fixed.get(v) {
            part[v] = p;
            weights[p] += h.vertex_weight(v);
        }
    }

    let mut aux = AuxTracker::new(h, targets, &part);
    // The frontier of the part being grown: the unassigned vertices its
    // nets have reached, keyed by affinity (absent = affinity 0). Keys
    // are raised in place, so the top is always the highest current
    // affinity, the lowest id among equals.
    let mut frontier = Heaps::new(1, n);
    let mut unassigned_order: Vec<usize> = (0..n).filter(|&v| part[v] == UNASSIGNED).collect();
    unassigned_order.shuffle(rng);
    let mut cursor = 0usize; // next random seed candidate

    // Each net distributes its affinity once per grown part, when its
    // first pin is absorbed; absorbing further pins of the same net adds
    // nothing. Rescanning on every absorption instead would cost
    // `O(size^2)` per net and part — quadratic whenever coarsening
    // stalls on a large power-law level. `net_stamp[j] == p` marks net
    // `j` as spent for part `p`.
    let mut net_stamp = vec![usize::MAX; h.num_nets()];

    // Grow parts 0..k-1; whatever remains lands in part k-1 (and, if that
    // would overflow, spills to the lightest part).
    for p in 0..k.saturating_sub(1) {
        // Affinities to the previous part are void.
        frontier.clear(0);

        let bump_neighbors =
            |v: usize, frontier: &mut Heaps, part: &Vec<usize>, net_stamp: &mut Vec<usize>| {
                for &j in h.vertex_nets(v) {
                    let j = j as usize;
                    if net_stamp[j] == p {
                        continue;
                    }
                    net_stamp[j] = p;
                    let size = h.net_size(j);
                    if !(2..=MAX_NET_SIZE_FOR_AFFINITY).contains(&size) {
                        continue;
                    }
                    let contrib = h.net_cost(j) / (size - 1) as f64;
                    for &w in h.net(j) {
                        let w = w as usize;
                        if part[w] == UNASSIGNED {
                            frontier.set(0, w, frontier.key(0, w).unwrap_or(0.0) + contrib);
                        }
                    }
                }
            };

        // Seed from the part's fixed vertices (their neighborhoods).
        for v in 0..n {
            if fixed.get(v) == Some(p) {
                bump_neighbors(v, &mut frontier, &part, &mut net_stamp);
            }
        }

        while weights[p] < targets.target[p] {
            let v = match frontier.pop(0) {
                Some((v, _)) => v,
                None => {
                    // Frontier exhausted: restart from a random seed.
                    while cursor < unassigned_order.len()
                        && part[unassigned_order[cursor]] != UNASSIGNED
                    {
                        cursor += 1;
                    }
                    match unassigned_order.get(cursor) {
                        Some(&v) => v,
                        None => break, // nothing left anywhere
                    }
                }
            };
            part[v] = p;
            weights[p] += h.vertex_weight(v);
            aux.add(h, v, p);
            bump_neighbors(v, &mut frontier, &part, &mut net_stamp);
        }
    }

    // Remainder goes to the last part unless that would bust its cap
    // (on any constraint) and some lighter part can take it.
    for v in 0..n {
        if part[v] == UNASSIGNED {
            let w = h.vertex_weight(v);
            let last = k - 1;
            let p = if weights[last] + w <= targets.cap(last) && aux.fits(h, targets, v, last) {
                last
            } else {
                (0..k)
                    .min_by(|&a, &b| {
                        (weights[a] + w - targets.target[a])
                            .total_cmp(&(weights[b] + w - targets.target[b]))
                    })
                    .unwrap()
            };
            part[v] = p;
            weights[p] += w;
            aux.add(h, v, p);
        }
    }
    part
}

/// Fixed-affinity assignment: each free vertex joins the part whose
/// *fixed* vertices it shares the most net weight with (subject to
/// caps), strongest affinities first; vertices with no affinity go to
/// the part with the most spare capacity.
///
/// For the repartitioning hypergraph of Section 3 this attempt is
/// exactly "start from the old partition": every computation vertex's
/// migration net ties it to its old part's fixed partition vertex, so
/// the attempt reproduces the previous assignment (rebalanced), which is
/// precisely the low-migration corner of the search space. GHG attempts
/// explore the low-communication corner; best-of-N picks per α.
fn fixed_affinity(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    rng: &mut StdRng,
) -> Vec<PartId> {
    let n = h.num_vertices();
    let k = targets.k();
    let mut part = vec![UNASSIGNED; n];
    let mut weights = vec![0.0f64; k];
    for v in 0..n {
        if let Some(p) = fixed.get(v) {
            part[v] = p;
            weights[p] += h.vertex_weight(v);
        }
    }

    let mut aux = AuxTracker::new(h, targets, &part);
    // Affinity of every free vertex to every part with fixed pins.
    let mut affinity = vec![0.0f64; n * k];
    for j in 0..h.num_nets() {
        let size = h.net_size(j);
        if size < 2 {
            continue;
        }
        let contrib = h.net_cost(j) / (size - 1) as f64;
        // Parts of the fixed pins of this net.
        for &u in h.net(j) {
            if let Some(p) = fixed.get(u as usize) {
                for &v in h.net(j) {
                    let v = v as usize;
                    if fixed.get(v).is_none() {
                        affinity[v * k + p] += contrib;
                    }
                }
            }
        }
    }

    // Strongest-affinity-first assignment under caps.
    let mut order: Vec<(f64, usize)> = (0..n)
        .filter(|&v| part[v] == UNASSIGNED)
        .map(|v| {
            let best = (0..k).map(|p| affinity[v * k + p]).fold(0.0, f64::max);
            (best, v)
        })
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut leftovers = Vec::new();
    for &(best, v) in &order {
        let w = h.vertex_weight(v);
        let choice = if best > 0.0 {
            (0..k)
                .filter(|&p| weights[p] + w <= targets.cap(p) && aux.fits(h, targets, v, p))
                .max_by(|&a, &b| affinity[v * k + a].total_cmp(&affinity[v * k + b]))
        } else {
            None
        };
        match choice {
            Some(p) => {
                part[v] = p;
                weights[p] += w;
                aux.add(h, v, p);
            }
            None => leftovers.push(v),
        }
    }
    for v in leftovers {
        let w = h.vertex_weight(v);
        let p = (0..k)
            .min_by(|&a, &b| {
                (weights[a] + w - targets.target[a])
                    .total_cmp(&(weights[b] + w - targets.target[b]))
            })
            .unwrap();
        part[v] = p;
        weights[p] += w;
        aux.add(h, v, p);
    }
    let _ = rng;
    part
}

/// Random balanced assignment: free vertices visit in random order and
/// join the part with the most remaining target capacity.
fn random_balanced(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    rng: &mut StdRng,
) -> Vec<PartId> {
    let n = h.num_vertices();
    let k = targets.k();
    let mut part = vec![UNASSIGNED; n];
    let mut weights = vec![0.0f64; k];
    for v in 0..n {
        if let Some(p) = fixed.get(v) {
            part[v] = p;
            weights[p] += h.vertex_weight(v);
        }
    }
    let mut order: Vec<usize> = (0..n).filter(|&v| part[v] == UNASSIGNED).collect();
    order.shuffle(rng);
    for v in order {
        let p = (0..k)
            .min_by(|&a, &b| {
                (weights[a] - targets.target[a]).total_cmp(&(weights[b] - targets.target[b]))
            })
            .unwrap();
        part[v] = p;
        weights[p] += h.vertex_weight(v);
    }
    part
}

/// Scores an assignment: k-1 cut plus a large penalty for exceeding the
/// balance caps — on any constraint — so a feasible worse-cut solution
/// beats an infeasible better-cut one. The auxiliary term is gated, so
/// scalar scores are bit-identical to the single-constraint formula.
pub(crate) fn score(h: &Hypergraph, part: &[PartId], targets: &PartTargets) -> f64 {
    let k = targets.k();
    let cut = metrics::cutsize_connectivity(h, part, k);
    let weights = metrics::part_weights(h, part, k);
    let mut violation = (targets.violation(&weights) - targets.epsilon).max(0.0);
    if !targets.aux.is_empty() {
        let aux_loads = metrics::aux_part_loads(h, part, k);
        for (a, row) in targets.aux.iter().zip(&aux_loads) {
            violation += (a.violation(row) - a.epsilon).max(0.0);
        }
    }
    let total_cost: f64 = h.net_costs().iter().sum();
    cut + violation * (1.0 + total_cost)
}

/// Computes the best coarse partition over `cfg.num_attempts` randomized
/// attempts (GHG, plus one random-balanced attempt as a safety net).
pub fn initial_partition(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &InitialConfig,
    rng: &mut StdRng,
) -> Vec<PartId> {
    let _span = dlb_trace::span!(
        "initial",
        vertices = h.num_vertices(),
        attempts = cfg.num_attempts.max(1),
    );
    let mut best: Option<(f64, Vec<PartId>)> = None;
    let attempts = cfg.num_attempts.max(1);
    for _ in 0..attempts {
        let mut attempt_rng = StdRng::seed_from_u64(rng.gen());
        let part = greedy_growing(h, targets, fixed, &mut attempt_rng);
        let s = score(h, &part, targets);
        if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
            best = Some((s, part));
        }
    }
    let mut rb_rng = StdRng::seed_from_u64(rng.gen());
    let part = random_balanced(h, targets, fixed, &mut rb_rng);
    let s = score(h, &part, targets);
    if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
        best = Some((s, part));
    }
    // With fixed vertices present, also try staying close to them (the
    // low-migration corner for the repartitioning model).
    if fixed.num_fixed() > 0 {
        let mut fa_rng = StdRng::seed_from_u64(rng.gen());
        let part = fixed_affinity(h, targets, fixed, &mut fa_rng);
        let s = score(h, &part, targets);
        if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
            best = Some((s, part));
        }
    }
    best.expect("at least one attempt").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    fn targets(h: &Hypergraph, k: usize) -> PartTargets {
        PartTargets::uniform(h.total_vertex_weight(), k, 0.05)
    }

    #[test]
    fn assignment_is_complete_and_in_range() {
        let h = crate::tests::random_hypergraph(60, 120, 4, 3);
        let t = targets(&h, 4);
        let fixed = FixedAssignment::free(60);
        let mut rng = StdRng::seed_from_u64(0);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        assert_eq!(part.len(), 60);
        assert!(part.iter().all(|&p| p < 4));
    }

    #[test]
    fn fixed_vertices_stay_put() {
        let h = crate::tests::grid_hypergraph(6, 6);
        let t = targets(&h, 3);
        let mut fixed = FixedAssignment::free(36);
        fixed.fix(0, 2);
        fixed.fix(35, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        assert_eq!(part[0], 2);
        assert_eq!(part[35], 0);
    }

    #[test]
    fn balance_is_respected_on_uniform_graph() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let t = targets(&h, 4);
        let fixed = FixedAssignment::free(100);
        let mut rng = StdRng::seed_from_u64(2);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        let w = metrics::part_weights(&h, &part, 4);
        // GHG on unit weights should be close to target; allow one vertex
        // of slack beyond the cap.
        for p in 0..4 {
            assert!(w[p] <= t.cap(p) + 1.0, "part {p} weight {}", w[p]);
        }
    }

    #[test]
    fn ghg_finds_the_obvious_split() {
        // Two cliques of 2-pin nets joined weakly: the grown part should
        // be one clique.
        let mut nets: Vec<Vec<usize>> = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                nets.push(vec![i, j]);
                nets.push(vec![5 + i, 5 + j]);
            }
        }
        nets.push(vec![4, 5]);
        let h = Hypergraph::from_nets_unit(10, &nets);
        let t = targets(&h, 2);
        let fixed = FixedAssignment::free(10);
        let mut rng = StdRng::seed_from_u64(4);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig { num_attempts: 8 }, &mut rng);
        let cut = metrics::cutsize_connectivity(&h, &part, 2);
        assert_eq!(cut, 1.0, "only the weak joiner should be cut, got {cut}");
    }

    #[test]
    fn proportional_targets_are_honored() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let t = PartTargets::proportional(h.total_vertex_weight(), &[3, 1], 0.05);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(5);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        let w = metrics::part_weights(&h, &part, 2);
        assert!(w[0] > w[1], "side 0 should carry ~3/4 of the weight: {w:?}");
        assert!((w[0] - 48.0).abs() <= 8.0, "side 0 weight {}", w[0]);
    }

    #[test]
    fn score_penalizes_imbalance() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let t = targets(&h, 2);
        let balanced: Vec<usize> = (0..16).map(|v| v / 8).collect();
        let lopsided = vec![0usize; 16];
        assert!(score(&h, &balanced, &t) < score(&h, &lopsided, &t));
    }

    #[test]
    fn fixed_affinity_reconstructs_old_partition() {
        // Build a miniature repartitioning-hypergraph shape: two fixed
        // "partition vertices" (4, 5) with migration nets tying each free
        // vertex to its old part. The fixed-affinity attempt should win
        // (migration nets are the dominant cost) and reproduce old parts.
        let mut b = dlb_hypergraph::HypergraphBuilder::new(6);
        // Old parts: 0,1 -> part 0 (vertex 4); 2,3 -> part 1 (vertex 5).
        b.add_net(10.0, [0, 4]);
        b.add_net(10.0, [1, 4]);
        b.add_net(10.0, [2, 5]);
        b.add_net(10.0, [3, 5]);
        // A weak "communication" net pulling 1 and 2 together.
        b.add_net(1.0, [1, 2]);
        b.set_vertex_weight(4, 0.0);
        b.set_vertex_weight(5, 0.0);
        let h = b.build();
        let mut fixed = FixedAssignment::free(6);
        fixed.fix(4, 0);
        fixed.fix(5, 1);
        let t = PartTargets::uniform(4.0, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        assert_eq!(&part[..4], &[0, 0, 1, 1], "free vertices should stay home");
    }

    #[test]
    fn fixed_affinity_respects_caps() {
        // All free vertices prefer part 0, but the cap forces spill.
        let mut b = dlb_hypergraph::HypergraphBuilder::new(7);
        for v in 0..6 {
            b.add_net(5.0, [v, 6]);
        }
        b.set_vertex_weight(6, 0.0);
        let h = b.build();
        let mut fixed = FixedAssignment::free(7);
        fixed.fix(6, 0);
        let t = PartTargets::uniform(6.0, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(4);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig { num_attempts: 2 }, &mut rng);
        let w = metrics::part_weights(&h, &part, 2);
        assert!(w[0] <= t.cap(0) + 1.0, "part 0 overfull: {w:?}");
        assert!(w[1] > 0.0, "spill must land somewhere: {w:?}");
    }

    /// A heap candidate ordered by affinity (then by vertex id for
    /// determinism).
    struct Cand {
        affinity: f64,
        v: usize,
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
            self.affinity
                .total_cmp(&other.affinity)
                .then_with(|| other.v.cmp(&self.v))
        }
    }

    /// [`greedy_growing`] as it was before the frontier became an addressable
    /// heap, kept as its reference: a `BinaryHeap` that gets one more entry
    /// for every affinity bump, and pops that skip assigned vertices and
    /// re-push entries whose affinity has moved on.
    fn greedy_growing_lazy(
        h: &Hypergraph,
        targets: &PartTargets,
        fixed: &FixedAssignment,
        rng: &mut StdRng,
    ) -> Vec<PartId> {
        let n = h.num_vertices();
        let k = targets.k();
        let mut part = vec![UNASSIGNED; n];
        let mut weights = vec![0.0f64; k];
        for v in 0..n {
            if let Some(p) = fixed.get(v) {
                part[v] = p;
                weights[p] += h.vertex_weight(v);
            }
        }

        let mut aux = AuxTracker::new(h, targets, &part);
        let mut affinity = vec![0.0f64; n];
        let mut unassigned_order: Vec<usize> = (0..n).filter(|&v| part[v] == UNASSIGNED).collect();
        unassigned_order.shuffle(rng);
        let mut cursor = 0usize; // next random seed candidate

        // Each net distributes its affinity once per grown part, when its
        // first pin is absorbed; absorbing further pins of the same net adds
        // nothing. Rescanning on every absorption instead would cost
        // `O(size^2)` per net and part — quadratic whenever coarsening
        // stalls on a large power-law level. `net_stamp[j] == p` marks net
        // `j` as spent for part `p`.
        let mut net_stamp = vec![usize::MAX; h.num_nets()];

        // Grow parts 0..k-1; whatever remains lands in part k-1 (and, if that
        // would overflow, spills to the lightest part).
        for p in 0..k.saturating_sub(1) {
            // Reset affinities from the previous part.
            affinity.iter_mut().for_each(|a| *a = 0.0);
            let mut heap: BinaryHeap<Cand> = BinaryHeap::new();

            let bump_neighbors = |v: usize,
                                  affinity: &mut Vec<f64>,
                                  heap: &mut BinaryHeap<Cand>,
                                  part: &Vec<usize>,
                                  net_stamp: &mut Vec<usize>| {
                for &j in h.vertex_nets(v) {
                    let j = j as usize;
                    if net_stamp[j] == p {
                        continue;
                    }
                    net_stamp[j] = p;
                    let size = h.net_size(j);
                    if !(2..=MAX_NET_SIZE_FOR_AFFINITY).contains(&size) {
                        continue;
                    }
                    let contrib = h.net_cost(j) / (size - 1) as f64;
                    for &w in h.net(j) {
                        let w = w as usize;
                        if part[w] == UNASSIGNED {
                            affinity[w] += contrib;
                            heap.push(Cand {
                                affinity: affinity[w],
                                v: w,
                            });
                        }
                    }
                }
            };

            // Seed from the part's fixed vertices (their neighborhoods).
            for v in 0..n {
                if fixed.get(v) == Some(p) {
                    bump_neighbors(v, &mut affinity, &mut heap, &part, &mut net_stamp);
                }
            }

            while weights[p] < targets.target[p] {
                // Pop the best live candidate; entries are lazy, so skip
                // assigned or stale ones.
                let next = loop {
                    match heap.pop() {
                        Some(c) => {
                            if part[c.v] != UNASSIGNED {
                                continue;
                            }
                            if (c.affinity - affinity[c.v]).abs() > 1e-12 {
                                heap.push(Cand {
                                    affinity: affinity[c.v],
                                    v: c.v,
                                });
                                continue;
                            }
                            break Some(c.v);
                        }
                        None => break None,
                    }
                };
                let v = match next {
                    Some(v) => v,
                    None => {
                        // Frontier exhausted: restart from a random seed.
                        while cursor < unassigned_order.len()
                            && part[unassigned_order[cursor]] != UNASSIGNED
                        {
                            cursor += 1;
                        }
                        match unassigned_order.get(cursor) {
                            Some(&v) => v,
                            None => break, // nothing left anywhere
                        }
                    }
                };
                part[v] = p;
                weights[p] += h.vertex_weight(v);
                aux.add(h, v, p);
                bump_neighbors(v, &mut affinity, &mut heap, &part, &mut net_stamp);
            }
        }

        // Remainder goes to the last part unless that would bust its cap
        // (on any constraint) and some lighter part can take it.
        for v in 0..n {
            if part[v] == UNASSIGNED {
                let w = h.vertex_weight(v);
                let last = k - 1;
                let p = if weights[last] + w <= targets.cap(last) && aux.fits(h, targets, v, last) {
                    last
                } else {
                    (0..k)
                        .min_by(|&a, &b| {
                            (weights[a] + w - targets.target[a])
                                .total_cmp(&(weights[b] + w - targets.target[b]))
                        })
                        .unwrap()
                };
                part[v] = p;
                weights[p] += w;
                aux.add(h, v, p);
            }
        }
        part
    }

    /// (d) The frontier with keys raised in place absorbs the vertices the
    /// lazy heap did, in the same order: affinities only rise and every rise
    /// pushed the risen key, so the first entry of a vertex to surface was
    /// always its newest. Uniform and power-law instances (the latter with
    /// nets above `MAX_NET_SIZE_FOR_AFFINITY`), zero-cost nets, about a
    /// fifth of the vertices fixed, scalar and arity-2 loads, k 2–6.
    #[test]
    fn ghg_equals_the_lazy_heap_reference() {
        let mut rng = StdRng::seed_from_u64(0x6846);
        for case in 0..24 {
            let power_law = case % 3 == 2;
            let n = if power_law {
                rng.gen_range(450usize..700)
            } else {
                rng.gen_range(20usize..200)
            };
            let k = rng.gen_range(2usize..7);
            let mut b = dlb_hypergraph::HypergraphBuilder::new(n);
            for _ in 0..rng.gen_range(n..3 * n) {
                // Power law: a net's size is 2 / u for uniform u, capped at n
                // — a few nets hold most of the vertices.
                let size = if power_law {
                    ((2.0 / rng.gen_range(0.0f64..1.0).max(1e-3)) as usize).min(n)
                } else {
                    rng.gen_range(2usize..6)
                };
                let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
                let cost = if rng.gen_bool(0.1) {
                    0.0
                } else {
                    f64::from(rng.gen_range(1u32..5))
                };
                b.add_net(cost, pins);
            }
            if power_law {
                // One hub no draw can miss.
                b.add_net(3.0, (0..n).filter(|v| v % 10 != 0));
            }
            for v in 0..n {
                b.set_vertex_weight(v, f64::from(rng.gen_range(1u32..4)));
            }
            let mut h = b.build();
            if power_law {
                let largest = (0..h.num_nets()).map(|j| h.net_size(j)).max().unwrap();
                assert!(
                    largest > MAX_NET_SIZE_FOR_AFFINITY,
                    "case {case}: largest net {largest}"
                );
            }
            let mut t = PartTargets::uniform(h.total_vertex_weight(), k, 0.05);
            if case % 4 == 3 {
                let second: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0u32..5))).collect();
                let total = second.iter().sum();
                let columns = vec![h.loads().scalar().to_vec(), second];
                h.set_loads(dlb_hypergraph::VertexLoads::from_columns(columns));
                t = t.with_aux(vec![dlb_hypergraph::AuxTargets::uniform(total, k, 0.2)]);
            }
            let opts: Vec<Option<PartId>> = (0..n)
                .map(|_| rng.gen_bool(0.2).then(|| rng.gen_range(0..k)))
                .collect();
            let fixed = FixedAssignment::from_options(&opts);
            for attempt in 0..3u64 {
                let grown = greedy_growing(&h, &t, &fixed, &mut StdRng::seed_from_u64(attempt));
                let lazy = greedy_growing_lazy(&h, &t, &fixed, &mut StdRng::seed_from_u64(attempt));
                assert_eq!(grown, lazy, "case {case} (n {n}, k {k}), attempt {attempt}");
            }
        }
    }

    #[test]
    fn all_vertices_fixed_is_identity() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let t = targets(&h, 2);
        let opts: Vec<Option<usize>> = (0..16).map(|v| Some(v % 2)).collect();
        let fixed = FixedAssignment::from_options(&opts);
        let mut rng = StdRng::seed_from_u64(6);
        let part = initial_partition(&h, &t, &fixed, &InitialConfig::default(), &mut rng);
        for v in 0..16 {
            assert_eq!(part[v], v % 2);
        }
    }
}
