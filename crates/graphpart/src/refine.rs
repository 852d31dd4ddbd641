//! Boundary FM refinement for graphs, on the plain edge cut or on the
//! combined adaptive objective `α·edgecut + migration`.
//!
//! The combined objective is how the ParMETIS-like adaptive scheme
//! accounts for data migration: *only* in refinement, as a per-move gain
//! adjustment — moving `v` off the part it occupied in the previous
//! epoch adds `size(v)` to migration, moving it back removes it. This is
//! the structural contrast with the paper's model, which encodes
//! migration in the (hyper)graph itself so coarsening sees it too.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dlb_hypergraph::{CsrGraph, PartId, PartTargets};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// What the refiner optimizes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Objective<'a> {
    /// Weight of the edge-cut term (the paper's α / ParMETIS's ITR).
    pub alpha: f64,
    /// Previous-epoch assignment; when present, the migration term
    /// `Σ size(v)·[part(v) ≠ old(v)]` is active with unit weight.
    pub old_part: Option<&'a [PartId]>,
}

impl Objective<'_> {
    /// Pure edge-cut objective (scratch partitioning).
    pub(crate) const CUT_ONLY: Objective<'static> = Objective {
        alpha: 1.0,
        old_part: None,
    };
}

/// Incrementally maintained graph partition state.
pub(crate) struct GraphState<'a> {
    g: &'a CsrGraph,
    k: usize,
    /// Current assignment.
    pub part: Vec<PartId>,
    /// Total vertex weight per part.
    pub weights: Vec<f64>,
}

impl<'a> GraphState<'a> {
    /// Builds state for `part` on `g`.
    pub(crate) fn new(g: &'a CsrGraph, k: usize, part: Vec<PartId>) -> Self {
        assert_eq!(part.len(), g.num_vertices());
        let mut weights = vec![0.0f64; k];
        for (v, &p) in part.iter().enumerate() {
            weights[p] += g.vertex_weight(v);
        }
        GraphState {
            g,
            k,
            part,
            weights,
        }
    }

    /// Moves `v` to `q`.
    pub(crate) fn apply(&mut self, v: usize, q: PartId) {
        let p = self.part[v];
        if p == q {
            return;
        }
        let w = self.g.vertex_weight(v);
        self.weights[p] -= w;
        self.weights[q] += w;
        self.part[v] = q;
    }

    /// Objective gain (decrease) of moving `v` to `q`.
    pub(crate) fn gain(&self, v: usize, q: PartId, obj: &Objective) -> f64 {
        let p = self.part[v];
        if p == q {
            return 0.0;
        }
        let mut to_p = 0.0;
        let mut to_q = 0.0;
        for (&u, &w) in self.g.neighbors(v).iter().zip(self.g.edge_weights(v)) {
            if self.part[u] == p {
                to_p += w;
            } else if self.part[u] == q {
                to_q += w;
            }
        }
        let cut_gain = to_q - to_p;
        let mig_gain = match obj.old_part {
            Some(old) => {
                let o = old[v];
                let before = if p != o { self.g.vertex_size(v) } else { 0.0 };
                let after = if q != o { self.g.vertex_size(v) } else { 0.0 };
                before - after
            }
            None => 0.0,
        };
        obj.alpha * cut_gain + mig_gain
    }

    /// Best feasible move for `v` among parts its neighbors occupy (and,
    /// under the adaptive objective, its old part).
    pub(crate) fn best_move(
        &self,
        v: usize,
        targets: &PartTargets,
        obj: &Objective,
        scratch: &mut GraphMoveScratch,
    ) -> Option<(PartId, f64)> {
        let p = self.part[v];
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.cands.clear();
        for &u in self.g.neighbors(v) {
            let q = self.part[u];
            if q != p && scratch.mark[q] != stamp {
                scratch.mark[q] = stamp;
                scratch.cands.push(q);
            }
        }
        if let Some(old) = obj.old_part {
            let o = old[v];
            if o != p && o < self.k && scratch.mark[o] != stamp {
                scratch.mark[o] = stamp;
                scratch.cands.push(o);
            }
        }
        let w = self.g.vertex_weight(v);
        let mut best: Option<(PartId, f64)> = None;
        for &q in &scratch.cands {
            if self.weights[q] + w > targets.cap(q) {
                continue;
            }
            let gain = self.gain(v, q, obj);
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

    /// Vertices with a neighbor in another part.
    pub(crate) fn boundary_vertices(&self) -> Vec<usize> {
        (0..self.g.num_vertices())
            .filter(|&v| {
                let p = self.part[v];
                self.g.neighbors(v).iter().any(|&u| self.part[u] != p)
            })
            .collect()
    }
}

/// Reusable scratch for [`GraphState::best_move`].
pub(crate) struct GraphMoveScratch {
    mark: Vec<u64>,
    cands: Vec<usize>,
    stamp: u64,
}

impl GraphMoveScratch {
    /// Scratch for `k` parts.
    pub(crate) fn new(k: usize) -> Self {
        GraphMoveScratch {
            mark: vec![0; k],
            cands: Vec::new(),
            stamp: 0,
        }
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

/// Greedy diffusion-style rebalance: drain overweight parts into the
/// relatively lightest feasible parts, cheapest moves first.
pub(crate) fn rebalance_graph(
    state: &mut GraphState,
    targets: &PartTargets,
    obj: &Objective,
    scratch: &mut GraphMoveScratch,
) {
    let n = state.part.len();
    let total_violation = |weights: &[f64]| -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(p, &w)| (w - targets.cap(p)).max(0.0))
            .sum()
    };
    for _ in 0..2 * n + 16 {
        let violation_before = total_violation(&state.weights);
        let over = (0..state.k)
            .filter(|&p| state.weights[p] > targets.cap(p) + 1e-9)
            .max_by(|&a, &b| {
                (state.weights[a] - targets.cap(a)).total_cmp(&(state.weights[b] - targets.cap(b)))
            });
        let p = match over {
            Some(p) => p,
            None => return,
        };
        let mut best: Option<(usize, PartId, f64)> = None;
        for v in 0..n {
            if state.part[v] != p {
                continue;
            }
            let w = state.g.vertex_weight(v);
            let cand = match state.best_move(v, targets, obj, scratch) {
                Some((q, g)) => (q, g),
                None => {
                    let q = (0..state.k)
                        .filter(|&q| q != p)
                        .min_by(|&a, &b| {
                            ((state.weights[a] + w) / targets.target[a].max(1e-12))
                                .total_cmp(&((state.weights[b] + w) / targets.target[b].max(1e-12)))
                        })
                        .unwrap();
                    (q, state.gain(v, q, obj))
                }
            };
            if best.is_none_or(|(_, _, bg)| cand.1 > bg) {
                best = Some((v, cand.0, cand.1));
            }
        }
        match best {
            Some((v, q, _)) => {
                state.apply(v, q);
                // Only keep moves that strictly reduce total violation;
                // otherwise the loop is shuffling load it cannot place.
                if total_violation(&state.weights) >= violation_before - 1e-12 {
                    state.apply(v, p);
                    return;
                }
            }
            None => return,
        }
    }
}

fn fm_pass(
    state: &mut GraphState,
    targets: &PartTargets,
    obj: &Objective,
    scratch: &mut GraphMoveScratch,
    rng: &mut StdRng,
) -> f64 {
    let n = state.part.len();
    let mut locked = vec![false; n];
    let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
    // One live heap entry per vertex (pops revalidate, extras are churn).
    let mut queued = vec![false; n];
    let mut boundary = state.boundary_vertices();
    boundary.shuffle(rng);
    for &v in &boundary {
        if let Some((to, gain)) = state.best_move(v, targets, obj, scratch) {
            heap.push(Cand { gain, v, to });
            queued[v] = true;
        }
    }

    let mut applied: Vec<(usize, PartId)> = Vec::new();
    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;
    let mut neg_streak = 0usize;
    const MAX_NEG_STREAK: usize = 200;

    while let Some(c) = heap.pop() {
        queued[c.v] = false;
        if locked[c.v] {
            continue;
        }
        match state.best_move(c.v, targets, obj, scratch) {
            None => continue,
            Some((to, gain)) => {
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
                    if neg_streak >= MAX_NEG_STREAK {
                        break;
                    }
                }
                for &u in state.g.neighbors(c.v) {
                    if !locked[u] && !queued[u] {
                        if let Some((to, gain)) = state.best_move(u, targets, obj, scratch) {
                            heap.push(Cand { gain, v: u, to });
                            queued[u] = true;
                        }
                    }
                }
            }
        }
    }
    for &(v, from) in applied[best_len..].iter().rev() {
        state.apply(v, from);
    }
    best_cum
}

/// Maximum FM passes per level; passes stop early when one yields no
/// improvement.
const MAX_REFINE_PASSES: usize = 4;

/// Refines `part` in place: rebalance, then FM passes until no
/// improvement (or `MAX_REFINE_PASSES`). Returns total objective
/// improvement.
pub(crate) fn refine_graph(
    g: &CsrGraph,
    targets: &PartTargets,
    obj: &Objective,
    part: &mut Vec<PartId>,
    rng: &mut StdRng,
) -> f64 {
    let k = targets.k();
    if k < 2 || g.num_vertices() == 0 {
        return 0.0;
    }
    let mut state = GraphState::new(g, k, std::mem::take(part));
    let mut scratch = GraphMoveScratch::new(k);
    rebalance_graph(&mut state, targets, obj, &mut scratch);
    let mut total = 0.0;
    for _ in 0..MAX_REFINE_PASSES {
        let improvement = fm_pass(&mut state, targets, obj, &mut scratch, rng);
        total += improvement;
        if improvement <= 1e-12 {
            break;
        }
    }
    *part = state.part;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use rand::SeedableRng;

    #[test]
    fn gain_matches_cut_delta() {
        let g = crate::tests::random_graph(30, 80, 4);
        let part: Vec<usize> = (0..30).map(|v| v % 3).collect();
        let mut state = GraphState::new(&g, 3, part);
        let obj = Objective::CUT_ONLY;
        for v in [0usize, 5, 17, 29] {
            for q in 0..3 {
                if q == state.part[v] {
                    continue;
                }
                let before = metrics::edge_cut(&g, &state.part, 3);
                let gain = state.gain(v, q, &obj);
                let from = state.part[v];
                state.apply(v, q);
                let after = metrics::edge_cut(&g, &state.part, 3);
                assert!((before - after - gain).abs() < 1e-9, "v={v} q={q}");
                state.apply(v, from);
            }
        }
    }

    #[test]
    fn migration_term_discourages_moves_off_old_part() {
        let g = crate::tests::grid_graph(2, 2);
        let old = vec![0usize, 0, 1, 1];
        let part = old.clone();
        let state = GraphState::new(&g, 2, part);
        // alpha tiny: migration dominates; moving 0 to part 1 costs its
        // size with no migration benefit.
        let obj = Objective {
            alpha: 1e-6,
            old_part: Some(&old),
        };
        assert!(state.gain(0, 1, &obj) < 0.0);
    }

    #[test]
    fn migration_term_rewards_returning_home() {
        let g = crate::tests::grid_graph(2, 2);
        let old = vec![0usize, 0, 1, 1];
        let mut part = old.clone();
        part[0] = 1; // strayed
        let state = GraphState::new(&g, 2, part);
        let obj = Objective {
            alpha: 1e-6,
            old_part: Some(&old),
        };
        assert!(state.gain(0, 0, &obj) > 0.0);
    }

    #[test]
    fn refine_improves_stripes() {
        let g = crate::tests::grid_graph(8, 8);
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let before = metrics::edge_cut(&g, &part, 2);
        let t = PartTargets::uniform(64.0, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(0);
        refine_graph(&g, &t, &Objective::CUT_ONLY, &mut part, &mut rng);
        let after = metrics::edge_cut(&g, &part, 2);
        assert!(after < before / 2.0, "{before} -> {after}");
        assert!(metrics::graph_imbalance(&g, &part, 2) <= 1.05 + 1e-9);
    }

    #[test]
    fn rebalance_restores_caps() {
        let g = crate::tests::grid_graph(6, 6);
        let mut part = vec![0usize; 36];
        let t = PartTargets::uniform(36.0, 3, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        refine_graph(&g, &t, &Objective::CUT_ONLY, &mut part, &mut rng);
        let w = metrics::graph_part_weights(&g, &part, 3);
        for p in 0..3 {
            assert!(w[p] <= t.cap(p) + 1e-9, "part {p}: {}", w[p]);
        }
    }

    #[test]
    fn boundary_detection() {
        let g = crate::tests::grid_graph(2, 4);
        let part = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let state = GraphState::new(&g, 2, part);
        assert_eq!(state.boundary_vertices(), vec![1, 2, 5, 6]);
    }
}
