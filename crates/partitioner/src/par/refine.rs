//! Localized parallel FM refinement (Section 4.3, parallel).
//!
//! Each rank proposes moves for its **owned** boundary vertices against a
//! private copy of the global partition state (so proposals within one
//! rank are internally consistent), then all proposals are exchanged
//! (all-gather) and applied on every rank in the same deterministic
//! order, re-validating each move's gain and balance feasibility against
//! the evolving shared state. Several pass-pairs run per level, exactly
//! the "multiple pass-pairs, each vertex considered for a move" structure
//! the paper describes.

use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::Comm;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;
use crate::refine::{fold_weights, greedy_repair, rebalance, Lockstep, PartitionState};
use crate::view::{LevelView, Replicated};

/// One rank's proposed move.
type Move = (usize, PartId); // (vertex, destination part)

/// Proposes moves for this rank's owned boundary vertices on `private`,
/// its private copy of the state (so a rank's own proposals compose),
/// visiting them in a rank-decorrelated random order. A proposal is a
/// strictly improving move, or a zero-gain move away from an over-target
/// part. Returns `(vertex, from, to)` per proposal, in proposal order.
pub(crate) fn propose_moves<V: LevelView>(
    rank: usize,
    private: &mut PartitionState<V>,
    targets: &PartTargets,
    rng: &mut StdRng,
) -> Vec<(usize, PartId, PartId)> {
    let shared_draw: u64 = rng.gen();
    let mut my_rng =
        StdRng::seed_from_u64(shared_draw ^ (rank as u64).wrapping_mul(0xC0FF_EE00_1234_5678));
    let mut boundary = Vec::new();
    private.owned_boundary_into(&mut boundary);
    boundary.retain(|&v| private.view.fixed(v).is_none());
    boundary.shuffle(&mut my_rng);

    let mut moves = Vec::new();
    for v in boundary {
        if let Some((to, gain)) = private.best_move(v, targets) {
            let from = private.part_of(v);
            if gain > 0.0 || (gain == 0.0 && private.weights[from] > targets.target[from]) {
                private.apply(v, to);
                moves.push((v, from, to));
            }
        }
    }
    moves
}

/// One parallel refinement pass. Returns the number of moves applied
/// (identical on every rank).
fn par_pass(
    comm: &mut Comm,
    state: &mut PartitionState<Replicated<'_>>,
    targets: &PartTargets,
    rng: &mut StdRng,
) -> usize {
    // The private state is the shared one with freshly folded weights —
    // what a state built from scratch on `state.part` would hold.
    let (weights, aux_weights) = fold_weights(state.view.h, targets.k(), &state.part);
    let mut private = state.private_copy(weights, aux_weights);
    let my_moves: Vec<Move> = propose_moves(comm.rank(), &mut private, targets, rng)
        .into_iter()
        .map(|(v, _, to)| (v, to))
        .collect();

    // Exchange and apply deterministically (rank order, proposal order),
    // revalidating against the evolving shared state.
    let mut applied = 0usize;
    for (v, to) in comm.allgather(my_moves).into_iter().flatten() {
        if state.revalidates(v, to, targets) {
            state.apply(v, to);
            applied += 1;
        }
    }
    applied
}

/// Parallel refinement: greedily restores balance (collectively, using
/// the same deterministic logic on every rank), then runs localized FM
/// pass-pairs until a pass applies no moves.
pub fn par_refine(
    comm: &mut Comm,
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
) {
    let k = targets.k();
    if k < 2 || h.num_vertices() == 0 {
        return;
    }
    let view = Replicated::block(h, fixed, comm.rank(), comm.size());
    let mut state = PartitionState::new(view, k, std::mem::take(part));

    // Balance restoration is deterministic given identical state, so all
    // ranks perform it redundantly without communication (it is rare and
    // cheap relative to FM).
    rebalance(&mut state, targets, &mut Lockstep);
    // Auxiliary feasibility repair: deterministic given identical state,
    // so ranks run it redundantly in lockstep like `rebalance`. Never
    // reached at arity 1.
    if !targets.aux.is_empty() && !state.feasible(targets) {
        greedy_repair(&mut state, targets);
    }

    for _ in 0..cfg.max_passes {
        let moved = par_pass(comm, &mut state, targets, rng);
        if moved == 0 {
            break;
        }
    }
    *part = state.part;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use dlb_mpisim::run_spmd;

    #[test]
    fn parallel_refine_improves_and_agrees() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let targets = PartTargets::uniform(100.0, 2, 0.05);
        let fixed = FixedAssignment::free(100);
        let cfg = RefinementConfig::default();
        // Column-parity stripes: bad cut.
        let initial: Vec<usize> = (0..100).map(|v| v % 2).collect();
        let before = metrics::cutsize_connectivity(&h, &initial, 2);
        let results = run_spmd(4, |comm| {
            let mut part = initial.clone();
            let mut rng = StdRng::seed_from_u64(3);
            par_refine(comm, &h, &targets, &fixed, &mut part, &cfg, &mut rng);
            part
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0], "ranks disagree after refinement");
        }
        let after = metrics::cutsize_connectivity(&h, &results[0], 2);
        assert!(after < before, "cut {before} -> {after}");
        assert!(metrics::imbalance(&h, &results[0], 2) <= 1.05 + 1e-9);
    }

    #[test]
    fn parallel_refine_keeps_fixed_vertices() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let targets = PartTargets::uniform(64.0, 2, 0.05);
        let mut fixed = FixedAssignment::free(64);
        let initial: Vec<usize> = (0..64).map(|v| v % 2).collect();
        for v in (0..64).step_by(5) {
            fixed.fix(v, initial[v]);
        }
        let cfg = RefinementConfig::default();
        let results = run_spmd(2, |comm| {
            let mut part = initial.clone();
            let mut rng = StdRng::seed_from_u64(5);
            par_refine(comm, &h, &targets, &fixed, &mut part, &cfg, &mut rng);
            part
        });
        for v in (0..64).step_by(5) {
            assert_eq!(results[0][v], initial[v], "fixed vertex {v} moved");
        }
    }
}
