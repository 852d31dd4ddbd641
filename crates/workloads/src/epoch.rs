//! Epoch streams: turning a base dataset plus a perturbation into the
//! sequence of per-epoch problem instances the repartitioning driver
//! consumes.
//!
//! The paper's procedure (Section 3): the application alternates epochs
//! of computation with load-balance operations; the hypergraph `H^j` of
//! epoch `j` is known when epoch `j−1` ends, and every vertex of `H^j`
//! carries an *old part* — the part it occupied at the end of epoch
//! `j−1`, or, for newly appearing vertices, the part where they were
//! created. The stream tracks identities against the *base* dataset so
//! vertices that vanish and later reappear keep their last-known part
//! (their "creation" site on reappearance).

use dlb_hypergraph::convert::column_net_model;
use dlb_hypergraph::subset::induced_subgraph;
use dlb_hypergraph::{CsrGraph, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::perturb::{
    PerturbKind, Perturbation, DELETE_FRACTION, FACTOR_RANGE, STRUCTURE_PARTS_FRACTION,
    WEIGHT_PARTS_FRACTION,
};

/// One epoch's problem instance.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// The epoch graph (for the graph-based baselines).
    pub graph: CsrGraph,
    /// The epoch hypergraph: column-net model of `graph`, with net costs
    /// equal to the source vertex's data size (communication volume per
    /// consumer).
    pub hypergraph: Hypergraph,
    /// `to_base[epoch_vertex] = base_vertex`.
    pub to_base: Vec<usize>,
    /// Previous/creation part per epoch vertex — the "old part" the
    /// repartitioning model's migration nets attach to.
    pub old_part: Vec<PartId>,
}

/// A stateful generator of epochs over a base dataset.
pub struct EpochStream {
    base: CsrGraph,
    perturbation: Perturbation,
    k: usize,
    rng: StdRng,
    /// Last-known part per base vertex.
    last_part: Vec<PartId>,
    /// Original weights/sizes (weight perturbation scales relative to
    /// these).
    original_weight: Vec<f64>,
    original_size: Vec<f64>,
    /// Current (possibly scaled) weights/sizes per base vertex.
    current_weight: Vec<f64>,
    current_size: Vec<f64>,
    epochs_emitted: usize,
}

impl EpochStream {
    /// Creates a stream over `base` under `perturbation` for a `k`-way
    /// decomposition. `initial_part` is the static partition of epoch 1
    /// (per base vertex).
    ///
    /// # Panics
    /// Panics on a wrong-length or out-of-range initial partition.
    pub fn new(
        base: CsrGraph,
        perturbation: Perturbation,
        k: usize,
        initial_part: Vec<PartId>,
        seed: u64,
    ) -> Self {
        assert!(k > 0);
        assert_eq!(initial_part.len(), base.num_vertices());
        assert!(
            initial_part.iter().all(|&p| p < k),
            "initial part out of range"
        );
        let original_weight = base.vertex_weights().to_vec();
        let original_size = base.vertex_sizes().to_vec();
        EpochStream {
            base,
            perturbation,
            k,
            rng: StdRng::seed_from_u64(seed),
            last_part: initial_part,
            current_weight: original_weight.clone(),
            current_size: original_size.clone(),
            original_weight,
            original_size,
            epochs_emitted: 0,
        }
    }

    /// Number of parts in the decomposition.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Number of epochs emitted so far.
    pub(crate) fn epochs_emitted(&self) -> usize {
        self.epochs_emitted
    }

    /// Records the assignment the load balancer chose for an epoch, so
    /// the next epoch's old parts (and part-targeted perturbations) see
    /// it. `snapshot` must be the epoch the assignment belongs to.
    /// Labels at or beyond the launch `k` are accepted — elastic worlds
    /// grow the label space past it — but the part-targeted
    /// perturbations only ever target the launch parts.
    pub fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        assert_eq!(part.len(), snapshot.to_base.len());
        for (v, &base_v) in snapshot.to_base.iter().enumerate() {
            self.last_part[base_v] = part[v];
        }
    }

    /// Maps the last-known part of every base vertex through `map`
    /// (`map[old] = new`) when the world resizes, so a vertex absent
    /// from the resize epoch comes back with a label of the new world.
    pub(crate) fn relabel_parts(&mut self, map: &[PartId]) {
        for p in &mut self.last_part {
            *p = map[*p];
        }
    }

    /// Generates the next epoch.
    pub fn next_epoch(&mut self) -> EpochSnapshot {
        self.epochs_emitted += 1;
        match self.perturbation.kind {
            PerturbKind::Structure => self.structural_epoch(),
            PerturbKind::Weights => self.weight_epoch(),
        }
    }

    /// Structural perturbation: delete a fresh random subset of the base
    /// vertices, drawn from a random half of the parts.
    fn structural_epoch(&mut self) -> EpochSnapshot {
        let n = self.base.num_vertices();
        let affected = self.pick_parts(STRUCTURE_PARTS_FRACTION);
        let mut candidates: Vec<usize> = (0..n)
            .filter(|&v| affected.get(self.last_part[v]).copied().unwrap_or(false))
            .collect();
        candidates.shuffle(&mut self.rng);
        let quota = ((n as f64 * DELETE_FRACTION) as usize).min(candidates.len().saturating_sub(1));
        let mut keep = vec![true; n];
        for &v in &candidates[..quota] {
            keep[v] = false;
        }

        let ind = induced_subgraph(&self.base, &keep);
        let mut graph = ind.graph;
        // Weights/sizes reflect the current (possibly scaled) values.
        for (v, &base_v) in ind.to_base.iter().enumerate() {
            graph.set_vertex_weight(v, self.current_weight[base_v]);
            graph.set_vertex_size(v, self.current_size[base_v]);
        }
        let old_part: Vec<PartId> = ind.to_base.iter().map(|&b| self.last_part[b]).collect();
        let hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
        EpochSnapshot {
            graph,
            hypergraph,
            to_base: ind.to_base,
            old_part,
        }
    }

    /// Weight perturbation: scale weight and size of every vertex in a
    /// random fraction of the parts to `U(lo, hi)` × original.
    fn weight_epoch(&mut self) -> EpochSnapshot {
        let n = self.base.num_vertices();
        let affected = self.pick_parts(WEIGHT_PARTS_FRACTION);
        let (lo, hi) = FACTOR_RANGE;
        for v in 0..n {
            if affected.get(self.last_part[v]).copied().unwrap_or(false) {
                let f = self.rng.gen_range(lo..hi);
                self.current_weight[v] = self.original_weight[v] * f;
                self.current_size[v] = self.original_size[v] * f;
            }
        }
        let mut graph = self.base.clone();
        graph.set_vertex_weights(self.current_weight.clone());
        graph.set_vertex_sizes(self.current_size.clone());
        let old_part = self.last_part.clone();
        let hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
        EpochSnapshot {
            graph,
            hypergraph,
            to_base: (0..n).collect(),
            old_part,
        }
    }

    /// Selects `⌈fraction·k⌉` distinct parts at random (at least one).
    fn pick_parts(&mut self, fraction: f64) -> Vec<bool> {
        let count = ((self.k as f64 * fraction).ceil() as usize).clamp(1, self.k);
        let mut parts: Vec<usize> = (0..self.k).collect();
        parts.shuffle(&mut self.rng);
        let mut affected = vec![false; self.k];
        for &p in &parts[..count] {
            affected[p] = true;
        }
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, DatasetKind};

    fn small_base() -> (CsrGraph, Vec<PartId>) {
        let d = Dataset::generate(DatasetKind::Auto, 0.0005, 1);
        let n = d.graph.num_vertices();
        let part: Vec<usize> = (0..n).map(|v| v * 4 / n).collect();
        (d.graph, part)
    }

    #[test]
    fn structural_epochs_delete_and_restore() {
        let (base, part) = small_base();
        let n = base.num_vertices();
        let mut stream = EpochStream::new(base, Perturbation::structure(), 4, part, 7);
        let e1 = stream.next_epoch();
        assert!(e1.graph.num_vertices() < n, "some vertices deleted");
        assert!(e1.graph.num_vertices() >= n / 2, "not too many deleted");
        // A different subset next epoch: deleted vertices can return.
        let e2 = stream.next_epoch();
        assert!(e2.graph.num_vertices() < n);
        assert_ne!(
            e1.to_base, e2.to_base,
            "each epoch deletes a different subset"
        );
        e1.hypergraph.validate().unwrap();
    }

    #[test]
    fn structural_old_parts_come_from_last_assignment() {
        let (base, part) = small_base();
        let mut stream = EpochStream::new(base, Perturbation::structure(), 4, part.clone(), 8);
        let e1 = stream.next_epoch();
        for (v, &b) in e1.to_base.iter().enumerate() {
            assert_eq!(e1.old_part[v], part[b]);
        }
        // Commit a shifted assignment and verify epoch 2 sees it.
        let shifted: Vec<usize> = e1.old_part.iter().map(|&p| (p + 1) % 4).collect();
        stream.commit_assignment(&e1, &shifted);
        let e2 = stream.next_epoch();
        for (v, &b) in e2.to_base.iter().enumerate() {
            if let Some(pos) = e1.to_base.iter().position(|&x| x == b) {
                assert_eq!(e2.old_part[v], shifted[pos], "base vertex {b}");
            }
        }
    }

    #[test]
    fn weight_epochs_scale_into_range() {
        let (base, part) = small_base();
        let n = base.num_vertices();
        let mut stream = EpochStream::new(base, Perturbation::weights(), 4, part, 9);
        let e = stream.next_epoch();
        assert_eq!(e.graph.num_vertices(), n, "structure unchanged");
        let mut scaled = 0usize;
        for v in 0..n {
            let w = e.graph.vertex_weight(v);
            assert!(w == 1.0 || (1.5..7.5).contains(&w), "weight {w}");
            assert_eq!(e.graph.vertex_size(v), w, "weight and size scale together");
            if w != 1.0 {
                scaled += 1;
            }
        }
        assert!(scaled > 0, "at least one part refined");
        assert!(scaled < n, "not everything refined");
    }

    #[test]
    fn weight_scaling_is_relative_to_original() {
        let (base, part) = small_base();
        let mut stream = EpochStream::new(base, Perturbation::weights(), 4, part, 10);
        for _ in 0..12 {
            let e = stream.next_epoch();
            for v in 0..e.graph.num_vertices() {
                // Never compounds beyond the factor range.
                assert!(e.graph.vertex_weight(v) < 7.5 + 1e-9);
            }
        }
    }

    #[test]
    fn hypergraph_net_costs_track_sizes() {
        let (base, part) = small_base();
        let mut stream = EpochStream::new(base, Perturbation::weights(), 4, part, 11);
        let e = stream.next_epoch();
        for v in 0..e.graph.num_vertices() {
            assert_eq!(e.hypergraph.net_cost(v), e.graph.vertex_size(v));
        }
    }

    #[test]
    fn epochs_emitted_counts() {
        let (base, part) = small_base();
        let mut stream = EpochStream::new(base, Perturbation::structure(), 4, part, 12);
        assert_eq!(stream.epochs_emitted(), 0);
        let _ = stream.next_epoch();
        let _ = stream.next_epoch();
        assert_eq!(stream.epochs_emitted(), 2);
    }
}
