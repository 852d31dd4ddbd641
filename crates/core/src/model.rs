//! The repartitioning hypergraph (Section 3).

use dlb_hypergraph::{metrics, Hypergraph, HypergraphBuilder, PartId};
use dlb_mpisim::Comm;
use dlb_partitioner::{partition_fixed_on, Config as HgConfig, FixedAssignment};

/// The augmented hypergraph `H̄^j`: the epoch hypergraph `H^j` with its
/// communication nets scaled by `α`, plus `k` fixed partition vertices
/// and `|V^j|` migration nets.
#[derive(Clone, Debug)]
pub struct RepartitionHypergraph {
    /// The augmented hypergraph on `n + k` vertices. Vertices `0..n` are
    /// the epoch's computation vertices; vertices `n..n+k` are the
    /// partition vertices `u_1..u_k` (zero weight, zero size).
    pub augmented: Hypergraph,
    /// Number of computation vertices `n = |V^j|`.
    pub num_computation_vertices: usize,
    /// Number of parts `k`.
    pub k: usize,
    /// The epoch length α the communication nets were scaled by.
    pub alpha: f64,
    /// Fixed assignment: partition vertex `u_i` fixed to part `i`, all
    /// computation vertices free.
    pub fixed: FixedAssignment,
}

impl RepartitionHypergraph {
    /// Builds the repartitioning hypergraph for epoch `j` from the epoch
    /// hypergraph `h` (unscaled communication costs), the old assignment
    /// (previous part or creation part per vertex), `k`, and `α`.
    ///
    /// # Panics
    /// Panics if `old_part` has the wrong length or references a part
    /// `>= k`, or if `alpha <= 0`.
    pub fn build(h: &Hypergraph, old_part: &[PartId], k: usize, alpha: f64) -> Self {
        let anchored: Vec<Option<PartId>> = old_part.iter().map(|&p| Some(p)).collect();
        Self::build_partial(h, &anchored, k, alpha)
    }

    /// [`RepartitionHypergraph::build`] for a *partial* old assignment:
    /// vertices with `None` get **no migration net** — they are free, to
    /// be placed wherever communication and balance dictate at zero
    /// model-migration charge. This is how a resize poses its
    /// repartition candidate (DESIGN.md §15): the leaving ranks'
    /// vertices (departed or failed) are free, the survivors stay
    /// tethered to their parts by ordinary migration nets, and one
    /// fixed-vertex partitioning call onto the post-resize `k` parts
    /// solves it.
    ///
    /// # Panics
    /// Panics if `old_part` has the wrong length or references a part
    /// `>= k`, or if `alpha <= 0`.
    pub(crate) fn build_partial(
        h: &Hypergraph,
        old_part: &[Option<PartId>],
        k: usize,
        alpha: f64,
    ) -> Self {
        let n = h.num_vertices();
        assert_eq!(old_part.len(), n, "old partition length mismatch");
        assert!(
            old_part.iter().flatten().all(|&p| p < k),
            "old partition references part >= k"
        );
        assert!(alpha > 0.0, "alpha must be positive");

        let mut b = HypergraphBuilder::new(n + k);
        // Computation vertices keep their weights and sizes.
        for v in 0..n {
            b.set_vertex_weight(v, h.vertex_weight(v));
            b.set_vertex_size(v, h.vertex_size(v));
        }
        // Partition vertices carry no load and no data.
        for i in 0..k {
            b.set_vertex_weight(n + i, 0.0);
            b.set_vertex_size(n + i, 0.0);
        }
        // Multi-constraint epochs: the computation vertices keep their
        // full load vectors; partition vertices are zero on every
        // constraint. Never reached at arity 1 (the scalar weights set
        // above already are the loads).
        let arity = h.load_arity();
        if arity > 1 {
            let columns: Vec<Vec<f64>> = (0..arity)
                .map(|c| {
                    let mut col = Vec::with_capacity(n + k);
                    col.extend((0..n).map(|v| h.vertex_load(v, c)));
                    col.resize(n + k, 0.0);
                    col
                })
                .collect();
            b.set_loads(dlb_hypergraph::VertexLoads::from_columns(columns));
        }
        // Communication nets, scaled by α.
        for j in 0..h.num_nets() {
            b.add_net(h.net_cost(j) * alpha, h.net(j).iter().map(|&v| v as usize));
        }
        // Migration nets: {v, u_old(v)} with cost = size of v's data.
        // Free vertices (no old home) get none.
        for v in 0..n {
            if let Some(p) = old_part[v] {
                b.add_net(h.vertex_size(v), [v, n + p]);
            }
        }

        let mut fixed = FixedAssignment::free(n + k);
        for i in 0..k {
            fixed.fix(n + i, i);
        }

        RepartitionHypergraph {
            augmented: b.build(),
            num_computation_vertices: n,
            k,
            alpha,
            fixed,
        }
    }

    /// Extends an assignment of the computation vertices to the full
    /// augmented vertex set (partition vertices pinned to their parts).
    pub fn extend_assignment(&self, computation_part: &[PartId]) -> Vec<PartId> {
        assert_eq!(computation_part.len(), self.num_computation_vertices);
        let mut full = Vec::with_capacity(self.num_computation_vertices + self.k);
        full.extend_from_slice(computation_part);
        full.extend(0..self.k);
        full
    }

    /// Decodes a partition of the augmented hypergraph into the new
    /// assignment of the computation vertices.
    ///
    /// # Panics
    /// Panics if a partition vertex was moved off its fixed part (the
    /// partitioner must never do this).
    pub fn decode(&self, augmented_part: &[PartId]) -> Vec<PartId> {
        assert_eq!(augmented_part.len(), self.augmented.num_vertices());
        for i in 0..self.k {
            assert_eq!(
                augmented_part[self.num_computation_vertices + i],
                i,
                "partition vertex u_{i} escaped its fixed part"
            );
        }
        augmented_part[..self.num_computation_vertices].to_vec()
    }

    /// Solves the model — one fixed-vertex partitioning call onto its
    /// `k` parts — and decodes the new assignment of the computation
    /// vertices. With `comm` the partitioner runs collectively (every
    /// rank must call with identical inputs; all get the same answer),
    /// without it serially. Every epoch kind ends here: plain
    /// repartitioning and boundary resizes (failures, joins, leaves)
    /// differ only in how they *build* the (partial) model.
    pub(crate) fn solve(&self, comm: Option<&mut Comm>, cfg: &HgConfig) -> Vec<PartId> {
        let r = partition_fixed_on(comm, &self.augmented, self.k, &self.fixed, None, cfg);
        self.decode(&r.part)
    }

    /// [`solve`](Self::solve) seeded from `old_part` instead of from
    /// scratch, on the same execution context: the partitioner's warm
    /// start rebalances and refines the previous assignment and runs
    /// part-restricted V-cycles, with no from-scratch coarsening.
    pub(crate) fn solve_warm(
        &self,
        comm: Option<&mut Comm>,
        old_part: &[PartId],
        cfg: &HgConfig,
    ) -> Vec<PartId> {
        let mut cfg = cfg.clone();
        cfg.warm_start = true;
        // At least one part-restricted keep-if-better V-cycle after the
        // flat polish — that cycle is the warm seed's only chance to
        // escape the previous epoch's basin.
        cfg.num_vcycles = cfg.num_vcycles.max(2);
        let seed = self.extend_assignment(old_part);
        let r = partition_fixed_on(
            comm,
            &self.augmented,
            self.k,
            &self.fixed,
            Some(&seed),
            &cfg,
        );
        self.decode(&r.part)
    }

    /// The k-1 cut of the augmented hypergraph under an assignment of
    /// the computation vertices. By the model's construction this equals
    /// `α·comm_volume + migration_volume` — the identity the whole paper
    /// rests on, verified by `cut_identity` tests.
    pub fn objective(&self, computation_part: &[PartId]) -> f64 {
        let full = self.extend_assignment(computation_part);
        metrics::cutsize_connectivity(&self.augmented, &full, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics::{cutsize_connectivity, migration_volume};

    /// The paper's worked example (Figure 1, right; Section 3):
    /// α = 5, every vertex size 3; vertices "3" and "6" move; migration
    /// cost 6, communication volume 20 (scaled), total 26.
    #[test]
    fn paper_worked_example_costs_26() {
        // Epoch j hypergraph: vertices 1..7 and a, b  (0-indexed:
        // 1→0, 2→1, 3→2, 4→3, 5→4, 6→5, 7→6, a→7, b→8).
        // Communication nets (from Figure 1 right):
        //   {2,3,a}, {4,6,a}, {5,6,7}  — plus uncut ones; only cut ones
        // matter for the total, but include a couple of internal nets to
        // make the example honest.
        let nets = vec![
            vec![1, 2, 7], // {2,3,a}: cut, connectivity 2
            vec![3, 5, 7], // {4,6,a}: cut, connectivity 3
            vec![4, 5, 6], // {5,6,7}: cut, connectivity 2
            vec![0, 1],    // internal to V1
        ];
        let mut h = Hypergraph::from_nets_unit(9, &nets);
        for v in 0..9 {
            h.set_vertex_size(v, 3.0);
        }
        // Old parts: V1 = {1,2,3,a} → 0, V2 = {4,5} → 1, V3 = {6,7,b} → 2.
        let old = vec![0, 0, 0, 1, 1, 2, 2, 0, 2];
        let model = RepartitionHypergraph::build(&h, &old, 3, 5.0);
        model.augmented.validate().unwrap();
        assert_eq!(model.augmented.num_vertices(), 12);
        assert_eq!(model.augmented.num_nets(), 4 + 9);

        // New assignment: vertex "3" (idx 2) moves to V2, vertex "6"
        // (idx 5) moves to V3... in the paper 6 moves to V3; here old(6)=2
        // already, so emulate the paper exactly: old(6)=1, moves to 2.
        let old = vec![0, 0, 0, 1, 1, 1, 2, 0, 2];
        let model = RepartitionHypergraph::build(&h, &old, 3, 5.0);
        let mut new = old.clone();
        new[2] = 1; // vertex 3 → V2
        new[5] = 2; // vertex 6 → V3

        // Communication volume of the epoch hypergraph under `new`:
        //   {2,3,a}: parts {0,1} → λ=2 → 1; {4,6,a}: parts {1,2,0} → λ=3
        //   → 2; {5,6,7}: parts {1,2} → λ=2 → 1; internal → 0.
        assert_eq!(cutsize_connectivity(&h, &new, 3), 4.0);
        // Scaled by α=5: 20. Migration: two moved vertices × size 3 = 6.
        assert_eq!(migration_volume(h.vertex_sizes(), &old, &new), 6.0);
        // The model's objective is exactly the sum: 26.
        assert_eq!(model.objective(&new), 26.0);
    }

    #[test]
    fn cut_identity_holds_for_random_assignments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        // Random hypergraph with random sizes and costs.
        let mut b = HypergraphBuilder::new(30);
        for _ in 0..50 {
            let s = rng.gen_range(2..6);
            let pins: Vec<usize> = (0..s).map(|_| rng.gen_range(0..30)).collect();
            b.add_net(rng.gen_range(1..5) as f64, pins);
        }
        for v in 0..30 {
            b.set_vertex_size(v, rng.gen_range(1..4) as f64);
        }
        let h = b.build();
        for trial in 0..10 {
            let k = rng.gen_range(2..6);
            let alpha = [1.0, 10.0, 100.0][trial % 3];
            let old: Vec<usize> = (0..30).map(|_| rng.gen_range(0..k)).collect();
            let new: Vec<usize> = (0..30).map(|_| rng.gen_range(0..k)).collect();
            let model = RepartitionHypergraph::build(&h, &old, k, alpha);
            let expected = alpha * cutsize_connectivity(&h, &new, k)
                + migration_volume(h.vertex_sizes(), &old, &new);
            let got = model.objective(&new);
            assert!(
                (got - expected).abs() < 1e-9,
                "trial {trial}: model {got} vs direct {expected}"
            );
        }
    }

    #[test]
    fn staying_home_costs_only_communication() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![2, 3], vec![1, 2]]);
        let old = vec![0, 0, 1, 1];
        let model = RepartitionHypergraph::build(&h, &old, 2, 10.0);
        // No migration: objective = 10 * cut({1,2} net) = 10.
        assert_eq!(model.objective(&old), 10.0);
    }

    #[test]
    fn partition_vertices_have_no_weight() {
        let h = Hypergraph::from_nets_unit(3, &[vec![0, 1, 2]]);
        let model = RepartitionHypergraph::build(&h, &[0, 1, 1], 2, 1.0);
        assert_eq!(model.augmented.vertex_weight(3), 0.0);
        assert_eq!(model.augmented.vertex_weight(4), 0.0);
        assert_eq!(model.augmented.total_vertex_weight(), 3.0);
    }

    #[test]
    fn fixed_assignment_pins_partition_vertices_only() {
        let h = Hypergraph::from_nets_unit(3, &[vec![0, 1, 2]]);
        let model = RepartitionHypergraph::build(&h, &[0, 1, 0], 2, 1.0);
        assert_eq!(model.fixed.num_fixed(), 2);
        assert_eq!(model.fixed.get(3), Some(0));
        assert_eq!(model.fixed.get(4), Some(1));
        assert_eq!(model.fixed.get(0), None);
    }

    #[test]
    fn decode_strips_partition_vertices() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        let model = RepartitionHypergraph::build(&h, &[0, 1], 2, 1.0);
        let decoded = model.decode(&[1, 1, 0, 1]);
        assert_eq!(decoded, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "escaped its fixed part")]
    fn decode_rejects_moved_partition_vertex() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        let model = RepartitionHypergraph::build(&h, &[0, 1], 2, 1.0);
        let _ = model.decode(&[0, 1, 1, 0]);
    }

    #[test]
    fn build_partial_omits_migration_nets_for_free_vertices() {
        let mut h = Hypergraph::from_nets_unit(3, &[vec![0, 1, 2]]);
        h.set_vertex_size(1, 7.0);
        let model = RepartitionHypergraph::build_partial(&h, &[Some(0), None, Some(1)], 2, 2.0);
        // 1 comm net + migration nets for v0 and v2 only; v1 is free.
        assert_eq!(model.augmented.num_nets(), 3);
        // Placing the free vertex on either part charges no migration:
        // the objective difference is purely the (here unchanged) cut.
        assert_eq!(model.objective(&[0, 0, 1]), model.objective(&[0, 1, 1]));
        // The anchored model charges v1's size (7) for the same move.
        let anchored = RepartitionHypergraph::build(&h, &[0, 0, 1], 2, 2.0);
        assert_eq!(
            anchored.objective(&[0, 1, 1]) - anchored.objective(&[0, 0, 1]),
            7.0
        );
    }

    #[test]
    fn migration_net_costs_equal_vertex_sizes() {
        let mut h = Hypergraph::from_nets_unit(3, &[vec![0, 1, 2]]);
        h.set_vertex_size(1, 7.0);
        let model = RepartitionHypergraph::build(&h, &[0, 0, 1], 2, 2.0);
        // Nets 0 = comm (cost 2·1); nets 1..4 = migration for v0, v1, v2.
        assert_eq!(model.augmented.net_cost(0), 2.0);
        assert_eq!(model.augmented.net_cost(2), 7.0);
    }
}
