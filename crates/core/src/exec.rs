//! The execution model: turning a partition into a *measured* makespan.
//!
//! Everywhere else in this workspace `α·t_comm + t_mig` is a **model**
//! cost — the k-1 cut of the repartitioning hypergraph. This module
//! makes it an **observable**: it executes one epoch of the balanced
//! application on the simulated SPMD machine and clocks it under an
//! α/β (latency–bandwidth) network model:
//!
//! * **Compute** — each rank advances its owned cells; its work is the
//!   sum of owned vertex weights, and the compute phase lasts as long as
//!   the heaviest rank (`t_comp = max_p work_p · sec_per_work`).
//! * **Communication** — each cut net is a ghost exchange: the net's
//!   source vertex (its first pin, in the column-net model) sends the
//!   net's cost in bytes to every *other* part the net touches. Summed
//!   over nets this is exactly the connectivity-1 cut, so the measured
//!   per-iteration traffic equals the model's `t_comm` term by
//!   construction; the *makespan* charges each rank its own messages
//!   and bytes and takes the bottleneck rank.
//! * **Migration** — the epoch's payloads are **actually moved** by
//!   [`crate::migrate::migrate_items`] on a `k`-rank SPMD world (one
//!   part per rank, so part moves and rank moves coincide); the measured
//!   volume is what the repartitioning hypergraph's migration nets
//!   charged, and the phase lasts as long as the busiest rank's
//!   send+receive traffic.
//!
//! All AMR weights, sizes, and net costs are integer-valued `f64`s
//! (see the lowering in `dlb-amr`), so the measured sums are exact in any order
//! and the model-vs-measured equalities hold **bitwise**, not merely
//! within tolerance — `tests/amr_end_to_end.rs` asserts them with `==`.

use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::run_spmd;

use crate::migrate::{migrate_items, scatter_initial, MigrationStats};

/// Latency–bandwidth machine parameters for the measured makespan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Seconds per unit of vertex weight (one cell sub-timestep).
    pub sec_per_work: f64,
    /// Seconds per message (the α term of the α/β model).
    pub latency: f64,
    /// Seconds per payload byte (the β term, 1/bandwidth).
    pub sec_per_byte: f64,
}

impl Default for NetworkModel {
    /// A commodity-cluster regime: 1 µs per work unit, 10 µs message
    /// latency, 1 GB/s effective bandwidth. Chosen so that at the AMR
    /// workload's scale none of the three phases is negligible.
    fn default() -> Self {
        NetworkModel {
            sec_per_work: 1e-6,
            latency: 1e-5,
            sec_per_byte: 1e-9,
        }
    }
}

/// One epoch's measured execution under a partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochExecution {
    /// Compute-phase makespan per iteration (bottleneck rank), seconds.
    pub t_comp: f64,
    /// Communication-phase makespan per iteration (bottleneck rank),
    /// seconds.
    pub t_comm: f64,
    /// Migration-phase makespan (bottleneck rank), seconds.
    pub t_mig: f64,
    /// Ghost-exchange bytes per iteration, summed over ranks. Equals the
    /// connectivity-1 cut of the epoch hypergraph.
    pub comm_volume: f64,
    /// Migration bytes actually moved, summed over ranks. Equals the
    /// repartitioning hypergraph's migration-net charge.
    pub mig_volume: f64,
    /// Bottleneck-rank migration statistics
    /// ([`MigrationStats::max_over_ranks`] of the per-rank exchanges).
    pub mig_bottleneck: MigrationStats,
    /// Iterations in the epoch.
    pub alpha: f64,
}

impl EpochExecution {
    /// The epoch's measured makespan `α·(t_comp + t_comm) + t_mig`, in
    /// seconds — the observable counterpart of the paper's objective.
    pub fn makespan(&self) -> f64 {
        self.alpha * (self.t_comp + self.t_comm) + self.t_mig
    }

    /// The measured analogue of the model's total cost `α·comm + mig`,
    /// in bytes (compute excluded): what the repartitioner's objective
    /// actually governs.
    pub(crate) fn cost_volume(&self) -> f64 {
        self.alpha * self.comm_volume + self.mig_volume
    }
}

/// Online competitive-ratio tracker for incremental repartitioning:
/// cumulative measured cost volume (`α·comm + mig` bytes, see
/// [`EpochExecution::cost_volume`]) of a policy run against a
/// from-scratch baseline run, accumulated epoch by epoch in the online
/// style of competitive analysis.
///
/// A ratio ≤ 1 means the incremental policy's summed objective is no
/// worse than rebuilding and repartitioning from scratch every epoch —
/// the acceptance bar for the delta subsystem (BENCH §incremental).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompetitiveRatio {
    /// Summed policy cost volume over the epochs recorded so far.
    pub policy_cost: f64,
    /// Summed baseline cost volume over the same epochs.
    pub baseline_cost: f64,
    /// Epochs recorded.
    pub epochs: usize,
}

impl CompetitiveRatio {
    /// An empty tracker.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Accumulates one epoch's policy and baseline cost volumes.
    pub(crate) fn record(&mut self, policy_cost_volume: f64, baseline_cost_volume: f64) {
        self.policy_cost += policy_cost_volume;
        self.baseline_cost += baseline_cost_volume;
        self.epochs += 1;
    }

    /// Cumulative `policy / baseline` cost ratio, or `None` while the
    /// baseline has accumulated no cost (nothing to compete against).
    pub fn ratio(&self) -> Option<f64> {
        if self.baseline_cost > 0.0 {
            Some(self.policy_cost / self.baseline_cost)
        } else {
            None
        }
    }

    /// Builds the tracker from two *measured* simulation summaries over
    /// the same workload, pairing epochs in order. `None` unless both
    /// runs are measured and cover the same number of epochs.
    pub(crate) fn from_summaries(
        policy: &crate::epoch::SimulationSummary,
        baseline: &crate::epoch::SimulationSummary,
    ) -> Option<Self> {
        if policy.reports.len() != baseline.reports.len() || policy.reports.is_empty() {
            return None;
        }
        let mut cr = Self::new();
        for (p, b) in policy.reports.iter().zip(&baseline.reports) {
            cr.record(p.execution?.cost_volume(), b.execution?.cost_volume());
        }
        Some(cr)
    }
}

/// Measures one epoch: executes the migration exchange on a `k`-rank
/// SPMD world and clocks all three phases under `net`.
///
/// `h` is the epoch hypergraph (communication costs **unscaled**),
/// `old_part`/`new_part` the assignments before and after
/// repartitioning.
///
/// # Panics
/// Panics on length mismatches or out-of-range parts.
pub fn measure_epoch(
    h: &Hypergraph,
    old_part: &[PartId],
    new_part: &[PartId],
    k: usize,
    alpha: f64,
    net: &NetworkModel,
) -> EpochExecution {
    let n = h.num_vertices();
    assert_eq!(old_part.len(), n, "old_part length mismatch");
    assert_eq!(new_part.len(), n, "new_part length mismatch");
    assert!(k > 0, "k must be positive");
    assert!(
        new_part.iter().chain(old_part).all(|&p| p < k),
        "part out of range"
    );

    let span = dlb_trace::span!("exec.measure", vertices = n, k = k, alpha = alpha);

    // --- Compute: owned work per part, bottleneck rank. ---
    let mut work = vec![0.0f64; k];
    for v in 0..n {
        work[new_part[v]] += h.vertex_weight(v);
    }
    let t_comp = net.sec_per_work * work.iter().fold(0.0f64, |a, &w| a.max(w));

    // --- Communication: per-part message/byte ledger over cut nets. ---
    // The net's source part (first pin) sends cost bytes to every other
    // connected part. Scanning nets in order and parts per net in
    // ascending order keeps every sum deterministic.
    let mut msgs_sent = vec![0u64; k];
    let mut msgs_recv = vec![0u64; k];
    let mut bytes_sent = vec![0.0f64; k];
    let mut bytes_recv = vec![0.0f64; k];
    let mut comm_volume = 0.0f64;
    let mut touched = vec![false; k];
    let mut connected: Vec<PartId> = Vec::with_capacity(k);
    for j in 0..h.num_nets() {
        let pins = h.net(j);
        let Some(&first) = pins.first() else { continue };
        let source = new_part[first as usize];
        connected.clear();
        for &v in pins {
            let p = new_part[v as usize];
            if !touched[p] {
                touched[p] = true;
                connected.push(p);
            }
        }
        let cost = h.net_cost(j);
        connected.sort_unstable();
        for &p in &connected {
            touched[p] = false;
            if p == source {
                continue;
            }
            msgs_sent[source] += 1;
            bytes_sent[source] += cost;
            msgs_recv[p] += 1;
            bytes_recv[p] += cost;
            comm_volume += cost;
        }
    }
    let mut t_comm = 0.0f64;
    for p in 0..k {
        let t = net.latency * (msgs_sent[p] + msgs_recv[p]) as f64
            + net.sec_per_byte * (bytes_sent[p] + bytes_recv[p]);
        t_comm = t_comm.max(t);
    }

    // --- Migration: actually move the payloads, one part per rank. ---
    let sizes = h.vertex_sizes();
    let per_rank: Vec<MigrationStats> = run_spmd(k, |comm| {
        let items = scatter_initial(comm.rank(), comm.size(), old_part, |v| sizes[v]);
        migrate_items(comm, items, old_part, new_part, |s| *s).1
    });
    let mig_volume: f64 = per_rank.iter().map(|s| s.volume_sent).sum();
    let mut t_mig = 0.0f64;
    for s in &per_rank {
        let t = net.latency * (s.items_sent + s.items_received) as f64
            + net.sec_per_byte * (s.volume_sent + s.volume_received);
        t_mig = t_mig.max(t);
    }
    let mig_bottleneck = MigrationStats::max_over_ranks(&per_rank);

    // Items moved is an outcome of the partition pair, so the counter is
    // identical no matter how many ranks drive the epoch loop.
    let items_moved: u64 = per_rank.iter().map(|s| s.items_sent as u64).sum();
    dlb_trace::count(dlb_trace::Counter::MigrationItemsMoved, items_moved);
    span.attr("t_comp", t_comp);
    span.attr("t_comm", t_comm);
    span.attr("t_mig", t_mig);
    span.attr("comm_volume", comm_volume);
    span.attr("mig_volume", mig_volume);
    span.attr("items_moved", items_moved);
    drop(span);

    EpochExecution {
        t_comp,
        t_comm,
        t_mig,
        comm_volume,
        mig_volume,
        mig_bottleneck,
        alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;

    /// A 2×4 grid's column-net hypergraph with integer sizes.
    fn sample() -> (Hypergraph, Vec<PartId>, Vec<PartId>) {
        // Vertices 0..8 in two rows; net v = {v} ∪ neighbors.
        let idx = |r: usize, c: usize| r * 4 + c;
        let mut nets: Vec<Vec<usize>> = Vec::new();
        for r in 0..2 {
            for c in 0..4 {
                let mut pins = vec![idx(r, c)];
                if c > 0 {
                    pins.push(idx(r, c - 1));
                }
                if c + 1 < 4 {
                    pins.push(idx(r, c + 1));
                }
                if r > 0 {
                    pins.push(idx(r - 1, c));
                }
                if r + 1 < 2 {
                    pins.push(idx(r + 1, c));
                }
                nets.push(pins);
            }
        }
        let mut h = Hypergraph::from_nets(8, &nets, vec![4.0; 8]);
        h.set_vertex_sizes(vec![4.0; 8]);
        h.set_loads(dlb_hypergraph::VertexLoads::from_scalar(vec![2.0; 8]));
        let old = vec![0, 0, 1, 1, 0, 0, 1, 1]; // left/right halves
        let new = vec![0, 0, 0, 1, 0, 0, 1, 1]; // vertex 2 moves home
        (h, old, new)
    }

    #[test]
    fn comm_volume_equals_connectivity_cut() {
        let (h, old, new) = sample();
        for part in [&old, &new] {
            let e = measure_epoch(&h, &old, part, 2, 10.0, &NetworkModel::default());
            let model = metrics::cutsize_connectivity(&h, part, 2);
            assert_eq!(e.comm_volume, model, "measured traffic vs k-1 cut");
        }
    }

    #[test]
    fn mig_volume_equals_migration_charge() {
        let (h, old, new) = sample();
        let e = measure_epoch(&h, &old, &new, 2, 10.0, &NetworkModel::default());
        let model = metrics::migration_volume(h.vertex_sizes(), &old, &new);
        assert_eq!(e.mig_volume, model);
        assert_eq!(e.mig_volume, 4.0, "exactly vertex 2's payload");
        assert_eq!(e.mig_bottleneck.items_sent, 1);
        assert_eq!(e.mig_bottleneck.volume_received, 4.0);
    }

    #[test]
    fn static_assignment_migrates_nothing() {
        let (h, old, _) = sample();
        let e = measure_epoch(&h, &old, &old, 2, 5.0, &NetworkModel::default());
        assert_eq!(e.mig_volume, 0.0);
        assert_eq!(e.t_mig, 0.0);
        assert!(e.t_comp > 0.0);
        assert!(e.t_comm > 0.0, "the grid always has cut");
    }

    #[test]
    fn makespan_composes_the_phases() {
        let (h, old, new) = sample();
        let net = NetworkModel::default();
        let e = measure_epoch(&h, &old, &new, 2, 10.0, &net);
        assert_eq!(e.makespan(), 10.0 * (e.t_comp + e.t_comm) + e.t_mig);
        assert_eq!(e.cost_volume(), 10.0 * e.comm_volume + e.mig_volume);
        // More iterations, longer epoch.
        let e2 = measure_epoch(&h, &old, &new, 2, 100.0, &net);
        assert!(e2.makespan() > e.makespan());
        assert_eq!(
            e2.t_mig, e.t_mig,
            "migration is per-epoch, not per-iteration"
        );
    }

    #[test]
    fn compute_phase_tracks_the_heaviest_rank() {
        let (mut h, old, _) = sample();
        // Overload part 1.
        h.set_vertex_weight(3, 100.0);
        let e = measure_epoch(&h, &old, &old, 2, 1.0, &NetworkModel::default());
        // Part 1 owns vertices 2,3,6,7 with weights 2+100+2+2.
        assert_eq!(e.t_comp, 1e-6 * 106.0);
    }

    #[test]
    fn competitive_ratio_accumulates_online() {
        let mut cr = CompetitiveRatio::new();
        assert_eq!(cr.ratio(), None, "no baseline yet");
        cr.record(10.0, 20.0);
        assert_eq!(cr.ratio(), Some(0.5));
        cr.record(30.0, 20.0);
        assert_eq!(cr.epochs, 2);
        assert_eq!(cr.ratio(), Some(1.0));
        assert_eq!(cr.policy_cost, 40.0);
        assert_eq!(cr.baseline_cost, 40.0);
    }

    #[test]
    fn more_parts_never_reduce_comm_volume() {
        let (h, _, _) = sample();
        let two = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let four = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let net = NetworkModel::default();
        let e2 = measure_epoch(&h, &two, &two, 2, 1.0, &net);
        let e4 = measure_epoch(&h, &four, &four, 4, 1.0, &net);
        assert!(e4.comm_volume > e2.comm_volume, "finer cut, more traffic");
    }
}
