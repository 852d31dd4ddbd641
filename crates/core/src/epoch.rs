//! Multi-epoch simulation: the experiment loop behind Figures 2–8.
//!
//! Each trial starts from a static partition, streams epochs from any
//! [`EpochSource`] — the paper's synthetic perturbations
//! ([`dlb_workloads::EpochStream`]) or the real quadtree AMR workload
//! ([`dlb_workloads::AmrSource`]) — invokes one of the four algorithms
//! per epoch, commits the new assignment back to the source (so the
//! next epoch's dynamics and old-parts see it), and accumulates
//! per-epoch cost and timing. Measured sessions additionally run the
//! [`crate::exec`] execution model each epoch, so the summary carries
//! observed makespans next to the model costs; incremental sessions
//! pull [`EpochUpdate`] deltas and patch the repartitioning model in
//! place ([`crate::delta`]) under the session's drift-threshold rule
//! ([`crate::Session::drift_threshold`]).

use std::time::{Duration, Instant};

use dlb_mpisim::{Comm, FaultPlan, WorldMembership};
use dlb_workloads::{EpochSource, EpochUpdate};

use crate::cost::CostBreakdown;
use crate::delta::ModelPatcher;
use crate::driver::{repartition_on, Algorithm, Prebuilt, RepartConfig, RepartProblem};
use crate::elastic::{perform_resize, ResizeChoice, ResizeRecord, WorldPlan};
use crate::exec::{measure_epoch_with_faults, CompetitiveRatio, EpochExecution, NetworkModel};
use crate::recover::recover_from_failure;
use crate::session::SessionError;

/// The per-epoch drift policy of an incremental run: epochs whose delta
/// touched less than `drift_threshold` of the mesh are patched and
/// warm-start refined; epochs at or above it get a full V-cycle (on the
/// patched model — the patch invariant makes that bit-identical to a
/// scratch rebuild). `drift_threshold = 0.0` therefore reproduces the
/// non-incremental pipeline's outputs exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct IncrementalPolicy {
    /// Warm-start when `touched_fraction < drift_threshold` (strict).
    pub drift_threshold: f64,
}

/// One rank-failure recovery performed at an epoch boundary
/// (DESIGN.md §12).
#[derive(Clone, Debug)]
pub struct RecoveryRecord {
    /// The failed rank's id in the *launch-time* `0..k` world (fault
    /// plans always speak original ids, however many ranks have already
    /// died).
    pub failed_rank: usize,
    /// Epoch at whose boundary the failure was detected (1-based).
    pub epoch: usize,
    /// Surviving parts before this recovery.
    pub k_before: usize,
    /// Surviving parts after (always `k_before - 1`).
    pub k_after: usize,
    /// Vertices orphaned by the failure.
    pub orphans: usize,
    /// Model migration volume of the recovery move, including the
    /// orphan restore.
    pub migration: f64,
    /// Measured migration-phase makespan of the recovery exchange in
    /// seconds (`0.0` when the trial runs without a network model).
    pub t_mig: f64,
}

/// Per-epoch measurements.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch index (1-based; epoch 0 is the static partition).
    pub epoch: usize,
    /// Cost components under the chosen assignment.
    pub cost: CostBreakdown,
    /// Load imbalance after repartitioning.
    pub imbalance: f64,
    /// Vertices that changed parts.
    pub moved: usize,
    /// Epoch problem size.
    pub num_vertices: usize,
    /// Wall-clock repartitioning time.
    pub elapsed: Duration,
    /// Measured execution of the epoch (only under the `_measured`
    /// simulation variants).
    pub execution: Option<EpochExecution>,
    /// Rank-failure recoveries performed at this epoch's boundary
    /// (empty on fault-free epochs). When non-empty, the epoch's
    /// repartition *was* the recovery chain: `cost.migration` and the
    /// execution's `t_mig`/`mig_volume` fold in every step.
    pub recoveries: Vec<RecoveryRecord>,
    /// Planned world resizes performed at this epoch's boundary (at
    /// most one — all net joins and leaves of the epoch apply in a
    /// single repartition). Folds into the epoch's report exactly like
    /// a recovery step.
    pub resizes: Vec<ResizeRecord>,
    /// Parts alive after this epoch's boundary events (failures and
    /// planned resizes applied).
    pub world_k: usize,
}

/// Aggregate over a trial's epochs.
#[derive(Clone, Debug)]
pub struct SimulationSummary {
    /// The algorithm simulated.
    pub algorithm: Algorithm,
    /// α used.
    pub alpha: f64,
    /// Number of parts at launch. Rank failures and planned resizes
    /// move the live world away from this; see
    /// [`SimulationSummary::world_timeline`] and the per-epoch
    /// [`EpochReport::recoveries`] / [`EpochReport::resizes`].
    pub k: usize,
    /// Per-epoch reports, in order.
    pub reports: Vec<EpochReport>,
}

impl SimulationSummary {
    /// Mean communication volume per epoch.
    pub fn mean_comm(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.cost.comm))
    }

    /// Mean migration volume per epoch.
    pub fn mean_migration(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.cost.migration))
    }

    /// Mean normalized total cost (`comm + mig/α`) per epoch — the
    /// quantity the paper's bar charts plot.
    pub fn mean_normalized_total(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.cost.normalized_total()))
    }

    /// Mean normalized migration component (`mig/α`, the top bar).
    pub fn mean_normalized_migration(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.cost.normalized_migration()))
    }

    /// Total repartitioning wall-clock across epochs.
    pub fn total_elapsed(&self) -> Duration {
        self.reports.iter().map(|r| r.elapsed).sum()
    }

    /// Mean repartitioning wall-clock per epoch.
    pub fn mean_elapsed(&self) -> Duration {
        let total = self.total_elapsed();
        if self.reports.is_empty() {
            Duration::ZERO
        } else {
            total / self.reports.len() as u32
        }
    }

    /// Worst imbalance over the trial.
    pub fn max_imbalance(&self) -> f64 {
        self.reports.iter().map(|r| r.imbalance).fold(1.0, f64::max)
    }

    /// Rank-failure recoveries performed over the trial.
    pub fn total_recoveries(&self) -> usize {
        self.reports.iter().map(|r| r.recoveries.len()).sum()
    }

    /// Planned world resizes performed over the trial.
    pub fn total_resizes(&self) -> usize {
        self.reports.iter().map(|r| r.resizes.len()).sum()
    }

    /// The per-epoch world-size timeline `(epoch, parts alive after its
    /// boundary events)` — covering planned grow and shrink as well as
    /// failures. [`SimulationSummary::surviving_k`] is its final entry.
    pub fn world_timeline(&self) -> Vec<(usize, usize)> {
        self.reports.iter().map(|r| (r.epoch, r.world_k)).collect()
    }

    /// Number of parts still alive after the trial's last epoch — the
    /// final entry of [`SimulationSummary::world_timeline`] (the launch
    /// `k` for an empty trial).
    pub fn surviving_k(&self) -> usize {
        self.reports.last().map_or(self.k, |r| r.world_k)
    }

    /// Mean measured epoch makespan in seconds, if the trial was run
    /// with a [`NetworkModel`] (`None` otherwise).
    pub fn mean_makespan(&self) -> Option<f64> {
        self.mean_execution(|e| e.makespan())
    }

    /// Mean measured compute / communication / migration phase times in
    /// seconds (per epoch; compute and communication are per-iteration
    /// makespans, migration per-epoch).
    pub fn mean_phase_times(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.mean_execution(|e| e.t_comp)?,
            self.mean_execution(|e| e.t_comm)?,
            self.mean_execution(|e| e.t_mig)?,
        ))
    }

    fn mean_execution(&self, f: impl Fn(&EpochExecution) -> f64) -> Option<f64> {
        if self.reports.is_empty() || self.reports.iter().any(|r| r.execution.is_none()) {
            return None;
        }
        Some(mean(self.reports.iter().map(|r| f(r.execution.as_ref().unwrap()))))
    }

    /// The online [`CompetitiveRatio`] of this (policy) run against a
    /// `baseline` run of the same measured workload. `None` unless both
    /// runs are measured over the same number of epochs.
    pub fn competitive_ratio_vs(&self, baseline: &SimulationSummary) -> Option<CompetitiveRatio> {
        CompetitiveRatio::from_summaries(self, baseline)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// What one epoch loop runs: everything [`run_epochs`] needs besides
/// the execution context (`comm`) and the workload. Built once by
/// [`crate::session::Session`].
pub(crate) struct EpochParams<'a> {
    pub num_epochs: usize,
    pub algorithm: Algorithm,
    pub alpha: f64,
    pub cfg: &'a RepartConfig,
    /// Turns on the measured execution model.
    pub network: Option<&'a NetworkModel>,
    /// Rank failures recovered at epoch boundaries, message drop/delay
    /// injected into the measured migration world.
    pub faults: Option<&'a FaultPlan>,
    /// Planned rank arrivals and departures, applied as elastic resizes
    /// at epoch boundaries, after any failures.
    pub world: Option<&'a WorldPlan>,
    /// Delta-driven model patching with warm starts (serial only).
    pub incremental: Option<IncrementalPolicy>,
}

/// The shared epoch loop: `comm` selects serial vs collective
/// repartitioning. Public API: [`crate::session::Session`].
///
/// A fault or world plan that cannot run on the source's `k`-part world
/// is refused with [`SessionError::InvalidPlan`] before the first epoch:
/// the check reads only the shared plans and `source.k()`, so every rank
/// of an SPMD world returns the same error before any collective.
///
/// Failure detection is plan-driven: every driver rank consults the
/// shared plan at the epoch boundary (a perfect failure detector), so
/// no extra collectives run and fault-free trials stay bit-identical
/// to a build without this feature. World plans are consumed the same
/// way, so plan-free (and net-no-op) epochs are bitwise unaffected.
pub(crate) fn run_epochs<S: EpochSource + ?Sized>(
    mut comm: Option<&mut Comm>,
    source: &mut S,
    params: &EpochParams<'_>,
) -> Result<SimulationSummary, SessionError> {
    let &EpochParams { num_epochs, algorithm, alpha, cfg, network, faults, world, incremental } =
        params;
    assert!(
        incremental.is_none() || comm.is_none(),
        "incremental repartitioning has no SPMD warm start (Session validates this)"
    );
    let mut patcher = incremental.map(|_| ModelPatcher::new());
    let k0 = source.k();
    if let Some(plan) = faults {
        let joinable = world.map(|w| w.join_ranks()).unwrap_or_default();
        let out_of_range = |rank: usize| rank >= k0 && !joinable.contains(&rank);
        if let Some(f) = plan.failures().iter().find(|f| out_of_range(f.rank)) {
            return Err(SessionError::InvalidPlan(format!(
                "fault plan rank {} out of range for k = {k0}",
                f.rank
            )));
        }
    }
    if let Some(plan) = world {
        plan.validate(k0, num_epochs, faults)
            .map_err(|e| SessionError::InvalidPlan(format!("invalid world plan: {e}")))?;
    }
    // The membership of the live world: original rank ids (what the
    // plans speak) in current-label order (where the partitions live).
    let mut membership = WorldMembership::launch(k0);
    let mut reports = Vec::with_capacity(num_epochs);
    for epoch in 1..=num_epochs {
        let cur_k = membership.k();
        let span = dlb_trace::span!("epoch", epoch = epoch, k = cur_k);
        dlb_trace::count(dlb_trace::Counter::Epochs, 1);
        // Incremental runs pull a structural delta and patch the
        // previous epoch's model in place; everything else (and any
        // source falling back to a full snapshot) re-lowers from
        // scratch. `patched` carries the spliced model plus the drift
        // measure the policy decides on.
        let (snapshot, patched) = match patcher.as_mut() {
            Some(patcher) => match source.next_delta() {
                EpochUpdate::Full(snap) => {
                    patcher.prime(&snap);
                    (snap, None)
                }
                EpochUpdate::Delta(d) => {
                    let p = patcher.apply(&d, cur_k, alpha);
                    (p.snapshot, Some((p.model, p.touched_fraction)))
                }
            },
            None => (source.next_epoch(), None),
        };
        span.attr("vertices", snapshot.graph.num_vertices());
        let dying: Vec<usize> = match faults {
            Some(plan) => plan
                .ranks_failing_at(epoch)
                .into_iter()
                .filter(|&r| membership.is_live(r))
                .collect(),
            None => Vec::new(),
        };
        // The epoch's *net* planned resize, filtered exactly as
        // `WorldPlan::validate` simulates it: joins of ranks that will
        // still be live after this epoch's failures are dropped, as are
        // leaves of ranks that are dead (or dying right now — the fault
        // already removes them).
        let planned: Option<(Vec<usize>, Vec<usize>)> = world
            .map(|p| {
                let (mut joins, mut leaves) = p.resize_at(epoch);
                joins.retain(|r| !membership.is_live(*r) || dying.contains(r));
                leaves.retain(|r| membership.is_live(*r) && !dying.contains(r));
                (joins, leaves)
            })
            .filter(|(j, l)| !(j.is_empty() && l.is_empty()));
        let report = if dying.is_empty() && planned.is_none() {
            let problem = RepartProblem {
                hypergraph: &snapshot.hypergraph,
                graph: &snapshot.graph,
                old_part: &snapshot.old_part,
                k: cur_k,
                alpha,
            };
            // Drift policy: a lightly-touched epoch reuses the patched
            // model and warm-starts refinement from the old assignment;
            // a heavily-drifted one runs the full V-cycle pipeline on
            // the (bit-identical) patched model.
            let prebuilt = match &patched {
                Some((model, frac)) if algorithm == Algorithm::ZoltanRepart => {
                    let policy = incremental.expect("patched implies incremental");
                    let warm = *frac < policy.drift_threshold;
                    if warm {
                        dlb_trace::count(dlb_trace::Counter::DeltaEpochs, 1);
                    } else {
                        dlb_trace::count(dlb_trace::Counter::FullRebuilds, 1);
                    }
                    span.attr("touched_fraction", *frac);
                    span.attr("warm_start", warm as usize);
                    Some(Prebuilt { model, warm })
                }
                _ => {
                    if patcher.is_some() {
                        dlb_trace::count(dlb_trace::Counter::FullRebuilds, 1);
                    }
                    None
                }
            };
            let result = repartition_on(comm.as_deref_mut(), &problem, algorithm, cfg, prebuilt);
            let execution = network.map(|net| {
                measure_epoch_with_faults(
                    &snapshot.hypergraph,
                    &snapshot.old_part,
                    &result.new_part,
                    cur_k,
                    alpha,
                    net,
                    faults,
                )
            });
            source.commit_assignment(&snapshot, &result.new_part);
            if let Some(patcher) = patcher.as_mut() {
                patcher.commit(&snapshot.to_base, &result.new_part);
            }
            span.attr("moved", result.moved);
            EpochReport {
                epoch,
                cost: result.cost,
                imbalance: result.imbalance,
                moved: result.moved,
                num_vertices: snapshot.graph.num_vertices(),
                elapsed: result.elapsed,
                execution,
                recoveries: Vec::new(),
                resizes: Vec::new(),
                world_k: membership.k(),
            }
        } else {
            // Boundary events replace the epoch's repartition. First
            // the failure-recovery chain: each dead rank shrinks the
            // world by one and repartitions from the failure-time
            // assignment (its vertices free, survivors tethered —
            // DESIGN.md §12). Then at most one planned elastic resize
            // applies the epoch's net joins and leaves in a single
            // repartition (DESIGN.md §15). Incremental runs discard
            // any patched model here — these are full rebuilds by
            // definition.
            if patcher.is_some() {
                dlb_trace::count(dlb_trace::Counter::FullRebuilds, 1);
            }
            let start = Instant::now();
            let mut old = snapshot.old_part.clone();
            let mut recoveries = Vec::with_capacity(dying.len());
            let mut resizes = Vec::new();
            let mut steps: Vec<(CostBreakdown, f64, Option<EpochExecution>)> = Vec::new();
            let mut moved = 0usize;
            for &orig in &dying {
                let k_before = membership.k();
                let c = membership.label_of(orig).expect("filtered to live ranks");
                let rspan = dlb_trace::span!(
                    "recover.epoch",
                    epoch = epoch,
                    rank = orig,
                    k_before = k_before
                );
                dlb_trace::count(dlb_trace::Counter::FaultsInjected, 1);
                dlb_trace::count(dlb_trace::Counter::RecoveriesRun, 1);
                let out = recover_from_failure(
                    comm.as_deref_mut(),
                    &snapshot.hypergraph,
                    &old,
                    c,
                    k_before,
                    alpha,
                    cfg,
                );
                // The recovery exchange physically runs on the full
                // pre-failure world: the dead rank ships all its data
                // out, the simulation's stand-in for a checkpoint
                // restore, so the recovery volume lands in t_mig.
                let execution = network.map(|net| {
                    measure_epoch_with_faults(
                        &snapshot.hypergraph,
                        &old,
                        &out.exec_part,
                        k_before,
                        alpha,
                        net,
                        faults,
                    )
                });
                rspan.attr("orphans", out.orphans);
                rspan.attr("migration", out.cost.migration);
                if let Some(e) = &execution {
                    rspan.attr("t_mig", e.t_mig);
                }
                recoveries.push(RecoveryRecord {
                    failed_rank: orig,
                    epoch,
                    k_before,
                    k_after: k_before - 1,
                    orphans: out.orphans,
                    migration: out.cost.migration,
                    t_mig: execution.as_ref().map_or(0.0, |e| e.t_mig),
                });
                membership.remove(orig);
                moved += out.moved;
                old = out.part;
                steps.push((out.cost, out.imbalance, execution));
            }
            if let Some((joins, leaves)) = planned {
                let k_before = membership.k();
                let leave_labels = membership.resize(&leaves, &joins);
                let k_after = membership.k();
                let rspan = dlb_trace::span!(
                    "resize.epoch",
                    epoch = epoch,
                    k_before = k_before,
                    k_after = k_after
                );
                dlb_trace::count(dlb_trace::Counter::ResizesRun, 1);
                dlb_trace::count(dlb_trace::Counter::RanksJoined, joins.len() as u64);
                dlb_trace::count(dlb_trace::Counter::RanksDeparted, leaves.len() as u64);
                let out = perform_resize(
                    comm.as_deref_mut(),
                    &snapshot.hypergraph,
                    &old,
                    &leave_labels,
                    joins.len(),
                    k_before,
                    alpha,
                    cfg,
                    network,
                    faults,
                );
                match out.choice {
                    ResizeChoice::Repart => {
                        dlb_trace::count(dlb_trace::Counter::ResizeChoseRepart, 1)
                    }
                    ResizeChoice::Scratch => {
                        dlb_trace::count(dlb_trace::Counter::ResizeChoseScratch, 1)
                    }
                }
                rspan.attr("migration", out.cost.migration);
                rspan.attr("chose_scratch", (out.choice == ResizeChoice::Scratch) as usize);
                resizes.push(ResizeRecord {
                    epoch,
                    joined: joins,
                    departed: leaves,
                    k_before,
                    k_after,
                    choice: out.choice,
                    repart_cost: out.repart_cost,
                    scratch_cost: out.scratch_cost,
                    migration: out.cost.migration,
                    t_mig: out.execution.as_ref().map_or(0.0, |e| e.t_mig),
                });
                moved += out.moved;
                old = out.part;
                steps.push((out.cost, out.imbalance, out.execution));
            }
            // The epoch's report is the final step's, with the earlier
            // steps' migration charges folded in.
            let (mut cost, imbalance, mut execution) =
                steps.pop().expect("at least one boundary event");
            for (step_cost, _, exec) in &steps {
                cost.migration += step_cost.migration;
                if let (Some(e), Some(se)) = (execution.as_mut(), exec.as_ref()) {
                    e.t_mig += se.t_mig;
                    e.mig_volume += se.mig_volume;
                }
            }
            source.commit_assignment(&snapshot, &old);
            if let Some(patcher) = patcher.as_mut() {
                patcher.commit(&snapshot.to_base, &old);
            }
            span.attr("moved", moved);
            span.attr("recoveries", recoveries.len());
            span.attr("resizes", resizes.len());
            EpochReport {
                epoch,
                cost,
                imbalance,
                moved,
                num_vertices: snapshot.graph.num_vertices(),
                elapsed: start.elapsed(),
                execution,
                recoveries,
                resizes,
                world_k: membership.k(),
            }
        };
        reports.push(report);
    }
    Ok(SimulationSummary { algorithm, alpha, k: k0, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dlb_graphpart::{partition_kway, GraphConfig};
    use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

    fn make_stream(kind: DatasetKind, k: usize, perturbation: Perturbation, seed: u64) -> EpochStream {
        let d = Dataset::generate(kind, 0.0005, seed);
        let init = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
        EpochStream::new(d.graph, perturbation, k, init, seed)
    }

    fn run(
        stream: &mut EpochStream,
        epochs: usize,
        alg: Algorithm,
        alpha: f64,
        cfg: &RepartConfig,
    ) -> SimulationSummary {
        Session::new(cfg.clone())
            .algorithm(alg)
            .alpha(alpha)
            .epochs(epochs)
            .workload(stream)
            .run()
            .unwrap()
    }

    #[test]
    fn simulation_runs_all_algorithms() {
        for alg in Algorithm::ALL {
            let mut stream = make_stream(DatasetKind::Auto, 4, Perturbation::structure(), 3);
            let summary = run(&mut stream, 3, alg, 10.0, &RepartConfig::seeded(3));
            assert_eq!(summary.reports.len(), 3, "{}", alg.name());
            assert!(summary.mean_normalized_total() > 0.0);
            assert!(summary.max_imbalance() < 1.5, "{}", alg.name());
        }
    }

    #[test]
    fn weight_perturbation_simulation() {
        let mut stream = make_stream(DatasetKind::Cage14, 4, Perturbation::weights(), 5);
        let summary =
            run(&mut stream, 3, Algorithm::ZoltanRepart, 100.0, &RepartConfig::seeded(5));
        assert_eq!(summary.reports.len(), 3);
        // Weight growth must be rebalanced.
        assert!(summary.max_imbalance() <= 1.3, "imbalance {}", summary.max_imbalance());
    }

    #[test]
    fn repart_beats_scratch_on_total_cost_at_alpha_one() {
        // The paper's headline observation at small alpha. A single seed
        // can land within noise of a tie, so assert on the mean over a
        // few independent streams.
        let mut repart_total = 0.0;
        let mut scratch_total = 0.0;
        for seed in 11..16 {
            let mut s1 = make_stream(DatasetKind::Auto, 4, Perturbation::structure(), seed);
            let repart =
                run(&mut s1, 3, Algorithm::ZoltanRepart, 1.0, &RepartConfig::seeded(seed));
            let mut s2 = make_stream(DatasetKind::Auto, 4, Perturbation::structure(), seed);
            let scratch =
                run(&mut s2, 3, Algorithm::ZoltanScratch, 1.0, &RepartConfig::seeded(seed));
            repart_total += repart.mean_normalized_total();
            scratch_total += scratch.mean_normalized_total();
        }
        assert!(
            repart_total < scratch_total,
            "repart {repart_total} should beat scratch {scratch_total} at alpha=1 (5-seed mean)"
        );
    }

    #[test]
    fn parallel_simulation_matches_rank_consensus() {
        use dlb_mpisim::run_spmd;
        let results = run_spmd(2, |comm| {
            let mut stream = make_stream(DatasetKind::Auto, 2, Perturbation::structure(), 13);
            let s = Session::new(RepartConfig::seeded(13))
                .algorithm(Algorithm::ZoltanRepart)
                .alpha(10.0)
                .epochs(2)
                .workload(&mut stream)
                .run_on(comm)
                .unwrap();
            (s.mean_comm(), s.mean_migration())
        });
        assert_eq!(results[0], results[1], "ranks must agree on costs");
    }

    #[test]
    fn measured_simulation_populates_executions() {
        let mut stream = make_stream(DatasetKind::Auto, 2, Perturbation::weights(), 9);
        let s = Session::new(RepartConfig::seeded(9))
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(3)
            .measured(true)
            .workload(&mut stream)
            .run()
            .unwrap();
        assert!(s.reports.iter().all(|r| r.execution.is_some()));
        let makespan = s.mean_makespan().expect("measured run");
        let (comp, comm, mig) = s.mean_phase_times().expect("measured run");
        assert!(makespan > 0.0);
        assert!((makespan - (10.0 * (comp + comm) + mig)).abs() < 1e-12);
        // The unmeasured path reports no execution.
        let mut stream = make_stream(DatasetKind::Auto, 2, Perturbation::weights(), 9);
        let s = run(&mut stream, 2, Algorithm::ZoltanRepart, 10.0, &RepartConfig::seeded(9));
        assert!(s.reports.iter().all(|r| r.execution.is_none()));
        assert_eq!(s.mean_makespan(), None);
        assert_eq!(s.mean_phase_times(), None);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let mut stream = make_stream(DatasetKind::Auto, 2, Perturbation::structure(), 7);
        let s = run(&mut stream, 4, Algorithm::ParmetisRepart, 10.0, &RepartConfig::seeded(7));
        let manual: f64 =
            s.reports.iter().map(|r| r.cost.normalized_total()).sum::<f64>() / 4.0;
        assert!((s.mean_normalized_total() - manual).abs() < 1e-12);
        assert!(s.total_elapsed() >= s.mean_elapsed());
    }

    #[test]
    fn incremental_with_zero_threshold_matches_full_rebuilds() {
        // drift_threshold = 0 never warm-starts, and the patch
        // invariant makes the patched model bit-identical to a fresh
        // lowering — so the whole report sequence must match the
        // non-incremental run exactly.
        let k = 4;
        let amr = dlb_amr::AmrConfig::small();
        let make = || {
            let stream = dlb_amr::AmrStream::new(amr, k, 17);
            let low = stream.initial_lowering();
            let init: Vec<_> = (0..low.graph.num_vertices()).map(|v| v % k).collect();
            dlb_workloads::AmrSource::new(stream, &init)
        };
        let cfg = RepartConfig::seeded(17);
        let mut a = make();
        let inc = Session::new(cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(4)
            .measured(true)
            .incremental(true)
            .drift_threshold(0.0)
            .workload(&mut a)
            .run()
            .unwrap();
        let mut b = make();
        let full = Session::new(cfg)
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(4)
            .measured(true)
            .workload(&mut b)
            .run()
            .unwrap();
        assert_eq!(inc.reports.len(), full.reports.len());
        for (i, f) in inc.reports.iter().zip(&full.reports) {
            assert_eq!(i.cost.comm, f.cost.comm);
            assert_eq!(i.cost.migration, f.cost.migration);
            assert_eq!(i.moved, f.moved);
            assert_eq!(i.num_vertices, f.num_vertices);
            assert_eq!(i.execution.unwrap().cost_volume(), f.execution.unwrap().cost_volume());
        }
        let cr = inc.competitive_ratio_vs(&full).expect("both measured");
        assert_eq!(cr.ratio(), Some(1.0), "identical runs have ratio exactly 1");
        assert_eq!(cr.policy_cost, cr.baseline_cost);
    }
}
