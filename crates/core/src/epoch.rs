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

use dlb_mpisim::Comm;
use dlb_workloads::{EpochSource, EpochUpdate};

use crate::cost::CostBreakdown;
use crate::delta::ModelPatcher;
use crate::driver::{repartition_on, Algorithm, Prebuilt, RepartConfig, RepartProblem};
use crate::elastic::{boundary_change, perform_resize, ResizeChoice, ResizeRecord, WorldPlan};
use crate::exec::{measure_epoch, CompetitiveRatio, EpochExecution, NetworkModel};
use crate::membership::WorldMembership;
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
    /// The resize performed at this epoch's boundary, if the rank set
    /// changed: every failure and every net planned join and leave of
    /// the epoch apply in that one repartition, which *is* the epoch's
    /// repartition (`cost`, `moved` and `execution` are the resize's).
    pub resize: Option<ResizeRecord>,
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
    /// `EpochReport::resize`.
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
    pub(crate) fn total_elapsed(&self) -> Duration {
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

    /// Ranks that failed (and were recovered from) over the trial.
    pub fn total_recoveries(&self) -> usize {
        self.reports
            .iter()
            .filter_map(|r| r.resize.as_ref())
            .map(|r| r.failed.len())
            .sum()
    }

    /// Boundary resizes performed over the trial, failure-only ones
    /// included.
    pub fn total_resizes(&self) -> usize {
        self.reports.iter().filter(|r| r.resize.is_some()).count()
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
        Some(mean(
            self.reports
                .iter()
                .map(|r| f(r.execution.as_ref().unwrap())),
        ))
    }

    /// The online `CompetitiveRatio` of this (policy) run against a
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
    /// Rank arrivals, departures and failures, each boundary's net
    /// change applied as one resize.
    pub world: Option<&'a WorldPlan>,
    /// Delta-driven model patching with warm starts (serial only).
    pub incremental: Option<IncrementalPolicy>,
}

/// The shared epoch loop: `comm` selects serial vs collective
/// repartitioning. Public API: [`crate::session::Session`].
///
/// A world plan that cannot run on the source's `k`-part world is
/// refused with [`SessionError::InvalidPlan`] before the first epoch:
/// the check reads only the shared plan and `source.k()`, so every rank
/// of an SPMD world returns the same error before any collective.
///
/// Failure detection is plan-driven: every driver rank consults the
/// shared world plan at the epoch boundary (a perfect failure detector),
/// so no extra collectives run, and an epoch whose rank set does not
/// change is bitwise the epoch of a run without a plan.
pub(crate) fn run_epochs<S: EpochSource + ?Sized>(
    mut comm: Option<&mut Comm>,
    source: &mut S,
    params: &EpochParams<'_>,
) -> Result<SimulationSummary, SessionError> {
    let &EpochParams {
        num_epochs,
        algorithm,
        alpha,
        cfg,
        network,
        world,
        incremental,
    } = params;
    let mut patcher = incremental.map(|_| ModelPatcher::new());
    let k0 = source.k();
    if let Some(plan) = world {
        plan.validate(k0, num_epochs)
            .map_err(|e| SessionError::InvalidPlan(format!("invalid world plan: {e}")))?;
    }
    // The membership of the live world: original rank ids (what the
    // plan speaks) in current-label order (where the partitions live).
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
        let (failed, joined, departed) = world.map_or_else(Default::default, |plan| {
            boundary_change(&membership, epoch, plan)
        });
        let report = if failed.is_empty() && joined.is_empty() && departed.is_empty() {
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
                measure_epoch(
                    &snapshot.hypergraph,
                    &snapshot.old_part,
                    &result.new_part,
                    cur_k,
                    alpha,
                    net,
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
                resize: None,
                world_k: membership.k(),
            }
        } else {
            // A boundary event replaces the epoch's repartition: one
            // resize applies the epoch's whole net change, the failed
            // ranks leaving like planned departures (their vertices
            // free, survivors tethered — DESIGN.md §15). Incremental
            // runs discard any patched model here — a resize is a full
            // rebuild by definition.
            if patcher.is_some() {
                dlb_trace::count(dlb_trace::Counter::FullRebuilds, 1);
            }
            let start = Instant::now();
            let k_before = membership.k();
            let leaving: Vec<usize> = failed.iter().chain(&departed).copied().collect();
            let leave_labels = membership.resize(&leaving, &joined);
            let k_after = membership.k();
            let rspan = dlb_trace::span!(
                "resize.epoch",
                epoch = epoch,
                k_before = k_before,
                k_after = k_after
            );
            dlb_trace::count(dlb_trace::Counter::RecoveriesRun, failed.len() as u64);
            dlb_trace::count(dlb_trace::Counter::ResizesRun, 1);
            dlb_trace::count(dlb_trace::Counter::RanksJoined, joined.len() as u64);
            dlb_trace::count(dlb_trace::Counter::RanksDeparted, departed.len() as u64);
            let out = perform_resize(
                comm.as_deref_mut(),
                &snapshot.hypergraph,
                &snapshot.old_part,
                &leave_labels,
                joined.len(),
                k_before,
                alpha,
                cfg,
                network,
            );
            match out.choice {
                ResizeChoice::Repart => dlb_trace::count(dlb_trace::Counter::ResizeChoseRepart, 1),
                ResizeChoice::Scratch => {
                    dlb_trace::count(dlb_trace::Counter::ResizeChoseScratch, 1)
                }
            }
            rspan.attr("failed", failed.len());
            rspan.attr("migration", out.cost.migration);
            rspan.attr(
                "chose_scratch",
                (out.choice == ResizeChoice::Scratch) as usize,
            );
            source.relabel_parts(&out.relabel);
            source.commit_assignment(&snapshot, &out.part);
            if let Some(patcher) = patcher.as_mut() {
                patcher.commit(&snapshot.to_base, &out.part);
            }
            span.attr("moved", out.moved);
            let resize = ResizeRecord {
                epoch,
                failed,
                joined,
                departed,
                k_before,
                k_after,
                choice: out.choice,
                repart_cost: out.repart_cost,
                scratch_cost: out.scratch_cost,
                migration: out.cost.migration,
                t_mig: out.execution.as_ref().map_or(0.0, |e| e.t_mig),
            };
            EpochReport {
                epoch,
                cost: out.cost,
                imbalance: out.imbalance,
                moved: out.moved,
                num_vertices: snapshot.graph.num_vertices(),
                elapsed: start.elapsed(),
                execution: out.execution,
                resize: Some(resize),
                world_k: k_after,
            }
        };
        reports.push(report);
    }
    Ok(SimulationSummary {
        algorithm,
        alpha,
        k: k0,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dlb_graphpart::{partition_kway, GraphConfig};
    use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

    fn make_stream(
        kind: DatasetKind,
        k: usize,
        perturbation: Perturbation,
        seed: u64,
    ) -> EpochStream {
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
        let summary = run(
            &mut stream,
            3,
            Algorithm::ZoltanRepart,
            100.0,
            &RepartConfig::seeded(5),
        );
        assert_eq!(summary.reports.len(), 3);
        // Weight growth must be rebalanced.
        assert!(
            summary.max_imbalance() <= 1.3,
            "imbalance {}",
            summary.max_imbalance()
        );
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
            let repart = run(
                &mut s1,
                3,
                Algorithm::ZoltanRepart,
                1.0,
                &RepartConfig::seeded(seed),
            );
            let mut s2 = make_stream(DatasetKind::Auto, 4, Perturbation::structure(), seed);
            let scratch = run(
                &mut s2,
                3,
                Algorithm::ZoltanScratch,
                1.0,
                &RepartConfig::seeded(seed),
            );
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
        let s = run(
            &mut stream,
            2,
            Algorithm::ZoltanRepart,
            10.0,
            &RepartConfig::seeded(9),
        );
        assert!(s.reports.iter().all(|r| r.execution.is_none()));
        assert_eq!(s.mean_makespan(), None);
        assert_eq!(s.mean_phase_times(), None);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let mut stream = make_stream(DatasetKind::Auto, 2, Perturbation::structure(), 7);
        let s = run(
            &mut stream,
            4,
            Algorithm::ParmetisRepart,
            10.0,
            &RepartConfig::seeded(7),
        );
        let manual: f64 = s
            .reports
            .iter()
            .map(|r| r.cost.normalized_total())
            .sum::<f64>()
            / 4.0;
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
            assert_eq!(
                i.execution.unwrap().cost_volume(),
                f.execution.unwrap().cost_volume()
            );
        }
        let cr = inc.competitive_ratio_vs(&full).expect("both measured");
        assert_eq!(cr.ratio(), Some(1.0), "identical runs have ratio exactly 1");
        assert_eq!(cr.policy_cost, cr.baseline_cost);
    }
}
