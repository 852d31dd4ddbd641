//! Elastic worlds end-to-end (DESIGN.md §15).
//!
//! A [`WorldPlan`] schedules planned rank arrivals and departures; the
//! epoch driver applies them at epoch boundaries as fixed-vertex
//! resizes, with the cost model arbitrating repartition-vs-scratch per
//! resize. The tests pin down the subsystem's contracts:
//!
//! 1. **Resizing works**: grows populate the joining spares, shrinks
//!    evacuate the leavers, the records carry both candidate costs, and
//!    the world timeline tracks every change.
//! 2. **Determinism**: chained shrink→grow→shrink schedules reproduce
//!    bit-identical outputs run to run at driver rank counts 1, 2, 4 —
//!    and whether or not the SPMD V-cycle holds its large levels
//!    block-distributed.
//! 3. **Plan-free purity**: an empty plan — and a plan whose every
//!    epoch nets to no change — is bitwise identical to no plan at all.
//! 4. **Chaos-soak determinism**: planned churn and hard failures over
//!    hundreds of epochs of the AMR workload leave the
//!    delivered science (per-epoch mesh fingerprints, partition
//!    excluded) bit-identical to a churn-free run, at driver ranks
//!    {2, 4} × threads {1, 2}.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{
    Algorithm, AuditLedger, AuditedSource, RepartConfig, Session, SessionError, SimulationSummary,
    WorldPlan,
};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::PartId;
use dlb::mpisim::run_spmd;
use dlb::workloads::{
    AmrSource, Dataset, DatasetKind, EpochSnapshot, EpochSource, EpochStream, Perturbation,
};

const ALPHA: f64 = 50.0;
const SEED: u64 = 23;

fn make_stream(k: usize) -> EpochStream {
    let d = Dataset::generate(DatasetKind::Auto, 0.0008, SEED);
    let init = partition_kway(&d.graph, k, &GraphConfig::seeded(SEED)).part;
    EpochStream::new(d.graph, Perturbation::weights(), k, init, SEED)
}

fn session<'a>(k: usize, epochs: usize) -> Session<'a> {
    session_with(RepartConfig::seeded(SEED), k, epochs)
}

fn session_with<'a>(cfg: RepartConfig, k: usize, epochs: usize) -> Session<'a> {
    Session::new(cfg)
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(ALPHA)
        .epochs(epochs)
        .measured(true)
        .workload_factory(move |_| make_stream(k))
}

/// `dist.distributed` on or off, with the gather threshold far below
/// the epoch model's vertex count so that, when on, the fine levels of
/// every V-cycle really are block-distributed.
fn dist_config(distributed: bool) -> RepartConfig {
    let mut cfg = RepartConfig::seeded(SEED);
    cfg.hypergraph.dist.distributed = distributed;
    cfg.hypergraph.dist.gather_threshold = 64;
    cfg
}

/// Runs `session` collectively on a hand-made `ranks`-rank world. A
/// one-rank [`Session`] without `dist.distributed` is the serial driver,
/// so this is the only way to the one-rank *replicated* twin of a
/// distributed run.
fn run_on_world(
    ranks: usize,
    k: usize,
    session: impl for<'a> Fn(&'a mut EpochStream) -> Session<'a> + Sync,
) -> SimulationSummary {
    run_spmd(ranks, |comm| {
        session(&mut make_stream(k)).run_on(comm).unwrap()
    })
    .pop()
    .unwrap()
}

/// The deterministic fingerprint of a run: per-epoch model costs,
/// movement, world size, and measured makespans, compared bitwise.
fn fingerprint(s: &SimulationSummary) -> Vec<(f64, f64, usize, usize, f64)> {
    s.reports
        .iter()
        .map(|r| {
            (
                r.cost.comm,
                r.cost.migration,
                r.moved,
                r.world_k,
                r.execution.as_ref().expect("measured run").makespan(),
            )
        })
        .collect()
}

#[test]
fn planned_grow_populates_the_joiner() {
    let plan = WorldPlan::parse("join4@2").unwrap();
    let s = session(4, 4).world_plan(plan).run().unwrap();
    assert_eq!(s.reports.len(), 4);
    assert_eq!(s.total_resizes(), 1);
    assert_eq!(s.surviving_k(), 5);
    assert_eq!(s.world_timeline(), vec![(1, 4), (2, 5), (3, 5), (4, 5)]);

    let r = &s.reports[1]; // epoch 2
    let rec = r.resize.as_ref().expect("epoch 2 resized");
    assert_eq!(rec.epoch, 2);
    assert_eq!(rec.joined, vec![4]);
    assert!(rec.departed.is_empty());
    assert_eq!((rec.k_before, rec.k_after), (4, 5));
    assert!(
        rec.repart_cost > 0.0 && rec.scratch_cost > 0.0,
        "both candidates were priced"
    );
    // Growth must actually use the spare: the next epoch's commit ran
    // on 5 parts, so balance over 5 pulls migration onto the joiner.
    assert!(rec.migration > 0.0, "vertices moved onto the joiner");
    assert_eq!(
        rec.t_mig,
        r.execution.as_ref().unwrap().t_mig,
        "single resize owns the t_mig"
    );
    for other in [0usize, 2, 3] {
        assert!(s.reports[other].resize.is_none());
    }
}

#[test]
fn planned_shrink_evacuates_the_leaver() {
    let plan = WorldPlan::parse("leave1@3").unwrap();
    let s = session(4, 4).world_plan(plan).run().unwrap();
    assert_eq!(s.total_resizes(), 1);
    assert_eq!(s.surviving_k(), 3);
    assert_eq!(s.world_timeline(), vec![(1, 4), (2, 4), (3, 3), (4, 3)]);
    let rec = s.reports[2].resize.as_ref().unwrap();
    assert_eq!(rec.departed, vec![1]);
    assert_eq!((rec.k_before, rec.k_after), (4, 3));
    assert!(rec.migration > 0.0, "the leaver's vertices shipped out");
    // The evacuation is physical: it lands in the measured migration.
    assert!(rec.t_mig > 0.0);
}

#[test]
fn faults_and_resizes_compose_at_one_boundary() {
    // Rank 2 dies at epoch 2's boundary AND the plan grows by one: one
    // resize applies both, the failed rank among the leavers.
    let world = WorldPlan::parse("fail2@2,join4@2").unwrap();
    let s = session(4, 3).world_plan(world).run().unwrap();
    assert_eq!(s.total_recoveries(), 1);
    assert_eq!(s.total_resizes(), 1);
    let r = &s.reports[1];
    let rec = r.resize.as_ref().unwrap();
    assert_eq!(
        (rec.failed.as_slice(), rec.joined.as_slice()),
        (&[2][..], &[4][..])
    );
    assert_eq!((rec.k_before, rec.k_after), (4, 4));
    assert_eq!(r.world_k, 4);
    // A failed rank may be re-admitted by a later planned join.
    let world = WorldPlan::parse("fail2@2,join2@3").unwrap();
    let s = session(4, 4).world_plan(world).run().unwrap();
    assert_eq!(s.world_timeline(), vec![(1, 4), (2, 3), (3, 4), (4, 4)]);
}

/// The claim the design rests on: a failure is a departure nobody
/// announced. `fail2@2` and `leave2@2` on the same stream run bit for bit
/// alike at driver ranks 1 and 2 — costs, imbalance, movement,
/// makespans, the world timeline and every resize figure. They differ
/// only in which list of the resize record names rank 2 and in the
/// counters that tell a recovery from a planned departure.
#[test]
fn a_failure_runs_exactly_like_a_departure_at_ranks_1_and_2() {
    use dlb::trace::Counter;
    let run = |ranks: usize, spec: &str| {
        let plan = WorldPlan::parse(spec).unwrap();
        session(4, 3)
            .ranks(ranks)
            .world_plan(plan)
            .run_traced()
            .unwrap()
    };
    let imbalances = |s: &SimulationSummary| {
        s.reports
            .iter()
            .map(|r| r.imbalance.to_bits())
            .collect::<Vec<_>>()
    };
    for ranks in [1usize, 2] {
        let (failed, mut fail_trace) = run(ranks, "fail2@2");
        let (departed, mut leave_trace) = run(ranks, "leave2@2");
        assert_eq!(
            fingerprint(&failed),
            fingerprint(&departed),
            "ranks = {ranks}"
        );
        assert_eq!(
            imbalances(&failed),
            imbalances(&departed),
            "ranks = {ranks}"
        );
        assert_eq!(failed.world_timeline(), vec![(1, 4), (2, 3), (3, 3)]);
        assert_eq!(failed.world_timeline(), departed.world_timeline());
        // The records match once rank 2 moves from `failed` to `departed`
        // (`Debug` prints every f64 exactly, so equal text is equal bits).
        let mut rec = failed.reports[1].resize.clone().expect("epoch 2 resized");
        let other = departed.reports[1]
            .resize
            .as_ref()
            .expect("epoch 2 resized");
        assert_eq!(
            (rec.failed.as_slice(), other.failed.as_slice()),
            (&[2][..], &[][..])
        );
        rec.departed = std::mem::take(&mut rec.failed);
        assert_eq!(format!("{rec:?}"), format!("{other:?}"), "ranks = {ranks}");
        // A failure counts as a recovery, a leave as a departure; every
        // other counter agrees.
        let counts = |trace: &dlb::trace::TraceReport| {
            [Counter::RecoveriesRun, Counter::RanksDeparted].map(|c| trace.counter(c))
        };
        let recoveries = fail_trace.counter(Counter::RecoveriesRun);
        assert!(recoveries > 0, "ranks = {ranks}");
        assert_eq!(counts(&fail_trace), [recoveries, 0], "ranks = {ranks}");
        assert_eq!(counts(&leave_trace), [0, recoveries], "ranks = {ranks}");
        for c in [Counter::RecoveriesRun, Counter::RanksDeparted] {
            fail_trace.counters.remove(c.name());
            leave_trace.counters.remove(c.name());
        }
        assert_eq!(fail_trace.counters, leave_trace.counters, "ranks = {ranks}");
    }
}

/// Acceptance criterion: a chained shrink→grow→shrink schedule is
/// bit-identical run to run at each driver rank count in {1, 2, 4}.
#[test]
fn chained_resizes_are_reproducible_at_ranks_1_2_and_4() {
    let plan = || WorldPlan::parse("leave2@2,join4@3,join5@3,leave0@4").unwrap();
    let run = |ranks: usize| session(4, 5).ranks(ranks).world_plan(plan()).run().unwrap();
    assert!(
        make_stream(4).next_epoch().graph.num_vertices() > 64,
        "nothing would be distributed"
    );
    for ranks in [1usize, 2, 4] {
        let a = run(ranks);
        let b = run(ranks);
        assert_eq!(fingerprint(&a), fingerprint(&b), "ranks = {ranks}");
        assert_eq!(a.total_resizes(), 3, "ranks = {ranks}");
        assert_eq!(
            a.world_timeline(),
            vec![(1, 4), (2, 3), (3, 5), (4, 4), (5, 4)]
        );
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            for (x, y) in ra.resize.iter().zip(&rb.resize) {
                assert_eq!(x.choice, y.choice, "ranks = {ranks}");
                assert_eq!(x.repart_cost, y.repart_cost, "ranks = {ranks}");
                assert_eq!(x.scratch_cost, y.scratch_cost, "ranks = {ranks}");
                assert_eq!(x.migration, y.migration, "ranks = {ranks}");
            }
        }
        // One epoch path: resizes solve on whatever execution context
        // the session has, so block-distributing the large levels
        // changes where the pins live and nothing in the reports.
        let [replicated, distributed] = [false, true].map(|on| {
            run_on_world(ranks, 4, |source| {
                session_with(dist_config(on), 4, 5)
                    .world_plan(plan())
                    .workload(source)
            })
        });
        assert_eq!(
            fingerprint(&distributed),
            fingerprint(&replicated),
            "ranks = {ranks}"
        );
        assert_eq!(distributed.total_resizes(), 3, "ranks = {ranks}");
        if ranks > 1 {
            assert_eq!(fingerprint(&replicated), fingerprint(&a), "ranks = {ranks}");
        }
    }
}

/// Plan-free purity: an empty plan, and a plan whose join and leave of
/// the same rank cancel at the same epoch, are bitwise identical to no
/// plan at all — the no-op epochs take the fast path untouched.
#[test]
fn noop_plans_are_bit_identical_to_no_plan() {
    let without = session(4, 3).run().unwrap();
    let empty = WorldPlan::parse("").unwrap();
    let with_empty = session(4, 3).world_plan(empty).run().unwrap();
    assert_eq!(fingerprint(&without), fingerprint(&with_empty));
    assert_eq!(with_empty.total_resizes(), 0);

    let cancelled = WorldPlan::parse("join7@2,leave7@2").unwrap();
    let with_cancelled = session(4, 3).world_plan(cancelled).run().unwrap();
    assert_eq!(fingerprint(&without), fingerprint(&with_cancelled));
    assert_eq!(with_cancelled.total_resizes(), 0);
}

/// Trace counters: each resize increments `ResizesRun`, the join/leave
/// tallies, and exactly one of the `resize_chose_*` counters.
#[test]
fn resize_counters_reflect_the_plan() {
    use dlb::trace::Counter;
    let plan = WorldPlan::parse("join4@2,leave0@3").unwrap();
    let (s, report) = session(4, 3).world_plan(plan).run_traced().unwrap();
    assert_eq!(s.total_resizes(), 2);
    assert_eq!(report.counter(Counter::ResizesRun), 2);
    assert_eq!(report.counter(Counter::RanksJoined), 1);
    assert_eq!(report.counter(Counter::RanksDeparted), 1);
    assert_eq!(
        report.counter(Counter::ResizeChoseRepart) + report.counter(Counter::ResizeChoseScratch),
        2,
        "every resize records its arbitration"
    );
    assert!(report.find("resize.epoch").is_some());

    let (_, clean) = session(4, 2).run_traced().unwrap();
    assert_eq!(clean.counter(Counter::ResizesRun), 0);
}

/// A schedule that would ever empty the world is rejected up front, not
/// discovered mid-run: the session returns the error (the library used
/// to panic here, through `run_spmd` at ranks > 1).
#[test]
fn world_exhausting_plan_is_an_error_at_ranks_1_and_2() {
    for ranks in [1usize, 2] {
        let plan = WorldPlan::parse("leave0@1,leave1@2").unwrap();
        let err = session(2, 3)
            .ranks(ranks)
            .world_plan(plan)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SessionError::InvalidPlan(_)),
            "ranks={ranks}: {err:?}"
        );
        assert!(
            err.to_string().contains("empties the world"),
            "ranks={ranks}: {err}"
        );
    }
}

/// ...so a caller that unwraps sees the plan message.
#[test]
#[should_panic(expected = "empties the world")]
fn world_exhausting_plan_panics_up_front() {
    let plan = WorldPlan::parse("leave0@1,leave1@2").unwrap();
    session(2, 3).world_plan(plan).run().unwrap();
}

/// Records the largest old-part label of every emitted epoch.
struct LabelProbe {
    inner: EpochStream,
    max_label: Vec<usize>,
}

impl EpochSource for LabelProbe {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn epochs_emitted(&self) -> usize {
        self.inner.epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        let snapshot = self.inner.next_epoch();
        self.max_label
            .push(snapshot.old_part.iter().copied().max().unwrap_or(0));
        snapshot
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        self.inner.commit_assignment(snapshot, part);
    }

    fn relabel_parts(&mut self, map: &[PartId]) {
        self.inner.relabel_parts(map);
    }
}

/// A structure stream remembers the last part of vertices absent from
/// an epoch. After a shrink those labels must move into the new world:
/// every emitted old part lives in the world its epoch starts in.
#[test]
fn shrinking_a_structure_stream_relabels_absent_vertices() {
    let d = Dataset::generate(DatasetKind::Auto, 0.0008, SEED);
    let init = partition_kway(&d.graph, 4, &GraphConfig::seeded(SEED)).part;
    let inner = EpochStream::new(d.graph, Perturbation::structure(), 4, init, SEED);
    let mut probe = LabelProbe {
        inner,
        max_label: Vec::new(),
    };
    let s = Session::new(RepartConfig::seeded(SEED))
        .alpha(ALPHA)
        .epochs(6)
        .world_plan(WorldPlan::parse("leave1@2").unwrap())
        .workload(&mut probe)
        .run()
        .unwrap();
    assert_eq!(
        s.world_timeline(),
        vec![(1, 4), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3)]
    );
    let mut k = 4;
    for (r, &max_label) in s.reports.iter().zip(&probe.max_label) {
        assert!(
            max_label < k,
            "epoch {}: old part {max_label} in a {k}-part world",
            r.epoch
        );
        k = r.world_k;
    }
}

// ---------------------------------------------------------------------
// The chaos soak.
// ---------------------------------------------------------------------

const SOAK_EPOCHS: usize = 200;
const SOAK_SEED: u64 = 99;
const SOAK_K: usize = 4;

fn soak_source() -> AmrSource {
    let stream = AmrStream::new(AmrConfig::small(), SOAK_K, SOAK_SEED);
    let low = stream.initial_lowering();
    let init: Vec<_> = (0..low.graph.num_vertices()).map(|v| v % SOAK_K).collect();
    AmrSource::new(stream, &init)
}

/// A 20-epoch churn cycle repeated over the soak: the world breathes
/// 4 → 5 → 6 → 5 → 4 → 5 → 4, with ranks departing and rejoining.
fn soak_world_plan() -> WorldPlan {
    let mut plan = WorldPlan::default();
    for cycle in 0..SOAK_EPOCHS / 20 {
        let base = cycle * 20;
        plan = plan
            .join(4, base + 3)
            .join(5, base + 5)
            .leave(1, base + 8)
            .leave(4, base + 12)
            .join(1, base + 15)
            .leave(5, base + 18);
    }
    // Two hard failures on top of the planned churn; the failed ranks
    // get re-admitted mid-soak.
    plan.fail(2, 41).join(2, 60).fail(0, 101).join(0, 120)
}

fn soak_config(threads: usize) -> RepartConfig {
    let mut cfg = RepartConfig::seeded(SOAK_SEED);
    cfg.hypergraph.threads = threads;
    cfg
}

/// The churn-free baseline ledger: per-epoch science fingerprints of
/// the bare AMR workload, no plans installed.
fn baseline_ledger() -> Vec<u64> {
    let mut source = AuditedSource::new(soak_source());
    let ledger = source.ledger();
    let s = Session::new(soak_config(1))
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(ALPHA)
        .epochs(SOAK_EPOCHS)
        .measured(true)
        .workload(&mut source)
        .run()
        .unwrap();
    assert_eq!(s.reports.len(), SOAK_EPOCHS);
    let digests = ledger.lock().unwrap().clone();
    assert_eq!(digests.len(), SOAK_EPOCHS);
    digests
}

/// One churned soak run: the world plan over the same workload, with every driver rank's emitted epochs audited into
/// its own ledger.
fn churned_ledgers(ranks: usize, threads: usize) -> (SimulationSummary, BTreeMap<usize, Vec<u64>>) {
    let ledgers: Arc<Mutex<BTreeMap<usize, AuditLedger>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let registry = Arc::clone(&ledgers);
    let summary = Session::new(soak_config(threads))
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(ALPHA)
        .epochs(SOAK_EPOCHS)
        .ranks(ranks)
        .measured(true)
        .world_plan(soak_world_plan())
        .workload_factory(move |rank| {
            let ledger: AuditLedger = Arc::new(Mutex::new(Vec::new()));
            registry.lock().unwrap().insert(rank, Arc::clone(&ledger));
            AuditedSource::with_ledger(soak_source(), ledger)
        })
        .run()
        .unwrap();
    let digests = ledgers
        .lock()
        .unwrap()
        .iter()
        .map(|(&rank, ledger)| (rank, ledger.lock().unwrap().clone()))
        .collect();
    (summary, digests)
}

/// Acceptance criterion: over hundreds of epochs of composed planned
/// churn and hard failures, the delivered science stays bit-identical
/// to a churn-free run — at driver ranks {2, 4} × threads {1, 2} —
/// and the soak exercised real resizes and recoveries throughout.
#[test]
fn chaos_soak_is_bit_identical_to_churn_free_run() {
    let baseline = baseline_ledger();
    let mut fingerprints = Vec::new();
    for ranks in [2usize, 4] {
        for threads in [1usize, 2] {
            let (summary, ledgers) = churned_ledgers(ranks, threads);
            assert_eq!(
                summary.reports.len(),
                SOAK_EPOCHS,
                "ranks={ranks} threads={threads}"
            );
            assert!(
                summary.total_resizes() >= 50,
                "the soak must churn: {} resizes at ranks={ranks} threads={threads}",
                summary.total_resizes()
            );
            assert_eq!(
                summary.total_recoveries(),
                2,
                "ranks={ranks} threads={threads}"
            );
            assert_eq!(
                summary.surviving_k(),
                SOAK_K,
                "every cycle returns to the launch world"
            );
            assert_eq!(ledgers.len(), ranks, "every driver rank audited its source");
            for (rank, digests) in &ledgers {
                assert_eq!(
                    digests, &baseline,
                    "rank {rank} of ranks={ranks} threads={threads} diverged from churn-free"
                );
            }
            fingerprints.push(((ranks, threads), fingerprint(&summary)));
        }
    }
    // Same churn, same threads contract: thread count never changes the
    // delivered outputs (Strict determinism), so per-rank-count the two
    // thread settings must agree bitwise — and so must a repeat run.
    for ranks in [2usize, 4] {
        let at = |t: usize| {
            &fingerprints
                .iter()
                .find(|((r, th), _)| *r == ranks && *th == t)
                .unwrap()
                .1
        };
        assert_eq!(
            at(1),
            at(2),
            "thread count changed outputs at ranks={ranks}"
        );
    }
    let (repeat, _) = churned_ledgers(2, 2);
    let first = &fingerprints
        .iter()
        .find(|((r, t), _)| (*r, *t) == (2, 2))
        .unwrap()
        .1;
    assert_eq!(
        first,
        &fingerprint(&repeat),
        "chaos soak must be reproducible run to run"
    );
}
