//! Rank failures and recovery end-to-end (DESIGN.md §12).
//!
//! A [`WorldPlan`]'s `fail` events schedule logical-rank failures at
//! epoch boundaries. The tests here pin down the subsystem's three
//! contracts:
//!
//! 1. **Recovery works**: a rank failure mid-run shrinks the world to
//!    `k − 1` as a departure in that boundary's resize, the simulation
//!    completes, and the recovery volume is visible in the measured
//!    `t_mig` and the `RecoveriesRun` counter.
//! 2. **Determinism**: at each driver rank count (2 and 4), the same
//!    plan reproduces bit-identical recovered partitions and
//!    makespans run to run (fault "ranks" live in the workload's
//!    logical `k`-part world, so the plan means the same thing at any
//!    driver world size), whether or not the SPMD V-cycle holds its
//!    large levels block-distributed.
//! 3. **Plans are checked up front**: a plan that names a rank never in
//!    the world, or an event after the run's last epoch, is a
//!    [`SessionError::InvalidPlan`] before the first epoch, at any rank
//!    count.

use dlb::core::{Algorithm, RepartConfig, Session, SessionError, SimulationSummary, WorldPlan};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::mpisim::run_spmd;
use dlb::workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

const ALPHA: f64 = 50.0;
const SEED: u64 = 41;

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

/// The deterministic fingerprint of a run: per-epoch model costs and
/// measured makespans, all integer-valued or exactly reproducible
/// `f64`s, compared bitwise.
fn fingerprint(s: &SimulationSummary) -> Vec<(f64, f64, usize, f64)> {
    s.reports
        .iter()
        .map(|r| {
            (
                r.cost.comm,
                r.cost.migration,
                r.moved,
                r.execution.as_ref().expect("measured run").makespan(),
            )
        })
        .collect()
}

#[test]
fn injected_failure_recovers_onto_survivors() {
    let plan = WorldPlan::parse("fail2@2").unwrap();
    let s = session(4, 4).world_plan(plan).run().unwrap();
    assert_eq!(s.reports.len(), 4, "simulation completes past the failure");
    assert_eq!(s.total_recoveries(), 1);
    assert_eq!(s.surviving_k(), 3);

    let r = &s.reports[1]; // epoch 2
    let rec = r.resize.as_ref().expect("epoch 2 resized");
    assert_eq!(rec.failed, vec![2]);
    assert_eq!(rec.epoch, 2);
    assert_eq!(rec.k_before, 4);
    assert_eq!(rec.k_after, 3);
    assert!(r.moved > 0, "the dead rank owned vertices");
    assert!(rec.migration > 0.0);
    // The recovery exchange lands in the measured makespan.
    let e = r.execution.as_ref().unwrap();
    assert!(e.t_mig > 0.0);
    assert_eq!(
        rec.t_mig, e.t_mig,
        "single recovery: the epoch's t_mig is the recovery's"
    );
    assert!(
        r.cost.migration >= rec.migration,
        "epoch migration charge includes the recovery"
    );
    // Fault-free epochs report no recoveries.
    for other in [0usize, 2, 3] {
        assert!(s.reports[other].resize.is_none());
    }
}

#[test]
fn two_failures_shrink_the_world_twice() {
    let plan = WorldPlan::parse("fail0@2,fail3@3").unwrap();
    let s = session(4, 4).world_plan(plan).run().unwrap();
    assert_eq!(s.total_recoveries(), 2);
    assert_eq!(s.surviving_k(), 2);
    assert_eq!(s.reports[1].resize.as_ref().unwrap().k_after, 3);
    let second = s.reports[2].resize.as_ref().unwrap();
    assert_eq!(second.failed, vec![3]);
    assert_eq!(second.k_before, 3);
    assert_eq!(second.k_after, 2);
    // A rank that already died is not recovered twice.
    let again = WorldPlan::parse("fail1@1,fail1@2").unwrap();
    let s = session(3, 3).world_plan(again).run().unwrap();
    assert_eq!(s.total_recoveries(), 1);
}

/// Acceptance criterion: at each driver rank count (2 and 4), the same
/// plan reproduces bit-identical recovered partitions,
/// recovery records, and makespans run to run. (Different rank counts
/// legitimately choose different partitions — the repo-wide rule — so
/// determinism is per configuration; failure detection itself is
/// plan-driven and adds no collectives at any rank count.)
#[test]
fn recovery_is_reproducible_at_ranks_2_and_4() {
    let plan = || WorldPlan::parse("fail1@2").unwrap();
    let run = |ranks: usize| session(4, 3).ranks(ranks).world_plan(plan()).run().unwrap();
    for ranks in [2usize, 4] {
        let a = run(ranks);
        let b = run(ranks);
        assert_eq!(fingerprint(&a), fingerprint(&b), "ranks = {ranks}");
        assert_eq!(a.total_recoveries(), 1, "ranks = {ranks}");
        assert_eq!(b.total_recoveries(), 1);
        let (ra, rb) = (
            a.reports[1].resize.as_ref().unwrap(),
            b.reports[1].resize.as_ref().unwrap(),
        );
        assert_eq!(a.reports[1].moved, b.reports[1].moved, "ranks = {ranks}");
        assert_eq!(ra.migration, rb.migration, "ranks = {ranks}");
        assert_eq!(ra.t_mig, rb.t_mig, "ranks = {ranks}");
        assert_eq!((ra.k_before, ra.k_after), (4, 3));
    }
    // One epoch path: a recovery solves on whatever execution context
    // the session has, so block-distributing the large levels changes
    // where the pins live and nothing in the reports — at one rank too.
    assert!(
        make_stream(4).next_epoch().graph.num_vertices() > 64,
        "nothing would be distributed"
    );
    for ranks in [1usize, 2, 4] {
        let [replicated, distributed] = [false, true].map(|on| {
            run_on_world(ranks, 4, |source| {
                session_with(dist_config(on), 4, 3)
                    .world_plan(plan())
                    .workload(source)
            })
        });
        assert_eq!(
            fingerprint(&distributed),
            fingerprint(&replicated),
            "ranks = {ranks}"
        );
        assert_eq!(distributed.total_recoveries(), 1, "ranks = {ranks}");
        if ranks > 1 {
            assert_eq!(
                fingerprint(&replicated),
                fingerprint(&run(ranks)),
                "ranks = {ranks}"
            );
        }
    }
}

/// Trace counters: a plan with a failure records one `RecoveriesRun`
/// per failed rank; a failure-free run records none.
#[test]
fn fault_counters_reflect_the_plan() {
    let world = WorldPlan::parse("fail1@2").unwrap();
    let (s, report) = session(3, 3).world_plan(world).run_traced().unwrap();
    assert_eq!(s.total_recoveries(), 1);
    assert_eq!(report.counter(dlb::trace::Counter::RecoveriesRun), 1);

    let (_, clean) = session(3, 3).run_traced().unwrap();
    assert_eq!(clean.counter(dlb::trace::Counter::RecoveriesRun), 0);
}

/// A plan failing a rank outside the workload's `0..k` world (that it
/// never joins) is rejected up front, not discovered mid-run: the
/// session returns the error (the library used to panic here, through
/// `run_spmd` at ranks > 1, while the CLI re-implemented the check to
/// exit 2).
#[test]
fn out_of_range_plan_rank_is_an_error_at_ranks_1_and_2() {
    for ranks in [1usize, 2] {
        let plan = WorldPlan::parse("fail9@1").unwrap();
        let err = session(4, 2)
            .ranks(ranks)
            .world_plan(plan)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SessionError::InvalidPlan(_)),
            "ranks={ranks}: {err:?}"
        );
        assert!(
            err.to_string().contains("rank 9 out of range for k = 4"),
            "ranks={ranks}: {err}"
        );
    }
}

/// An event after the run's last epoch would never apply; the session
/// refuses the plan instead of dropping the event silently.
#[test]
fn plan_event_after_the_last_epoch_is_an_error_at_ranks_1_and_2() {
    for ranks in [1usize, 2] {
        let plan = WorldPlan::parse("fail2@5").unwrap();
        let err = session(4, 2)
            .ranks(ranks)
            .world_plan(plan)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SessionError::InvalidPlan(_)),
            "ranks={ranks}: {err:?}"
        );
        assert_eq!(
            err.to_string(),
            "invalid world plan: fail2@5 falls after the run's last epoch (2)",
            "ranks={ranks}"
        );
    }
}

/// ...so a caller that unwraps sees the plan message.
#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_plan_rank_panics_up_front() {
    let plan = WorldPlan::parse("fail9@1").unwrap();
    session(4, 2).world_plan(plan).run().unwrap();
}
