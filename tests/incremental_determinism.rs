//! Determinism of the incremental (delta-patched, warm-started)
//! repartitioning path: one seed, one answer, regardless of thread
//! count — and with the drift threshold at zero, the incremental
//! session must be indistinguishable from the full-rebuild session,
//! bit for bit, because every epoch then takes the cold path on a
//! patched model that is itself bitwise equal to a fresh lowering.

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{Algorithm, RepartConfig, Session, SimulationSummary, WorldPlan};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::workloads::AmrSource;

const EPOCHS: usize = 4;
const K: usize = 4;

fn amr_source(seed: u64) -> AmrSource {
    let stream = AmrStream::new(AmrConfig::small(), K, seed);
    let low = stream.initial_lowering();
    let initial = partition_kway(&low.graph, K, &GraphConfig::seeded(seed)).part;
    AmrSource::new(stream, &initial)
}

/// Everything a run decides or measures, per epoch, bit-exact.
fn fingerprint(s: &SimulationSummary) -> Vec<(usize, usize, f64, f64, f64, f64)> {
    s.reports
        .iter()
        .map(|r| {
            let e = r.execution.expect("measured simulation");
            (
                r.num_vertices,
                r.moved,
                r.cost.comm,
                r.cost.migration,
                r.imbalance,
                e.makespan(),
            )
        })
        .collect()
}

fn run(seed: u64, threads: usize, incremental: bool, drift_threshold: f64) -> SimulationSummary {
    run_with_plan(seed, threads, incremental.then_some(drift_threshold), None)
}

/// `incremental` carries the drift threshold of an incremental session.
fn run_with_plan(
    seed: u64,
    threads: usize,
    incremental: Option<f64>,
    plan: Option<WorldPlan>,
) -> SimulationSummary {
    let mut cfg = RepartConfig::seeded(seed);
    cfg.hypergraph.threads = threads;
    let mut source = amr_source(seed);
    let mut session = Session::new(cfg)
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(10.0)
        .epochs(EPOCHS)
        .measured(true);
    if let Some(drift_threshold) = incremental {
        session = session.incremental(true).drift_threshold(drift_threshold);
    }
    if let Some(plan) = plan {
        session = session.world_plan(plan);
    }
    session.workload(&mut source).run().unwrap()
}

/// Rerunning the identical incremental configuration reproduces the
/// identical epoch stream, partitions, and measurements.
#[test]
fn incremental_same_seed_same_answer() {
    let a = fingerprint(&run(11, 1, true, 1.0));
    let b = fingerprint(&run(11, 1, true, 1.0));
    assert_eq!(a, b);
    assert_ne!(
        fingerprint(&run(12, 1, true, 1.0)),
        a,
        "different seeds should explore different streams"
    );
}

/// The warm-started refinement path must honor the same
/// deterministic-reduction guarantee as the full V-cycle: thread count
/// changes nothing.
#[test]
fn incremental_thread_count_invariant() {
    let one = fingerprint(&run(13, 1, true, 1.0));
    for threads in [2usize, 8] {
        let multi = fingerprint(&run(13, threads, true, 1.0));
        assert_eq!(one, multi, "threads={threads} diverged from threads=1");
    }
}

/// `drift_threshold = 0` disables warm starts entirely (the comparison
/// is strict `<`), so every epoch runs a full V-cycle on the patched
/// model — which the patch invariant makes bitwise equal to a fresh
/// lowering. The two sessions must therefore agree exactly.
#[test]
fn zero_threshold_reproduces_full_rebuilds() {
    for seed in [7u64, 23] {
        let scratch = fingerprint(&run(seed, 2, false, 0.0));
        let incremental = fingerprint(&run(seed, 2, true, 0.0));
        assert_eq!(
            incremental, scratch,
            "seed {seed}: drift_threshold=0 diverged from the non-incremental session"
        );
    }
}

/// World plans compose with incremental sessions: a resize epoch
/// discards its patched model and solves cold, and the patcher picks
/// the new world size up at the next delta. With the threshold at zero
/// that is again the non-incremental session bit for bit; at the
/// default threshold (warm starts on the resized worlds) every epoch
/// still lands within ε on the planned world timeline.
#[test]
fn world_plans_compose_with_incremental_sessions() {
    let plan = || Some(WorldPlan::parse("join4@2,leave0@3").unwrap());
    let timeline = vec![(1, K), (2, K + 1), (3, K), (4, K)];
    for seed in [7u64, 23] {
        let scratch = run_with_plan(seed, 2, None, plan());
        let zero = run_with_plan(seed, 2, Some(0.0), plan());
        assert_eq!(fingerprint(&zero), fingerprint(&scratch), "seed {seed}");
        assert_eq!(zero.world_timeline(), timeline);
        assert_eq!(zero.total_resizes(), 2);

        let warm = run_with_plan(seed, 2, Some(dlb::core::DEFAULT_DRIFT_THRESHOLD), plan());
        assert_eq!(warm.world_timeline(), timeline, "seed {seed}");
        let epsilon = RepartConfig::seeded(seed).hypergraph.epsilon;
        for r in &warm.reports {
            assert!(
                r.imbalance <= 1.0 + epsilon + 1e-9,
                "seed {seed} epoch {}: imbalance {} on {} parts",
                r.epoch,
                r.imbalance,
                r.world_k
            );
        }
    }
}

/// Warm starts may trade nothing away: on the default AMR stream at
/// α = 10, the online competitive ratio (cumulative measured
/// α·comm + migration volume vs. a full lowering + V-cycle every epoch)
/// stays at or below 1.0. Drift threshold 1.0 is the maximal exercise
/// of the warm path: every delta epoch warm-starts, so no full-V-cycle
/// fallback can mask a quality gap.
#[test]
fn warm_starts_stay_competitive_with_full_vcycles() {
    const SEED: u64 = 42;
    let run = |incremental: bool| {
        let stream = AmrStream::new(AmrConfig::default(), 8, SEED);
        let low = stream.initial_lowering();
        let initial = partition_kway(&low.graph, 8, &GraphConfig::seeded(SEED)).part;
        let mut source = AmrSource::new(stream, &initial);
        let mut session = Session::new(RepartConfig::seeded(SEED))
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(6)
            .measured(true);
        if incremental {
            session = session.incremental(true).drift_threshold(1.0);
        }
        session.workload(&mut source).run().unwrap()
    };
    let cr = run(true)
        .competitive_ratio_vs(&run(false))
        .expect("both runs measured the same epoch count");
    let ratio = cr.ratio().expect("nonzero baseline cost");
    assert!(
        ratio <= 1.0 + 1e-9,
        "incremental competitive ratio {ratio:.4} exceeds 1.0 ({} vs {})",
        cr.policy_cost,
        cr.baseline_cost
    );
}
