//! Determinism of the tracing subsystem's counters (DESIGN.md §11):
//! instrumented kernels only count work that is invariant across thread
//! counts, and in SPMD worlds only rank 0 records — so one configuration
//! has one set of counter values, no matter how it is executed.

use std::collections::BTreeMap;

use dlb::hypergraph::convert::column_net_model_unit;
use dlb::hypergraph::Hypergraph;
use dlb::mpisim::run_spmd;
use dlb::partitioner::{partition_fixed_on, partition_hypergraph, Config, FixedAssignment};
use dlb::trace::TraceReport;
use dlb::workloads::{Dataset, DatasetKind};

const K: usize = 4;
const SEED: u64 = 33;

fn test_hypergraph() -> Hypergraph {
    let d = Dataset::generate(DatasetKind::Auto, 0.001, SEED);
    column_net_model_unit(&d.graph)
}

fn counters(report: &TraceReport) -> BTreeMap<&'static str, u64> {
    report.counters.clone()
}

/// Serial-family counters: the shared-memory pipeline at any thread
/// count produces the bit-identical partition *and* the bit-identical
/// counter values and span structure.
#[test]
fn counters_invariant_across_thread_counts() {
    let h = test_hypergraph();
    let run = |threads: usize| {
        let mut cfg = Config::seeded(SEED);
        cfg.threads = threads;
        let session = dlb::trace::session();
        let r = partition_hypergraph(&h, K, &cfg);
        (session.finish(), r.part)
    };
    let (base_report, base_part) = run(1);
    assert!(
        !base_report.spans.is_empty(),
        "instrumented run recorded no spans"
    );
    assert!(base_report.counter(dlb::trace::Counter::CoarsenLevels) > 0);
    for threads in [2usize, 8] {
        let (report, part) = run(threads);
        assert_eq!(part, base_part, "threads={threads} changed the partition");
        assert_eq!(
            counters(&report),
            counters(&base_report),
            "threads={threads} changed counter values"
        );
        assert_eq!(
            report.structure_signature(),
            base_report.structure_signature(),
            "threads={threads} changed the span tree"
        );
    }
}

/// Rank-family counters: at every rank count, a traced SPMD run is
/// bit-reproducible (rerunning the identical configuration reproduces
/// the identical counters and span structure), and holding the large
/// levels in memory-scalable distributed form changes neither the
/// partition nor any counter value at the same rank count. (Different
/// rank counts legitimately choose different partitions — the parallel
/// matching block-distributes work and decorrelates per-rank RNG
/// streams — so outcome-derived counters are compared within one rank
/// count, not across.)
#[test]
fn spmd_counters_reproduce_at_every_rank_count() {
    let h = test_hypergraph();
    let run = |ranks: usize, distributed: bool| {
        let mut cfg = Config::seeded(SEED);
        cfg.threads = 1;
        cfg.dist.distributed = distributed;
        // Low threshold keeps several levels distributed at this scale.
        cfg.dist.gather_threshold = 256;
        let session = dlb::trace::session();
        let free = FixedAssignment::free(h.num_vertices());
        let parts = run_spmd(ranks, |comm| {
            partition_fixed_on(Some(comm), &h, K, &free, None, &cfg).part
        });
        (session.finish(), parts)
    };
    for ranks in [1usize, 2, 4] {
        let (repl_report, repl_parts) = run(ranks, false);
        assert!(!repl_report.spans.is_empty(), "SPMD run recorded no spans");
        // All ranks of the world agree on the partition.
        for (rank, part) in repl_parts.iter().enumerate() {
            assert_eq!(*part, repl_parts[0], "rank {rank}/{ranks} disagrees");
        }
        // Rerunning reproduces counters and span structure bit-for-bit.
        let (again_report, again_parts) = run(ranks, false);
        assert_eq!(
            again_parts, repl_parts,
            "ranks={ranks} rerun changed the partition"
        );
        assert_eq!(
            counters(&again_report),
            counters(&repl_report),
            "ranks={ranks} rerun changed counter values"
        );
        assert_eq!(
            again_report.structure_signature(),
            repl_report.structure_signature(),
            "ranks={ranks} rerun changed the span tree"
        );
        // The distributed pin storage chooses the identical partition at
        // the same rank count and is itself reproducible.
        let (dist_report, dist_parts) = run(ranks, true);
        for (rank, part) in dist_parts.iter().enumerate() {
            assert_eq!(
                *part, repl_parts[0],
                "distributed rank {rank}/{ranks} diverged from the replicated run"
            );
        }
        // One driver, one counter vocabulary: holding levels in
        // distributed form changes no counter value.
        assert_eq!(
            counters(&dist_report),
            counters(&repl_report),
            "ranks={ranks}: distributed levels changed counter values"
        );
        let (dist_again, _) = run(ranks, true);
        assert_eq!(
            counters(&dist_again),
            counters(&dist_report),
            "distributed ranks={ranks} rerun changed counter values"
        );
    }
}

/// A counter that *is* invariant across rank counts: the epoch count of
/// a simulation. Only rank 0 of a world records, and every rank executes
/// the same number of epochs, so the value equals the configured epoch
/// count at any world size.
#[test]
fn epoch_counter_invariant_across_rank_counts() {
    use dlb::core::{Algorithm, RepartConfig, Session};
    use dlb::graphpart::{partition_kway, GraphConfig};
    use dlb::workloads::{EpochStream, Perturbation};

    const EPOCHS: usize = 3;
    let make_source = || {
        let d = Dataset::generate(DatasetKind::Auto, 0.001, SEED);
        let initial = partition_kway(&d.graph, K, &GraphConfig::seeded(SEED)).part;
        EpochStream::new(d.graph, Perturbation::structure(), K, initial, SEED)
    };
    for ranks in [1usize, 2, 4] {
        let trace = dlb::trace::session();
        let summary = Session::new(RepartConfig::seeded(SEED))
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(EPOCHS)
            .ranks(ranks)
            .workload_factory(|_rank| make_source())
            .run()
            .unwrap();
        let report = trace.finish();
        assert_eq!(summary.reports.len(), EPOCHS);
        assert_eq!(
            report.counter(dlb::trace::Counter::Epochs),
            EPOCHS as u64,
            "ranks={ranks}: epoch counter must equal the configured epoch count"
        );
    }
}

/// With no session open, instrumented code records nothing: a session
/// opened afterwards starts from zero spans and zero counters.
#[test]
fn no_session_means_no_recording() {
    let h = test_hypergraph();
    // Heavily instrumented work with no session anywhere.
    let r = partition_hypergraph(&h, K, &Config::seeded(SEED));
    assert!(r.cut >= 0.0);
    // A fresh session must not see any of it.
    let session = dlb::trace::session();
    let report = session.finish();
    assert!(
        report.spans.is_empty(),
        "stale spans leaked into a new session"
    );
    assert!(
        report.counters.is_empty(),
        "stale counters leaked into a new session"
    );
}

/// Threads spawned outside the session's enrollment chain stay muted
/// even while a session is open (unrelated concurrent work cannot
/// pollute the trace).
#[test]
fn unenrolled_threads_stay_muted() {
    let h = test_hypergraph();
    let session = dlb::trace::session();
    std::thread::scope(|s| {
        s.spawn(|| {
            // A plain spawned thread is not enrolled: its instrumented
            // work must not record.
            let r = partition_hypergraph(&h, K, &Config::seeded(SEED));
            assert!(r.cut >= 0.0);
        })
        .join()
        .unwrap();
    });
    let report = session.finish();
    assert!(report.spans.is_empty(), "unenrolled thread recorded spans");
    assert!(
        report.counters.is_empty(),
        "unenrolled thread recorded counters"
    );
}

/// The attribution invariant (DESIGN.md §11): the leaf spans of a
/// traced serial partition cover at least 95 % of the root `partition`
/// span's wall time, so a phase breakdown read off the trace accounts
/// for (nearly) the whole call.
#[test]
fn leaf_spans_cover_the_partition_wall() {
    let d = Dataset::generate(DatasetKind::Cage14, 0.002, SEED);
    let h = column_net_model_unit(&d.graph);
    let mut cfg = Config::seeded(SEED);
    cfg.threads = 1;
    let session = dlb::trace::session();
    let r = partition_hypergraph(&h, 8, &cfg);
    let report = session.finish();
    assert!(r.cut >= 0.0);
    let coverage = report
        .leaf_coverage("partition")
        .expect("a root partition span");
    assert!(
        coverage >= 0.95,
        "leaf spans cover only {:.1}% of the partition wall",
        coverage * 1e2
    );
}

/// The same invariant on the warm path: an incremental session's
/// warm-started epochs run their flat refine under a `refine.level`
/// span, so the leaf spans of `partition.warm` account for (nearly) the
/// whole call instead of leaving the refine unattributed.
#[test]
fn leaf_spans_cover_the_warm_partition_wall() {
    use dlb::amr::{AmrConfig, AmrStream};
    use dlb::core::{RepartConfig, Session};
    use dlb::workloads::AmrSource;

    let stream = AmrStream::new(AmrConfig::default(), 8, SEED);
    let low = stream.initial_lowering();
    let init: Vec<usize> = (0..low.graph.num_vertices()).map(|v| v % 8).collect();
    let mut source = AmrSource::new(stream, &init);
    let mut cfg = RepartConfig::seeded(SEED);
    cfg.hypergraph.threads = 1;
    let (_, report) = Session::new(cfg)
        .alpha(10.0)
        .epochs(3)
        .incremental(true)
        .drift_threshold(1.0)
        .workload(&mut source)
        .run_traced()
        .unwrap();
    let warm: Vec<usize> = (0..report.spans.len())
        .filter(|&i| report.spans[i].name == "partition.warm")
        .collect();
    assert_eq!(warm.len(), 2, "epochs 2 and 3 warm-start from their deltas");
    for i in warm {
        let span = &report.spans[i];
        assert!(
            span.children
                .iter()
                .any(|&c| report.spans[c].name == "refine.level"),
            "partition.warm has no refine.level child"
        );
        let coverage = report.leaf_duration_ns(i) as f64 / span.dur_ns as f64;
        assert!(
            coverage >= 0.9,
            "leaf spans cover only {:.1}% of the warm wall",
            coverage * 1e2
        );
    }
}
