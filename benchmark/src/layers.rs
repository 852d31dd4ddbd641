//! Per-layer metrics of the traced run: benchmark-side span totals,
//! figures copied from the program's own `dlb_trace` report, and the
//! one-call kernel probes.

use std::time::Instant;

use dlb_core::{RepartitionHypergraph, Session};
use dlb_hypergraph::Hypergraph;
use dlb_mpisim::run_spmd;
use dlb_partitioner::par::dist::dist_multilevel_stats;
use dlb_partitioner::{
    coarsen, initial, matching, partition_hypergraph, partition_hypergraph_fixed, refine,
    targets_for, Config, Determinism, FixedAssignment,
};
use dlb_trace::{Counter, TraceReport};
use dlb_workloads::EpochSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Values;
use crate::run::{Cycle, OpRecord, Traced};
use crate::stats::{mean, median, ratio};
use crate::workload::{repart_config, rmat_config, Input, Workload, ALPHA, K};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall of a fixed scalar loop (the xorshift stream `perf` calibrates
/// with): the host's single-core speed, so numbers from different hosts
/// can be told apart.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    ms_since(t)
}

/// Summed duration (ms) of the program's spans named in `names`, not
/// counting a span nested inside another of the same group (the
/// `initial` span inside `dist.initial`).
fn group_ms(report: &TraceReport, names: &[&str]) -> f64 {
    let in_group = |i: usize| names.contains(&report.spans[i].name);
    let nested = |mut i: usize| {
        while let Some(p) = report.spans[i].parent {
            if in_group(p) {
                return true;
            }
            i = p;
        }
        false
    };
    (0..report.spans.len())
        .filter(|&i| in_group(i) && !nested(i))
        .fold(0.0, |acc, i| acc + report.spans[i].dur_ns as f64 / 1e6)
}

/// Self time (ms) of the program's root partitioner spans: their
/// duration minus what their direct children cover.
fn unattributed_ms(report: &TraceReport) -> f64 {
    report
        .spans
        .iter()
        .filter(|s| matches!(s.name, "partition" | "partition.warm"))
        .fold(0.0, |acc, s| {
            let covered: u64 = s.children.iter().map(|&c| report.spans[c].dur_ns).sum();
            acc + s.dur_ns.saturating_sub(covered) as f64 / 1e6
        })
}

/// Leaf coverage of the program's root spans: how much of their wall
/// the finest recorded spans account for.
fn leaf_coverage(report: &TraceReport) -> f64 {
    let (mut leaf, mut total) = (0u64, 0u64);
    for root in report.roots() {
        leaf += report.leaf_duration_ns(root);
        total += report.spans[root].dur_ns;
    }
    ratio(leaf as f64, total as f64)
}

/// Everything the traced ops themselves yield. `report` is the
/// program's own trace of them, `reference` the same ops untraced.
pub fn from_traced(traced: &Traced, report: &TraceReport, reference: &Cycle, out: &mut Values) {
    let ops = &traced.cycle.ops;
    let n = ops.len() as f64;
    let rec = &traced.recorder;
    let per_op = |name: &str| rec.total_ms(name) / n;
    let mean_of = |f: fn(&OpRecord) -> f64| mean(&ops.iter().map(f).collect::<Vec<_>>());
    let counter = |c: Counter| report.counter(c) as f64;

    out.set("workloads.next_epoch_ms", per_op("workloads.next_epoch"));
    out.set("workloads.next_delta_ms", per_op("workloads.next_delta"));
    out.set("workloads.commit_ms", per_op("workloads.commit"));
    out.set("workloads.vertices_per_op", mean_of(|o| o.vertices as f64));
    out.set("workloads.pins_per_op", mean_of(|o| o.pins as f64));

    out.set("core.model.build_ms", per_op("core.model.build"));
    out.set("core.model.decode_ms", per_op("core.model.decode"));
    out.set("core.cost.measure_ms", per_op("core.cost.measure"));
    out.set("core.exec.measure_ms", per_op("core.exec.measure"));
    out.set(
        "core.exec.items_moved_per_op",
        counter(Counter::MigrationItemsMoved) / n,
    );
    let (moved, vertices) = ops
        .iter()
        .fold((0, 0), |(m, v), o| (m + o.moved, v + o.vertices));
    out.set(
        "core.exec.moved_share",
        ratio(moved as f64, vertices as f64),
    );
    out.set("core.delta.apply_ms", per_op("core.delta.apply"));
    out.set("core.delta.commit_ms", per_op("core.delta.commit"));
    out.set(
        "core.delta.touched_fraction",
        mean(&traced.touched_fractions),
    );
    out.set("core.delta.warm_share", traced.warm_epochs as f64 / n);

    out.set("partitioner.partition_ms", per_op("partitioner.partition"));
    let coarsen = ["coarsen.level", "dist.coarsen.level", "par.coarsen.level"];
    let refine = ["refine.level", "dist.refine.level", "par.refine.level"];
    out.set(
        "partitioner.trace.coarsen_ms",
        group_ms(report, &coarsen) / n,
    );
    out.set(
        "partitioner.trace.initial_ms",
        group_ms(report, &["initial", "dist.initial", "par.initial"]) / n,
    );
    out.set("partitioner.trace.refine_ms", group_ms(report, &refine) / n);
    out.set(
        "partitioner.trace.vcycle_ms",
        group_ms(report, &["vcycle.iterate"]) / n,
    );
    out.set(
        "partitioner.trace.unattributed_ms",
        unattributed_ms(report) / n,
    );
    out.set(
        "partitioner.coarsen.levels",
        counter(Counter::CoarsenLevels) / n,
    );
    out.set(
        "partitioner.coarsen.pins_scanned",
        counter(Counter::CoarsenPinsScanned) / n,
    );
    out.set(
        "partitioner.coarsen.matches_accepted",
        counter(Counter::CoarsenMatchesAccepted) / n,
    );
    out.set(
        "partitioner.refine.fm_passes",
        counter(Counter::FmPasses) / n,
    );
    out.set(
        "partitioner.refine.moves_attempted",
        counter(Counter::FmMovesAttempted) / n,
    );
    out.set(
        "partitioner.refine.moves_accepted",
        counter(Counter::FmMovesAccepted) / n,
    );
    out.set(
        "partitioner.refine.accept_ratio",
        ratio(
            counter(Counter::FmMovesAccepted),
            counter(Counter::FmMovesAttempted),
        ),
    );
    out.set(
        "partitioner.refine.rebalance_invocations",
        counter(Counter::RebalanceInvocations) / n,
    );
    out.set(
        "partitioner.kway.vcycles_kept_share",
        ratio(counter(Counter::VcyclesKept), counter(Counter::VcyclesRun)),
    );

    let comm = traced.cycle.comm;
    let pins: usize = ops.iter().map(|o| o.pins).sum();
    out.set("comm_mb_per_op", comm.bytes as f64 / 1e6 / n);
    out.set("mpisim.messages_per_op", comm.messages as f64 / n);
    out.set("mpisim.bytes_per_op", comm.bytes as f64 / n);
    out.set(
        "mpisim.bytes_per_pin",
        ratio(comm.bytes as f64, pins as f64),
    );

    out.set("hypergraph.metrics.cut_ms", mean_of(|o| o.cut_ms));
    out.set(
        "hypergraph.metrics.max_imbalance",
        ops.iter().map(|o| o.imbalance).fold(0.0, f64::max),
    );

    // Same ops, same order, tracing on vs off.
    let walls = |ops: &[OpRecord]| ops.iter().map(|o| o.wall_ms).collect::<Vec<_>>();
    assert_eq!(
        ops.len(),
        reference.ops.len(),
        "the reference runs the traced ops"
    );
    let traced_wall: f64 = ops.iter().map(|o| o.wall_ms).sum();
    let untraced_wall: f64 = reference.ops.iter().map(|o| o.wall_ms).sum();
    out.set("trace.overhead", traced_wall / untraced_wall - 1.0);
    out.set("trace.leaf_coverage", leaf_coverage(report));
    out.set(
        "trace.spans",
        (report.spans.len() + rec.spans().len()) as f64 / n,
    );
    out.set("trace.op_wall_ms_p50", median(&walls(ops)));
    out.set(
        "trace.reference_op_wall_ms_p50",
        median(&walls(&reference.ops)),
    );
}

/// `core.delta.warm_over_cold`: the first warm epoch's
/// `refine_partition_fixed` wall over a cold `partition_hypergraph_fixed`
/// on the same patched model.
pub fn warm_over_cold(traced: &Traced, seed: u64, out: &mut Values) {
    let Some((model, warm_ms)) = &traced.first_warm else {
        return;
    };
    let cfg = repart_config(Workload::AmrIncremental, seed);
    let t = Instant::now();
    std::hint::black_box(partition_hypergraph_fixed(
        &model.augmented,
        K,
        &model.fixed,
        &cfg.hypergraph,
    ));
    out.set("core.delta.warm_over_cold", warm_ms / ms_since(t));
}

/// The hypergraph the first op partitions: a stream's first augmented
/// repartitioning model, or the static input itself.
pub fn first_op_input(input: &mut Input, seed: u64) -> (Hypergraph, FixedAssignment) {
    let model = |source: &mut dyn EpochSource| {
        let snapshot = source.next_epoch();
        let m = RepartitionHypergraph::build(&snapshot.hypergraph, &snapshot.old_part, K, ALPHA);
        (m.augmented, m.fixed)
    };
    match input {
        Input::Amr(source) => model(source),
        Input::Cage { graph, init } => model(&mut Input::cage_stream(graph, init, seed)),
        Input::Rmat(h) => (h.clone(), FixedAssignment::free(h.num_vertices())),
    }
}

/// One call into each partitioner kernel, on the first op's input, with
/// the workload's own configuration.
pub fn kernel_probes(h: &Hypergraph, fixed: &FixedAssignment, cfg: &Config, out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let t = Instant::now();
    let m = matching::ipm_matching(h, fixed, &cfg.coarsening, &mut rng);
    out.set("partitioner.matching.ipm_ms", ms_since(t));
    out.set(
        "partitioner.matching.matched_share",
        2.0 * m.num_pairs as f64 / h.num_vertices() as f64,
    );

    let coarse_target =
        (cfg.coarsening.coarse_to_factor * K).max(cfg.coarsening.min_coarse_vertices);
    let t = Instant::now();
    let hierarchy = coarsen::coarsen_to(h, fixed, coarse_target, &cfg.coarsening, &mut rng);
    out.set("partitioner.coarsen.hierarchy_ms", ms_since(t));
    out.set(
        "partitioner.coarsen.probe_levels",
        hierarchy.levels.len() as f64,
    );
    let (coarsest, coarsest_fixed) = match hierarchy.levels.last() {
        Some(level) => (&level.coarse, &level.coarse_fixed),
        None => (h, fixed),
    };
    out.set(
        "partitioner.coarsen.pin_shrink",
        coarsest.num_pins() as f64 / h.num_pins() as f64,
    );

    let t = Instant::now();
    let coarse_part = initial::initial_partition(
        coarsest,
        &targets_for(coarsest, K, cfg),
        coarsest_fixed,
        &cfg.initial,
        &mut rng,
    );
    out.set("partitioner.initial.ghg_ms", ms_since(t));

    let mut part = hierarchy.project_to_finest(&coarse_part);
    let t = Instant::now();
    let gain = refine::refine(
        h,
        &targets_for(h, K, cfg),
        fixed,
        &mut part,
        &cfg.refinement,
        &mut rng,
    );
    out.set("partitioner.refine.flat_fm_ms", ms_since(t));
    out.set("partitioner.refine.flat_fm_gain", gain);
}

/// `rmat_static` only: the same op at `Determinism::Fast` on 2 threads
/// against the Strict single-thread op.
pub fn fast2_probe(h: &Hypergraph, seed: u64, strict: &OpRecord, out: &mut Values) {
    let mut cfg = rmat_config(seed);
    cfg.determinism = Determinism::Fast;
    cfg.threads = 2;
    let t = Instant::now();
    let r = partition_hypergraph(h, K, &cfg);
    out.set(
        "hypergraph.parallel.fast2_over_strict1",
        ms_since(t) / strict.wall_ms,
    );
    out.set(
        "hypergraph.parallel.fast2_cut_ratio",
        ratio(r.cut, strict.comm),
    );
}

/// `cage_dist2` only: one distributed V-cycle on the first op's model
/// for the per-rank memory figures, and the first epoch of the stream
/// on one distributed rank against the serial driver.
pub fn dist_probes(
    input: &mut Input,
    model: &(Hypergraph, FixedAssignment),
    traced: &Traced,
    seed: u64,
    out: &mut Values,
) {
    let w = Workload::CageDist2;
    let cfg = repart_config(w, seed);
    let (h, fixed) = model;
    let targets = targets_for(h, K, &cfg.hypergraph);
    let stats = run_spmd(w.ranks(), |comm| {
        let mut rng = StdRng::seed_from_u64(seed);
        dist_multilevel_stats(comm, h, &targets, fixed, &cfg.hypergraph, &mut rng).1
    });
    let resident: usize = stats.iter().map(|s| s.total_resident_bytes).sum();
    out.set(
        "disthg.max_rank_resident_mb",
        stats
            .iter()
            .map(|s| s.total_resident_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    out.set(
        "disthg.max_rank_ghosts",
        stats.iter().map(|s| s.peak_ghosts).max().unwrap_or(0) as f64,
    );
    out.set(
        "disthg.dist_levels",
        stats.iter().map(|s| s.dist_levels).max().unwrap_or(0) as f64,
    );
    let bytes_per_op = traced.cycle.comm.bytes as f64 / traced.cycle.ops.len() as f64;
    out.set(
        "mpisim.bytes_over_resident",
        ratio(bytes_per_op, resident as f64),
    );

    let Input::Cage { graph, init } = input else {
        return;
    };
    let first_epoch_ms = |cfg: dlb_core::RepartConfig| {
        let t = Instant::now();
        Session::new(cfg)
            .alpha(ALPHA)
            .epochs(1)
            .measured(true)
            .workload_factory(|_| Input::cage_stream(graph, init, seed))
            .run()
            .expect("one-rank session is valid");
        ms_since(t)
    };
    let rank1 = first_epoch_ms(cfg);
    let serial = first_epoch_ms(repart_config(Workload::CageRepart, seed));
    out.set("partitioner.par.dist.rank1_op_ms", rank1);
    out.set("partitioner.par.dist.rank1_over_serial", rank1 / serial);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_trace::Span;

    fn span(name: &'static str, dur_ns: u64, parent: Option<usize>, children: Vec<usize>) -> Span {
        Span {
            name,
            start_ns: 0,
            dur_ns,
            parent,
            children,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn trace_totals_skip_nested_members_and_find_self_time() {
        let report = TraceReport {
            spans: vec![
                span("partition", 100_000_000, None, vec![1, 3]),
                span("dist.initial", 40_000_000, Some(0), vec![2]),
                span("initial", 30_000_000, Some(1), vec![]),
                span("initial", 20_000_000, Some(0), vec![]),
            ],
            counters: Default::default(),
        };
        assert_eq!(group_ms(&report, &["initial", "dist.initial"]), 60.0);
        assert_eq!(group_ms(&report, &["initial"]), 50.0);
        assert_eq!(unattributed_ms(&report), 40.0);
        assert_eq!(leaf_coverage(&report), 0.5);
    }
}
