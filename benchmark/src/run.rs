//! The op loops. An *op* is one load-balance call: one epoch of a
//! stream (lower/patch → build model → partition → decode → measured
//! migration → commit) or one static partition call. The functions here
//! run the ops of one *instance*: a fresh source (or a static input)
//! made from one seed.
//!
//! The untraced loop goes through [`Session`], the program's own entry
//! point, and times each op from outside with an [`EpochSource`]
//! wrapper. The traced loop drives the same public functions by hand,
//! one benchmark-side span per call, inside a `dlb_trace` session, and
//! must reproduce the untraced partitions bit for bit.

use std::ops::Range;
use std::time::Instant;

use dlb_core::{
    measure_epoch, repartition_parallel, Algorithm, CostBreakdown, ModelPatcher, NetworkModel,
    RepartConfig, RepartProblem, RepartitionHypergraph, Session, SimulationSummary,
    DEFAULT_DRIFT_THRESHOLD,
};
use dlb_hypergraph::{metrics, Hypergraph, PartId};
use dlb_mpisim::{run_spmd, Comm, CommStats};
use dlb_partitioner::{
    partition_hypergraph, partition_hypergraph_fixed, refine_partition_fixed, PartitionResult,
};
use dlb_workloads::{EpochSnapshot, EpochSource, EpochUpdate};

use crate::fingerprint::{self, InputFingerprint};
use crate::spans::Recorder;
use crate::workload::{repart_config, rmat_config, Input, Workload, ALPHA, EPSILON, K};

/// What one op produced, with the verdict of the output checks.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub wall_ms: f64,
    /// Shape and hash of the hypergraph the op partitioned.
    pub input: InputFingerprint,
    /// FNV-1a of the new partition.
    pub fingerprint: u64,
    /// The paper's objective α·comm + migration, recomputed here with
    /// `dlb_hypergraph::metrics` (a static op: the connectivity-1 cut).
    pub cost: f64,
    pub comm: f64,
    pub migration: f64,
    pub imbalance: f64,
    pub vertices: usize,
    pub pins: usize,
    pub moved: usize,
    /// Wall of the checker's own `cutsize_connectivity` call.
    pub cut_ms: f64,
    /// Violated output checks; empty for a correct op.
    pub failures: Vec<String>,
}

/// Messages and bytes sent, summed over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommTotals {
    pub bytes: u64,
    pub messages: u64,
}

impl CommTotals {
    fn add(&mut self, s: CommStats) {
        self.bytes += s.bytes_sent;
        self.messages += s.messages_sent;
    }
}

/// The ops of one or more instances, in order, and what they sent.
#[derive(Default)]
pub struct Cycle {
    pub ops: Vec<OpRecord>,
    pub comm: CommTotals,
}

impl Cycle {
    /// Appends a later instance's ops.
    pub fn absorb(&mut self, later: Cycle) {
        self.ops.extend(later.ops);
        self.comm.bytes += later.comm.bytes;
        self.comm.messages += later.comm.messages;
    }
}

/// Checks a partition of `h` and measures it. `old` is the previous
/// assignment of a stream op, `None` for a static op.
fn check_partition(
    h: &Hypergraph,
    old: Option<&[PartId]>,
    part: &[PartId],
    wall_ms: f64,
) -> OpRecord {
    let mut failures = Vec::new();
    if part.len() != h.num_vertices() {
        failures.push(format!(
            "partition has {} entries for {} vertices",
            part.len(),
            h.num_vertices()
        ));
    }
    if let Some(&p) = part.iter().find(|&&p| p >= K) {
        failures.push(format!("part id {p} out of range for k = {K}"));
    }
    let mut op = OpRecord {
        wall_ms,
        input: fingerprint::input(h),
        fingerprint: fingerprint::partition(part),
        cost: f64::NAN,
        comm: f64::NAN,
        migration: 0.0,
        imbalance: f64::NAN,
        vertices: h.num_vertices(),
        pins: h.num_pins(),
        moved: 0,
        cut_ms: 0.0,
        failures,
    };
    if !op.failures.is_empty() {
        // The metrics below index by part id and vertex.
        return op;
    }
    let t = Instant::now();
    op.comm = metrics::cutsize_connectivity(h, part, K);
    op.cut_ms = t.elapsed().as_secs_f64() * 1e3;
    op.cost = op.comm;
    if let Some(old) = old {
        op.migration = metrics::migration_volume(h.vertex_sizes(), old, part);
        op.moved = metrics::moved_vertex_count(old, part);
        op.cost = ALPHA * op.comm + op.migration;
    }
    op.imbalance = metrics::imbalance(h, part, K);
    if op.imbalance > 1.0 + EPSILON + 1e-9 {
        op.failures
            .push(format!("imbalance {} exceeds 1 + epsilon", op.imbalance));
    }
    op
}

/// Holds the program's own report of an op against the recomputation.
fn check_reported(op: &mut OpRecord, cost: &CostBreakdown, imbalance: f64, moved: usize) {
    if cost.comm != op.comm || cost.migration != op.migration || cost.total() != op.cost {
        op.failures.push(format!(
            "reported cost {} (comm {}, migration {}) differs from recomputed {} ({}, {})",
            cost.total(),
            cost.comm,
            cost.migration,
            op.cost,
            op.comm,
            op.migration
        ));
    }
    if imbalance != op.imbalance || moved != op.moved {
        op.failures.push(format!(
            "reported imbalance {imbalance} / moved {moved} differ from recomputed {} / {}",
            op.imbalance, op.moved
        ));
    }
}

fn check_summary(ops: &mut [OpRecord], summary: &SimulationSummary) {
    assert_eq!(
        summary.reports.len(),
        ops.len(),
        "one report per committed epoch"
    );
    for (op, report) in ops.iter_mut().zip(&summary.reports) {
        check_reported(op, &report.cost, report.imbalance, report.moved);
    }
}

/// Both ranks of a collective op must hold the same answer.
fn merge_ranks(per_rank: Vec<(Vec<OpRecord>, CommStats)>) -> Cycle {
    let mut comm = CommTotals::default();
    let mut ranks = per_rank.into_iter();
    let (mut ops, stats) = ranks.next().expect("at least one rank");
    comm.add(stats);
    for (rank, (other, stats)) in ranks.enumerate() {
        comm.add(stats);
        assert_eq!(other.len(), ops.len(), "ranks ran different op counts");
        for (op, o) in ops.iter_mut().zip(other) {
            if o.fingerprint != op.fingerprint || o.cost != op.cost {
                op.failures.push(format!(
                    "rank {} disagrees with rank 0 on the partition",
                    rank + 1
                ));
            }
            op.failures.extend(o.failures);
            // The op completes when the last rank commits.
            op.wall_ms = op.wall_ms.max(o.wall_ms);
        }
    }
    Cycle { ops, comm }
}

/// Times each op of a stream from outside the program: the clock runs
/// from entry of `next_epoch`/`next_delta` to exit of
/// `commit_assignment`; the output checks run after it stops.
struct TimedSource<'a> {
    inner: &'a mut dyn EpochSource,
    started: Option<Instant>,
    ops: Vec<OpRecord>,
}

impl<'a> TimedSource<'a> {
    fn new(inner: &'a mut dyn EpochSource) -> Self {
        TimedSource {
            inner,
            started: None,
            ops: Vec::new(),
        }
    }
}

impl EpochSource for TimedSource<'_> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn epochs_emitted(&self) -> usize {
        self.inner.epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        self.started = Some(Instant::now());
        self.inner.next_epoch()
    }

    fn next_delta(&mut self) -> EpochUpdate {
        self.started = Some(Instant::now());
        self.inner.next_delta()
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        self.inner.commit_assignment(snapshot, part);
        let started = self
            .started
            .take()
            .expect("commit without a matching next_epoch");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.ops.push(check_partition(
            &snapshot.hypergraph,
            Some(&snapshot.old_part),
            part,
            wall_ms,
        ));
    }
}

fn session<'a>(w: Workload, cfg: RepartConfig, ops: usize) -> Session<'a> {
    Session::new(cfg)
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(ALPHA)
        .epochs(ops)
        .measured(true)
        .incremental(w == Workload::AmrIncremental)
}

fn session_ops(w: Workload, source: &mut dyn EpochSource, seed: u64, ops: usize) -> Vec<OpRecord> {
    let mut timed = TimedSource::new(source);
    let summary = session(w, repart_config(w, seed), ops)
        .workload(&mut timed)
        .run()
        .expect("serial session is valid");
    check_summary(&mut timed.ops, &summary);
    timed.ops
}

/// The first `ops` operations of an instance through the program's own
/// entry points, with `dlb_trace` idle. `input` must be fresh.
pub fn untraced_ops(w: Workload, input: &mut Input, seed: u64, ops: usize) -> Cycle {
    assert!(input.is_fresh(), "an instance starts from a fresh source");
    let serial = |ops| Cycle {
        ops,
        ..Cycle::default()
    };
    match input {
        Input::Amr(source) => serial(session_ops(w, source, seed, ops)),
        Input::Cage { graph, init } if w.ranks() == 1 => serial(session_ops(
            w,
            &mut Input::cage_stream(graph, init, seed),
            seed,
            ops,
        )),
        Input::Cage { graph, init } => {
            let (graph, init) = (&*graph, &*init);
            merge_ranks(run_spmd(w.ranks(), |comm| {
                let mut stream = Input::cage_stream(graph, init, seed);
                let mut timed = TimedSource::new(&mut stream);
                let summary = session(w, repart_config(w, seed), ops)
                    .workload(&mut timed)
                    .run_on(comm)
                    .expect("collective session is valid");
                check_summary(&mut timed.ops, &summary);
                (timed.ops, comm.stats())
            }))
        }
        Input::Rmat(h) => serial(
            (0..ops)
                .map(|i| {
                    let cfg = rmat_config(seed + i as u64);
                    let t = Instant::now();
                    let r = partition_hypergraph(h, K, &cfg);
                    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                    check_static(h, &r, wall_ms)
                })
                .collect(),
        ),
    }
}

fn check_static(h: &Hypergraph, r: &PartitionResult, wall_ms: f64) -> OpRecord {
    let mut op = check_partition(h, None, &r.part, wall_ms);
    check_reported(
        &mut op,
        &CostBreakdown {
            comm: r.cut,
            migration: 0.0,
            alpha: 1.0,
        },
        r.imbalance,
        0,
    );
    op
}

/// What the traced loop saw: the op records, rank 0's benchmark-side
/// spans, and the incremental path's decisions.
pub struct Traced {
    pub cycle: Cycle,
    pub recorder: Recorder,
    /// Epochs served by a warm start (incremental workload only).
    pub warm_epochs: usize,
    /// Touched fraction of every delta epoch.
    pub touched_fractions: Vec<f64>,
    /// Model and warm partition wall of the first warm epoch, for the
    /// warm-over-cold probe.
    pub first_warm: Option<(RepartitionHypergraph, f64)>,
}

impl Traced {
    pub fn new() -> Self {
        Traced {
            cycle: Cycle::default(),
            recorder: Recorder::new(),
            warm_epochs: 0,
            touched_fractions: Vec::new(),
            first_warm: None,
        }
    }

    /// Appends a later instance's ops, spans and decisions.
    pub fn absorb(&mut self, later: Traced) {
        self.cycle.absorb(later.cycle);
        self.recorder.absorb(later.recorder);
        self.warm_epochs += later.warm_epochs;
        self.touched_fractions.extend(later.touched_fractions);
        if self.first_warm.is_none() {
            self.first_warm = later.first_warm;
        }
    }
}

/// The first `ops` operations of an instance driven by hand, with a
/// benchmark-side span around every call into the program. The caller
/// holds the `dlb_trace` session. Spans carry op ids from `first_op` up.
pub fn traced_ops(
    w: Workload,
    input: &mut Input,
    seed: u64,
    ops: usize,
    first_op: usize,
) -> Traced {
    assert!(input.is_fresh(), "an instance starts from a fresh source");
    let cfg = repart_config(w, seed);
    let mut out = Traced::new();
    let op_ids = first_op..first_op + ops;
    match input {
        Input::Amr(source) if w == Workload::AmrIncremental => {
            let mut patcher = ModelPatcher::new();
            for op in op_ids {
                incremental_op(source, &mut patcher, &cfg, op, &mut out);
            }
        }
        Input::Amr(source) => cold_ops(source, &cfg, op_ids, &mut out),
        Input::Cage { graph, init } if w.ranks() == 1 => cold_ops(
            &mut Input::cage_stream(graph, init, seed),
            &cfg,
            op_ids,
            &mut out,
        ),
        Input::Cage { graph, init } => {
            let (graph, init, cfg) = (&*graph, &*init, &cfg);
            let mut per_rank = run_spmd(w.ranks(), |comm| {
                let mut stream = Input::cage_stream(graph, init, seed);
                let mut rec = Recorder::new();
                let ops: Vec<OpRecord> = op_ids
                    .clone()
                    .map(|op| collective_op(comm, &mut stream, cfg, op, &mut rec))
                    .collect();
                (ops, comm.stats(), rec)
            });
            out.recorder = std::mem::replace(&mut per_rank[0].2, Recorder::new());
            out.cycle = merge_ranks(
                per_rank
                    .into_iter()
                    .map(|(ops, stats, _)| (ops, stats))
                    .collect(),
            );
        }
        Input::Rmat(h) => {
            for (i, op) in op_ids.enumerate() {
                let cfg = rmat_config(seed + i as u64);
                let id = out.recorder.enter("op", op);
                let r = out.recorder.time("partitioner.partition", op, || {
                    partition_hypergraph(h, K, &cfg)
                });
                let wall_ms = out.recorder.exit(id);
                out.cycle.ops.push(check_static(h, &r, wall_ms));
            }
        }
    }
    out
}

/// The tail every stream op shares once the new assignment exists: the
/// driver's own cost accounting, the measured migration, the commit.
/// Returns the program-side cost report for the checks.
fn finish_op(
    source: &mut dyn EpochSource,
    snapshot: &EpochSnapshot,
    new_part: &[PartId],
    op: usize,
    rec: &mut Recorder,
) -> (CostBreakdown, f64, usize) {
    let h = &snapshot.hypergraph;
    let old = &snapshot.old_part;
    let reported = rec.time("core.cost.measure", op, || {
        (
            CostBreakdown::measure(h, old, new_part, K, ALPHA),
            metrics::imbalance(h, new_part, K),
            metrics::moved_vertex_count(old, new_part),
        )
    });
    rec.time("core.exec.measure", op, || {
        measure_epoch(h, old, new_part, K, ALPHA, &NetworkModel::default())
    });
    rec.time("workloads.commit", op, || {
        source.commit_assignment(snapshot, new_part)
    });
    reported
}

/// The model's fixed partition vertices must sit on their parts, and
/// decoding must lose nothing but them.
fn check_fixed(
    record: &mut OpRecord,
    model: &RepartitionHypergraph,
    augmented: &[PartId],
    new_part: &[PartId],
) {
    if !model.fixed.is_respected_by(augmented) || model.extend_assignment(new_part) != augmented {
        record
            .failures
            .push("fixed partition vertices not respected by the augmented partition".into());
    }
}

fn cold_ops(
    source: &mut dyn EpochSource,
    cfg: &RepartConfig,
    op_ids: Range<usize>,
    out: &mut Traced,
) {
    for op in op_ids {
        let record = cold_op(source, cfg, op, &mut out.recorder);
        out.cycle.ops.push(record);
    }
}

/// A full-rebuild epoch: lower, build the model, partition from scratch.
fn cold_op(
    source: &mut dyn EpochSource,
    cfg: &RepartConfig,
    op: usize,
    rec: &mut Recorder,
) -> OpRecord {
    let id = rec.enter("op", op);
    let snapshot = rec.time("workloads.next_epoch", op, || source.next_epoch());
    let model = rec.time("core.model.build", op, || {
        RepartitionHypergraph::build(&snapshot.hypergraph, &snapshot.old_part, K, ALPHA)
    });
    let r = rec.time("partitioner.partition", op, || {
        partition_hypergraph_fixed(&model.augmented, K, &model.fixed, &cfg.hypergraph)
    });
    let new_part = rec.time("core.model.decode", op, || model.decode(&r.part));
    let (cost, imbalance, moved) = finish_op(source, &snapshot, &new_part, op, rec);
    let wall_ms = rec.exit(id);
    let mut record = check_partition(
        &snapshot.hypergraph,
        Some(&snapshot.old_part),
        &new_part,
        wall_ms,
    );
    check_reported(&mut record, &cost, imbalance, moved);
    check_fixed(&mut record, &model, &r.part, &new_part);
    record
}

/// An epoch of the incremental path, mirroring the epoch driver's drift
/// policy: a delta below the threshold patches the model and warm-starts
/// from the old assignment; anything else partitions from scratch.
fn incremental_op(
    source: &mut dyn EpochSource,
    patcher: &mut ModelPatcher,
    cfg: &RepartConfig,
    op: usize,
    out: &mut Traced,
) {
    let rec = &mut out.recorder;
    let id = rec.enter("op", op);
    let update = rec.time("workloads.next_delta", op, || source.next_delta());
    let (snapshot, patched) = match update {
        EpochUpdate::Full(snapshot) => {
            rec.time("core.delta.apply", op, || patcher.prime(&snapshot));
            (snapshot, None)
        }
        EpochUpdate::Delta(delta) => {
            let p = rec.time("core.delta.apply", op, || patcher.apply(&delta, K, ALPHA));
            out.touched_fractions.push(p.touched_fraction);
            (p.snapshot, Some((p.model, p.touched_fraction)))
        }
    };
    let (model, warm) = match patched {
        Some((model, touched)) => (model, touched < DEFAULT_DRIFT_THRESHOLD),
        None => (
            rec.time("core.model.build", op, || {
                RepartitionHypergraph::build(&snapshot.hypergraph, &snapshot.old_part, K, ALPHA)
            }),
            false,
        ),
    };
    let part_id = rec.enter("partitioner.partition", op);
    let r = if warm {
        let mut hcfg = cfg.hypergraph.clone();
        hcfg.warm_start = true;
        hcfg.num_vcycles = hcfg.num_vcycles.max(2);
        let seed_part = model.extend_assignment(&snapshot.old_part);
        refine_partition_fixed(&model.augmented, K, &model.fixed, &seed_part, &hcfg)
    } else {
        partition_hypergraph_fixed(&model.augmented, K, &model.fixed, &cfg.hypergraph)
    };
    let partition_ms = rec.exit(part_id);
    let new_part = rec.time("core.model.decode", op, || model.decode(&r.part));
    let (cost, imbalance, moved) = finish_op(source, &snapshot, &new_part, op, rec);
    rec.time("core.delta.commit", op, || {
        patcher.commit(&snapshot.to_base, &new_part)
    });
    let wall_ms = rec.exit(id);
    let mut record = check_partition(
        &snapshot.hypergraph,
        Some(&snapshot.old_part),
        &new_part,
        wall_ms,
    );
    check_reported(&mut record, &cost, imbalance, moved);
    check_fixed(&mut record, &model, &r.part, &new_part);
    out.cycle.ops.push(record);
    if warm {
        out.warm_epochs += 1;
        if out.first_warm.is_none() {
            out.first_warm = Some((model, partition_ms));
        }
    }
}

/// An epoch on an SPMD world: `repartition_parallel` builds the model,
/// partitions collectively and decodes in one call.
fn collective_op(
    comm: &mut Comm,
    source: &mut dyn EpochSource,
    cfg: &RepartConfig,
    op: usize,
    rec: &mut Recorder,
) -> OpRecord {
    let id = rec.enter("op", op);
    let snapshot = rec.time("workloads.next_epoch", op, || source.next_epoch());
    let problem = RepartProblem {
        hypergraph: &snapshot.hypergraph,
        graph: &snapshot.graph,
        old_part: &snapshot.old_part,
        k: K,
        alpha: ALPHA,
    };
    let r = rec.time("partitioner.partition", op, || {
        repartition_parallel(comm, &problem, Algorithm::ZoltanRepart, cfg)
    });
    rec.time("core.exec.measure", op, || {
        measure_epoch(
            &snapshot.hypergraph,
            &snapshot.old_part,
            &r.new_part,
            K,
            ALPHA,
            &NetworkModel::default(),
        )
    });
    rec.time("workloads.commit", op, || {
        source.commit_assignment(&snapshot, &r.new_part)
    });
    let wall_ms = rec.exit(id);
    let mut record = check_partition(
        &snapshot.hypergraph,
        Some(&snapshot.old_part),
        &r.new_part,
        wall_ms,
    );
    check_reported(&mut record, &r.cost, r.imbalance, r.moved);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::setup;

    fn fingerprints(c: &Cycle) -> Vec<u64> {
        c.ops.iter().map(|op| op.fingerprint).collect()
    }

    #[test]
    fn checks_catch_bad_partitions() {
        let h = Hypergraph::from_nets_unit(16, &[vec![0, 1], vec![1, 2, 3]]);
        let all_zero = vec![0; 16];
        let op = check_partition(&h, None, &all_zero, 1.0);
        assert!(
            op.failures.iter().any(|f| f.contains("imbalance")),
            "{:?}",
            op.failures
        );
        let mut bad = all_zero.clone();
        bad[3] = K;
        assert!(check_partition(&h, None, &bad, 1.0).failures[0].contains("out of range"));
        assert!(check_partition(&h, None, &all_zero[1..], 1.0).failures[0].contains("entries"));
        let balanced: Vec<usize> = (0..16).map(|v| v % K).collect();
        let mut ok = check_partition(&h, Some(&all_zero), &balanced, 1.0);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.cost, ALPHA * ok.comm + ok.migration);
        assert_eq!(ok.moved, 14);
        let wrong = CostBreakdown {
            comm: ok.comm + 1.0,
            migration: ok.migration,
            alpha: ALPHA,
        };
        let (imbalance, moved) = (ok.imbalance, ok.moved);
        check_reported(&mut ok, &wrong, imbalance, moved);
        assert_eq!(ok.failures.len(), 1);
    }

    /// The traced loop must be the same computation as the untraced one.
    #[test]
    fn traced_cycle_reproduces_untraced_fingerprints() {
        for w in [
            Workload::AmrEpochs,
            Workload::AmrIncremental,
            Workload::CageRepart,
        ] {
            let ops = 3;
            let untraced = untraced_ops(w, &mut setup(w, 5, true).input, 5, ops);
            let traced = traced_ops(w, &mut setup(w, 5, true).input, 5, ops, 10);
            assert_eq!(untraced.ops.len(), ops);
            assert_eq!(
                fingerprints(&untraced),
                fingerprints(&traced.cycle),
                "{}",
                w.name()
            );
            for (a, b) in untraced.ops.iter().zip(&traced.cycle.ops) {
                assert_eq!(a.cost, b.cost);
                assert!(
                    a.failures.is_empty() && b.failures.is_empty(),
                    "{:?} {:?}",
                    a.failures,
                    b.failures
                );
            }
            let op_spans: Vec<usize> = traced
                .recorder
                .spans()
                .iter()
                .filter(|s| s.name == "op")
                .map(|s| s.op)
                .collect();
            assert_eq!(op_spans, [10, 11, 12]);
        }
    }
}
