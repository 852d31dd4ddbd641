//! The multilevel V-cycle (Section 4), written once.
//!
//! Coarsen by matching until the hypergraph is small or matching stalls,
//! partition the coarsest hypergraph, then project back level by level,
//! refining at each ([`run`]). The levels sit on one stack with the
//! caller's hypergraph at the bottom, and a level is [`Held`] in one of
//! three ways — whole on the calling thread, whole on every rank of a
//! communicator, or block-distributed over its ranks. Each way brings
//! its own kernels for the same steps (match, contract, solve, refine,
//! project); the loop is the same and never asks which one it holds.
//! What a step needs besides the level travels in [`Cx`].
//!
//! The partition vector is always *in the representation of the level it
//! belongs to*: whole for a whole level, this rank's owned block for a
//! distributed one. It narrows from whole to owned block where a
//! distributed level meets its gathered replica — in
//! [`Held::contract`] (the replica's coarse level keeps only the owned
//! block of the fine→coarse map, so projecting through it lands on the
//! block) and in [`Held::solve`] — and widens again only in the
//! [`Held::project`] of a distributed input level. [`refine_input`],
//! which refines an input level with no cycle around it, narrows and
//! widens in one step.

use dlb_hypergraph::{parallel, Hypergraph, PartId};
use dlb_mpisim::{Comm, CommStats};
use dlb_trace::{Counter, SpanGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coarsen::{coarsening_stops, contract, CoarseLevel};
use crate::config::{Config, PartTargets};
use crate::fixed::FixedAssignment;
use crate::initial::{initial_partition, score};
use crate::matching::{ipm_matching_mode, Matching};
use crate::par::dist::{dist_contract, dist_ipm_matching, dist_refine, project_to_fine, DistStats};
use crate::par::disthg::DistLevel;
use crate::par::matching::par_ipm_matching;
use crate::par::refine::par_refine;
use crate::refine::{refine_with, RefineScratch};
use crate::view::LevelView;

/// What a V-cycle step needs besides the level it works on.
pub(crate) struct Cx<'a> {
    /// The communicator replicated and distributed levels are stepped
    /// on; `None` for the serial partitioner.
    pub(crate) comm: Option<&'a mut Comm>,
    pub(crate) cfg: &'a Config,
    pub(crate) targets: &'a PartTargets,
    pub(crate) rng: &'a mut StdRng,
    /// Refinement scratch reused across levels (and cycles).
    pub(crate) scratch: &'a mut RefineScratch,
    /// Coarsening stops at this many vertices.
    pub(crate) coarse_target: usize,
    /// This rank's memory figures for the distributed levels.
    pub(crate) stats: DistStats,
}

impl<'a> Cx<'a> {
    /// The context of a V-cycle on `comm`'s ranks, or on the calling
    /// thread alone without one.
    pub(crate) fn new(
        comm: Option<&'a mut Comm>,
        cfg: &'a Config,
        targets: &'a PartTargets,
        rng: &'a mut StdRng,
        scratch: &'a mut RefineScratch,
    ) -> Self {
        Cx {
            comm,
            cfg,
            targets,
            rng,
            scratch,
            coarse_target: (cfg.coarsening.coarse_to_factor * targets.k())
                .max(cfg.coarsening.min_coarse_vertices),
            stats: DistStats::default(),
        }
    }

    /// The context of one bisection (or any sub-call) for `targets`,
    /// on the same communicator, stream and scratch.
    pub(crate) fn with_targets<'b>(&'b mut self, targets: &'b PartTargets) -> Cx<'b> {
        Cx::new(
            self.comm.as_deref_mut(),
            self.cfg,
            targets,
            self.rng,
            self.scratch,
        )
    }

    fn comm_stats(&self) -> Option<CommStats> {
        self.comm.as_deref().map(Comm::stats)
    }

    /// Attaches what this rank sent and received since `before` to
    /// `span` (the ledger is rank 0's view; nothing without a
    /// communicator).
    fn attr_comm_delta(&self, span: &SpanGuard, before: Option<CommStats>) {
        let (Some(before), Some(after)) = (before, self.comm_stats()) else {
            return;
        };
        span.attr("msgs_sent", after.messages_sent - before.messages_sent);
        span.attr(
            "msgs_recv",
            after.messages_received - before.messages_received,
        );
        span.attr("bytes_sent", after.bytes_sent - before.bytes_sent);
        span.attr("bytes_recv", after.bytes_received - before.bytes_received);
    }
}

/// The communicator of a replicated or distributed level's step.
fn comm_of<'c>(comm: &'c mut Option<&mut Comm>) -> &'c mut Comm {
    comm.as_deref_mut()
        .expect("replicated and distributed levels are stepped on a communicator")
}

/// A level's hypergraph and fixed assignment, whole: the caller's at the
/// bottom of the stack, a contraction's above it.
pub(crate) enum Whole<'a> {
    Input(&'a Hypergraph, &'a FixedAssignment),
    Coarse(Box<CoarseLevel>),
}

impl Whole<'_> {
    fn get(&self) -> (&Hypergraph, &FixedAssignment) {
        match self {
            Whole::Input(h, fixed) => (h, fixed),
            Whole::Coarse(level) => (&level.coarse, &level.coarse_fixed),
        }
    }

    fn project(self, part: Vec<PartId>) -> Vec<PartId> {
        match self {
            Whole::Input(..) => part,
            Whole::Coarse(level) => level.fine_to_coarse.iter().map(|&c| part[c]).collect(),
        }
    }
}

/// A level held block-distributed over the ranks of the communicator.
pub(crate) struct Distributed {
    level: DistLevel,
    /// This rank's owned block of the finer level's fine→coarse map;
    /// `None` at the input level.
    f2c: Option<Vec<usize>>,
    /// The level gathered whole onto every rank, once it has shrunk to
    /// `cfg.dist.gather_threshold` vertices: the next coarser level and
    /// the coarse solve work on the replica.
    replica: Option<(Hypergraph, FixedAssignment)>,
}

/// One level of the V-cycle, in one of the three ways to hold it, with
/// the partition a restricted cycle refines: matching then stays inside
/// its parts, and the coarsest level's restriction stands in for the
/// solve. The restriction is in the level's representation — whole, or
/// this rank's owned block of a distributed level until that level is
/// gathered.
pub(crate) enum Held<'a> {
    /// Whole on the calling thread: greedy IPM, best-of-N coarse solve,
    /// heap FM.
    Serial(Whole<'a>, Option<Vec<PartId>>),
    /// Whole on every rank: candidate-round IPM, one coarse attempt per
    /// rank, proposal-pass FM.
    Replicated(Whole<'a>, Option<Vec<PartId>>),
    /// The same kernels as `Replicated`, over owner-computes storage.
    Distributed(Box<Distributed>, Option<Vec<PartId>>),
}

impl<'a> Held<'a> {
    /// The input level of a V-cycle on `cx`'s execution context; with
    /// `restrict`, of one that refines that partition. Serial without a
    /// communicator; on one, distributed when `cfg.dist.distributed` and
    /// larger than the gather threshold, replicated otherwise — with the
    /// flag off no level is ever distributed.
    pub(crate) fn input(
        h: &'a Hypergraph,
        fixed: &'a FixedAssignment,
        restrict: Option<&[PartId]>,
        cx: &mut Cx,
    ) -> Self {
        let whole = Whole::Input(h, fixed);
        let Some(comm) = cx.comm.as_deref() else {
            return Held::Serial(whole, restrict.map(<[PartId]>::to_vec));
        };
        if !(cx.cfg.dist.distributed && h.num_vertices() > cx.cfg.dist.gather_threshold) {
            return Held::Replicated(whole, restrict.map(<[PartId]>::to_vec));
        }
        let level = {
            let _span = dlb_trace::span!("dist.input");
            DistLevel::from_replicated(h, fixed, comm.rank(), comm.size())
        };
        cx.stats.observe(&level);
        let restrict = restrict.map(|part| part[(&level).owned()].to_vec());
        let held = Distributed {
            level,
            f2c: None,
            replica: None,
        };
        Held::Distributed(Box::new(held), restrict)
    }

    /// The contraction a serial level holds (none at the input).
    pub(crate) fn into_coarse(self) -> Option<CoarseLevel> {
        match self {
            Held::Serial(Whole::Coarse(level), _) => Some(*level),
            _ => None,
        }
    }

    fn num_vertices(&self) -> usize {
        match self {
            Held::Serial(at, _) | Held::Replicated(at, _) => at.get().0.num_vertices(),
            Held::Distributed(d, _) => (&d.level).num_vertices(),
        }
    }

    /// Opens the span of coarsening level `depth`.
    fn coarsen_span(&self, depth: usize) -> SpanGuard {
        let Held::Serial(at, _) = self else {
            return dlb_trace::span!("dist.coarsen.level", level = depth);
        };
        let h = at.get().0;
        dlb_trace::span!(
            "coarsen.level",
            level = depth,
            vertices = h.num_vertices(),
            nets = h.num_nets(),
            pins = h.num_pins(),
        )
    }

    /// Matches the level's vertices pairwise. A distributed level's
    /// mates are those of this rank's owned block, with the level-wide
    /// pair count; one that has shrunk to the gather threshold is
    /// gathered first (inside `span`, the level the gather enables).
    fn matching(&mut self, cx: &mut Cx, span: &SpanGuard) -> Matching {
        if let Held::Distributed(d, restrict) = self {
            let n = (&d.level).num_vertices();
            if d.replica.is_none() && n <= cx.cfg.dist.gather_threshold {
                let _gather = dlb_trace::span!("dist.gather");
                span.attr("gathered", true);
                cx.stats.gathered_vertices = n;
                let comm = comm_of(&mut cx.comm);
                d.replica = Some(d.level.gather(comm));
                *restrict = restrict
                    .take()
                    .map(|part| comm.allgather(part).into_iter().flatten().collect());
            }
        }
        let _span = dlb_trace::span!("coarsen.match");
        let cfg = &cx.cfg.coarsening;
        match self {
            Held::Serial(at, restrict) => {
                let (h, fixed) = at.get();
                let parts = restrict.as_deref();
                let threads = parallel::resolve_threads(cx.cfg.threads);
                ipm_matching_mode(h, fixed, parts, cfg, cx.rng, threads, cx.cfg.determinism)
            }
            Held::Replicated(at, restrict) => {
                let (h, fixed) = at.get();
                let comm = comm_of(&mut cx.comm);
                par_ipm_matching(comm, h, fixed, restrict.as_deref(), cfg, cx.rng)
            }
            Held::Distributed(d, restrict) => {
                let (comm, parts) = (comm_of(&mut cx.comm), restrict.as_deref());
                match &d.replica {
                    Some((h, fixed)) => par_ipm_matching(comm, h, fixed, parts, cfg, cx.rng),
                    None => dist_ipm_matching(comm, &d.level, parts, cfg, cx.rng),
                }
            }
        }
    }

    /// Contracts the level along `matching` into the next coarser one.
    fn contract(&mut self, cx: &mut Cx, matching: &Matching) -> Held<'static> {
        // The serial matcher counts its pairs itself; the SPMD ones leave
        // it to the level that accepts them.
        let count_accepted =
            || dlb_trace::count(Counter::CoarsenMatchesAccepted, matching.num_pairs as u64);
        match self {
            Held::Serial(at, restrict) => {
                let (coarse, restrict) = contract_whole(at.get(), restrict, matching, None);
                Held::Serial(coarse, restrict)
            }
            // With the level whole on every rank, contraction is a
            // deterministic function of the (identical) matching, so
            // every rank builds the same coarse hypergraph locally.
            Held::Replicated(at, restrict) => {
                count_accepted();
                let (coarse, restrict) = contract_whole(at.get(), restrict, matching, None);
                Held::Replicated(coarse, restrict)
            }
            Held::Distributed(d, restrict) => {
                count_accepted();
                let Some((h, fixed)) = d.replica.take() else {
                    let comm = comm_of(&mut cx.comm);
                    let (level, f2c, restrict) =
                        dist_contract(comm, &d.level, &matching.mate, restrict.as_deref());
                    cx.stats.observe(&level);
                    let held = Distributed {
                        level,
                        f2c: Some(f2c),
                        replica: None,
                    };
                    return Held::Distributed(Box::new(held), restrict);
                };
                // The partition narrows here: through the owned block of
                // the map, the coarse level projects onto the block.
                let block = Some((&d.level).owned());
                let (coarse, restrict) = contract_whole((&h, &fixed), restrict, matching, block);
                Held::Replicated(coarse, restrict)
            }
        }
    }

    /// Partitions the level, the coarsest of its cycle: hands back the
    /// restriction of a restricted cycle, solves otherwise.
    fn solve(&mut self, cx: &mut Cx) -> Vec<PartId> {
        match self {
            Held::Serial(at, restrict) => restrict.take().unwrap_or_else(|| {
                let (h, fixed) = at.get();
                count_coarsest(h);
                initial_partition(h, cx.targets, fixed, &cx.cfg.initial, cx.rng)
            }),
            Held::Replicated(at, restrict) => restrict.take().unwrap_or_else(|| {
                let (h, fixed) = at.get();
                solve_replicated(cx, h, fixed)
            }),
            // The coarse solve needs the level whole: the replica
            // coarsening stopped on, or a gather forced now.
            Held::Distributed(d, restrict) => {
                let block = (&d.level).owned();
                if let Some(part) = restrict.take() {
                    return match d.replica {
                        Some(_) => part[block].to_vec(),
                        None => part,
                    };
                }
                let (h, fixed) = d.replica.take().unwrap_or_else(|| {
                    cx.stats.gathered_vertices = (&d.level).num_vertices();
                    d.level.gather(comm_of(&mut cx.comm))
                });
                solve_replicated(cx, &h, &fixed)[block].to_vec()
            }
        }
    }

    /// Refines `part` on this level, the `depth`-th above the input —
    /// the one place a `refine.level` / `dist.refine.level` span opens.
    pub(crate) fn refine(&self, cx: &mut Cx, depth: usize, part: &mut Vec<PartId>) {
        let (targets, cfg) = (cx.targets, &cx.cfg.refinement);
        match self {
            Held::Serial(at, _) => {
                let _span = dlb_trace::span!("refine.level", level = depth);
                let (h, fixed) = at.get();
                refine_with(h, targets, fixed, part, cfg, cx.rng, cx.scratch);
            }
            Held::Replicated(at, _) => {
                let (h, fixed) = at.get();
                refine_spmd(cx, depth, part, false, |comm, rng, part| {
                    par_refine(comm, h, targets, fixed, part, cfg, rng)
                });
            }
            Held::Distributed(d, _) => refine_spmd(cx, depth, part, true, |comm, rng, part| {
                dist_refine(comm, &d.level, targets, part, cfg, rng)
            }),
        }
    }

    /// Projects this level's partition to the next finer level — at the
    /// input level, to what the caller gets: the whole vector on every
    /// rank. Consumes the level.
    fn project(self, cx: &mut Cx, part: Vec<PartId>) -> Vec<PartId> {
        match self {
            Held::Serial(at, _) | Held::Replicated(at, _) => at.project(part),
            Held::Distributed(d, _) => {
                let comm = comm_of(&mut cx.comm);
                match d.f2c {
                    Some(f2c) => project_to_fine(comm, &d.level.vertex_dist(), &part, &f2c),
                    None => comm.allgather(part).into_iter().flatten().collect(),
                }
            }
        }
    }
}

/// Contracts a whole level along `matching`, pushing the restriction
/// down with it; with `block`, the coarse level keeps only that block of
/// the fine→coarse map.
fn contract_whole(
    (h, fixed): (&Hypergraph, &FixedAssignment),
    restrict: &mut Option<Vec<PartId>>,
    matching: &Matching,
    block: Option<std::ops::Range<usize>>,
) -> (Whole<'static>, Option<Vec<PartId>>) {
    let mut coarse = contract(h, matching, fixed);
    let restrict = restrict.take().map(|part| coarse.coarsen_part(&part));
    if let Some(block) = block {
        coarse.fine_to_coarse = coarse.fine_to_coarse[block].to_vec();
    }
    (Whole::Coarse(Box::new(coarse)), restrict)
}

fn count_coarsest(h: &Hypergraph) {
    dlb_trace::count(Counter::CoarseVertices, h.num_vertices() as u64);
    dlb_trace::count(Counter::CoarseNets, h.num_nets() as u64);
    dlb_trace::count(Counter::CoarsePins, h.num_pins() as u64);
}

/// The SPMD coarse solve on a level whole on every rank (collective):
/// one randomized attempt per rank, refined, and the globally best wins
/// (Section 4.2), lowest rank on ties.
fn solve_replicated(cx: &mut Cx, h: &Hypergraph, fixed: &FixedAssignment) -> Vec<PartId> {
    let span = dlb_trace::span!("dist.initial", vertices = h.num_vertices());
    let before = cx.comm_stats();
    count_coarsest(h);
    let comm = comm_of(&mut cx.comm);
    let shared_draw: u64 = cx.rng.gen();
    let mut my_rng = StdRng::seed_from_u64(
        shared_draw ^ (comm.rank() as u64).wrapping_mul(0x1357_9BDF_2468_ACE0),
    );
    let mut mine = initial_partition(h, cx.targets, fixed, &cx.cfg.initial, &mut my_rng);
    let refinement = &cx.cfg.refinement;
    {
        let _span = dlb_trace::span!("dist.initial.refine");
        refine_with(
            h,
            cx.targets,
            fixed,
            &mut mine,
            refinement,
            &mut my_rng,
            cx.scratch,
        );
    }
    // Scoring this rank's solve, then the all-reduce and the broadcast,
    // which wait for the slowest rank's.
    let select = dlb_trace::span!("dist.initial.select");
    let my_score = score(h, &mine, cx.targets);
    let (_, winner) = comm.allreduce((my_score, comm.rank()), |a, b| {
        if a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_le() {
            a
        } else {
            b
        }
    });
    let part = comm.broadcast(winner, mine);
    drop(select);
    cx.attr_comm_delta(&span, before);
    part
}

/// One SPMD refinement level around its `kernel` (collective). Records
/// the number of vertices the level moved — an outcome diff, so the
/// value is the same at any rank count and on either storage form — as a
/// span attribute and the `ParRefineMovesCommitted` counter. A `sliced`
/// partition is diffed block by block and summed across ranks, which is
/// a collective of its own: it is gated on `session_active()`, not the
/// per-thread `enabled()`, so every rank takes part or none does.
fn refine_spmd(
    cx: &mut Cx,
    depth: usize,
    part: &mut Vec<PartId>,
    sliced: bool,
    kernel: impl FnOnce(&mut Comm, &mut StdRng, &mut Vec<PartId>),
) {
    let span = dlb_trace::span!("dist.refine.level", level = depth);
    let stats_before = cx.comm_stats();
    let part_before = dlb_trace::session_active().then(|| part.clone());
    let comm = comm_of(&mut cx.comm);
    kernel(comm, cx.rng, part);
    if let Some(before) = part_before {
        let mut moved = before
            .iter()
            .zip(part.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
        if sliced {
            moved = comm.allreduce(moved, |a, b| a + b);
        }
        span.attr("moves_committed", moved);
        dlb_trace::count(Counter::ParRefineMovesCommitted, moved);
    }
    cx.attr_comm_delta(&span, stats_before);
}

/// The coarsening half of a V-cycle: the stack of levels from `input`
/// (bottom) to the coarsest (top). Stops per `coarsening_stops`; a level
/// span opens only for a level that is matched, so a descent that ends
/// on the size or level cap records nothing for it.
pub(crate) fn descend<'a>(input: Held<'a>, cx: &mut Cx) -> Vec<Held<'a>> {
    let mut stack = vec![input];
    loop {
        let depth = stack.len() - 1;
        let top = stack
            .last_mut()
            .expect("the input level stays on the stack");
        let before = top.num_vertices();
        if coarsening_stops(depth, before, cx.coarse_target, None) {
            return stack;
        }
        let span = top.coarsen_span(depth);
        let stats_before = cx.comm_stats();
        let matching = top.matching(cx, &span);
        let pairs = matching.num_pairs;
        let stalled = coarsening_stops(depth, before, cx.coarse_target, Some(pairs));
        let coarse = (!stalled).then(|| {
            let _span = dlb_trace::span!("coarsen.contract");
            top.contract(cx, &matching)
        });
        cx.attr_comm_delta(&span, stats_before);
        let Some(coarse) = coarse else { return stack };
        span.attr("matches", pairs);
        span.attr("coarse_vertices", coarse.num_vertices());
        dlb_trace::count(Counter::CoarsenLevels, 1);
        stack.push(coarse);
    }
}

/// Refines the whole assignment `part` of `h` on the input level, with
/// no V-cycle around it — a warm start's flat pass, the multi-constraint
/// epilogue. A distributed input refines this rank's owned block, which
/// its project widens again.
pub(crate) fn refine_input(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    mut part: Vec<PartId>,
    cx: &mut Cx,
) -> Vec<PartId> {
    let input = Held::input(h, fixed, None, cx);
    if let Held::Distributed(d, _) = &input {
        part = part[(&d.level).owned()].to_vec();
    }
    input.refine(cx, 0, &mut part);
    input.project(cx, part)
}

/// One V-cycle from `input`: descend, solve the coarsest level, then
/// refine and project level by level, dropping each level as soon as it
/// has been projected through — the finest refine, where the state is
/// largest, holds no coarse level at all. Returns the whole assignment
/// (on every rank, when there are ranks).
pub(crate) fn run(input: Held<'_>, cx: &mut Cx) -> Vec<PartId> {
    let mut stack = descend(input, cx);
    let mut part = stack
        .last_mut()
        .expect("the input level stays on the stack")
        .solve(cx);
    while let Some(level) = stack.pop() {
        level.refine(cx, stack.len(), &mut part);
        // Dropping the level is part of the projection's time.
        let _span = dlb_trace::span!("project.level", level = stack.len());
        part = level.project(cx, part);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{multilevel, vcycle_refine};
    use crate::par::dist::dist_multilevel;
    use dlb_hypergraph::metrics;
    use dlb_mpisim::run_spmd;

    /// One traced call of the level-0 step records exactly one
    /// `refine.level` span, with the FM work counted under it.
    #[test]
    fn the_refine_step_owns_its_span() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let fixed = FixedAssignment::free(64);
        let cfg = Config::seeded(3);
        let targets = PartTargets::uniform(64.0, 2, 0.05);
        let (mut rng, mut scratch) = (StdRng::seed_from_u64(3), RefineScratch::new());
        let mut part: Vec<PartId> = (0..64).map(|v| v % 2).collect();
        let before = metrics::cutsize_connectivity(&h, &part, 2);

        let session = dlb_trace::session();
        let mut cx = Cx::new(None, &cfg, &targets, &mut rng, &mut scratch);
        Held::input(&h, &fixed, None, &mut cx).refine(&mut cx, 0, &mut part);
        let report = session.finish();

        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["refine.level"]);
        assert!(report.counter(Counter::FmPasses) >= 1);
        assert!(report.counter(Counter::FmMovesAccepted) >= 1);
        assert!(metrics::cutsize_connectivity(&h, &part, 2) < before);
    }

    /// An input of the one loop that some way of holding a level has
    /// never met in a test: `h` into `k` parts at ε = 0.05 (unit weights,
    /// `n` a multiple of `k`), distributed above `gather_threshold`.
    struct Edge {
        name: &'static str,
        h: Hypergraph,
        k: usize,
        gather_threshold: usize,
        /// Coarsening levels the serial and the replicated descent build.
        levels: Option<usize>,
        /// Rank counts, besides 1, 2, 3 and 4.
        more_ranks: &'static [usize],
    }

    fn edges() -> Vec<Edge> {
        let edge = |name, h, k, gather_threshold, levels, more_ranks| Edge {
            name,
            h,
            k,
            gather_threshold,
            levels,
            more_ranks,
        };
        let grid = crate::tests::grid_hypergraph;
        let random = || crate::tests::random_hypergraph(200, 400, 4, 19);
        vec![
            // (a) Already at the coarse target (80): no level is built,
            // and the distributed input is gathered for the solve only.
            edge("at the coarse target", grid(8, 8), 4, 16, Some(0), &[]),
            // (b) Nothing to match: the descent stalls on its first
            // matching, above the threshold, so the gather is forced.
            edge(
                "netless",
                Hypergraph::from_nets_unit(120, &[]),
                4,
                32,
                Some(0),
                &[],
            ),
            // (c) The gather point exactly at the input: one vertex over
            // the threshold is distributed, at the threshold is not.
            edge("one over the threshold", random(), 4, 199, None, &[]),
            edge("at the threshold", random(), 4, 200, None, &[]),
            // (d) More ranks than vertices, at the default coarse target.
            edge("fewer vertices than ranks", grid(2, 3), 2, 2, Some(0), &[7]),
        ]
    }

    /// ~20 % of the vertices fixed, spread over the parts.
    fn some_fixed(n: usize, k: usize) -> FixedAssignment {
        let mut fixed = FixedAssignment::free(n);
        for v in (0..n).filter(|v| v % 5 == 2) {
            fixed.fix(v, v % k);
        }
        fixed
    }

    fn assert_feasible(e: &Edge, fixed: &FixedAssignment, part: &[PartId], how: &str) {
        assert_eq!(part.len(), e.h.num_vertices(), "{}: {how}", e.name);
        assert!(
            fixed.is_respected_by(part),
            "{}: {how} moved a fixed vertex",
            e.name
        );
        if fixed.num_fixed() == 0 {
            let targets = PartTargets::uniform(e.h.total_vertex_weight(), e.k, 0.05);
            let w = metrics::part_weights(&e.h, part, e.k);
            assert!(
                (0..e.k).all(|p| w[p] <= targets.cap(p)),
                "{}: {how} over a cap: {w:?}",
                e.name
            );
        }
    }

    /// The edge cases of the one loop on all three ways to hold a level:
    /// every rank returns the same vector, holding levels distributed
    /// changes no bit of it, fixed vertices stay and free rows end under
    /// every cap; serially, a restricted cycle over zero levels never
    /// raises the cut of a feasible partition.
    #[test]
    fn edge_cases_on_every_way_to_hold_a_level() {
        for e in edges() {
            let n = e.h.num_vertices();
            let targets = PartTargets::uniform(e.h.total_vertex_weight(), e.k, 0.05);
            for fixed in [FixedAssignment::free(n), some_fixed(n, e.k)] {
                let mut cfg = Config::seeded(11);
                cfg.dist.gather_threshold = e.gather_threshold;

                let (mut rng, mut scratch) = (StdRng::seed_from_u64(5), RefineScratch::new());
                let mut cx = Cx::new(None, &cfg, &targets, &mut rng, &mut scratch);
                let levels = descend(Held::input(&e.h, &fixed, None, &mut cx), &mut cx).len() - 1;
                assert!(
                    e.levels.is_none_or(|want| want == levels),
                    "{}: {levels} levels",
                    e.name
                );
                let serial = multilevel(&e.h, &fixed, &mut cx);
                assert_feasible(&e, &fixed, &serial, "serial");
                if levels == 0 {
                    let again = vcycle_refine(&e.h, &fixed, &serial, &mut cx);
                    assert_feasible(&e, &fixed, &again, "restricted cycle");
                    let cut = |part| metrics::cutsize_connectivity(&e.h, part, e.k);
                    assert!(cut(&again) <= cut(&serial), "{}: restricted cycle", e.name);
                }

                for &ranks in [1usize, 2, 3, 4].iter().chain(e.more_ranks) {
                    let run = |distributed: bool| {
                        let mut cfg = cfg.clone();
                        cfg.dist.distributed = distributed;
                        run_spmd(ranks, |comm| {
                            let mut rng = StdRng::seed_from_u64(5);
                            dist_multilevel(comm, &e.h, &targets, &fixed, &cfg, &mut rng)
                        })
                    };
                    let (replicated, distributed) = (run(false), run(true));
                    let how = format!("{ranks} ranks");
                    assert_feasible(&e, &fixed, &replicated[0], &how);
                    for part in replicated.iter().chain(&distributed) {
                        assert_eq!(part, &replicated[0], "{}: {how} disagree", e.name);
                    }
                }
            }
        }
    }

    /// What the edge rows are there to reach, seen from the stack: at
    /// the coarse target the distributed input level is solved on a
    /// forced replica with no coarsening span; the netless one records
    /// the one level it stalled on; and the gather sits in the span of
    /// the level it enables.
    #[test]
    fn edge_cases_reach_the_steps_they_are_for() {
        let traced = |e: &Edge| {
            let mut cfg = Config::seeded(11);
            cfg.dist.distributed = true;
            cfg.dist.gather_threshold = e.gather_threshold;
            let targets = PartTargets::uniform(e.h.total_vertex_weight(), e.k, 0.05);
            let fixed = FixedAssignment::free(e.h.num_vertices());
            let session = dlb_trace::session();
            let stats = run_spmd(2, |comm| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut scratch = RefineScratch::new();
                let mut cx = Cx::new(Some(comm), &cfg, &targets, &mut rng, &mut scratch);
                let input = Held::input(&e.h, &fixed, None, &mut cx);
                run(input, &mut cx);
                cx.stats
            });
            (session.finish(), stats[0])
        };
        let edges = edges();
        let count = |report: &dlb_trace::TraceReport, name: &str| {
            report
                .phase_totals()
                .get(name)
                .map_or(0, |&(calls, _)| calls)
        };

        let (report, stats) = traced(&edges[0]);
        assert_eq!((stats.dist_levels, stats.gathered_vertices), (1, 64));
        assert_eq!(count(&report, "dist.coarsen.level"), 0);
        assert_eq!(count(&report, "dist.refine.level"), 1);

        let (report, stats) = traced(&edges[1]);
        assert_eq!((stats.dist_levels, stats.gathered_vertices), (1, 120));
        assert_eq!(count(&report, "dist.coarsen.level"), 1);
        assert_eq!(
            (
                count(&report, "coarsen.match"),
                count(&report, "coarsen.contract")
            ),
            (1, 0)
        );

        let (report, stats) = traced(&edges[2]);
        assert_eq!(
            stats.dist_levels, 2,
            "the input and the level under the threshold"
        );
        let gathered: Vec<bool> = report
            .spans
            .iter()
            .filter(|s| s.name == "dist.coarsen.level")
            .map(|s| s.attrs.iter().any(|(key, _)| *key == "gathered"))
            .collect();
        assert_eq!(gathered[..2], [false, true]);
        assert_eq!(gathered.iter().filter(|&&g| g).count(), 1);
        assert_eq!(count(&report, "coarsen.match"), gathered.len() as u64);

        let (_, stats) = traced(&edges[3]);
        assert_eq!(stats.dist_levels, 0);
    }
}
