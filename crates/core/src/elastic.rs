//! Elastic worlds: every change of the rank set at an epoch boundary
//! (DESIGN.md §15).
//!
//! A [`WorldPlan`] is the one schedule of the rank set: rank arrivals
//! (spares joining, rolling restarts returning), planned departures
//! (shrink under low load) and rank failures, per epoch. A failure is a
//! departure the user did not announce: at each boundary the driver
//! takes the plan's one net change (`boundary_change`) and applies it as
//! one resize, the failed ranks among the leavers.
//!
//! A resize is posed as the repartitioning problem the model already
//! solves, on three label spaces at once:
//!
//! * the **before** space `0..k_before` — the compacted labels of the
//!   pre-resize world, where `old_part` lives;
//! * the **post** space `0..k_after` — survivors compacted in label
//!   order, then joiners appended — where the committed partition
//!   lives;
//! * the **union** space `0..k_before + #joins` — every rank that is
//!   alive at any point during the resize. Migration physically
//!   executes here: leavers ship their vertices out, joiners receive
//!   theirs, and the measured exchange prices both flows.
//!
//! Two candidate partitions compete for every resize:
//!
//! * **repartition** — [`RepartitionHypergraph::build_partial`] with
//!   the leavers' vertices free (their migration is unavoidable and
//!   destination-independent, whether the leaver departs or fails) and
//!   survivors tethered, solved with fixed vertices onto `k_after`;
//! * **scratch** — a free partition onto `k_after` parts, relabeled by
//!   the maximal-matching heuristic against the surviving old labels
//!   ([`crate::remap::remap_to_minimize_migration_partial`]).
//!
//! The *measured* cost model arbitrates: both candidates execute their
//! migration on the union world ([`crate::exec::measure_epoch`])
//! and the lower measured `α·comm + mig` volume wins (model costs decide
//! for unmeasured sessions — the two agree by the cut identity). The
//! choice is recorded per resize ([`ResizeRecord`]) and in the
//! `resize_chose_*` trace counters.

use std::fmt;
use std::sync::{Arc, Mutex};

use dlb_hypergraph::{metrics, Hypergraph, PartId};
use dlb_mpisim::Comm;
use dlb_partitioner::{partition_fixed_on, FixedAssignment};
use dlb_workloads::{EpochSnapshot, EpochSource, EpochUpdate};

use crate::cost::CostBreakdown;
use crate::driver::RepartConfig;
use crate::exec::{measure_epoch, EpochExecution, NetworkModel};
use crate::membership::WorldMembership;
use crate::model::RepartitionHypergraph;
use crate::remap::remap_to_minimize_migration_partial;
use crate::spec;

/// One scheduled world change: rank `rank` joins, leaves or fails at the
/// boundary of `epoch` (1-based, matching the driver's epoch numbering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WorldEvent {
    /// The original rank id (stable name; may exceed the launch `k`
    /// for spares, and a departed or failed rank may rejoin later).
    pub rank: usize,
    /// The 1-based epoch at whose boundary the change applies.
    pub epoch: usize,
    /// Join, leave or fail.
    pub change: WorldChange,
}

impl fmt::Display for WorldEvent {
    /// The event as its plan directive, e.g. `fail2@5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keyword = match self.change {
            WorldChange::Join => "join",
            WorldChange::Leave => "leave",
            WorldChange::Fail => "fail",
        };
        write!(f, "{keyword}{}@{}", self.rank, self.epoch)
    }
}

/// The kind of a [`WorldEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WorldChange {
    /// The rank arrives (a spare joins the world).
    Join,
    /// The rank departs (planned shrink; its vertices migrate out).
    Leave,
    /// The rank dies: a departure nobody announced. Its vertices migrate
    /// out like a leaver's, and the run counts a recovery.
    Fail,
}

/// A declarative schedule of the rank set: arrivals, planned
/// departures and failures.
///
/// Build one programmatically from [`WorldPlan::default`] (no changes)
/// with the builder methods, or parse the CLI spec grammar with
/// [`WorldPlan::parse`]:
///
/// ```text
/// directive(,directive)*
///   join<R>@<E>    rank R joins at epoch E       e.g. join4@3
///   leave<R>@<E>   rank R leaves at epoch E      e.g. leave0@5
///   fail<R>@<E>    rank R fails at epoch E       e.g. fail2@2
/// ```
///
/// ```
/// use dlb_core::WorldPlan;
/// let plan = WorldPlan::parse("join4@3,leave0@5,fail2@5").unwrap();
/// assert_eq!(plan, WorldPlan::default().join(4, 3).leave(0, 5).fail(2, 5));
/// assert_eq!(plan.resize_at(3), (vec![4], vec![]));
/// assert_eq!(plan.resize_at(5), (vec![], vec![0]));
/// assert!(plan.validate(4, 5).is_ok());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorldPlan {
    events: Vec<WorldEvent>,
}

impl WorldPlan {
    fn event(mut self, rank: usize, epoch: usize, change: WorldChange) -> Self {
        assert!(epoch >= 1, "epochs are 1-based");
        self.events.push(WorldEvent {
            rank,
            epoch,
            change,
        });
        self
    }

    /// Schedules rank `rank` to join at the boundary of `epoch`
    /// (1-based).
    pub fn join(self, rank: usize, epoch: usize) -> Self {
        self.event(rank, epoch, WorldChange::Join)
    }

    /// Schedules rank `rank` to leave at the boundary of `epoch`
    /// (1-based).
    pub fn leave(self, rank: usize, epoch: usize) -> Self {
        self.event(rank, epoch, WorldChange::Leave)
    }

    /// Schedules rank `rank` to fail at the boundary of `epoch`
    /// (1-based).
    pub fn fail(self, rank: usize, epoch: usize) -> Self {
        self.event(rank, epoch, WorldChange::Fail)
    }

    /// Parses the `directive(,directive)*` grammar (see the type docs).
    /// Directives are trimmed and empty ones skipped, so an empty spec
    /// is an empty plan.
    pub fn parse(s: &str) -> Result<WorldPlan, String> {
        let mut plan = WorldPlan::default();
        for directive in spec::split_directives(s) {
            let (change, rest) = if let Some(rest) = directive.strip_prefix("join") {
                (WorldChange::Join, rest)
            } else if let Some(rest) = directive.strip_prefix("leave") {
                (WorldChange::Leave, rest)
            } else if let Some(rest) = directive.strip_prefix("fail") {
                (WorldChange::Fail, rest)
            } else {
                return Err(spec::unknown_directive(
                    directive,
                    "join<R>@<E>, leave<R>@<E> or fail<R>@<E>",
                ));
            };
            let (rank, epoch) = parse_rank_at_epoch(directive, rest)?;
            plan.events.push(WorldEvent {
                rank,
                epoch,
                change,
            });
        }
        Ok(plan)
    }

    /// The ranks with a `change` event at the boundary of `epoch`,
    /// sorted and deduplicated.
    fn ranks_at(&self, epoch: usize, change: WorldChange) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.epoch == epoch && e.change == change)
            .map(|e| e.rank)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The *net* planned resize at the boundary of `epoch`: `(joins,
    /// leaves)`, each sorted and deduplicated, with a rank scheduled to
    /// both join and leave at the same epoch cancelled out entirely.
    /// That folding is what makes a grow-then-immediately-shrink plan a
    /// literal no-op — bitwise equal to running with no plan at all.
    /// Failures are not netted here: a join never cancels one.
    pub fn resize_at(&self, epoch: usize) -> (Vec<usize>, Vec<usize>) {
        let mut joins = self.ranks_at(epoch, WorldChange::Join);
        let mut leaves = self.ranks_at(epoch, WorldChange::Leave);
        let cancelled: Vec<usize> = joins
            .iter()
            .copied()
            .filter(|r| leaves.contains(r))
            .collect();
        joins.retain(|r| !cancelled.contains(r));
        leaves.retain(|r| !cancelled.contains(r));
        (joins, leaves)
    }

    /// Fails fast if the schedule cannot run within `num_epochs` epochs
    /// of a `k0`-part launch: a `fail` or `leave` names a rank that is
    /// neither launched (`< k0`) nor joined anywhere in the plan, an
    /// event falls after the last epoch (it would never apply), or some
    /// boundary would empty the world. Each boundary's net change comes
    /// from the driver's own `boundary_change`, so a failure that a join
    /// at the same boundary refills is accepted.
    pub fn validate(&self, k0: usize, num_epochs: usize) -> Result<(), String> {
        let joins = |rank: usize| {
            self.events
                .iter()
                .any(|e| e.rank == rank && e.change == WorldChange::Join)
        };
        if let Some(e) = self
            .events
            .iter()
            .find(|e| e.change != WorldChange::Join && e.rank >= k0 && !joins(e.rank))
        {
            return Err(format!(
                "rank {} out of range for k = {k0} ({e} names a rank that is never in the world)",
                e.rank
            ));
        }
        if let Some(e) = self.events.iter().find(|e| e.epoch > num_epochs) {
            return Err(format!(
                "{e} falls after the run's last epoch ({num_epochs})"
            ));
        }
        let mut world = WorldMembership::launch(k0);
        for epoch in 1..=num_epochs {
            let (failed, joined, departed) = boundary_change(&world, epoch, self);
            if world.k() + joined.len() == failed.len() + departed.len() {
                return Err(match failed.last() {
                    Some(r) if joined.is_empty() && departed.is_empty() => {
                        format!("rank {r} failing at epoch {epoch} would empty the world")
                    }
                    _ => format!("world plan empties the world at epoch {epoch}"),
                });
            }
            let leaving: Vec<usize> = failed.iter().chain(&departed).copied().collect();
            world.resize(&leaving, &joined);
        }
        Ok(())
    }
}

/// Parses the `<R>@<E>` operand shape of every world-plan directive
/// (`join4@3`, `leave0@7`, `fail2@2`): a rank id and a 1-based epoch.
/// `directive` is the full directive text (for error messages); `rest`
/// is the text after the keyword.
fn parse_rank_at_epoch(directive: &str, rest: &str) -> Result<(usize, usize), String> {
    let (rank_str, epoch_str) = rest
        .split_once('@')
        .ok_or_else(|| format!("'{directive}': expected <R>@<E>"))?;
    let rank: usize = rank_str
        .parse()
        .map_err(|_| format!("'{directive}': rank '{rank_str}' is not a usize"))?;
    let epoch: usize = epoch_str
        .parse()
        .map_err(|_| format!("'{directive}': epoch '{epoch_str}' is not a usize"))?;
    if epoch == 0 {
        return Err(format!("'{directive}': epochs are 1-based"));
    }
    Ok((rank, epoch))
}

/// The net change of the rank set at the boundary of `epoch`:
/// `(failed, joined, departed)` in original rank ids, each ascending.
/// `failed` holds the live ranks the plan fails; `joined` and `departed`
/// its net joins of ranks not live (or failing right now) and net leaves
/// of live ranks that do not fail. All three empty means the epoch has
/// no boundary event.
pub(crate) fn boundary_change(
    membership: &WorldMembership,
    epoch: usize,
    world: &WorldPlan,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut failed = world.ranks_at(epoch, WorldChange::Fail);
    failed.retain(|&r| membership.is_live(r));
    let (mut joined, mut departed) = world.resize_at(epoch);
    joined.retain(|r| !membership.is_live(*r) || failed.contains(r));
    departed.retain(|r| membership.is_live(*r) && !failed.contains(r));
    (failed, joined, departed)
}

/// Which candidate the per-resize arbitration picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeChoice {
    /// The fixed-vertex repartition (leavers free, survivors tethered).
    Repart,
    /// The scratch partition + maximal-matching remap.
    Scratch,
}

impl ResizeChoice {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ResizeChoice::Repart => "repart",
            ResizeChoice::Scratch => "scratch",
        }
    }
}

/// The one resize performed at an epoch boundary: the world plan's
/// failures and net joins and leaves together.
#[derive(Clone, Debug)]
pub struct ResizeRecord {
    /// Epoch at whose boundary the resize applied (1-based).
    pub epoch: usize,
    /// Original ids of the ranks the world plan failed, ascending.
    pub failed: Vec<usize>,
    /// Original ids of the ranks the world plan joined, ascending.
    pub joined: Vec<usize>,
    /// Original ids of the ranks the world plan departed, ascending.
    pub departed: Vec<usize>,
    /// Live parts before the resize.
    pub k_before: usize,
    /// Live parts after.
    pub k_after: usize,
    /// The candidate the cost model picked.
    pub choice: ResizeChoice,
    /// Decision cost of the repartition candidate (measured
    /// `α·comm + mig` volume when the session is measured, the model
    /// total otherwise).
    pub repart_cost: f64,
    /// Decision cost of the scratch candidate, same units.
    pub scratch_cost: f64,
    /// Model migration volume of the chosen move (union space,
    /// including the departing and failed ranks' evacuation).
    pub migration: f64,
    /// Measured migration-phase makespan of the resize exchange in
    /// seconds (`0.0` when the trial runs without a network model).
    pub t_mig: f64,
}

/// The chosen outcome of one resize (driver-internal).
#[derive(Clone, Debug)]
pub(crate) struct ResizeOutcome {
    /// The new assignment in the post space (`0..k_after`).
    pub part: Vec<PartId>,
    /// The same assignment in the union space — what the migration
    /// phase executes against the pre-resize assignment. (The driver
    /// consumes the measured execution; the union labels themselves are
    /// exercised by the unit tests.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub exec_part: Vec<PartId>,
    /// Ranks alive at any point during the resize.
    #[cfg_attr(not(test), allow(dead_code))]
    pub k_union: usize,
    /// Cost of the resize move, measured in the union space.
    pub cost: CostBreakdown,
    /// Load imbalance of the new assignment over `k_after` parts.
    pub imbalance: f64,
    /// Vertices that changed parts (every leaver vertex moves).
    pub moved: usize,
    /// `relabel[before] = post` for labels a source remembers of
    /// vertices absent from this epoch: a survivor's compacted label; a
    /// leaver's goes to the post label that received most of its
    /// vertices (the lower on ties, label 0 if it held none).
    pub relabel: Vec<PartId>,
    /// Measured execution of the chosen candidate on the union world
    /// (`None` without a network model).
    pub execution: Option<EpochExecution>,
    /// Which candidate won.
    pub choice: ResizeChoice,
    /// Decision cost of the repartition candidate.
    pub repart_cost: f64,
    /// Decision cost of the scratch candidate.
    pub scratch_cost: f64,
}

/// Performs one resize: the `leaving_labels` (pre-resize compacted
/// labels of departing and failed ranks, sorted ascending) depart and
/// `num_joining` fresh parts arrive. Solves both candidate partitions
/// onto `k_after = k_before - #leaves + #joins` parts, arbitrates by the
/// measured cost model (model costs when `network` is `None`), and
/// returns the winner. With `comm` the candidate partitioners run
/// collectively (all driver ranks call this with identical inputs and
/// agree on the result); without, serially.
///
/// # Panics
/// Panics if the resize leaves no parts, a leaving label is out of
/// range, or on length mismatches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn perform_resize(
    mut comm: Option<&mut Comm>,
    h: &Hypergraph,
    old_part: &[PartId],
    leaving_labels: &[usize],
    num_joining: usize,
    k_before: usize,
    alpha: f64,
    cfg: &RepartConfig,
    network: Option<&NetworkModel>,
) -> ResizeOutcome {
    assert_eq!(
        old_part.len(),
        h.num_vertices(),
        "old partition length mismatch"
    );
    assert!(
        leaving_labels.iter().all(|&p| p < k_before),
        "leaving label out of range"
    );
    assert!(
        leaving_labels.windows(2).all(|w| w[0] < w[1]),
        "leaving labels must be sorted"
    );
    let survivors = k_before - leaving_labels.len();
    let k_after = survivors + num_joining;
    let k_union = k_before + num_joining;
    assert!(k_after >= 1, "resize leaves no parts");

    // before → post: survivors compact in label order; leavers vanish.
    let mut old_to_post: Vec<Option<PartId>> = vec![None; k_before];
    let mut next = 0usize;
    let mut li = 0usize;
    for p in 0..k_before {
        if li < leaving_labels.len() && leaving_labels[li] == p {
            li += 1;
        } else {
            old_to_post[p] = Some(next);
            next += 1;
        }
    }
    // post → union: survivors keep their before-labels; joiners take the
    // fresh labels `k_before..k_union`.
    let mut post_to_union: Vec<PartId> = vec![0; k_after];
    for p in 0..k_before {
        if let Some(q) = old_to_post[p] {
            post_to_union[q] = p;
        }
    }
    for j in 0..num_joining {
        post_to_union[survivors + j] = k_before + j;
    }

    // Old homes in the post space: leavers' vertices are free — their
    // evacuation is unavoidable and costs the same wherever they land,
    // so the model must not distort placement by charging it.
    let partial: Vec<Option<PartId>> = old_part.iter().map(|&p| old_to_post[p]).collect();

    // Candidate 1: fixed-vertex repartition of the partial model.
    let model = RepartitionHypergraph::build_partial(h, &partial, k_after, alpha);
    let part_repart = model.solve(comm.as_deref_mut(), &cfg.hypergraph);

    // Candidate 2: scratch partition + maximal-matching remap against
    // the surviving old labels.
    let free = FixedAssignment::free(h.num_vertices());
    let scratch = partition_fixed_on(comm, h, k_after, &free, None, &cfg.hypergraph);
    let part_scratch =
        remap_to_minimize_migration_partial(&scratch.part, &partial, h.vertex_sizes(), k_after);

    let to_union =
        |post: &[PartId]| -> Vec<PartId> { post.iter().map(|&q| post_to_union[q]).collect() };
    let exec_repart = to_union(&part_repart);
    let exec_scratch = to_union(&part_scratch);
    let cost_repart = CostBreakdown::measure(h, old_part, &exec_repart, k_union, alpha);
    let cost_scratch = CostBreakdown::measure(h, old_part, &exec_scratch, k_union, alpha);

    // Arbitration: measured cost volumes on the union world when a
    // network model is installed (the migration physically executes —
    // leavers evacuate, joiners fill); model totals otherwise. The two
    // agree by the cut identity, so the decisions coincide on the
    // integer-valued workloads. Ties go to the repartitioner.
    let (meas_repart, meas_scratch) = match network {
        Some(net) => (
            Some(measure_epoch(
                h,
                old_part,
                &exec_repart,
                k_union,
                alpha,
                net,
            )),
            Some(measure_epoch(
                h,
                old_part,
                &exec_scratch,
                k_union,
                alpha,
                net,
            )),
        ),
        None => (None, None),
    };
    let (repart_cost, scratch_cost) = match (&meas_repart, &meas_scratch) {
        (Some(a), Some(b)) => (a.cost_volume(), b.cost_volume()),
        _ => (cost_repart.total(), cost_scratch.total()),
    };
    let choice = if repart_cost <= scratch_cost {
        ResizeChoice::Repart
    } else {
        ResizeChoice::Scratch
    };
    let (part, exec_part, cost, execution) = match choice {
        ResizeChoice::Repart => (part_repart, exec_repart, cost_repart, meas_repart),
        ResizeChoice::Scratch => (part_scratch, exec_scratch, cost_scratch, meas_scratch),
    };
    let imbalance = metrics::imbalance(h, &part, k_after);
    let moved = metrics::moved_vertex_count(old_part, &exec_part);
    let relabel: Vec<PartId> = (0..k_before)
        .map(|p| {
            old_to_post[p].unwrap_or_else(|| {
                let mut received = vec![0usize; k_after];
                for (&o, &q) in old_part.iter().zip(&part) {
                    if o == p {
                        received[q] += 1;
                    }
                }
                // `max_by_key` keeps the last maximum: scanning downwards
                // makes that the lowest label.
                (0..k_after)
                    .rev()
                    .max_by_key(|&q| received[q])
                    .expect("k_after >= 1")
            })
        })
        .collect();

    ResizeOutcome {
        part,
        exec_part,
        k_union,
        cost,
        imbalance,
        moved,
        relabel,
        execution,
        choice,
        repart_cost,
        scratch_cost,
    }
}

/// A deterministic digest of the *science* content of one epoch — the
/// mesh structure, weights, sizes, net costs, and persistent base ids,
/// explicitly **excluding** the partition. For partition-independent
/// workloads (the AMR quadtree: refinement follows the features, never
/// the decomposition) this sequence is the delivered answer, and the
/// chaos soak asserts it stays bit-identical under any churn.
pub(crate) fn science_fingerprint(snapshot: &EpochSnapshot) -> u64 {
    // FNV-1a over the canonical encoding; f64s hash by bit pattern so
    // equality is bitwise, not approximate.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        hash ^= x;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    let h = &snapshot.hypergraph;
    let n = h.num_vertices();
    eat(n as u64);
    for v in 0..n {
        eat(h.vertex_weight(v).to_bits());
        eat(h.vertex_size(v).to_bits());
    }
    eat(h.num_nets() as u64);
    for j in 0..h.num_nets() {
        eat(h.net_cost(j).to_bits());
        let pins = h.net(j);
        eat(pins.len() as u64);
        for &v in pins {
            eat(v as u64);
        }
    }
    for &b in &snapshot.to_base {
        eat(b as u64);
    }
    hash
}

/// A shared, append-only log of per-epoch `science_fingerprint`s —
/// the "delivered answers" of one run, exfiltrated through the
/// [`AuditedSource`] wrapper so multi-rank factory sessions can hand a
/// ledger out of the SPMD world.
pub type AuditLedger = Arc<Mutex<Vec<u64>>>;

/// Wraps any [`EpochSource`], recording the science fingerprint of
/// every emitted snapshot into an [`AuditLedger`]. The chaos-soak
/// harness runs a churn-free baseline and a churned run over identical
/// sources and asserts their ledgers match bit for bit.
///
/// Auditing is snapshot-based: [`EpochSource::next_delta`] updates are
/// forwarded but only `Full` snapshots are fingerprinted, so audited
/// runs should stay non-incremental.
pub struct AuditedSource<S> {
    inner: S,
    ledger: AuditLedger,
}

impl<S: EpochSource> AuditedSource<S> {
    /// Wraps `inner` with a fresh ledger.
    pub fn new(inner: S) -> Self {
        AuditedSource {
            inner,
            ledger: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Wraps `inner`, appending to an existing ledger (per-rank ledgers
    /// of a factory session).
    pub fn with_ledger(inner: S, ledger: AuditLedger) -> Self {
        AuditedSource { inner, ledger }
    }

    /// The ledger this source appends to.
    pub fn ledger(&self) -> AuditLedger {
        Arc::clone(&self.ledger)
    }
}

impl<S: EpochSource> EpochSource for AuditedSource<S> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn epochs_emitted(&self) -> usize {
        self.inner.epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        let snapshot = self.inner.next_epoch();
        self.ledger
            .lock()
            .unwrap()
            .push(science_fingerprint(&snapshot));
        snapshot
    }

    fn next_delta(&mut self) -> EpochUpdate {
        let update = self.inner.next_delta();
        if let EpochUpdate::Full(snapshot) = &update {
            self.ledger
                .lock()
                .unwrap()
                .push(science_fingerprint(snapshot));
        }
        update
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        self.inner.commit_assignment(snapshot, part);
    }

    fn relabel_parts(&mut self, map: &[PartId]) {
        self.inner.relabel_parts(map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::convert::column_net_model_unit;
    use dlb_hypergraph::GraphBuilder;

    #[test]
    fn parse_full_grammar() {
        let plan = WorldPlan::parse("join4@2,leave1@2,leave0@5,fail3@5").unwrap();
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.resize_at(2), (vec![4], vec![1]));
        assert_eq!(plan.resize_at(5), (vec![], vec![0]));
        assert_eq!(plan.resize_at(1), (vec![], vec![]));
        assert_eq!(plan.ranks_at(5, WorldChange::Fail), vec![3]);
        // Directives are trimmed and empty ones skipped.
        let plan = WorldPlan::parse(" join4@2 ,, leave0@5 ").unwrap();
        assert_eq!(plan, WorldPlan::default().join(4, 2).leave(0, 5));
    }

    #[test]
    fn parse_empty_spec_is_no_changes() {
        for spec in ["", " ", ",", " , "] {
            assert_eq!(
                WorldPlan::parse(spec).unwrap(),
                WorldPlan::default(),
                "'{spec}'"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nocolon",
            "join@2",
            "join1@zero",
            "join1@0",
            "leave1",
            "fail@2",
            "rank1@2",
            "explode",
            // The seed prefix of the old `SEED:spec` grammar.
            "7:fail2@2",
        ] {
            assert!(WorldPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn error_wording_matches_the_fault_plan() {
        // The world plan keeps, byte for byte, the wording it shared
        // with the message-fault plan that once spoke this grammar:
        // every directive kind fails alike, and an unknown one names
        // itself and the keywords the plan accepts.
        let w = WorldPlan::parse("join1@0").unwrap_err();
        let f = WorldPlan::parse("fail1@0").unwrap_err();
        assert_eq!(w, "'join1@0': epochs are 1-based");
        assert_eq!(f, "'fail1@0': epochs are 1-based");
        assert_eq!(
            WorldPlan::parse("join1@2, explode").unwrap_err(),
            "unknown directive 'explode' (expected join<R>@<E>, leave<R>@<E> or fail<R>@<E>)"
        );
    }

    #[test]
    fn rank_at_epoch_parses_and_rejects() {
        assert_eq!(parse_rank_at_epoch("fail1@2", "1@2").unwrap(), (1, 2));
        for (directive, rest) in [
            ("fail@2", "@2"),
            ("fail1@", "1@"),
            ("fail1@zero", "1@zero"),
            ("fail12", "12"),
        ] {
            let err = parse_rank_at_epoch(directive, rest).unwrap_err();
            assert!(
                err.contains(directive),
                "error must cite '{directive}': {err}"
            );
        }
        let err = parse_rank_at_epoch("leave3@0", "3@0").unwrap_err();
        assert!(err.contains("1-based"), "{err}");
    }

    #[test]
    fn failures_at_an_epoch_dedup_and_sort() {
        let plan = WorldPlan::default().fail(3, 5).fail(1, 5).fail(3, 5);
        assert_eq!(plan.ranks_at(5, WorldChange::Fail), vec![1, 3]);
    }

    #[test]
    fn same_epoch_join_and_leave_cancel() {
        let plan = WorldPlan::default().join(5, 3).leave(5, 3).leave(1, 3);
        assert_eq!(plan.resize_at(3), (vec![], vec![1]));
        // A pure no-op epoch nets to nothing at all.
        let noop = WorldPlan::default().join(9, 2).leave(9, 2);
        assert_eq!(noop.resize_at(2), (vec![], vec![]));
    }

    #[test]
    fn validate_catches_world_exhaustion() {
        assert!(
            WorldPlan::default().leave(0, 1).validate(2, 1).is_ok(),
            "one leave of two is fine"
        );
        let plan = WorldPlan::default().leave(0, 1).leave(1, 2);
        // Its leave at epoch 2 would never apply in a one-epoch run.
        let err = plan.validate(2, 1).unwrap_err();
        assert_eq!(err, "leave1@2 falls after the run's last epoch (1)");
        let err = plan.validate(2, 2).unwrap_err();
        assert!(err.contains("epoch 2"), "{err}");
        // A join rescues the same schedule.
        let rescued = plan.clone().join(7, 2);
        assert!(rescued.validate(2, 2).is_ok());
        // Failures are simulated too.
        let failures = WorldPlan::default().fail(0, 1).fail(1, 1);
        let err = failures.validate(2, 2).unwrap_err();
        assert!(err.contains("empty the world"), "{err}");
    }

    #[test]
    fn validate_refuses_ranks_never_in_the_world() {
        // A fail or leave must name a launched rank or one the plan
        // joins; a leave used to be dropped silently.
        for plan in [
            WorldPlan::default().fail(9, 1),
            WorldPlan::default().leave(9, 2),
        ] {
            let err = plan.validate(4, 2).unwrap_err();
            assert!(err.contains("rank 9 out of range for k = 4"), "{err}");
        }
        let err = WorldPlan::default().leave(9, 2).validate(4, 2).unwrap_err();
        assert!(err.contains("leave9@2"), "{err}");
        // A spare the plan joins may fail or leave, even before it joins.
        assert!(WorldPlan::default()
            .join(9, 2)
            .fail(9, 3)
            .validate(4, 3)
            .is_ok());
        assert!(WorldPlan::default()
            .leave(9, 1)
            .join(9, 2)
            .validate(4, 3)
            .is_ok());
    }

    fn grid(rows: usize, cols: usize, k: usize) -> (Hypergraph, Vec<PartId>) {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut b = GraphBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_edge(idx(r, c), idx(r, c + 1), 1.0);
                }
                if r + 1 < rows {
                    b.add_edge(idx(r, c), idx(r + 1, c), 1.0);
                }
            }
        }
        let g = b.build();
        let h = column_net_model_unit(&g);
        let old: Vec<usize> = (0..rows * cols).map(|v| (v % cols) * k / cols).collect();
        (h, old)
    }

    #[test]
    fn shrink_evacuates_the_leaver() {
        let (h, old) = grid(8, 8, 4);
        let cfg = RepartConfig::seeded(1);
        let out = perform_resize(None, &h, &old, &[2], 0, 4, 10.0, &cfg, None);
        assert_eq!(out.k_union, 4);
        assert!(out.part.iter().all(|&p| p < 3));
        // In the union space the departed label is never reassigned.
        assert!(out.exec_part.iter().all(|&p| p < 4 && p != 2));
        let evacuated = old.iter().filter(|&&p| p == 2).count();
        assert!(out.moved >= evacuated, "every leaver vertex moves");
        assert!(out.imbalance < 1.5, "imbalance {}", out.imbalance);
    }

    #[test]
    fn grow_populates_the_joiners() {
        let (h, old) = grid(8, 8, 2);
        let cfg = RepartConfig::seeded(2);
        let out = perform_resize(None, &h, &old, &[], 2, 2, 10.0, &cfg, None);
        assert_eq!(out.k_union, 4);
        assert!(out.part.iter().all(|&p| p < 4));
        // Growth onto spares must actually use them: balance over 4
        // parts forces every part non-empty on a uniform grid.
        for p in 0..4 {
            assert!(out.part.contains(&p), "part {p} left empty");
        }
        assert!(out.imbalance < 1.5, "imbalance {}", out.imbalance);
        // Post labels 2,3 map to union labels 2,3 (fresh ranks).
        for (&q, &u) in out.part.iter().zip(&out.exec_part) {
            assert_eq!(q, u, "with no leavers the post and union spaces coincide");
        }
    }

    #[test]
    fn simultaneous_shrink_and_grow_relabels_consistently() {
        let (h, old) = grid(8, 8, 3);
        let cfg = RepartConfig::seeded(3);
        let out = perform_resize(None, &h, &old, &[0], 2, 3, 10.0, &cfg, None);
        // post: {old1→0, old2→1, new→2, new→3}; union: {0..3 old, 3,4 new}.
        assert_eq!(out.k_union, 5);
        assert!(out.part.iter().all(|&p| p < 4));
        for (&q, &u) in out.part.iter().zip(&out.exec_part) {
            let expect = match q {
                0 => 1,
                1 => 2,
                2 => 3,
                3 => 4,
                _ => unreachable!(),
            };
            assert_eq!(u, expect);
        }
        assert_eq!(
            out.cost.migration,
            metrics::migration_volume(h.vertex_sizes(), &old, &out.exec_part)
        );
    }

    #[test]
    fn arbitration_reports_both_candidate_costs() {
        let (h, old) = grid(8, 8, 4);
        let cfg = RepartConfig::seeded(4);
        let out = perform_resize(None, &h, &old, &[1], 0, 4, 10.0, &cfg, None);
        assert!(out.repart_cost > 0.0);
        assert!(out.scratch_cost > 0.0);
        let winner = match out.choice {
            ResizeChoice::Repart => out.repart_cost,
            ResizeChoice::Scratch => out.scratch_cost,
        };
        assert!(winner <= out.repart_cost.max(out.scratch_cost));
        // Unmeasured arbitration decides on the model total of the win.
        assert_eq!(winner, out.cost.total());
    }

    #[test]
    fn measured_arbitration_agrees_with_the_model() {
        let (h, old) = grid(6, 6, 3);
        let cfg = RepartConfig::seeded(5);
        let net = NetworkModel::default();
        let measured = perform_resize(None, &h, &old, &[0], 1, 3, 10.0, &cfg, Some(&net));
        let modeled = perform_resize(None, &h, &old, &[0], 1, 3, 10.0, &cfg, None);
        // Same candidates, and on integer-valued inputs the measured
        // volumes equal the model costs bitwise — so the same winner.
        assert_eq!(measured.choice, modeled.choice);
        assert_eq!(measured.part, modeled.part);
        let e = measured.execution.expect("measured resize");
        assert_eq!(e.cost_volume(), modeled.cost.total());
        assert!(e.t_mig > 0.0, "the leaver's evacuation is physical");
    }

    /// The recovery the driver ran per failed rank before failures
    /// joined the boundary resize, kept as the reference the repart
    /// candidate must reproduce: the dead part's vertices free,
    /// survivors tethered and compacted, one fixed-vertex solve onto
    /// `k - 1` parts, costed after relabelling into the pre-failure
    /// space (the dead label vacated).
    fn recover_from_failure(
        h: &Hypergraph,
        old_part: &[PartId],
        dead: PartId,
        k: usize,
        alpha: f64,
        cfg: &RepartConfig,
    ) -> (Vec<PartId>, CostBreakdown) {
        let partial: Vec<Option<PartId>> = old_part
            .iter()
            .map(|&p| {
                if p == dead {
                    None
                } else {
                    Some(if p > dead { p - 1 } else { p })
                }
            })
            .collect();
        let model = RepartitionHypergraph::build_partial(h, &partial, k - 1, alpha);
        let part = model.solve(None, &cfg.hypergraph);
        let exec_part: Vec<PartId> = part
            .iter()
            .map(|&q| if q >= dead { q + 1 } else { q })
            .collect();
        let cost = CostBreakdown::measure(h, old_part, &exec_part, k, alpha);
        (part, cost)
    }

    #[test]
    fn a_failures_repart_candidate_is_the_recovery() {
        let mut repart_won = 0;
        for (rows, cols, k) in [(8, 8, 4), (6, 6, 3), (6, 10, 5)] {
            let (h, old) = grid(rows, cols, k);
            for dead in 0..k {
                for alpha in [1.0, 10.0, 100.0] {
                    let cfg = RepartConfig::seeded(dead as u64 + 1);
                    let (part, cost) = recover_from_failure(&h, &old, dead, k, alpha, &cfg);
                    let out = perform_resize(None, &h, &old, &[dead], 0, k, alpha, &cfg, None);
                    let case = format!("{rows}x{cols} k={k} dead={dead} alpha={alpha}");
                    assert_eq!(out.repart_cost.to_bits(), cost.total().to_bits(), "{case}");
                    if out.choice == ResizeChoice::Repart {
                        assert_eq!(out.part, part, "{case}");
                        repart_won += 1;
                    }
                    // Survivors compact; the dead label follows most of
                    // its vertices.
                    for p in (0..k).filter(|&p| p != dead) {
                        assert_eq!(out.relabel[p], if p > dead { p - 1 } else { p }, "{case}");
                    }
                    let mut received = vec![0usize; k - 1];
                    for (&o, &q) in old.iter().zip(&out.part) {
                        if o == dead {
                            received[q] += 1;
                        }
                    }
                    let most = *received.iter().max().unwrap();
                    assert_eq!(
                        received.iter().position(|&c| c == most),
                        Some(out.relabel[dead])
                    );
                }
            }
        }
        assert!(repart_won > 0, "no case compared the partitions");
    }

    fn weights_stream(k: usize, seed: u64) -> dlb_workloads::EpochStream {
        use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};
        let d = Dataset::generate(DatasetKind::Auto, 0.0005, seed);
        let n = d.graph.num_vertices();
        let init: Vec<usize> = (0..n).map(|v| v * k / n).collect();
        EpochStream::new(d.graph, Perturbation::weights(), k, init, seed)
    }

    fn session<'a>(epochs: usize) -> crate::Session<'a> {
        crate::Session::new(RepartConfig::seeded(21))
            .alpha(10.0)
            .epochs(epochs)
    }

    #[test]
    fn a_double_failure_is_one_resize() {
        let mut stream = weights_stream(4, 21);
        let s = session(3)
            .world_plan(WorldPlan::parse("fail3@2,fail1@2").unwrap())
            .workload(&mut stream)
            .run()
            .unwrap();
        let rec = s.reports[1].resize.as_ref().expect("epoch 2 resized");
        assert_eq!(rec.failed, vec![1, 3]);
        assert!(rec.joined.is_empty() && rec.departed.is_empty());
        assert_eq!((rec.k_before, rec.k_after), (4, 2));
        assert_eq!((s.total_resizes(), s.total_recoveries()), (1, 2));
        assert_eq!(s.world_timeline(), vec![(1, 4), (2, 2), (3, 2)]);
    }

    #[test]
    fn a_join_refills_a_world_its_failures_would_empty() {
        let mut stream = weights_stream(2, 22);
        let s = session(3)
            .world_plan(WorldPlan::parse("fail0@2,fail1@2,join5@2").unwrap())
            .workload(&mut stream)
            .run()
            .unwrap();
        let rec = s.reports[1].resize.as_ref().expect("epoch 2 resized");
        assert_eq!(
            (rec.failed.as_slice(), rec.joined.as_slice()),
            (&[0, 1][..], &[5][..])
        );
        assert_eq!(s.world_timeline(), vec![(1, 2), (2, 1), (3, 1)]);
        // Without the join the failures empty the world.
        let mut stream = weights_stream(2, 22);
        let err = session(3)
            .world_plan(WorldPlan::parse("fail0@2,fail1@2").unwrap())
            .workload(&mut stream)
            .run()
            .unwrap_err();
        assert!(matches!(err, crate::SessionError::InvalidPlan(_)), "{err}");
    }

    #[test]
    fn fingerprint_ignores_the_partition() {
        use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};
        let d = Dataset::generate(DatasetKind::Auto, 0.0005, 11);
        let n = d.graph.num_vertices();
        let init: Vec<usize> = (0..n).map(|v| v % 2).collect();
        let mut a = EpochStream::new(d.graph.clone(), Perturbation::weights(), 2, init, 11);
        // Same science, different decomposition. (Two streams started
        // from different partitions would not do: a weight epoch
        // perturbs the vertices of randomly chosen *parts*, so their
        // science legitimately differs.)
        let sa = a.next_epoch();
        let mut sb = sa.clone();
        for p in &mut sb.old_part {
            *p = 1 - *p;
        }
        assert_ne!(sa.old_part, sb.old_part);
        assert_eq!(science_fingerprint(&sa), science_fingerprint(&sb));
        // ...but any science change is visible.
        let sa2 = a.next_epoch();
        assert_ne!(science_fingerprint(&sa), science_fingerprint(&sa2));
    }

    #[test]
    fn audited_source_records_one_digest_per_epoch() {
        use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};
        let d = Dataset::generate(DatasetKind::Auto, 0.0005, 13);
        let n = d.graph.num_vertices();
        let init: Vec<usize> = (0..n).map(|v| v % 2).collect();
        let stream = EpochStream::new(d.graph.clone(), Perturbation::weights(), 2, init, 13);
        let mut audited = AuditedSource::new(stream);
        let ledger = audited.ledger();
        let s1 = audited.next_epoch();
        let part = s1.old_part.clone();
        audited.commit_assignment(&s1, &part);
        let _ = audited.next_epoch();
        assert_eq!(ledger.lock().unwrap().len(), 2);
    }
}
