//! Phase-level tracing and deterministic metrics.
//!
//! The paper's evaluation attributes cost to *phases* — coarsening,
//! coarse solve, refinement, migration — so the workspace needs a
//! measurement substrate that every layer can feed. This crate provides
//! it in three parts:
//!
//! * **Spans** — a hierarchical tree of timed regions recorded through
//!   RAII guards ([`span!`]). Spans carry static names plus typed
//!   attributes (level numbers, coarse shapes, per-level communication
//!   ledgers) and nest through a thread-local stack.
//! * **Counters** — a fixed vocabulary ([`Counter`]) of monotonically
//!   increasing integers (pins scanned by IPM, FM moves
//!   attempted/accepted/rolled back, GHG seeds, rebalance invocations,
//!   …). Counter values are *deterministic*: instrumented kernels only
//!   count work that is invariant across thread counts, and in SPMD
//!   runs only rank 0 of a world records, so values are invariant
//!   across rank counts too (see DESIGN.md §11 for the argument).
//! * **Export** — a [`TraceReport`] that renders both a BENCH-style
//!   JSON summary and the chrome://tracing trace-event format.
//!
//! # Sessions and enrollment
//!
//! Recording is off until a [`TraceSession`] is opened; sessions are
//! globally serialized (a second concurrent `session()` blocks until
//! the first finishes) so concurrently running tests cannot interleave
//! their spans. Within a session only *enrolled* threads record: the
//! thread that opened the session is enrolled, and `mpisim::run_spmd`
//! propagates enrollment to rank 0 of each world it launches (other
//! ranks stay muted — they perform identical SPMD work, so rank 0's
//! view is both representative and rank-count-invariant). Threads from
//! unrelated tests are never enrolled and can neither pollute the span
//! tree nor the counters.
//!
//! # Cost with no session open
//!
//! The crate has one build. With no session active every entry point
//! returns after a single relaxed atomic load, so call sites need no
//! guards and untraced runs (every benchmark workload's default) pay
//! one load per span or counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

mod imp;
pub use imp::{
    adopt, count, enabled, fork, session, session_active, span_start, ForkCtx, SpanGuard,
    TraceSession,
};

/// Opens a timed span; returns a guard that records the duration when
/// dropped. Bind it (`let _span = span!(...)`) — an unbound guard drops
/// immediately and records a zero-length span.
///
/// ```
/// let session = dlb_trace::session();
/// {
///     let _span = dlb_trace::span!("coarsen.level", level = 3usize);
/// }
/// let report = session.finish();
/// assert_eq!(report.spans.len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_start($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let guard = $crate::span_start($name);
        $( guard.attr(stringify!($key), $value); )+
        guard
    }};
}

/// Declares [`Counter`] from one table of `Variant => "export_name"` rows:
/// the enum, [`Counter::ALL`] and [`Counter::name`] are all generated from
/// it, so a counter cannot have a name without a slot or the reverse.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// The fixed vocabulary of deterministic counters.
        ///
        /// Every variant is documented with *where* it is counted, because that
        /// placement is what makes the value invariant across thread and rank
        /// counts (DESIGN.md §11).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration (= export) order.
            pub const ALL: [Counter; [$($name),+].len()] = [$(Counter::$variant),+];

            /// Stable snake_case name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Coarsening levels built (one per contraction, all drivers).
    CoarsenLevels => "coarsen_levels",
    /// Matched pairs accepted by IPM matching, summed over levels.
    CoarsenMatchesAccepted => "coarsen_matches_accepted",
    /// IPM candidates discarded because fixed-vertex assignments were
    /// incompatible (counted in the serial selection loop).
    CoarsenMatchesRefusedFixed => "coarsen_matches_refused_fixed",
    /// Pins iterated while scoring vertices that the serial IPM
    /// selection loop actually visited unmatched.
    CoarsenPinsScanned => "coarsen_pins_scanned",
    /// Vertices of the coarsest hypergraph handed to the coarse solve.
    CoarseVertices => "coarse_vertices",
    /// Nets of the coarsest hypergraph handed to the coarse solve.
    CoarseNets => "coarse_nets",
    /// Pins of the coarsest hypergraph handed to the coarse solve.
    CoarsePins => "coarse_pins",
    /// Greedy-hypergraph-growing attempts executed (coarse-solve seeds).
    InitialGhgSeeds => "initial_ghg_seeds",
    /// FM refinement passes run by the serial/shared-memory refiner.
    FmPasses => "fm_passes",
    /// FM moves applied during passes, before prefix rollback.
    FmMovesAttempted => "fm_moves_attempted",
    /// FM moves kept after rolling back to the best prefix.
    FmMovesAccepted => "fm_moves_accepted",
    /// FM moves undone by prefix rollback.
    FmMovesRolledBack => "fm_moves_rolled_back",
    /// Invocations of the greedy rebalance fixer (serial and
    /// distributed variants).
    RebalanceInvocations => "rebalance_invocations",
    /// Vertices whose part changed during a parallel/distributed
    /// refinement level (outcome diff — invariant because partitions
    /// are bit-identical across rank counts).
    ParRefineMovesCommitted => "par_refine_moves_committed",
    /// V-cycle iterations executed.
    VcyclesRun => "vcycles_run",
    /// V-cycle iterations whose result improved the cut and was kept.
    VcyclesKept => "vcycles_kept",
    /// Epochs executed by the simulation driver.
    Epochs => "epochs",
    /// Items physically moved by measured migration (summed over the
    /// execution world's ranks from the returned per-rank stats).
    MigrationItemsMoved => "migration_items_moved",
    /// Faults injected by an installed `FaultPlan`: one per scheduled
    /// rank failure consumed by the epoch driver, plus one per message
    /// drop/delay injected inside the measured execution world (counted
    /// on that world's enrolled rank 0, so the value is invariant
    /// across driver rank counts).
    FaultsInjected => "faults_injected",
    /// Recovery repartitions run after a rank failure (one per dead
    /// rank, counted in the epoch driver).
    RecoveriesRun => "recoveries_run",
    /// Epochs served by the incremental path via a patched model with a
    /// warm-started (refine-only) repartition — counted in the epoch
    /// driver's drift policy.
    DeltaEpochs => "delta_epochs",
    /// Epochs in an incremental run that fell back to a full V-cycle
    /// (drift at/above threshold, non-repartitioning algorithm, or a
    /// full-snapshot update) — counted in the epoch driver.
    FullRebuilds => "full_rebuilds",
    /// Cells touched by delta patching: removed + added + reweighted +
    /// survivors whose nets were spliced (counted in `ModelPatcher`).
    CellsPatched => "cells_patched",
    /// Planned world resizes performed at epoch boundaries (one per
    /// epoch with a net `WorldPlan` change, counted in the epoch
    /// driver).
    ResizesRun => "resizes_run",
    /// Ranks that joined the world through planned resizes.
    RanksJoined => "ranks_joined",
    /// Ranks that departed the world through planned resizes (planned
    /// leaves only; failures count under `RecoveriesRun`).
    RanksDeparted => "ranks_departed",
    /// Resizes where the measured cost model picked the fixed-vertex
    /// repartition candidate (counted in the epoch driver's arbitration).
    ResizeChoseRepart => "resize_chose_repart",
    /// Resizes where the measured cost model picked the scratch-partition
    /// + remap candidate.
    ResizeChoseScratch => "resize_chose_scratch",
    /// Invocations of the multi-constraint greedy repair pass (serial
    /// refiner; never incremented by scalar arity-1 runs).
    RepairInvocations => "repair_invocations",
    /// Vertex moves kept by the greedy repair pass.
    RepairMovesApplied => "repair_moves_applied",
    /// `best_move` answers the serial refiner read from the gain table
    /// (rebalance, FM seeds, pops and re-queues), flushed once per
    /// refinement level. Like the three counters below it
    /// is not counted by the SPMD passes, where a rank's share depends
    /// on the storage form.
    GainEvaluations => "gain_evaluations",
    /// Marked gain-table entries re-summed by a read (zero on a level
    /// whose costs are integer-valued: transitions update in place).
    GainResums => "gain_resums",
    /// Vertices the serial/shared-memory rebalance popped from the
    /// overweight part's queue and evaluated as evacuation candidates,
    /// summed over evacuations.
    RebalanceCandidatesScanned => "rebalance_candidates_scanned",
    /// Evacuations the serial/shared-memory rebalance committed and kept
    /// (the one it reverts before giving up is not counted).
    RebalanceMoves => "rebalance_moves",
    /// Nets of every hypergraph handed to contraction, summed over
    /// levels — the *global* net count of the level, whichever way it is
    /// stored, so the value is the same on serial, replicated and
    /// distributed levels. The probes of the collapse table are
    /// deliberately not counted: a distributed level collapses on one
    /// shard table per rank, whose probe sequences differ from the
    /// replicated table's.
    ContractNetsIn => "contract_nets_in",
    /// Nets of every contracted (coarse) hypergraph, summed over levels
    /// — global counts, as for `ContractNetsIn`. In minus out is what
    /// contraction dropped below two pins or collapsed as identical.
    ContractNetsOut => "contract_nets_out",
}

/// Typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer (counts, levels, byte totals).
    Int(i64),
    /// Floating-point (times, ratios).
    Float(f64),
    /// Short descriptive string (scheme, algorithm).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static span name (dotted taxonomy, e.g. `coarsen.level`).
    pub name: &'static str,
    /// Start offset from the session epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Index of the parent span in [`TraceReport::spans`], if any.
    pub parent: Option<usize>,
    /// Indices of child spans, in start order.
    pub children: Vec<usize>,
    /// Attributes, in the order they were attached.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// The immutable result of a finished [`TraceSession`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// All recorded spans in creation (= start) order; children always
    /// come after their parent.
    pub spans: Vec<Span>,
    /// Final counter values, by stable name, for every counter that is
    /// non-zero plus all-zero maps stay empty.
    pub counters: BTreeMap<&'static str, u64>,
}

impl TraceReport {
    /// Value of one counter (0 if never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// Indices of root spans (no parent).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect()
    }

    /// The first span with the given name, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Sum of the durations of the *leaf* descendants of `root`
    /// (a leaf root counts itself), in nanoseconds.
    pub fn leaf_duration_ns(&self, root: usize) -> u64 {
        if self.spans[root].children.is_empty() {
            return self.spans[root].dur_ns;
        }
        self.spans[root]
            .children
            .iter()
            .map(|&c| self.leaf_duration_ns(c))
            .sum()
    }

    /// Fraction of the wall time of the first span named `root_name`
    /// that is covered by its leaf descendants. Returns `None` when the
    /// span is missing or has zero duration.
    pub fn leaf_coverage(&self, root_name: &str) -> Option<f64> {
        let root = self.find(root_name)?;
        let total = self.spans[root].dur_ns;
        if total == 0 {
            return None;
        }
        Some(self.leaf_duration_ns(root) as f64 / total as f64)
    }

    /// A canonical, time-free signature of the span tree: preorder walk
    /// over span names. Two runs with identical control flow produce
    /// identical signatures regardless of timing.
    pub fn structure_signature(&self) -> String {
        fn walk(report: &TraceReport, i: usize, depth: usize, out: &mut String) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), report.spans[i].name);
            for &c in &report.spans[i].children {
                walk(report, c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for root in self.roots() {
            walk(self, root, 0, &mut out);
        }
        out
    }

    /// Aggregates total duration and invocation count per span name.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = totals.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        totals
    }

    /// Renders the report as a chrome://tracing trace-event JSON file
    /// (object form, so counters and a per-phase summary ride along as
    /// extra top-level keys).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = String::new();
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    args.push_str(", ");
                }
                let _ = write!(args, "{}: {}", json_str(k), json_attr(v));
            }
            let _ = write!(
                out,
                "    {{\"name\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}",
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                args
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"counters\": {\n");
        let n = self.counters.len();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "    {}: {}", json_str(k), v);
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("  },\n  \"summary\": {\n");
        let totals = self.phase_totals();
        let n = totals.len();
        for (i, (name, (calls, dur))) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{\"calls\": {}, \"total_ms\": {:.3}}}",
                json_str(name),
                calls,
                *dur as f64 / 1e6
            );
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Float(f) if f.is_finite() => format!("{f}"),
        AttrValue::Float(_) => "null".to_string(),
        AttrValue::Str(s) => json_str(s),
        AttrValue::Bool(b) => b.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
