//! The metric tables: every name, unit, direction and bound the
//! benchmark reports. BENCHMARK.json repeats them (a unit test holds the
//! two together).

use crate::json::Value;
use crate::workload::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the previous median by which the metric may worsen
    /// before `--check-against` (and the driver) calls it a regression.
    pub bound: f64,
    /// Deterministic under Strict: two runs of the same code and seed
    /// must agree exactly, not merely within `bound`.
    pub exact: bool,
}

/// Bounds. The issue's floors were 10 % on timings and 2 % on cost, for
/// two runs of one seed. The driver instead holds the spread across ten
/// *different* seeds — ten different inputs — and the drift between two
/// such sets against the same bound, on a shared host that takes a core
/// away for up to a second at a time. The ten-seed spreads measured
/// there (baseline.json, `spread`) reach 9 % on the cost of the AMR
/// meshes alone and 14 % on a timing, so the bounds are the contract's
/// ceiling. For one seed, `--check-against` is stricter where it can
/// be: `exact` metrics must agree bit for bit.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cost_per_op",
        unit: "cost",
        better: Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
        exact: false,
    },
];

/// A per-layer metric, measured on the traced run. Milliseconds and
/// counts are per op. `moves` names the end-to-end metric and workload
/// the figure is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    /// Copied from a deterministic count: exact under Strict.
    pub exact: bool,
}

const fn ms(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Lower,
        moves,
        exact: false,
    }
}

const fn count(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Lower,
        moves,
        exact: true,
    }
}

const fn share(name: &'static str, better: Better, moves: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
        moves,
        exact,
    }
}

const AMR: &str = "ops_per_s on amr_epochs";
const EPOCHS: &str = "ops_per_s on amr_epochs, cage_repart";
const INC: &str = "op_wall_ms_p50 on amr_incremental";
const ALL: &str = "ops_per_s on every workload";
const COARSEN: &str = "ops_per_s on amr_epochs, rmat_static";
const REFINE: &str = "ops_per_s on cage_repart, amr_incremental";
const DIST: &str = "ops_per_s on cage_dist2";
const RMAT: &str = "ops_per_s on rmat_static";
const SETUP: &str = "setup_s on the three stream inputs";
const NONE: &str = "none (context)";

pub const PER_LAYER: [PerLayer; 62] = [
    // workloads / amr
    ms("workloads.next_epoch_ms", AMR),
    ms("workloads.next_delta_ms", INC),
    ms("workloads.commit_ms", AMR),
    count("workloads.vertices_per_op", NONE),
    count("workloads.pins_per_op", NONE),
    // core
    ms("core.model.build_ms", EPOCHS),
    ms("core.model.decode_ms", EPOCHS),
    ms("core.cost.measure_ms", EPOCHS),
    ms("core.exec.measure_ms", EPOCHS),
    count("core.exec.items_moved_per_op", EPOCHS),
    share(
        "core.exec.moved_share",
        Lower,
        "cost_per_op on the stream workloads",
        true,
    ),
    ms("core.delta.apply_ms", INC),
    ms("core.delta.commit_ms", INC),
    share("core.delta.touched_fraction", Lower, INC, true),
    share("core.delta.warm_share", Higher, INC, true),
    share("core.delta.warm_over_cold", Lower, INC, false),
    // partitioner, whole call and the program's own trace
    ms("partitioner.partition_ms", ALL),
    ms("partitioner.trace.coarsen_ms", COARSEN),
    ms("partitioner.trace.initial_ms", ALL),
    ms("partitioner.trace.refine_ms", REFINE),
    ms("partitioner.trace.vcycle_ms", ALL),
    ms("partitioner.trace.unattributed_ms", INC),
    count("partitioner.coarsen.levels", COARSEN),
    count("partitioner.coarsen.pins_scanned", COARSEN),
    count("partitioner.coarsen.matches_accepted", COARSEN),
    count("partitioner.refine.fm_passes", REFINE),
    count("partitioner.refine.moves_attempted", REFINE),
    count("partitioner.refine.moves_accepted", REFINE),
    share("partitioner.refine.accept_ratio", Higher, REFINE, true),
    count("partitioner.refine.rebalance_invocations", REFINE),
    share("partitioner.kway.vcycles_kept_share", Higher, ALL, true),
    // partitioner kernel probes, once per run on the first op's input
    ms("partitioner.matching.ipm_ms", COARSEN),
    share("partitioner.matching.matched_share", Higher, COARSEN, true),
    ms("partitioner.coarsen.hierarchy_ms", COARSEN),
    count("partitioner.coarsen.probe_levels", COARSEN),
    share("partitioner.coarsen.pin_shrink", Lower, COARSEN, true),
    ms("partitioner.initial.ghg_ms", ALL),
    ms("partitioner.refine.flat_fm_ms", REFINE),
    PerLayer {
        name: "partitioner.refine.flat_fm_gain",
        unit: "cost",
        better: Higher,
        moves: REFINE,
        exact: true,
    },
    // mpisim / disthg / par::dist (cage_dist2 only)
    PerLayer {
        name: "comm_mb_per_op",
        unit: "MB",
        better: Lower,
        moves: DIST,
        exact: true,
    },
    count("mpisim.messages_per_op", DIST),
    PerLayer {
        name: "mpisim.bytes_per_op",
        unit: "bytes",
        better: Lower,
        moves: DIST,
        exact: true,
    },
    share("mpisim.bytes_per_pin", Lower, DIST, true),
    share("mpisim.bytes_over_resident", Lower, DIST, true),
    PerLayer {
        name: "disthg.max_rank_resident_mb",
        unit: "MB",
        better: Lower,
        moves: DIST,
        exact: true,
    },
    count("disthg.max_rank_ghosts", DIST),
    count("disthg.dist_levels", DIST),
    ms("partitioner.par.dist.rank1_op_ms", DIST),
    share("partitioner.par.dist.rank1_over_serial", Lower, DIST, false),
    // hypergraph
    ms("hypergraph.metrics.cut_ms", NONE),
    share("hypergraph.metrics.max_imbalance", Lower, NONE, true),
    share("hypergraph.parallel.fast2_over_strict1", Lower, RMAT, false),
    share("hypergraph.parallel.fast2_cut_ratio", Lower, RMAT, false),
    // graphpart
    PerLayer {
        name: "graphpart.initial_kway_s",
        unit: "s",
        better: Lower,
        moves: SETUP,
        exact: false,
    },
    // checks, trace, host
    share("failed_ops_share", Lower, NONE, true),
    share("trace.overhead", Lower, NONE, false),
    share("trace.leaf_coverage", Higher, NONE, false),
    count("trace.spans", NONE),
    ms("host.calibration_ms", NONE),
    PerLayer {
        name: "host.nproc",
        unit: "count",
        better: Higher,
        moves: NONE,
        exact: false,
    },
    // op wall of the traced loop, for reading the spans against
    ms("trace.op_wall_ms_p50", NONE),
    ms("trace.reference_op_wall_ms_p50", NONE),
];

/// Named values of one run, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for every metric of
    /// `table`, in table order. A per-layer metric a workload never
    /// exercises reads 0.
    ///
    /// # Panics
    /// Panics if a value was set under a name the table does not hold.
    pub fn to_json<'a>(
        &self,
        table: impl IntoIterator<Item = (&'a str, &'a str)> + Clone,
    ) -> Value {
        for (name, _) in &self.0 {
            assert!(
                table.clone().into_iter().any(|(n, _)| n == *name),
                "metric {name} is in no table"
            );
        }
        Value::obj(table.into_iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        }))
    }
}

/// The benchmark's contract with the driver: the exact content of
/// BENCHMARK.json at the repository root (`benchmark --describe`).
pub fn describe() -> Value {
    let text = |s: &str| Value::Str(s.into());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", Value::Num(crate::cli::DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Value::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn end_to_end_names() -> impl Iterator<Item = (&'static str, &'static str)> + Clone {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> + Clone {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = end_to_end_names()
            .chain(per_layer_names())
            .map(|(n, _)| n)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, unit) in end_to_end_names().chain(per_layer_names()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// BENCHMARK.json at the repository root must say exactly what the
    /// tables here define.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            json::parse(&file).unwrap(),
            describe(),
            "regenerate it with `benchmark --describe`"
        );
        assert!(file.len() <= 64 * 1024);
    }

    #[test]
    fn values_render_in_table_order_with_zero_defaults() {
        let mut v = Values::default();
        v.set("b", 2.5);
        let out = v.to_json([("a", "ms"), ("b", "count")]);
        assert_eq!(
            out.render(),
            r#"{"a": {"value": 0, "unit": "ms"}, "b": {"value": 2.5, "unit": "count"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "in no table")]
    fn values_reject_unknown_names() {
        let mut v = Values::default();
        v.set("typo", 1.0);
        v.to_json([("a", "ms")]);
    }
}
