//! One run of one workload in this process: set-up, cycles, checks, and
//! the result line the driver reads.

use crate::fingerprint::{self, InputFingerprint};
use crate::json::Value;
use crate::layers;
use crate::metrics::{end_to_end_names, per_layer_names, Values};
use crate::run::{traced_ops, untraced_ops, Cycle, OpRecord, Traced};
use crate::stats::{columnwise_min, mean, median};
use crate::workload::{repart_config, rmat_config, setup, Input, Workload, DEFAULT_SEED};

/// Fewest set-ups an untraced run times; `setup_s` is their median, so
/// one slow page-in does not read as a regression. A cycle of fewer
/// instances repeats its first set-up to get there.
const SETUP_SAMPLES: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// Makes the inputs of a run's instances, each from its sub-seed, and
/// times every set-up. One input is alive at a time, so peak RSS holds
/// one instance.
struct Bench<'a> {
    args: &'a RunArgs,
    current: Option<(usize, Input)>,
    setup_s: Vec<f64>,
    kway_s: Vec<f64>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a RunArgs) -> Self {
        Bench {
            args,
            current: None,
            setup_s: Vec::new(),
            kway_s: Vec::new(),
        }
    }

    fn seed_of(&self, instance: usize) -> u64 {
        Workload::instance_seed(self.args.seed, instance)
    }

    fn setup(&mut self, instance: usize) {
        self.current = None;
        let s = setup(self.args.workload, self.seed_of(instance), self.args.quick);
        self.setup_s.push(s.setup_s);
        self.kway_s.push(s.initial_kway_s);
        self.current = Some((instance, s.input));
    }

    /// The input of `instance`, unused: set up again if the last cycle
    /// spent it or another instance is loaded.
    fn fresh(&mut self, instance: usize) -> &mut Input {
        if !matches!(&self.current, Some((j, input)) if *j == instance && input.is_fresh()) {
            self.setup(instance);
        }
        &mut self.current.as_mut().expect("set up above").1
    }

    /// One untraced cycle: the first `ops` operations of every instance.
    fn untraced_cycle(&mut self, ops: usize) -> Cycle {
        let (instances, _) = self.args.workload.shape(self.args.quick);
        let mut cycle = Cycle::default();
        for j in 0..instances {
            let seed = self.seed_of(j);
            cycle.absorb(untraced_ops(self.args.workload, self.fresh(j), seed, ops));
        }
        cycle
    }
}

/// What a finished run reports.
pub struct Outcome {
    pub values: Values,
    pub traced: bool,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Ops whose checks failed.
    pub failed: usize,
    /// Extra facts for the suite and the reader: the ops of one cycle,
    /// sample counts, the input fingerprint.
    pub detail: Value,
    /// Benchmark-side spans and the program's trace summary (traced runs).
    pub spans: Option<Value>,
}

impl Outcome {
    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            self.values.to_json(per_layer_names())
        } else {
            self.values.to_json(end_to_end_names())
        };
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Failed ops of a set of cycles, with their messages.
fn failures_of(cycles: &[&[OpRecord]]) -> (usize, Vec<String>) {
    let mut failed = 0;
    let mut messages = Vec::new();
    for (c, ops) in cycles.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if !op.failures.is_empty() {
                failed += 1;
                messages.extend(op.failures.iter().map(|f| format!("cycle {c} op {i}: {f}")));
            }
        }
    }
    (failed, messages)
}

/// Marks ops of `ops` that differ from the same op of `first`: the same
/// seed must give the same partition and cost on every repetition, and
/// with tracing on or off.
fn require_same(ops: &mut [OpRecord], first: &[OpRecord], what: &str) {
    for (op, f) in ops.iter_mut().zip(first) {
        if op.fingerprint != f.fingerprint || op.cost != f.cost {
            op.failures.push(format!(
                "{what}: partition {} cost {} where the first run had {} cost {}",
                fingerprint::hex(op.fingerprint),
                op.cost,
                fingerprint::hex(f.fingerprint),
                f.cost
            ));
        }
    }
}

fn input_json(f: InputFingerprint) -> Value {
    Value::obj([
        ("vertices", Value::Num(f.vertices as f64)),
        ("nets", Value::Num(f.nets as f64)),
        ("pins", Value::Num(f.pins as f64)),
        ("hash", Value::Str(fingerprint::hex(f.hash))),
    ])
}

/// At the default seed and full size the first op's input must be the
/// recorded one.
fn check_input(args: &RunArgs, seen: InputFingerprint) -> Result<(), String> {
    let recorded = args.workload.recorded_input();
    if args.seed == DEFAULT_SEED && !args.quick && seen != recorded {
        return Err(format!(
            "workload changed: {} at seed {DEFAULT_SEED} generated {} where {} is recorded \
             (a generator edit moves every baseline; re-record it in workload.rs and baseline.json)",
            args.workload.name(),
            input_json(seen).render(),
            input_json(recorded).render()
        ));
    }
    Ok(())
}

/// `cycles` are the run's cycles, each the ops of every instance in
/// turn, `ops_per_instance` apiece; an op's id is `instance.index`.
fn detail(
    args: &RunArgs,
    traced: bool,
    setups: usize,
    cycles: &[&[OpRecord]],
    ops_per_instance: usize,
) -> Value {
    let ops = cycles[0];
    let per_op = |f: &dyn Fn(&OpRecord) -> Value| Value::Arr(ops.iter().map(f).collect());
    let ids = (0..ops.len())
        .map(|i| Value::Str(format!("{}.{}", i / ops_per_instance, i % ops_per_instance)));
    let walls = |ops: &[OpRecord]| Value::Arr(ops.iter().map(|o| Value::Num(o.wall_ms)).collect());
    Value::obj([
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("trace", Value::Bool(traced)),
        (
            "instances",
            Value::Num((ops.len() / ops_per_instance) as f64),
        ),
        ("ops_per_cycle", Value::Num(ops.len() as f64)),
        ("cycles", Value::Num(cycles.len() as f64)),
        (
            "op_wall_samples",
            Value::Num((cycles.len() * ops.len()) as f64),
        ),
        ("setup_samples", Value::Num(setups as f64)),
        ("input", input_json(ops[0].input)),
        ("op_ids", Value::Arr(ids.collect())),
        (
            "fingerprints",
            per_op(&|o| Value::Str(fingerprint::hex(o.fingerprint))),
        ),
        ("costs", per_op(&|o| Value::Num(o.cost))),
        (
            "op_wall_ms_by_cycle",
            Value::Arr(cycles.iter().map(|ops| walls(ops)).collect()),
        ),
    ])
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(args: &RunArgs) -> Result<Outcome, String> {
    let (instances, ops) = args.workload.shape(args.quick);
    let mut bench = Bench::new(args);
    // Enough extra set-ups of instance 0 that the cycles below bring
    // the count to `SETUP_SAMPLES`.
    for _ in instances..SETUP_SAMPLES {
        bench.setup(0);
    }
    bench.current = None;
    let first = bench.untraced_cycle(ops);
    check_input(args, first.ops[0].input)?;
    // Whole cycles only, so every run times the same mix of ops. A quick
    // run is a smoke test and stops after the first.
    let cycles = if args.quick {
        1
    } else {
        ((args.seconds / args.workload.cycle_seconds()).round() as usize).max(1)
    };
    let mut repeats: Vec<Cycle> = Vec::new();
    for _ in 1..cycles {
        let mut cycle = bench.untraced_cycle(ops);
        require_same(&mut cycle.ops, &first.ops, "repetition differs");
        repeats.push(cycle);
    }

    let all: Vec<&[OpRecord]> = std::iter::once(&first)
        .chain(&repeats)
        .map(|c| c.ops.as_slice())
        .collect();
    // Each op's fastest repetition over the run's cycles. Every cycle
    // repeats the same computation bit for bit, so what differs between
    // repetitions is the host: on the shared reference host a neighbour
    // takes a core for up to a second at a time, and a single sample of
    // a 2-rank op carries that in full. The fastest repetition is the
    // one least disturbed.
    let by_cycle: Vec<Vec<f64>> = all
        .iter()
        .map(|ops| ops.iter().map(|o| o.wall_ms).collect())
        .collect();
    let walls = columnwise_min(&by_cycle);
    let mut values = Values::default();
    values.set("setup_s", median(&bench.setup_s));
    values.set(
        "ops_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
    );
    values.set("op_wall_ms_p50", median(&walls));
    values.set(
        "cost_per_op",
        mean(&first.ops.iter().map(|o| o.cost).collect::<Vec<_>>()),
    );
    values.set("peak_rss_mb", peak_rss_mb());
    let (failed, failures) = failures_of(&all);
    Ok(Outcome {
        values,
        traced: false,
        attempted: cycles * walls.len(),
        failed,
        failures,
        detail: detail(args, false, bench.setup_s.len(), &all, ops),
        spans: None,
    })
}

/// The traced run: per instance the first half of its ops, once
/// untraced as the reference and once traced; then the probes.
/// `--seconds` does not stretch it.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let (instances, ops) = w.shape(args.quick);
    let ops = ops.div_ceil(2);
    let mut bench = Bench::new(args);
    let reference = bench.untraced_cycle(ops);
    check_input(args, reference.ops[0].input)?;

    // Set-ups stay outside the program's trace session, so every
    // instance's input is made before it opens.
    let mut inputs: Vec<Input> = (0..instances)
        .map(|j| {
            bench.setup(j);
            bench.current.take().expect("just set up").1
        })
        .collect();
    let trace = dlb_trace::session();
    let mut traced = Traced::new();
    for (j, input) in inputs.iter_mut().enumerate() {
        traced.absorb(traced_ops(w, input, bench.seed_of(j), ops, j * ops));
    }
    let report = trace.finish();
    drop(inputs);
    require_same(
        &mut traced.cycle.ops,
        &reference.ops,
        "traced run differs from untraced",
    );

    let mut values = Values::default();
    layers::from_traced(&traced, &report, &reference, &mut values);
    layers::warm_over_cold(&traced, bench.seed_of(0), &mut values);
    let seed0 = bench.seed_of(0);
    let model = layers::first_op_input(bench.fresh(0), seed0);
    let kernel_cfg = match w {
        Workload::RmatStatic => rmat_config(seed0),
        _ => repart_config(w, seed0).hypergraph,
    };
    layers::kernel_probes(&model.0, &model.1, &kernel_cfg, &mut values);
    match w {
        Workload::RmatStatic => {
            layers::fast2_probe(&model.0, seed0, &traced.cycle.ops[0], &mut values)
        }
        Workload::CageDist2 => {
            layers::dist_probes(bench.fresh(0), &model, &traced, seed0, &mut values)
        }
        _ => {}
    }
    values.set("graphpart.initial_kway_s", median(&bench.kway_s));
    values.set("host.calibration_ms", layers::calibration_ms());
    values.set(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as f64,
    );

    let all = [reference.ops.as_slice(), traced.cycle.ops.as_slice()];
    let (failed, failures) = failures_of(&all);
    let attempted = reference.ops.len() + traced.cycle.ops.len();
    values.set("failed_ops_share", failed as f64 / attempted as f64);
    let spans = Value::obj([
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::Num(args.seed as f64)),
        ("benchmark_spans", traced.recorder.to_json()),
        (
            "program_spans",
            Value::obj(
                report
                    .phase_totals()
                    .into_iter()
                    .map(|(name, (calls, ns))| {
                        (
                            name,
                            Value::obj([
                                ("calls", Value::Num(calls as f64)),
                                ("total_ms", Value::Num(ns as f64 / 1e6)),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "program_counters",
            Value::obj(
                report
                    .counters
                    .iter()
                    .map(|(k, v)| (*k, Value::Num(*v as f64))),
            ),
        ),
    ]);
    Ok(Outcome {
        values,
        traced: true,
        attempted,
        failed,
        failures,
        detail: detail(args, true, bench.setup_s.len(), &all[1..], ops),
        spans: Some(spans),
    })
}
