//! The whole benchmark in one command: every workload untraced, then
//! traced, each run in its own child process (isolates peak RSS,
//! allocator state and crashes), one result set out, and the
//! metric-by-metric comparison against a previous set.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::cli::Args;
use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workload::Workload;

/// What the parent keeps of one child run.
struct Child {
    /// The contract's result line, parsed.
    result: Value,
    /// The `detail` line, parsed.
    detail: Value,
}

fn spans_path(out: &Path, w: Workload) -> PathBuf {
    out.with_extension(format!("{}.spans.json", w.name()))
}

/// Runs one child and echoes its report. `Err` when it crashed or broke
/// the output format; its ops then count as failed.
fn run_child(args: &Args, w: Workload, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(out)) = (trace, &args.out) {
        cmd.arg("--spans").arg(spans_path(out, w));
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = Some(json::parse(d)?),
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let result = json::parse(stdout.lines().last().ok_or("child printed nothing")?)?;
    Ok(Child {
        result,
        detail: detail.ok_or("child printed no detail line")?,
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// One workload's entry of the result set, plus its failed-op count.
fn run_workload(args: &Args, w: Workload) -> (Value, usize) {
    let (instances, ops) = w.shape(args.quick);
    let ops = instances * ops;
    let mut entry: Vec<(String, Value)> = Vec::new();
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let mut problems: Vec<Value> = Vec::new();
    // (op id, partition fingerprint) of each child's ops.
    let mut fingerprints: Vec<Vec<(Value, Value)>> = Vec::new();
    for trace in [false, true] {
        let label = if trace { "traced" } else { "untraced" };
        println!("== {} ({label})", w.name());
        match run_child(args, w, trace) {
            Ok(child) => {
                attempted += num(&child.result, "attempted") as usize;
                failed += num(&child.result, "failed") as usize;
                let metrics = child.result.get("metrics").cloned().unwrap_or(Value::Null);
                entry.push((
                    if trace { "per_layer" } else { "end_to_end" }.into(),
                    metrics,
                ));
                let list = |key: &str| match child.detail.get(key) {
                    Some(Value::Arr(items)) => items.clone(),
                    _ => Vec::new(),
                };
                if !trace {
                    let keys = [
                        "input",
                        "instances",
                        "ops_per_cycle",
                        "cycles",
                        "op_wall_samples",
                        "setup_samples",
                    ];
                    for key in keys.into_iter().chain(["op_ids", "fingerprints", "costs"]) {
                        entry.push((
                            key.into(),
                            child.detail.get(key).cloned().unwrap_or(Value::Null),
                        ));
                    }
                }
                fingerprints.push(
                    list("op_ids")
                        .into_iter()
                        .zip(list("fingerprints"))
                        .collect(),
                );
            }
            Err(e) => {
                // A crashed child fails every op it was to run.
                println!("{} {label}: {e}", w.name());
                problems.push(Value::Str(format!("{label}: {e}")));
                attempted += ops;
                failed += ops;
            }
        }
    }
    // The traced child runs a prefix of each instance's ops; each must be
    // the partition the untraced child computed for the same op.
    let traced_matches = match fingerprints.as_slice() {
        [untraced, traced] => !traced.is_empty() && traced.iter().all(|op| untraced.contains(op)),
        _ => false,
    };
    if fingerprints.len() == 2 && !traced_matches {
        problems.push(Value::Str(
            "traced run's partitions differ from the untraced run's".into(),
        ));
        failed = failed.max(1);
    }
    entry.push((
        "traced_fingerprints_match".into(),
        Value::Bool(traced_matches),
    ));
    entry.push(("attempted".into(), Value::Num(attempted as f64)));
    entry.push(("failed".into(), Value::Num(failed as f64)));
    entry.push((
        "failed_ops_share".into(),
        Value::Num(failed as f64 / attempted.max(1) as f64),
    ));
    entry.push(("problems".into(), Value::Arr(problems)));
    (Value::Obj(entry), failed)
}

fn exact_verdict(same: bool) -> &'static str {
    if same {
        "ok (exact)"
    } else {
        "MISMATCH (must be exact)"
    }
}

fn metric_value(set: &Value, w: &str, table: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(w)?
        .get(table)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares `cur` with `prev` metric by metric; prints one verdict row
/// per (metric, workload) and returns how many rows failed.
///
/// End-to-end metrics may worsen by their bound; the deterministic ones
/// (`cost_per_op`, fingerprints, copied counters) must agree exactly
/// when seed and size match.
fn check_against(prev: &Value, cur: &Value) -> usize {
    let same_inputs = ["seed", "quick"].iter().all(|k| prev.get(k) == cur.get(k));
    if !same_inputs {
        println!("note: seed or size differs from the previous set; exact comparisons are skipped");
    }
    let mut bad = 0;
    println!(
        "{:<44} {:<16} {:>14} {:>14} {:>9}  verdict",
        "metric", "workload", "previous", "current", "change"
    );
    let row = |name: &str, w: &str, p: f64, c: f64, verdict: &str| {
        let change = if p != 0.0 {
            format!("{:+.2}%", (c / p - 1.0) * 100.0)
        } else {
            "-".into()
        };
        println!("{name:<44} {w:<16} {p:>14.6} {c:>14.6} {change:>9}  {verdict}");
    };
    for (w, cur_entry) in cur.get("workloads").map_or(&[][..], Value::members) {
        if prev.get("workloads").and_then(|p| p.get(w)).is_none() {
            println!("{:<44} {w:<16} not in the previous set", "-");
            continue;
        }
        for m in &END_TO_END {
            let (Some(p), Some(c)) = (
                metric_value(prev, w, "end_to_end", m.name),
                metric_value(cur, w, "end_to_end", m.name),
            ) else {
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => c / p - 1.0,
                Better::Higher => 1.0 - c / p,
            };
            let (ok, verdict) = if m.exact && same_inputs {
                (c == p, exact_verdict(c == p).to_string())
            } else {
                let ok = worse_by <= m.bound;
                let word = if ok { "ok" } else { "REGRESSED" };
                (ok, format!("{word} (bound {:.0}%)", m.bound * 100.0))
            };
            bad += usize::from(!ok);
            row(m.name, w, p, c, &verdict);
        }
        if !same_inputs {
            continue;
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (Some(p), Some(c)) = (
                metric_value(prev, w, "per_layer", m.name),
                metric_value(cur, w, "per_layer", m.name),
            ) else {
                continue;
            };
            if p == 0.0 && c == 0.0 {
                continue;
            }
            bad += usize::from(c != p);
            row(m.name, w, p, c, exact_verdict(c == p));
        }
        for key in ["fingerprints", "input"] {
            let same = prev
                .get("workloads")
                .and_then(|p| p.get(w))
                .and_then(|e| e.get(key))
                == cur_entry.get(key);
            bad += usize::from(!same);
            println!("{key:<44} {w:<16} {}", exact_verdict(same));
        }
    }
    bad
}

/// Runs the suite; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    // Read the previous set first: `--out` may name the same file.
    let previous = match &args.check_against {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(set) => Some(set),
            Err(e) => {
                eprintln!("benchmark: cannot read {}: {e}", path.display());
                return 1;
            }
        },
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut entries = Vec::new();
    let mut failed = 0;
    for w in workloads {
        let (entry, f) = run_workload(args, w);
        failed += f;
        entries.push((w.name(), entry));
    }
    let set = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        // Quick results are for smoke use; never record them as a baseline.
        ("quick", Value::Bool(args.quick)),
        ("workloads", Value::obj(entries)),
    ]);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, set.render() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return 1;
        }
        println!("wrote {}", path.display());
    }
    let mismatches = previous.map_or(0, |previous| {
        let bad = check_against(&previous, &set);
        println!("check against the previous set: {bad} row(s) failed");
        bad
    });
    println!("failed ops: {failed}");
    i32::from(failed > 0 || mismatches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cost: f64, wall: f64, levels: f64) -> Value {
        let metric =
            |v: f64| Value::obj([("value", Value::Num(v)), ("unit", Value::Str("x".into()))]);
        Value::obj([
            ("seed", Value::Num(42.0)),
            ("quick", Value::Bool(false)),
            (
                "workloads",
                Value::obj([(
                    "cage_repart",
                    Value::obj([
                        (
                            "end_to_end",
                            Value::obj([
                                ("cost_per_op", metric(cost)),
                                ("op_wall_ms_p50", metric(wall)),
                            ]),
                        ),
                        (
                            "per_layer",
                            Value::obj([("partitioner.coarsen.levels", metric(levels))]),
                        ),
                        ("fingerprints", Value::Arr(vec![Value::Str("ab".into())])),
                        ("input", Value::Null),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn check_against_applies_bounds_and_exactness() {
        let base = set(100.0, 1000.0, 9.0);
        assert_eq!(
            check_against(&base, &set(100.0, 1200.0, 9.0)),
            0,
            "within the wall bound"
        );
        assert_eq!(
            check_against(&base, &set(100.0, 1300.0, 9.0)),
            1,
            "wall regressed by 30 %"
        );
        assert_eq!(
            check_against(&base, &set(100.5, 1000.0, 9.0)),
            1,
            "cost must be exact"
        );
        assert_eq!(
            check_against(&base, &set(100.0, 800.0, 10.0)),
            1,
            "counter must be exact"
        );
    }
}
