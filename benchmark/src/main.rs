//! The repository benchmark: five epoch-level workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//! See README.md in this directory and BENCHMARK.json at the root.

mod cli;
mod fingerprint;
mod json;
mod layers;
mod metrics;
mod run;
mod single;
mod spans;
mod stats;
mod suite;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use single::{run_traced, run_untraced, Outcome, RunArgs};

/// Prints every metric by name with its unit, then the detail line and,
/// last, the result line.
fn report(args: &RunArgs, outcome: &Outcome) {
    // Per-layer rows end with the end-to-end metric they should move.
    let rows: Vec<(&str, &str, &str)> = if outcome.traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.moves))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, "")).collect()
    };
    for (name, unit, moves) in rows {
        let value = outcome.values.get(name).unwrap_or(0.0);
        let arrow = if moves.is_empty() { "" } else { " -> " };
        println!(
            "{:<16} {name:<44} {value:>16.6} {unit:<6}{arrow}{moves}",
            args.workload.name()
        );
    }
    for failure in &outcome.failures {
        println!("{:<16} FAILED {failure}", args.workload.name());
    }
    println!("detail {}", outcome.detail.render());
    println!("{}", outcome.result_line());
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if args.describe {
        println!("{}", metrics::describe().render());
        return;
    }
    let Some(trace) = args.trace else {
        std::process::exit(suite::run(&args));
    };
    let run = RunArgs {
        workload: args
            .workload
            .expect("the parser requires --workload with --trace"),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let outcome = if trace {
        run_traced(&run)
    } else {
        run_untraced(&run)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(1);
        }
    };
    if let (Some(path), Some(spans)) = (&args.spans, &outcome.spans) {
        if let Err(e) = std::fs::write(path, spans.render() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    report(&run, &outcome);
}
