//! Integration tests for the `dlb` command-line tool.

use std::io::Write;
use std::process::Command;

fn dlb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlb"))
}

fn write_toy_mtx(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("toy.mtx");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "%%MatrixMarket matrix coordinate pattern symmetric").unwrap();
    writeln!(f, "8 8 10").unwrap();
    for (u, v) in [
        (1, 2),
        (2, 3),
        (3, 4),
        (1, 4),
        (5, 6),
        (6, 7),
        (7, 8),
        (5, 8),
        (4, 5),
        (1, 8),
    ] {
        writeln!(f, "{u} {v}").unwrap();
    }
    path
}

fn write_toy_hg(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("toy.hg");
    let mut f = std::fs::File::create(&path).unwrap();
    // 4 vertices, 2 nets, 5 pins; then per-vertex weight/size lines.
    writeln!(f, "4 2 5").unwrap();
    writeln!(f, "1.0 0 1 2").unwrap();
    writeln!(f, "2.0 2 3").unwrap();
    for _ in 0..4 {
        writeln!(f, "1 1").unwrap();
    }
    path
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlb-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn partition_mtx_roundtrip() {
    let dir = tmpdir("mtx");
    let input = write_toy_mtx(&dir);
    let out = dir.join("toy.part");
    let status = dlb()
        .args(["partition", "-k", "2", "--out"])
        .arg(&out)
        .arg(&input)
        .status()
        .unwrap();
    assert!(status.success());
    let part: Vec<usize> = std::fs::read_to_string(&out)
        .unwrap()
        .split_whitespace()
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(part.len(), 8);
    assert!(part.iter().all(|&p| p < 2));
    // The toy graph is two squares joined by two edges: balanced halves.
    let ones = part.iter().filter(|&&p| p == 1).count();
    assert_eq!(ones, 4, "toy graph should split 4-4: {part:?}");
}

#[test]
fn repartition_uses_old_partition() {
    let dir = tmpdir("repart");
    let input = write_toy_mtx(&dir);
    let old = dir.join("old.part");
    std::fs::write(&old, "0\n0\n0\n0\n1\n1\n1\n1\n").unwrap();
    let out = dir.join("new.part");
    let output = dlb()
        .args(["repartition", "-k", "2", "--alpha", "1", "--old"])
        .arg(&old)
        .arg("--out")
        .arg(&out)
        .arg(&input)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let part: Vec<usize> = std::fs::read_to_string(&out)
        .unwrap()
        .split_whitespace()
        .map(|t| t.parse().unwrap())
        .collect();
    // The old partition is already optimal: nothing should move.
    assert_eq!(part, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("migration 0"), "stderr: {stderr}");
}

#[test]
fn partition_hypergraph_input() {
    let dir = tmpdir("hg");
    let input = write_toy_hg(&dir);
    let output = dlb()
        .args(["partition", "-k", "2"])
        .arg(&input)
        .output()
        .unwrap();
    assert!(output.status.success());
    let part: Vec<usize> = String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(part.len(), 4);
}

#[test]
fn rejects_bad_arguments() {
    // Missing -k.
    let status = dlb()
        .args(["partition", "/nonexistent.mtx"])
        .status()
        .unwrap();
    assert!(!status.success());
    // Unknown algorithm.
    let status = dlb()
        .args(["repartition", "-k", "2", "--algorithm", "magic", "x.mtx"])
        .status()
        .unwrap();
    assert!(!status.success());
    // Missing input file.
    let status = dlb()
        .args(["partition", "-k", "2", "/nonexistent.mtx"])
        .status()
        .unwrap();
    assert!(!status.success());
    // Unknown flags print the usage; Strict, the one determinism mode the
    // CLI runs, takes no thread count.
    assert_rejected(
        &["partition", "-k", "2", "--threads", "2", "x.mtx"],
        "usage:",
    );
    assert_rejected(
        &["partition", "-k", "2", "--determinism", "fast", "x.mtx"],
        "usage:",
    );
    // Messages always arrive: there is no message-fault plan to set.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "8",
            "--workload",
            "amr",
            "--fault-plan",
            "7:drop0.05",
        ],
        "usage:",
    );
}

/// Runs `dlb` with `args` and asserts it exits with code 2 and prints a
/// message containing `needle` on stderr — validation must fire *before*
/// any driver panics.
fn assert_rejected(args: &[&str], needle: &str) {
    let output = dlb().args(args).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "args {args:?} should exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(needle),
        "args {args:?}: stderr {stderr:?} lacks {needle:?}"
    );
}

#[test]
fn rejects_invalid_k_up_front() {
    assert_rejected(&["partition", "-k", "0", "x.mtx"], "k must be at least 2");
    assert_rejected(&["partition", "-k", "1", "x.mtx"], "k must be at least 2");
    assert_rejected(
        &["partition", "-k", "two", "x.mtx"],
        "-k expects a valid value",
    );
    assert_rejected(
        &["simulate", "-k", "1", "--workload", "amr"],
        "k must be at least 2",
    );
}

#[test]
fn rejects_invalid_ranks_up_front() {
    assert_rejected(
        &["partition", "-k", "2", "--ranks", "0", "x.mtx"],
        "--ranks must be at least 1",
    );
    assert_rejected(
        &[
            "repartition",
            "-k",
            "2",
            "--ranks",
            "0",
            "--old",
            "p",
            "x.mtx",
        ],
        "--ranks must be at least 1",
    );
    assert_rejected(
        &["partition", "-k", "2", "--ranks", "-3", "x.mtx"],
        "--ranks expects a valid value",
    );
    assert_rejected(
        &[
            "repartition",
            "-k",
            "2",
            "--epsilon",
            "-0.5",
            "--old",
            "p",
            "x.mtx",
        ],
        "epsilon",
    );
}

#[test]
fn rejects_invalid_multi_constraint_flags_up_front() {
    assert_rejected(
        &[
            "simulate",
            "-k",
            "2",
            "--workload",
            "amr",
            "--constraints",
            "0",
        ],
        "--constraints must be at least 1",
    );
    // More --epsilon flags than declared constraints.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "2",
            "--workload",
            "amr",
            "--constraints",
            "2",
            "--epsilon",
            "0.05",
            "--epsilon",
            "0.1",
            "--epsilon",
            "0.2",
        ],
        "--epsilon flags for",
    );
    // Multi-constraint runs need the AMR workload's two-constraint lowering.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "2",
            "--workload",
            "structure",
            "--constraints",
            "2",
        ],
        "requires --workload amr",
    );
    assert_rejected(
        &[
            "simulate",
            "-k",
            "2",
            "--workload",
            "amr",
            "--constraints",
            "3",
        ],
        "exactly 2 constraints",
    );
    // File inputs carry scalar weights only.
    assert_rejected(
        &["partition", "-k", "2", "--constraints", "2", "x.mtx"],
        "file inputs are scalar",
    );
}

#[test]
fn rejects_distributed_flag_conflicts_up_front() {
    // No SPMD flag conflicts with another: incremental runs warm-start on
    // the SPMD path too. (World plans and multi-constraint loads run on
    // it as well; their combined-path tests live in
    // tests/{elastic_worlds,fault_injection,multi_constraint}.rs.)
    for spmd in [&["--distributed"][..], &["--ranks", "2"]] {
        let output = dlb()
            .args([
                "simulate",
                "-k",
                "2",
                "--workload",
                "structure",
                "--epochs",
                "2",
            ])
            .args(spmd)
            .arg("--incremental")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{spmd:?}: {output:?}");
        assert!(stdout.contains("competitive ratio"), "{spmd:?}: {stdout}");
    }
    // Partitioning itself runs on the SPMD drivers.
    let input = write_toy_mtx(&tmpdir("spmd"));
    let status = dlb()
        .args(["partition", "-k", "2", "--ranks", "2"])
        .arg(&input)
        .output()
        .unwrap()
        .status;
    assert!(status.success());
}

#[test]
fn rejects_numeric_flags_out_of_range_up_front() {
    // Each of these used to panic (exit 101) or run on a coerced value.
    let repartition = |alpha| {
        [
            "repartition",
            "-k",
            "2",
            "--old",
            "p.txt",
            "--alpha",
            alpha,
            "ok.mtx",
        ]
    };
    for alpha in ["0", "-1", "NaN"] {
        assert_rejected(&repartition(alpha), "--alpha must be positive and finite");
    }
    let simulate = |extra: &[&'static str]| {
        let mut args = vec!["simulate", "-k", "2"];
        args.extend(extra);
        args
    };
    assert_rejected(
        &simulate(&["--workload", "structure", "--alpha", "0"]),
        "--alpha must be positive and finite",
    );
    assert_rejected(
        &simulate(&["--workload", "amr", "--epochs", "0"]),
        "--epochs must be at least 1",
    );
    for scale in ["0", "-0.5", "2"] {
        assert_rejected(
            &simulate(&["--workload", "structure", "--scale", scale]),
            "--scale for structure/weights must be in (0, 1]",
        );
    }
    for scale in ["2.7", "9"] {
        assert_rejected(
            &simulate(&["--workload", "amr", "--scale", scale]),
            "--scale for amr must be an integer in 0..=8",
        );
    }
    assert_rejected(
        &simulate(&[
            "--workload",
            "structure",
            "--incremental",
            "--drift-threshold",
            "NaN",
        ]),
        "--drift-threshold must be finite and non-negative",
    );
    // A departure of a rank that is never in the world used to be
    // dropped silently.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "8",
            "--workload",
            "amr",
            "--world-plan",
            "leave9@2",
        ],
        "rank 9 out of range for k = 8",
    );
    // An event after the last epoch used to be dropped silently.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "4",
            "--workload",
            "structure",
            "--epochs",
            "2",
            "--world-plan",
            "fail2@5",
        ],
        "fail2@5 falls after the run's last epoch (2)",
    );
    // The seed prefix of the old `SEED:spec` grammar is not a directive.
    assert_rejected(
        &[
            "simulate",
            "-k",
            "8",
            "--workload",
            "amr",
            "--world-plan",
            "7:fail2@2",
        ],
        "unknown directive '7:fail2@2'",
    );
}

#[test]
fn malformed_input_files_end_with_a_parse_error() {
    // A NaN vertex weight used to panic, an unparsable .mtx value to
    // become weight 1.
    let dir = tmpdir("malformed");
    let hg = dir.join("nan.hg");
    std::fs::write(&hg, "2 1 2\n1.0 0 1\nNaN 1\n1 1\n").unwrap();
    let mtx = dir.join("abc.mtx");
    std::fs::write(&mtx, "4 4 2\n1 2\n3 4 abc\n").unwrap();
    for input in [hg, mtx] {
        let output = dlb()
            .args(["partition", "-k", "2"])
            .arg(&input)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{input:?} should exit 1");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("cannot parse"),
            "{input:?}: stderr {stderr:?}"
        );
    }
}

#[test]
fn rejects_simulate_only_flags_on_file_commands() {
    // Previously these parsed fine and were silently ignored.
    assert_rejected(
        &["partition", "-k", "2", "--world-plan", "join4@2", "x.mtx"],
        "--world-plan applies to simulate only",
    );
    assert_rejected(
        &[
            "repartition",
            "-k",
            "2",
            "--old",
            "p",
            "--incremental",
            "x.mtx",
        ],
        "--incremental applies to simulate only",
    );
    assert_rejected(
        &["partition", "-k", "2", "--workload", "amr", "x.mtx"],
        "--workload applies to simulate only",
    );
    assert_rejected(
        &["partition", "-k", "2", "x.mtx", "--drift-threshold", "0.3"],
        "--drift-threshold applies to simulate only",
    );
    // Every flag the subcommand never reads is named, whichever comes first.
    let unread = [
        "--epochs",
        "9",
        "--scale",
        "3",
        "--alpha",
        "7",
        "--old",
        "/tmp/none",
    ];
    for at in (0..unread.len()).step_by(2) {
        let mut args = vec!["partition", "-k", "2", "x.mtx"];
        args.extend(&unread[at..]);
        args.extend(["--algorithm", "parmetis-scratch"]);
        assert_rejected(&args, &format!("{} applies to", unread[at]));
    }
    assert_rejected(
        &[
            "partition",
            "-k",
            "2",
            "x.mtx",
            "--algorithm",
            "parmetis-scratch",
        ],
        "--algorithm applies to repartition and simulate only, not partition",
    );
    assert_rejected(
        &["simulate", "-k", "2", "--workload", "amr", "--out", "p"],
        "--out applies to partition and repartition only, not simulate",
    );
    assert_rejected(
        &["simulate", "-k", "2", "--workload", "amr", "x.mtx"],
        "reads no input file",
    );
}

#[test]
fn rejects_a_missing_value_for_every_kind_of_flag() {
    // `--out` with nothing after it used to write the partition to stdout.
    assert_rejected(
        &["partition", "-k", "2", "x.mtx", "--out"],
        "--out expects a valid value",
    );
    assert_rejected(
        &["repartition", "-k", "2", "x.mtx", "--old"],
        "--old expects a valid value",
    );
    assert_rejected(
        &["simulate", "-k", "2", "--workload"],
        "--workload expects a valid value",
    );
    assert_rejected(
        &["partition", "-k", "2", "x.mtx", "--trace"],
        "--trace expects a valid value",
    );
    assert_rejected(
        &["simulate", "-k", "2", "--world-plan"],
        "--world-plan expects a valid value",
    );
    assert_rejected(&["partition", "x.mtx", "-k"], "-k expects a valid value");
}

#[test]
fn simulate_two_constraint_amr_runs() {
    let output = dlb()
        .args([
            "simulate",
            "-k",
            "4",
            "--workload",
            "amr",
            "--epochs",
            "2",
            "--alpha",
            "10",
            "--constraints",
            "2",
            "--epsilon",
            "0.05",
            "--epsilon",
            "0.10",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("makespan"), "stdout: {stdout}");
}

#[test]
fn simulate_prints_the_workload_banner_once() {
    // Every rank builds its own copy of the source, and an incremental
    // run builds them again for its baseline; the banner comes once.
    for (workload, banner) in [
        ("amr", "amr: base"),
        ("structure", "structure: auto dataset"),
    ] {
        let output = dlb()
            .args([
                "simulate",
                "-k",
                "4",
                "--workload",
                workload,
                "--epochs",
                "2",
            ])
            .args(["--ranks", "4", "--incremental"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{workload}: {stderr}");
        let lines = stderr.lines().filter(|l| l.starts_with(banner)).count();
        assert_eq!(lines, 1, "{workload}: {stderr}");
    }
}

#[test]
fn shrinking_a_structure_stream_runs_to_the_end() {
    // Absent vertices used to keep their pre-shrink label and crash the
    // next epoch (exit 101).
    for plan in [
        ["--world-plan", "leave1@2"],
        ["--world-plan", "fail1@2"],
        ["--world-plan", "fail2@2"],
    ] {
        let output = dlb()
            .args([
                "simulate",
                "-k",
                "4",
                "--workload",
                "structure",
                "--epochs",
                "4",
            ])
            .args(plan)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{plan:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("resized 4 -> 3 parts"),
            "{plan:?}: {stdout}"
        );
    }
}

#[test]
fn trace_flag_writes_chrome_json() {
    let dir = tmpdir("trace");
    let input = write_toy_mtx(&dir);
    let trace = dir.join("trace.json");
    let output = dlb()
        .args(["partition", "-k", "2", "--trace"])
        .arg(&trace)
        .arg(&input)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.contains("\"traceEvents\""),
        "not chrome trace JSON: {text}"
    );
    // The partitioner's root span must be present when tracing is
    // compiled in (the default build).
    assert!(text.contains("partition"), "missing root span: {text}");
}

#[test]
fn simulate_runs_with_session_and_trace() {
    let dir = tmpdir("sim");
    for ranks in ["1", "2"] {
        let trace = dir.join(format!("sim-trace-{ranks}.json"));
        let output = dlb()
            .args([
                "simulate",
                "-k",
                "4",
                "--workload",
                "amr",
                "--epochs",
                "2",
                "--alpha",
                "10",
            ])
            .args(["--ranks", ranks, "--trace"])
            .arg(&trace)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("makespan"), "stdout: {stdout}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("trace: "), "ranks {ranks}: stderr {stderr}");
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("epoch"), "missing epoch spans: {text}");
        // The trace opened around the SPMD world records rank 0's
        // distributed V-cycle.
        if ranks == "2" {
            assert!(
                text.contains("\"dist.refine.level\""),
                "missing rank-0 spans: {text}"
            );
        }
    }
}

#[test]
fn rejects_wrong_length_old_partition() {
    let dir = tmpdir("badold");
    let input = write_toy_mtx(&dir);
    let old = dir.join("short.part");
    std::fs::write(&old, "0\n1\n").unwrap();
    let status = dlb()
        .args(["repartition", "-k", "2", "--old"])
        .arg(&old)
        .arg(&input)
        .status()
        .unwrap();
    assert!(!status.success());
}
