//! Command-line contract of the bench binaries: bad input is an error
//! (exit code 2, a message and the usage on stderr), never a silent
//! fall-back to the default — mirroring the root package's
//! `tests/cli.rs` for `dlb`.

use std::process::Command;

/// Runs `bin` with `args`, asserts it exits 2 before doing any work,
/// and returns its stderr.
fn rejected(bin: &str, args: &[&str]) -> String {
    let output = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(
        output.status.code(),
        Some(2),
        "{bin} {args:?}: stderr: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{bin} {args:?} started running before rejecting"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr: {stderr}"
    );
    stderr
}

#[test]
fn unparsable_value_is_rejected() {
    let stderr = rejected(env!("CARGO_BIN_EXE_amr"), &["--scale", "abc"]);
    assert!(
        stderr.contains("--scale") && stderr.contains("abc"),
        "stderr: {stderr}"
    );
    rejected(env!("CARGO_BIN_EXE_scalability"), &["--k", "eight"]);
}

#[test]
fn unknown_flag_is_rejected() {
    let stderr = rejected(env!("CARGO_BIN_EXE_table1"), &["--bogus"]);
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
    rejected(env!("CARGO_BIN_EXE_amr"), &["--quick", "extra"]);
    // The rank-local matcher this flag selected is gone.
    let stderr = rejected(env!("CARGO_BIN_EXE_scalability"), &["--local-ipm"]);
    assert!(stderr.contains("--local-ipm"), "stderr: {stderr}");
}

#[test]
fn bad_list_entry_is_rejected() {
    let stderr = rejected(
        env!("CARGO_BIN_EXE_figures"),
        &["--fig", "2", "--ks", "4,x"],
    );
    assert!(stderr.contains("--ks"), "stderr: {stderr}");
    rejected(env!("CARGO_BIN_EXE_scalability"), &["--ranks", "1,,2"]);
}

#[test]
fn out_of_range_value_is_rejected() {
    let (amr, figures) = (env!("CARGO_BIN_EXE_amr"), env!("CARGO_BIN_EXE_figures"));
    let (scalability, table1) = (
        env!("CARGO_BIN_EXE_scalability"),
        env!("CARGO_BIN_EXE_table1"),
    );
    let rows: &[(&str, &[&str], &str)] = &[
        (scalability, &["--ranks", "0"], "--ranks"),
        (scalability, &["--k", "0"], "--k"),
        (scalability, &["--scale", "0"], "--scale"),
        (figures, &["--fig", "4", "--quick", "--ks", "0"], "--ks"),
        (
            figures,
            &["--fig", "4", "--quick", "--alphas", "0"],
            "--alphas",
        ),
        (
            figures,
            &["--fig", "4", "--quick", "--trials", "0"],
            "--trials",
        ),
        (
            figures,
            &["--fig", "4", "--quick", "--epochs", "0"],
            "--epochs",
        ),
        (figures, &["--fig", "4", "--scale", "0"], "--scale"),
        (table1, &["--scale", "0"], "--scale"),
        (table1, &["--scale", "2"], "--scale"),
        (amr, &["--epochs", "0", "--quick"], "--epochs"),
        (amr, &["--trials", "0", "--quick"], "--trials"),
        // `AmrConfig::for_scale` would clamp it to 8 without a word.
        (amr, &["--scale", "9"], "--scale"),
    ];
    for &(bin, args, flag) in rows {
        let stderr = rejected(bin, args);
        assert!(
            stderr.contains(&format!("{flag} must be in")),
            "{args:?}: stderr: {stderr}"
        );
    }
}

#[test]
fn missing_value_or_required_flag_is_rejected() {
    rejected(env!("CARGO_BIN_EXE_table1"), &["--scale"]);
    let stderr = rejected(env!("CARGO_BIN_EXE_figures"), &["--quick"]);
    assert!(stderr.contains("--fig"), "stderr: {stderr}");
}

#[test]
fn valid_flags_still_run() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--scale", "0.001", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("Table 1"));
}
