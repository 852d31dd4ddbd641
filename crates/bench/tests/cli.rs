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
    assert_eq!(output.status.code(), Some(2), "{bin} {args:?}: stderr: {stderr}");
    assert!(output.stdout.is_empty(), "{bin} {args:?} started running before rejecting");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: stderr: {stderr}");
    stderr
}

#[test]
fn unparsable_value_is_rejected() {
    let stderr = rejected(env!("CARGO_BIN_EXE_amr"), &["--scale", "abc"]);
    assert!(stderr.contains("--scale") && stderr.contains("abc"), "stderr: {stderr}");
    rejected(env!("CARGO_BIN_EXE_scalability"), &["--k", "eight"]);
}

#[test]
fn unknown_flag_is_rejected() {
    let stderr = rejected(env!("CARGO_BIN_EXE_table1"), &["--bogus"]);
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
    rejected(env!("CARGO_BIN_EXE_amr"), &["--quick", "extra"]);
}

#[test]
fn bad_list_entry_is_rejected() {
    let stderr = rejected(env!("CARGO_BIN_EXE_figures"), &["--fig", "2", "--ks", "4,x"]);
    assert!(stderr.contains("--ks"), "stderr: {stderr}");
    rejected(env!("CARGO_BIN_EXE_scalability"), &["--ranks", "1,,2"]);
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
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).contains("Table 1"));
}
