//! The bins' usage errors: a bad option value ends the run with one line
//! on stderr and exit code 2, not a panic.

use std::process::Command;

#[test]
fn ooo_rejects_an_unknown_store_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_ooo"))
        .args(["--store", "finger", "--ooo", "50"])
        .env("GSS_SCALE", "0.001")
        .output()
        .expect("run the ooo bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr, "ooo: unknown store \"finger\"; expected one of lazy, eager\n");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn ooo_rejects_an_unknown_cell_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_ooo"))
        .args(["--ooo", "7"])
        .env("GSS_SCALE", "0.001")
        .output()
        .expect("run the ooo bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("ooo: unknown --ooo cell \"7\""), "stderr: {stderr}");
}

#[test]
fn fold_rejects_an_unknown_function_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_fold"))
        .args(["--function", "nope"])
        .env("GSS_SCALE", "0.001")
        .output()
        .expect("run the fold bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("fold: unknown function \"nope\"; expected one of"), "{stderr}");
    assert!(stderr.contains("\"sum\""), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn fold_rejects_an_unknown_run_length_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_fold"))
        .args(["--run-len", "7"])
        .env("GSS_SCALE", "0.001")
        .output()
        .expect("run the fold bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr, "fold: unknown --run-len \"7\"; expected one of [64, 512, 4096, 16384]\n");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}
