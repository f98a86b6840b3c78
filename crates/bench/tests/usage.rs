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
