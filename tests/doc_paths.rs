//! Every source path README.md and DESIGN.md name in back-ticks exists.
//!
//! Checked: tokens under `crates/`, `tests/`, `examples/`, `analysis/`,
//! `benchmark/` or `shims/`, and anything of the shape
//! `<dir>/src/<file>.rs` (so a path written against a crate's *name*, like
//! `gss-stream/src/…`, fails: the directory is `crates/stream`). A token
//! with a wildcard or placeholder is checked up to the directory before it.

use std::path::Path;

const ROOTS: [&str; 6] = ["crates/", "tests/", "examples/", "analysis/", "benchmark/", "shims/"];

/// The path a back-ticked token names, if it names one.
fn named_path(token: &str) -> Option<&str> {
    if token.is_empty() || token.contains(char::is_whitespace) || token.contains("::") {
        return None;
    }
    let source_file = token.contains("/src/") && token.ends_with(".rs");
    if !source_file && !ROOTS.iter().any(|root| token.starts_with(root)) {
        return None;
    }
    // `path:line` references and globs: the part that is a path.
    let path = token.split(':').next().unwrap_or(token);
    match path.find(['*', '{', '<', '…']) {
        Some(at) => path[..at].rfind('/').map(|slash| &path[..slash]),
        None => Some(path.trim_end_matches('/')),
    }
}

#[test]
fn paths_named_in_readme_and_design_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // Odd segments of a split on back-ticks are the quoted spans
        // (fenced blocks hold commands, which name no path as one token).
        for token in text.split('`').skip(1).step_by(2) {
            let Some(path) = named_path(token) else { continue };
            checked += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(checked > 20, "only {checked} paths found: the scan is broken");
    assert!(missing.is_empty(), "paths that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn the_scan_sees_what_it_should() {
    assert_eq!(named_path("crates/stream/src/driver.rs"), Some("crates/stream/src/driver.rs"));
    assert_eq!(named_path("gss-stream/src/parallel.rs"), Some("gss-stream/src/parallel.rs"));
    assert_eq!(named_path("crates/stream/src/driver.rs:42"), Some("crates/stream/src/driver.rs"));
    assert_eq!(named_path("crates/bench/src/bin/*.rs"), Some("crates/bench/src/bin"));
    assert_eq!(named_path("tests/"), Some("tests"));
    assert_eq!(named_path("cargo test -p gss-stream"), None);
    assert_eq!(named_path("gss_stream::driver::run"), None);
    assert_eq!(named_path("target/experiments/<name>.csv"), None);
}
