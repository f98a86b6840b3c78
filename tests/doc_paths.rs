//! Every source path README.md and DESIGN.md name in back-ticks exists.
//!
//! Checked: tokens under `crates/`, `tests/`, `examples/`, `analysis/`,
//! `benchmark/` or `shims/`, and anything of the shape
//! `<dir>/src/<file>.rs` (so a path written against a crate's *name*, like
//! `gss-stream/src/…`, fails: the directory is `crates/stream`). A token
//! with a wildcard or placeholder is checked up to the directory before it.
//!
//! Also checked: module paths `gss-<crate>::<module>[::<Item>]` (or
//! `gss_<crate>::…`). The module must be a file `crates/<crate>/src/<module>.rs`,
//! and a CamelCase item after it must be defined in that file.

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

/// The module file and the CamelCase item, if any, that a
/// `gss-<crate>::<module>[::<Item>]` token names. Crate-root items and
/// macros (`gss_core::audit_assert!`) name no module.
fn named_item(token: &str) -> Option<(String, Option<&str>)> {
    let rest = token.strip_prefix("gss-").or_else(|| token.strip_prefix("gss_"))?;
    let mut segments = rest.split("::");
    let lower = |s: &str| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let (krate, module) = (segments.next()?, segments.next()?);
    if !lower(krate) || !lower(module) {
        return None;
    }
    let item = segments.next().filter(|s| {
        s.starts_with(|c: char| c.is_ascii_uppercase())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    });
    Some((format!("crates/{krate}/src/{module}.rs"), item))
}

/// Whether `source` defines a type or trait called `item`.
fn defines(source: &str, item: &str) -> bool {
    ["struct", "enum", "trait", "type", "union"].iter().any(|kw| {
        let head = format!("{kw} {item}");
        source.match_indices(&head).any(|(at, _)| {
            !source[at + head.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
    })
}

/// Whether the module file and item a token names exist under `root`.
fn item_exists(root: &Path, file: &str, item: Option<&str>) -> bool {
    match std::fs::read_to_string(root.join(file)) {
        Ok(source) => item.is_none_or(|item| defines(&source, item)),
        Err(_) => false,
    }
}

#[test]
fn paths_named_in_readme_and_design_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut checked, mut items) = (0, 0);
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // Odd segments of a split on back-ticks are the quoted spans
        // (fenced blocks hold commands, which name no path as one token).
        for token in text.split('`').skip(1).step_by(2) {
            let found = if let Some(path) = named_path(token) {
                checked += 1;
                root.join(path).exists()
            } else if let Some((file, item)) = named_item(token) {
                items += 1;
                item_exists(root, &file, item)
            } else {
                continue;
            };
            if !found {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(checked > 20, "only {checked} paths found: the scan is broken");
    assert!(items > 10, "only {items} module paths found: the scan is broken");
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

    let file = |f: &str| f.to_string();
    assert_eq!(
        named_item("gss_stream::driver::run"),
        Some((file("crates/stream/src/driver.rs"), None))
    );
    assert_eq!(
        named_item("gss-baselines::buckets"),
        Some((file("crates/baselines/src/buckets.rs"), None))
    );
    assert_eq!(
        named_item("gss-core::mem::HeapSize"),
        Some((file("crates/core/src/mem.rs"), Some("HeapSize")))
    );
    assert_eq!(named_item("gss_core::audit_assert!"), None);
    assert_eq!(named_item("gss_core::StreamElement"), None);
    assert_eq!(named_item("gss-stream/src/parallel.rs"), None);
    assert_eq!(named_item("cargo test -p gss-stream"), None);

    // Against the tree: a module named after the algorithm, not its file,
    // and a trait under a name it does not have, are both caught.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let exists = |token: &str| {
        let (f, item) = named_item(token).expect("a module path");
        item_exists(root, &f, item)
    };
    assert!(exists("gss-baselines::aggregate_tree"));
    assert!(!exists("gss-baselines::flat_fat"));
    assert!(exists("gss-core::mem::HeapSize"));
    assert!(!exists("gss-core::mem::DeepSize"));
    assert!(!defines("pub trait HeapSizeExt {}", "HeapSize"));
}
