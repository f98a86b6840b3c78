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
//!
//! And type names: a CamelCase token (`SliceStore`, `WindowOperator<A>`)
//! must be a type defined under `crates/`, `shims/` or `benchmark/`, and in
//! a `Type::item` token the item must be a fn, field, variant or const of
//! that type. Foreign names are listed in [`FOREIGN`].

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

/// Names the documents use that this tree does not define: std, and the
/// JVM sizing tool the paper measured with.
const FOREIGN: [&str; 11] = [
    "Err",
    "Fn",
    "HashMap",
    "Instant",
    "ObjectSizeCalculator",
    "Option",
    "Result",
    "Send",
    "SystemTime",
    "Vec",
    "VecDeque",
];

/// The type and item a `Type[::item]` token names: a CamelCase head,
/// optionally followed by generic arguments or call parentheses.
fn named_type(token: &str) -> Option<(&str, Option<&str>)> {
    let head = token.split(['<', '(']).next()?;
    let rest = &token[head.len()..];
    let ident = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let (ty, item) = match head.split_once("::") {
        Some((ty, item)) => (ty, Some(item)),
        // A bare `Name(…)` is a variant or a call written without its type.
        None if rest.starts_with('(') => return None,
        None => (head, None),
    };
    let camel = ty.starts_with(|c: char| c.is_ascii_uppercase()) && ty.contains(char::is_lowercase);
    (camel && ident(ty) && item.is_none_or(ident)).then_some((ty, item))
}

/// The `{ … }` bodies of `ty`'s definitions and `impl` blocks in `source`.
fn bodies<'a>(source: &'a str, ty: &str) -> Vec<&'a str> {
    let word = |hay: &str, w: &str| {
        hay.match_indices(w).any(|(at, _)| {
            let ok = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
            ok(hay[..at].chars().next_back()) && ok(hay[at + w.len()..].chars().next())
        })
    };
    let mut out = Vec::new();
    for (at, _) in source.match_indices(['s', 'e', 't', 'i']) {
        let Some(kw) = ["struct ", "enum ", "trait ", "impl"].into_iter().find(|kw| {
            source[at..].starts_with(kw)
                && !source[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
        }) else {
            continue;
        };
        let Some(open) = source[at..].find(['{', ';']).map(|o| at + o) else { continue };
        let header = &source[at + kw.len()..open];
        let names = if kw == "impl" {
            word(header, ty)
        } else {
            header.trim_start().split(|c: char| !c.is_alphanumeric() && c != '_').next() == Some(ty)
        };
        if !names || source[open..].starts_with(';') {
            continue;
        }
        let mut depth = 0;
        for (off, c) in source[open..].char_indices() {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            if depth == 0 {
                out.push(&source[open..open + off]);
                break;
            }
        }
    }
    out
}

/// Whether `body` declares `item`: a fn or const, or a field or variant at
/// the start of a line.
fn declares(body: &str, item: &str) -> bool {
    let follows = |s: &str, head: &str| {
        s.strip_prefix(head)
            .is_some_and(|r| !r.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
    };
    body.lines().any(|line| {
        let line = line.trim_start();
        let line = line.strip_prefix("pub(crate) ").or(line.strip_prefix("pub ")).unwrap_or(line);
        follows(line, item)
            || line.match_indices("fn ").chain(line.match_indices("const ")).any(|(at, kw)| {
                (at == 0 || line[..at].ends_with(' ')) && follows(&line[at + kw.len()..], item)
            })
    })
}

/// Every `.rs` file under `dir`, build output skipped.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && entry.file_name() != "target" {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.extend(std::fs::read_to_string(&path));
        }
    }
}

/// Whether the tree defines type `ty` with `item` (if any) as a member.
fn type_exists(sources: &[String], ty: &str, item: Option<&str>) -> bool {
    let naming: Vec<&String> = sources.iter().filter(|src| src.contains(ty)).collect();
    naming.iter().any(|src| defines(src, ty))
        && item.is_none_or(|item| {
            naming.iter().flat_map(|src| bodies(src, ty)).any(|b| declares(b, item))
        })
}

#[test]
fn types_named_in_readme_and_design_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "shims", "benchmark"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for token in text.split('`').skip(1).step_by(2) {
            let Some((ty, item)) = named_type(token) else { continue };
            if FOREIGN.contains(&ty) {
                continue;
            }
            checked += 1;
            if !type_exists(&sources, ty, item) {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(checked > 100, "only {checked} type names found: the scan is broken");
    assert!(missing.is_empty(), "types or members that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn the_type_scan_sees_what_it_should() {
    assert_eq!(named_type("SliceStore"), Some(("SliceStore", None)));
    assert_eq!(named_type("WindowOperator<A>"), Some(("WindowOperator", None)));
    assert_eq!(named_type("ChunkBuilder::room()"), Some(("ChunkBuilder", Some("room"))));
    assert_eq!(named_type("StorePolicy::FingerTree"), Some(("StorePolicy", Some("FingerTree"))));
    assert_eq!(named_type("Ack(Time)"), None);
    assert_eq!(named_type("MIN_BATCH_WINDOWS"), None);
    assert_eq!(named_type("O(log d)"), None);
    assert_eq!(named_type("gss_core::cast"), None);
    assert_eq!(named_type("cargo lint"), None);

    let src = "pub struct S {\n    pub a: u8,\n}\nenum E {\n    One,\n    Two(u8),\n}\n\
               impl<A> S {\n    pub(crate) fn go(&self) {}\n    const K: u8 = 1;\n}\n";
    let sources = [src.to_string()];
    for (ty, item) in [("S", Some("a")), ("S", Some("go")), ("S", Some("K")), ("E", Some("Two"))] {
        assert!(type_exists(&sources, ty, item), "{ty}::{item:?}");
    }
    for (ty, item) in [("S", Some("One")), ("E", Some("go")), ("Missing", None), ("S", Some("g"))] {
        assert!(!type_exists(&sources, ty, item), "{ty}::{item:?}");
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
