//! The line-level lint rules enforced over the workspace.
//!
//! Every rule operates on the lexer's code view (comments and literal
//! contents blanked — see [`crate::lexer`]) with test-gated lines masked
//! out where the rule targets production code only
//! (see [`crate::scope`]). Paths are workspace-relative with `/`
//! separators.
//!
//! | rule              | scope                                   | requirement |
//! |-------------------|-----------------------------------------|-------------|
//! | `no-panic`        | library code (not tests/benches/bins)   | no `.unwrap()` / `.expect(` / `panic!` / `todo!` / `unimplemented!` / `unreachable!` |
//! | `unsafe-safety`   | everywhere                              | every `unsafe` is preceded by a `// SAFETY:` comment |
//! | `core-cast`       | `gss-core` library code                 | no bare `as usize` / `as i64` (use `gss_core::cast` helpers) |
//! | `std-hashmap`     | hot crates (core/stream/baselines/aggregates) | no default-hasher `HashMap` (use the `FxHashMap` shim) |
//! | `no-wallclock`    | `gss-core` / `gss-aggregates`           | no `Instant::now` / `SystemTime` (event time only) |
//! | `raw-channel`     | library code (not tests/benches/bins)   | no raw `mpsc` / `channel::bounded` / `thread::spawn` / `thread::scope` — go through `crossbeam::runtime` so `cargo sched` can control the concurrency surface |
//! | `dead-pub`        | `pub` items of library crates (cross-file, [`crate::deadpub`]) | named outside its file, and outside its crate unless it is a type |
//!
//! Audited exceptions live in `analysis/lint.allow` (see
//! [`crate::allowlist`]).

use crate::lexer::{scan, Scan};
use crate::scope::test_scoped_lines;

/// One rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see the module-level table).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Rule identifiers, for `lint --rules` and allowlist validation.
/// `dead-pub` is cross-file and lives in [`crate::deadpub`].
pub const RULE_IDS: &[&str] = &[
    "no-panic",
    "unsafe-safety",
    "core-cast",
    "std-hashmap",
    "no-wallclock",
    "raw-channel",
    "dead-pub",
];

/// Whether a path is library (production) code for the `no-panic` rule:
/// binaries, benches, examples, test trees, the bench harness crate, and
/// the vendored dependency shims are exempt.
fn is_library_code(path: &str) -> bool {
    let exempt_dirs = ["/tests/", "/benches/", "/examples/", "/src/bin/", "/build/", "/fuzz/"];
    if exempt_dirs.iter().any(|d| path.contains(d)) {
        return false;
    }
    if path.starts_with("tests/") || path.starts_with("examples/") || path.starts_with("benches/") {
        return false;
    }
    // The bench harness crate is measurement tooling end to end.
    !path.starts_with("crates/bench/")
}

/// Crates whose per-tuple paths are hot enough that a randomized default
/// hasher is a measurable regression.
fn is_hot_crate(path: &str) -> bool {
    ["crates/core/src/", "crates/stream/src/", "crates/baselines/src/", "crates/aggregates/src/"]
        .iter()
        .any(|p| path.starts_with(p))
}

fn is_core_lib(path: &str) -> bool {
    path.starts_with("crates/core/src/")
}

fn is_event_time_crate(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/aggregates/src/")
}

/// Runs every applicable rule over one file. `path` must be
/// workspace-relative with `/` separators.
pub fn check_file(path: &str, src: &str) -> Vec<Violation> {
    let scanned = scan(src);
    let test_mask = test_scoped_lines(&scanned);
    let mut out = Vec::new();
    let in_tests = |line0: usize| test_mask.get(line0).copied().unwrap_or(false);

    for (line0, code) in scanned.code_lines().enumerate() {
        let line = line0 + 1;
        if is_library_code(path) && !in_tests(line0) {
            for needle in
                [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!", "unreachable!"]
            {
                if find_token(code, needle) {
                    out.push(Violation {
                        path: path.to_string(),
                        line,
                        rule: "no-panic",
                        msg: format!("`{needle}` in library code — return an error, restructure, or allowlist with justification"),
                    });
                }
            }
        }
        if is_core_lib(path) && !in_tests(line0) {
            for needle in ["as usize", "as i64"] {
                if contains_word_seq(code, needle) {
                    out.push(Violation {
                        path: path.to_string(),
                        line,
                        rule: "core-cast",
                        msg: format!("bare `{needle}` cast in slice-index/timestamp arithmetic — use a `gss_core::cast` checked helper"),
                    });
                }
            }
        }
        if is_hot_crate(path) && !in_tests(line0) && contains_word(code, "HashMap") {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "std-hashmap",
                msg: "default-hasher `HashMap` in a hot crate — use `gss_core::FxHashMap`".into(),
            });
        }
        if is_library_code(path) && !in_tests(line0) {
            // The concurrency surface must stay behind
            // `crossbeam::runtime` (`runtime::bounded`, `runtime::scope`)
            // so the sched build can interpose on every channel op and
            // spawn. The needles carry their path prefixes, so
            // `runtime::bounded` / `runtime::scope` do not match.
            for needle in ["mpsc", "channel::bounded", "thread::spawn", "thread::scope"] {
                if contains_word(code, needle) {
                    out.push(Violation {
                        path: path.to_string(),
                        line,
                        rule: "raw-channel",
                        msg: format!("raw `{needle}` outside the runtime layer — use `crossbeam::runtime::bounded` / `crossbeam::runtime::scope` so `cargo sched` can control it"),
                    });
                }
            }
        }
        if is_event_time_crate(path) && !in_tests(line0) {
            for needle in ["Instant::now", "SystemTime"] {
                if code.contains(needle) {
                    out.push(Violation {
                        path: path.to_string(),
                        line,
                        rule: "no-wallclock",
                        msg: format!("wall-clock `{needle}` in event-time code — thread times through the data path"),
                    });
                }
            }
        }
        if contains_word(code, "unsafe") && !has_safety_comment(&scanned, line0) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "unsafe-safety",
                msg: "`unsafe` without a preceding `// SAFETY:` comment".into(),
            });
        }
    }
    out
}

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit
/// (attributes or the statement head may intervene).
const SAFETY_LOOKBACK: usize = 5;

fn has_safety_comment(scanned: &Scan, line0: usize) -> bool {
    let from = line0.saturating_sub(SAFETY_LOOKBACK);
    scanned.comments[from..=line0.min(scanned.comments.len() - 1)]
        .iter()
        .any(|c| c.contains("SAFETY:"))
}

/// Substring search for method-call / macro tokens. The needles carry
/// their own delimiters (`.…(`, `…!`), so plain containment is exact —
/// `.expect(` does not match `.expect_tok(` and `FxHashMap` is excluded
/// by [`contains_word`] instead.
fn find_token(code: &str, needle: &str) -> bool {
    match needle.strip_suffix('!') {
        // Macro names additionally need a word boundary on the left
        // (`panic!` must not match `core_panic!`).
        Some(stem) => {
            let mut from = 0;
            while let Some(pos) = code[from..].find(needle) {
                let at = from + pos;
                if at == 0 || !is_ident_byte(code.as_bytes()[at - 1]) {
                    return true;
                }
                from = at + stem.len();
            }
            false
        }
        None => code.contains(needle),
    }
}

/// Word-bounded identifier search.
pub(crate) fn contains_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Word-bounded search for a two-token sequence like `as usize`,
/// tolerant of any interior whitespace.
fn contains_word_seq(hay: &str, needle: &str) -> bool {
    let mut parts = needle.splitn(2, ' ');
    let (Some(first), Some(second)) = (parts.next(), parts.next()) else {
        return contains_word(hay, needle);
    };
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(first) {
        let at = from + pos;
        let end = at + first.len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        if before_ok {
            let rest = &hay[end..];
            let trimmed = rest.trim_start();
            if (rest.len() != trimmed.len() || trimmed.is_empty()) && trimmed.starts_with(second) {
                let after = trimmed.as_bytes().get(second.len());
                if after.is_none_or(|&b| !is_ident_byte(b)) {
                    return true;
                }
            }
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_in_library_code_flagged() {
        let v = check_file("crates/core/src/x.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-panic");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_in_tests_dir_and_bins_ok() {
        assert!(check_file("crates/core/tests/t.rs", "fn f() { y.unwrap(); }\n").is_empty());
        assert!(check_file("crates/bench/src/bin/b.rs", "fn f() { y.unwrap(); }\n").is_empty());
        assert!(check_file("tests/e2e.rs", "fn f() { panic!(); }\n").is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_mod_ok() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_in_comment_or_string_ok() {
        let src = "// panic! here would be bad\nfn f() { let s = \"panic!\"; }\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn expect_tok_is_not_expect() {
        assert!(check_file("crates/query/src/sql.rs", "fn f() { p.expect_tok(t); }\n").is_empty());
        assert_eq!(rules_of("crates/query/src/sql.rs", "fn f() { p.expect(t); }\n"), ["no-panic"]);
    }

    #[test]
    fn unreachable_in_library_code_flagged() {
        let src =
            "fn f(x: Option<u8>) -> u8 { match x { Some(v) => v, None => unreachable!() } }\n";
        assert_eq!(rules_of("crates/core/src/x.rs", src), ["no-panic"]);
        assert!(check_file("crates/core/tests/t.rs", src).is_empty());
        // `debug_unreachable!`-style names are other macros.
        assert!(check_file("crates/core/src/x.rs", "fn f() { my_unreachable!(); }\n").is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { go() } }\n";
        assert_eq!(rules_of("crates/stream/src/p.rs", bad), ["unsafe-safety"]);
        let good = "// SAFETY: go has no preconditions.\nfn f() { unsafe { go() } }\n";
        assert!(check_file("crates/stream/src/p.rs", good).is_empty());
    }

    #[test]
    fn unsafe_rule_applies_even_in_tests() {
        let bad = "#[cfg(test)]\nmod tests {\n  fn t() { unsafe { go() } }\n}\n";
        assert_eq!(rules_of("crates/core/src/x.rs", bad), ["unsafe-safety"]);
    }

    #[test]
    fn core_casts_flagged_only_in_core() {
        let src = "fn f(g: i64, b: i64) -> usize { (g - b) as usize }\n";
        assert_eq!(rules_of("crates/core/src/t.rs", src), ["core-cast"]);
        assert!(check_file("crates/stream/src/t.rs", src).is_empty());
        // `as u64` widenings and float casts are out of scope.
        assert!(
            check_file("crates/core/src/t.rs", "fn f(n: usize) -> u64 { n as u64 }\n").is_empty()
        );
    }

    #[test]
    fn hashmap_flagged_but_fxhashmap_ok() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(rules_of("crates/core/src/m.rs", bad), ["std-hashmap"]);
        let good = "use crate::hash::FxHashMap;\nfn f() { let m: FxHashMap<u64, u64> = FxHashMap::default(); }\n";
        assert!(check_file("crates/core/src/m.rs", good).is_empty());
        // Cold crates may use the default hasher.
        assert!(check_file("crates/query/src/m.rs", bad).is_empty());
    }

    #[test]
    fn raw_channel_flagged_in_library_code() {
        let mpsc = "use std::sync::mpsc;\n";
        assert_eq!(rules_of("crates/stream/src/p.rs", mpsc), ["raw-channel"]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of("crates/stream/src/p.rs", spawn), ["raw-channel"]);
        let scope = "fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(rules_of("crates/stream/src/p.rs", scope), ["raw-channel"]);
        let bounded = "fn f() { let (tx, rx) = channel::bounded(4); }\n";
        assert_eq!(rules_of("crates/stream/src/p.rs", bounded), ["raw-channel"]);
    }

    #[test]
    fn runtime_layer_calls_are_not_raw_channels() {
        let src = "use crossbeam::runtime;\nfn f() { let (tx, rx) = runtime::bounded(4); runtime::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(check_file("crates/stream/src/p.rs", src).is_empty());
    }

    #[test]
    fn raw_channel_allowed_in_tests_and_bins() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(check_file("crates/stream/tests/t.rs", spawn).is_empty());
        assert!(check_file("crates/bench/src/bin/b.rs", spawn).is_empty());
        let in_test_mod =
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(check_file("crates/stream/src/p.rs", in_test_mod).is_empty());
    }

    #[test]
    fn wallclock_flagged_in_core_and_aggregates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_of("crates/core/src/t.rs", src), ["no-wallclock"]);
        assert_eq!(rules_of("crates/aggregates/src/t.rs", src), ["no-wallclock"]);
        assert!(check_file("crates/stream/src/t.rs", src).is_empty());
    }
}
