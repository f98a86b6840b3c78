//! The cross-file `dead-pub` rule: a `pub` item of a library crate must
//! be named somewhere that needs it to be `pub`.
//!
//! Every file of the tree is lexed ([`crate::lexer`]) and its identifiers
//! are indexed, those in test scopes ([`crate::scope`]) apart. Tests
//! outside the item's crate are callers like any other: `#[cfg(test)]` is
//! per crate, so they reach the item only while it is `pub`. Neither a
//! declaration's own name nor a `pub use` re-export is a use. Each `pub`
//! fn, method, const, static and type of a library crate (`crates/<c>/src/`
//! or `shims/<c>/src/`, `src/bin/` excluded) is looked up by name:
//!
//! | named …                                 | finding |
//! |-----------------------------------------|---------|
//! | nowhere (or only in its crate's tests)  | dead: delete it, or move it under `#[cfg(test)]` |
//! | only in its own file                    | make it private |
//! | only in its own crate's `src/`          | make it `pub(crate)` |
//!
//! Types are reported only when dead: an associated `Partial` or a stats
//! struct sits in a public signature without its caller naming it.
//! Matching is by name, so a common name can hide a dead item; that costs
//! nothing, and a false positive gets a per-item waiver.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::lexer::{scan, Scan};
use crate::rules::Violation;
use crate::scope::test_scoped_lines;

/// Keywords that introduce a named item; the next identifier declares.
const ITEM_KWS: [&str; 9] =
    ["fn", "const", "static", "struct", "enum", "trait", "type", "union", "mod"];
const TYPE_KWS: [&str; 5] = ["struct", "enum", "trait", "type", "union"];
/// Tokens that may sit between `const` / `pub` and the `fn` they qualify.
const QUALIFIERS: [&str; 4] = ["unsafe", "async", "extern", "fn"];

/// The public surface of one library crate: `pub fn`s and public types
/// declared outside test scopes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Surface {
    pub fns: usize,
    pub types: usize,
}

/// A `pub` item declared outside test scopes.
struct Decl<'a> {
    line: usize,
    kw: &'a str,
    name: &'a str,
}

/// What one file contributes to the index.
#[derive(Default)]
struct Facts<'a> {
    uses: HashMap<&'a str, usize>,
    test_names: HashSet<&'a str>,
    decls: Vec<Decl<'a>>,
}

/// The library crate a path belongs to (`crates/core`), if it is library
/// code: under `crates/<c>/src/` or `shims/<c>/src/`, not in `src/bin/`.
fn library_crate(path: &str) -> Option<&str> {
    let mut parts = path.splitn(4, '/');
    let (root, krate, src) = (parts.next()?, parts.next()?, parts.next()?);
    let lib = matches!(root, "crates" | "shims") && src == "src" && !path.contains("/src/bin/");
    lib.then(|| &path[..root.len() + 1 + krate.len()])
}

fn is_ident(t: &str) -> bool {
    t.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic())
}

/// Identifier and one-byte punctuation tokens of a code view, each with
/// its 0-based line. Numeric literals are dropped.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let b = code.as_bytes();
    let word = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let (mut out, mut line, mut i) = (Vec::new(), 0, 0);
    while i < b.len() {
        let start = i;
        if word(b[i]) {
            while i < b.len() && word(b[i]) {
                i += 1;
            }
            if !b[start].is_ascii_digit() {
                out.push((line, &code[start..i]));
            }
            continue;
        }
        if b[i] == b'\n' {
            line += 1;
        } else if b[i].is_ascii_punctuation() {
            out.push((line, &code[i..i + 1]));
        }
        i += 1;
    }
    out
}

fn facts(s: &Scan) -> Facts<'_> {
    let mask = test_scoped_lines(s);
    let toks = tokens(&s.code);
    let tok = |j: usize| toks.get(j).map_or("", |&(_, t)| t);
    let mut f = Facts::default();
    let mut i = 0;
    while i < toks.len() {
        let (line, t) = toks[i];
        if mask.get(line).copied().unwrap_or(false) {
            if is_ident(t) {
                f.test_names.insert(t);
            }
            i += 1;
            continue;
        }
        if t == "pub" {
            let bare = tok(i + 1) != "(";
            let mut j = i + 1;
            if !bare {
                j += toks[j..].iter().position(|&(_, t)| t == ")").unwrap_or(0) + 1;
            }
            while matches!(tok(j), "unsafe" | "async" | "extern")
                || (tok(j) == "const" && QUALIFIERS.contains(&tok(j + 1)))
            {
                j += 1;
            }
            if tok(j) == "use" {
                // A re-export names the item without using it.
                i = j + toks[j..].iter().position(|&(_, t)| t == ";").unwrap_or(toks.len() - j);
                continue;
            }
            let kw = tok(j);
            let at = j + 1 + usize::from(kw == "static" && tok(j + 1) == "mut");
            if bare && kw != "mod" && ITEM_KWS.contains(&kw) && is_ident(tok(at)) {
                f.decls.push(Decl { line: toks[at].0, kw, name: tok(at) });
            }
        } else if ITEM_KWS.contains(&t) && (i == 0 || tok(i - 1) != "*") {
            let at = i + 1 + usize::from(t == "static" && tok(i + 1) == "mut");
            if is_ident(tok(at)) && !QUALIFIERS.contains(&tok(at)) {
                // The declared name itself: not a use.
                i = at + 1;
                continue;
            }
        } else if is_ident(t) {
            *f.uses.entry(t).or_default() += 1;
        }
        i += 1;
    }
    f
}

/// Runs `dead-pub` over a whole tree of `(workspace-relative path,
/// source)` pairs. Returns the findings, each with `<file>::<name>` as
/// its path, and the public surface of every library crate.
pub fn check_tree(files: &[(String, String)]) -> (Vec<Violation>, BTreeMap<String, Surface>) {
    let scans: Vec<Scan> = files.iter().map(|(_, src)| scan(src)).collect();
    let all: Vec<Facts> = scans.iter().map(facts).collect();
    let mut surface: BTreeMap<String, Surface> = BTreeMap::new();
    let mut out = Vec::new();
    for ((path, _), f) in files.iter().zip(&all) {
        let Some(krate) = library_crate(path) else { continue };
        let s = surface.entry(krate.to_string()).or_default();
        for d in &f.decls {
            let is_type = TYPE_KWS.contains(&d.kw);
            s.fns += usize::from(d.kw == "fn");
            s.types += usize::from(is_type);
            let (mut own, mut in_crate, mut outside, mut tested) = (0, 0, 0, false);
            for ((other, _), g) in files.iter().zip(&all) {
                let n = g.uses.get(d.name).copied().unwrap_or(0);
                let in_tests = g.test_names.contains(d.name);
                match library_crate(other) {
                    _ if other == path => own += n,
                    Some(k) if k == krate => in_crate += n,
                    _ => outside += n + usize::from(in_tests),
                }
                tested |= in_tests;
            }
            let finding = if own + in_crate + outside == 0 {
                if tested {
                    "is read only in test code: move it under `#[cfg(test)]`"
                } else {
                    "is named nowhere: delete it"
                }
            } else if is_type || outside > 0 {
                continue;
            } else if in_crate == 0 {
                "is named only in its own file: make it private"
            } else {
                "is named only inside its own crate: make it `pub(crate)`"
            };
            out.push(Violation {
                path: format!("{path}::{}", d.name),
                line: d.line + 1,
                rule: "dead-pub",
                msg: format!("`pub {} {}` {finding}", d.kw, d.name),
            });
        }
    }
    (out, surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::Allowlist;

    fn tree(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files.iter().map(|&(p, s)| (p.to_string(), s.to_string())).collect()
    }

    /// `(item path, finding)` for every violation.
    fn findings(files: &[(&str, &str)]) -> Vec<(String, String)> {
        check_tree(&tree(files)).0.into_iter().map(|v| (v.path, v.msg)).collect()
    }

    #[test]
    fn planted_unused_pub_fn_is_reported() {
        let f = findings(&[
            ("crates/core/src/a.rs", "pub fn used() {}\npub fn planted() {}\n"),
            ("tests/t.rs", "fn t() { used(); }\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/core/src/a.rs::planted");
        assert!(f[0].1.contains("named nowhere"), "{}", f[0].1);
    }

    #[test]
    fn a_reexport_alone_does_not_keep_an_item_alive() {
        let f = findings(&[
            ("crates/core/src/a.rs", "pub fn only_exported() {}\npub const K: u8 = 1;\n"),
            ("crates/core/src/lib.rs", "pub use a::{\n    only_exported,\n    K,\n};\n"),
            ("src/lib.rs", "pub use gss_core::only_exported;\nfn f() -> u8 { gss_core::K }\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/core/src/a.rs::only_exported");
    }

    #[test]
    fn a_bin_caller_keeps_a_library_item_pub() {
        let lib = ("crates/bench/src/lib.rs", "pub fn helper() {}\n");
        assert!(findings(&[lib, ("crates/bench/src/bin/fig8.rs", "fn main() { helper(); }\n")])
            .is_empty());
        let f = findings(&[lib, ("crates/bench/src/other.rs", "fn g() { helper(); }\n")]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("pub(crate)"), "{}", f[0].1);
    }

    #[test]
    fn an_integration_test_caller_keeps_an_item_pub() {
        let lib = ("crates/aggregates/src/h.rs", "pub fn distinct() -> usize { 1 }\n");
        let law = "#[test]\nfn law() {\n  assert_eq!(distinct(), 1);\n}\n";
        assert!(findings(&[lib, ("crates/aggregates/tests/laws.rs", law)]).is_empty());
        let other = ("crates/windows/src/w.rs", law);
        assert!(findings(&[lib, other]).is_empty(), "another crate's unit test is a caller");
        let unit = ("crates/aggregates/src/t.rs", law);
        assert!(findings(&[lib, unit])[0].1.contains("test code"));
    }

    #[test]
    fn an_item_read_only_in_cfg_test_is_test_only() {
        let src = "pub fn probe() -> bool { true }\npub fn mine() {}\nfn go() { mine(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { assert!(super::probe()); }\n}\n";
        let f = findings(&[("crates/core/src/s.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].0, "crates/core/src/s.rs::probe");
        assert!(f[0].1.contains("test code"), "{}", f[0].1);
        assert!(f[1].1.contains("make it private"), "{}", f[1].1);
    }

    #[test]
    fn a_type_used_only_inside_its_crate_is_not_reported() {
        let (f, surface) = check_tree(&tree(&[
            ("crates/core/src/a.rs", "pub struct Stats { pub n: u64 }\npub(crate) fn f() {}\n"),
            ("crates/core/src/b.rs", "pub fn stats() -> crate::a::Stats { todo() }\n"),
            ("tests/t.rs", "fn t() { stats(); }\n"),
        ]));
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(surface["crates/core"], Surface { fns: 1, types: 1 });
    }

    #[test]
    fn declarations_and_pointer_consts_are_not_uses() {
        let f = findings(&[
            ("crates/core/src/a.rs", "pub const fn twin() {}\npub static mut S: u8 = 0;\n"),
            ("crates/windows/src/b.rs", "fn twin() {}\nfn p(x: *const S) {}\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/core/src/a.rs::twin");
    }

    #[test]
    fn a_stale_per_item_waiver_fails_the_lint() {
        let (v, _) = check_tree(&tree(&[("crates/core/src/a.rs", "pub fn gone() {}\n")]));
        let allow = Allowlist::parse(
            "dead-pub crates/core/src/a.rs::gone -- paper Fig. 5\n\
             dead-pub crates/core/src/a.rs::gon -- a prefix of the name waives nothing\n",
        )
        .expect("well-formed allowlist");
        let (live, used) = allow.filter(v);
        assert!(live.is_empty());
        assert_eq!(allow.stale(&used).len(), 1);
        assert!(Allowlist::parse("dead-pub crates/core/src/a.rs -- whole file\n").is_err());
    }
}
