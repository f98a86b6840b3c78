//! Workspace lint driver: scans every `.rs` file, applies the line rules
//! in `gss_analysis::rules` and the cross-file `dead-pub` rule in
//! `gss_analysis::deadpub`, subtracts the audited exceptions in
//! `analysis/lint.allow`, and reports.
//!
//! Exit codes: `0` clean, `1` violations or stale allowlist entries,
//! `2` the allowlist itself is malformed.

use gss_analysis::allowlist::Allowlist;
use gss_analysis::deadpub;
use gss_analysis::rules::{check_file, RULE_IDS};
use gss_analysis::walk::{rust_files, workspace_root};

fn main() {
    if std::env::args().any(|a| a == "--rules") {
        for r in RULE_IDS {
            println!("{r}");
        }
        return;
    }
    std::process::exit(run());
}

fn run() -> i32 {
    let root = workspace_root();
    let allow_path = root.join("analysis").join("lint.allow");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = match Allowlist::parse(&allow_text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: malformed allowlist: {e}");
            return 2;
        }
    };

    let mut sources = Vec::new();
    for (rel, path) in rust_files(&root) {
        match std::fs::read_to_string(&path) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => eprintln!("lint: skipping unreadable {rel}: {e}"),
        }
    }
    let mut violations: Vec<_> =
        sources.iter().flat_map(|(rel, src)| check_file(rel, src)).collect();
    let (dead, surface) = deadpub::check_tree(&sources);
    violations.extend(dead);

    let total = violations.len();
    let (live, used) = allow.filter(violations);
    for v in &live {
        println!("{v}");
    }
    let stale = allow.stale(&used);
    for e in &stale {
        eprintln!(
            "lint: stale allowlist entry (waives nothing) at lint.allow:{}: {} {} -- {}",
            e.line, e.rule, e.path_prefix, e.justification
        );
    }

    let waived = total - live.len();
    if live.is_empty() && stale.is_empty() {
        println!(
            "lint: OK — {} files scanned, {} audited exception(s) waived",
            sources.len(),
            waived
        );
        println!("  public surface (outside test scopes):");
        for (krate, s) in &surface {
            println!("  {krate:<24} {:>4} pub fn  {:>3} pub types", s.fns, s.types);
        }
        // Waiver ages: the PR that introduced each standing exception,
        // so long-lived waivers stay visible at every run instead of
        // silently accumulating.
        for (e, n) in allow.entries.iter().zip(&used) {
            let age = match e.pr {
                Some(pr) => format!("pr{pr}"),
                None => "pr?".to_string(),
            };
            println!("  {age:<5} {:<12} {:<36} waives {n}", e.rule, e.path_prefix);
        }
        0
    } else {
        eprintln!(
            "lint: FAILED — {} violation(s), {} stale allowlist entr(ies) ({} files, {} waived)",
            live.len(),
            stale.len(),
            sources.len(),
            waived
        );
        1
    }
}
