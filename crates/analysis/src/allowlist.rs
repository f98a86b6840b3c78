//! The audited-exception allowlist for the lint pass.
//!
//! `analysis/lint.allow` holds one entry per line:
//!
//! ```text
//! <rule-id> <path-prefix> pr<N> -- <justification>
//! ```
//!
//! A violation is waived when its rule matches and its path starts with
//! the entry's prefix. A `dead-pub` entry names one item,
//! `<file>::<name>`, and waives that item only, so a new dead item in the
//! same file stays visible; the other form it takes is a directory
//! prefix ending in `/`. Every entry must carry a justification, and every
//! entry must waive at least one live violation — stale entries fail the
//! lint so the list can only shrink as code is fixed. The `pr<N>` token
//! records the PR that introduced the waiver, so the lint driver can
//! report each exception's age; it is optional for compatibility but the
//! driver flags entries without one.

use crate::rules::{Violation, RULE_IDS};

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path_prefix: String,
    pub justification: String,
    /// The PR that introduced the waiver (`pr<N>` token), if recorded.
    pub pr: Option<u32>,
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: usize,
}

impl AllowEntry {
    /// Whether the entry waives a finding at `path`: an item entry
    /// (`<file>::<name>`) waives that item alone, any other entry waives
    /// every path under its prefix.
    fn covers(&self, path: &str) -> bool {
        if self.path_prefix.contains("::") {
            path == self.path_prefix
        } else {
            path.starts_with(&self.path_prefix)
        }
    }
}

/// A parsed allowlist plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

/// Errors in the allowlist file itself.
#[derive(Debug, PartialEq, Eq)]
pub struct AllowError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for AllowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.msg)
    }
}

impl Allowlist {
    /// Parses the allowlist text; comment (`#`) and blank lines are
    /// skipped. Unknown rule ids and missing justifications are errors.
    pub fn parse(text: &str) -> Result<Allowlist, AllowError> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let (head, justification) = match t.split_once("--") {
                Some((h, j)) if !j.trim().is_empty() => (h.trim(), j.trim().to_string()),
                _ => {
                    return Err(AllowError {
                        line,
                        msg: "entry needs `<rule> <path-prefix> -- <justification>`".into(),
                    })
                }
            };
            let mut parts = head.split_whitespace();
            let (Some(rule), Some(path_prefix)) = (parts.next(), parts.next()) else {
                return Err(AllowError {
                    line,
                    msg: "entry head must be `<rule> <path-prefix> [pr<N>]`".into(),
                });
            };
            let pr = match (parts.next(), parts.next()) {
                (None, _) => None,
                (Some(tok), None) => match tok.strip_prefix("pr").and_then(|n| n.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        return Err(AllowError {
                            line,
                            msg: format!("third head token must be `pr<N>`, got `{tok}`"),
                        })
                    }
                },
                (Some(_), Some(_)) => {
                    return Err(AllowError {
                        line,
                        msg: "entry head must be `<rule> <path-prefix> [pr<N>]`".into(),
                    })
                }
            };
            if !RULE_IDS.contains(&rule) {
                return Err(AllowError { line, msg: format!("unknown rule `{rule}`") });
            }
            if rule == "dead-pub" && !path_prefix.contains("::") && !path_prefix.ends_with('/') {
                return Err(AllowError {
                    line,
                    msg: "a `dead-pub` entry names one item (`<file>::<name>`) or a directory"
                        .into(),
                });
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path_prefix: path_prefix.to_string(),
                justification,
                pr,
                line,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Splits violations into (unwaived, per-entry match counts).
    pub fn filter(&self, violations: Vec<Violation>) -> (Vec<Violation>, Vec<usize>) {
        let mut used = vec![0usize; self.entries.len()];
        let mut remaining = Vec::new();
        'next: for v in violations {
            for (i, e) in self.entries.iter().enumerate() {
                if e.rule == v.rule && e.covers(&v.path) {
                    used[i] += 1;
                    continue 'next;
                }
            }
            remaining.push(v);
        }
        (remaining, used)
    }

    /// Entries that waived nothing — stale, and an error in CI.
    pub fn stale<'a>(&'a self, used: &[usize]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(i, _)| used.get(i).copied().unwrap_or(0) == 0)
            .map(|(_, e)| e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(path: &str, rule: &'static str) -> Violation {
        Violation { path: path.into(), line: 1, rule, msg: String::new() }
    }

    #[test]
    fn parse_and_filter() {
        let a = Allowlist::parse(
            "# comment\n\nno-panic shims/ -- vendored stand-ins panic by API design\n",
        )
        .expect("well-formed allowlist");
        assert_eq!(a.entries.len(), 1);
        let (rest, used) = a.filter(vec![
            v("shims/proptest/src/lib.rs", "no-panic"),
            v("crates/core/src/x.rs", "no-panic"),
            v("shims/proptest/src/lib.rs", "unsafe-safety"),
        ]);
        assert_eq!(used, vec![1]);
        assert_eq!(rest.len(), 2, "other rule and other path stay live");
    }

    #[test]
    fn pr_token_parsed_and_optional() {
        let a = Allowlist::parse(
            "no-panic shims/ pr3 -- panics by design\nno-panic crates/core/src/x.rs -- legacy\n",
        )
        .expect("well-formed allowlist");
        assert_eq!(a.entries[0].pr, Some(3));
        assert_eq!(a.entries[1].pr, None);
    }

    #[test]
    fn malformed_pr_token_rejected() {
        let err = Allowlist::parse("no-panic shims/ pr -- why\n").expect_err("must reject");
        assert!(err.msg.contains("pr<N>"), "got: {}", err.msg);
        assert!(Allowlist::parse("no-panic shims/ v3 -- why\n").is_err());
        assert!(Allowlist::parse("no-panic shims/ pr3 extra -- why\n").is_err());
    }

    #[test]
    fn justification_is_mandatory() {
        assert!(Allowlist::parse("no-panic shims/\n").is_err());
        assert!(Allowlist::parse("no-panic shims/ --   \n").is_err());
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = Allowlist::parse("no-such-rule shims/ -- why\n").expect_err("must reject");
        assert!(err.msg.contains("unknown rule"));
    }

    #[test]
    fn stale_entries_reported() {
        let a = Allowlist::parse(
            "no-panic shims/ -- used\nno-wallclock crates/core/src/gone.rs -- stale\n",
        )
        .expect("well-formed allowlist");
        let (_, used) = a.filter(vec![v("shims/rand/src/lib.rs", "no-panic")]);
        let stale = a.stale(&used);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path_prefix, "crates/core/src/gone.rs");
    }
}
