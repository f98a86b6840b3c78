//! Test-scope detection: which lines of a file belong to items gated
//! behind `#[cfg(test)]` (or `#[test]` / `#[bench]`).
//!
//! Rules like `no-panic` apply to production code only; a `#[cfg(test)]
//! mod tests { … }` block — wherever it appears, nested included — is
//! test code. Operating on the lexer's code view (comments and literals
//! already blanked), the scanner finds test-gating attributes and marks
//! the whole following item: up to the matching `}` if the item opens a
//! brace block, or the terminating `;` for braceless items.

use crate::lexer::Scan;
use crate::rules::contains_word;

/// Returns, for each line (0-based), whether it lies inside a
/// test-gated item.
pub(crate) fn test_scoped_lines(scan: &Scan) -> Vec<bool> {
    let code = scan.code.as_bytes();
    let line_count = scan.code.lines().count();
    let mut mask = vec![false; line_count.max(1)];
    let mut i = 0usize;
    while i < code.len() {
        if code[i] == b'#' && peek_is(code, i + 1, b'[') {
            if let Some((inner, attr_end)) = attribute_at(code, i) {
                if is_test_gate(&inner) {
                    let region_end = item_end(code, attr_end);
                    mark(&mut mask, code, i, region_end);
                    i = region_end;
                    continue;
                }
                i = attr_end;
                continue;
            }
        }
        i += 1;
    }
    mask
}

fn peek_is(code: &[u8], i: usize, b: u8) -> bool {
    code.get(i) == Some(&b)
}

/// Parses the attribute starting at `#` (position `start`); returns its
/// inner text and the byte position just past the closing `]`.
fn attribute_at(code: &[u8], start: usize) -> Option<(String, usize)> {
    let mut depth = 0usize;
    let mut inner = String::new();
    for (off, &b) in code[start..].iter().enumerate() {
        match b {
            b'[' => {
                depth += 1;
                if depth > 1 {
                    inner.push('[');
                }
            }
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((inner, start + off + 1));
                }
                inner.push(']');
            }
            _ if depth >= 1 => inner.push(b as char),
            _ => {}
        }
    }
    None
}

/// Whether an attribute's inner text gates test-only code: `test`,
/// `bench`, or a `cfg(…)` whose predicate mentions the `test` flag.
fn is_test_gate(inner: &str) -> bool {
    let t = inner.trim();
    if t == "test" || t == "bench" {
        return true;
    }
    if let Some(pred) = t.strip_prefix("cfg") {
        // `cfg(test)`, `cfg(all(test, feature = …))`, … — literal
        // strings are blanked by the lexer, so a word-bounded `test`
        // can only be the configuration flag itself.
        return contains_word(pred, "test");
    }
    false
}

/// Finds the end of the item following an attribute: skips any further
/// attributes, then scans to the matching `}` of the first brace block,
/// or to the first `;` if one comes before any `{`.
fn item_end(code: &[u8], mut i: usize) -> usize {
    // Skip whitespace and stacked attributes (`#[cfg(test)] #[allow…]`).
    loop {
        while i < code.len() && (code[i] as char).is_whitespace() {
            i += 1;
        }
        if i < code.len() && code[i] == b'#' && peek_is(code, i + 1, b'[') {
            match attribute_at(code, i) {
                Some((_, end)) => i = end,
                None => return code.len(),
            }
        } else {
            break;
        }
    }
    let mut depth = 0usize;
    while i < code.len() {
        match code[i] {
            b'{' => depth += 1,
            // A closing brace at depth 0 ends the *enclosing* scope: the
            // gated item (an attributed statement or expression) cannot
            // extend past it.
            b'}' if depth == 0 => return i,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Marks every line overlapping byte range `[from, to)`.
fn mark(mask: &mut [bool], code: &[u8], from: usize, to: usize) {
    let first = line_of(code, from);
    let last = line_of(code, to.saturating_sub(1).max(from));
    let upto = (last + 1).min(mask.len());
    for m in mask.iter_mut().take(upto).skip(first) {
        *m = true;
    }
}

fn line_of(code: &[u8], pos: usize) -> usize {
    code[..pos.min(code.len())].iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn mask(src: &str) -> Vec<bool> {
        test_scoped_lines(&scan(src))
    }

    #[test]
    fn cfg_test_mod_is_scoped() {
        let m = mask(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn prod2() {}\n",
        );
        assert_eq!(m, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn nested_braces_stay_scoped() {
        let src = "#[cfg(test)]\nmod tests {\n  mod inner {\n    fn f() { if a { b() } }\n  }\n}\nfn after() {}\n";
        let m = mask(src);
        assert!(m[..6].iter().all(|&x| x));
        assert!(!m[6]);
    }

    #[test]
    fn test_fn_attribute_scopes_only_that_fn() {
        let m = mask("#[test]\nfn t() {\n  boom();\n}\nfn prod() {}\n");
        assert_eq!(m, vec![true, true, true, true, false]);
    }

    #[test]
    fn cfg_all_with_test_flag_is_scoped() {
        let m = mask("#[cfg(all(test, unix))]\nfn t() {}\nfn p() {}\n");
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn cfg_feature_named_like_test_is_not_scoped() {
        // The lexer blanks string contents, so `feature = "test"` cannot
        // leak the word — but `testing`-style idents must not match
        // either.
        let m = mask("#[cfg(feature = \"integration-testing\")]\nfn p() { run(); }\n");
        assert_eq!(m, vec![false, false]);
    }

    #[test]
    fn braceless_item_ends_at_semicolon() {
        let m = mask("#[cfg(test)]\nuse helpers::*;\nfn prod() {}\n");
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn stacked_attributes_cover_whole_item() {
        let m = mask("#[cfg(test)]\n#[allow(dead_code)]\nfn t() {\n  x();\n}\nfn p() {}\n");
        assert_eq!(m, vec![true, true, true, true, true, false]);
    }
}
