//! A small hand-rolled Rust lexer for line-level lint rules.
//!
//! The rule engine does not need a full token tree — it needs to know,
//! for every source line, *which bytes are code* (as opposed to comment
//! text or literal contents) and *what the comments say* (for
//! `// SAFETY:` detection). [`scan`] produces exactly that: a copy of
//! the source in which comment bodies and string/char-literal contents
//! are blanked out with spaces (newlines and byte positions preserved,
//! so line/column arithmetic carries over), plus the concatenated
//! comment text of every line.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block
//! comments (`/* /* */ */`), string literals with escapes, byte strings,
//! raw strings (`r"…"`, `r#"…"#`, any hash depth, `br#"…"#`), char and
//! byte literals (including escaped ones), and the lifetime-vs-char-literal
//! ambiguity (`'a` vs `'a'`).

/// The classified view of one source file.
pub struct Scan {
    /// The source with comment bodies and literal contents replaced by
    /// spaces. Delimiters (`//`, `"` …) are blanked too; only genuine
    /// code bytes survive. Newlines are preserved.
    pub code: String,
    /// Concatenated comment text per line (0-based), without the `//`
    /// or `/* */` markers.
    pub comments: Vec<String>,
}

impl Scan {
    /// Code text of line `i` (0-based); empty past the end.
    #[cfg(test)]
    fn code_line(&self, i: usize) -> &str {
        self.code.lines().nth(i).unwrap_or("")
    }

    /// Lines of the code view, in order.
    pub(crate) fn code_lines(&self) -> impl Iterator<Item = &str> {
        self.code.lines()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* */`.
    BlockComment(u32),
    /// Inside `"…"`; `true` right after a backslash.
    Str(bool),
    /// Inside `r#…"…"#…`; payload is the hash count.
    RawStr(u32),
    /// Inside `'…'`; `true` right after a backslash.
    CharLit(bool),
}

/// Classifies `src` byte by byte (see module docs).
pub fn scan(src: &str) -> Scan {
    let bytes = src.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut comments: Vec<String> = vec![String::new()];
    let mut line = 0usize;
    let mut state = State::Code;
    // Whether the previous code byte continues an identifier — used to
    // tell a raw-string prefix (`r"`, `br#"` …) from an identifier that
    // merely ends in `r` or `b`.
    let mut prev_ident = false;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code.push(b'\n');
            comments.push(String::new());
            line += 1;
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let rest = &bytes[i..];
                if rest.starts_with(b"//") {
                    state = State::LineComment;
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                    prev_ident = false;
                } else if rest.starts_with(b"/*") {
                    state = State::BlockComment(1);
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                    prev_ident = false;
                } else if b == b'"' {
                    state = State::Str(false);
                    code.push(b' ');
                    i += 1;
                    prev_ident = false;
                } else if !prev_ident && (b == b'r' || b == b'b') {
                    if b == b'b' && rest.get(1) == Some(&b'\'') && is_char_literal(&rest[1..]) {
                        // A byte literal: `b'"'` must not open a string.
                        state = State::CharLit(false);
                        code.extend_from_slice(b"  ");
                        i += 2;
                        prev_ident = false;
                    } else if let Some((hashes, len)) = raw_string_prefix(rest) {
                        state = State::RawStr(hashes);
                        code.extend(std::iter::repeat_n(b' ', len));
                        i += len;
                        prev_ident = false;
                    } else {
                        code.push(b);
                        prev_ident = true;
                        i += 1;
                    }
                } else if b == b'\'' && !prev_ident {
                    // `'x'` / `'\n'` are char literals; `'a` (no closing
                    // quote) is a lifetime and stays code. After an
                    // identifier (`x'` can't start a literal) the quote
                    // is unreachable in valid Rust anyway.
                    if is_char_literal(rest) {
                        state = State::CharLit(false);
                        code.push(b' ');
                        i += 1;
                    } else {
                        code.push(b);
                        i += 1;
                    }
                } else {
                    code.push(b);
                    prev_ident = b == b'_' || b.is_ascii_alphanumeric();
                    i += 1;
                }
            }
            State::LineComment => {
                comments[line].push(b as char);
                code.push(b' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let rest = &bytes[i..];
                if rest.starts_with(b"/*") {
                    state = State::BlockComment(depth + 1);
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                } else if rest.starts_with(b"*/") {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    code.push(b' ');
                    code.push(b' ');
                    i += 2;
                } else {
                    comments[line].push(b as char);
                    code.push(b' ');
                    i += 1;
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                } else if b == b'\\' {
                    state = State::Str(true);
                } else if b == b'"' {
                    state = State::Code;
                }
                code.push(b' ');
                i += 1;
            }
            State::RawStr(hashes) => {
                if b == b'"'
                    && bytes[i + 1..].iter().take_while(|&&c| c == b'#').count() as u32 >= hashes
                {
                    code.extend(std::iter::repeat_n(b' ', 1 + hashes as usize));
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
            State::CharLit(escaped) => {
                if escaped {
                    state = State::CharLit(false);
                } else if b == b'\\' {
                    state = State::CharLit(true);
                } else if b == b'\'' {
                    state = State::Code;
                }
                code.push(b' ');
                i += 1;
            }
        }
    }
    // The scan only blanks ASCII bytes (all Rust syntax is ASCII);
    // multi-byte UTF-8 sequences pass through or blank byte-for-byte,
    // which keeps the buffer valid only if we never split a sequence.
    // Blanking replaces *every* byte of a multi-byte char inside
    // comments/literals with a space, so the result is valid UTF-8.
    let code = String::from_utf8(code).unwrap_or_default();
    Scan { code, comments }
}

/// If `rest` begins a raw-string literal (`r"`, `r#"`, `br##"` …),
/// returns `(hash_count, prefix_len_including_opening_quote)`.
fn raw_string_prefix(rest: &[u8]) -> Option<(u32, usize)> {
    let mut j = 0;
    if rest.first() == Some(&b'b') {
        j += 1;
    }
    if rest.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let hashes = rest[j..].iter().take_while(|&&c| c == b'#').count();
    j += hashes;
    (rest.get(j) == Some(&b'"')).then_some((hashes as u32, j + 1))
}

/// Whether `rest` (starting at a `'`) is a char literal rather than a
/// lifetime: `'\…'` always is; `'c'` is when a closing quote follows one
/// character (ASCII or multi-byte).
fn is_char_literal(rest: &[u8]) -> bool {
    match rest.get(1) {
        Some(b'\\') => true,
        Some(&c) => {
            // Skip one UTF-8 character, then require a closing quote.
            let len = utf8_len(c);
            rest.get(1 + len) == Some(&b'\'')
        }
        None => false,
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let s = scan("let x = 1; // panic!(\"no\")\nlet y = 2;\n");
        assert!(!s.code_line(0).contains("panic!"));
        assert!(s.code_line(0).contains("let x = 1;"));
        assert!(s.comments[0].contains("panic!"));
        assert_eq!(s.code_line(1), "let y = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("a /* outer /* inner unwrap() */ still */ b\n");
        let code = s.code_line(0);
        assert!(!code.contains("unwrap"));
        assert!(!code.contains("still"));
        assert!(code.starts_with('a') && code.trim_end().ends_with('b'));
        assert!(s.comments[0].contains("inner unwrap()"));
    }

    #[test]
    fn strings_are_blanked_with_escapes() {
        let s = scan(r#"let m = "say \"panic!\" loudly"; call();"#);
        let code = s.code_line(0);
        assert!(!code.contains("panic!"));
        assert!(code.contains("let m ="));
        assert!(code.contains("call();"));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let s = scan("let r = r#\"has \"quotes\" and unwrap()\"# ; next();\n");
        let code = s.code_line(0);
        assert!(!code.contains("unwrap"));
        assert!(code.contains("next();"));
        // A hash short of the closing fence must not terminate it.
        let s2 = scan("let r = r##\"x\"# not closed yet\"## ; after();\n");
        let code2 = s2.code_line(0);
        assert!(!code2.contains("not closed"));
        assert!(code2.contains("after();"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let s = scan("let b = b\"panic!\"; let rb = br#\"todo!\"#; go();\n");
        let code = s.code_line(0);
        assert!(!code.contains("panic!") && !code.contains("todo!"));
        assert!(code.contains("go();"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = scan("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }\n");
        let code = s.code_line(0);
        // Lifetimes survive as code; char-literal contents are blanked
        // (the quote inside '"' must not open a string).
        assert!(code.contains("'a>"));
        assert!(code.contains("&'a str"));
        assert!(!code.contains('"'));
        let s2 = scan("let c = 'x'; still_code();\n");
        assert!(s2.code_line(0).contains("still_code();"));
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = scan("if b == b'\"' { q(); } else if c == b'#' { h(); }\n");
        let code = s.code_line(0);
        assert!(code.contains("q();") && code.contains("h();"));
        assert!(!code.contains('"') && !code.contains('#'));
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let s = scan("let var = taker(\"blanked\"); done();\n");
        let code = s.code_line(0);
        assert!(code.contains("taker("));
        assert!(!code.contains("blanked"));
        assert!(code.contains("done();"));
    }

    #[test]
    fn multiline_string_blanks_every_line() {
        let s = scan("let m = \"line one panic!\nline two unwrap()\"; end();\n");
        assert!(!s.code_line(0).contains("panic!"));
        assert!(!s.code_line(1).contains("unwrap"));
        assert!(s.code_line(1).contains("end();"));
    }

    #[test]
    fn positions_are_preserved() {
        let src = "abc /* x */ def\n";
        let s = scan(src);
        assert_eq!(s.code.len(), src.len());
        assert_eq!(&s.code[12..15], "def");
    }
}
