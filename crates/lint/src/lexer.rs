//! A small hand-written Rust lexer, just rich enough for token-pattern
//! linting: identifiers, numeric literals (with float detection), string /
//! raw-string / byte-string / char literals, lifetimes, multi-char operators,
//! and comments. String and comment *contents* never become code tokens, so
//! rule patterns cannot fire inside literals or doc comments — the classic
//! grep false-positive. Line numbers are 1-based.

/// Kind of a lexed token.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Int,
    Float,
    Str,
    Char,
    Lifetime,
    Punct,
}

/// One code token with its source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block) with the line it starts on. The leading
/// `//`, `///`, `//!` or `/*` marker is stripped from `text`.
#[derive(Clone, Debug)]
pub struct Comment {
    pub line: u32,
    pub text: String,
    /// True for `//`-style comments (suppression pragmas must be these).
    pub is_line: bool,
}

/// Lexer output: the code token stream plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first (maximal munch).
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comments. Unterminated literals are tolerated
/// (the rest of the file becomes the literal) — the linter must never panic
/// on weird input.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: chars[start..j].iter().collect(),
                    is_line: true,
                });
                i = j;
            }
            '/' if next == Some('*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: chars[start..end.min(chars.len())].iter().collect(),
                    is_line: false,
                });
                i = j;
            }
            '"' => {
                let (tok, ni, nl) = lex_string(&chars, i, line);
                out.toks.push(tok);
                i = ni;
                line = nl;
            }
            '\'' => {
                let (tok, ni) = lex_quote(&chars, i, line);
                out.toks.push(tok);
                i = ni;
            }
            _ if c.is_ascii_digit() => {
                let (tok, ni) = lex_number(&chars, i, line);
                out.toks.push(tok);
                i = ni;
            }
            _ if is_ident_start(c) => {
                // Raw / byte string prefixes: r" r#" b" br" b' etc.
                if let Some((tok, ni, nl)) = try_lex_prefixed_literal(&chars, i, line) {
                    out.toks.push(tok);
                    i = ni;
                    line = nl;
                    continue;
                }
                let mut j = i + 1;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            _ => {
                let mut matched = false;
                for op in MULTI_OPS {
                    let oplen = op.chars().count();
                    if i + oplen <= chars.len()
                        && chars[i..i + oplen].iter().collect::<String>() == **op
                    {
                        out.toks.push(Tok {
                            kind: TokKind::Punct,
                            text: (*op).to_string(),
                            line,
                        });
                        i += oplen;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    out.toks.push(Tok {
                        kind: TokKind::Punct,
                        text: c.to_string(),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Lex a `"…"` string starting at `i` (which must point at the quote).
/// Returns the token, the next index, and the updated line number. The
/// token's `text` is the raw content between the quotes (escapes are NOT
/// processed) — the syntax layer reads it for `cfg(feature = "…")`, and
/// rule patterns never match `Str` tokens, so keeping it is safe.
fn lex_string(chars: &[char], i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let mut j = i + 1;
    let content_start = j;
    let mut content_end = chars.len();
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // An escaped newline (line continuation) still advances the
                // line counter; other escapes are opaque two-char units.
                if chars.get(j + 1) == Some(&'\n') {
                    line += 1;
                }
                j += 2;
            }
            '\n' => {
                line += 1;
                j += 1;
            }
            '"' => {
                content_end = j;
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (
        Tok {
            kind: TokKind::Str,
            text: chars[content_start..content_end.min(chars.len())]
                .iter()
                .collect(),
            line: start_line,
        },
        j.min(chars.len()),
        line,
    )
}

/// Lex a raw string `r"…"` / `r#"…"#` starting at the first `#` or `"`
/// (after the `r`/`br` prefix has been consumed by the caller).
fn lex_raw_string(chars: &[char], i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let mut hashes = 0usize;
    let mut j = i;
    while j < chars.len() && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        j += 1;
    }
    let content_start = j;
    let mut content_end = chars.len();
    while j < chars.len() {
        if chars[j] == '\n' {
            line += 1;
            j += 1;
        } else if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                content_end = j;
                j = k;
                break;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (
        Tok {
            kind: TokKind::Str,
            text: chars[content_start..content_end.min(chars.len())]
                .iter()
                .collect(),
            line: start_line,
        },
        j,
        line,
    )
}

/// `'x'` char literal vs `'a` lifetime, starting at the quote.
fn lex_quote(chars: &[char], i: usize, line: u32) -> (Tok, usize) {
    let next = chars.get(i + 1).copied();
    if next == Some('\\') {
        // Escaped char literal: the char right after the backslash is part
        // of the escape and is consumed unconditionally — `'\''` must not
        // stop at its own escaped quote — then scan to the closing quote.
        let mut j = i + 2;
        if j < chars.len() {
            j += 1;
        }
        while j < chars.len() && chars[j] != '\'' {
            j += if chars[j] == '\\' { 2 } else { 1 };
        }
        return (
            Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            },
            (j + 1).min(chars.len()),
        );
    }
    if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
        // 'x' — a single-char literal.
        return (
            Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            },
            i + 3,
        );
    }
    // Lifetime: 'ident (no closing quote).
    let mut j = i + 1;
    while j < chars.len() && is_ident_continue(chars[j]) {
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Lifetime,
            text: chars[i..j].iter().collect(),
            line,
        },
        j,
    )
}

/// Numeric literal starting at a digit. Distinguishes floats from integers:
/// `1.5`, `1.`, `1e9`, `1.5e-3`, `1f32` are floats; `1`, `0xFF`, `1u8`,
/// `a.0` (tuple index — the lexer never starts a number at `.`) are not.
fn lex_number(chars: &[char], i: usize, line: u32) -> (Tok, usize) {
    let mut j = i;
    let mut is_float = false;
    if chars[i] == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b')) {
        j = i + 2;
        while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (
            Tok {
                kind: TokKind::Int,
                text: chars[i..j].iter().collect(),
                line,
            },
            j,
        );
    }
    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    if chars.get(j) == Some(&'.') {
        let after = chars.get(j + 1).copied();
        let is_fractional = match after {
            Some(c) if c.is_ascii_digit() => true,
            Some('.') => false,                    // range: 1..n
            Some(c) if is_ident_start(c) => false, // method call: 1.max(x)
            _ => true,                             // trailing: `1.`
        };
        if is_fractional {
            is_float = true;
            j += 1;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    if matches!(chars.get(j), Some('e') | Some('E')) {
        let mut k = j + 1;
        if matches!(chars.get(k), Some('+') | Some('-')) {
            k += 1;
        }
        if chars.get(k).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            j = k;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix: f32/f64 force float; integer suffixes keep Int.
    if chars.get(j).is_some_and(|&c| is_ident_start(c)) {
        let s = j;
        let mut k = j;
        while k < chars.len() && is_ident_continue(chars[k]) {
            k += 1;
        }
        let suffix: String = chars[s..k].iter().collect();
        if suffix.ends_with("f32") || suffix.ends_with("f64") {
            is_float = true; // 1f32, 2.5_f64, …
        }
        j = k; // integer suffixes (u8, i64, usize, …) keep Int
    }
    (
        Tok {
            kind: if is_float {
                TokKind::Float
            } else {
                TokKind::Int
            },
            text: chars[i..j].iter().collect(),
            line,
        },
        j,
    )
}

/// Handle `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` at an ident-start
/// position. Returns `None` if this is a plain identifier.
fn try_lex_prefixed_literal(chars: &[char], i: usize, line: u32) -> Option<(Tok, usize, u32)> {
    let c = chars[i];
    let next = chars.get(i + 1).copied();
    let next2 = chars.get(i + 2).copied();
    match (c, next) {
        ('r', Some('"')) | ('r', Some('#')) => {
            // `r#foo` is a raw identifier, not a raw string.
            if next == Some('#') && next2.map(is_ident_start) == Some(true) {
                return None;
            }
            let (tok, ni, nl) = lex_raw_string(chars, i + 1, line);
            Some((tok, ni, nl))
        }
        ('b', Some('"')) => {
            let (tok, ni, nl) = lex_string(chars, i + 1, line);
            Some((tok, ni, nl))
        }
        ('b', Some('\'')) => {
            let (tok, ni) = lex_quote(chars, i + 1, line);
            Some((tok, ni, line))
        }
        ('b', Some('r')) if matches!(next2, Some('"') | Some('#')) => {
            let (tok, ni, nl) = lex_raw_string(chars, i + 2, line);
            Some((tok, ni, nl))
        }
        _ => None,
    }
}

/// Token-index ranges `[start, end)` covering every `#[cfg(test)]` item
/// (attribute + the item it decorates, up to the matching close brace or
/// terminating semicolon). Returned as ranges — rather than a stripped
/// stream — so the syntax layer's body ranges stay index-aligned with the
/// original token vector.
pub fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let start = i;
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
                               // Skip any further attributes on the same item.
            while j < toks.len()
                && toks[j].text == "#"
                && toks.get(j + 1).map(|t| t.text.as_str()) == Some("[")
            {
                j = skip_balanced(toks, j + 1, "[", "]");
            }
            // Skip the item body: to the matching `}` of the first brace
            // block, or to a `;` if one terminates the item first.
            let mut depth = 0usize;
            let mut saw_brace = false;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "{" => {
                        depth += 1;
                        saw_brace = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if saw_brace && depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ";" if !saw_brace => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push((start, j));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let texts: Vec<&str> = toks
        .iter()
        .skip(i)
        .take(7)
        .map(|t| t.text.as_str())
        .collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Starting with `toks[open_idx] == open`, index just past the matching
/// `close`. Tolerates unbalanced input by running to `toks.len()`.
pub(crate) fn skip_balanced(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].text == open {
            depth += 1;
        } else if toks[j].text == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r####"
            // HashMap in a comment
            /* partial_cmp().unwrap() in a block comment */
            let s = "HashMap::new()";
            let r = r#"Instant::now()"#;
            let c = 'H';
            real_ident();
        "####;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|i| i == "HashMap" || i == "Instant"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lexed.toks.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn tuple_index_is_not_a_float() {
        let lexed = lex("let y = pair.0 == x.1;");
        assert!(!lexed.toks.iter().any(|t| t.kind == TokKind::Float));
    }

    #[test]
    fn float_forms() {
        for src in ["1.5", "1.", "1e9", "2.5e-3", "3f32", "4.0f64", "1_000.5"] {
            let lexed = lex(src);
            assert!(
                lexed.toks.iter().any(|t| t.kind == TokKind::Float),
                "{src} should lex as float: {:?}",
                lexed.toks
            );
        }
        for src in ["42", "0xFF", "1u8", "7usize", "1..3"] {
            let lexed = lex(src);
            assert!(
                !lexed.toks.iter().any(|t| t.kind == TokKind::Float),
                "{src} should not contain a float: {:?}",
                lexed.toks
            );
        }
    }

    #[test]
    fn multi_char_ops_lex_whole() {
        let lexed = lex("a == b; c != d; e <= f; p::q");
        let puncts: Vec<_> = lexed.toks.iter().map(|t| t.text.as_str()).collect();
        assert!(puncts.contains(&"=="));
        assert!(puncts.contains(&"!="));
        assert!(puncts.contains(&"<="));
        assert!(puncts.contains(&"::"));
    }

    #[test]
    fn cfg_test_ranges_cover_test_items_only() {
        let src = r#"
            fn lib_code() { keep_me(); }
            #[cfg(test)]
            mod tests {
                fn t() { drop_me(); }
            }
            fn more_lib() { also_keep(); }
        "#;
        let toks = lex(src).toks;
        let ranges = cfg_test_ranges(&toks);
        let ids: Vec<&str> = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.kind == TokKind::Ident && !ranges.iter().any(|&(s, e)| *i >= s && *i < e)
            })
            .map(|(_, t)| t.text.as_str())
            .collect();
        assert!(ids.contains(&"keep_me"));
        assert!(ids.contains(&"also_keep"));
        assert!(!ids.contains(&"drop_me"));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ after");
        let ids: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, ["after"]);
    }

    #[test]
    fn deeply_nested_block_comments_match_rustc_depth_rules() {
        // rustc nests block comments to arbitrary depth; `*/` tokens inside
        // must pair with their own `/*`.
        let lexed = lex("/* a /* b /* c */ b */ a */ tail");
        let ids = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(ids, ["tail"]);
        // An unterminated nested comment swallows the rest of the file
        // (tolerated, never a panic) — same as rustc's error recovery.
        let lexed = lex("/* open /* inner */ still open... ident");
        assert!(lexed.toks.is_empty());
    }

    #[test]
    fn escaped_quote_char_literal_does_not_leak_a_quote() {
        // `'\''` previously lexed as 3 chars, leaving the closing quote to
        // start a bogus lifetime that ate the next identifier.
        let lexed = lex(r"let q = '\''; let after = 1;");
        let ids = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert!(ids.contains(&"after"), "{ids:?}");
        assert!(
            !lexed.toks.iter().any(|t| t.kind == TokKind::Lifetime),
            "{:?}",
            lexed.toks
        );
    }

    #[test]
    fn escape_sequences_in_char_literals() {
        for src in [r"'\\'", r"'\n'", r"'\u{41}'", r"'\x7f'", r"b'\''"] {
            let lexed = lex(&format!("let c = {src}; done()"));
            assert!(
                lexed.toks.iter().any(|t| is_ident(t, "done")),
                "{src}: {:?}",
                lexed.toks
            );
            assert!(
                lexed.toks.iter().any(|t| t.kind == TokKind::Char),
                "{src} should contain a char literal"
            );
        }
    }

    #[test]
    fn lifetimes_vs_chars_edge_cases() {
        // `'_` and labels are lifetimes; `'a'` in a range pattern is a char.
        let lexed = lex(
            "fn f(x: &'_ str) { 'outer: loop { match c { 'a'..='z' => break 'outer, _ => {} } } }",
        );
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'_", "'outer", "'outer"]);
        assert_eq!(
            lexed
                .toks
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn raw_strings_keep_contents_and_hash_depth() {
        // Content (with inner quotes) is preserved on the token but never
        // becomes code tokens; `"#` inside a `r##"…"##` does not terminate.
        let lexed = lex(r###"let s = r##"inner "# quote"##; end()"###);
        let s = lexed
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("raw string token");
        assert_eq!(s.text, r##"inner "# quote"##);
        assert!(lexed.toks.iter().any(|t| is_ident(t, "end")));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let lexed = lex("let r#type = 1; use_it(r#type)");
        assert!(lexed.toks.iter().any(|t| is_ident(t, "type")));
        assert!(!lexed.toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn multiline_and_continued_strings_count_lines() {
        let lexed = lex("let a = \"l1\nl2\";\nlet b = \"x\\\ny\";\nlast()");
        let last = lexed
            .toks
            .iter()
            .find(|t| is_ident(t, "last"))
            .expect("last ident");
        assert_eq!(last.line, 5, "{:?}", lexed.toks);
    }

    #[test]
    fn string_tokens_carry_contents_for_cfg_feature() {
        let lexed = lex(r#"#[cfg(feature = "strict")] fn gated() {}"#);
        let s = lexed
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("feature string");
        assert_eq!(s.text, "strict");
    }

    fn is_ident(t: &Tok, s: &str) -> bool {
        t.kind == TokKind::Ident && t.text == s
    }

    #[test]
    fn cfg_test_ranges_align_with_token_indices() {
        let src = "fn lib() {} #[cfg(test)] mod t { fn x() {} } fn tail() {}";
        let lexed = lex(src);
        let ranges = cfg_test_ranges(&lexed.toks);
        assert_eq!(ranges.len(), 1);
        let (s, e) = ranges[0];
        assert_eq!(lexed.toks[s].text, "#");
        assert_eq!(lexed.toks[e - 1].text, "}");
        assert!(lexed.toks[e..].iter().any(|t| is_ident(t, "tail")));
    }
}
