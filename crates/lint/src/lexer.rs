//! A hand-rolled Rust lexer, just deep enough for linting.
//!
//! The checker and parser match *token* patterns (`Ordering::Relaxed`,
//! `.lock()`, `panic!`), so the lexer's one job is to produce an honest
//! token stream: identifiers and punctuation with line numbers, with
//! every kind of literal and comment recognized and set aside. That is
//! what keeps the checker from being fooled by `"Ordering::Relaxed"`
//! inside a string, `unwrap` in a doc example, or a `panic!` spelled out
//! in a comment.
//!
//! Handled: line and (nested) block comments, doc comments, string
//! literals with escapes, raw strings with any number of `#`s, byte and
//! C-string variants (`b"…"`, `br#"…"#`, `c"…"`, `cr"…"`), byte and char
//! literals, lifetimes vs. char literals, and numeric literals including
//! decimal exponents. Everything else is an identifier or a one-character
//! punctuation token.

/// What a token is; literal payloads are deliberately discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword, e.g. `unwrap`, `fn`, `HashMap`.
    Ident(String),
    /// A single punctuation character, e.g. `.` `!` `<` `:`.
    Punct(char),
    /// Any string, raw-string, byte-string, char, or byte literal.
    Literal,
    /// A numeric literal.
    Num,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token's kind (and identifier text, when an identifier).
    pub kind: TokKind,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first character (used to detect
    /// adjacency, e.g. telling the `>` of `->` from a generic close).
    pub pos: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment, kept separate from the token stream (suppression
/// directives live in comments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including the `//` / `/*` introducer.
    pub text: String,
    /// Whether only whitespace precedes the comment on its line (a
    /// "standalone" comment; directives in one apply to the next line
    /// of code rather than their own line).
    pub owns_line: bool,
}

/// The result of lexing one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: malformed input
/// (e.g. an unterminated string) is consumed to end of file, which is
/// the most conservative behavior for a linter.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    // True until the first non-whitespace character of the current line.
    let mut at_line_start = true;

    let at = |i: usize| -> Option<char> { chars.get(i).map(|&(_, c)| c) };

    while i < n {
        let (pos, c) = chars[i];
        match c {
            '\n' => {
                line += 1;
                at_line_start = true;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == Some('/') => {
                while i < n && chars[i].1 != '\n' {
                    i += 1;
                }
                let end = chars.get(i).map_or(src.len(), |&(p, _)| p);
                out.comments.push(Comment {
                    line,
                    text: src[pos..end].to_owned(),
                    owns_line: at_line_start,
                });
                at_line_start = false;
            }
            '/' if at(i + 1) == Some('*') => {
                let owns_line = at_line_start;
                let start_line = line;
                let start_pos = pos;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    match (chars[i].1, at(i + 1)) {
                        ('/', Some('*')) => {
                            depth += 1;
                            i += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                let end = chars.get(i).map_or(src.len(), |&(p, _)| p);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start_pos..end].to_owned(),
                    owns_line,
                });
                at_line_start = false;
            }
            '"' => {
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    line,
                    pos,
                });
                i = consume_string(&chars, i + 1, &mut line);
                at_line_start = false;
            }
            '\'' => {
                // Lifetime (`'a`) vs. char literal (`'x'`, `'\n'`, `'_'`).
                let next = at(i + 1);
                let after = at(i + 2);
                let is_lifetime = next.is_some_and(is_ident_start) && after != Some('\'');
                if is_lifetime {
                    i += 2;
                    while i < n && is_ident_continue(chars[i].1) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        line,
                        pos,
                    });
                } else {
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        line,
                        pos,
                    });
                    i += 1;
                    while i < n {
                        match chars[i].1 {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            '\n' => {
                                // Unterminated char literal; stop at EOL.
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                }
                at_line_start = false;
            }
            c if c.is_ascii_digit() => {
                out.tokens.push(Token {
                    kind: TokKind::Num,
                    line,
                    pos,
                });
                i = consume_number(&chars, i);
                at_line_start = false;
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(chars[i].1) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().map(|&(_, c)| c).collect();
                let next = at(i);
                let raw_intro = matches!(word.as_str(), "r" | "br" | "cr")
                    && matches!(next, Some('"') | Some('#'));
                let plain_intro = matches!(word.as_str(), "b" | "c") && next == Some('"');
                let byte_char = word == "b" && next == Some('\'');
                if raw_intro && raw_string_follows(&chars, i) {
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        line,
                        pos,
                    });
                    i = consume_raw_string(&chars, i, &mut line);
                } else if plain_intro {
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        line,
                        pos,
                    });
                    i = consume_string(&chars, i + 1, &mut line);
                } else if byte_char {
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        line,
                        pos,
                    });
                    i += 1; // opening quote
                    while i < n {
                        match chars[i].1 {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            '\n' => break,
                            _ => i += 1,
                        }
                    }
                } else {
                    out.tokens.push(Token {
                        kind: TokKind::Ident(word),
                        line,
                        pos,
                    });
                }
                at_line_start = false;
            }
            other => {
                out.tokens.push(Token {
                    kind: TokKind::Punct(other),
                    line,
                    pos,
                });
                i += 1;
                at_line_start = false;
            }
        }
    }
    out
}

/// Consumes a non-raw string body starting just past the opening `"`;
/// returns the index past the closing quote. Tracks embedded newlines.
fn consume_string(chars: &[(usize, char)], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i].1 {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Whether `#*` followed by `"` starts at `i` (after an `r`/`br`/`cr`
/// introducer) — distinguishes `r"…"` / `r#"…"#` from `r#raw_ident`.
fn raw_string_follows(chars: &[(usize, char)], mut i: usize) -> bool {
    while i < chars.len() && chars[i].1 == '#' {
        i += 1;
    }
    i < chars.len() && chars[i].1 == '"'
}

/// Consumes a raw string starting at the `#`s/quote after the introducer;
/// returns the index past the closing delimiter.
fn consume_raw_string(chars: &[(usize, char)], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while i < chars.len() && chars[i].1 == '#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote (guaranteed by raw_string_follows)
    while i < chars.len() {
        match chars[i].1 {
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && j < chars.len() && chars[j].1 == '#' {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a numeric literal starting at a digit; returns the index
/// past it. Handles `1_000`, `0xff`, `1.5`, `1e-5`, `2.5e+10`, suffixes
/// — and leaves range dots (`0..n`) alone.
fn consume_number(chars: &[(usize, char)], mut i: usize) -> usize {
    let start = i;
    let mut hex = false;
    if chars[i].1 == '0' {
        if let Some(&(_, c)) = chars.get(i + 1) {
            if c == 'x' || c == 'X' || c == 'o' || c == 'b' {
                hex = true;
            }
        }
    }
    let mut last = '0';
    while i < chars.len() {
        let c = chars[i].1;
        let digit_next = || chars.get(i + 1).is_some_and(|&(_, d)| d.is_ascii_digit());
        let continues = is_ident_continue(c)
            || (c == '.' && !hex && digit_next())
            || ((c == '+' || c == '-')
                && (last == 'e' || last == 'E')
                && !hex
                && i > start
                && digit_next());
        if !continues {
            break;
        }
        last = c;
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r##"let s = "Instant::now()"; let r = r#"panic!("x")"#;"##;
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "let", "r"]);
    }

    #[test]
    fn comments_hide_their_contents_and_are_collected() {
        let src = "// Instant::now()\nlet x = 1; /* unwrap() /* nested */ still */\n";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter_map(|t| t.ident())
                .collect::<Vec<_>>(),
            ["let", "x"]
        );
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].owns_line);
        assert!(!lexed.comments[1].owns_line);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let u = '_'; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 2);
    }

    #[test]
    fn escaped_quotes_and_char_escapes() {
        let src = r#"let a = "he said \"hi\""; let b = '\''; let c = '\u{1F600}';"#;
        assert_eq!(idents(src), ["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn byte_and_c_strings() {
        let src = r##"let a = b"bytes"; let b = br#"raw"#; let c = c"cstr"; let d = b'x';"##;
        assert_eq!(
            idents(src),
            ["let", "a", "let", "b", "let", "c", "let", "d"]
        );
    }

    #[test]
    fn raw_identifier_lookalike_is_an_ident() {
        // `r` followed by something that is not a string is an ident.
        let src = "let r = 1; r + 2";
        assert_eq!(idents(src), ["let", "r", "r"]);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let src = "for i in 0..n { let x = 1.5e-3; let y = 0xff; }";
        let ids = idents(src);
        assert!(ids.contains(&"n".to_owned()));
        // `e` and `ff` must not appear as stray identifiers.
        assert!(!ids.contains(&"e".to_owned()));
        assert!(!ids.contains(&"ff".to_owned()));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let lexed = lex(src);
        let b = lexed
            .tokens
            .iter()
            .find(|t| t.ident() == Some("b"))
            .expect("b token");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn punct_positions_expose_adjacency() {
        let lexed = lex("a->b - >c");
        let puncts: Vec<(char, usize)> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Punct(c) => Some((c, t.pos)),
                _ => None,
            })
            .collect();
        // `->` is adjacent; `- >` is not.
        assert_eq!(puncts[0].0, '-');
        assert_eq!(puncts[1].0, '>');
        assert_eq!(puncts[1].1, puncts[0].1 + 1);
        assert!(puncts[3].1 > puncts[2].1 + 1);
    }
}
