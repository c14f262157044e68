//! A minimal Rust lexer: just enough structure for repo lints.
//!
//! The workspace builds fully offline, so `syn` is not available; the
//! lints only need token-level structure anyway. The lexer splits a
//! source file into [`Tok`]s (identifiers, punctuation, string/char
//! literals, lifetimes, numbers) with 1-based line numbers, collects
//! comments into a side table (they never appear in the token stream),
//! and records which lines carry code — the substrate for the
//! `// SAFETY:` adjacency check and the `// ata-lint: allow(..)`
//! escape hatch.
//!
//! Deliberately *not* handled: macros are lexed like any other tokens
//! (their bodies are token trees to rustc too), and exotic literals
//! (raw identifiers, C string literals) degrade to ordinary tokens
//! rather than failing.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`unsafe`, `fn`, `spawn`, ...).
    Ident,
    /// Punctuation; multi-character operators `::`, `->`, `=>` and `..`
    /// are fused into one token, everything else is a single character.
    Punct,
    /// String, raw-string, byte-string or char literal (content kept
    /// verbatim, including quotes).
    Str,
    /// A lifetime such as `'a` (text includes the leading `'`).
    Lifetime,
    /// A numeric literal.
    Num,
}

/// One token with its 1-based starting line.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    /// Lexeme kind.
    pub kind: TokKind,
    /// Verbatim text of the lexeme.
    pub text: String,
    /// 1-based line the lexeme starts on.
    pub line: usize,
}

impl Tok {
    /// True if this token is the identifier/keyword `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment (line or block), with the lines it spans.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// 1-based line the comment starts on.
    pub start_line: usize,
    /// 1-based line the comment ends on (same as `start_line` for `//`).
    pub end_line: usize,
    /// Comment text without the `//` / `/* */` markers.
    pub text: String,
}

impl Comment {
    /// Whether the comment covers 1-based line `l`.
    pub(crate) fn covers(&self, l: usize) -> bool {
        self.start_line <= l && l <= self.end_line
    }
}

/// A lexed source file: the token stream plus the comment side table.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// All code tokens in source order.
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
    /// `code_lines[l]` is true when 1-based line `l` carries any code
    /// token (index 0 is unused).
    pub code_lines: Vec<bool>,
    /// Number of lines in the file.
    pub n_lines: usize,
}

impl Lexed {
    /// True if 1-based line `l` has a code token on it.
    pub(crate) fn has_code(&self, l: usize) -> bool {
        self.code_lines.get(l).copied().unwrap_or(false)
    }

    /// True if any comment covering line `l` contains `needle`.
    pub(crate) fn comment_on_line_contains(&self, l: usize, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.covers(l) && c.text.contains(needle))
    }

    /// True if line `l` is covered by some comment (of any content).
    pub(crate) fn comment_covers_line(&self, l: usize) -> bool {
        self.comments.iter().any(|c| c.covers(l))
    }
}

/// Lex `src` into tokens and comments.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied();
        if let Some(c) = c {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: usize) {
        self.mark_code(line);
        self.mark_code(self.line);
        self.out.toks.push(Tok { kind, text, line });
    }

    fn mark_code(&mut self, line: usize) {
        if self.out.code_lines.len() <= line {
            self.out.code_lines.resize(line + 1, false);
        }
        self.out.code_lines[line] = true;
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string('"'),
                '\'' => self.char_or_lifetime(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out.n_lines = self.line;
        let n = self.line + 1;
        if self.out.code_lines.len() < n {
            self.out.code_lines.resize(n, false);
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        self.bump();
        self.bump(); // consume `//`
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: start,
            text,
        });
    }

    fn block_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            start_line: start,
            end_line: self.line,
            text,
        });
    }

    /// Ordinary, raw, byte and raw-byte strings. `open` is `"`.
    fn string(&mut self, open: char) {
        let start = self.line;
        let mut text = String::new();
        text.push(open);
        self.bump();
        while let Some(c) = self.peek(0) {
            text.push(c);
            self.bump();
            if c == '\\' {
                if let Some(esc) = self.peek(0) {
                    text.push(esc);
                    self.bump();
                }
            } else if c == open {
                break;
            }
        }
        self.push_tok(TokKind::Str, text, start);
    }

    /// Raw string after an `r`/`br` prefix: `r#"..."#` with any number
    /// of `#`s (including zero).
    fn raw_string(&mut self, mut text: String) {
        let start = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // the opening quote
        let closer: String = std::iter::once('"')
            .chain(std::iter::repeat_n('#', hashes))
            .collect();
        let mut tail = String::new();
        while let Some(c) = self.peek(0) {
            tail.push(c);
            self.bump();
            if tail.ends_with(&closer) {
                break;
            }
        }
        text.push_str(&tail);
        self.push_tok(TokKind::Str, text, start);
    }

    /// Distinguish `'a` (lifetime) from `'x'` / `'\n'` (char literal):
    /// after the quote, an identifier-ish char not followed by a
    /// closing quote is a lifetime.
    fn char_or_lifetime(&mut self) {
        let start = self.line;
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_lifetime = match (c1, c2) {
            (Some(a), Some(b)) => (a.is_alphabetic() || a == '_') && b != '\'',
            (Some(a), None) => a.is_alphabetic() || a == '_',
            _ => false,
        };
        if is_lifetime {
            let mut text = String::from("'");
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_tok(TokKind::Lifetime, text, start);
        } else {
            // Char literal: consume to the closing quote, honoring `\`.
            let mut text = String::from("'");
            self.bump();
            while let Some(c) = self.peek(0) {
                text.push(c);
                self.bump();
                if c == '\\' {
                    if let Some(esc) = self.peek(0) {
                        text.push(esc);
                        self.bump();
                    }
                } else if c == '\'' {
                    break;
                }
            }
            self.push_tok(TokKind::Str, text, start);
        }
    }

    fn ident(&mut self) {
        let start = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // String-literal prefixes: r"..", r#"..", b"..", br#"..".
        let next = self.peek(0);
        match (text.as_str(), next) {
            ("r" | "b" | "br" | "rb", Some('"')) => {
                if text.starts_with('r') || text.ends_with('r') {
                    self.raw_string(text);
                } else {
                    // b"..": an ordinary escaped string with a prefix.
                    let mut s = text;
                    s.push('"');
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        s.push(c);
                        self.bump();
                        if c == '\\' {
                            if let Some(esc) = self.peek(0) {
                                s.push(esc);
                                self.bump();
                            }
                        } else if c == '"' {
                            break;
                        }
                    }
                    self.push_tok(TokKind::Str, s, start);
                }
            }
            ("r" | "br" | "rb", Some('#')) if self.raw_string_ahead() => {
                self.raw_string(text);
            }
            _ => self.push_tok(TokKind::Ident, text, start),
        }
    }

    /// After an `r`/`br` prefix sitting before `#`s: is this a raw
    /// string (`r##"`), as opposed to a raw identifier (`r#ident`)?
    fn raw_string_ahead(&self) -> bool {
        let mut k = 0usize;
        while self.peek(k) == Some('#') {
            k += 1;
        }
        k > 0 && self.peek(k) == Some('"')
    }

    fn number(&mut self) {
        let start = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !text.contains('.')
            {
                // `1.5` but not the range `0..7`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Num, text, start);
    }

    fn punct(&mut self) {
        let start = self.line;
        let c = self.bump().unwrap_or(' ');
        let fused = match (c, self.peek(0)) {
            (':', Some(':')) => Some("::"),
            ('-', Some('>')) => Some("->"),
            ('=', Some('>')) => Some("=>"),
            ('.', Some('.')) => Some(".."),
            _ => None,
        };
        let text = match fused {
            Some(t) => {
                self.bump();
                t.to_string()
            }
            None => c.to_string(),
        };
        self.push_tok(TokKind::Punct, text, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_do_not_produce_tokens() {
        let lx = lex("// unsafe in a comment\nfn f() {} /* unsafe too */\n");
        assert!(lx.toks.iter().all(|t| !t.is_ident("unsafe")));
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("unsafe in a comment"));
    }

    #[test]
    fn strings_are_single_tokens() {
        let src = "let s = \"unsafe { }\"; let r = r#\"also unsafe\"#;";
        let lx = lex(src);
        assert!(lx.toks.iter().all(|t| !t.is_ident("unsafe")));
        assert_eq!(lx.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lx = lex("fn f<'a>(x: &'a u8) -> char { 'x' }");
        let lifetimes: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        assert_eq!(
            lx.toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "'x' is a char literal"
        );
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let lx = lex("fn a() {}\n\nfn b() {}\n");
        let b_line = lx
            .toks
            .iter()
            .find(|t| t.is_ident("b"))
            .map(|t| t.line)
            .unwrap_or(0);
        assert_eq!(b_line, 3);
        assert!(lx.has_code(1));
        assert!(!lx.has_code(2));
        assert!(lx.has_code(3));
    }

    #[test]
    fn fused_puncts() {
        let lx = lex("a::b -> c => d .. e");
        let puncts: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(puncts, vec!["::", "->", "=>", ".."]);
    }

    #[test]
    fn underscored_identifiers_are_not_keywords() {
        assert_eq!(
            idents("deny(unsafe_op_in_unsafe_fn) forbid(unsafe_code)"),
            vec!["deny", "unsafe_op_in_unsafe_fn", "forbid", "unsafe_code"]
        );
    }

    #[test]
    fn multi_line_block_comment_covers_lines() {
        let lx = lex("/* SAFETY:\n   spans lines */\nlet x = 1;");
        assert!(lx.comment_on_line_contains(1, "SAFETY"));
        assert!(lx.comment_covers_line(2));
        assert!(lx.has_code(3));
    }
}
