//! The repo-invariant lints.
//!
//! Every lint works on the token stream from [`crate::lex`], so comments
//! and string literals can never trigger a false positive. Each lint has
//! an inline escape hatch: a comment containing
//! `ata-lint: allow(<lint-name>)` on the diagnostic's line or the line
//! directly above suppresses it (a trailing `: reason` is encouraged).
//! Unknown lint names inside an `allow(..)` are themselves diagnosed, so
//! a typo cannot silently disable a lint.
//!
//! Path scoping (all paths are `/`-separated and relative to the
//! workspace root):
//!
//! - `safety-comment`, `unsafe-allowlist`: every file.
//! - `no-raw-spawn`: every file except `tests/`, `benches/`,
//!   `examples/` trees and `#[cfg(test)]` spans.
//! - `lock-across-blocking`: only `src/shard.rs`, `src/stream.rs` (the
//!   serving layer's lock-and-channel discipline).
//! - `no-unwrap-in-lib`: the facade `src/`, `crates/dist/src/`,
//!   `crates/kernels/src/`, `crates/linalg/src/`; `#[cfg(test)]` spans
//!   are exempt.

use crate::lex::{lex, Lexed, Tok, TokKind};

/// One lint finding at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name (one of [`LINT_NAMES`], or `unknown-allow`).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// All lint names recognised by `ata-lint: allow(..)`.
pub const LINT_NAMES: [&str; 5] = [
    "safety-comment",
    "unsafe-allowlist",
    "no-raw-spawn",
    "lock-across-blocking",
    "no-unwrap-in-lib",
];

/// Files in which `unsafe` is permitted (plus anything under
/// `third_party/`, which the workspace walker skips entirely).
pub const UNSAFE_ALLOWLIST: [&str; 4] = [
    "crates/mat/src/view.rs",
    "crates/core/src/parallel.rs",
    "crates/kernels/src/simd/mod.rs",
    "crates/kernels/src/simd/x86.rs",
];

/// Files the `lock-across-blocking` heuristic applies to.
const LOCK_SCOPED: [&str; 2] = ["src/shard.rs", "src/stream.rs"];

/// Method names treated as blocking channel operations.
const BLOCKING_CALLS: [&str; 4] = ["send", "recv", "recv_timeout", "wait"];

/// Lint one source file. `rel_path` must be workspace-relative with
/// `/` separators — path scoping and the unsafe allowlist key off it.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let lx = lex(src);
    let ctx = FileCtx::new(rel_path, &lx);
    let mut out = Vec::new();
    ctx.unknown_allows(&mut out);
    ctx.safety_comment(&mut out);
    ctx.unsafe_allowlist(&mut out);
    ctx.no_raw_spawn(&mut out);
    ctx.lock_across_blocking(&mut out);
    ctx.no_unwrap_in_lib(&mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Per-file lint state: the lexed stream plus derived line tables.
struct FileCtx<'a> {
    path: &'a str,
    lx: &'a Lexed,
    /// `#[cfg(test)]` item spans as inclusive 1-based line ranges.
    test_spans: Vec<(usize, usize)>,
    /// First token index on each 1-based line, if any.
    first_tok_on_line: Vec<Option<usize>>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, lx: &'a Lexed) -> Self {
        let mut first_tok_on_line = vec![None; lx.n_lines + 2];
        for (i, t) in lx.toks.iter().enumerate() {
            if t.line < first_tok_on_line.len() && first_tok_on_line[t.line].is_none() {
                first_tok_on_line[t.line] = Some(i);
            }
        }
        FileCtx {
            path,
            lx,
            test_spans: test_spans(lx),
            first_tok_on_line,
        }
    }

    fn toks(&self) -> &[Tok] {
        &self.lx.toks
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Whole-file exemptions for test/bench/example trees.
    fn test_tree(&self) -> bool {
        self.path
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "build.rs")
    }

    /// Is the diagnostic at `line` suppressed by an
    /// `ata-lint: allow(<name>)` comment on that line or anywhere in
    /// the contiguous comment block directly above it (so the reason
    /// may wrap over several comment lines)?
    fn allowed(&self, line: usize, name: &str) -> bool {
        let needle = format!("ata-lint: allow({name})");
        if self.lx.comment_on_line_contains(line, &needle) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if !self.lx.comment_covers_line(l) || self.lx.has_code(l) {
                return false;
            }
            if self.lx.comment_on_line_contains(l, &needle) {
                return true;
            }
        }
        false
    }

    fn emit(&self, out: &mut Vec<Diagnostic>, line: usize, lint: &'static str, msg: String) {
        if !self.allowed(line, lint) {
            out.push(Diagnostic {
                path: self.path.to_string(),
                line,
                lint,
                message: msg,
            });
        }
    }

    /// Diagnose `ata-lint: allow(..)` comments naming unknown lints.
    fn unknown_allows(&self, out: &mut Vec<Diagnostic>) {
        for c in &self.lx.comments {
            let mut rest = c.text.as_str();
            while let Some(pos) = rest.find("ata-lint: allow(") {
                rest = &rest[pos + "ata-lint: allow(".len()..];
                let name = rest.split(')').next().unwrap_or("");
                // Only lint-name-shaped text is a candidate: doc prose
                // placeholders like `<lint>` or `..` are not typos.
                let name_shaped =
                    !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '-');
                if name_shaped && !LINT_NAMES.contains(&name) {
                    out.push(Diagnostic {
                        path: self.path.to_string(),
                        line: c.start_line,
                        lint: "unknown-allow",
                        message: format!(
                            "unknown lint `{name}` in allow (known: {})",
                            LINT_NAMES.join(", ")
                        ),
                    });
                }
            }
        }
    }

    /// Lint 1: every `unsafe` must have an adjacent `// SAFETY:` comment
    /// (or a `/// # Safety` doc section for `unsafe fn` declarations).
    fn safety_comment(&self, out: &mut Vec<Diagnostic>) {
        for t in self.toks() {
            if !t.is_ident("unsafe") {
                continue;
            }
            if !self.has_safety_comment(t.line) {
                self.emit(
                    out,
                    t.line,
                    "safety-comment",
                    "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                );
            }
        }
    }

    fn has_safety_comment(&self, line: usize) -> bool {
        let hit = |l: usize| {
            self.lx.comment_on_line_contains(l, "SAFETY:")
                || self.lx.comment_on_line_contains(l, "# Safety")
        };
        if hit(line) {
            return true; // trailing comment on the same line
        }
        // Walk up through the contiguous comment/attribute block above.
        let mut l = line;
        while l > 1 {
            l -= 1;
            if hit(l) {
                return true;
            }
            let comment_only = self.lx.comment_covers_line(l) && !self.lx.has_code(l);
            let attr_line =
                self.first_tok_on_line[l].is_some_and(|i| self.lx.toks[i].is_punct("#"));
            if !(comment_only || attr_line) {
                return false;
            }
        }
        false
    }

    /// Lint 2: `unsafe` only in the allowlisted files.
    fn unsafe_allowlist(&self, out: &mut Vec<Diagnostic>) {
        if UNSAFE_ALLOWLIST.contains(&self.path) {
            return;
        }
        for t in self.toks() {
            if t.is_ident("unsafe") {
                self.emit(
                    out,
                    t.line,
                    "unsafe-allowlist",
                    format!(
                        "`unsafe` outside the allowlist ({})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                );
            }
        }
    }

    /// Lint 3: no raw thread spawns — parallelism must go through the
    /// vendored pool so `Tracked` op counting observes it.
    fn no_raw_spawn(&self, out: &mut Vec<Diagnostic>) {
        if self.test_tree() {
            return;
        }
        let t = self.toks();
        for i in 0..t.len() {
            if !t[i].is_ident("spawn") || self.in_test(t[i].line) {
                continue;
            }
            let method_call =
                i > 0 && t[i - 1].is_punct(".") && t.get(i + 1).is_some_and(|n| n.is_punct("("));
            let path_call = i >= 2 && t[i - 1].is_punct("::") && t[i - 2].is_ident("thread");
            if method_call || path_call {
                self.emit(
                    out,
                    t[i].line,
                    "no-raw-spawn",
                    "raw thread spawn outside the vendored pool (invisible to Tracked op counting)"
                        .to_string(),
                );
            }
        }
    }

    /// Lint 4: a lock guard binding that is still live across a blocking
    /// channel call in the serving layer — a deadlock heuristic.
    ///
    /// Only simple `let [mut] name = ...` bindings whose initialiser
    /// calls `.lock()` / `.read()` / `.write()` are tracked; statements
    /// that immediately `.clone()` or `into_inner()` the guarded value
    /// are skipped (the guard is a temporary). Tracking ends at an
    /// explicit `drop(name)` or the end of the enclosing block.
    fn lock_across_blocking(&self, out: &mut Vec<Diagnostic>) {
        if !LOCK_SCOPED.contains(&self.path) {
            return;
        }
        let t = self.toks();
        for i in 0..t.len() {
            if !t[i].is_ident("let") || self.in_test(t[i].line) {
                continue;
            }
            // Simple binding only: `let name =` / `let mut name =` (or
            // with a type ascription). Pattern bindings never hold the
            // guard itself here.
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = t.get(j) else { continue };
            if name_tok.kind != TokKind::Ident
                || !t
                    .get(j + 1)
                    .is_some_and(|x| x.is_punct("=") || x.is_punct(":"))
            {
                continue;
            }
            let name = name_tok.text.clone();
            let Some(stmt_end) = stmt_end(t, i) else {
                continue;
            };
            let stmt = &t[i..stmt_end];
            if !acquires_guard(stmt) || guard_is_temporary(stmt) {
                continue;
            }
            let block_end = block_end(t, stmt_end);
            let mut k = stmt_end;
            while k < block_end {
                // `drop(name)` releases the guard early.
                if t[k].is_ident("drop")
                    && t.get(k + 1).is_some_and(|x| x.is_punct("("))
                    && t.get(k + 2).is_some_and(|x| x.is_ident(&name))
                {
                    break;
                }
                let blocking = t[k].kind == TokKind::Ident
                    && BLOCKING_CALLS.contains(&t[k].text.as_str())
                    && k > 0
                    && t[k - 1].is_punct(".")
                    && t.get(k + 1).is_some_and(|x| x.is_punct("("));
                if blocking {
                    self.emit(
                        out,
                        t[k].line,
                        "lock-across-blocking",
                        format!(
                            "lock guard `{name}` (taken on line {}) still live across blocking `.{}()`",
                            name_tok.line, t[k].text
                        ),
                    );
                    break;
                }
                k += 1;
            }
        }
    }

    /// Lint 5: no `.unwrap()` / `.expect(..)` in library serving paths.
    fn no_unwrap_in_lib(&self, out: &mut Vec<Diagnostic>) {
        let scoped = self.path.starts_with("src/")
            || self.path.starts_with("crates/dist/src/")
            || self.path.starts_with("crates/kernels/src/")
            || self.path.starts_with("crates/linalg/src/");
        if !scoped || self.test_tree() {
            return;
        }
        let t = self.toks();
        for i in 0..t.len() {
            let is_hit = (t[i].is_ident("unwrap") || t[i].is_ident("expect"))
                && i > 0
                && t[i - 1].is_punct(".")
                && t.get(i + 1).is_some_and(|n| n.is_punct("("));
            if is_hit && !self.in_test(t[i].line) {
                self.emit(
                    out,
                    t[i].line,
                    "no-unwrap-in-lib",
                    format!(
                        "`.{}()` in a library serving path — return an error or allow with a documented invariant",
                        t[i].text
                    ),
                );
            }
        }
    }
}

/// Inclusive line spans of `#[cfg(test)]` items (attribute line through
/// the item's closing `}` or `;`).
fn test_spans(lx: &Lexed) -> Vec<(usize, usize)> {
    let t = &lx.toks;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if !(t[i].is_punct("#") && t.get(i + 1).is_some_and(|x| x.is_punct("["))) {
            i += 1;
            continue;
        }
        let attr_line = t[i].line;
        let (has_cfg, has_test, has_not, after) = attr_flags(t, i + 1);
        if has_cfg && has_test && !has_not {
            if let Some((end_line, next)) = item_extent(t, after) {
                spans.push((attr_line, end_line));
                i = next;
                continue;
            }
        }
        i = after;
    }
    spans
}

/// Scan a balanced `[ ... ]` attribute group starting at the `[`;
/// returns (`cfg` seen, `test` seen, `not` seen, index after `]`).
pub(crate) fn attr_flags(t: &[Tok], open: usize) -> (bool, bool, bool, usize) {
    let (mut cfg, mut test, mut not) = (false, false, false);
    let mut depth = 0usize;
    let mut j = open;
    while j < t.len() {
        if t[j].is_punct("[") {
            depth += 1;
        } else if t[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (cfg, test, not, j + 1);
            }
        } else if t[j].kind == TokKind::Ident {
            cfg |= t[j].text == "cfg";
            test |= t[j].text == "test";
            not |= t[j].text == "not";
        }
        j += 1;
    }
    (cfg, test, not, j)
}

/// Extent of the item starting at `k` (after its attribute): the line
/// of the `;` ending it, or of the `}` matching its first top-level
/// `{`. Leading further attributes are skipped. Returns
/// `(end_line, index_after_item)`.
fn item_extent(t: &[Tok], mut k: usize) -> Option<(usize, usize)> {
    while t.get(k).is_some_and(|x| x.is_punct("#")) && t.get(k + 1).is_some_and(|x| x.is_punct("["))
    {
        let (_, _, _, after) = attr_flags(t, k + 1);
        k = after;
    }
    let mut depth = 0i32;
    let mut body_open = false;
    while k < t.len() {
        let tok = &t[k];
        if depth == 0 && tok.is_punct(";") {
            return Some((tok.line, k + 1));
        }
        if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
            if depth == 0 && tok.is_punct("{") {
                body_open = true;
            }
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
            depth -= 1;
            if depth == 0 && tok.is_punct("}") && body_open {
                return Some((tok.line, k + 1));
            }
        }
        k += 1;
    }
    None
}

/// Index one past the `;` ending the statement that starts at `start`.
fn stmt_end(t: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = start;
    while k < t.len() {
        let tok = &t[k];
        if depth == 0 && tok.is_punct(";") {
            return Some(k + 1);
        }
        if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return None; // ran off the enclosing block
            }
        }
        k += 1;
    }
    None
}

/// Index of the token closing the block that encloses position `k`.
fn block_end(t: &[Tok], mut k: usize) -> usize {
    let mut depth = 0i32;
    while k < t.len() {
        let tok = &t[k];
        if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        }
        k += 1;
    }
    k
}

/// Does the statement call `.lock()`, `.read()` or `.write()`?
fn acquires_guard(stmt: &[Tok]) -> bool {
    stmt.iter().enumerate().any(|(i, tok)| {
        (tok.is_ident("lock") || tok.is_ident("read") || tok.is_ident("write"))
            && i > 0
            && stmt[i - 1].is_punct(".")
            && stmt.get(i + 1).is_some_and(|n| n.is_punct("("))
    })
}

/// The guard never escapes into the binding: the statement clones the
/// protected value out or consumes the lock with `into_inner`.
fn guard_is_temporary(stmt: &[Tok]) -> bool {
    stmt.iter()
        .any(|tok| tok.is_ident("clone") || tok.is_ident("into_inner"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn safety_comment_fires_and_is_satisfied() {
        let bad = "pub fn f() { unsafe { g() } }\n";
        let d = lint_file("crates/mat/src/view.rs", bad);
        assert_eq!(lints_of(&d), vec!["safety-comment"]);
        assert_eq!(d[0].line, 1);

        let good = "// SAFETY: g has no requirements.\npub fn f() { unsafe { g() } }\n";
        assert!(lint_file("crates/mat/src/view.rs", good).is_empty());
    }

    #[test]
    fn safety_comment_walks_over_attributes_and_doc_blocks() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller upholds X.\n#[inline]\npub unsafe fn f() {}\n";
        assert!(lint_file("crates/mat/src/view.rs", src).is_empty());
    }

    #[test]
    fn unsafe_allowlist_scopes_by_path() {
        let src = "// SAFETY: fine.\npub fn f() { unsafe { g() } }\n";
        assert!(lint_file("crates/mat/src/view.rs", src).is_empty());
        let d = lint_file("crates/linalg/src/lib.rs", src);
        assert_eq!(lints_of(&d), vec!["unsafe-allowlist"]);
    }

    #[test]
    fn raw_spawn_flagged_outside_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let d = lint_file("crates/core/src/lib.rs", src);
        assert_eq!(lints_of(&d), vec!["no-raw-spawn"]);

        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_file("crates/core/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn builder_spawn_is_a_method_call_hit() {
        let src = "fn f() { std::thread::Builder::new().spawn(|| {}); }\n";
        let d = lint_file("src/shard.rs", src);
        assert!(lints_of(&d).contains(&"no-raw-spawn"));
    }

    #[test]
    fn lock_across_blocking_guard_vs_clone() {
        let bad = "fn f() {\n    let guard = q.lock().unwrap();\n    tx.send(1).ok();\n}\n";
        let d = lint_file("src/shard.rs", bad);
        assert!(lints_of(&d).contains(&"lock-across-blocking"));

        let cloned =
            "fn f() {\n    let tx2 = q.lock().unwrap().clone();\n    tx2.send(1).ok();\n}\n";
        let d = lint_file("src/shard.rs", cloned);
        assert!(!lints_of(&d).contains(&"lock-across-blocking"));

        let dropped = "fn f() {\n    let guard = q.lock().unwrap();\n    drop(guard);\n    tx.send(1).ok();\n}\n";
        let d = lint_file("src/shard.rs", dropped);
        assert!(!lints_of(&d).contains(&"lock-across-blocking"));
    }

    #[test]
    fn unwrap_scoping_and_allow() {
        let src = "pub fn f() { x.unwrap(); }\n";
        assert_eq!(
            lints_of(&lint_file("src/context.rs", src)),
            vec!["no-unwrap-in-lib"]
        );
        // CLI and unscoped crates are exempt.
        assert!(lint_file("crates/cli/src/main.rs", src).is_empty());
        assert!(lint_file("crates/mat/src/layout.rs", src).is_empty());

        let allowed =
            "pub fn f() { x.unwrap(); } // ata-lint: allow(no-unwrap-in-lib): test of allow\n";
        assert!(lint_file("src/context.rs", allowed).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "pub fn f() { x.unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
        assert!(lint_file("src/context.rs", src).is_empty());
    }

    #[test]
    fn unknown_allow_is_diagnosed() {
        let src = "pub fn f() {} // ata-lint: allow(no-such-lint)\n";
        let d = lint_file("crates/field/src/lib.rs", src);
        assert_eq!(lints_of(&d), vec!["unknown-allow"]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\npub fn f() { x.unwrap(); }\n";
        assert_eq!(
            lints_of(&lint_file("src/context.rs", src)),
            vec!["no-unwrap-in-lib"]
        );
    }
}
