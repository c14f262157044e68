//! The `unused-pub` lint. Unlike the per-file lints in [`crate::lints`]
//! it reads the whole tree, since whether a library's `pub` item is
//! used depends on every other source file.
//!
//! A `pub` fn, method, struct, enum, trait, const, static or type alias
//! in the library sources of a crate under `crates/` is a finding at
//! its line unless
//!
//! - (a) its name is an identifier somewhere outside that crate's
//!   library sources: another crate, the facade, root `tests/` and
//!   `examples/`, `perfbench/`, the crate's own `src/main.rs`,
//!   `src/bin/`, `tests/`, `benches/` and `examples/`, or any doctest
//!   (a fenced block in a `///` or `//!` comment with no info string or
//!   only `rust`, `no_run` and `should_panic`), each a separate
//!   compilation unit;
//! - (b) its name is an identifier in the signature of another kept
//!   entry of the same crate, because rustc's `private_interfaces`
//!   check rejects narrowing a type that a public signature names. An
//!   entry is kept while neither it nor its owning type is a finding,
//!   so the rule runs to a fixpoint; or
//! - (c) it carries `// ata-lint: allow(unused-pub): <reason>`.
//!
//! Variants, fields, trait members, impls, `pub use` and `pub mod` are
//! never findings, nor is anything the API extractor skips
//! (`#[cfg(test)]` and `#[doc(hidden)]` items). The facade (the root
//! package) is exempt: its entries are the product surface.

use crate::api::{self, Item};
use crate::lex::{lex, Lexed, TokKind};
use crate::lints::{allowed, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};

/// The crate directory under `crates/` whose library sources hold
/// `rel`, if any; `libs` lists the directories with a `src/lib.rs`.
fn library_of<'a>(rel: &'a str, libs: &BTreeSet<&str>) -> Option<&'a str> {
    let (dir, in_crate) = rel.strip_prefix("crates/")?.split_once('/')?;
    let in_src = in_crate.strip_prefix("src/")?;
    (libs.contains(dir) && !api::is_bin_source(in_src)).then_some(dir)
}

/// Identifiers in the doctests of `lx`'s `///` and `//!` comments.
/// Rustdoc compiles each such block as a crate of its own, so a name in
/// one is an outside use; `text` and `ignore` blocks are never compiled.
fn doctest_idents(lx: &Lexed) -> Vec<String> {
    let mut out = Vec::new();
    // `Some(compiled)` inside a fence, with the code gathered so far.
    let (mut fence, mut code, mut last_line) = (None::<bool>, String::new(), 0);
    for c in &lx.comments {
        // One-line `///` (but not `////`) or `//!` comments.
        let doc = (c.start_line == c.end_line)
            .then_some(&c.text)
            .and_then(|t| {
                let outer = t.strip_prefix('/').filter(|t| !t.starts_with('/'));
                outer.or_else(|| t.strip_prefix('!'))
            });
        if doc.is_none() || c.start_line != last_line + 1 {
            fence = None;
            code.clear();
        }
        last_line = c.start_line;
        let Some(text) = doc else { continue };
        match (text.trim_start().strip_prefix("```"), fence) {
            (Some(_), Some(compiled)) => {
                if compiled {
                    let toks = lex(&code).toks.into_iter();
                    out.extend(toks.filter(|t| t.kind == TokKind::Ident).map(|t| t.text));
                }
                fence = None;
                code.clear();
            }
            (Some(info), None) => {
                fence =
                    Some(info.split([',', ' ']).all(|attr| {
                        matches!(attr.trim(), "" | "rust" | "no_run" | "should_panic")
                    }));
            }
            (None, Some(_)) => {
                code.push_str(text);
                code.push('\n');
            }
            (None, None) => {}
        }
    }
    out
}

/// Run `unused-pub` over the workspace's `(rel_path, source)` files.
pub(crate) fn unused_pub(files: &[(String, String)]) -> Vec<Diagnostic> {
    let libs: BTreeSet<&str> = files
        .iter()
        .filter_map(|(rel, _)| rel.strip_prefix("crates/")?.strip_suffix("/src/lib.rs"))
        .collect();
    // Each identifier's users: the libraries naming it, `None` for any
    // other file.
    let mut users: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    let lexed: Vec<(&str, Option<&str>, Lexed)> = files
        .iter()
        .map(|(rel, src)| (rel.as_str(), library_of(rel, &libs), lex(src)))
        .collect();
    let doctests: Vec<Vec<String>> = lexed.iter().map(|f| doctest_idents(&f.2)).collect();
    for (_, lib, lx) in &lexed {
        for t in lx.toks.iter().filter(|t| t.kind == TokKind::Ident) {
            users.entry(&t.text).or_default().insert(*lib);
        }
    }
    for name in doctests.iter().flatten() {
        users.entry(name.as_str()).or_default().insert(None);
    }
    let mut out = Vec::new();
    for &lib in &libs {
        let mut mine: Vec<(&str, &Lexed, Item)> = Vec::new();
        for (rel, _, lx) in lexed.iter().filter(|f| f.1 == Some(lib)) {
            let in_src = &rel[format!("crates/{lib}/src/").len()..];
            for item in api::items(&api::mod_path_of(in_src), lx) {
                mine.push((rel, lx, item));
            }
        }
        api::retain_public_members(&mut mine, |m| &m.2);
        let used_elsewhere = |name: &str| {
            users
                .get(name)
                .is_some_and(|u| u.iter().any(|&l| l != Some(lib)))
        };
        let mut flagged: Vec<bool> = mine
            .iter()
            .map(|(_, lx, it)| {
                it.name
                    .as_deref()
                    .is_some_and(|n| !used_elsewhere(n) && !allowed(lx, it.line, "unused-pub"))
            })
            .collect();
        loop {
            let dead: BTreeSet<&str> = mine
                .iter()
                .zip(&flagged)
                .filter(|(_, &f)| f)
                .filter_map(|((_, _, it), _)| it.name.as_deref())
                .collect();
            let kept: BTreeSet<&str> = mine
                .iter()
                .zip(&flagged)
                .filter(|((_, _, it), &f)| {
                    it.keeps && !f && !it.owner.as_deref().is_some_and(|o| dead.contains(o))
                })
                .flat_map(|((_, _, it), _)| it.idents.iter().map(String::as_str))
                .collect();
            let mut changed = false;
            for (f, (_, _, it)) in flagged.iter_mut().zip(&mine) {
                if *f && it.name.as_deref().is_some_and(|n| kept.contains(n)) {
                    *f = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for ((rel, _, it), _) in mine.iter().zip(&flagged).filter(|(_, &f)| f) {
            out.push(Diagnostic {
                path: rel.to_string(),
                line: it.line,
                lint: "unused-pub",
                message: format!(
                    "`{}` is named nowhere outside its crate's library sources: make it `pub(crate)` or delete it",
                    it.name.as_deref().unwrap_or_default()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctest_idents_read_only_the_fences_rustdoc_compiles() {
        let src = "//! ```\n//! in_bare();\n//! ```\n\
                   /// ```rust,no_run\n/// in_no_run();\n/// ```\n\
                   /// ```should_panic\n/// in_panic();\n/// ```\n\
                   /// ```ignore\n/// in_ignore();\n/// ```\n\
                   /// ```text\n/// in_text\n/// ```\n\
                   // ```\n// in_plain();\n// ```\n\
                   //// ```\n//// in_four_slashes();\n//// ```\n\
                   fn f() {}\n";
        assert_eq!(
            doctest_idents(&lex(src)),
            ["in_bare", "in_no_run", "in_panic"]
        );
    }
}
