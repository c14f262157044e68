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
//!   `examples/`, `perfbench/`, or the crate's own `src/main.rs`,
//!   `src/bin/`, `tests/`, `benches/` and `examples/`, each a separate
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
    for (_, lib, lx) in &lexed {
        for t in lx.toks.iter().filter(|t| t.kind == TokKind::Ident) {
            users.entry(&t.text).or_default().insert(*lib);
        }
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
