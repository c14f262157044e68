//! Public-API signature extraction: the `ata-lint api` subsystem.
//!
//! Walks a crate's library sources (`src/` without the binary targets'
//! `main.rs` and `bin/`) and records every `pub` item signature
//! at token level — functions, structs (with their `pub` fields), enums
//! (with all variants), traits (with their items), impl blocks (trait
//! impl headers plus `pub fn` methods), type aliases, consts, statics,
//! modules and `pub use` re-exports. The rendered, sorted entries form
//! the committed `API/<crate>.txt` snapshots; `ata-lint api --verify`
//! fails on any diff, making accidental public-API changes loud.
//!
//! Scope notes: entries are recorded for `pub` items wherever they sit
//! (including inside private modules — the facade re-exports those via
//! `pub use`, so they are part of the surface); `pub(crate)` and
//! `pub(super)` are *not* public and are skipped, and so are the `pub`
//! methods of a type the crate does not declare `pub`; `#[cfg(test)]` and
//! `#[doc(hidden)]` items are skipped (`doc(hidden)` is the repo's
//! marker for unsupported escape hatches — test hooks like failure
//! injection stay out of the frozen surface, so using one in anger is
//! a deliberate act, not an API commitment). This over-approximates
//! strict reachability, which is
//! exactly what a tripwire wants: renames and signature changes show up
//! as diffs even when re-export wiring hides them from rustdoc.

use crate::lex::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;
use std::ops::Range;

/// One recorded public-API entry, with what the `unused-pub` lint needs
/// to judge it.
pub(crate) struct Item {
    /// The snapshot line: the rendered signature, prefixed by `[ctx]`
    /// (the module path, or the path of the type or trait whose body
    /// holds the entry) unless the entry sits at the crate root.
    pub(crate) entry: String,
    /// Identifiers of the signature.
    pub(crate) idents: Vec<String>,
    /// 1-based line the entry starts on.
    pub(crate) line: usize,
    /// The defined name of a fn, method, struct, enum, trait, const,
    /// static or type alias: the entries `unused-pub` checks.
    pub(crate) name: Option<String>,
    /// The type or trait whose body holds a method, field, variant or
    /// trait member: such an entry is public only while its owner is.
    pub(crate) owner: Option<String>,
    /// Whether the signature can keep a type public. Impl headers,
    /// `pub use`, `pub mod` and macros cannot.
    pub(crate) keeps: bool,
}

/// Extract the public-API entries of one lexed file. `mod_path` is the
/// file-derived module prefix (empty for `lib.rs`, `["a", "b"]` for
/// `src/a/b.rs`).
pub(crate) fn items(mod_path: &[String], lx: &Lexed) -> Vec<Item> {
    let mut out = Vec::new();
    let mut p = Parser {
        t: &lx.toks,
        out: &mut out,
    };
    let end = p.t.len();
    p.items(0, end, &mod_path.join("::"));
    out
}

/// Keep the member entries (methods, fields, variants, trait items) of
/// one crate's `items` only where the crate declares the owning type or
/// trait `pub`: the `pub fn`s of a `pub(crate)` or private type are not
/// public API. `item` reaches the entry inside each element. This needs
/// the whole crate, since an impl can sit in another file than its type.
pub(crate) fn retain_public_members<X>(items: &mut Vec<X>, item: impl Fn(&X) -> &Item) {
    let public: BTreeSet<String> = items
        .iter()
        .map(&item)
        .filter(|it| it.owner.is_none())
        .filter_map(|it| it.name.clone())
        .collect();
    items.retain(|x| item(x).owner.as_ref().is_none_or(|o| public.contains(o)));
}

/// Module path for a file under `src/`: `lib.rs` and `mod.rs` map to
/// their directory, `a/b.rs` to `a::b`.
pub(crate) fn mod_path_of(rel_in_src: &str) -> Vec<String> {
    let mut parts: Vec<&str> = rel_in_src.split('/').collect();
    let last = parts.pop().unwrap_or("");
    let stem = last.strip_suffix(".rs").unwrap_or(last);
    if !matches!(stem, "lib" | "mod") {
        parts.push(stem);
    }
    parts.iter().map(|s| s.to_string()).collect()
}

/// Whether a file under `src/` belongs to a binary target (`main.rs`
/// or anything under `bin/`), which no crate can import.
pub(crate) fn is_bin_source(rel_in_src: &str) -> bool {
    rel_in_src == "main.rs" || rel_in_src.starts_with("bin/")
}

struct Parser<'a> {
    t: &'a [Tok],
    out: &'a mut Vec<Item>,
}

impl Parser<'_> {
    /// Scan items in `t[i..end]` under module context `ctx`.
    fn items(&mut self, mut i: usize, end: usize, ctx: &str) {
        while i < end {
            // Attributes: note #[cfg(test)] / #[doc(hidden)], skip the
            // group either way.
            let mut skip = false;
            while self.at_attr(i) {
                skip |= self.attr_doc_hidden(i);
                let (cfg, test, not, after) = crate::lints::attr_flags(self.t, i + 1);
                skip |= cfg && test && !not;
                i = after;
                // An inner attribute (`#![..]`) is not attached to an item.
                if self.t.get(i).is_some_and(|x| x.is_punct("!")) {
                    i += 1;
                }
            }
            if i >= end {
                break;
            }
            if skip {
                i = self.skip_item(i, end);
                continue;
            }
            // Visibility: only a bare `pub` is public API. Signatures
            // are rendered from `start` so they keep the `pub` prefix.
            let start = i;
            let mut is_pub = false;
            if self.t[i].is_ident("pub") {
                if self.t.get(i + 1).is_some_and(|x| x.is_punct("(")) {
                    i = self.skip_group(i + 1, end, "(", ")");
                } else {
                    is_pub = true;
                    i += 1;
                }
            }
            if i >= end {
                break;
            }
            let j = self.keyword_at(i);
            let kw = self.t.get(j).map(|x| x.text.as_str()).unwrap_or("");
            match kw {
                "impl" => {
                    i = self.item_impl(start, end, ctx);
                }
                "mod" => {
                    i = self.item_mod(start, end, ctx, is_pub);
                }
                "trait" if is_pub => {
                    i = self.item_trait(start, end, ctx);
                }
                "struct" if is_pub => {
                    i = self.item_struct(start, end, ctx);
                }
                "enum" if is_pub => {
                    i = self.item_enum(start, end, ctx);
                }
                "fn" | "type" | "use" | "macro" if is_pub => {
                    let (stop, next) = self.sig_stop(start, end, false);
                    let name = matches!(kw, "fn" | "type").then(|| self.name_at(j + 1));
                    self.record(ctx, start..stop, name, None);
                    i = next;
                }
                "const" | "static" if is_pub => {
                    // Stop the signature at `=`: the value is not API.
                    let (stop, next) = self.sig_stop(start, end, true);
                    self.record(ctx, start..stop, Some(self.name_at(j + 1)), None);
                    i = next;
                }
                _ => {
                    i = self.skip_item(i, end);
                }
            }
        }
    }

    /// Record the entry spanning `span`. `name` is set for the items
    /// `unused-pub` checks, `owner` for the members of a type or trait.
    fn record(&mut self, ctx: &str, span: Range<usize>, name: Option<String>, owner: Option<&str>) {
        let toks = &self.t[span];
        let sig = render(toks);
        let keeps = name.is_some() || owner.is_some();
        self.out.push(Item {
            entry: if ctx.is_empty() {
                sig
            } else {
                format!("[{ctx}] {sig}")
            },
            idents: toks
                .iter()
                .filter(|x| x.kind == TokKind::Ident)
                .map(|x| x.text.clone())
                .collect(),
            line: toks.first().map_or(0, |x| x.line),
            name,
            owner: owner.map(str::to_string),
            keeps,
        });
    }

    /// Index of the item keyword at or after `j`, past the modifiers.
    /// `const` only counts as a modifier when another modifier or `fn`
    /// follows (a `const NAME: ..` item keeps `const` as its keyword).
    fn keyword_at(&self, mut j: usize) -> usize {
        while let Some(tok) = self.t.get(j) {
            let const_modifier = tok.is_ident("const")
                && self.t.get(j + 1).is_some_and(|x| {
                    ["fn", "unsafe", "async", "extern"]
                        .iter()
                        .any(|m| x.is_ident(m))
                });
            if tok.is_ident("unsafe") || tok.is_ident("async") || const_modifier {
                j += 1;
            } else if tok.is_ident("extern")
                && self.t.get(j + 1).is_some_and(|x| x.kind == TokKind::Str)
            {
                j += 2; // extern "C"
            } else {
                break;
            }
        }
        j
    }

    /// The name at `j`, right after an item keyword (past a `static`'s
    /// `mut`).
    fn name_at(&self, j: usize) -> String {
        let j = j + usize::from(self.t.get(j).is_some_and(|x| x.is_ident("mut")));
        self.t.get(j).map(|x| x.text.clone()).unwrap_or_default()
    }

    /// Whether the attribute whose `#` sits at `i` is `#[doc(hidden)]`
    /// (in any argument position, e.g. `#[doc(hidden, alias = "x")]`).
    fn attr_doc_hidden(&self, i: usize) -> bool {
        let mut j = i + 1;
        if self.t.get(j).is_some_and(|x| x.is_punct("!")) {
            j += 1;
        }
        if !self.t.get(j).is_some_and(|x| x.is_punct("[")) {
            return false;
        }
        let after = self.skip_group(j, self.t.len(), "[", "]");
        let inner = &self.t[j + 1..after.saturating_sub(1)];
        inner.first().is_some_and(|x| x.is_ident("doc"))
            && inner.iter().any(|x| x.is_ident("hidden"))
    }

    fn at_attr(&self, i: usize) -> bool {
        self.t.get(i).is_some_and(|x| x.is_punct("#"))
            && (self.t.get(i + 1).is_some_and(|x| x.is_punct("["))
                || (self.t.get(i + 1).is_some_and(|x| x.is_punct("!"))
                    && self.t.get(i + 2).is_some_and(|x| x.is_punct("["))))
    }

    /// Skip a balanced group whose opener is at or after `i`.
    fn skip_group(&self, mut i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        while i < end {
            if self.t[i].is_punct(open) {
                depth += 1;
            } else if self.t[i].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Skip one item: to a top-level `;` or through the body braces.
    fn skip_item(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut body = false;
        while i < end {
            let tok = &self.t[i];
            if depth == 0 && tok.is_punct(";") {
                return i + 1;
            }
            if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
                if depth == 0 && tok.is_punct("{") {
                    body = true;
                }
                depth += 1;
            } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
                depth -= 1;
                if depth <= 0 && tok.is_punct("}") && body {
                    return i + 1;
                }
                if depth < 0 {
                    return i; // closing brace of an enclosing block
                }
            }
            i += 1;
        }
        end
    }

    /// Find where the signature stops: a top-level `{`, `;`, or (when
    /// `at_eq`) `=`. Returns `(stop_index, index_after_item)`.
    fn sig_stop(&self, mut i: usize, end: usize, at_eq: bool) -> (usize, usize) {
        let mut depth = 0i32;
        while i < end {
            let tok = &self.t[i];
            if depth == 0 {
                if tok.is_punct(";") {
                    return (i, i + 1);
                }
                if tok.is_punct("{") {
                    return (i, self.skip_item(i, end));
                }
                if at_eq && tok.is_punct("=") {
                    return (i, self.skip_item(i, end));
                }
            }
            if tok.is_punct("(") || tok.is_punct("[") {
                depth += 1;
            } else if tok.is_punct(")") || tok.is_punct("]") {
                depth -= 1;
            }
            i += 1;
        }
        (end, end)
    }

    /// `impl` blocks: a trait impl's header is itself API; `pub fn`s in
    /// any impl are recorded under `ctx::<Target>`, owned by the target
    /// (dropped later unless the crate declares it `pub`; see
    /// [`retain_public_members`]).
    fn item_impl(&mut self, i: usize, end: usize, ctx: &str) -> usize {
        let (header_stop, _) = self.sig_stop(i, end, false);
        let header = render_generics_stripped(&self.t[i..header_stop]);
        if header.contains(" for ") {
            self.record(ctx, i..header_stop, None, None);
        }
        let Some(body) = self.body_range(header_stop, end) else {
            return self.skip_item(i, end);
        };
        // Context for methods: the Self type (after `for`, or after the
        // impl generics), with its own generics stripped for brevity.
        let target = match header.rfind(" for ") {
            Some(p) => header[p + 5..].to_string(),
            None => header.strip_prefix("impl ").unwrap_or(&header).to_string(),
        };
        let sub = if ctx.is_empty() {
            target.clone()
        } else {
            format!("{ctx}::{target}")
        };
        self.impl_body(body.0, body.1, &sub, &target);
        body.1 + 1
    }

    /// Methods inside an impl body: record `pub fn`/`pub const` items
    /// unless marked `#[doc(hidden)]`.
    fn impl_body(&mut self, mut i: usize, end: usize, ctx: &str, owner: &str) {
        while i < end {
            let mut hidden = false;
            while self.at_attr(i) {
                hidden |= self.attr_doc_hidden(i);
                let (_, _, _, after) = crate::lints::attr_flags(self.t, i + 1);
                i = after;
            }
            if i >= end {
                break;
            }
            if hidden {
                i = self.skip_item(i, end);
            } else if self.t[i].is_ident("pub") {
                if self.t.get(i + 1).is_some_and(|x| x.is_punct("(")) {
                    i = self.skip_group(i + 1, end, "(", ")");
                    i = self.skip_item(i, end);
                } else {
                    let (stop, next) = self.sig_stop(i, end, false);
                    let name = self.name_at(self.keyword_at(i + 1) + 1);
                    self.record(ctx, i..stop, Some(name), Some(owner));
                    i = next;
                }
            } else {
                i = self.skip_item(i, end);
            }
        }
    }

    /// `pub mod`: record the declaration; recurse into an inline body.
    /// Private inline mods are recursed into as well (their `pub` items
    /// surface through re-exports) but not recorded themselves.
    fn item_mod(&mut self, i: usize, end: usize, ctx: &str, is_pub: bool) -> usize {
        let (stop, _) = self.sig_stop(i, end, false);
        let name = self
            .t
            .get(stop.saturating_sub(1))
            .map(|x| x.text.clone())
            .unwrap_or_default();
        if is_pub {
            self.record(ctx, i..stop, None, None);
        }
        match self.body_range(stop, end) {
            Some((b0, b1)) => {
                let sub = if ctx.is_empty() {
                    name
                } else {
                    format!("{ctx}::{name}")
                };
                self.items(b0, b1, &sub);
                b1 + 1
            }
            None => self.skip_item(i, end),
        }
    }

    /// `pub trait`: the header plus every item in the body (trait items
    /// are public through the trait).
    fn item_trait(&mut self, i: usize, end: usize, ctx: &str) -> usize {
        let (stop, _) = self.sig_stop(i, end, false);
        let name = name_after(&self.t[i..stop], "trait");
        self.record(ctx, i..stop, Some(name.clone()), None);
        let Some((mut j, b1)) = self.body_range(stop, end) else {
            return self.skip_item(i, end);
        };
        let sub = if ctx.is_empty() {
            name.clone()
        } else {
            format!("{ctx}::{name}")
        };
        while j < b1 {
            let mut hidden = false;
            while self.at_attr(j) {
                hidden |= self.attr_doc_hidden(j);
                let (_, _, _, after) = crate::lints::attr_flags(self.t, j + 1);
                j = after;
            }
            if j >= b1 {
                break;
            }
            let (stop, next) = self.sig_stop(j, b1, false);
            if stop > j && !hidden {
                self.record(&sub, j..stop, None, Some(&name));
            }
            if next == j {
                break;
            }
            j = next;
        }
        b1 + 1
    }

    /// `pub struct`: the header, plus each `pub` field of a braced body
    /// (tuple structs keep their full field list in the header).
    fn item_struct(&mut self, i: usize, end: usize, ctx: &str) -> usize {
        let (stop, after_semi) = self.sig_stop(i, end, false);
        let name = name_after(&self.t[i..stop], "struct");
        self.record(ctx, i..stop, Some(name.clone()), None);
        // Tuple struct / unit struct: everything up to `;` is the header.
        if !self.t.get(stop).is_some_and(|x| x.is_punct("{")) {
            return after_semi;
        }
        let Some((mut j, b1)) = self.body_range(stop, end) else {
            return self.skip_item(i, end);
        };
        let sub = if ctx.is_empty() {
            name.clone()
        } else {
            format!("{ctx}::{name}")
        };
        while j < b1 {
            let mut hidden = false;
            while self.at_attr(j) {
                hidden |= self.attr_doc_hidden(j);
                let (_, _, _, after) = crate::lints::attr_flags(self.t, j + 1);
                j = after;
            }
            if j >= b1 {
                break;
            }
            if !hidden
                && self.t[j].is_ident("pub")
                && !self.t.get(j + 1).is_some_and(|x| x.is_punct("("))
            {
                let f0 = j;
                j = self.field_end(j, b1);
                self.record(&sub, f0..j, None, Some(&name));
            } else {
                j = self.field_end(j, b1);
            }
            if self.t.get(j).is_some_and(|x| x.is_punct(",")) {
                j += 1;
            }
        }
        b1 + 1
    }

    /// `pub enum`: the header plus every variant (variants are public).
    fn item_enum(&mut self, i: usize, end: usize, ctx: &str) -> usize {
        let (stop, _) = self.sig_stop(i, end, false);
        let name = name_after(&self.t[i..stop], "enum");
        self.record(ctx, i..stop, Some(name.clone()), None);
        let Some((mut j, b1)) = self.body_range(stop, end) else {
            return self.skip_item(i, end);
        };
        let sub = if ctx.is_empty() {
            name.clone()
        } else {
            format!("{ctx}::{name}")
        };
        while j < b1 {
            let mut hidden = false;
            while self.at_attr(j) {
                hidden |= self.attr_doc_hidden(j);
                let (_, _, _, after) = crate::lints::attr_flags(self.t, j + 1);
                j = after;
            }
            if j >= b1 {
                break;
            }
            let v0 = j;
            j = self.field_end(j, b1);
            if j > v0 && !hidden {
                self.record(&sub, v0..j, None, Some(&name));
            }
            if self.t.get(j).is_some_and(|x| x.is_punct(",")) {
                j += 1;
            }
        }
        b1 + 1
    }

    /// End of a struct field / enum variant: the next top-level `,`.
    fn field_end(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            let tok = &self.t[i];
            if depth == 0 && tok.is_punct(",") {
                return i;
            }
            if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") || tok.is_punct("<") {
                depth += 1;
            } else if tok.is_punct(")")
                || tok.is_punct("]")
                || tok.is_punct("}")
                || tok.is_punct(">")
            {
                depth -= 1;
            }
            i += 1;
        }
        end
    }

    /// The `{ .. }` body starting at `open` (which must be `{`):
    /// returns the (first-inner, one-past-last-inner) token range.
    fn body_range(&self, open: usize, end: usize) -> Option<(usize, usize)> {
        if !self.t.get(open).is_some_and(|x| x.is_punct("{")) {
            return None;
        }
        let after = self.skip_group(open, end, "{", "}");
        Some((open + 1, after - 1))
    }
}

fn name_after(toks: &[Tok], kw: &str) -> String {
    toks.iter()
        .position(|t| t.is_ident(kw))
        .and_then(|p| toks.get(p + 1))
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

/// Render an impl header with generic argument lists removed, used only
/// to derive the `for`-target context (`Mat<T>` → `Mat`).
fn render_generics_stripped(toks: &[Tok]) -> String {
    let mut depth = 0i32;
    let mut kept = Vec::new();
    for t in toks {
        if t.is_punct("<") {
            depth += 1;
            continue;
        }
        if t.is_punct(">") {
            depth -= 1;
            continue;
        }
        if depth == 0 {
            kept.push(t.clone());
        }
    }
    render(&kept)
}

/// Deterministically render tokens as one line of Rust-ish text.
fn render(toks: &[Tok]) -> String {
    let mut out = String::new();
    for (i, t) in toks.iter().enumerate() {
        let text = t.text.as_str();
        if !out.is_empty() && needs_space(toks, i) {
            out.push(' ');
        }
        out.push_str(text);
    }
    out
}

/// Spacing rules for [`render`]: tight around path/generic/grouping
/// punctuation, spaced elsewhere (`->`, `=`, `+`, keywords).
fn needs_space(toks: &[Tok], i: usize) -> bool {
    let cur = &toks[i];
    let prev = &toks[i - 1];
    const TIGHT_BEFORE: [&str; 9] = [",", ";", ":", "::", ")", "]", ">", "(", "<"];
    const TIGHT_AFTER: [&str; 7] = ["::", "(", "[", "<", "&", "#", "!"];
    if prev.kind == TokKind::Punct && TIGHT_AFTER.contains(&prev.text.as_str()) {
        return false;
    }
    if cur.kind == TokKind::Punct && TIGHT_BEFORE.contains(&cur.text.as_str()) {
        // `fn f (` would be odd, but `-> (` keeps its space; only
        // suppress the space after an identifier or closing bracket.
        if cur.text == "(" || cur.text == "<" {
            return !(prev.kind == TokKind::Ident
                || prev.kind == TokKind::Lifetime
                || prev.is_punct(")")
                || prev.is_punct("]")
                || prev.is_punct(">"));
        }
        return false;
    }
    if prev.is_punct("'") || cur.is_punct("'") {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(src: &str) -> Vec<String> {
        let mut e: Vec<String> = items(&[], &crate::lex::lex(src))
            .into_iter()
            .map(|it| it.entry)
            .collect();
        e.sort();
        e.dedup();
        e
    }

    #[test]
    fn fn_signature_without_body() {
        let e = entries("pub fn dot(a: &[f64], b: &[f64]) -> f64 { 0.0 }\n");
        assert_eq!(e, vec!["pub fn dot(a: &[f64], b: &[f64]) -> f64"]);
    }

    #[test]
    fn private_items_and_pub_crate_are_skipped() {
        let e = entries("fn hidden() {}\npub(crate) fn also_hidden() {}\n");
        assert!(e.is_empty());
    }

    #[test]
    fn struct_fields_and_enum_variants() {
        let e = entries(
            "pub struct P { pub x: usize, y: usize }\npub enum E { A, B(u8), C { n: usize } }\n",
        );
        assert!(e.contains(&"pub struct P".to_string()));
        assert!(e.contains(&"[P] pub x: usize".to_string()));
        assert!(!e.iter().any(|s| s.contains("y: usize")));
        assert!(e.contains(&"[E] A".to_string()));
        assert!(e.contains(&"[E] B(u8)".to_string()));
    }

    #[test]
    fn impl_methods_and_trait_impl_headers() {
        let src = "pub struct S;\nimpl S {\n    pub fn new() -> Self { S }\n    fn private(&self) {}\n}\nimpl Clone for S {\n    fn clone(&self) -> Self { S }\n}\n";
        let e = entries(src);
        assert!(e.contains(&"[S] pub fn new() -> Self".to_string()));
        assert!(e.contains(&"impl Clone for S".to_string()));
        assert!(!e.iter().any(|s| s.contains("private")));
    }

    #[test]
    fn doc_hidden_items_are_invisible() {
        let src = "#[doc(hidden)]\npub fn escape_hatch() {}\npub struct S { #[doc(hidden)] pub raw: usize, pub n: usize }\nimpl S {\n    #[doc(hidden)]\n    pub fn poison(&self) {}\n    pub fn real(&self) {}\n}\npub enum E { A, #[doc(hidden)] Secret }\npub trait T {\n    #[doc(hidden)]\n    fn internal(&self);\n    fn stable(&self);\n}\n";
        let e = entries(src);
        assert!(!e.iter().any(|s| s.contains("escape_hatch")));
        assert!(!e.iter().any(|s| s.contains("raw")));
        assert!(e.contains(&"[S] pub n: usize".to_string()));
        assert!(!e.iter().any(|s| s.contains("poison")));
        assert!(e.contains(&"[S] pub fn real(&self)".to_string()));
        assert!(!e.iter().any(|s| s.contains("Secret")));
        assert!(e.contains(&"[E] A".to_string()));
        assert!(!e.iter().any(|s| s.contains("internal")));
        assert!(e.contains(&"[T] fn stable(&self)".to_string()));
        // `#[doc(alias = "other")]` is not hidden.
        let e = entries("#[doc(alias = \"g\")]\npub fn f() {}\n");
        assert_eq!(e, vec!["pub fn f()"]);
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\npub fn real() {}\n";
        let e = entries(src);
        assert_eq!(e, vec!["pub fn real()"]);
    }

    #[test]
    fn const_value_is_not_part_of_the_signature() {
        let e = entries("pub const LIMIT: usize = 4 * 1024;\n");
        assert_eq!(e, vec!["pub const LIMIT: usize"]);
    }

    #[test]
    fn mod_paths_from_file_names() {
        assert!(mod_path_of("lib.rs").is_empty());
        assert_eq!(mod_path_of("plan.rs"), vec!["plan"]);
        assert_eq!(mod_path_of("tree/mod.rs"), vec!["tree"]);
        assert_eq!(mod_path_of("tree/pack.rs"), vec!["tree", "pack"]);
    }

    #[test]
    fn nested_mod_context() {
        let src = "pub mod outer {\n    pub fn f() {}\n}\nmod private {\n    pub fn g() {}\n}\n";
        let e = entries(src);
        assert!(e.contains(&"pub mod outer".to_string()));
        assert!(e.contains(&"[outer] pub fn f()".to_string()));
        // `g` is pub inside a private mod: recorded (re-export tripwire).
        assert!(e.contains(&"[private] pub fn g()".to_string()));
    }

    #[test]
    fn render_is_stable_and_readable() {
        let lx = crate::lex::lex("pub fn eval < T : Field > ( & self , m : & Mat < T > ) -> T");
        assert_eq!(
            render(&lx.toks),
            "pub fn eval<T: Field>(&self, m: &Mat<T>) -> T"
        );
    }
}
