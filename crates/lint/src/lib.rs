//! `ata-lint`: in-repo static analysis for the `ata` workspace.
//!
//! The workspace carries invariants that `rustc` and `clippy` cannot
//! see: exact-op kernel contracts, `Tracked` thread-local op counting
//! that breaks when threads are spawned outside the vendored pool,
//! raw-pointer matrix views with hand-written `Send`/`Sync`, and a
//! serving layer whose lock-and-channel discipline is otherwise only
//! enforced by tests. This crate makes those invariants mechanically
//! checkable, in the spirit of the layer contracts that make the
//! BLIS-style kernel methodology work.
//!
//! Two subsystems, both dependency-free (the build is fully offline,
//! so no `syn` — a hand-rolled lexer in `lex` provides token-level
//! structure):
//!
//! - [`lints`] / [`check`]: six repo-specific lints over every
//!   workspace source file, each with an inline
//!   `// ata-lint: allow(<lint>)` escape hatch. Five look at one file
//!   at a time; `unused-pub` reads the whole tree.
//! - `api` / [`write_api`] / [`verify_api`]: per-crate public-API
//!   signature snapshots committed under `API/`, so any unacknowledged
//!   public-surface change fails CI (`ata-lint api --verify`).
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run -p ata-lint -- check         # lint the tree
//! cargo run -p ata-lint -- api           # regenerate API/ snapshots
//! cargo run -p ata-lint -- api --verify  # fail on snapshot drift
//! ```

#![forbid(unsafe_code)]

mod api;
mod lex;
pub mod lints;
mod unused;

pub use lints::{lint_file, Diagnostic};

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: VCS state, build output, the
/// vendored stand-ins (not ours to lint), lint test fixtures
/// (intentionally bad), and the snapshot directory itself.
pub(crate) const SKIP_DIRS: [&str; 5] = [".git", "target", "third_party", "fixtures", "API"];

/// All workspace-relative `/`-separated paths of `.rs` files under
/// `root`, sorted, skipping `SKIP_DIRS`.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    visit(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                visit(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(rel_str(root, &path));
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.iter()
        .map(|c| c.to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every lint over every workspace source file.
pub fn check(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for rel in rust_sources(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    let mut diags: Vec<Diagnostic> = files
        .iter()
        .flat_map(|(rel, src)| lint_file(rel, src))
        .collect();
    diags.extend(unused::unused_pub(&files));
    diags.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(diags)
}

/// The workspace's own crates as `(name, src_dir)`, facade first, then
/// `crates/*` sorted by directory. Vendored `third_party/*` stand-ins
/// are excluded: their API is not ours to snapshot.
pub(crate) fn workspace_crates(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    if let Some(name) = crate_name(&root.join("Cargo.toml"))? {
        out.push((name, root.join("src")));
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            if let Some(name) = crate_name(&dir.join("Cargo.toml"))? {
                out.push((name, dir.join("src")));
            }
        }
    }
    Ok(out)
}

/// The `name = ".."` from a manifest's `[package]` section, if any.
fn crate_name(manifest: &Path) -> io::Result<Option<String>> {
    if !manifest.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(manifest)?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Ok(Some(rest.trim().trim_matches('"').to_string()));
                }
            }
        }
    }
    Ok(None)
}

/// Extract one crate's public-API entries from its `src_dir`, skipping
/// the binary targets' sources.
pub(crate) fn crate_api(src_dir: &Path) -> io::Result<BTreeSet<String>> {
    let mut items = Vec::new();
    let mut files = Vec::new();
    visit(src_dir, src_dir, &mut files)?;
    for rel in files.iter().filter(|rel| !api::is_bin_source(rel)) {
        let lx = lex::lex(&fs::read_to_string(src_dir.join(rel))?);
        items.extend(api::items(&api::mod_path_of(rel), &lx));
    }
    api::retain_public_members(&mut items, |it| it);
    Ok(items.into_iter().map(|it| it.entry).collect())
}

/// Rendered `API/<crate>.txt` contents for every workspace crate.
pub fn api_snapshots(root: &Path) -> io::Result<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    for (name, src_dir) in workspace_crates(root)? {
        if !src_dir.is_dir() {
            continue;
        }
        let entries = crate_api(&src_dir)?;
        let mut text = format!(
            "# Public API of `{name}` — generated by `cargo run -p ata-lint -- api`.\n\
             # Verified in CI by `ata-lint api --verify`; regenerate on intentional changes.\n"
        );
        for e in &entries {
            text.push_str(e);
            text.push('\n');
        }
        out.insert(name, text);
    }
    Ok(out)
}

/// Write (or refresh) `API/<crate>.txt` snapshots; returns the
/// workspace-relative paths written.
pub fn write_api(root: &Path) -> io::Result<Vec<String>> {
    let dir = root.join("API");
    fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    for (name, text) in api_snapshots(root)? {
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, text)?;
        written.push(rel_str(root, &path));
    }
    Ok(written)
}

/// Compare current sources against committed `API/` snapshots; returns
/// one human-readable problem per drifted, missing or orphaned file.
pub fn verify_api(root: &Path) -> io::Result<Vec<String>> {
    let mut problems = Vec::new();
    let expected = api_snapshots(root)?;
    for (name, want) in &expected {
        let path = root.join("API").join(format!("{name}.txt"));
        match fs::read_to_string(&path) {
            Err(_) => problems.push(format!(
                "API/{name}.txt is missing — run `cargo run -p ata-lint -- api`"
            )),
            Ok(have) if have != *want => {
                let have_set: BTreeSet<&str> = have.lines().collect();
                let want_set: BTreeSet<&str> = want.lines().collect();
                for gone in have_set.difference(&want_set) {
                    problems.push(format!("API/{name}.txt: removed: {gone}"));
                }
                for new in want_set.difference(&have_set) {
                    problems.push(format!("API/{name}.txt: added: {new}"));
                }
                if have_set == want_set {
                    problems.push(format!("API/{name}.txt: entries reordered or reformatted"));
                }
            }
            Ok(_) => {}
        }
    }
    let api_dir = root.join("API");
    if api_dir.is_dir() {
        for entry in fs::read_dir(&api_dir)? {
            let path = entry?.path();
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !expected.contains_key(&stem) {
                problems.push(format!(
                    "API/{stem}.txt does not correspond to any workspace crate"
                ));
            }
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    #[test]
    fn bin_targets_stay_out_of_the_snapshot() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/unused_pub/crates/alpha/src");
        let api = super::crate_api(&src).expect("fixture readable");
        assert!(api.contains("pub fn unused_anywhere()"));
        assert!(!api.iter().any(|e| e.contains("bin_helper")), "{api:?}");
    }

    #[test]
    fn methods_of_crate_private_types_stay_out_of_the_snapshot() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/unused_pub/crates/alpha/src");
        let api = super::crate_api(&src).expect("fixture readable");
        assert!(!api.iter().any(|e| e.contains("CrateOnly")), "{api:?}");
    }
}
