//! Command-line front-end for [`ata_lint`].
//!
//! ```text
//! ata-lint check                  lint every workspace source file
//! ata-lint api                    regenerate API/<crate>.txt snapshots
//! ata-lint api --verify           fail (exit 1) on snapshot drift
//!                                 (both print each snapshot's entry
//!                                 count, its non-comment lines)
//!     --root <DIR>                workspace root (default: found by
//!                                 walking up to a [workspace] manifest)
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut verify = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "api" if cmd.is_none() => cmd = Some(a.clone()),
            "--verify" => verify = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            other => return usage(&format!("unrecognised argument `{other}`")),
        }
    }
    let Some(cmd) = cmd else {
        return usage("expected a subcommand: check | api");
    };
    let root = match root.map(Ok).unwrap_or_else(find_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ata-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match cmd.as_str() {
        "check" => run_check(&root),
        _ => run_api(&root, verify),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ata-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("ata-lint: {err}");
    eprintln!("usage: ata-lint <check | api> [--verify] [--root DIR]");
    ExitCode::from(2)
}

/// Walk up from the current directory to the first manifest declaring
/// `[workspace]`.
fn find_root() -> std::io::Result<PathBuf> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() && std::fs::read_to_string(&manifest)?.contains("[workspace]") {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(std::io::Error::other(
                "no workspace root found above the current directory",
            ));
        }
    }
}

fn run_check(root: &std::path::Path) -> std::io::Result<ExitCode> {
    let diags = ata_lint::check(root)?;
    for d in &diags {
        println!("{d}");
    }
    let n_files = ata_lint::rust_sources(root)?.len();
    if diags.is_empty() {
        println!("ata-lint: clean ({n_files} files checked)");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "ata-lint: {} finding(s) in {n_files} files (suppress with `// ata-lint: allow(<lint>)` + reason)",
            diags.len()
        );
        Ok(ExitCode::from(1))
    }
}

/// Print each committed `API/<crate>.txt`'s entry count (its
/// non-comment lines) and the total.
fn print_counts(root: &std::path::Path) -> std::io::Result<()> {
    let mut paths = std::fs::read_dir(root.join("API"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<Vec<_>>>()?;
    paths.sort();
    let mut total = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let n = text.lines().filter(|l| !l.starts_with('#')).count();
        total += n;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        println!("API/{name}: {n} entries");
    }
    println!("API total: {total} entries");
    Ok(())
}

fn run_api(root: &std::path::Path, verify: bool) -> std::io::Result<ExitCode> {
    if verify {
        let problems = ata_lint::verify_api(root)?;
        for p in &problems {
            println!("{p}");
        }
        print_counts(root)?;
        if problems.is_empty() {
            println!("ata-lint: API snapshots match the sources");
            Ok(ExitCode::SUCCESS)
        } else {
            println!(
                "ata-lint: {} API drift(s) — if intentional, regenerate with `cargo run -p ata-lint -- api` and commit",
                problems.len()
            );
            Ok(ExitCode::from(1))
        }
    } else {
        for path in ata_lint::write_api(root)? {
            println!("wrote {path}");
        }
        print_counts(root)?;
        Ok(ExitCode::SUCCESS)
    }
}
