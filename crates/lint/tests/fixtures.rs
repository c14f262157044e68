//! Every lint is proven live: each known-bad fixture fires its lint at
//! the expected file:line, and the clean fixtures stay silent under the
//! strictest path scoping.

use ata_lint::lint_file;

/// `(line, lint)` pairs for linting `src` as if it lived at `path`.
fn diags(path: &str, src: &str) -> Vec<(usize, &'static str)> {
    lint_file(path, src)
        .into_iter()
        .map(|d| (d.line, d.lint))
        .collect()
}

#[test]
fn safety_comment_fires_at_expected_line() {
    // An allowlisted path, so only the missing SAFETY comment fires.
    let d = diags(
        "crates/mat/src/view.rs",
        include_str!("fixtures/bad_safety.rs"),
    );
    assert_eq!(d, vec![(5, "safety-comment")]);
}

#[test]
fn simd_unsafe_without_safety_comment_still_fires() {
    // The SIMD kernel files are unsafe-allowlisted, but the allowlist
    // never waives the SAFETY-comment discipline: an undocumented
    // intrinsics block inside them is still a diagnostic.
    for path in [
        "crates/kernels/src/simd/mod.rs",
        "crates/kernels/src/simd/x86.rs",
    ] {
        let d = diags(path, include_str!("fixtures/bad_simd.rs"));
        assert_eq!(d, vec![(13, "safety-comment")], "at {path}");
    }
}

#[test]
fn simd_fixture_outside_the_allowlist_also_trips_the_allowlist_lint() {
    let d = diags(
        "crates/kernels/src/micro.rs",
        include_str!("fixtures/bad_simd.rs"),
    );
    assert!(d.contains(&(13, "safety-comment")), "got {d:?}");
    assert!(d.iter().any(|&(_, l)| l == "unsafe-allowlist"), "got {d:?}");
}

#[test]
fn unsafe_allowlist_fires_at_expected_line() {
    let d = diags(
        "crates/strassen/src/lib.rs",
        include_str!("fixtures/bad_allowlist.rs"),
    );
    assert_eq!(d, vec![(4, "unsafe-allowlist")]);
}

#[test]
fn no_raw_spawn_fires_at_expected_line() {
    let d = diags(
        "crates/core/src/tracked.rs",
        include_str!("fixtures/bad_spawn.rs"),
    );
    assert_eq!(d, vec![(4, "no-raw-spawn")]);
}

#[test]
fn lock_across_blocking_fires_at_expected_line() {
    let d = diags("src/shard.rs", include_str!("fixtures/bad_lock.rs"));
    // The guard taken on line 6 is still live across the send on line 7
    // (and the `.unwrap()` on the lock is itself a serving-path hit).
    assert!(d.contains(&(7, "lock-across-blocking")), "got {d:?}");
    assert!(d.contains(&(6, "no-unwrap-in-lib")), "got {d:?}");
}

#[test]
fn no_unwrap_in_lib_fires_at_expected_lines() {
    let d = diags("src/stream.rs", include_str!("fixtures/bad_unwrap.rs"));
    assert_eq!(d, vec![(4, "no-unwrap-in-lib"), (8, "no-unwrap-in-lib")]);
}

#[test]
fn bad_fixtures_are_path_scoped() {
    // The same unwrap fixture is fine outside the scoped paths...
    let d = diags(
        "crates/mat/src/chol.rs",
        include_str!("fixtures/bad_unwrap.rs"),
    );
    assert!(d.is_empty(), "got {d:?}");
    // ...but crates/linalg/src/ is scoped (the factorization tier is a
    // serving path).
    let d = diags(
        "crates/linalg/src/chol.rs",
        include_str!("fixtures/bad_unwrap.rs"),
    );
    assert_eq!(d, vec![(4, "no-unwrap-in-lib"), (8, "no-unwrap-in-lib")]);
    // ...and the lock fixture's heuristic only applies to the two
    // serving files (the unwrap hit remains, facade src/ is scoped).
    let d = diags("src/context.rs", include_str!("fixtures/bad_lock.rs"));
    assert!(!d.contains(&(7, "lock-across-blocking")), "got {d:?}");
}

#[test]
fn clean_fixture_is_silent_under_strictest_scoping() {
    let d = diags("src/shard.rs", include_str!("fixtures/clean.rs"));
    assert!(d.is_empty(), "clean fixture tripped: {d:?}");
}

#[test]
fn documented_unsafe_fixture_is_silent() {
    let d = diags(
        "crates/core/src/parallel.rs",
        include_str!("fixtures/clean_unsafe.rs"),
    );
    assert!(d.is_empty(), "clean unsafe fixture tripped: {d:?}");
}

#[test]
fn allow_comment_silences_each_bad_fixture() {
    // Appending a trailing allow on the diagnostic line silences it.
    let silenced = include_str!("fixtures/bad_spawn.rs").replace(
        "std::thread::spawn(|| {});",
        "std::thread::spawn(|| {}); // ata-lint: allow(no-raw-spawn): fixture",
    );
    let d = diags("crates/core/src/tracked.rs", &silenced);
    assert!(d.is_empty(), "allow did not silence: {d:?}");
}

#[test]
fn unused_pub_fires_only_where_nothing_names_the_item() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unused_pub");
    let d: Vec<(String, usize, &str)> = ata_lint::check(&root)
        .expect("fixture readable")
        .into_iter()
        .map(|d| (d.path, d.line, d.lint))
        .collect();
    // Silent: the items only beta, the bin, `tests/`, `perfbench/src`,
    // `kept_signature`'s return type or the crate's own doctest name; the
    // allowed keep; and the facade's own unused items.
    let lib = "crates/alpha/src/lib.rs".to_string();
    let want = vec![
        (lib.clone(), 3, "unused-pub"),     // named nowhere else
        (lib.clone(), 16, "unused-pub"),    // named only by a finding
        (lib.clone(), 18, "unused-pub"),    // that finding
        (lib.clone(), 22, "unused-pub"),    // a finding whose field...
        (lib.clone(), 26, "unused-pub"),    // ...or trait impl keeps nothing
        (lib.clone(), 32, "unknown-allow"), // the misspelt allow...
        (lib.clone(), 33, "unused-pub"),    // ...suppresses nothing
        (lib.clone(), 43, "unused-pub"),    // named in a `//` comment
        (lib, 50, "unused-pub"),            // named in a `text` block
    ];
    assert_eq!(d, want);
}
