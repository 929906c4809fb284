//! The source conventions no rustc or clippy lint expresses. The rest are
//! `[workspace.lints]` in the root `Cargo.toml`, `clippy.toml` and the
//! attributes on the crate roots.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every crate directory under `crates/`.
fn crates() -> Vec<PathBuf> {
    let entries = fs::read_dir(Path::new(ROOT).join("crates")).unwrap();
    entries.map(|entry| entry.unwrap().path()).collect()
}

/// `path:line` of each line of library code (the umbrella crate and each
/// crate with a `src/lib.rs`, less `exempt`) that contains `needle`,
/// outside comments and tests (all after a file's first `#[cfg(test)]`).
fn library_lines_with(needle: &str, exempt: &[&str]) -> Vec<String> {
    let mut dirs: Vec<_> = crates()
        .iter()
        .filter(|krate| !exempt.iter().any(|name| krate.ends_with(name)))
        .map(|krate| krate.join("src"))
        .filter(|src| src.join("lib.rs").is_file())
        .collect();
    dirs.push(Path::new(ROOT).join("src"));
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let source = fs::read_to_string(&path).unwrap();
            let code = source.split("#[cfg(test)]").next().unwrap();
            for (i, line) in code.lines().enumerate() {
                if !line.trim_start().starts_with("//") && line.contains(needle) {
                    found.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
    }
    found
}

/// A release build must never print a number a debug build would reject.
/// Clippy's `disallowed-macros` cannot ban `cfg!` without also banning
/// `debug_assert!`.
#[test]
fn library_code_never_branches_on_the_build_profile() {
    let found = library_lines_with("cfg!(debug_assertions)", &[]);
    assert!(found.is_empty(), "build-profile branches: {found:?}");
}

/// Every JSON artifact is rendered through `fuseconv_telemetry::Json`,
/// the one place that escapes strings.
#[test]
fn only_telemetry_escapes_json_by_hand() {
    let found = library_lines_with("json_escape", &["telemetry"]);
    assert!(found.is_empty(), "hand-rolled JSON escaping: {found:?}");
}

/// A manifest without `[lints] workspace = true` silently drops every
/// workspace lint for its crate.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    for dir in crates().into_iter().chain([PathBuf::from(ROOT)]) {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            dir.display()
        );
    }
}
