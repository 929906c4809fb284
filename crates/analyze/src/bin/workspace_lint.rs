//! Workspace source-convention lint driver.
//!
//! Run with `cargo run -p fuseconv-analyze --bin workspace-lint`. Checks
//! conventions the compiler does not enforce on its own:
//!
//! 1. every crate root carries `#![forbid(unsafe_code)]` and
//!    `#![warn(missing_docs)]`, and every library root also
//!    `#![warn(unreachable_pub)]` (binaries: at least
//!    `forbid(unsafe_code)`). With every `pub` item reachable, rustc's
//!    `missing_docs` sees the whole public API, and CI's clippy step
//!    (`-D warnings`) makes both lints errors;
//! 2. no `.unwrap()` in simulator and latency-model non-test code — hot
//!    loops must propagate errors, not abort;
//! 3. no bare `as u64`/`as u32` casts in the latency accounting — cycle
//!    arithmetic must use the checked/saturating helpers;
//! 4. every `#[allow(...)]` attribute anywhere in the workspace (crate
//!    sources, `examples/`, `tests/`) carries a trailing `// reason:`
//!    comment on the same line justifying the suppression;
//! 5. no bare `println!`/`eprintln!` and no `cfg!(debug_assertions)` in
//!    library-crate non-test code — libraries report through return
//!    values and sinks, not stdio, and never branch on the build profile,
//!    so a release build cannot print a number a debug build would reject
//!    (binaries, examples and tests are exempt);
//! 6. no `std::time::Instant::now` in library-crate non-test code
//!    outside `crates/telemetry` — host timing goes through
//!    `fuseconv_telemetry::Stopwatch` (or spans) so one crate owns the
//!    clock (binaries, examples and tests are exempt);
//! 7. no `json_escape` in library-crate non-test code outside
//!    `crates/telemetry` — every JSON artifact is rendered through
//!    `fuseconv_telemetry::Json`, the one place that escapes strings
//!    and writes separators (same exemptions as rule 6);
//! 8. no `OnceLock`, `LazyLock` or `thread_local!` in library-crate
//!    non-test code outside `crates/telemetry` — process-wide and
//!    per-thread state lives in one crate, whose telemetry runs are
//!    scoped to a thread and joined explicitly (same exemptions as
//!    rule 6).
//!
//! Exits nonzero when any convention is violated, printing one line per
//! finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workspace root, resolved from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Reads a source file, panicking with a clear message if it vanished
/// mid-run (a lint driver has no caller to propagate to).
fn read(path: &Path) -> String {
    match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("workspace-lint: cannot read {}: {e}", path.display());
            String::new()
        }
    }
}

/// The portion of a source file before its `#[cfg(test)]` module.
fn non_test_code(source: &str) -> &str {
    match source.find("#[cfg(test)]") {
        Some(idx) => &source[..idx],
        None => source,
    }
}

/// 1-indexed line number of a byte offset.
fn line_of(source: &str, offset: usize) -> usize {
    source[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Checks that a crate root declares each of the lint attributes `attrs`.
fn check_lint_attrs(root: &Path, rel: &str, attrs: &[&str], findings: &mut Vec<String>) {
    let source = read(&root.join(rel));
    for attr in attrs {
        if !source.contains(attr) {
            findings.push(format!("{rel}: missing {attr}"));
        }
    }
}

/// Flags every occurrence of `needle` in a file's non-test code.
fn check_forbidden(root: &Path, rel: &str, needle: &str, why: &str, findings: &mut Vec<String>) {
    let path = root.join(rel);
    let source = read(&path);
    let head = non_test_code(&source);
    let mut from = 0;
    while let Some(idx) = head[from..].find(needle) {
        let at = from + idx;
        findings.push(format!(
            "{rel}:{}: `{}` in non-test code ({why})",
            line_of(head, at),
            needle.trim()
        ));
        from = at + needle.len();
    }
}

/// Every `.rs` file under a directory tree, sorted for stable output.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = fs::read_dir(&d) {
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    out.push(p);
                }
            }
        }
    }
    out.sort();
    out
}

/// Workspace-relative paths of every `.rs` file under `dir`, sorted;
/// `skip_bin` drops its `bin/` tree (binaries are exempt from the
/// library-code rules).
fn sources(root: &Path, dir: &Path, skip_bin: bool) -> Vec<String> {
    let bin_dir = dir.join("bin");
    rs_files(dir)
        .into_iter()
        .filter(|path| !(skip_bin && path.starts_with(&bin_dir)))
        .map(|path| {
            path.strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Flags every `#[allow(...)]` attribute lacking a same-line `// reason:`
/// justification. Comment lines are skipped (prose may mention the
/// attribute); the needle is assembled so this lint never flags itself.
fn check_allow_reasons(root: &Path, rel: &str, findings: &mut Vec<String>) {
    let needle = concat!("#[", "allow(");
    let source = read(&root.join(rel));
    for (i, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        if line.contains(needle) && !line.contains("// reason:") {
            findings.push(format!(
                "{rel}:{}: `{needle}...)]` without a trailing `// reason:` comment",
                i + 1
            ));
        }
    }
}

/// Flags every line of a library file's non-test, non-comment code
/// that contains `needle`. Callers assemble needles with `concat!` so
/// this lint (a binary, itself exempt) never flags its own source.
fn check_library_lines(
    root: &Path,
    rel: &str,
    needle: &str,
    why: &str,
    findings: &mut Vec<String>,
) {
    let source = read(&root.join(rel));
    for (i, line) in non_test_code(&source).lines().enumerate() {
        if !line.trim_start().starts_with("//") && line.contains(needle) {
            findings.push(format!(
                "{rel}:{}: `{}` in library non-test code ({why})",
                i + 1,
                needle.trim_end_matches('(')
            ));
        }
    }
}

/// Every `crates/*/src/lib.rs`, sorted for stable output.
fn crate_roots(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                out.push(format!(
                    "crates/{}/src/lib.rs",
                    entry.file_name().to_string_lossy()
                ));
            }
        }
    }
    out.sort();
    out
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();

    // Rule 1: lint attributes on every crate root (and the binaries).
    let attrs = [
        "#![forbid(unsafe_code)]",
        "#![warn(missing_docs)]",
        "#![warn(unreachable_pub)]",
    ];
    let mut roots = crate_roots(&root);
    roots.push("src/lib.rs".to_string());
    for rel in &roots {
        check_lint_attrs(&root, rel, &attrs, &mut findings);
    }
    // Binaries export nothing to reach; this driver needs only the first.
    check_lint_attrs(&root, "crates/cli/src/main.rs", &attrs[..2], &mut findings);
    let driver = "crates/analyze/src/bin/workspace_lint.rs";
    check_lint_attrs(&root, driver, &attrs[..1], &mut findings);

    // Rule 2: no `.unwrap()` in simulator / latency-model non-test code.
    for dir in ["crates/systolic/src", "crates/latency/src"] {
        for rel in sources(&root, &root.join(dir), true) {
            check_forbidden(
                &root,
                &rel,
                ".unwrap()",
                "propagate errors in simulator hot paths",
                &mut findings,
            );
        }
    }

    // Rule 3: no bare widening casts in the latency accounting.
    for rel in [
        "crates/latency/src/map.rs",
        "crates/latency/src/plan.rs",
        "crates/latency/src/audit.rs",
    ] {
        for needle in [" as u64", " as u32"] {
            check_forbidden(
                &root,
                rel,
                needle,
                "use the checked/saturating conversion helpers",
                &mut findings,
            );
        }
    }

    // Rule 4: every lint suppression is justified — workspace-wide,
    // including the umbrella crate, examples and integration tests.
    let mut scan_dirs = vec![root.join("src"), root.join("examples"), root.join("tests")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            scan_dirs.push(entry.path().join("src"));
        }
    }
    scan_dirs.sort();
    for dir in scan_dirs {
        for rel in sources(&root, &dir, false) {
            check_allow_reasons(&root, &rel, &mut findings);
        }
    }

    // Rules 5–8 cover library crates: the ones with a
    // `src/lib.rs` (so `crates/cli`, a pure binary, is exempt), plus the
    // umbrella crate; their `src/bin/` trees are binaries and stay
    // exempt. Rule 5: no stdio macros and no build-profile branches.
    // Rule 6: only `crates/telemetry` reads the host clock. Rule 7:
    // only `crates/telemetry` escapes JSON by hand. Rule 8: only
    // `crates/telemetry` holds process-wide or per-thread state.
    let mut lib_dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.join("lib.rs").is_file() {
                lib_dirs.push(src);
            }
        }
    }
    lib_dirs.sort();
    let telemetry_src = root.join("crates/telemetry/src");
    for dir in &lib_dirs {
        for rel in sources(&root, dir, true) {
            let mut forbid = |needle: &str, why: &str| {
                check_library_lines(&root, &rel, needle, why, &mut findings);
            };
            let stdio = "report through return values or sinks, not stdio";
            forbid(concat!("print", "ln!("), stdio);
            forbid(concat!("eprint", "ln!("), stdio);
            if *dir != telemetry_src {
                forbid(
                    concat!("Instant", "::now("),
                    "time through fuseconv_telemetry::Stopwatch; only \
                     crates/telemetry reads the host clock",
                );
                forbid(
                    concat!("json_", "escape"),
                    "render through fuseconv_telemetry::Json; only \
                     crates/telemetry writes JSON syntax by hand",
                );
                for needle in [
                    concat!("Once", "Lock"),
                    concat!("Lazy", "Lock"),
                    concat!("thread_", "local!"),
                ] {
                    forbid(
                        needle,
                        "record into the caller's fuseconv_telemetry run; \
                         only crates/telemetry holds process or thread state",
                    );
                }
            }
            check_forbidden(
                &root,
                &rel,
                "cfg!(debug_assertions)",
                "library behaviour must not depend on the build profile",
                &mut findings,
            );
        }
    }

    if findings.is_empty() {
        println!(
            "workspace-lint: {} crate roots, the latency/simulator sources, library \
             stdio, build-profile, host-clock, JSON-writer and shared-state discipline, \
             and all workspace/example/test suppressions are clean",
            roots.len() + 1
        );
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("workspace-lint: {f}");
        }
        println!("workspace-lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_escaped_json_is_flagged_outside_comments_and_tests() {
        let dir = std::env::temp_dir().join("fuseconv-workspace-lint-test");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("writer.rs"),
            concat!(
                "// json_escape in prose is fine\n",
                "fn out(s: &str) -> String { json_escape(s) }\n",
                "#[cfg(test)]\nmod tests { fn t() { json_escape(\"\"); } }\n",
            ),
        )
        .unwrap();
        let mut findings = Vec::new();
        check_library_lines(&dir, "writer.rs", "json_escape", "why", &mut findings);
        fs::remove_file(dir.join("writer.rs")).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].starts_with("writer.rs:2: `json_escape`"),
            "{findings:?}"
        );
    }
}
