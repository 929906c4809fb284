//! Pins the bytes every deterministic `fuseconv` command prints and
//! writes, and keeps the docs naming only commands and examples that
//! exist.
//!
//! Each case runs the built binary at a small size in a fresh directory
//! of its own (one tree per test process, so overlapping runs never
//! share a path) and compares the FNV-1a of its stdout, and of every
//! file it writes, to its line in [`PINNED`]. The run manifest's host
//! and wall-clock fields are masked first; everything else, the
//! manifest's config string included, is pinned. A deliberate output
//! change must update its line in the same commit; the failure message
//! prints the new lines.

use fuseconv_telemetry::fnv1a64;
use std::path::Path;
use std::process::{Command, Output};

/// Every pinned command that runs in a fresh directory, one a line:
/// `ARGS => STDOUT`, then `PATH=HASH` for each file it writes, by path.
/// Each hash is the FNV-1a of the masked bytes.
const PINNED: &str = "\
help => 1262921275bbcad8
table1 --array 8 => 2a865d461fafcae6
layerwise --array 8 => 249251689d9b1c11
breakdown --array 8 => 76262623cc214fa0
energy --array 8 => 523ec090c0e52f32
nos --array 8 => 8ab41ce1c1220618
scaling --sizes 8,16 => 7779c6dccf1b0184
overhead => 21cec21695f20ee5
reports --array 8 --dir d => 26e6c2eb82a88de7 d/energy.csv=523ec090c0e52f32 d/fig8b_layerwise.csv=249251689d9b1c11 d/fig8c_breakdown.csv=76262623cc214fa0 d/fig8d_scaling.csv=ef6d9f86e72a4bcf d/hw_overhead.csv=21cec21695f20ee5 d/table1.csv=2a865d461fafcae6
trace --network mobilenet-v3-small --variant full --layer 45 --array 8 --format chrome --out trace.json => 6f9f6abf695015c8 trace.json=940014604b84f8d2
trace --network mobilenet-v3-small --variant full --layer 45 --array 8 --format heatmap --out heatmap.csv => 541643ffbb406ed2 heatmap.csv=9f7f949a7b038a74
trace --network mobilenet-v3-small --variant full --layer 45 --array 8 --format scalesim --out layer => 28c314e7bd2c1423 layer_filter_read.csv=243894bc743bc852 layer_ifmap_read.csv=f6282d7d3f7ebd12 layer_ofmap_write.csv=8ef456be8d03b78d
analyze --all --array 8 => 169ece5e99687ce3
analyze --all --array 8 --format json --out analyze.json => 8acdb65ca59a730d analyze.json=00b11bec1e4d21c1
analyze --serve --pod 16x16:os,16x16:os --networks mobilenet-v1 => f7608bb4e8d4b13c
perf --network mobilenet-v1 --array 8 => 863fe9124ed67686
perf --network mobilenet-v1 --array 8 --format json --out perf.json => 707a2c98434aa010 perf.json=e9f53d56047326f2
serve --pod 16x16:os --networks mobilenet-v1 --requests 50 => 2c1235c5b07bac54
serve --pod 16x16:os --networks mobilenet-v1 --requests 50 --format json --out serve.json => 53ba4c7364aa1856 serve.json=3f7f8b009f17fbfd
";

/// The workspace root, where the docs and `examples/` live.
const WORKSPACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Runs `fuseconv` with `args` (split at whitespace) in `dir`.
fn fuseconv(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuseconv"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("the fuseconv binary starts")
}

/// Stdout of a run that must succeed.
fn stdout_of(output: Output, args: &str) -> Vec<u8> {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "`{args}` failed: {stderr}");
    output.stdout
}

/// FNV-1a of `bytes` with the values of the run manifest's host and
/// wall-clock fields cut out.
fn masked_hash(bytes: &[u8]) -> u64 {
    let mut text = String::from_utf8(bytes.to_vec()).expect("outputs are UTF-8");
    for key in ["\"host\":", "\"started_unix_ms\":", "\"elapsed_ms\":"] {
        let mut from = 0;
        while let Some(at) = text[from..].find(key) {
            from += at + key.len();
            let len = text[from..].find([',', '}', '\n']).unwrap_or(0);
            text.replace_range(from..from + len, "");
        }
    }
    fnv1a64(text.as_bytes())
}

/// The files under `dir`, as `prefix` followed by their path in it.
fn files_under(dir: &Path, prefix: &str) -> Vec<String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let entry = entry.expect("readable entry");
        let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            files.extend(files_under(&entry.path(), &format!("{name}/")));
        } else {
            files.push(name);
        }
    }
    files
}

/// The [`PINNED`] line of `args` as it runs now, in the fresh `dir`.
fn pin_line(dir: &Path, args: &str) -> String {
    std::fs::create_dir_all(dir).expect("temp dir");
    let stdout = masked_hash(&stdout_of(fuseconv(dir, args), args));
    let mut line = format!("{args} => {stdout:016x}");
    let mut files = files_under(dir, "");
    files.sort_unstable();
    for file in files {
        let hash = masked_hash(&std::fs::read(dir.join(&file)).expect("written"));
        line.push_str(&format!(" {file}={hash:016x}"));
    }
    line
}

#[test]
fn every_command_output_is_pinned() {
    let root = std::env::temp_dir().join(format!("fuseconv-cli-outputs-{}", std::process::id()));
    let mut changed = Vec::new();
    for (i, pinned) in PINNED.lines().enumerate() {
        let args = pinned.split(" => ").next().expect("ARGS => HASHES");
        let line = pin_line(&root.join(i.to_string()), args);
        if line != pinned {
            changed.push(line);
        }
    }
    std::fs::remove_dir_all(&root).expect("temp dir removable");
    assert!(changed.is_empty(), "outputs now:\n{}", changed.join("\n"));
}

#[test]
fn topology_evaluates_the_sample_file() {
    let args = "topology examples/edge_net.topology --array 8";
    let got = masked_hash(&stdout_of(fuseconv(Path::new(WORKSPACE), args), args));
    assert_eq!(got, 0xce26788d2267a0da, "`{args}`: {got:#018x}");
}

#[test]
fn help_flags_unknown_commands_and_misspelt_flags_exit_as_pinned() {
    let dir = Path::new(WORKSPACE);
    let help = stdout_of(fuseconv(dir, "help"), "help");
    for args in ["--help", "-h", "-h --arrray 8"] {
        assert_eq!(stdout_of(fuseconv(dir, args), args), help, "`{args}`");
    }
    for args in ["frobnicate", "table1 --arrray 8", "help --array 8"] {
        let output = fuseconv(dir, args);
        assert_eq!(output.status.code(), Some(1), "`{args}`");
        assert!(output.stdout.is_empty(), "`{args}`");
    }
}

/// The commands `fuseconv help` lists under COMMANDS.
fn listed_commands() -> Vec<String> {
    let help =
        String::from_utf8(stdout_of(fuseconv(Path::new(WORKSPACE), "help"), "help")).unwrap();
    let section = help.split("\n\n").find(|s| s.starts_with("COMMANDS:"));
    section
        .expect("a COMMANDS section")
        .lines()
        .skip(1)
        .filter(|line| !line.starts_with("   "))
        .filter_map(|line| line.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

/// Each name that follows `prefix` in `text`: its leading run of
/// lowercase letters, digits, `_` and `-`, when not empty.
fn names_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    let in_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c);
    text.split(prefix)
        .skip(1)
        .filter_map(|rest| rest.split(|c| !in_name(c)).next())
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn docs_name_only_existing_examples_and_commands() {
    let root = Path::new(WORKSPACE);
    let commands = listed_commands();
    assert!(commands.iter().any(|c| c == "table1"), "{commands:?}");
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for example in names_after(&text, "--example ") {
            let path = root.join("examples").join(format!("{example}.rs"));
            assert!(path.is_file(), "{doc} runs missing example `{example}`");
        }
        for command in names_after(&text, "`fuseconv ") {
            assert!(
                commands.iter().any(|c| c == command),
                "{doc} names `fuseconv {command}`, which `fuseconv help` does not list"
            );
        }
    }
}
