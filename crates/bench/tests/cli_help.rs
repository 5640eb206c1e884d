//! Command-line contract of the two throughput benches: `--help` prints
//! usage and an unknown flag is a usage error, both answered before any
//! measurement — neither may start a multi-minute run or write its
//! output JSON.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `binary args` in a fresh empty directory; returns the output and
/// the directory.
fn run_in_empty_dir(binary: &str, args: &[&str]) -> (Output, PathBuf) {
    let name = std::path::Path::new(binary)
        .file_name()
        .expect("binary name")
        .to_string_lossy()
        .into_owned();
    let dir = std::env::temp_dir().join(format!(
        "bench-cli-{name}-{}-{}",
        std::process::id(),
        args.join("_").replace('-', "")
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"));
    (output, dir)
}

/// Asserts that `binary args` exits `code` without writing anything.
fn assert_answered_before_work(binary: &str, args: &[&str], code: i32) -> String {
    let (output, dir) = run_in_empty_dir(binary, args);
    assert_eq!(
        output.status.code(),
        Some(code),
        "{binary} {args:?}, stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|entry| entry.expect("entry").file_name())
        .collect();
    assert!(left.is_empty(), "{binary} {args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn check(binary: &str) {
    let help = assert_answered_before_work(binary, &["--help"], 0);
    assert!(help.starts_with("usage:"), "{binary} --help:\n{help}");
    assert!(help.contains("--out PATH"), "{binary} --help:\n{help}");
    assert!(help.contains("exit codes:"), "{binary} --help:\n{help}");
    // `--help` wins even next to flags that would otherwise start a run.
    assert_answered_before_work(binary, &["--passes", "1", "--help"], 0);
    assert_answered_before_work(binary, &["--bogus"], 2);
    assert_answered_before_work(binary, &["--out", "x.json", "--bogus-flag"], 2);
    assert_answered_before_work(binary, &["--passes"], 2);
    assert_answered_before_work(binary, &["--passes", "many"], 2);
}

#[test]
fn fault_sim_bench_answers_help_and_bad_flags_before_any_work() {
    check(env!("CARGO_BIN_EXE_fault_sim_bench"));
}

#[test]
fn power_engine_bench_answers_help_and_bad_flags_before_any_work() {
    check(env!("CARGO_BIN_EXE_power_engine_bench"));
}
