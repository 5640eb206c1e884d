//! `--help` contract tests for the three campaign binaries: each must
//! exit 0 and print an exit-code table that names every code the binary
//! can return, matching the README's tables — scripts are written
//! against these, so the help text is an interface, not décor.

use std::process::Command;

/// Runs `binary --help` and returns its stdout, asserting exit 0.
fn help_output(binary: &str) -> String {
    let output = Command::new(binary)
        .arg("--help")
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"));
    assert!(
        output.status.success(),
        "{binary} --help must exit 0, got {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("help is utf-8")
}

/// Asserts the help text has an exit-code table listing exactly `codes`,
/// each as a `  N  description` line.
fn assert_exit_codes(binary: &str, help: &str, codes: &[u8]) {
    assert!(
        help.contains("exit codes:"),
        "{binary} --help must contain an exit-code table"
    );
    let table = help.split("exit codes:").nth(1).expect("table follows");
    for &code in codes {
        assert!(
            table
                .lines()
                .any(|line| line.trim_start().starts_with(&format!("{code}  "))),
            "{binary} --help must document exit code {code}:\n{help}"
        );
    }
    // No undocumented codes: every table line starts with a listed code.
    for line in table.lines().filter(|line| !line.trim().is_empty()) {
        let first = line.split_whitespace().next().expect("token");
        if let Ok(code) = first.parse::<u8>() {
            assert!(
                codes.contains(&code),
                "{binary} --help lists exit code {code}, which this test does not expect"
            );
        }
    }
}

#[test]
fn campaign_run_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_run"));
    assert_exit_codes("campaign_run", &help, &[0, 2, 3, 4]);
}

#[test]
fn campaign_daemon_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_daemon"));
    assert_exit_codes("campaign_daemon", &help, &[0, 2, 3, 4]);
    for flag in [
        "--spool",
        "--journal",
        "--trace",
        "--deadline-ms",
        "--queue-limit",
    ] {
        assert!(help.contains(flag), "daemon help must document {flag}");
    }
}

#[test]
fn campaign_supervisor_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_supervisor"));
    assert_exit_codes("campaign_supervisor", &help, &[0, 2, 3, 4, 5]);
}

/// A fresh, empty working directory per call.
fn empty_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "campaign-cli-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `binary args` in an empty directory and asserts a usage error:
/// exit 2 and nothing written to the working directory.
fn assert_usage_error(binary: &str, args: &[&str]) {
    let dir = empty_dir("usage");
    let output = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"));
    assert_eq!(
        output.status.code(),
        Some(2),
        "{binary} {args:?} must exit 2 (usage error), stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|entry| entry.expect("entry").file_name())
        .collect();
    assert!(
        left.is_empty(),
        "{binary} {args:?} must not touch the disk, left {left:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_run_rejects_malformed_lines_before_touching_the_disk() {
    let binary = env!("CARGO_BIN_EXE_campaign_run");
    for args in [
        // A value flag followed by another flag: no journal named `--resume`.
        &["--journal", "--resume"][..],
        &["--journal", "j.journal", "--threads"],
        &["--journal", "j.journal", "--threads", "--resume"],
        &["stray", "--journal", "j.journal"],
        &["--journal", "j.journal", "stray"],
        &["--journal", "a.journal", "--journal", "b.journal"],
        &["--journal", "j.journal", "--resume", "--resume"],
    ] {
        assert_usage_error(binary, args);
    }
    // The defect this pins: `--resume` was once taken as the journal path.
    let dir = empty_dir("resume");
    let status = Command::new(binary)
        .args(["--journal", "--resume"])
        .current_dir(&dir)
        .status()
        .expect("spawn campaign_run");
    assert_eq!(status.code(), Some(2));
    assert!(!dir.join("--resume").exists(), "a journal named --resume");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_daemon_rejects_malformed_lines_before_touching_the_disk() {
    let binary = env!("CARGO_BIN_EXE_campaign_daemon");
    // `--once` in every line: were one accepted, the daemon would quiesce
    // on its empty spool and exit instead of serving forever.
    for args in [
        &["--once", "--spool", "--journal", "d.journal"][..],
        &[
            "--once",
            "--spool",
            "spool",
            "--journal",
            "d.journal",
            "--threads",
        ],
        &[
            "--once",
            "--spool",
            "spool",
            "--journal",
            "d.journal",
            "stray",
        ],
        &[
            "stray",
            "--once",
            "--spool",
            "spool",
            "--journal",
            "d.journal",
        ],
        &[
            "--once",
            "--spool",
            "a",
            "--spool",
            "b",
            "--journal",
            "d.journal",
        ],
    ] {
        assert_usage_error(binary, args);
    }
}

#[test]
fn campaign_supervisor_rejects_malformed_lines_before_touching_the_disk() {
    let binary = env!("CARGO_BIN_EXE_campaign_supervisor");
    for args in [
        &["--shards", "1", "--dir", "run", "--seeds"][..],
        &["--shards", "--dir", "run"],
        &["--shards", "1", "--dir", "run", "stray"],
        &["stray", "--shards", "1", "--dir", "run"],
        &["--shards", "1", "--dir", "a", "--dir", "b"],
        &[
            "--shards", "1", "--dir", "run", "--seeds", "1", "--seeds", "2",
        ],
    ] {
        assert_usage_error(binary, args);
    }
}

#[test]
fn readme_exit_code_table_matches_the_generated_help() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read the crate README");
    for binary in [
        env!("CARGO_BIN_EXE_campaign_run"),
        env!("CARGO_BIN_EXE_campaign_daemon"),
        env!("CARGO_BIN_EXE_campaign_supervisor"),
    ] {
        let help = help_output(binary);
        let table = help.split("exit codes:").nth(1).expect("table follows");
        for line in table.lines().filter(|line| !line.trim().is_empty()) {
            let (code, meaning) = line.trim().split_once("  ").expect("`N  meaning` line");
            assert!(
                readme.contains(&format!("| `{code}` |")) && readme.contains(meaning.trim()),
                "README must list exit code {code} of {binary} as \"{}\"",
                meaning.trim()
            );
        }
    }
}
