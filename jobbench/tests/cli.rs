//! The binary rejects bad command lines before any workload starts.

use std::process::Command;
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (Option<i32>, String, String, Duration) {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_jobbench"))
        .args(args)
        .output()
        .expect("spawn jobbench");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        start.elapsed(),
    )
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let (code, stdout, _, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("--workload"));
    for workload in ["dense_sweep_1024", "table1_paper"] {
        assert!(stdout.contains(workload), "usage lacks {workload}");
    }
}

#[test]
fn bad_command_lines_exit_two_without_running() {
    for args in [
        &["--workload", "dense_sweep_1024", "--bogus-flag"][..],
        &["--workload", "dense_sweep_1024", "--seconds", "0"],
        &["--workload", "nope"],
        &["--seed", "1"],
    ] {
        let (code, stdout, stderr, elapsed) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
        assert!(stderr.contains("usage:"), "{args:?}");
        assert!(elapsed < Duration::from_secs(5), "{args:?} started a run");
    }
}
