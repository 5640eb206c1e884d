//! Whole-job benchmark of the SRAM test-power reproduction.
//!
//! One command runs one workload, checks its outputs and prints every
//! metric by name with its unit; `--trace 1` instead runs the traced
//! pass and prints the per-layer metrics. See `README.md` beside this
//! package for the workloads, the metric map and the span schema.

mod campaign;
mod cli;
mod jobs;
mod measure;
mod spans;
mod table1;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cli::{Command, Workload};
use jobs::Sizes;
use measure::{result_line, run_report};

/// Where runs keep their journals, spools, exports and traces, relative
/// to the directory the benchmark runs from.
const OUTPUT_DIR: &str = ".jobbench";

/// A per-process scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Syncing the parent commits the removal now. Otherwise the file
        // system finishes it later, slowing the fsyncs of whatever run
        // comes next: a run leaves up to tens of thousands of spool files.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::File::open(parent).and_then(|dir| dir.sync_all());
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            print!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(error) => {
            eprintln!("jobbench: {error}\n\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    if !args.workload.has_random_input() {
        eprintln!(
            "{}: no random input; --seed {} changes nothing",
            args.workload.name(),
            args.seed
        );
    }
    let work = WorkDir(PathBuf::from(OUTPUT_DIR).join(format!("work-{}", std::process::id())));
    if let Err(error) = std::fs::create_dir_all(&work.0) {
        eprintln!("jobbench: create {}: {error}", work.0.display());
        return ExitCode::from(1);
    }
    let trace_path = PathBuf::from(OUTPUT_DIR).join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let mut report = run_report(|report| match (args.workload, args.trace) {
        (Workload::Table1Paper, false) => table1::timed(&args, process_start, report),
        (Workload::Table1Paper, true) => table1::traced(&args, &trace_path, report),
        (Workload::DenseSweep1024, false) => {
            campaign::timed(&args, process_start, Sizes::FULL, &work.0, report)
        }
        (Workload::DenseSweep1024, true) => {
            campaign::traced(&args, Sizes::FULL, &work.0, &trace_path, report)
        }
    });
    drop(work);
    let printed = report.finish(args.trace);
    for problem in report.problems.iter().take(20) {
        eprintln!("FAILED: {problem}");
    }
    eprintln!(
        "failed_ratio {} ({} of {} attempted)",
        report.failed_ratio(),
        report.failed,
        report.attempted
    );
    if args.trace {
        eprintln!("spans written to {}", trace_path.display());
    }
    println!("{}", result_line(&report, &printed));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
