//! `campaign_supervisor` — cross-process shard orchestration.
//!
//! Spawns one `campaign_run --shard k/N` child per shard, watches
//! heartbeats and journal growth, restarts dead or wedged shards with
//! `--resume` under bounded exponential backoff, and merges the shard
//! exports. A shard that exhausts its restart budget is quarantined
//! while the rest complete; the merged export is then partial and the
//! manifest names exactly which shards and jobs are missing.
//!
//! ```text
//! campaign_supervisor --shards 3 --dir runs/camp \
//!     --organization 64x64 --seeds 1,2,3,4 --population mixed:600
//! ```
//!
//! Exit codes extend the `campaign_run` contract one level up (`5` —
//! degraded: shards were quarantined, the export is partial). The flags,
//! the `--help` text and the exit-code table come from
//! [`campaign::cli::CAMPAIGN_SUPERVISOR`]; the plan flags forwarded to
//! every child are exactly `campaign_run`'s [`campaign::cli::PLAN`] and
//! [`campaign::cli::WORKERS`] sections.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use campaign::cli::{Args, UsageError, CAMPAIGN_SUPERVISOR, PLAN, WORKERS};
use campaign::supervise::{supervise, ShardCommand, ShardFate, SupervisorOptions};
use campaign::{ProcessInjection, ProcessInjector};

fn main() -> ExitCode {
    CAMPAIGN_SUPERVISOR.main(run)
}

/// Splits `K@N` into `(shard, threshold)`.
fn parse_at(flag: &str, raw: &str) -> Result<(u32, u64), UsageError> {
    raw.split_once('@')
        .and_then(|(shard, threshold)| {
            Some((shard.trim().parse().ok()?, threshold.trim().parse().ok()?))
        })
        .ok_or_else(|| UsageError::new(flag, format!("cannot parse \"{raw}\" (expected K@N)")))
}

/// Builds the [`ProcessInjector`] from the repeatable injection flags.
fn build_injector(args: &Args) -> Result<ProcessInjector, UsageError> {
    let mut kills = Vec::new();
    for raw in args.values("--kill-shard") {
        let (shard, after_beats) = parse_at("--kill-shard", raw)?;
        kills.push(ProcessInjection::KillChild { shard, after_beats });
    }
    let mut injector = ProcessInjector::new(kills);
    for (flag, child_flag, every_launch) in [
        ("--stall-shard", "--stall-heartbeat-after", false),
        ("--wedge-shard", "--wedge-after", false),
        ("--crash-shard", "--abort-after-records", true),
    ] {
        for raw in args.values(flag) {
            let (shard, threshold) = parse_at(flag, raw)?;
            let child_args = [child_flag, &threshold.to_string()];
            injector = if every_launch {
                injector.with_every_launch_args(shard, &child_args)
            } else {
                injector.with_first_launch_args(shard, &child_args)
            };
        }
    }
    Ok(injector)
}

fn run(args: &Args) -> Result<ExitCode, UsageError> {
    let shards = args.parse_count("--shards", 0)?;
    let dir = PathBuf::from(args.required("--dir")?);

    let mut options = SupervisorOptions::in_dir(dir, shards);
    if let Some(path) = args.value("--export") {
        options.merged_export = PathBuf::from(path);
    }
    if let Some(path) = args.value("--manifest") {
        options.manifest = PathBuf::from(path);
    }
    options.restart_budget = args.parse("--restart-budget", 3)?;
    options.backoff_base = Duration::from_millis(args.parse("--restart-backoff-ms", 100)?);
    options.backoff_cap = Duration::from_millis(args.parse("--restart-backoff-cap-ms", 2000)?);
    options.poll_interval = Duration::from_millis(args.parse("--poll-ms", 25)?);
    options.stall_timeout = Duration::from_millis(args.parse("--stall-timeout-ms", 10_000)?);

    let program = match args.value("--child") {
        Some(path) => PathBuf::from(path),
        None => default_child_path().ok_or_else(|| {
            UsageError::new("--child", "cannot locate campaign_run next to this binary")
        })?,
    };
    let command = ShardCommand {
        program,
        plan_args: args.forwarded(&[&PLAN, &WORKERS]),
    };
    let injector = build_injector(args)?;

    match supervise(&command, &options, &injector) {
        Ok(report) => {
            for (shard, fate) in report.fates.iter().enumerate() {
                match fate {
                    ShardFate::Completed { poisoned, restarts } => {
                        let poison = if *poisoned {
                            ", poisoned jobs inside"
                        } else {
                            ""
                        };
                        println!(
                            "supervisor: shard {shard} completed ({restarts} restarts{poison})"
                        );
                    }
                    ShardFate::Quarantined {
                        restarts,
                        last_failure,
                    } => {
                        eprintln!(
                            "supervisor: shard {shard} quarantined after {restarts} restarts \
                             (last failure: {last_failure})"
                        );
                    }
                }
            }
            println!(
                "supervisor: merged {}/{} jobs into {} (manifest {})",
                report.total_jobs as usize - report.missing_jobs.len(),
                report.total_jobs,
                report.merged_export.display(),
                report.manifest.display(),
            );
            if report.degraded() {
                eprintln!(
                    "supervisor: DEGRADED — {} jobs missing, see the manifest",
                    report.missing_jobs.len()
                );
                Ok(ExitCode::from(5))
            } else if report.poisoned() {
                for job in &report.poisoned_jobs {
                    eprintln!("supervisor: job {job} is poison-quarantined");
                }
                Ok(ExitCode::from(4))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        Err(error) => Ok(CAMPAIGN_SUPERVISOR.failed(error)),
    }
}

/// `campaign_run` next to the running `campaign_supervisor` binary.
fn default_child_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("campaign_run");
    sibling.exists().then_some(sibling)
}
