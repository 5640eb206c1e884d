//! `campaign_run` — the crash-safe campaign CLI.
//!
//! Builds a cross-product plan from flag lists, runs (or resumes) one
//! shard of it with the panic-isolated worker pool, and optionally writes
//! the deterministic binary export.
//!
//! ```text
//! campaign_run --journal camp.journal \
//!     --organization 64x64 --seeds 1,2,3,4 --population mixed:600 \
//!     --threads 2 --export out.bin
//! campaign_run --journal camp.journal ... --resume   # after a crash
//! ```
//!
//! The flags, the `--help` text and the exit codes — distinct per
//! failure class, so scripts (and the CI kill-and-resume smoke job) can
//! tell them apart — all come from [`campaign::cli::CAMPAIGN_RUN`].

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use campaign::cli::{parse_size_list, Args, UsageError, CAMPAIGN_RUN};
use campaign::runner::{run_campaign, CampaignOptions};
use campaign::spec::{CampaignPlan, PopulationSpec};
use campaign::{FaultInjector, Injection, Shard};
use march_test::coverage::SweepBackend;
use march_test::library::table1_algorithms;

fn main() -> ExitCode {
    CAMPAIGN_RUN.main(run)
}

/// Parses a comma-separated list with `parse_item`, with typed errors.
fn parse_list<T>(
    args: &Args,
    flag: &str,
    default: Vec<T>,
    parse_item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, UsageError> {
    let Some(raw) = args.value(flag) else {
        return Ok(default);
    };
    let items: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| {
            parse_item(item).ok_or_else(|| UsageError::new(flag, format!("bad item \"{item}\"")))
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(UsageError::new(flag, "empty list"));
    }
    Ok(items)
}

fn run(args: &Args) -> Result<ExitCode, UsageError> {
    let (rows, cols) = match args.value("--organization") {
        None => (64, 64),
        Some(spec) => match parse_size_list(spec, "--organization")?[..] {
            [size] => size,
            _ => return Err(UsageError::new("--organization", "expected one RxC")),
        },
    };
    let seeds = parse_list(args, "--seeds", vec![1u64], |item| item.parse().ok())?;
    let default_algorithms: Vec<String> = table1_algorithms()
        .iter()
        .map(|test| test.name().to_string())
        .collect();
    let algorithms = parse_list(args, "--algorithms", default_algorithms, |item| {
        Some(item.to_string())
    })?;
    let orders = parse_list(
        args,
        "--orders",
        vec!["word line after word line".to_string()],
        |item| Some(item.to_string()),
    )?;
    let backgrounds = parse_list(args, "--backgrounds", vec![false], |item| match item {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })?;
    let population = match args.value("--population") {
        None => PopulationSpec::Mixed { count: 256 },
        Some(raw) => PopulationSpec::parse(raw)
            .ok_or_else(|| UsageError::new("--population", format!("cannot parse \"{raw}\"")))?,
    };
    let backend = match args.value("--backend") {
        None | Some("lane") => SweepBackend::LaneBatched,
        Some("list-order") => SweepBackend::LaneBatchedListOrder,
        Some("per-fault") => SweepBackend::PerFault,
        Some(other) => {
            return Err(UsageError::new(
                "--backend",
                format!("unknown backend \"{other}\""),
            ));
        }
    };
    let shard = match args.value("--shard") {
        None => Shard::whole(),
        Some(raw) => {
            Shard::parse(raw).map_err(|error| UsageError::new("--shard", error.to_string()))?
        }
    };
    let options = CampaignOptions {
        threads: args.parse("--threads", CampaignOptions::default().threads)?,
        max_attempts: args.parse_count("--max-attempts", 3)?,
        backoff: Duration::from_millis(args.parse("--backoff-ms", 10)?),
        resume: args.has("--resume"),
        job_delay: Duration::from_millis(args.parse("--job-delay-ms", 0)?),
        heartbeat: args.value("--heartbeat").map(PathBuf::from),
    };

    // Debug injections for the supervisor harness: deterministic crash,
    // silent-heartbeat and wedge behaviours, each armed by a flag.
    let injections = [
        args.parse_opt("--abort-after-records")?
            .map(|count| Injection::AbortAfterRecords { count }),
        args.parse_opt("--stall-heartbeat-after")?
            .map(|after_jobs| Injection::StallHeartbeat { after_jobs }),
        args.parse_opt("--wedge-after")?
            .map(|after_jobs| Injection::WedgeProcess { after_jobs }),
    ];
    let injector = FaultInjector::new(injections.into_iter().flatten().collect());

    let plan = CampaignPlan::cross(
        rows,
        cols,
        &seeds,
        &algorithms,
        &orders,
        &backgrounds,
        backend,
        population,
    );

    if args.has("--list") {
        println!(
            "plan: {} jobs, digest {:#018x}, shard {}/{} owns {}",
            plan.len(),
            plan.digest(),
            shard.index,
            shard.count,
            shard.jobs(plan.len() as u32).len()
        );
        for (index, job) in plan.jobs.iter().enumerate() {
            let owned = if shard.owns(index as u32) { "*" } else { " " };
            println!(
                "{owned} [{index:4}] {}x{} seed={} \"{}\" / \"{}\" bg={} {}",
                job.rows,
                job.cols,
                job.seed,
                job.algorithm,
                job.order,
                u8::from(job.background),
                job.population.render()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let journal = PathBuf::from(args.required("--journal")?);
    let export_path = args.value("--export").map(PathBuf::from);

    Ok(
        match run_campaign(&plan, shard, &journal, &options, &injector) {
            Ok(summary) => CAMPAIGN_RUN.finished(
                &summary.export,
                export_path.as_deref(),
                &format!(
                    "campaign: {} jobs ({} executed, {} resumed, {} retries, {} poisoned)",
                    summary.export.outcomes.len(),
                    summary.executed,
                    summary.skipped,
                    summary.retries,
                    summary.poisoned.len()
                ),
                &summary.poisoned,
            ),
            Err(error) => CAMPAIGN_RUN.failed(error),
        },
    )
}
