//! Static campaigns: a fixed, digest-pinned plan, one shard at a time.
//!
//! [`run_campaign`] validates the plan, picks the shard's jobs, creates
//! or resumes the plan's v1 journal, arms the optional heartbeat
//! sidecar, and hands the rest to the crate's one execution engine: the
//! same panic-isolated, journal-first worker pool that runs the daemon
//! (retries with bounded backoff, poison quarantine after
//! [`CampaignOptions::max_attempts`] attempts, byte-identical exports
//! across interrupt/resume and thread counts — the fault-injection tests
//! pin exactly that).
//!
//! [`run_job`] and the engine's per-attempt `execute_job` are the raw
//! job path: resolve the spec, build the population, sweep, digest.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use march_test::address_order::order_by_name;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::library::algorithm_by_name;
use march_test::parallel::max_threads;
use sram_model::config::ArrayOrganization;

use crate::engine::{Engine, Policy};
use crate::error::CampaignError;
use crate::faultpoint::{detonate_factories, FaultInjector};
use crate::heartbeat::HeartbeatWriter;
use crate::journal::{JobResult, Journal, Replay};
use crate::output::Export;
use crate::shard::Shard;
use crate::spec::{CampaignPlan, JobSpec};

/// Tuning knobs of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Base retry backoff: attempt `n + 1` waits `backoff × n` before
    /// re-executing (bounded by `max_attempts`).
    pub backoff: Duration,
    /// Resume from an existing journal instead of starting fresh. A
    /// missing journal file falls back to a fresh start.
    pub resume: bool,
    /// Debug: sleep this long at the start of every job (lets the CI
    /// smoke test kill a campaign reliably mid-run). Does not affect
    /// results.
    pub job_delay: Duration,
    /// Heartbeat sidecar file for a supervising process: written at
    /// campaign start and after every journal append
    /// ([`crate::heartbeat`]). `None` (the default) skips heartbeats
    /// entirely — unsupervised campaigns pay nothing.
    pub heartbeat: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            threads: max_threads(),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            resume: false,
            job_delay: Duration::ZERO,
            heartbeat: None,
        }
    }
}

/// What a campaign run did and produced.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// The deterministic per-job outcomes (every owned job, sorted).
    pub export: Export,
    /// Jobs executed to completion by *this* invocation.
    pub executed: usize,
    /// Jobs skipped because the resumed journal already completed them.
    pub skipped: usize,
    /// Retry attempts dispatched by this invocation.
    pub retries: usize,
    /// Quarantined jobs (plan indices), from this run and the journal.
    pub poisoned: Vec<u32>,
}

/// Runs (or resumes) one shard of a campaign, journaling per-job results
/// to `journal_path`.
///
/// Fails fast on an invalid plan, an unreadable or mismatched journal, or
/// an injected abort; per-job failures are retried and quarantined, not
/// returned as errors.
pub fn run_campaign(
    plan: &CampaignPlan,
    shard: Shard,
    journal_path: &Path,
    options: &CampaignOptions,
    injector: &FaultInjector,
) -> Result<CampaignSummary, CampaignError> {
    plan.validate()?;
    let owned = shard.jobs(plan.len() as u32);
    if owned.is_empty() {
        return Err(CampaignError::EmptyPlan);
    }
    let (journal, replay) = if options.resume && journal_path.exists() {
        Journal::open_resume(journal_path, plan.len() as u32, plan.digest())?
    } else {
        (
            Journal::create(journal_path, plan.len() as u32, plan.digest())?,
            Replay::default(),
        )
    };
    let policy = Policy {
        max_attempts: options.max_attempts,
        backoff: options.backoff,
        job_delay: options.job_delay,
        deadline: None,
    };
    let mut engine = Engine::seed(journal, replay, plan.jobs.clone(), &owned, policy, injector)?;
    // The campaign-start beat goes out before any worker spawns, so a
    // supervisor sees liveness while the first (possibly slow) job runs.
    if let Some(path) = &options.heartbeat {
        engine.heartbeat = Some(Mutex::new(HeartbeatWriter::create(path)?));
    }
    let workers = options.threads.clamp(1, engine.pending().max(1));
    engine.run(workers, None)?;
    let finished = engine.finish(&owned)?;
    Ok(CampaignSummary {
        export: finished.export,
        executed: finished.executed,
        skipped: finished.skipped,
        retries: finished.retries,
        poisoned: finished.poisoned,
    })
}

/// Executes one job directly — no journal, no worker pool, no retries.
///
/// This is the raw per-job path the campaign machinery wraps; the bench
/// harness times it as the overhead-free baseline the campaign's jobs/sec
/// is gated against.
///
/// # Errors
///
/// Returns the same failure message a campaign worker would journal for
/// an invalid spec.
///
/// # Panics
///
/// A panic inside the sweep (a misbehaving fault model) propagates; the
/// campaign engine catches it around each attempt and journals its
/// payload.
pub fn run_job(spec: &JobSpec) -> Result<JobResult, String> {
    execute_job(spec, 0, 1, Duration::ZERO, &FaultInjector::none())
}

/// Executes one job attempt: resolve the spec, build the population,
/// sweep, digest. Returns a message (for the journal) on any failure;
/// panics escape to the engine's `catch_unwind`.
pub(crate) fn execute_job(
    spec: &JobSpec,
    job: u32,
    attempt: u8,
    job_delay: Duration,
    injector: &FaultInjector,
) -> Result<JobResult, String> {
    injector.check_worker_kill(job, attempt);
    if let Some(stall) = injector.job_stall(job, attempt) {
        // Injected stall: the job is healthy but slow — deadline-storm
        // fuel. The result is unchanged once the stall passes.
        thread::sleep(stall);
    }
    if !job_delay.is_zero() {
        thread::sleep(job_delay);
    }
    let organization =
        ArrayOrganization::new(spec.rows, spec.cols).map_err(|error| error.to_string())?;
    let test = algorithm_by_name(&spec.algorithm)
        .ok_or_else(|| format!("unknown algorithm \"{}\"", spec.algorithm))?;
    let order = order_by_name(&spec.order, spec.seed)
        .ok_or_else(|| format!("unknown address order \"{}\"", spec.order))?;
    let mut factories = spec.population.build(&organization, spec.seed)?;
    if injector.lane_panic_armed(job, attempt) {
        factories = detonate_factories(factories);
    }
    let sweep = SweepOptions {
        background: spec.background,
        mode: DetectionMode::Full,
        // Campaign parallelism is across jobs; each sweep stays serial so
        // worker threads do not oversubscribe the machine.
        parallel: false,
        backend: spec.backend,
    };
    // The interned report carries one name string per fault — the
    // journal only ever wants the counts and the fingerprint.
    let walk = MarchWalk::new(&test, order.as_ref(), &organization);
    let report = evaluate_coverage_interned_on_walk(&walk, &factories, sweep);
    Ok(JobResult {
        detected: report.detected() as u32,
        total: report.total() as u32,
        mismatches: report.total_mismatches(),
        digest: report.digest(),
    })
}
