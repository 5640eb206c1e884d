//! Campaign job streams and the ways one pass over them runs: through
//! `run_campaign`, through a spool drained by `run_daemon`, or stage by
//! stage through the layers' public functions with a span around each
//! call (the traced pass).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;
use std::time::Instant;

use campaign::{
    daemon::daemon_flags, run_campaign, run_daemon, CampaignOptions, CampaignPlan, DaemonOptions,
    Export, FaultInjector, JobOutcome, JobResult, JobSpec, JobStatus, JobWire, Journal,
    JournalRecord, PopulationSpec, Shard, SpoolDir, SpoolResponse,
};
use march_test::address_order::{order_by_name, AddressOrder};
use march_test::algorithm::MarchTest;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::intern::InternedSweep;
use march_test::library::{algorithm_by_name, table1_algorithms};
use march_test::parallel::max_threads;
use sram_model::config::ArrayOrganization;

use crate::measure::derive_seed;
use crate::spans::{Recorder, SpanId};

/// Job-stream sizes. [`Sizes::FULL`] is what the benchmark runs; the
/// tests run the same code on [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows and columns of a dense-sweep job.
    pub dense_side: u32,
    /// Target fault count of a dense population.
    pub dense_faults: usize,
    /// Jobs in the small-job stream (a multiple of the five Table 1
    /// algorithms).
    pub small_jobs: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        dense_side: 1024,
        dense_faults: 100_000,
        small_jobs: 2000,
    };
    /// Sizes small enough for unit tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        dense_side: 32,
        dense_faults: 600,
        small_jobs: 20,
    };
}

/// The dense-sweep stream: two derived seeds × {March SS, March C-},
/// word line after word line, one dense population per job.
pub fn dense_plan(seed: u64, sizes: Sizes) -> CampaignPlan {
    CampaignPlan::cross(
        sizes.dense_side,
        sizes.dense_side,
        &[derive_seed(seed, 0), derive_seed(seed, 1)],
        &["March SS".to_string(), "March C-".to_string()],
        &["word line after word line".to_string()],
        &[false],
        SweepBackend::LaneBatched,
        PopulationSpec::Dense {
            target: sizes.dense_faults,
        },
    )
}

/// The small-job stream: `small_jobs / 5` derived seeds × the five
/// Table 1 algorithms, 16×16, linear order, 64 mixed faults per job.
pub fn small_plan(seed: u64, sizes: Sizes) -> CampaignPlan {
    let seeds: Vec<u64> = (0..sizes.small_jobs as u64 / 5)
        .map(|index| derive_seed(seed, index))
        .collect();
    let algorithms: Vec<String> = table1_algorithms()
        .iter()
        .map(|test| test.name().to_string())
        .collect();
    CampaignPlan::cross(
        16,
        16,
        &seeds,
        &algorithms,
        &["linear".to_string()],
        &[false],
        SweepBackend::LaneBatched,
        PopulationSpec::Mixed { count: 64 },
    )
}

/// Simulated clock cycles of one pass: each job's March test applied
/// once to its array, one operation per cycle.
pub fn plan_cycles(plan: &CampaignPlan) -> Result<f64, String> {
    plan.jobs.iter().try_fold(0.0, |sum, job| {
        let test = algorithm_by_name(&job.algorithm)
            .ok_or_else(|| format!("unknown algorithm \"{}\"", job.algorithm))?;
        Ok(sum + test.operation_count() as f64 * f64::from(job.rows) * f64::from(job.cols))
    })
}

/// A job spec resolved to the objects its sweep needs.
pub struct Resolved {
    /// The array.
    pub organization: ArrayOrganization,
    /// The March test.
    pub test: MarchTest,
    /// The address order.
    pub order: Box<dyn AddressOrder + Send + Sync>,
}

/// Resolves a spec exactly as a campaign worker does.
pub fn resolve(spec: &JobSpec) -> Result<Resolved, String> {
    Ok(Resolved {
        organization: ArrayOrganization::new(spec.rows, spec.cols)
            .map_err(|error| error.to_string())?,
        test: algorithm_by_name(&spec.algorithm)
            .ok_or_else(|| format!("unknown algorithm \"{}\"", spec.algorithm))?,
        order: order_by_name(&spec.order, spec.seed)
            .ok_or_else(|| format!("unknown address order \"{}\"", spec.order))?,
    })
}

/// The sweep options a campaign worker uses for `spec`.
pub fn sweep_options(spec: &JobSpec) -> SweepOptions {
    SweepOptions {
        background: spec.background,
        mode: DetectionMode::Full,
        parallel: false,
        backend: spec.backend,
    }
}

/// The journaled result of a sweep.
pub fn job_result(sweep: &InternedSweep) -> JobResult {
    JobResult {
        detected: sweep.detected() as u32,
        total: sweep.total() as u32,
        mismatches: sweep.total_mismatches(),
        digest: sweep.digest(),
    }
}

/// Runs the stages of one job, each inside a span whose parent is the
/// job's `job` span (which the caller records). The walk and the
/// population are dropped inside `coverage.sweep`, where `run_job` drops
/// them too. Returns the result and the walk's step count.
pub fn staged_job(
    spec: &JobSpec,
    job: u32,
    recorder: &mut Recorder,
) -> Result<(JobResult, usize), String> {
    let id = SpanId::Job(job);
    let parent = Some("job");
    let resolved = recorder.time(id, "spec.resolve", parent, || resolve(spec))?;
    let factories = recorder.time(id, "faultgen.build", parent, || {
        spec.population.build(&resolved.organization, spec.seed)
    })?;
    let walk = recorder.time(id, "executor.walk_build", parent, || {
        MarchWalk::new(
            &resolved.test,
            resolved.order.as_ref(),
            &resolved.organization,
        )
    });
    let steps = walk.len();
    let options = sweep_options(spec);
    let result = recorder.time(id, "coverage.sweep", parent, move || {
        let sweep = evaluate_coverage_interned_on_walk(&walk, &factories, options);
        job_result(&sweep)
    });
    Ok((result, steps))
}

/// One pass's wall time, export bytes and failed operations.
pub struct PassOutcome {
    /// Seconds from the first submission to the export bytes in hand.
    pub wall: f64,
    /// The export.
    pub export: Vec<u8>,
    /// Failed operations, one line each.
    pub failures: Vec<String>,
}

/// A fresh directory for one pass's journal, spool and export. Nothing
/// is deleted between passes, so no pass pays for the previous pass's
/// file removal; the whole work directory goes when the run ends.
fn pass_dir(work: &Path, kind: &str) -> Result<PathBuf, String> {
    static PASSES: AtomicUsize = AtomicUsize::new(0);
    let dir = work.join(format!("{kind}-{}", PASSES.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).map_err(|error| format!("create {}: {error}", dir.display()))?;
    Ok(dir)
}

/// The spool name of job `index`; names sort in plan order.
fn spool_name(index: usize) -> String {
    format!("job{index:06}")
}

fn count_failures(failures: &mut Vec<String>, count: usize, what: &str) {
    failures.extend((0..count).map(|_| what.to_string()));
}

/// One pass through `run_campaign` with `nproc` workers.
pub fn static_pass(plan: &CampaignPlan, work: &Path) -> Result<PassOutcome, String> {
    let journal = pass_dir(work, "static")?.join("journal");
    let options = CampaignOptions {
        threads: max_threads(),
        ..CampaignOptions::default()
    };
    let start = Instant::now();
    let summary = run_campaign(
        plan,
        Shard::whole(),
        &journal,
        &options,
        &FaultInjector::none(),
    )
    .map_err(|error| error.to_string())?;
    let export = summary.export.to_bytes();
    let wall = start.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    count_failures(&mut failures, summary.retries, "failed attempt");
    count_failures(&mut failures, summary.poisoned.len(), "poisoned job");
    count_failures(
        &mut failures,
        plan.len().saturating_sub(summary.executed),
        "job not executed",
    );
    Ok(PassOutcome {
        wall,
        export,
        failures,
    })
}

/// One pass through the daemon: one client publishes the whole stream
/// as a batch, then `run_daemon` drains it with default options, quiesce
/// set and a queue bound equal to the batch, so nothing is shed.
pub fn daemon_pass(plan: &CampaignPlan, work: &Path) -> Result<PassOutcome, String> {
    let dir = pass_dir(work, "daemon")?;
    let (spool_dir, journal) = (dir.join("spool"), dir.join("journal"));
    let (shutdown, quiesce) = daemon_flags();
    quiesce.store(true, Ordering::SeqCst);
    let options = DaemonOptions {
        threads: max_threads(),
        queue_limit: plan.len(),
        shutdown,
        quiesce,
        ..DaemonOptions::default()
    };
    let start = Instant::now();
    let spool = SpoolDir::open(&spool_dir).map_err(|error| error.to_string())?;
    for (index, job) in plan.jobs.iter().enumerate() {
        spool
            .submit(&spool_name(index), job)
            .map_err(|error| error.to_string())?;
    }
    let summary = run_daemon(&spool, &journal, &options, &FaultInjector::none())
        .map_err(|error| error.to_string())?;
    let export = summary.export.to_bytes();
    let wall = start.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    count_failures(&mut failures, summary.retries, "failed attempt");
    count_failures(&mut failures, summary.poisoned.len(), "poisoned job");
    count_failures(&mut failures, summary.shed, "shed submission");
    count_failures(&mut failures, summary.rejected, "rejected submission");
    count_failures(&mut failures, summary.timed_out, "timed-out attempt");
    count_failures(&mut failures, summary.duplicates, "duplicate submission");
    count_failures(
        &mut failures,
        plan.len().saturating_sub(summary.executed),
        "job not executed",
    );
    Ok(PassOutcome {
        wall,
        export,
        failures,
    })
}

/// One job's result, or why it has none.
type Attempt = Result<JobResult, String>;

/// A job handed to the traced workers: its plan index and, on the daemon
/// path, when its intake began (the start of its `job` span).
type Ready = (usize, Option<Instant>);

/// Daemon intake run by the first traced worker before it joins the
/// others: it admits jobs and hands each one over as soon as it is
/// journaled, as `run_daemon`'s scanning worker does.
type Intake<'a> = Box<dyn FnOnce(&mut Recorder, &Sender<Ready>) -> Result<(), String> + Send + 'a>;

/// Appends one record (fsync included) to the shared journal.
fn append(journal: &Mutex<Journal>, record: &JournalRecord) -> Result<(), String> {
    journal
        .lock()
        .expect("journal lock poisoned by a panicking worker")
        .append(record, &FaultInjector::none())
        .map_err(|error| error.to_string())
}

/// Executes every job of `plan` on `nproc` threads through
/// [`staged_job`], journaling each result as a `Completed` record inside
/// the job's span. Without `intake` every job is ready at once.
fn execute_traced(
    plan: &CampaignPlan,
    journal: &Mutex<Journal>,
    origin: Instant,
    stream: &'static str,
    pass: u32,
    intake: Option<Intake<'_>>,
) -> Result<(Vec<Recorder>, Vec<Attempt>), String> {
    let (sender, receiver) = mpsc::channel::<Ready>();
    let intake = match intake {
        Some(intake) => Some((intake, sender)),
        None => {
            for index in 0..plan.len() {
                sender.send((index, None)).expect("receiver alive");
            }
            // Workers stop once the channel is empty and has no sender.
            drop(sender);
            None
        }
    };
    let intake = Mutex::new(intake);
    let intake_error = Mutex::new(None);
    let receiver = Mutex::new(receiver);
    let results: Vec<Mutex<Option<Attempt>>> = plan.jobs.iter().map(|_| Mutex::new(None)).collect();
    let recorders = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..max_threads().min(plan.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut recorder = Recorder::new(origin, stream, pass);
                    let admit = intake.lock().expect("intake slot").take();
                    if let Some((admit, sender)) = admit {
                        if let Err(error) = admit(&mut recorder, &sender) {
                            *intake_error.lock().expect("intake error slot") = Some(error);
                        }
                    }
                    loop {
                        let next = receiver.lock().expect("job channel").recv();
                        let Ok((index, started)) = next else {
                            return recorder;
                        };
                        let spec = &plan.jobs[index];
                        let job = index as u32;
                        let start = started.unwrap_or_else(Instant::now);
                        let outcome =
                            staged_job(spec, job, &mut recorder).and_then(|(result, _)| {
                                let record = JournalRecord::Completed {
                                    job,
                                    attempt: 1,
                                    result,
                                };
                                recorder.time(
                                    SpanId::Job(job),
                                    "journal.append",
                                    Some("job"),
                                    || append(journal, &record),
                                )?;
                                Ok(result)
                            });
                        recorder.record(SpanId::Job(job), "job", None, start, Instant::now());
                        *results[index].lock().expect("result slot") = Some(outcome);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("traced worker panicked"))
            .collect()
    });
    if let Some(error) = intake_error.into_inner().expect("intake error slot") {
        return Err(error);
    }
    let results = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .unwrap_or_else(|| Err("job never ran".to_string()))
        })
        .collect();
    Ok((recorders, results))
}

/// Ends a traced pass: builds, encodes and writes the export inside an
/// `output.export` span, then records the `pass` span from `start`.
fn finish_traced(
    plan: &CampaignPlan,
    results: Vec<Attempt>,
    export_path: &Path,
    start: Instant,
    mut main: Recorder,
    mut recorders: Vec<Recorder>,
    mut failures: Vec<String>,
) -> Result<(PassOutcome, Vec<Recorder>), String> {
    let mut outcomes = Vec::with_capacity(results.len());
    for (job, result) in results.into_iter().enumerate() {
        match result {
            Ok(result) => outcomes.push(JobOutcome {
                job: job as u32,
                status: JobStatus::Completed,
                result,
            }),
            Err(message) => failures.push(format!("job {job}: {message}")),
        }
    }
    let export = main.time(SpanId::Pass, "output.export", Some("pass"), || {
        let export = Export::new(plan.digest(), plan.len() as u32, outcomes);
        let bytes = export.to_bytes();
        export
            .write(export_path)
            .map_err(|error| error.to_string())?;
        Ok::<_, String>(bytes)
    })?;
    let end = Instant::now();
    main.record(SpanId::Pass, "pass", None, start, end);
    recorders.push(main);
    let outcome = PassOutcome {
        wall: end.duration_since(start).as_secs_f64(),
        export,
        failures,
    };
    Ok((outcome, recorders))
}

/// A traced pass of the static path: v1 journal, staged jobs on `nproc`
/// threads, export.
pub fn static_pass_traced(
    plan: &CampaignPlan,
    work: &Path,
    origin: Instant,
    stream: &'static str,
    pass: u32,
) -> Result<(PassOutcome, Vec<Recorder>), String> {
    let dir = pass_dir(work, "traced")?;
    let journal_path = dir.join("journal");
    let start = Instant::now();
    let journal = Journal::create(&journal_path, plan.len() as u32, plan.digest())
        .map_err(|error| error.to_string())?;
    let (recorders, results) =
        execute_traced(plan, &Mutex::new(journal), origin, stream, pass, None)?;
    finish_traced(
        plan,
        results,
        &dir.join("export"),
        start,
        Recorder::new(origin, stream, pass),
        recorders,
        Vec::new(),
    )
}

/// A traced pass of the daemon path: the client publishes the batch;
/// the first worker scans the spool and admits every submission (v2
/// `JobAdded` append, response, archive) inside its job's span, handing
/// each job to the other workers as it is admitted, then joins them; a
/// final scan sees the archived spool, and the export is written. The
/// daemon's periodic re-scans while jobs drain are not recreated.
pub fn daemon_pass_traced(
    plan: &CampaignPlan,
    work: &Path,
    origin: Instant,
    stream: &'static str,
    pass: u32,
) -> Result<(PassOutcome, Vec<Recorder>), String> {
    let dir = pass_dir(work, "traced-daemon")?;
    let (spool_dir, journal_path) = (dir.join("spool"), dir.join("journal"));
    let mut main = Recorder::new(origin, stream, pass);
    let error = |error: campaign::CampaignError| error.to_string();
    let start = Instant::now();
    let spool = SpoolDir::open(&spool_dir).map_err(error)?;
    for (index, job) in plan.jobs.iter().enumerate() {
        main.time(SpanId::Job(index as u32), "spool.submit", None, || {
            spool.submit(&spool_name(index), job)
        })
        .map_err(error)?;
    }
    let journal = Mutex::new(Journal::create_dynamic(&journal_path).map_err(error)?);
    let intake: Intake<'_> = Box::new(|recorder: &mut Recorder, ready: &Sender<Ready>| {
        let submissions = recorder
            .time(SpanId::Pass, "spool.scan_pending", Some("pass"), || {
                spool.scan()
            })
            .map_err(error)?;
        if submissions.len() != plan.len() {
            return Err(format!(
                "spool scan found {} of {} submissions",
                submissions.len(),
                plan.len()
            ));
        }
        for (index, submission) in submissions.iter().enumerate() {
            let job = index as u32;
            let id = SpanId::Job(job);
            let admitted = Instant::now();
            let spec = submission.spec.as_ref().map_err(Clone::clone)?;
            if spec != &plan.jobs[index] {
                return Err(format!("spool returned a different spec for job {job}"));
            }
            let wire = JobWire::from_spec(spec)?;
            let record = JournalRecord::JobAdded { job, wire };
            recorder.time(id, "journal.added_append", Some("job"), || {
                append(&journal, &record)
            })?;
            recorder
                .time(id, "spool.respond", Some("job"), || {
                    spool.respond(&submission.name, &SpoolResponse::Accepted { job })
                })
                .map_err(error)?;
            recorder
                .time(id, "spool.archive", Some("job"), || {
                    spool.archive(&submission.name)
                })
                .map_err(error)?;
            ready
                .send((index, Some(admitted)))
                .map_err(|_| "traced workers stopped".to_string())?;
        }
        Ok(())
    });
    let (recorders, results) = execute_traced(plan, &journal, origin, stream, pass, Some(intake))?;
    let leftover = main
        .time(SpanId::Pass, "spool.scan_archived", Some("pass"), || {
            spool.scan()
        })
        .map_err(error)?;
    let mut failures = Vec::new();
    if !leftover.is_empty() {
        failures.push(format!("{} submissions left in the spool", leftover.len()));
    }
    finish_traced(
        plan,
        results,
        &dir.join("export"),
        start,
        main,
        recorders,
        failures,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::run_job;

    fn work_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jobbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streams_derive_from_the_seed() {
        let a = small_plan(1, Sizes::TINY);
        assert_eq!(a.len(), Sizes::TINY.small_jobs);
        assert_eq!(a.jobs, small_plan(1, Sizes::TINY).jobs);
        assert_ne!(a.jobs, small_plan(2, Sizes::TINY).jobs);
        let dense = dense_plan(1, Sizes::TINY);
        assert_eq!(dense.len(), 4);
        assert!(a.validate().is_ok() && dense.validate().is_ok());
    }

    #[test]
    fn staged_job_matches_run_job() {
        let plan = dense_plan(3, Sizes::TINY);
        let mut recorder = Recorder::new(Instant::now(), "dense", 0);
        for (index, spec) in plan.jobs.iter().enumerate() {
            let (result, steps) = staged_job(spec, index as u32, &mut recorder).unwrap();
            assert_eq!(result, run_job(spec).unwrap());
            assert!(steps > 0);
        }
        assert_eq!(recorder.spans().len(), 4 * plan.len());
    }

    #[test]
    fn every_pass_kind_exports_the_same_bytes() {
        let work = work_dir("passes");
        let plan = small_plan(9, Sizes::TINY);
        let origin = Instant::now();
        let reference = static_pass(&plan, &work).unwrap();
        assert!(reference.failures.is_empty());
        let daemon = daemon_pass(&plan, &work).unwrap();
        assert!(daemon.failures.is_empty());
        assert_eq!(daemon.export, reference.export);
        let (traced, recorders) = static_pass_traced(&plan, &work, origin, "small", 1).unwrap();
        assert!(traced.failures.is_empty());
        assert_eq!(traced.export, reference.export);
        assert!(!recorders.is_empty());
        let (traced, _) = daemon_pass_traced(&plan, &work, origin, "small", 2).unwrap();
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.export, reference.export);
        std::fs::remove_dir_all(&work).unwrap();
    }
}
