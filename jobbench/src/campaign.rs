//! Timed and traced runs of the `dense_sweep_1024` workload.
//!
//! The traced run also drains a 2000-job small stream through
//! `run_campaign` and through a spool and `run_daemon`. The runner,
//! pool, journal, export, spool and daemon layers are measured on that
//! stream, where their per-job cost shows, and each daemon export is
//! checked against `run_campaign`'s. The small stream is not a timed
//! workload: its rate follows the host's fsync latency, which does not
//! repeat from run to run.

use std::path::Path;
use std::time::{Duration, Instant};

use campaign::{run_job, CampaignPlan, Export};
use march_test::batch::FaultBatch;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::parallel::max_threads;

use crate::cli::Args;
use crate::jobs::{
    daemon_pass, daemon_pass_traced, dense_plan, job_result, plan_cycles, resolve, small_plan,
    staged_job, static_pass, static_pass_traced, sweep_options, PassOutcome, Sizes,
};
use crate::measure::{
    derive_seed, median, peak_of_passes, peak_rss_mb, percentile, reset_peak_rss, RunReport,
    MIN_PASSES, SETUP_REPEATS,
};
use crate::spans::{Recorder, Span, SpanId, Trace};
use crate::table1;

/// Span stream of the dense jobs.
const DENSE: &str = "dense";
/// Span stream of the small-job companion passes.
const SMALL: &str = "small";
/// The reconciliation runs each job as back-to-back pairs of `run_job`
/// and the staged job, alternating which goes first, and compares the
/// median of the per-pair ratios: drift common to both halves of a pair
/// cancels, and the median drops one-off stalls. Short jobs get more
/// pairs, up to this time per job and side...
const RECONCILE_BUDGET_S: f64 = 0.002;
/// ...within these bounds.
const RECONCILE_PAIRS: (usize, usize) = (3, 31);
/// A job outside the tolerance gets more pairs, pooled with its first
/// ones, up to this time per job and side and this many pairs: 10 to 18
/// pairs for a dense job, which keeps a traced run inside three minutes
/// even when every dense job needs them, and 255 (about 40 ms) for a
/// small one, so a host stall that spans a small job's first pairs is
/// outvoted.
const RECONCILE_RETRY: (f64, usize) = (5.0, 255);
/// Largest allowed gap between a job's stage spans and `run_job`, as a
/// share of `run_job`.
const RECONCILE_TOLERANCE: f64 = 0.1;
/// Faults per dense population re-simulated on the per-fault path.
const DENSE_SAMPLE: u64 = 256;

/// Counts a pass's jobs and failures, and compares its export with the
/// reference bytes.
fn absorb(
    report: &mut RunReport,
    jobs: usize,
    outcome: &PassOutcome,
    reference: Option<&[u8]>,
    pass: &str,
) {
    report.attempted += jobs as u64;
    for failure in &outcome.failures {
        report.fail(format!("{pass}: {failure}"));
    }
    if reference.is_some_and(|reference| reference != outcome.export) {
        report.fail(format!("{pass}: export bytes differ from the first pass's"));
    }
}

/// A timed run: set-ups, measured passes, output checks, end-to-end
/// metrics.
pub fn timed(
    args: &Args,
    process_start: Instant,
    sizes: Sizes,
    work: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    // Set-up: build the job stream and run one warm-up pass. The first
    // set-up is timed from process start.
    let mut setups = Vec::new();
    let mut prepared: Option<(CampaignPlan, Vec<u8>)> = None;
    for repeat in 0..SETUP_REPEATS {
        let start = if repeat == 0 {
            process_start
        } else {
            Instant::now()
        };
        let plan = dense_plan(args.seed, sizes);
        let warm = static_pass(&plan, work)?;
        let reference = prepared.as_ref().map(|(_, bytes)| bytes.as_slice());
        absorb(report, plan.len(), &warm, reference, "warm-up pass");
        setups.push(start.elapsed().as_secs_f64());
        prepared.get_or_insert((plan, warm.export));
    }
    let (plan, reference) = prepared.expect("at least one set-up");
    let jobs = plan.len() as f64;
    let cycles = plan_cycles(&plan)?;

    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let measured = Instant::now();
    while walls.len() < MIN_PASSES || measured.elapsed() < Duration::from_secs(args.seconds) {
        reset_peak_rss()?;
        let outcome = static_pass(&plan, work)?;
        peaks.push(peak_rss_mb()?);
        absorb(report, plan.len(), &outcome, Some(&reference), "pass");
        walls.push(outcome.wall);
    }
    report.set("peak_rss_mb", peak_of_passes(&peaks));
    check_dense_sample(&plan, &reference, args.seed, report)?;

    let rates: Vec<f64> = walls.iter().map(|wall| jobs / wall).collect();
    let cycle_rates: Vec<f64> = walls.iter().map(|wall| cycles / wall).collect();
    report.set("setup_s", median(&setups));
    report.set("jobs_per_s", median(&rates));
    report.set("sim_cycles_per_s", median(&cycle_rates));
    report.set("prr_error_pct", table1::prr_error_pct()?);
    eprintln!(
        "dense_sweep_1024: {} passes of {} jobs, pass wall q1/median/q3 {:.4}/{:.4}/{:.4} s",
        walls.len(),
        plan.len(),
        percentile(&walls, 25.0),
        median(&walls),
        percentile(&walls, 75.0)
    );
    Ok(())
}

/// Re-simulates a seeded sample of every dense population on the
/// per-fault golden path over the same walk, and requires each sampled
/// outcome, and the whole job's result, to match the lane-batched sweep
/// the campaign exported.
fn check_dense_sample(
    plan: &CampaignPlan,
    reference: &[u8],
    seed: u64,
    report: &mut RunReport,
) -> Result<(), String> {
    let export = Export::from_bytes(reference).map_err(|error| error.to_string())?;
    for (index, spec) in plan.jobs.iter().enumerate() {
        let resolved = resolve(spec)?;
        let factories = spec.population.build(&resolved.organization, spec.seed)?;
        let walk = MarchWalk::new(
            &resolved.test,
            resolved.order.as_ref(),
            &resolved.organization,
        );
        let lane = evaluate_coverage_interned_on_walk(&walk, &factories, sweep_options(spec));
        let exported = export.outcomes.iter().find(|o| o.job == index as u32);
        if exported.map(|outcome| outcome.result) != Some(job_result(&lane)) {
            report.fail(format!(
                "job {index}: exported result differs from the lane sweep"
            ));
        }
        let golden = SweepOptions {
            backend: SweepBackend::PerFault,
            ..sweep_options(spec)
        };
        let sample_seed = derive_seed(seed, 1_000 + index as u64);
        for draw in 0..DENSE_SAMPLE {
            let fault = (derive_seed(sample_seed, draw) % factories.len() as u64) as usize;
            let single = evaluate_coverage_interned_on_walk(
                &walk,
                std::slice::from_ref(&factories[fault]),
                golden,
            );
            let (per_fault, batched) = (single.outcome(0), lane.outcome(fault));
            let (a, b) = (per_fault.code(), batched.code());
            if per_fault.name() != batched.name()
                || (a.kind, a.detected, a.mismatches) != (b.kind, b.detected, b.mismatches)
            {
                report.fail(format!(
                    "job {index} fault {fault}: per-fault \"{per_fault}\" vs lane \"{batched}\""
                ));
            }
        }
    }
    Ok(())
}

/// Pass walls of the traced run's measured phase, in seconds.
#[derive(Default)]
struct Walls {
    dense: Vec<f64>,
    dense_traced: Vec<f64>,
    small: Vec<f64>,
    daemon: Vec<f64>,
}

/// A traced run. For the measured phase it cycles through untraced and
/// traced passes of the dense stream, of the small stream through
/// `run_campaign`, and of the small stream through the daemon. Then every
/// job of both streams is reconciled serially against `run_job`.
pub fn traced(
    args: &Args,
    sizes: Sizes,
    work: &Path,
    trace_path: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut trace = Trace::default();
    let dense = dense_plan(args.seed, sizes);
    let small = small_plan(args.seed, sizes);
    let warm = static_pass(&dense, work)?;
    absorb(report, dense.len(), &warm, None, "warm-up dense pass");
    let dense_reference = warm.export;
    let warm = static_pass(&small, work)?;
    absorb(report, small.len(), &warm, None, "warm-up small pass");
    let small_reference = warm.export;

    let mut walls = Walls::default();
    let mut appends = Vec::new();
    let (mut dense_pass, mut small_pass) = (0, 0);
    let measured = Instant::now();
    while walls.dense_traced.len() < MIN_PASSES
        || measured.elapsed() < Duration::from_secs(args.seconds)
    {
        let outcome = static_pass(&dense, work)?;
        absorb(
            report,
            dense.len(),
            &outcome,
            Some(&dense_reference),
            "dense pass",
        );
        walls.dense.push(outcome.wall);
        dense_pass += 1;
        let (outcome, recorders) = static_pass_traced(&dense, work, origin, DENSE, dense_pass)?;
        absorb(
            report,
            dense.len(),
            &outcome,
            Some(&dense_reference),
            "traced dense pass",
        );
        walls.dense_traced.push(outcome.wall);
        recorders
            .into_iter()
            .for_each(|recorder| trace.absorb(recorder));

        let outcome = static_pass(&small, work)?;
        absorb(
            report,
            small.len(),
            &outcome,
            Some(&small_reference),
            "small pass",
        );
        walls.small.push(outcome.wall);
        small_pass += 1;
        let (outcome, recorders) = static_pass_traced(&small, work, origin, SMALL, small_pass)?;
        absorb(
            report,
            small.len(),
            &outcome,
            Some(&small_reference),
            "traced small pass",
        );
        appends.extend(
            recorders
                .iter()
                .flat_map(Recorder::spans)
                .filter(|span| span.name == "journal.append")
                .map(Span::seconds),
        );
        recorders
            .into_iter()
            .for_each(|recorder| trace.absorb(recorder));

        let outcome = daemon_pass(&small, work)?;
        absorb(
            report,
            small.len(),
            &outcome,
            Some(&small_reference),
            "daemon pass",
        );
        walls.daemon.push(outcome.wall);
        small_pass += 1;
        let (outcome, recorders) = daemon_pass_traced(&small, work, origin, SMALL, small_pass)?;
        absorb(
            report,
            small.len(),
            &outcome,
            Some(&small_reference),
            "traced daemon pass",
        );
        recorders
            .into_iter()
            .for_each(|recorder| trace.absorb(recorder));
    }

    let mut serial = Recorder::new(origin, DENSE, 0);
    let (_, walk_steps) = reconcile_stream(&dense, &mut serial, report)?;
    let (mut merged_steps, mut lane_faults, mut faults) = (0, 0, 0);
    for (index, spec) in dense.jobs.iter().enumerate() {
        // `batch.plan` beside the job span: the sweep plans internally,
        // so timing it inside the job would count it twice.
        let resolved = resolve(spec)?;
        let population = spec.population.build(&resolved.organization, spec.seed)?;
        let walk = MarchWalk::new(
            &resolved.test,
            resolved.order.as_ref(),
            &resolved.organization,
        );
        let batch = serial.time(SpanId::Job(index as u32), "batch.plan", None, || {
            FaultBatch::plan(&walk, &population)
        });
        merged_steps += batch.merged_schedule_steps();
        lane_faults += batch.lane_fault_count();
        faults += batch.fault_count();
    }
    trace.absorb(serial);
    let mut serial = Recorder::new(origin, SMALL, 0);
    let (small_jobs, _) = reconcile_stream(&small, &mut serial, report)?;
    trace.absorb(serial);

    // One measurement per distinct walk: the seeds share them.
    let mut walk_rss: f64 = 0.0;
    let mut measured_walks: Vec<&str> = Vec::new();
    for spec in &dense.jobs {
        if !measured_walks.contains(&spec.algorithm.as_str()) {
            measured_walks.push(&spec.algorithm);
            walk_rss = walk_rss.max(walk_rss_mb(spec)?);
        }
    }

    let jobs = small.len() as f64;
    let workers = max_threads().min(small.len()) as f64;
    let serial_sum: f64 = small_jobs.iter().sum();
    let overhead = |walls: &[f64]| (median(walls) * workers - serial_sum) / jobs;
    let dense_median = |name| median(&trace.seconds(DENSE, name, true));
    let small_median = |name| median(&trace.seconds(SMALL, name, false));
    report.set("faultgen.build_s", dense_median("faultgen.build"));
    report.set("executor.walk_build_s", dense_median("executor.walk_build"));
    report.set("executor.walk_steps", walk_steps as f64);
    report.set("executor.walk_rss_mb", walk_rss);
    report.set("batch.plan_s", dense_median("batch.plan"));
    report.set("batch.merged_steps", merged_steps as f64);
    report.set(
        "batch.lane_ratio",
        lane_faults as f64 / faults.max(1) as f64,
    );
    report.set("coverage.sweep_s", dense_median("coverage.sweep"));
    report.set("runner.job_s", median(&small_jobs));
    report.set("runner.overhead_s_per_job", overhead(&walls.small));
    report.set("daemon.overhead_s_per_job", overhead(&walls.daemon));
    report.set(
        "pool.efficiency",
        serial_sum / (workers * median(&walls.small)),
    );
    report.set("journal.append_s_p50", percentile(&appends, 50.0));
    report.set("journal.append_s_p99", percentile(&appends, 99.0));
    let added = trace.seconds(SMALL, "journal.added_append", false);
    report.set("journal.added_append_s_p50", percentile(&added, 50.0));
    report.set("output.export_s", small_median("output.export"));
    let submits = trace.seconds(SMALL, "spool.submit", false);
    report.set("spool.submit_s_p50", percentile(&submits, 50.0));
    report.set("spool.scan_pending_s", small_median("spool.scan_pending"));
    report.set("spool.scan_archived_s", small_median("spool.scan_archived"));
    report.set(
        "trace.overhead_ratio",
        median(&walls.dense_traced) / median(&walls.dense) - 1.0,
    );
    eprintln!(
        "dense_sweep_1024: {} rounds; pass wall medians: dense {:.4} s untraced, {:.4} s traced; \
         small stream {:.4} s through run_campaign, {:.4} s through run_daemon",
        walls.dense.len(),
        median(&walls.dense),
        median(&walls.dense_traced),
        median(&walls.small),
        median(&walls.daemon)
    );
    trace.print_layer_times();
    trace
        .write(trace_path)
        .map_err(|error| format!("write {}: {error}", trace_path.display()))
}

/// Reconciles every job of `plan`; returns each job's median `run_job`
/// time and the walk steps of one pass.
fn reconcile_stream(
    plan: &CampaignPlan,
    recorder: &mut Recorder,
    report: &mut RunReport,
) -> Result<(Vec<f64>, usize), String> {
    let mut job_seconds = Vec::with_capacity(plan.len());
    let mut walk_steps = 0;
    for (index, spec) in plan.jobs.iter().enumerate() {
        let measured = reconcile(spec, index as u32, recorder, report)?;
        walk_steps += measured.walk_steps;
        if !measured.within_tolerance() {
            report.fail(format!(
                "{} job {index}: stage spans sum to {:.3} × run_job's {:.6} s over {} pairs",
                recorder.stream(),
                measured.ratio,
                measured.run_job_s,
                measured.pairs
            ));
        }
        job_seconds.push(measured.run_job_s);
    }
    Ok((job_seconds, walk_steps))
}

/// One job's reconciliation.
struct Reconciled {
    /// Median `run_job` time.
    run_job_s: f64,
    /// Median over pairs of stage-span sum ÷ `run_job` time.
    ratio: f64,
    pairs: usize,
    walk_steps: usize,
}

impl Reconciled {
    fn within_tolerance(&self) -> bool {
        (self.ratio - 1.0).abs() <= RECONCILE_TOLERANCE
    }
}

/// Pairs that fit in `budget_s` per side for a job of `job_s` seconds,
/// at least the fewest pairs and at most `most`.
fn pairs_within(budget_s: f64, job_s: f64, most: usize) -> usize {
    ((budget_s / job_s.max(1e-9)).ceil() as usize).clamp(RECONCILE_PAIRS.0, most)
}

fn reconcile(
    spec: &campaign::JobSpec,
    job: u32,
    recorder: &mut Recorder,
    report: &mut RunReport,
) -> Result<Reconciled, String> {
    let direct = || {
        let start = Instant::now();
        let result = run_job(spec);
        (result, start.elapsed().as_secs_f64())
    };
    let staged = |recorder: &mut Recorder| {
        let first = recorder.spans().len();
        let start = Instant::now();
        let result = staged_job(spec, job, recorder);
        recorder.record(SpanId::Job(job), "job", None, start, Instant::now());
        let stages: f64 = recorder.spans()[first..]
            .iter()
            .filter(|span| span.parent == Some("job"))
            .map(|span| span.seconds())
            .sum();
        (result, stages)
    };
    let (mut direct_times, mut ratios) = (Vec::new(), Vec::new());
    let (mut pairs, mut walk_steps, mut retried) = (RECONCILE_PAIRS.0, 0, false);
    loop {
        while direct_times.len() < pairs {
            let ((direct_result, direct_s), (staged_result, stages_s)) =
                if direct_times.len() % 2 == 0 {
                    let first = direct();
                    (first, staged(recorder))
                } else {
                    let first = staged(recorder);
                    (direct(), first)
                };
            report.attempted += 2;
            let (staged_result, steps) = staged_result?;
            if direct_result? != staged_result {
                report.fail(format!("job {job}: staged result differs from run_job"));
            }
            if direct_times.is_empty() {
                walk_steps = steps;
                pairs = pairs_within(RECONCILE_BUDGET_S, direct_s, RECONCILE_PAIRS.1);
            }
            direct_times.push(direct_s);
            ratios.push(stages_s / direct_s);
        }
        let measured = Reconciled {
            run_job_s: median(&direct_times),
            ratio: median(&ratios),
            pairs,
            walk_steps,
        };
        let more = pairs_within(RECONCILE_RETRY.0, measured.run_job_s, RECONCILE_RETRY.1);
        if measured.within_tolerance() || retried || more <= pairs {
            return Ok(measured);
        }
        retried = true;
        pairs = more;
    }
}

/// The rise of the peak resident set across one `MarchWalk::new`, in MiB,
/// measured alone on the calling thread after a peak reset.
fn walk_rss_mb(spec: &campaign::JobSpec) -> Result<f64, String> {
    let resolved = resolve(spec)?;
    reset_peak_rss()?;
    let before = peak_rss_mb()?;
    let walk = MarchWalk::new(
        &resolved.test,
        resolved.order.as_ref(),
        &resolved.organization,
    );
    let after = peak_rss_mb()?;
    drop(walk);
    Ok(after - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Workload;
    use crate::measure::run_report;

    fn args(seed: u64, trace: bool) -> Args {
        Args {
            workload: Workload::DenseSweep1024,
            seed,
            seconds: 1,
            trace,
        }
    }

    fn work_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jobbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_print_the_same_names_for_any_seed() {
        let work = work_dir("campaign");
        let mut names = Vec::new();
        for seed in [1, 2] {
            let mut report = run_report(|report| {
                timed(
                    &args(seed, false),
                    Instant::now(),
                    Sizes::TINY,
                    &work,
                    report,
                )
            });
            let printed = report.finish(false);
            assert!(report.correct(), "seed {seed}: {:?}", report.problems);
            names.push(printed.iter().map(|(def, _)| def.name).collect::<Vec<_>>());
        }
        assert_eq!(names[0], names[1]);
        std::fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn tiny_traced_run_checks_and_traces_every_campaign_layer() {
        let work = work_dir("traced");
        let trace_path = work.join("trace.tsv");
        let mut report =
            run_report(|report| traced(&args(4, true), Sizes::TINY, &work, &trace_path, report));
        report.finish(true);
        // Tiny jobs take microseconds, so only the output checks are
        // asserted here; timing reconciliation is the full run's job.
        let unexpected: Vec<_> = report
            .problems
            .iter()
            .filter(|problem| !problem.contains("stage spans sum"))
            .collect();
        assert!(unexpected.is_empty(), "{unexpected:?}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        for (stream, name) in [
            (DENSE, "job"),
            (DENSE, "spec.resolve"),
            (DENSE, "faultgen.build"),
            (DENSE, "executor.walk_build"),
            (DENSE, "coverage.sweep"),
            (DENSE, "journal.append"),
            (DENSE, "output.export"),
            (DENSE, "batch.plan"),
            (SMALL, "job"),
            (SMALL, "journal.append"),
            (SMALL, "journal.added_append"),
            (SMALL, "spool.submit"),
            (SMALL, "spool.respond"),
            (SMALL, "spool.archive"),
            (SMALL, "spool.scan_pending"),
            (SMALL, "spool.scan_archived"),
            (SMALL, "output.export"),
        ] {
            assert!(
                text.contains(&format!("# {stream}\t{name}\t")),
                "trace lacks {stream} {name}"
            );
        }
        std::fs::remove_dir_all(&work).unwrap();
    }
}
