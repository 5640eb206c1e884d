//! The long-running campaign daemon: dynamic job intake in front of the
//! crate's one execution engine.
//!
//! [`run_daemon`] opens (or resumes) a dynamic (v2) journal, rebuilds the
//! admitted plan from its [`crate::journal::JournalRecord::JobAdded`]
//! records, and drives the same engine as [`crate::run_campaign`] — with
//! two additions the static runner does not use: a per-attempt deadline
//! and an intake hook that scans the [`crate::spool`] drop directory
//! while the run is live. What this module owns is that intake and the
//! admission decision (`admit`). Robustness properties, each pinned by
//! a test:
//!
//! * **Bounded admission.** At most [`DaemonOptions::queue_limit`]
//!   attempts wait in the queue; a submission that would exceed it gets
//!   an explicit `queue-full` response and is *not* journaled — overload
//!   sheds visibly instead of growing an unbounded queue
//!   ([`SpoolResponse::QueueFull`]).
//! * **Exactly-once admission.** Submissions dedupe by
//!   [`crate::spec::JobSpec::digest`]: a resubmitted or re-offered job
//!   answers `duplicate` with the original plan index. Combined with the
//!   journal-append-then-archive intake order, a crash anywhere in
//!   intake re-offers the spool file and dedup absorbs it — at-least-once
//!   offer, exactly-once run.
//! * **Deadlines, not wedges.** With [`DaemonOptions::deadline`] set,
//!   each attempt runs under a watchdog; an overrunning attempt is
//!   abandoned and journaled as [`crate::journal::JournalRecord::TimedOut`]
//!   (burning an attempt, quarantining at the attempt cap) while the
//!   worker moves on.
//! * **Graceful drain.** When [`DaemonOptions::shutdown`] flips (the
//!   binary's SIGTERM handler), intake stops, queued and in-flight jobs
//!   finish, and the run returns with a journal in which every admitted
//!   job has a final fate — exit 0, nothing lost. A SIGKILL instead
//!   resumes from the journal and produces a byte-identical export; the
//!   CI `daemon-drain-resume` job diffs exactly that.
//!
//! Determinism contract: the export covers the dynamic plan in journal
//! order with the dynamic plan's own digest, so a daemon campaign's
//! export is byte-identical to `campaign_run` executing the same jobs as
//! a static up-front plan — regardless of thread count, timeouts,
//! crashes, or how ragged the arrival timing was.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use march_test::parallel::max_threads;

use crate::engine::{Engine, Intake, Policy};
use crate::error::CampaignError;
use crate::faultpoint::FaultInjector;
use crate::journal::{JobWire, Journal, JournalRecord, Replay};
use crate::output::Export;
use crate::spec::{CampaignPlan, JobSpec};
use crate::spool::{SpoolDir, SpoolResponse};

/// Tuning knobs of a daemon run.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Base retry backoff, linear in the attempt number.
    pub backoff: Duration,
    /// Resume from an existing dynamic journal instead of starting
    /// fresh. A missing journal file falls back to a fresh start.
    pub resume: bool,
    /// Debug: sleep this long at the start of every job.
    pub job_delay: Duration,
    /// Bounded admission queue: submissions beyond this many waiting
    /// attempts are shed with a `queue-full` response.
    pub queue_limit: usize,
    /// Per-attempt deadline; an overrunning attempt is abandoned and
    /// journaled as timed-out. `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Minimum interval between spool scans while idle.
    pub poll_interval: Duration,
    /// Graceful-drain flag (the binary's SIGTERM handler sets it): stop
    /// intake, finish queued and in-flight work, return.
    pub shutdown: Arc<AtomicBool>,
    /// Batch-mode flag: when set, the daemon returns once the spool has
    /// no committed submissions left and all admitted work is done —
    /// "run until the trace is drained" for tests and benches.
    pub quiesce: Arc<AtomicBool>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            threads: max_threads(),
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            resume: false,
            job_delay: Duration::ZERO,
            queue_limit: 64,
            deadline: None,
            poll_interval: Duration::from_millis(2),
            shutdown: Arc::new(AtomicBool::new(false)),
            quiesce: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// What a daemon run did and produced.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// Deterministic per-job outcomes over the dynamic plan, in journal
    /// (admission) order — byte-identical to the equivalent static run.
    pub export: Export,
    /// The dynamic plan as admitted, in journal order.
    pub plan: CampaignPlan,
    /// Submissions admitted (journaled) by *this* invocation.
    pub accepted: usize,
    /// Submissions answered `duplicate`.
    pub duplicates: usize,
    /// Submissions shed with `queue-full`.
    pub shed: usize,
    /// Submissions answered `rejected`.
    pub rejected: usize,
    /// Attempts abandoned at their deadline by this invocation.
    pub timed_out: usize,
    /// Jobs executed to completion by this invocation.
    pub executed: usize,
    /// Jobs already complete in the resumed journal.
    pub skipped: usize,
    /// Retry attempts dispatched by this invocation.
    pub retries: usize,
    /// Quarantined jobs (plan indices), from this run and the journal.
    pub poisoned: Vec<u32>,
    /// `true` when the run ended via the graceful-drain flag.
    pub drained: bool,
}

/// The daemon's [`Intake`] hook: the spool, the dedup table and the
/// per-response counters.
struct SpoolIntake<'a> {
    spool: &'a SpoolDir,
    options: &'a DaemonOptions,
    injector: &'a FaultInjector,
    /// Spec digest → plan index, the dedup table.
    digests: Mutex<BTreeMap<u64, u32>>,
    /// Serializes spool scans; holds the idle-poll clock and the intake
    /// ordinal the crash-mid-intake injection runs on.
    scans: Mutex<ScanClock>,
    accepted: AtomicUsize,
    duplicates: AtomicUsize,
    shed: AtomicUsize,
    rejected: AtomicUsize,
}

struct ScanClock {
    last_scan: Option<Instant>,
    submissions_seen: u64,
}

/// Runs (or resumes) a daemon campaign over `spool`, journaling to
/// `journal_path`, until drained ([`DaemonOptions::shutdown`]) or
/// quiesced ([`DaemonOptions::quiesce`] with an empty spool).
///
/// Fails fast on an unreadable or mismatched journal and on injected
/// crashes; per-job failures are retried and quarantined, not returned
/// as errors.
pub fn run_daemon(
    spool: &SpoolDir,
    journal_path: &Path,
    options: &DaemonOptions,
    injector: &FaultInjector,
) -> Result<DaemonSummary, CampaignError> {
    let (journal, mut replay) = if options.resume && journal_path.exists() {
        Journal::open_resume_dynamic(journal_path)?
    } else {
        (Journal::create_dynamic(journal_path)?, Replay::default())
    };
    let plan = std::mem::take(&mut replay.dynamic);
    let intake = SpoolIntake {
        spool,
        options,
        injector,
        digests: Mutex::new(
            (0..)
                .zip(&plan)
                .map(|(job, spec)| (spec.digest(), job))
                .collect(),
        ),
        scans: Mutex::new(ScanClock {
            last_scan: None,
            submissions_seen: 0,
        }),
        accepted: AtomicUsize::new(0),
        duplicates: AtomicUsize::new(0),
        shed: AtomicUsize::new(0),
        rejected: AtomicUsize::new(0),
    };
    let replayed: Vec<u32> = (0..plan.len() as u32).collect();
    let policy = Policy {
        max_attempts: options.max_attempts,
        backoff: options.backoff,
        job_delay: options.job_delay,
        deadline: options.deadline,
    };
    let engine = Engine::seed(journal, replay, plan, &replayed, policy, injector)?;
    engine.run(options.threads.max(1), Some(&intake))?;
    let admitted: Vec<u32> = (0..engine.plan.lock().expect("plan lock").len() as u32).collect();
    let finished = engine.finish(&admitted)?;
    Ok(DaemonSummary {
        export: finished.export,
        plan: CampaignPlan::new(finished.plan),
        accepted: intake.accepted.into_inner(),
        duplicates: intake.duplicates.into_inner(),
        shed: intake.shed.into_inner(),
        rejected: intake.rejected.into_inner(),
        timed_out: finished.timed_out,
        executed: finished.executed,
        skipped: finished.skipped,
        retries: finished.retries,
        poisoned: finished.poisoned,
        drained: options.shutdown.load(Ordering::SeqCst),
    })
}

impl Intake for SpoolIntake<'_> {
    /// One spool scan, rate-limited by [`DaemonOptions::poll_interval`]
    /// and skipped while draining: every committed submission is
    /// admitted, deduped, shed, or rejected, and answered explicitly.
    /// Only one worker scans at a time.
    fn scan(&self, engine: &Engine) -> Result<(), CampaignError> {
        if self.options.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Ok(mut clock) = self.scans.try_lock() else {
            return Ok(()); // another worker is scanning
        };
        if let Some(last) = clock.last_scan {
            if last.elapsed() < self.options.poll_interval {
                return Ok(());
            }
        }
        clock.last_scan = Some(Instant::now());
        for submission in self.spool.scan()? {
            let ordinal = clock.submissions_seen;
            clock.submissions_seen += 1;
            // The crash window: the submission was read from the spool
            // ("spool-accept") but its JobAdded record has not been
            // appended. Dying here must lose nothing — the .job file
            // stays, restart re-offers it.
            if self.injector.crash_mid_intake(ordinal) {
                return Err(CampaignError::Injected {
                    point: format!("crash mid-intake at submission {ordinal}"),
                });
            }
            let response = admit(self, engine, &submission.spec)?;
            let counter = match &response {
                SpoolResponse::Accepted { .. } => &self.accepted,
                SpoolResponse::Duplicate { .. } => &self.duplicates,
                SpoolResponse::QueueFull => &self.shed,
                SpoolResponse::Rejected { .. } => &self.rejected,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.spool.respond(&submission.name, &response)?;
            self.spool.archive(&submission.name)?;
        }
        Ok(())
    }

    /// Draining ends an idle run; so does quiesce mode once the spool
    /// holds no committed submissions. Service mode keeps polling.
    fn finished(&self) -> bool {
        self.options.shutdown.load(Ordering::SeqCst)
            || (self.options.quiesce.load(Ordering::SeqCst)
                && matches!(self.spool.scan(), Ok(submissions) if submissions.is_empty()))
    }
}

/// Decides one submission's fate: rejected (unparsable, invalid, or
/// outside the wire catalogs), duplicate (digest already admitted),
/// queue-full (bounded admission), or accepted — in which case the
/// JobAdded record is fsynced to the journal *before* the job becomes
/// visible to workers or the client.
fn admit(
    intake: &SpoolIntake,
    engine: &Engine,
    spec: &Result<JobSpec, String>,
) -> Result<SpoolResponse, CampaignError> {
    let spec = match spec {
        Ok(spec) => spec,
        Err(reason) => {
            return Ok(SpoolResponse::Rejected {
                reason: reason.clone(),
            })
        }
    };
    if let Err(reason) = spec.validate() {
        return Ok(SpoolResponse::Rejected { reason });
    }
    let wire = match JobWire::from_spec(spec) {
        Ok(wire) => wire,
        Err(reason) => return Ok(SpoolResponse::Rejected { reason }),
    };
    let mut digests = intake.digests.lock().expect("digests lock");
    if let Some(&job) = digests.get(&wire.spec_digest) {
        return Ok(SpoolResponse::Duplicate { job });
    }
    let mut queue = engine.queue.lock().expect("queue lock");
    if queue.len() >= intake.options.queue_limit {
        // Shed *before* journaling: a queue-full submission leaves no
        // trace in the plan, so the client can resubmit identical bytes
        // later without tripping dedup.
        return Ok(SpoolResponse::QueueFull);
    }
    let mut journal = engine.journal.lock().expect("journal lock");
    let mut plan = engine.plan.lock().expect("plan lock");
    let job = plan.len() as u32;
    journal.append(&JournalRecord::JobAdded { job, wire }, intake.injector)?;
    plan.push(spec.clone());
    digests.insert(wire.spec_digest, job);
    queue.push_back((job, 1));
    Ok(SpoolResponse::Accepted { job })
}

/// Convenience for tests and the binary: a daemon options value whose
/// `shutdown`/`quiesce` flags are owned by the caller.
pub fn daemon_flags() -> (Arc<AtomicBool>, Arc<AtomicBool>) {
    (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    )
}
