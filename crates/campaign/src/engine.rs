//! The one campaign execution engine under [`crate::run_campaign`] and
//! [`crate::run_daemon`]: the job table, pending queue, journal, results,
//! quarantines, counters and abort state a run's workers share.
//!
//! Both front ends [`Engine::seed`] it from a replayed journal, drain it
//! with [`Engine::run`] (the daemon adds an [`Intake`] hook that admits
//! jobs while the run is live), and take the export from
//! [`Engine::finish`]. Every attempt runs inside `catch_unwind`
//! (optionally under a deadline watchdog) and is journaled before it
//! counts; failures retry with linear backoff and quarantine as poison at
//! the attempt cap. A job's result depends only on its [`JobSpec`], so a
//! resumed run exports the same bytes as an uninterrupted one at any
//! thread count.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

use sched::{run_pool, Poll, WorkItem};

use crate::error::CampaignError;
use crate::faultpoint::FaultInjector;
use crate::heartbeat::HeartbeatWriter;
use crate::journal::{JobResult, Journal, JournalRecord, Replay};
use crate::output::{Export, JobOutcome, JobStatus};
use crate::runner::execute_job;
use crate::spec::{CampaignPlan, JobSpec};

/// Per-attempt knobs shared by both front ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Attempts per job before it is quarantined as poison (≥ 1).
    pub max_attempts: u8,
    /// Base retry backoff: attempt `n + 1` waits `backoff × n`.
    pub backoff: Duration,
    /// Debug sleep at the start of every job.
    pub job_delay: Duration,
    /// Per-attempt deadline; `None` runs attempts on the worker itself.
    pub deadline: Option<Duration>,
}

/// Dynamic job admission, polled by the engine's producer.
pub(crate) trait Intake: Sync {
    /// Admits new work before each dequeue; an error aborts the run.
    fn scan(&self, engine: &Engine) -> Result<(), CampaignError>;
    /// With nothing queued and nothing in flight: may the run end now?
    fn finished(&self) -> bool;
}

/// How one attempt failed.
enum Failure {
    /// The attempt ran to an end with an error or a panic.
    Error(String),
    /// The attempt overran its deadline and was abandoned.
    TimedOut(String),
}

/// Renders a caught panic payload for the journal: `&str` and `String`
/// payloads verbatim (the overwhelmingly common case — `panic!` with a
/// message), anything else as a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A finished run's export, plan and counters.
pub(crate) struct Finished {
    pub export: Export,
    pub plan: Vec<JobSpec>,
    pub executed: usize,
    pub skipped: usize,
    pub retries: usize,
    pub timed_out: usize,
    pub poisoned: Vec<u32>,
}

/// The state one campaign run shares between its workers.
pub(crate) struct Engine<'a> {
    /// The job table, in plan-index order. Grows under intake.
    pub plan: Mutex<Vec<JobSpec>>,
    /// Pending attempts: `(job, attempt number)`.
    pub queue: Mutex<VecDeque<(u32, u8)>>,
    pub journal: Mutex<Journal>,
    results: Mutex<BTreeMap<u32, JobResult>>,
    poisoned: Mutex<BTreeMap<u32, String>>,
    /// Written after every journaled attempt when set.
    pub heartbeat: Option<Mutex<HeartbeatWriter>>,
    /// Job attempts journaled so far — the clock the heartbeat-stall and
    /// wedge injections run on.
    jobs_done: AtomicU64,
    in_flight: AtomicUsize,
    /// The first error that stopped the run.
    abort: Mutex<Option<CampaignError>>,
    executed: AtomicUsize,
    retries: AtomicUsize,
    timed_out: AtomicUsize,
    skipped: usize,
    policy: Policy,
    injector: &'a FaultInjector,
}

impl<'a> Engine<'a> {
    /// Builds the engine from a freshly opened journal and its replay:
    /// queues every job of `jobs` that has no final fate yet, and
    /// quarantines (journaling the poison record) any whose replayed
    /// attempts already reach the cap.
    pub fn seed(
        mut journal: Journal,
        replay: Replay,
        plan: Vec<JobSpec>,
        jobs: &[u32],
        policy: Policy,
        injector: &'a FaultInjector,
    ) -> Result<Self, CampaignError> {
        let results = replay.completed;
        let mut poisoned = replay.poisoned;
        let mut pending = VecDeque::new();
        for &job in jobs {
            if results.contains_key(&job) || poisoned.contains_key(&job) {
                continue;
            }
            let (used, last_message) = replay
                .failed_attempts
                .get(&job)
                .cloned()
                .unwrap_or((0, String::new()));
            if used >= policy.max_attempts {
                journal.append(
                    &JournalRecord::Poisoned {
                        job,
                        attempt: used,
                        message: last_message.clone(),
                    },
                    injector,
                )?;
                poisoned.insert(job, last_message);
            } else {
                pending.push_back((job, used + 1));
            }
        }
        Ok(Self {
            plan: Mutex::new(plan),
            queue: Mutex::new(pending),
            journal: Mutex::new(journal),
            skipped: results.len(),
            results: Mutex::new(results),
            poisoned: Mutex::new(poisoned),
            heartbeat: None,
            jobs_done: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            abort: Mutex::new(None),
            executed: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            timed_out: AtomicUsize::new(0),
            policy,
            injector,
        })
    }

    /// Attempts waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }

    /// Drains the queue on `workers` pool workers until it is empty with
    /// nothing in flight (and `intake`, if any, agrees), or until the run
    /// aborts — in which case the first abort error is returned.
    pub fn run(&self, workers: usize, intake: Option<&dyn Intake>) -> Result<(), CampaignError> {
        run_pool(workers, |_| self.poll(intake));
        self.abort
            .lock()
            .expect("abort lock")
            .take()
            .map_or(Ok(()), Err)
    }

    /// The [`sched::run_pool`] producer: run one intake scan, then pop
    /// the next pending attempt as a [`WorkItem::campaign_job`]; answer
    /// [`Poll::Pending`] while attempts are in flight (one may fail and
    /// re-enqueue itself) or intake is still serving, and [`Poll::Done`]
    /// once drained or aborted.
    fn poll<'s>(&'s self, intake: Option<&'s dyn Intake>) -> Poll<'s> {
        if self.abort.lock().expect("abort lock").is_some() {
            return Poll::Done;
        }
        if self
            .injector
            .wedge_armed(self.jobs_done.load(Ordering::SeqCst))
        {
            // Injected wedge: the process stays alive but stops making
            // progress — no heartbeat, no journal growth, workers parked.
            // Only an external SIGKILL recovers a process in this state.
            loop {
                thread::sleep(Duration::from_millis(25));
            }
        }
        if let Some(intake) = intake {
            if let Err(error) = intake.scan(self) {
                self.fail(error);
                return Poll::Done;
            }
        }
        let next = {
            let mut queue = self.queue.lock().expect("queue lock");
            let next = queue.pop_front();
            if next.is_some() {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
            }
            next
        };
        match next {
            Some((job, attempt)) => Poll::Item(WorkItem::campaign_job(move |_scratch| {
                self.run_attempt(job, attempt);
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
            })),
            None if self.in_flight.load(Ordering::SeqCst) > 0 => Poll::Pending,
            // Idle with nothing in flight: a serving intake keeps the run
            // alive (run_pool backs off between Pending polls).
            None if intake.is_some_and(|intake| !intake.finished()) => Poll::Pending,
            None => Poll::Done,
        }
    }

    /// Records the first abort error; every worker stops at its next
    /// poll.
    fn fail(&self, error: CampaignError) {
        self.abort.lock().expect("abort lock").get_or_insert(error);
    }

    /// One journaled attempt at one job: backoff, panic-isolated
    /// execution, journal append (then heartbeat and the abort
    /// injection), then completion / retry re-enqueue / poison
    /// quarantine / abort bookkeeping.
    fn run_attempt(&self, job: u32, attempt: u8) {
        if attempt > 1 {
            thread::sleep(self.policy.backoff * u32::from(attempt - 1));
        }
        let spec = self.plan.lock().expect("plan lock")[job as usize].clone();
        let outcome = self.execute(spec, job, attempt);
        let final_attempt = attempt >= self.policy.max_attempts;
        let records = match &outcome {
            Ok(result) => vec![JournalRecord::Completed {
                job,
                attempt,
                result: *result,
            }],
            Err(Failure::Error(message)) if final_attempt => vec![JournalRecord::Poisoned {
                job,
                attempt,
                message: message.clone(),
            }],
            Err(Failure::Error(message)) => vec![JournalRecord::Failed {
                job,
                attempt,
                message: message.clone(),
            }],
            // The timeout is its own record kind; at the attempt cap the
            // quarantine record follows so the job's fate is final in the
            // journal, same as an ordinary failure.
            Err(Failure::TimedOut(message)) => {
                let timed_out = JournalRecord::TimedOut {
                    job,
                    attempt,
                    message: message.clone(),
                };
                let poison = JournalRecord::Poisoned {
                    job,
                    attempt,
                    message: message.clone(),
                };
                if final_attempt {
                    vec![timed_out, poison]
                } else {
                    vec![timed_out]
                }
            }
        };
        let appended = self.append_and_beat(&records);
        if let Err(error) = appended {
            // Injected crash (or real I/O failure): stop the run without
            // recording the in-memory outcome — exactly what dying
            // mid-append loses.
            self.fail(error);
            return;
        }
        match outcome {
            Ok(result) => {
                self.results
                    .lock()
                    .expect("results lock")
                    .insert(job, result);
                self.executed.fetch_add(1, Ordering::Relaxed);
            }
            Err(failure) => {
                let message = match failure {
                    Failure::Error(message) => message,
                    Failure::TimedOut(message) => {
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                        message
                    }
                };
                if final_attempt {
                    self.poisoned
                        .lock()
                        .expect("poisoned lock")
                        .insert(job, message);
                } else {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.queue
                        .lock()
                        .expect("queue lock")
                        .push_back((job, attempt + 1));
                }
            }
        }
    }

    /// Appends one attempt's records, then beats the heartbeat and
    /// checks the abort injection — all under the journal lock, which
    /// pins the record count they report.
    fn append_and_beat(&self, records: &[JournalRecord]) -> Result<(), CampaignError> {
        let mut journal = self.journal.lock().expect("journal lock");
        for record in records {
            journal.append(record, self.injector)?;
        }
        let jobs_done = self.jobs_done.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(heartbeat) = &self.heartbeat {
            // The stall injection silences the beat without touching the
            // work.
            if !self.injector.heartbeat_stalled(jobs_done) {
                heartbeat
                    .lock()
                    .expect("heartbeat lock")
                    .beat(journal.records_written())?;
            }
        }
        if self.injector.should_abort(journal.records_written()) {
            return Err(CampaignError::Injected {
                point: format!("abort after {} records", journal.records_written()),
            });
        }
        Ok(())
    }

    /// Executes one attempt inside `catch_unwind`. With a deadline the
    /// job runs on a helper thread; if it misses the deadline the helper
    /// is abandoned (its eventual result lands in a closed channel) and
    /// the attempt reports [`Failure::TimedOut`] — a slow job never
    /// wedges the worker slot.
    fn execute(&self, spec: JobSpec, job: u32, attempt: u8) -> Result<JobResult, Failure> {
        let job_delay = self.policy.job_delay;
        let caught = move |spec: &JobSpec, injector: &FaultInjector| {
            // A panic anywhere in the job — fault model, kernel, injected
            // worker kill — collapses to a failure message; the worker
            // itself survives.
            match catch_unwind(AssertUnwindSafe(|| {
                execute_job(spec, job, attempt, job_delay, injector)
            })) {
                Ok(outcome) => outcome,
                Err(payload) => Err(panic_message(&*payload)),
            }
        };
        let Some(deadline) = self.policy.deadline else {
            return caught(&spec, self.injector).map_err(Failure::Error);
        };
        let (sender, receiver) = mpsc::channel();
        let injector = self.injector.clone();
        thread::spawn(move || {
            // The receiver may be long gone (deadline missed) — that is
            // the abandonment working, not an error.
            let _ = sender.send(caught(&spec, &injector));
        });
        match receiver.recv_timeout(deadline) {
            Ok(outcome) => outcome.map_err(Failure::Error),
            Err(_) => Err(Failure::TimedOut(format!(
                "deadline {}ms exceeded; attempt abandoned",
                deadline.as_millis()
            ))),
        }
    }

    /// Ends the run: the export over `jobs` (sorted by plan index, with
    /// the whole plan's digest and length) plus the run's counters. Every
    /// listed job must have a final fate; a poisoned job exports an
    /// all-zero result, so the export does not depend on which attempt's
    /// message happened to be last.
    pub fn finish(self, jobs: &[u32]) -> Result<Finished, CampaignError> {
        let plan = CampaignPlan::new(self.plan.into_inner().expect("plan lock"));
        let results = self.results.into_inner().expect("results lock");
        let poisoned = self.poisoned.into_inner().expect("poisoned lock");
        let outcomes = jobs
            .iter()
            .map(|&job| {
                let (status, result) = if let Some(result) = results.get(&job) {
                    (JobStatus::Completed, *result)
                } else if poisoned.contains_key(&job) {
                    (JobStatus::Poisoned, JobResult::default())
                } else {
                    return Err(CampaignError::Corrupt {
                        offset: 0,
                        reason: format!("job {job} finished the run unaccounted"),
                    });
                };
                Ok(JobOutcome {
                    job,
                    status,
                    result,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Finished {
            export: Export::new(plan.digest(), plan.len() as u32, outcomes),
            executed: self.executed.into_inner(),
            skipped: self.skipped,
            retries: self.retries.into_inner(),
            timed_out: self.timed_out.into_inner(),
            poisoned: poisoned.keys().copied().collect(),
            plan: plan.jobs,
        })
    }
}
