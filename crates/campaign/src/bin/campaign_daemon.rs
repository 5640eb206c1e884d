//! `campaign_daemon` — the long-running dynamic-intake campaign service.
//!
//! Watches a spool directory for tmp+rename job submissions, appends
//! admitted jobs to a dynamic (v2) journal, runs them on the crash-safe
//! worker pool with bounded admission and per-job deadlines, and answers
//! every submission explicitly (accepted / duplicate / queue-full /
//! rejected).
//!
//! ```text
//! campaign_daemon --spool jobs/ --journal daemon.journal --export out.bin
//! campaign_daemon --spool jobs/ --journal daemon.journal --resume   # after SIGKILL
//! campaign_daemon --spool jobs/ --journal daemon.journal \
//!     --trace arrivals.trace --once                      # replay a recorded trace
//! ```
//!
//! SIGTERM (or SIGINT) drains gracefully: intake stops, queued and
//! in-flight jobs finish, the journal is left clean, and the process
//! exits 0. SIGKILL is the crash path: restart with `--resume` and the
//! journal replay reconstructs the dynamic plan — the export is
//! byte-identical either way.
//!
//! Exit codes are the same classes as `campaign_run`'s; the flags, the
//! `--help` text and the exit-code table come from
//! [`campaign::cli::CAMPAIGN_DAEMON`].

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use campaign::cli::{Args, UsageError, CAMPAIGN_DAEMON};
use campaign::daemon::{run_daemon, DaemonOptions};
use campaign::trace::{load_trace, replay_trace_injected};
use campaign::{FaultInjector, Injection, SpoolDir};

/// SIGTERM/SIGINT flag, set from the signal handler.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    // The lib crate forbids unsafe; this binary is its own crate root and
    // installs the one handler the daemon needs without pulling in libc.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A store to a static atomic is async-signal-safe.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Installs the graceful-drain handler for SIGTERM (15) and
    /// SIGINT (2).
    pub fn install() {
        unsafe {
            signal(15, on_signal);
            signal(2, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal handling off unix; drain via --once / --trace instead.
    pub fn install() {}
}

fn main() -> ExitCode {
    CAMPAIGN_DAEMON.main(run)
}

fn run(args: &Args) -> Result<ExitCode, UsageError> {
    let spool_dir = PathBuf::from(args.required("--spool")?);
    let journal = PathBuf::from(args.required("--journal")?);
    let export_path = args.value("--export").map(PathBuf::from);
    let trace_path = args.value("--trace").map(PathBuf::from);

    let mut injections: Vec<Injection> = [
        args.parse_opt("--abort-after-records")?
            .map(|count| Injection::AbortAfterRecords { count }),
        args.parse_opt("--crash-mid-intake")?
            .map(|submission| Injection::CrashMidIntake { submission }),
        args.parse_opt("--torn-spool")?
            .map(|submission| Injection::TornSpoolWrite { submission }),
    ]
    .into_iter()
    .flatten()
    .collect();
    if let Some(raw) = args.value("--stall-job") {
        // J@A:MS — job J stalls MS milliseconds on its first A attempts.
        let parsed = raw.split_once('@').and_then(|(job, rest)| {
            let (attempts, delay) = rest.split_once(':')?;
            Some(Injection::StallJob {
                job: job.parse().ok()?,
                attempts: attempts.parse().ok()?,
                delay_ms: delay.parse().ok()?,
            })
        });
        injections.push(
            parsed.ok_or_else(|| UsageError::new("--stall-job", "expected JOB@ATTEMPTS:MS"))?,
        );
    }
    let injector = FaultInjector::new(injections);

    let shutdown = Arc::new(AtomicBool::new(false));
    let quiesce = Arc::new(AtomicBool::new(false));
    let options = DaemonOptions {
        threads: args.parse("--threads", DaemonOptions::default().threads)?,
        max_attempts: args.parse_count("--max-attempts", 3)?,
        backoff: Duration::from_millis(args.parse("--backoff-ms", 10)?),
        resume: args.has("--resume"),
        job_delay: Duration::from_millis(args.parse("--job-delay-ms", 0)?),
        queue_limit: args.parse_count("--queue-limit", 64)?,
        deadline: args.parse_opt("--deadline-ms")?.map(Duration::from_millis),
        poll_interval: Duration::from_millis(args.parse("--poll-ms", 2)?),
        shutdown: Arc::clone(&shutdown),
        quiesce: Arc::clone(&quiesce),
    };

    let spool = match SpoolDir::open(&spool_dir) {
        Ok(spool) => spool,
        Err(error) => return Ok(CAMPAIGN_DAEMON.failed(error)),
    };

    sig::install();
    // Bridge the async-signal-safe static into the daemon's drain flag.
    let signal_bridge = {
        let shutdown = Arc::clone(&shutdown);
        let done = Arc::new(AtomicBool::new(false));
        let done_clone = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            while !done_clone.load(Ordering::SeqCst) {
                if SIGNALLED.load(Ordering::SeqCst) {
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        (done, handle)
    };

    // Trace replay runs open-loop on its own thread; once the whole
    // trace has been offered, quiesce so the run ends when drained.
    let replay = trace_path.map(|path| {
        let spool = spool.clone();
        let injector = injector.clone();
        let quiesce = Arc::clone(&quiesce);
        std::thread::spawn(move || {
            let result = load_trace(&path).and_then(|events| {
                replay_trace_injected(&spool, &events, Instant::now(), &injector)
            });
            quiesce.store(true, Ordering::SeqCst);
            result
        })
    });
    if replay.is_none() && args.has("--once") {
        quiesce.store(true, Ordering::SeqCst);
    }

    let outcome = run_daemon(&spool, &journal, &options, &injector);
    signal_bridge.0.store(true, Ordering::SeqCst);
    let _ = signal_bridge.1.join();
    if let Some(handle) = replay {
        match handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(error)) => return Ok(CAMPAIGN_DAEMON.failed(format!("trace replay: {error}"))),
            Err(_) => return Ok(CAMPAIGN_DAEMON.failed("trace replay thread panicked")),
        }
    }

    Ok(match outcome {
        Ok(summary) => CAMPAIGN_DAEMON.finished(
            &summary.export,
            export_path.as_deref(),
            &format!(
                "daemon: {} jobs ({} accepted, {} duplicate, {} shed, {} rejected, \
                 {} timed-out attempts, {} executed, {} resumed, {} retries, {} poisoned){}",
                summary.plan.len(),
                summary.accepted,
                summary.duplicates,
                summary.shed,
                summary.rejected,
                summary.timed_out,
                summary.executed,
                summary.skipped,
                summary.retries,
                summary.poisoned.len(),
                if summary.drained { ", drained" } else { "" }
            ),
            &summary.poisoned,
        ),
        Err(error) => CAMPAIGN_DAEMON.failed(error),
    })
}
