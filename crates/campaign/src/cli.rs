//! One declarative flag table per binary.
//!
//! Each campaign and bench binary describes its command line once, as a
//! [`Cli`] of [`Section`]s of [`Flag`]s plus its exit codes; the parser
//! ([`Cli::parse`]) and the `--help` text with its exit-code table
//! ([`Cli::help`]) are generated from it. The parser rejects, before the
//! binary does any work, an unknown flag or positional word, a value flag
//! without a value (`--journal --resume` never names a file `--resume`),
//! and a non-repeatable flag given twice. `--help` anywhere wins.
//!
//! The campaign binaries' tables live here, so that `campaign_supervisor`
//! forwards exactly `campaign_run`'s [`PLAN`] and [`WORKERS`] flags.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use crate::output::Export;

/// One command-line flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag itself, e.g. `"--journal"`.
    pub name: &'static str,
    /// Placeholder for the flag's value (`"PATH"`), or `None` for a
    /// switch that takes none.
    pub value: Option<&'static str>,
    /// Whether the flag may be given more than once.
    pub repeats: bool,
    /// The help line; each `\n` continues it on an aligned line.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes one value, shown in help as `placeholder`.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: Some(placeholder),
            repeats: false,
            help,
        }
    }

    /// A switch: a flag without a value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: None,
            repeats: false,
            help,
        }
    }

    /// The same flag, allowed more than once.
    pub const fn repeated(self) -> Self {
        Self {
            repeats: true,
            ..self
        }
    }
}

/// `--help`, which every table lists.
pub const HELP: Flag = Flag::switch("--help", "print this help and exit");

/// A titled group of flags in a [`Cli`] table.
#[derive(Debug)]
pub struct Section {
    /// Heading printed above the group; empty for the main list.
    pub title: &'static str,
    /// The group's flags, in help order.
    pub flags: &'static [Flag],
}

/// A binary's whole command line.
#[derive(Debug)]
pub struct Cli {
    /// Program name, for the usage line and error messages.
    pub program: &'static str,
    /// What follows the program name on the usage line.
    pub synopsis: &'static str,
    /// Every accepted flag, grouped for the help text.
    pub sections: &'static [&'static Section],
    /// Every exit code the binary returns, with its meaning.
    pub exit_codes: &'static [(u8, &'static str)],
}

/// A malformed command line: the offending flag (or word) and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag or word at fault, e.g. `"--threads"`.
    pub flag: String,
    /// Human-readable reason.
    pub reason: String,
}

impl UsageError {
    /// Builds an error for `flag`.
    pub fn new(flag: &str, reason: impl Into<String>) -> Self {
        Self {
            flag: flag.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for UsageError {}

/// Parses a comma-separated organization list like `64x64,128x128`,
/// attributing failures to `flag`.
pub fn parse_size_list(spec: &str, flag: &str) -> Result<Vec<(u32, u32)>, UsageError> {
    let sizes: Vec<(u32, u32)> = spec
        .split(',')
        .map(|entry| {
            let entry = entry.trim();
            let (rows, cols) = entry
                .split_once('x')
                .ok_or_else(|| UsageError::new(flag, format!("'{entry}' must look like 64x64")))?;
            let rows = rows.parse().map_err(|_| {
                UsageError::new(flag, format!("rows of '{entry}' must be an integer"))
            })?;
            let cols = cols.parse().map_err(|_| {
                UsageError::new(flag, format!("cols of '{entry}' must be an integer"))
            })?;
            Ok((rows, cols))
        })
        .collect::<Result<_, UsageError>>()?;
    if sizes.is_empty() {
        return Err(UsageError::new(flag, "empty organization list"));
    }
    Ok(sizes)
}

/// A parsed command line: the flags given, in command-line order.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// `true` when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag`, if given (the first one for a repeatable
    /// flag).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Every value of a repeatable `flag`, in command-line order.
    pub fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'s str> {
        self.given
            .iter()
            .filter(move |(name, _)| *name == flag)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The value of a flag the command cannot run without.
    pub fn required(&self, flag: &str) -> Result<&str, UsageError> {
        self.value(flag)
            .ok_or_else(|| UsageError::new(flag, "required flag missing"))
    }

    /// Parses the value of `flag` as `T`; `None` when it is absent.
    pub fn parse_opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| UsageError::new(flag, format!("cannot parse \"{raw}\"")))
            })
            .transpose()
    }

    /// Parses the value of `flag` as `T`, or returns `default` when it
    /// is absent.
    pub fn parse<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.parse_opt(flag)?.unwrap_or(default))
    }

    /// [`Args::parse`] for a count that must be at least 1.
    pub fn parse_count<T: FromStr + Default + PartialEq>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, UsageError> {
        let count = self.parse(flag, default)?;
        if count == T::default() {
            return Err(UsageError::new(flag, "must be at least 1"));
        }
        Ok(count)
    }

    /// The given flags of `sections` with their values, as command-line
    /// tokens in the order they were given — what a parent process
    /// forwards to a child.
    pub fn forwarded(&self, sections: &[&Section]) -> Vec<String> {
        let mut tokens = Vec::new();
        for (name, value) in &self.given {
            let listed = |section: &&Section| section.flags.iter().any(|flag| flag.name == *name);
            if sections.iter().any(listed) {
                tokens.push(name.to_string());
                tokens.extend(value.clone());
            }
        }
        tokens
    }
}

impl Cli {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.sections
            .iter()
            .flat_map(|section| section.flags.iter())
    }

    /// Walks `args` against the table. `Ok(None)` means `--help` was
    /// given: print [`Cli::help`] and exit 0.
    pub fn parse(&self, args: &[String]) -> Result<Option<Args>, UsageError> {
        if args.iter().any(|arg| arg == HELP.name) {
            return Ok(None);
        }
        let mut parsed = Args::default();
        let mut tokens = args.iter().peekable();
        while let Some(token) = tokens.next() {
            let Some(flag) = self.flags().find(|flag| flag.name == token) else {
                let reason = if token.starts_with("--") {
                    "unknown flag"
                } else {
                    "unexpected positional argument"
                };
                return Err(UsageError::new(token, reason));
            };
            if !flag.repeats && parsed.has(flag.name) {
                return Err(UsageError::new(flag.name, "given more than once"));
            }
            let value = match flag.value {
                None => None,
                Some(placeholder) => match tokens.next_if(|next| !next.starts_with("--")) {
                    Some(value) => Some(value.clone()),
                    None => {
                        return Err(UsageError::new(
                            flag.name,
                            format!("missing value (expected {placeholder})"),
                        ))
                    }
                },
            };
            parsed.given.push((flag.name, value));
        }
        Ok(Some(parsed))
    }

    /// The `--help` text: usage line, one block per section, and the
    /// exit-code table.
    pub fn help(&self) -> String {
        let label = |flag: &Flag| match flag.value {
            Some(placeholder) => format!("{} {placeholder}", flag.name),
            None => flag.name.to_string(),
        };
        let width = self
            .flags()
            .map(|flag| label(flag).len())
            .max()
            .unwrap_or(0)
            + 2;
        let mut text = format!("usage: {} {}\n", self.program, self.synopsis);
        for section in self.sections {
            if !section.title.is_empty() {
                text.push_str(&format!("{}:\n", section.title));
            }
            for flag in section.flags {
                let mut lines = flag.help.lines();
                let first = lines.next().unwrap_or("");
                text.push_str(&format!("  {:width$}{first}\n", label(flag)));
                for line in lines {
                    text.push_str(&format!("  {:width$}{line}\n", ""));
                }
            }
        }
        text.push_str("exit codes:\n");
        for (code, meaning) in self.exit_codes {
            text.push_str(&format!("  {code}  {meaning}\n"));
        }
        text
    }

    /// Parses the process arguments and runs `body` on them. `--help`
    /// prints the help text and exits 0; a usage error — from the
    /// parser or from `body` — prints the error and the help text to
    /// stderr and exits 2.
    pub fn main(&self, body: impl FnOnce(&Args) -> Result<ExitCode, UsageError>) -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let outcome = match self.parse(&args) {
            Ok(Some(parsed)) => body(&parsed),
            Ok(None) => {
                print!("{}", self.help());
                return ExitCode::SUCCESS;
            }
            Err(error) => Err(error),
        };
        outcome.unwrap_or_else(|error| {
            eprintln!("{}: {error}", self.program);
            eprint!("{}", self.help());
            ExitCode::from(2)
        })
    }
}

impl Cli {
    /// Reports a run-time failure (exit 3: I/O, corrupt journal, …).
    pub fn failed(&self, error: impl fmt::Display) -> ExitCode {
        eprintln!("{}: {error}", self.program);
        ExitCode::from(3)
    }

    /// How a finished campaign ends: write `export` to `path`, if given
    /// (exit 3 if that fails), print `summary`, then exit 4 naming every
    /// poison-quarantined job, or 0 when there is none.
    pub fn finished(
        &self,
        export: &Export,
        path: Option<&Path>,
        summary: &str,
        poisoned: &[u32],
    ) -> ExitCode {
        if let Err(error) = path.map_or(Ok(()), |path| export.write(path)) {
            return self.failed(error);
        }
        println!("{summary}");
        for job in poisoned {
            eprintln!("{}: job {job} is poison-quarantined", self.program);
        }
        ExitCode::from(if poisoned.is_empty() { 0 } else { 4 })
    }
}

/// `campaign_run`'s plan flags, which `campaign_supervisor` forwards
/// verbatim to every child.
#[rustfmt::skip]
pub const PLAN: Section = Section {
    title: "plan flags",
    flags: &[
        Flag::value("--organization", "RxC", "array organization (default 64x64)"),
        Flag::value("--seeds", "A,B,...", "population seeds (default 1)"),
        Flag::value("--algorithms", "A,B,...", "March algorithms (default: the paper's Table 1 five)"),
        Flag::value("--orders", "A,B,...", "address orders (default \"word line after word line\")"),
        Flag::value("--backgrounds", "0,1", "initial cell values (default 0)"),
        Flag::value("--population", "SPEC", "standard | mixed:N | dense:N (default mixed:256)"),
        Flag::value("--backend", "NAME", "lane | list-order | per-fault (default lane)"),
    ],
};

/// The worker-pool flags of `campaign_run` and `campaign_daemon`, which
/// `campaign_supervisor` also forwards to every child.
#[rustfmt::skip]
pub const WORKERS: Section = Section {
    title: "worker flags",
    flags: &[
        Flag::value("--threads", "N", "worker threads (default: all cores)"),
        Flag::value("--max-attempts", "N", "attempts before poison quarantine (default 3)"),
        Flag::value("--backoff-ms", "N", "base retry backoff in ms (default 10)"),
        Flag::value("--job-delay-ms", "N", "debug: sleep per job, for kill-timing tests"),
    ],
};

/// The flag both static and daemon runs use to resume.
const RESUME: Flag = Flag::switch(
    "--resume",
    "resume from the journal (fresh start if missing)",
);
/// The flag both static and daemon runs use to export.
const EXPORT: Flag = Flag::value("--export", "PATH", "write the deterministic binary export");
/// The crash injection both static and daemon runs accept.
const ABORT_AFTER: Flag = Flag::value(
    "--abort-after-records",
    "N",
    "abort once N records are journaled (exit 3)",
);

/// `campaign_run`: one shard of a static plan, crash-safe and resumable.
#[rustfmt::skip]
pub const CAMPAIGN_RUN: Cli = Cli {
    program: "campaign_run",
    synopsis: "--journal PATH [options]",
    sections: &[
        &Section { title: "", flags: &[
            Flag::value("--journal", "PATH", "journal file (required)"),
            Flag::value("--shard", "K/N", "0-based shard of the plan (default 0/1)"),
            EXPORT,
            Flag::value("--heartbeat", "PATH", "write a heartbeat sidecar after each journaled job"),
            RESUME,
            Flag::switch("--list", "print the plan and exit"),
            HELP,
        ] },
        &PLAN,
        &WORKERS,
        &Section { title: "debug fault injections (for the supervisor test harness)", flags: &[
            ABORT_AFTER,
            Flag::value("--stall-heartbeat-after", "N", "stop heartbeating after N jobs, keep working"),
            Flag::value("--wedge-after", "N", "hang forever once N jobs are done"),
        ] },
    ],
    exit_codes: &[
        (0, "campaign completed, no poisoned jobs"),
        (2, "usage error (unknown flag, malformed value)"),
        (3, "campaign error (I/O, corrupt journal, plan mismatch)"),
        (4, "campaign completed but some jobs are poison-quarantined"),
    ],
};

/// `campaign_daemon`: dynamic spool intake over a v2 journal.
#[rustfmt::skip]
pub const CAMPAIGN_DAEMON: Cli = Cli {
    program: "campaign_daemon",
    synopsis: "--spool DIR --journal PATH [options]",
    sections: &[
        &Section { title: "", flags: &[
            Flag::value("--spool", "DIR", "spool directory for job intake (required)"),
            Flag::value("--journal", "PATH", "dynamic (v2) journal file (required)"),
            Flag::value("--queue-limit", "N", "bounded admission queue; beyond it submissions\n\
                                               are shed with a queue-full response (default 64)"),
            Flag::value("--deadline-ms", "N", "per-attempt deadline; an overrunning attempt is\n\
                                               abandoned and journaled timed-out (default: none)"),
            Flag::value("--poll-ms", "N", "spool scan interval in ms (default 2)"),
            Flag::value("--trace", "PATH", "replay a recorded arrival trace into the spool\n\
                                            (open-loop), then quiesce once it is drained"),
            Flag::switch("--once", "quiesce mode: exit once the spool is empty and\n\
                                    all admitted work is done (implied by --trace)"),
            EXPORT,
            RESUME,
            HELP,
        ] },
        &WORKERS,
        &Section { title: "debug fault injections (for the crash-resume test harness)", flags: &[
            ABORT_AFTER,
            Flag::value("--crash-mid-intake", "N", "die between spool-accept and journal-append\n\
                                                    of intake ordinal N (exit 3)"),
            Flag::value("--torn-spool", "N", "tear trace event ordinal N mid-submission"),
            Flag::value("--stall-job", "J@A:MS", "stall job J for MS ms on its first A attempts"),
        ] },
    ],
    exit_codes: &[
        (0, "drained or quiesced cleanly, no poisoned jobs"),
        (2, "usage error (unknown flag, malformed value)"),
        (3, "campaign error (I/O, corrupt journal, injected crash)"),
        (4, "completed, but some jobs are poison-quarantined"),
    ],
};

/// `campaign_supervisor`: one `campaign_run` child per shard, restarted
/// until done; forwards [`PLAN`] and [`WORKERS`] to every child.
#[rustfmt::skip]
pub const CAMPAIGN_SUPERVISOR: Cli = Cli {
    program: "campaign_supervisor",
    synopsis: "--shards N --dir PATH [options] [plan and worker flags for every child]",
    sections: &[
        &Section { title: "", flags: &[
            Flag::value("--shards", "N", "shard processes to supervise (required)"),
            Flag::value("--dir", "PATH", "directory for per-shard journals, exports,\n\
                                          heartbeats, the merged export and manifest"),
            Flag::value("--export", "PATH", "merged export path (default DIR/merged.bin)"),
            Flag::value("--manifest", "PATH", "manifest path (default DIR/manifest.txt)"),
            Flag::value("--child", "PATH", "campaign_run binary (default: sibling of this one)"),
            Flag::value("--restart-budget", "N", "restarts per shard before quarantine (default 3)"),
            Flag::value("--restart-backoff-ms", "N", "first restart delay (default 100, doubles per restart)"),
            Flag::value("--restart-backoff-cap-ms", "N", "upper bound on the restart delay (default 2000)"),
            Flag::value("--poll-ms", "N", "supervisor poll interval (default 25)"),
            Flag::value("--stall-timeout-ms", "N", "no-progress window before a child is declared\n\
                                                    wedged and SIGKILLed (default 10000)"),
            HELP,
        ] },
        &PLAN,
        &WORKERS,
        &Section { title: "debug fault injections (for the kill-storm harness; repeatable)", flags: &[
            Flag::value("--kill-shard", "K@BEATS", "SIGKILL shard K's child at BEATS heartbeats").repeated(),
            Flag::value("--stall-shard", "K@JOBS", "shard K stops heartbeating after JOBS jobs\n\
                                                    (first launch only)").repeated(),
            Flag::value("--wedge-shard", "K@JOBS", "shard K hangs after JOBS jobs (first launch only)").repeated(),
            Flag::value("--crash-shard", "K@RECORDS", "shard K aborts after RECORDS journal records,\n\
                                                       on every launch (restart-budget exhaustion)").repeated(),
        ] },
    ],
    exit_codes: &[
        (0, "every shard completed, no poisoned jobs"),
        (2, "usage error (unknown flag, malformed value)"),
        (3, "supervisor error (spawn failure, child usage error, I/O)"),
        (4, "every shard completed but some jobs are poison-quarantined"),
        (5, "degraded: shards were quarantined, the export is partial"),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(cli: &Cli, list: &[&str]) -> Result<Args, UsageError> {
        cli.parse(&args(list))
            .map(|parsed| parsed.expect("not --help"))
    }

    #[test]
    fn values_switches_and_typed_parses() {
        let parsed = parse(
            &CAMPAIGN_RUN,
            &["--journal", "j", "--threads", "3", "--resume"],
        )
        .expect("valid");
        assert_eq!(parsed.value("--journal"), Some("j"));
        assert!(parsed.has("--resume") && !parsed.has("--list"));
        assert_eq!(parsed.parse("--threads", 1usize), Ok(3));
        assert_eq!(parsed.parse("--max-attempts", 7u8), Ok(7));
        assert_eq!(parsed.required("--export").unwrap_err().flag, "--export");
        let bad = parse(&CAMPAIGN_RUN, &["--threads", "many"]).expect("parses");
        let error = bad.parse("--threads", 1usize).unwrap_err();
        assert_eq!(error.flag, "--threads");
        assert!(error.to_string().contains("many"), "{error}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_the_flag_named() {
        for (line, flag, fragment) in [
            (&["--journal", "--resume"][..], "--journal", "missing value"),
            (
                &["--journal", "j", "--threads"][..],
                "--threads",
                "missing value",
            ),
            (&["stray", "--journal", "j"][..], "stray", "positional"),
            (&["--journal", "j", "stray"][..], "stray", "positional"),
            (
                &["--journal", "a", "--journal", "b"][..],
                "--journal",
                "more than once",
            ),
            (&["--resume", "--resume"][..], "--resume", "more than once"),
            (&["--bogus"][..], "--bogus", "unknown flag"),
        ] {
            let error = parse(&CAMPAIGN_RUN, line).unwrap_err();
            assert_eq!(error.flag, flag, "{line:?}");
            assert!(error.reason.contains(fragment), "{line:?}: {error}");
        }
    }

    #[test]
    fn help_wins_anywhere() {
        for line in [
            &["--help"][..],
            &["--bogus", "--help"],
            &["--journal", "--help"],
        ] {
            assert!(CAMPAIGN_RUN.parse(&args(line)).expect("help").is_none());
        }
    }

    #[test]
    fn repeatable_flags_keep_every_value_in_order() {
        let parsed = parse(
            &CAMPAIGN_SUPERVISOR,
            &["--kill-shard", "0@2", "--kill-shard", "1@3"],
        )
        .expect("valid");
        assert_eq!(
            parsed.values("--kill-shard").collect::<Vec<_>>(),
            ["0@2", "1@3"]
        );
    }

    #[test]
    fn the_supervisor_forwards_exactly_the_plan_and_worker_sections() {
        let parsed = parse(
            &CAMPAIGN_SUPERVISOR,
            &[
                "--seeds",
                "1,2",
                "--dir",
                "d",
                "--threads",
                "1",
                "--shards",
                "2",
            ],
        )
        .expect("valid");
        assert_eq!(
            parsed.forwarded(&[&PLAN, &WORKERS]),
            args(&["--seeds", "1,2", "--threads", "1"])
        );
        // Every forwarded flag is one campaign_run itself accepts.
        for flag in PLAN.flags.iter().chain(WORKERS.flags) {
            assert!(CAMPAIGN_RUN.flags().any(|known| known.name == flag.name));
        }
    }

    #[test]
    fn help_lists_every_flag_and_exit_code() {
        for cli in [&CAMPAIGN_RUN, &CAMPAIGN_DAEMON, &CAMPAIGN_SUPERVISOR] {
            let help = cli.help();
            for flag in cli.flags() {
                assert!(
                    help.contains(flag.name),
                    "{} help lacks {}",
                    cli.program,
                    flag.name
                );
            }
            let table = help.split("exit codes:\n").nth(1).expect("exit-code table");
            assert_eq!(table.lines().count(), cli.exit_codes.len());
        }
        let names: Vec<&str> = CAMPAIGN_RUN.flags().map(|flag| flag.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a flag is listed twice");
    }

    #[test]
    fn parses_size_lists() {
        assert_eq!(
            parse_size_list("64x64, 128x256", "--sizes"),
            Ok(vec![(64, 64), (128, 256)])
        );
    }

    #[test]
    fn rejects_each_malformed_size_shape_with_the_flag_named() {
        for (spec, fragment) in [
            ("64-64", "must look like 64x64"),
            ("ax64", "rows"),
            ("64xb", "cols"),
            ("", "must look like 64x64"),
        ] {
            let error = parse_size_list(spec, "--organization").unwrap_err();
            assert_eq!(error.flag, "--organization", "spec {spec:?}");
            assert!(
                error.reason.contains(fragment),
                "spec {spec:?}: {}",
                error.reason
            );
        }
    }
}
