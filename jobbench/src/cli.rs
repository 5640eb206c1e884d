//! Command-line parsing. Every malformed argument is rejected here,
//! before any workload starts, so a typo costs milliseconds instead of a
//! multi-minute run.

use std::fmt;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two seeds × {March SS, March C-} at 1024×1024, `dense:100000`.
    DenseSweep1024,
    /// `reproduce_table1` on the paper's 512×512 configuration.
    Table1Paper,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::DenseSweep1024, Workload::Table1Paper];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSweep1024 => "dense_sweep_1024",
            Workload::Table1Paper => "table1_paper",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` changes the workload's inputs. Table 1 runs the
    /// paper's fixed configuration and algorithms: it has no random input,
    /// so every seed measures the same work.
    pub fn has_random_input(self) -> bool {
        self != Workload::Table1Paper
    }
}

/// A validated run request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every job seed and sample is derived from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: u64,
    /// `false`: timed run, end-to-end metrics. `true`: traced run,
    /// per-layer metrics.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// Print the usage text and exit 0.
    Help,
    /// Run one workload.
    Run(Args),
}

/// A rejected command line: the message names the offending flag.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The longest measured phase accepted; the whole run must stay well
/// inside three minutes.
pub const MAX_SECONDS: u64 = 120;

/// Usage text printed by `--help` and after a usage error.
pub fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: jobbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]\n\
         \n\
         --workload  one of: {}\n\
         --seed      workload seed; job seeds and samples derive from it (default 1)\n\
         --seconds   length of the measured phase, 1..={MAX_SECONDS} (default 20)\n\
         --trace     0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default 0)\n\
         \n\
         The last line of standard output is one JSON object:\n\
         {{\"correct\": bool, \"attempted\": n, \"failed\": n, \"metrics\": {{name: {{\"value\": v, \"unit\": u}}}}}}\n\
         \n\
         exit codes: 0 ok, 1 a run failed or an output check mismatched, 2 usage error\n",
        names.join(", ")
    )
}

fn number(flag: &str, value: &str) -> Result<u64, UsageError> {
    value
        .parse()
        .map_err(|_| UsageError(format!("{flag}: expected a whole number, got \"{value}\"")))
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, UsageError> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Command::Help);
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(UsageError(format!("unknown argument \"{flag}\"")));
        }
        let value = args
            .next()
            .ok_or_else(|| UsageError(format!("{flag}: missing value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    UsageError(format!("--workload: unknown workload \"{value}\""))
                })?);
            }
            "--seed" => seed = number(&flag, &value)?,
            "--seconds" => {
                seconds = number(&flag, &value)?;
                if !(1..=MAX_SECONDS).contains(&seconds) {
                    return Err(UsageError(format!(
                        "--seconds: must be 1..={MAX_SECONDS}, got {seconds}"
                    )));
                }
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(UsageError(format!(
                            "--trace: expected 0 or 1, got \"{value}\""
                        )))
                    }
                };
            }
        }
    }
    let workload = workload.ok_or_else(|| UsageError("--workload is required".to_string()))?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, UsageError> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn full_command_line_parses() {
        let command =
            parse_str("--workload dense_sweep_1024 --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            command,
            Command::Run(Args {
                workload: Workload::DenseSweep1024,
                seed: 42,
                seconds: 7,
                trace: true,
            })
        );
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert_eq!(parse_str("--workload nope --help"), Ok(Command::Help));
        assert_eq!(parse_str("-h"), Ok(Command::Help));
    }

    #[test]
    fn malformed_arguments_are_rejected_by_name() {
        for (line, needle) in [
            ("--workload table1_paper --bogus-flag", "--bogus-flag"),
            ("--workload table1_paper --seed", "--seed: missing value"),
            ("--workload table1_paper --seed x", "--seed"),
            ("--workload table1_paper --seconds 0", "--seconds"),
            ("--workload table1_paper --seconds 1000", "--seconds"),
            ("--workload table1_paper --trace 2", "--trace"),
            ("--workload nope", "unknown workload"),
            ("--seed 3", "--workload is required"),
            ("positional", "unknown argument"),
        ] {
            let error = parse_str(line).unwrap_err();
            assert!(error.0.contains(needle), "{line}: {error}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
    }

    #[test]
    fn only_table1_declares_no_random_input() {
        let fixed: Vec<_> = Workload::ALL
            .into_iter()
            .filter(|w| !w.has_random_input())
            .collect();
        assert_eq!(fixed, [Workload::Table1Paper]);
    }
}
