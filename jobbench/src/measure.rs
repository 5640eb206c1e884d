//! Metric names, the result line, summary statistics, process memory and
//! seed derivation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit printed beside every value.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by every timed run (`--trace 0`).
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s"),
    def("jobs_per_s", "jobs/s"),
    def("sim_cycles_per_s", "cycles/s"),
    def("peak_rss_mb", "MB"),
    def("prr_error_pct", "%"),
];

/// Printed by every traced run (`--trace 1`). A workload that never calls
/// a layer prints 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 24] = [
    def("faultgen.build_s", "s"),
    def("executor.walk_build_s", "s"),
    def("executor.walk_steps", "count"),
    def("executor.walk_rss_mb", "MB"),
    def("batch.plan_s", "s"),
    def("batch.merged_steps", "count"),
    def("batch.lane_ratio", "ratio"),
    def("coverage.sweep_s", "s"),
    def("runner.job_s", "s"),
    def("runner.overhead_s_per_job", "s"),
    def("pool.efficiency", "ratio"),
    def("journal.append_s_p50", "s"),
    def("journal.append_s_p99", "s"),
    def("journal.added_append_s_p50", "s"),
    def("output.export_s", "s"),
    def("spool.submit_s_p50", "s"),
    def("spool.scan_pending_s", "s"),
    def("spool.scan_archived_s", "s"),
    def("daemon.overhead_s_per_job", "s"),
    def("scheduler.plan_s", "s"),
    def("engine.sessions_s", "s"),
    def("engine.session_s_max", "s"),
    def("sram.controller_cycles_per_s", "cycles/s"),
    def("trace.overhead_ratio", "ratio"),
];

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest measured passes per run, however long they take.
pub const MIN_PASSES: usize = 3;
/// `peak_rss_mb` covers the first this many measured passes (all of
/// them in a shorter run), so that it measures the same work however
/// fast the host runs. On `table1_paper` the peak now and then steps up
/// by 13 MB (24%) and stays there for the rest of the process; over a
/// whole 40 s run of about 250 passes that happened in one run in five,
/// so each extra pass would add to the chance. On `dense_sweep_1024`
/// whether two 1024×1024 walks overlap varies from pass to pass (pass
/// peaks range 580–790 MB), so the peak needs many passes to settle.
pub const PEAK_RSS_PASSES: usize = 40;

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Jobs or sessions attempted.
    pub attempted: u64,
    /// Failed operations: failed attempts, poisoned, shed, rejected and
    /// timed-out jobs, and output-check mismatches.
    pub failed: u64,
    /// One line per failure, for standard error.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl RunReport {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// `failed ÷ attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether the run completed with every output check passing.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric values to print: the end-to-end set of a timed run or
    /// the per-layer set of a traced one. A missing end-to-end value, or
    /// a recorded metric outside both sets, is a bug and is reported as a
    /// failure.
    pub fn finish(&mut self, trace: bool) -> Vec<(MetricDef, f64)> {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut printed = Vec::new();
        for def in defs {
            match self.metrics.get(def.name) {
                Some(&value) if value.is_finite() => printed.push((*def, value)),
                Some(&value) => {
                    self.fail(format!("{}: not a finite number ({value})", def.name));
                    printed.push((*def, 0.0));
                }
                None if trace => printed.push((*def, 0.0)),
                None => {
                    self.fail(format!("{}: not measured", def.name));
                    printed.push((*def, 0.0));
                }
            }
        }
        let declared = |name: &str| END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name);
        let stray: Vec<&str> = self
            .metrics
            .keys()
            .copied()
            .filter(|n| !declared(n))
            .collect();
        for name in stray {
            self.fail(format!("{name}: recorded but not declared"));
        }
        printed
    }
}

/// Runs `body` on a fresh report; an error it returns (an I/O failure, a
/// rejected configuration) counts as one more failed operation.
pub fn run_report(body: impl FnOnce(&mut RunReport) -> Result<(), String>) -> RunReport {
    let mut report = RunReport::default();
    if let Err(error) = body(&mut report) {
        report.fail(error);
    }
    report
}

/// Renders the result line the benchmark prints last.
pub fn result_line(report: &RunReport, metrics: &[(MetricDef, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (index, (def, value)) in metrics.iter().enumerate() {
        if index > 0 {
            line.push_str(", ");
        }
        // `{}` prints the shortest representation that round-trips, so
        // every digit the measurement has is kept.
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `peak_rss_mb` from the peaks of the measured passes, in order: the
/// highest of the first [`PEAK_RSS_PASSES`].
pub fn peak_of_passes(peaks: &[f64]) -> f64 {
    peaks
        .iter()
        .take(PEAK_RSS_PASSES)
        .copied()
        .fold(0.0, f64::max)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("read /proc/self/status: {error}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unparsable VmHWM line \"{line}\""))?;
    Ok(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] sees only the peak reached after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|error| format!("write /proc/self/clear_refs: {error}"))
}

/// Derives the `index`-th job seed from the workload seed (SplitMix64).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn peak_of_passes_covers_only_the_first_passes() {
        let mut peaks = vec![50.0; PEAK_RSS_PASSES];
        peaks[3] = 60.0;
        peaks.push(70.0);
        assert_eq!(peak_of_passes(&peaks), 60.0);
        assert_eq!(peak_of_passes(&peaks[..2]), 50.0);
    }

    #[test]
    fn derived_seeds_are_distinct_and_repeatable() {
        let seeds: Vec<u64> = (0..1000).map(|i| derive_seed(5, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(derive_seed(5, 17), seeds[17]);
        assert_ne!(derive_seed(6, 17), seeds[17]);
    }

    #[test]
    fn result_line_lists_exactly_the_requested_set() {
        let mut report = RunReport {
            attempted: 4,
            ..RunReport::default()
        };
        for def in END_TO_END {
            report.set(def.name, 1.5);
        }
        let printed = report.finish(false);
        let line = result_line(&report, &printed);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        for def in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", def.name)));
        }
        assert!(!line.contains("pool.efficiency"));

        // A traced run prints every per-layer metric, 0 where unmeasured.
        let mut traced = RunReport {
            attempted: 1,
            ..RunReport::default()
        };
        traced.set("pool.efficiency", 0.75);
        let printed = traced.finish(true);
        assert_eq!(printed.len(), PER_LAYER.len());
        assert!(traced.correct());
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut report = RunReport {
            attempted: 1,
            ..RunReport::default()
        };
        report.set("setup_s", 0.1);
        report.finish(false);
        assert!(!report.correct());
        assert_eq!(report.failed, END_TO_END.len() as u64 - 1);
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + crate::cli::Workload::ALL.len()
        );
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::cli::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }

    #[test]
    fn peak_rss_is_readable_and_resettable() {
        let before = peak_rss_mb().unwrap();
        assert!(before > 0.0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() <= before);
    }
}
