//! Timed and traced runs of the `table1_paper` workload: the paper's
//! Table 1 on its 512×512 configuration. The workload has no random
//! input; `--seed` changes nothing.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use lp_precharge::engine::{SessionOutcome, TestSession};
use lp_precharge::mode::OperatingMode;
use lp_precharge::report::{
    paper_prr_for, paper_table1_reference, reproduce_table1, reproduce_table1_serial,
};
use lp_precharge::scheduler::{LpOptions, SchedulePlan};
use march_test::algorithm::MarchTest;
use march_test::library::{mats_plus, table1_algorithms};
use march_test::parallel::max_threads;
use power_model::analytic::AnalyticPowerModel;
use power_model::calibration::CalibratedParameters;
use power_model::report::Table1Row;
use sram_model::config::SramConfig;

use crate::cli::Args;
use crate::measure::{
    median, peak_of_passes, peak_rss_mb, reset_peak_rss, RunReport, MIN_PASSES, SETUP_REPEATS,
};
use crate::spans::{Recorder, SpanId, Trace};

/// Power sessions per pass: five algorithms × two modes.
const SESSIONS_PER_PASS: u64 = 10;

/// Mean |simulated PRR − the paper's PRR| over the Table 1 algorithms,
/// in percentage points.
pub fn prr_error(rows: &[Table1Row]) -> Result<f64, String> {
    let reference = paper_table1_reference();
    let mut sum = 0.0;
    for (algorithm, paper) in &reference {
        let row = rows
            .iter()
            .find(|row| row.algorithm == *algorithm)
            .ok_or_else(|| format!("Table 1 has no {algorithm} row"))?;
        sum += (row.prr_simulated_percent - paper).abs();
    }
    Ok(sum / reference.len() as f64)
}

/// The model's Table 1 error on the paper's configuration, printed
/// beside every workload's speed.
pub fn prr_error_pct() -> Result<f64, String> {
    let rows = reproduce_table1(&SramConfig::paper_default()).map_err(|error| error.to_string())?;
    prr_error(&rows)
}

/// Whether two tables agree to the last bit.
fn identical(a: &[Table1Row], b: &[Table1Row]) -> bool {
    let bits = |row: &Table1Row| {
        (
            row.algorithm.clone(),
            [row.elements, row.operations, row.reads, row.writes],
            [
                row.prr_simulated_percent.to_bits(),
                row.prr_analytic_percent.to_bits(),
                row.prr_paper_percent.to_bits(),
            ],
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Simulated clock cycles of one pass: every algorithm in both modes,
/// one operation per cycle over every cell.
fn pass_cycles(config: &SramConfig) -> f64 {
    let cells = f64::from(config.organization().capacity());
    table1_algorithms()
        .iter()
        .map(|test| 2.0 * test.operation_count() as f64 * cells)
        .sum()
}

fn table(config: &SramConfig) -> Result<Vec<Table1Row>, String> {
    reproduce_table1(config).map_err(|error| error.to_string())
}

/// A timed run: set-ups, measured passes, output checks, end-to-end
/// metrics.
pub fn timed(args: &Args, process_start: Instant, report: &mut RunReport) -> Result<(), String> {
    // Set-up: the configuration, the schedule-plan build that fills the
    // shared plan cache (rebuilt uncached on later set-ups, since the
    // cache cannot be emptied), and one warm-up pass.
    let mut setups = Vec::new();
    let mut prepared: Option<(SramConfig, Vec<Table1Row>)> = None;
    for repeat in 0..SETUP_REPEATS {
        let start = if repeat == 0 {
            process_start
        } else {
            Instant::now()
        };
        let config = SramConfig::paper_default();
        black_box(SchedulePlan::new(
            *config.organization(),
            LpOptions::default(),
        ));
        let rows = table(&config)?;
        report.attempted += SESSIONS_PER_PASS;
        if prepared
            .as_ref()
            .is_some_and(|(_, first)| !identical(first, &rows))
        {
            report.fail("a warm-up pass's Table 1 differs from the first");
        }
        setups.push(start.elapsed().as_secs_f64());
        prepared.get_or_insert((config, rows));
    }
    let (config, reference) = prepared.expect("at least one set-up");
    let error = prr_error(&reference)?;

    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let measured = Instant::now();
    while walls.len() < MIN_PASSES || measured.elapsed() < Duration::from_secs(args.seconds) {
        reset_peak_rss()?;
        let start = Instant::now();
        let rows = table(&config)?;
        walls.push(start.elapsed().as_secs_f64());
        peaks.push(peak_rss_mb()?);
        report.attempted += SESSIONS_PER_PASS;
        if !identical(&reference, &rows) || prr_error(&rows)?.to_bits() != error.to_bits() {
            report.fail("a pass's Table 1 or PRR error differs from the first pass's");
        }
    }

    // Output checks: parallel == serial, every session functionally
    // correct, and one session's replayed run == its full simulation.
    let serial = reproduce_table1_serial(&config).map_err(|error| error.to_string())?;
    report.attempted += SESSIONS_PER_PASS;
    if !identical(&reference, &serial) {
        report.fail("reproduce_table1 differs from reproduce_table1_serial");
    }
    let session = TestSession::new(config);
    let mut cycles = 0;
    for test in table1_algorithms() {
        for mode in OperatingMode::both() {
            let outcome = session
                .run(&test, mode)
                .map_err(|error| error.to_string())?;
            report.attempted += 1;
            cycles += outcome.report.cycles;
            if !outcome.is_functionally_correct() {
                report.fail(format!(
                    "{} in {mode:?} is not functionally correct",
                    test.name()
                ));
            }
        }
    }
    if cycles as f64 != pass_cycles(&config) {
        report.fail(format!(
            "sessions ran {cycles} cycles, expected {}",
            pass_cycles(&config)
        ));
    }
    let (replayed, simulated, _) = replay_vs_full(&session, &mats_plus())?;
    report.attempted += 1;
    if replayed != simulated {
        report.fail("MATS+ low-power run differs from its full simulation");
    }

    let sessions: Vec<f64> = walls
        .iter()
        .map(|wall| SESSIONS_PER_PASS as f64 / wall)
        .collect();
    let rates: Vec<f64> = walls
        .iter()
        .map(|wall| pass_cycles(&config) / wall)
        .collect();
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_of_passes(&peaks));
    report.set("jobs_per_s", median(&sessions));
    report.set("sim_cycles_per_s", median(&rates));
    report.set("prr_error_pct", error);
    eprintln!(
        "table1_paper: {} passes, pass wall median {:.4} s, PRR error {error} %",
        walls.len(),
        median(&walls)
    );
    Ok(())
}

/// Runs `test` in low-power mode through the row-replay kernel and the
/// full cycle-by-cycle simulation; returns both and the latter's time.
fn replay_vs_full(
    session: &TestSession,
    test: &MarchTest,
) -> Result<(SessionOutcome, SessionOutcome, Duration), String> {
    let mode = OperatingMode::LowPowerTest;
    let replayed = session.run(test, mode).map_err(|error| error.to_string())?;
    let start = Instant::now();
    let simulated = session
        .run_fully_simulated(test, mode, false)
        .map_err(|error| error.to_string())?;
    Ok((replayed, simulated, start.elapsed()))
}

/// One Table 1 row built from the layers' public functions, each power
/// session inside an `engine.session` span under the row's
/// `report.table1_row` span.
fn traced_row(
    config: &SramConfig,
    test: &MarchTest,
    index: u32,
    recorder: &mut Recorder,
) -> Result<Table1Row, String> {
    let id = SpanId::Session(index);
    let start = Instant::now();
    let session = TestSession::new(*config);
    let mut run = |mode| {
        recorder
            .time(id, "engine.session", Some("report.table1_row"), || {
                session.run(test, mode)
            })
            .map_err(|error| error.to_string())
    };
    let functional = run(OperatingMode::Functional)?;
    let low_power = run(OperatingMode::LowPowerTest)?;
    let pf = functional.report.average_power.value();
    let plpt = low_power.report.average_power.value();
    let prr = if pf > 0.0 { 1.0 - plpt / pf } else { 0.0 };
    let analytic = AnalyticPowerModel::new(CalibratedParameters::derive(
        config.technology(),
        config.organization(),
    ));
    let row = Table1Row {
        algorithm: test.name().to_string(),
        elements: test.element_count(),
        operations: test.operation_count(),
        reads: test.read_count(),
        writes: test.write_count(),
        prr_simulated_percent: prr * 100.0,
        prr_analytic_percent: analytic.power_reduction_ratio(test, config.organization()) * 100.0,
        prr_paper_percent: paper_prr_for(test.name()).unwrap_or(f64::NAN),
    };
    recorder.record(id, "report.table1_row", None, start, Instant::now());
    Ok(row)
}

/// A traced pass: the rows fan out over the same contiguous chunks
/// `reproduce_table1` uses.
fn traced_pass(
    config: &SramConfig,
    origin: Instant,
    pass: u32,
) -> Result<(Vec<Table1Row>, f64, Vec<Recorder>), String> {
    let tests = table1_algorithms();
    let workers = max_threads().min(tests.len()).max(1);
    let chunk = tests.len().div_ceil(workers);
    let start = Instant::now();
    let chunks: Vec<(Vec<Result<Table1Row, String>>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tests
            .chunks(chunk)
            .enumerate()
            .map(|(part, chunk_tests)| {
                scope.spawn(move || {
                    let mut recorder = Recorder::new(origin, "table1", pass);
                    let rows = chunk_tests
                        .iter()
                        .enumerate()
                        .map(|(offset, test)| {
                            traced_row(config, test, (part * chunk + offset) as u32, &mut recorder)
                        })
                        .collect();
                    (rows, recorder)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("traced Table 1 worker panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut rows = Vec::with_capacity(tests.len());
    let mut recorders = Vec::with_capacity(chunks.len());
    for (chunk_rows, recorder) in chunks {
        for row in chunk_rows {
            rows.push(row?);
        }
        recorders.push(recorder);
    }
    Ok((rows, wall, recorders))
}

/// A traced run: untraced and traced passes alternate for the measured
/// phase; plan build, serial table and full simulation are timed beside
/// them.
pub fn traced(args: &Args, trace_path: &Path, report: &mut RunReport) -> Result<(), String> {
    let origin = Instant::now();
    let config = SramConfig::paper_default();
    let reference = table(&config)?;
    report.attempted += SESSIONS_PER_PASS;
    let mut trace = Trace::default();

    let mut serial = Recorder::new(origin, "table1", 0);
    for _ in 0..MIN_PASSES {
        serial.time(SpanId::Pass, "scheduler.plan", None, || {
            black_box(SchedulePlan::new(
                *config.organization(),
                LpOptions::default(),
            ))
        });
    }

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut sessions_sums, mut sessions_max) = (Vec::new(), Vec::new());
    let measured = Instant::now();
    while traced.len() < MIN_PASSES || measured.elapsed() < Duration::from_secs(args.seconds) {
        let start = Instant::now();
        let rows = table(&config)?;
        untraced.push(start.elapsed().as_secs_f64());
        let pass = traced.len() as u32 + 1;
        let (traced_rows, wall, recorders) = traced_pass(&config, origin, pass)?;
        traced.push(wall);
        report.attempted += 2 * SESSIONS_PER_PASS;
        if !identical(&reference, &rows) || !identical(&reference, &traced_rows) {
            report.fail("a pass's Table 1 differs from the reference");
        }
        let sessions: Vec<f64> = recorders
            .iter()
            .flat_map(|recorder| recorder.spans())
            .filter(|span| span.name == "engine.session")
            .map(|span| span.seconds())
            .collect();
        sessions_sums.push(sessions.iter().sum());
        sessions_max.push(sessions.iter().copied().fold(0.0, f64::max));
        recorders
            .into_iter()
            .for_each(|recorder| trace.absorb(recorder));
    }

    let mut serial_walls = Vec::new();
    for _ in 0..MIN_PASSES {
        let start = Instant::now();
        let rows = reproduce_table1_serial(&config).map_err(|error| error.to_string())?;
        serial_walls.push(start.elapsed().as_secs_f64());
        report.attempted += SESSIONS_PER_PASS;
        if !identical(&reference, &rows) {
            report.fail("reproduce_table1_serial differs from reproduce_table1");
        }
    }
    let session = TestSession::new(config);
    let test = mats_plus();
    let (replayed, simulated, full) =
        serial.time(SpanId::Pass, "sram.run_fully_simulated", None, || {
            replay_vs_full(&session, &test)
        })?;
    report.attempted += 1;
    if replayed != simulated {
        report.fail("MATS+ low-power run differs from its full simulation");
    }
    trace.absorb(serial);

    let workers = max_threads().min(table1_algorithms().len()) as f64;
    let wall = median(&untraced);
    report.set(
        "scheduler.plan_s",
        median(&trace.seconds("table1", "scheduler.plan", true)),
    );
    report.set("engine.sessions_s", median(&sessions_sums));
    report.set("engine.session_s_max", median(&sessions_max));
    report.set(
        "sram.controller_cycles_per_s",
        simulated.report.cycles as f64 / full.as_secs_f64(),
    );
    report.set("pool.efficiency", median(&serial_walls) / (workers * wall));
    report.set("trace.overhead_ratio", median(&traced) / wall - 1.0);
    eprintln!(
        "table1_paper: {} untraced / {} traced passes, pass wall median {:.4} s untraced, {:.4} s traced",
        untraced.len(),
        traced.len(),
        wall,
        median(&traced)
    );
    trace.print_layer_times();
    trace
        .write(trace_path)
        .map_err(|error| format!("write {}: {error}", trace_path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_rows_equal_the_library_rows() {
        let config = SramConfig::small_for_tests(8, 32).unwrap();
        let (rows, _, recorders) = traced_pass(&config, Instant::now(), 1).unwrap();
        assert!(identical(&rows, &reproduce_table1(&config).unwrap()));
        let sessions = recorders
            .iter()
            .flat_map(|recorder| recorder.spans())
            .filter(|span| span.name == "engine.session")
            .count();
        assert_eq!(sessions, 10);
    }

    #[test]
    fn paper_configuration_reproduces_with_a_stable_error() {
        let rows = reproduce_table1(&SramConfig::paper_default()).unwrap();
        let error = prr_error(&rows).unwrap();
        assert!(error > 0.0 && error < 2.0, "{error}");
        assert_eq!(prr_error_pct().unwrap().to_bits(), error.to_bits());
        assert_eq!(pass_cycles(&SramConfig::paper_default()), 38_797_312.0);
    }
}
