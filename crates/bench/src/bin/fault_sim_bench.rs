//! Measures fault-simulation sweep throughput across array organizations
//! and writes `BENCH_fault_sim.json`.
//!
//! ```text
//! cargo run --release -p bench --bin fault_sim_bench                  # 64x64 .. 1024x1024
//! cargo run --release -p bench --bin fault_sim_bench -- --organization 64x64,128x128
//! cargo run --release -p bench --bin fault_sim_bench -- --rows 16 --cols 16
//! cargo run --release -p bench --bin fault_sim_bench -- --passes 5 --out custom.json
//! cargo run --release -p bench --bin fault_sim_bench -- --dense-size 512x512 --dense-faults 50000
//! cargo run --release -p bench --bin fault_sim_bench -- --no-dense --no-campaign --no-daemon --no-scheduler
//! ```
//!
//! The workload is the acceptance sweep of the kernel work: the standard
//! fault list × the paper's Table 1 algorithms, measured per organization
//! for the per-fault kernel (serial + parallel) and the lane-batched
//! backend (≤64 faults per walk dispatch, serial + parallel), compared
//! against a frozen replica of the original per-fault-allocating serial
//! implementation up to 256×256 (`baseline_skipped` beyond — see
//! `bench::throughput::BASELINE_CELL_CAP`). The default sweep is the
//! ROADMAP's 64×64 → 1024×1024 scaling ladder, followed by the dense
//! section — a generated ≥100k-fault population vs. the standard list at
//! 1024×1024 and the address-aware packer vs. the greedy planner on an
//! overlap-heavy population (skip with `--no-dense`) — and the campaign
//! section, the crash-safe campaign runner's jobs/sec against a direct
//! per-job loop (skip with `--no-campaign`), the daemon section, the
//! dynamic-intake path's sustained jobs/sec and overload shed fraction
//! (skip with `--no-daemon`), and the scheduler section, interned
//! `OutcomeCode` report assembly against the classic
//! three-strings-per-fault `CoverageReport` (skip with
//! `--no-scheduler`).
//!
//! The flags, the `--help` text and the exit codes (`0` on success, `2`
//! for a malformed command line, `3` when the output file cannot be
//! written) come from the `CLI` table; `--help` and every usage error
//! are answered before any measurement runs.

use std::process::ExitCode;

use bench::throughput::FaultSimSweep;
use campaign::cli::{parse_size_list, Args, Cli, Flag, Section, UsageError, HELP};

/// The command line.
#[rustfmt::skip]
const CLI: Cli = Cli {
    program: "fault_sim_bench",
    synopsis: "[options]",
    sections: &[&Section { title: "", flags: &[
        Flag::value("--organization", "RxC,...", "organizations to sweep (default 64x64 .. 1024x1024)"),
        Flag::value("--rows", "N", "rows of a single organization (default 64)"),
        Flag::value("--cols", "N", "cols of a single organization (default 64)"),
        Flag::value("--passes", "N", "timed passes per variant (default 3)"),
        Flag::value("--out", "PATH", "output JSON (default BENCH_fault_sim.json)"),
        Flag::value("--dense-size", "RxC", "dense-section array (default 1024x1024)"),
        Flag::value("--dense-faults", "N", "dense-section population size (default 100000)"),
        Flag::switch("--no-dense", "skip the dense section"),
        Flag::switch("--no-campaign", "skip the campaign section"),
        Flag::switch("--no-daemon", "skip the daemon section"),
        Flag::switch("--no-scheduler", "skip the scheduler section"),
        HELP,
    ] }],
    exit_codes: &[
        (0, "success"),
        (2, "usage error (unknown flag, malformed value)"),
        (3, "the output file cannot be written"),
    ],
};

fn main() -> ExitCode {
    CLI.main(run)
}

fn run(args: &Args) -> Result<ExitCode, UsageError> {
    // `--rows`/`--cols` select a single organization (the pre-sweep CLI);
    // `--organization` takes the comma list.
    let single = if args.has("--rows") || args.has("--cols") {
        Some((args.parse("--rows", 64)?, args.parse("--cols", 64)?))
    } else {
        None
    };
    let organizations = match args.value("--organization") {
        Some(spec) => parse_size_list(spec, "--organization")?,
        None => single.map_or_else(
            || vec![(64, 64), (128, 128), (256, 256), (512, 512), (1024, 1024)],
            |size| vec![size],
        ),
    };
    let passes: usize = args.parse("--passes", 3)?;
    let out = args.value("--out").unwrap_or("BENCH_fault_sim.json");
    let dense = if args.has("--no-dense") {
        None
    } else {
        let (dense_rows, dense_cols) = match args.value("--dense-size") {
            Some(spec) => parse_size_list(spec, "--dense-size")?[0],
            None => (1024, 1024),
        };
        let dense_faults: usize = args.parse("--dense-faults", 100_000)?;
        Some((dense_rows, dense_cols, dense_faults))
    };
    let campaign = !args.has("--no-campaign");
    let daemon = !args.has("--no-daemon");
    let scheduler = !args.has("--no-scheduler");

    println!(
        "# Fault-simulation sweep throughput ({} organizations, {passes} passes per variant)",
        organizations.len()
    );
    let sweep =
        FaultSimSweep::measure_full(&organizations, passes, dense, campaign, daemon, scheduler);
    for result in &sweep.sizes {
        println!(
            "{}x{}: {} algorithms x {} faults, {} threads",
            result.rows,
            result.cols,
            result.algorithms.len(),
            result.fault_count,
            result.threads
        );
        match result.baseline {
            Some(baseline) => println!(
                "  baseline (seed-style serial, full walks):  {:>12.1} faults/sec",
                baseline.faults_per_sec
            ),
            None => println!("  baseline (seed-style serial):              skipped above 256x256"),
        }
        let vs_baseline = |speedup: Option<f64>| {
            speedup.map_or_else(String::new, |s| format!("   ({s:.1}x vs baseline)"))
        };
        println!(
            "  kernel serial (shared walk + early exit):  {:>12.1} faults/sec{}",
            result.kernel_serial.faults_per_sec,
            vs_baseline(result.speedup_serial())
        );
        println!(
            "  kernel parallel (+ threaded sweep):        {:>12.1} faults/sec{}",
            result.kernel_parallel.faults_per_sec,
            vs_baseline(result.speedup_parallel())
        );
        println!(
            "  lane-batched serial (64 faults per walk):  {:>12.1} faults/sec   ({:.1}x vs kernel)",
            result.batched.faults_per_sec,
            result.speedup_batched_vs_kernel()
        );
        println!(
            "  lane-batched parallel (cohorts on threads):{:>12.1} faults/sec   ({:.1}x vs kernel)",
            result.batched_parallel.faults_per_sec,
            result.speedup_batched_parallel_vs_kernel()
        );
    }

    if let Some(section) = &sweep.dense {
        println!(
            "dense section at {}x{} ({}):",
            section.rows, section.cols, section.algorithm
        );
        println!(
            "  standard list ({} faults, batched serial): {:>12.1} faults/sec",
            section.standard_fault_count, section.standard.faults_per_sec
        );
        println!(
            "  {} ({} faults, batched serial):   {:>12.1} faults/sec   ({:.2}x vs standard)",
            section.population,
            section.fault_count,
            section.dense.faults_per_sec,
            section.speedup_dense_vs_standard()
        );
        println!(
            "  dense parallel ({} worker threads):        {:>12.1} faults/sec",
            section.threads, section.dense_parallel.faults_per_sec
        );
        println!(
            "  dense shuffled (packed-order execution):   {:>12.1} faults/sec   ({:.2}x vs ordered)",
            section.dense_shuffled.faults_per_sec,
            section.speedup_shuffled_vs_ordered()
        );
        println!(
            "  packer vs greedy ({} overlap-heavy faults): {} vs {} merged steps ({:.2}x smaller)",
            section.packer.fault_count,
            section.packer.packed_schedule_steps,
            section.packer.greedy_schedule_steps,
            section.packer.speedup_packed_schedule()
        );
    }

    if let Some(section) = &sweep.campaign {
        println!("campaign section ({} jobs):", section.jobs);
        println!(
            "  direct per-job loop (no journal):          {:>12.1} jobs/sec",
            section.direct_jobs_per_sec
        );
        println!(
            "  journaled campaign (1 thread):             {:>12.1} jobs/sec   ({:.2}x vs direct)",
            section.campaign_jobs_per_sec,
            section.speedup_campaign_vs_direct()
        );
        println!(
            "  journaled campaign ({} worker threads):     {:>12.1} jobs/sec",
            section.threads, section.campaign_parallel_jobs_per_sec
        );
    }

    if let Some(section) = &sweep.daemon {
        println!(
            "daemon section ({} jobs offered per pass):",
            section.offered
        );
        println!(
            "  sustained intake (spool + journal v2):     {:>12.1} jobs/sec",
            section.intake_jobs_per_sec
        );
        println!(
            "  overload shed (queue bound {}):             {:.0}% answered queue-full",
            section.queue_limit,
            section.shed_fraction * 100.0
        );
    }

    if let Some(section) = &sweep.scheduler {
        println!(
            "scheduler section ({} outcomes per pass):",
            section.outcomes
        );
        println!(
            "  strings assembly (3 strings per outcome):  {:>12.1} outcomes/sec",
            section.strings_outcomes_per_sec
        );
        println!(
            "  interned assembly (16-byte codes):         {:>12.1} outcomes/sec   ({:.2}x vs strings)",
            section.interned_outcomes_per_sec,
            section.speedup_interned_vs_strings()
        );
    }

    if let Err(error) = std::fs::write(out, sweep.to_json()) {
        return Ok(CLI.failed(format!("cannot write {out}: {error}")));
    }
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
