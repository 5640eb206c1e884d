//! Real campaign job results, pinned as literals.
//!
//! Journals record each job's `(detected, total, mismatches, digest)` and
//! a resumed campaign trusts them. The digest tests elsewhere compare the
//! two report shapes with each other and `journal_compat` pins synthetic
//! results, so a drift that moved a real sweep's outcome in both report
//! shapes at once would pass them while old journals kept resuming
//! against the old values. These literals were captured from the
//! per-owner lane kernel and the per-fault golden path; every sweep
//! engine must keep reproducing them bit for bit.

use campaign::journal::JobResult;
use campaign::runner::run_job;
use campaign::{JobSpec, PopulationSpec};
use march_test::coverage::SweepBackend;

fn job(
    rows: u32,
    cols: u32,
    seed: u64,
    algorithm: &str,
    population: PopulationSpec,
    backend: SweepBackend,
) -> JobSpec {
    JobSpec {
        rows,
        cols,
        seed,
        algorithm: algorithm.to_string(),
        order: "word line after word line".to_string(),
        background: false,
        backend,
        population,
    }
}

fn assert_pinned(spec: &JobSpec, expected: JobResult) {
    let result = run_job(spec).expect("pinned job runs");
    assert_eq!(
        result,
        expected,
        "{} {}x{} {} seed {} via {:?}: got {result:?}",
        spec.algorithm,
        spec.rows,
        spec.cols,
        spec.population.render(),
        spec.seed,
        spec.backend,
    );
}

#[test]
fn march_ss_dense_2000_at_64x64_seed_1_is_pinned() {
    let expected = JobResult {
        detected: 1807,
        total: 2000,
        mismatches: 11809,
        digest: 0x8A49_7FCF_DBBB_D2E8,
    };
    for backend in [SweepBackend::LaneBatched, SweepBackend::PerFault] {
        let spec = job(
            64,
            64,
            1,
            "March SS",
            PopulationSpec::Dense { target: 2000 },
            backend,
        );
        assert_pinned(&spec, expected);
    }
}

#[test]
fn march_c_minus_standard_at_16x16_is_pinned() {
    let expected = JobResult {
        detected: 44,
        total: 48,
        mismatches: 121,
        digest: 0xB591_9426_C71D_2215,
    };
    for backend in [SweepBackend::LaneBatched, SweepBackend::PerFault] {
        let spec = job(16, 16, 1, "March C-", PopulationSpec::Standard, backend);
        assert_pinned(&spec, expected);
    }
}
