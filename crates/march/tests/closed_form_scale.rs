//! A March SS sweep at 4096×4096 — a walk of ~369M steps.
//!
//! A walk that stored every step (eight bytes each, plus an eight-byte
//! per-address index entry) would need ~6 GB here. The closed-form walk
//! stores the address permutation and its inverse (128 MB), so the whole
//! sweep runs inside the ordinary test suite. The lane-batched sweep of
//! a seeded dense population is checked against the per-fault golden
//! path on a sample of the same population over the same walk.
//!
//! The sample takes evenly spaced *localised* faults: the golden path
//! runs those on their involved addresses only. A global fault (the
//! stuck-open model) makes the golden path run all ~369M steps, seconds
//! per fault even in release builds; lane sweeps of global faults are
//! checked against the golden path on small arrays by
//! `lane_batch_equivalence.rs` and `dense_population_differential.rs`.

use march_test::address_order::WordLineAfterWordLine;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::FaultFactory;
use march_test::library;
use sram_model::config::ArrayOrganization;

#[test]
fn march_ss_lane_sweep_at_4096_by_4096_matches_the_per_fault_sample() {
    let organization = ArrayOrganization::new(4096, 4096).expect("valid organization");
    let test = library::march_ss();
    let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
    assert_eq!(
        walk.len() as u64,
        test.total_operations(u64::from(organization.capacity()))
    );
    let population = FaultGen::new(organization, 0x4096).dense_profile(2000);
    let options = |backend| SweepOptions {
        background: false,
        mode: DetectionMode::FirstMismatch,
        parallel: false,
        backend,
    };
    let batched =
        evaluate_coverage_interned_on_walk(&walk, &population, options(SweepBackend::LaneBatched))
            .materialize();
    assert_eq!(batched.total(), population.len());
    assert!(
        batched.detected() > 0,
        "a dense population is partly detected"
    );

    let localised: Vec<bool> = population
        .iter()
        .map(|factory| factory().involved_addresses().is_some())
        .collect();
    let stride = localised.iter().filter(|&&local| local).count() / 64;
    let (positions, sample): (Vec<usize>, Vec<FaultFactory>) = population
        .factories
        .into_iter()
        .enumerate()
        .filter(|(index, _)| localised[*index])
        .step_by(stride)
        .take(64)
        .unzip();
    assert_eq!(sample.len(), 64);
    let golden =
        evaluate_coverage_interned_on_walk(&walk, &sample, options(SweepBackend::PerFault))
            .materialize();
    for (outcome, &index) in golden.outcomes().iter().zip(&positions) {
        assert_eq!(outcome, &batched.outcomes()[index], "fault {index}");
    }
}
