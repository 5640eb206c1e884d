//! Seed-driven randomized differential testing of the lane-batched sweep
//! engines against the serial per-fault golden path.
//!
//! The exhaustive equivalence suite (`lane_batch_equivalence.rs`) pins the
//! batched backend on the *standard* 48-fault library; this harness
//! attacks the space the standard list cannot reach: for many SplitMix64
//! seeds it draws a random population (1..=400 faults, every fault kind
//! mixed, random victims/aggressors over a random organization), a random
//! algorithm, address order, data background and detection mode — and
//! asserts the batched path is **bit-identical** to the golden path:
//!
//! * the whole [`CoverageReport`] (detected/escaped and mismatch counts
//!   per fault, in fault-list order) under both cohort planners, serial
//!   and parallel;
//! * the first-detecting element/operation of every lane
//!   ([`LaneDetection::first_mismatch`]) against the first entry of the
//!   serial full-walk mismatch list.
//!
//! Every assertion message carries the scenario seed, so a failure
//! reproduces with `scenario(seed)` alone — no fault list to copy around.
//!
//! [`CoverageReport`]: march_test::coverage::CoverageReport
//! [`LaneDetection::first_mismatch`]: march_test::executor::LaneDetection

use march_test::address_order::{
    AddressOrder, ColumnMajor, LinearOrder, PseudoRandomOrder, WordLineAfterWordLine,
};
use march_test::algorithm::MarchTest;
use march_test::batch::{Cohort, CohortPlanner, FaultBatch};
use march_test::coverage::{
    evaluate_coverage_interned_on_walk, CoverageReport, SweepBackend, SweepOptions,
};
use march_test::executor::{run_march_lanes, run_march_walk, MarchResult, MarchWalk};
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::{FaultFactory, FaultyMemory};
use march_test::library;
use march_test::memory::GoodMemory;
use march_test::rng::SplitMix64;
use sram_model::config::ArrayOrganization;

/// Sweeps `faults` under `test`/`order` through the sweep driver and
/// materializes the string-bearing report.
fn sweep_report(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultFactory],
    options: SweepOptions,
) -> CoverageReport {
    let walk = MarchWalk::new(test, order, organization);
    evaluate_coverage_interned_on_walk(&walk, faults, options).materialize()
}

/// One randomized scenario, fully determined by `seed`.
struct Scenario {
    seed: u64,
    organization: ArrayOrganization,
    population: Vec<FaultFactory>,
    test: march_test::algorithm::MarchTest,
    order: Box<dyn AddressOrder>,
    background: bool,
    mode: DetectionMode,
}

impl Scenario {
    /// Human-readable reproduction tag for assertion messages.
    fn tag(&self) -> String {
        format!(
            "seed {:#x} ({} faults on {}x{}, {}, {}, background {}, {:?}) — rerun with \
             Scenario::draw({:#x})",
            self.seed,
            self.population.len(),
            self.organization.rows(),
            self.organization.cols(),
            self.test.name(),
            self.order.name(),
            self.background,
            self.mode,
            self.seed,
        )
    }

    /// Draws the scenario of `seed`: every random choice comes from one
    /// SplitMix64 stream, so the seed alone reproduces it.
    fn draw(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let rows = 2 + rng.next_below(9) as u32;
        let cols = 2 + rng.next_below(9) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let size = 1 + rng.next_below(400) as usize;
        let population = FaultGen::new(organization, rng.next_u64()).mixed(size);
        let tests = library::all_algorithms();
        let test = tests[rng.next_below(tests.len() as u64) as usize].clone();
        let order: Box<dyn AddressOrder> = match rng.next_below(4) {
            0 => Box::new(WordLineAfterWordLine),
            1 => Box::new(ColumnMajor),
            2 => Box::new(LinearOrder),
            _ => Box::new(PseudoRandomOrder::new(rng.next_u64())),
        };
        let background = rng.next_bool();
        let mode = if rng.next_bool() {
            DetectionMode::Full
        } else {
            DetectionMode::FirstMismatch
        };
        Self {
            seed,
            organization,
            population,
            test,
            order,
            background,
            mode,
        }
    }

    /// Asserts every batched configuration reproduces the golden path
    /// bit-identically on this scenario.
    fn check(&self) {
        let golden = sweep_report(
            &self.test,
            self.order.as_ref(),
            &self.organization,
            &self.population,
            SweepOptions {
                background: self.background,
                mode: self.mode,
                parallel: false,
                backend: SweepBackend::PerFault,
            },
        );
        assert_eq!(golden.total(), self.population.len(), "{}", self.tag());
        for backend in [
            SweepBackend::LaneBatched,
            SweepBackend::LaneBatchedListOrder,
        ] {
            for parallel in [false, true] {
                let batched = sweep_report(
                    &self.test,
                    self.order.as_ref(),
                    &self.organization,
                    &self.population,
                    SweepOptions {
                        background: self.background,
                        mode: self.mode,
                        parallel,
                        backend,
                    },
                );
                assert_eq!(
                    golden,
                    batched,
                    "{} [{backend:?}, parallel={parallel}]",
                    self.tag()
                );
            }
        }
        self.check_first_mismatches();
    }

    /// Asserts the per-lane detection details (detected, mismatch count,
    /// first mismatching element/operation) of every planned lane cohort
    /// equal the serial full-walk results, under both planners.
    fn check_first_mismatches(&self) {
        let walk = MarchWalk::new(&self.test, self.order.as_ref(), &self.organization);
        // The golden full-walk result of each fault, computed once and
        // shared by both planners' comparisons.
        let serial: Vec<MarchResult> = self
            .population
            .iter()
            .map(|factory| {
                let mut memory = FaultyMemory::new(
                    GoodMemory::filled(self.organization.capacity(), self.background),
                    factory(),
                );
                run_march_walk(&walk, &mut memory)
            })
            .collect();
        for planner in [CohortPlanner::AddressAware, CohortPlanner::ListOrderGreedy] {
            let plan = FaultBatch::plan_with(&walk, &self.population, planner);
            assert_eq!(plan.fault_count(), self.population.len(), "{}", self.tag());
            for cohort in plan.cohorts() {
                let Cohort::Lanes(indices) = cohort else {
                    continue;
                };
                let mut lanes: Vec<_> = indices
                    .iter()
                    .map(|&index| {
                        self.population[index]()
                            .lane_kind()
                            .expect("planned lane faults have lane kinds")
                    })
                    .collect();
                let detections = run_march_lanes(&walk, &mut lanes, self.background, self.mode);
                for (&index, detection) in indices.iter().zip(&detections) {
                    let reference = &serial[index];
                    let name = self.population[index]().name();
                    assert_eq!(
                        detection.detected,
                        reference.detected_fault(),
                        "{} [{planner:?}, fault {index} {name}] detection flag",
                        self.tag()
                    );
                    let expected_mismatches = match self.mode {
                        DetectionMode::Full => reference.mismatches.len(),
                        DetectionMode::FirstMismatch => usize::from(reference.detected_fault()),
                    };
                    assert_eq!(
                        detection.mismatches,
                        expected_mismatches,
                        "{} [{planner:?}, fault {index} {name}] mismatch count",
                        self.tag()
                    );
                    assert_eq!(
                        detection.first_mismatch,
                        reference.mismatches.first().copied(),
                        "{} [{planner:?}, fault {index} {name}] first-detecting operation",
                        self.tag()
                    );
                }
            }
        }
    }
}

/// The committed seed sweep: one scenario per seed, each asserting full
/// bit-identity between the batched engines and the golden path.
#[test]
fn randomized_populations_are_bit_identical_between_batched_and_golden() {
    for round in 0..24u64 {
        Scenario::draw(0xD15E_A5E0_0000_0000u64 | round).check();
    }
}

/// The multiset of per-lane-cohort involved-address unions of a plan —
/// the cohort "schedule" modulo cohort order. Two plans with equal union
/// multisets dispatch identical merged step schedules, whichever faults
/// happen to occupy which lane.
fn cohort_union_multiset(plan: &FaultBatch, faults: &[FaultFactory]) -> Vec<Vec<u32>> {
    let mut unions: Vec<Vec<u32>> = plan
        .cohorts()
        .iter()
        .filter_map(|cohort| {
            let Cohort::Lanes(indices) = cohort else {
                return None;
            };
            let mut union: Vec<u32> = indices
                .iter()
                .flat_map(|&index| {
                    faults[index]()
                        .lane_kind()
                        .expect("planned lane faults have kinds")
                        .involved()
                        .iter()
                        .map(|address| address.value())
                        .collect::<Vec<u32>>()
                })
                .collect();
            union.sort_unstable();
            union.dedup();
            Some(union)
        })
        .collect();
    unions.sort();
    unions
}

/// Shuffled-permutation seeds: a generation-ordered population and a
/// shuffled copy of the *same* population must produce identical
/// per-fault outcomes (outcome `p` of the shuffled sweep equals outcome
/// `perm[p]` of the ordered one, bit for bit) and the address-aware
/// packer must plan identical packed schedules up to cohort order —
/// shuffling is exactly one permutation, never extra work.
#[test]
fn shuffled_permutations_match_generation_order_bit_identically() {
    for round in 0..12u64 {
        let seed = 0x5AFF_1E00_0000_0000u64 | round;
        let mut rng = SplitMix64::new(seed);
        let rows = 4 + rng.next_below(13) as u32;
        let cols = 4 + rng.next_below(13) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let population_seed = rng.next_u64();
        let profile = rng.next_below(2);
        let size = 40 + rng.next_below(260) as usize;
        // Two bit-identical copies of the same population: FaultGen is
        // deterministic in (organization, seed, profile).
        let make = || {
            let mut gen = FaultGen::new(organization, population_seed);
            match profile {
                0 => gen.mixed(size),
                _ => gen.overlapping_clusters(size / 11 + 1, 2, 1),
            }
        };
        let ordered = make();
        let mut slots: Vec<Option<FaultFactory>> = make().into_iter().map(Some).collect();
        let mut perm: Vec<usize> = (0..ordered.len()).collect();
        rng.shuffle(&mut perm);
        let shuffled: Vec<FaultFactory> = perm
            .iter()
            .map(|&index| slots[index].take().expect("perm is a permutation"))
            .collect();

        let tests = library::all_algorithms();
        let test = tests[rng.next_below(tests.len() as u64) as usize].clone();
        let background = rng.next_bool();
        let tag = format!(
            "seed {seed:#x} ({} faults on {rows}x{cols}, {}, profile {profile}, \
             background {background})",
            ordered.len(),
            test.name(),
        );

        // Identical packed schedules up to cohort order: the clustered
        // sort keys on involved-address signatures, not list positions,
        // so the shuffled copy plans the same union multiset and the
        // same total dispatch.
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let plan_ordered = FaultBatch::plan_with(&walk, &ordered, CohortPlanner::AddressAware);
        let plan_shuffled = FaultBatch::plan_with(&walk, &shuffled, CohortPlanner::AddressAware);
        assert_eq!(
            plan_ordered.merged_schedule_steps(),
            plan_shuffled.merged_schedule_steps(),
            "{tag}: shuffling must not change the packed dispatch total"
        );
        assert_eq!(
            cohort_union_multiset(&plan_ordered, &ordered),
            cohort_union_multiset(&plan_shuffled, &shuffled),
            "{tag}: packed schedules must be identical up to cohort order"
        );

        // Identical per-fault outcomes, bit for bit, through every
        // batched configuration — and against the per-fault golden path.
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let options = |backend, parallel| SweepOptions {
                background,
                mode,
                parallel,
                backend,
            };
            let golden = sweep_report(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &ordered,
                options(SweepBackend::PerFault, false),
            );
            for parallel in [false, true] {
                let ordered_report = sweep_report(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &ordered,
                    options(SweepBackend::LaneBatched, parallel),
                );
                assert_eq!(
                    golden, ordered_report,
                    "{tag} [{mode:?}, parallel={parallel}]"
                );
                let shuffled_report = sweep_report(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &shuffled,
                    options(SweepBackend::LaneBatched, parallel),
                );
                assert_eq!(
                    shuffled_report.total(),
                    ordered_report.total(),
                    "{tag} [{mode:?}, parallel={parallel}]"
                );
                for (position, outcome) in shuffled_report.outcomes().iter().enumerate() {
                    assert_eq!(
                        outcome,
                        &ordered_report.outcomes()[perm[position]],
                        "{tag} [{mode:?}, parallel={parallel}]: shuffled outcome {position} \
                         must equal ordered outcome {}",
                        perm[position]
                    );
                }
            }
        }
    }
}

/// Degenerate-shape seeds: the smallest arrays and populations, where
/// cohort planning edge cases (single fault, single lane, capacity 4)
/// live.
#[test]
fn tiny_populations_and_arrays_stay_bit_identical() {
    for round in 0..12u64 {
        let seed = 0x7E57_0000_0000_0000u64 | round;
        let mut rng = SplitMix64::new(seed);
        let rows = 2 + rng.next_below(2) as u32;
        let cols = 2 + rng.next_below(2) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let population =
            FaultGen::new(organization, rng.next_u64()).mixed(1 + rng.next_below(4) as usize);
        let scenario = Scenario {
            seed,
            organization,
            population,
            test: library::march_ss(),
            order: Box::new(WordLineAfterWordLine),
            background: rng.next_bool(),
            mode: DetectionMode::Full,
        };
        scenario.check();
    }
}
