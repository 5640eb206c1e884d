//! Exhaustive equivalence of the lane-batched fault-simulation backend
//! against the serial per-fault golden path.
//!
//! The batched backend must be *bit-identical* in its observable results:
//! detected/escaped per fault, mismatch counts, and the first-detecting
//! element/operation — across the whole fault library, several array
//! organizations, both data backgrounds, every library algorithm, and odd
//! cohort sizes around the 64-lane boundary.

use march_test::address_order::{AddressOrder, ColumnMajor, WordLineAfterWordLine};
use march_test::algorithm::MarchTest;
use march_test::batch::{Cohort, FaultBatch};
use march_test::coverage::{
    evaluate_coverage_interned_on_walk, CoverageReport, SweepBackend, SweepOptions,
};
use march_test::executor::{run_march_lanes, run_march_walk, MarchWalk};
use march_test::fault_sim::DetectionMode;
use march_test::faults::{
    standard_fault_list, CouplingInversionFault, Fault, FaultFactory, FaultyMemory, StuckAtFault,
    TransitionFault, WriteDisturbFault,
};
use march_test::library;
use march_test::memory::GoodMemory;
use sram_model::address::Address;
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

fn organizations() -> Vec<ArrayOrganization> {
    vec![
        ArrayOrganization::new(4, 4).unwrap(),
        ArrayOrganization::new(3, 7).unwrap(),
        ArrayOrganization::new(8, 8).unwrap(),
    ]
}

/// The core guarantee: for every algorithm × order × organization ×
/// background × detection mode, the batched sweep over the whole standard
/// fault library produces a report identical to the serial per-fault one.
#[test]
fn batched_sweep_equals_the_serial_per_fault_path_everywhere() {
    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::all_algorithms() {
            for order in [&WordLineAfterWordLine as &dyn AddressOrder, &ColumnMajor] {
                for background in [false, true] {
                    for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                        let golden = sweep_report(
                            &test,
                            order,
                            &organization,
                            &faults,
                            SweepOptions {
                                background,
                                mode,
                                parallel: false,
                                backend: SweepBackend::PerFault,
                            },
                        );
                        for parallel in [false, true] {
                            let batched = sweep_report(
                                &test,
                                order,
                                &organization,
                                &faults,
                                SweepOptions {
                                    background,
                                    mode,
                                    parallel,
                                    backend: SweepBackend::LaneBatched,
                                },
                            );
                            assert_eq!(
                                golden,
                                batched,
                                "{} / {} / background {background} / {mode:?} / \
                                 parallel={parallel}",
                                test.name(),
                                order.name(),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The per-lane first mismatch (element, address, expected, observed) of a
/// batched cohort must equal the first entry of the serial full-walk
/// mismatch list for the same fault — the "first-detecting
/// element+operation" guarantee that coverage reports build on.
#[test]
fn lane_detections_report_the_same_first_mismatch_as_the_full_walk() {
    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for background in [false, true] {
                let instances: Vec<Box<dyn Fault>> =
                    faults.iter().map(|factory| factory()).collect();
                let mut lanes: Vec<_> = instances
                    .iter()
                    .map(|fault| fault.lane_kind().expect("standard faults have lane kinds"))
                    .collect();
                let detections =
                    run_march_lanes(&walk, &mut lanes, background, DetectionMode::Full);
                assert_eq!(detections.len(), faults.len());
                for (factory, detection) in faults.iter().zip(&detections) {
                    let mut memory = FaultyMemory::new(
                        GoodMemory::filled(organization.capacity(), background),
                        factory(),
                    );
                    let serial = run_march_walk(&walk, &mut memory);
                    let name = factory().name();
                    assert_eq!(
                        detection.detected,
                        serial.detected_fault(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                    assert_eq!(
                        detection.mismatches,
                        serial.mismatches.len(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                    assert_eq!(
                        detection.first_mismatch.as_ref(),
                        serial.mismatches.first(),
                        "{} / {name} / background {background}",
                        test.name()
                    );
                }
            }
        }
    }
}

/// The per-owner reference kernel is generic over the lane form: the
/// devirtualized instantiation (`&mut [LaneFaultKind]`, match dispatch on
/// inline enum data) must produce detections bit-identical to a
/// virtual-dispatch instantiation over boxed trait objects for the same
/// cohort — the two are the same algorithm monomorphized twice.
#[test]
fn enum_cohorts_and_boxed_cohorts_report_identical_detections() {
    use march_test::faults::{LaneFault, LaneFaultKind};
    use march_test::memory::LaneMemory;

    /// A lane form behind virtual dispatch.
    #[derive(Debug)]
    struct Boxed(Box<dyn LaneFault>);
    impl LaneFault for Boxed {
        fn involved(&self) -> Vec<Address> {
            self.0.involved()
        }
        fn lane_write(
            &mut self,
            memory: &mut LaneMemory,
            lane: u32,
            address: Address,
            value: bool,
        ) {
            self.0.lane_write(memory, lane, address, value);
        }
        fn lane_read(
            &mut self,
            memory: &mut LaneMemory,
            lane: u32,
            address: Address,
            sensed_before: bool,
        ) -> bool {
            self.0.lane_read(memory, lane, address, sensed_before)
        }
    }

    for organization in organizations() {
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for background in [false, true] {
                for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                    let mut inline: Vec<LaneFaultKind> = faults
                        .iter()
                        .map(|factory| {
                            factory()
                                .lane_kind()
                                .expect("standard faults have lane kinds")
                        })
                        .collect();
                    let mut boxed: Vec<_> = faults
                        .iter()
                        .map(|factory| {
                            let kind = factory()
                                .lane_kind()
                                .expect("standard faults have lane kinds");
                            Boxed(Box::new(kind))
                        })
                        .collect();
                    let via_enum = run_march_lanes(&walk, &mut inline, background, mode);
                    let via_boxed = run_march_lanes(&walk, &mut boxed, background, mode);
                    assert_eq!(
                        via_enum,
                        via_boxed,
                        "{} / background {background} / {mode:?}",
                        test.name()
                    );
                }
            }
        }
    }
}

fn mixed_fault_list(organization: &ArrayOrganization, count: usize) -> Vec<FaultFactory> {
    let capacity = organization.capacity();
    assert!(count as u32 <= capacity, "one victim per fault");
    (0..count)
        .map(|i| {
            let victim = Address::new(i as u32);
            let aggressor = Address::new(if (i as u32) + 1 < capacity {
                i as u32 + 1
            } else {
                i as u32 - 1
            });
            let factory: FaultFactory = match i % 4 {
                0 => Box::new(move || Box::new(StuckAtFault::new(victim, i % 8 == 0))),
                1 => Box::new(move || Box::new(TransitionFault::new(victim, i % 8 == 1))),
                2 => Box::new(move || Box::new(WriteDisturbFault::new(victim))),
                _ => Box::new(move || {
                    Box::new(CouplingInversionFault::new(aggressor, victim, i % 8 == 3))
                }),
            };
            factory
        })
        .collect()
}

/// Cohort sizes straddling the 64-lane word width: 1, 63, 64 and 65
/// faults plan into the expected cohorts and stay outcome-identical to
/// the serial path.
#[test]
fn odd_cohort_sizes_around_the_lane_width_stay_equivalent() {
    let organization = ArrayOrganization::new(16, 8).unwrap();
    let test = library::march_ss();
    let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
    for (count, expected_cohorts) in [(1usize, 1usize), (63, 1), (64, 1), (65, 2)] {
        let faults = mixed_fault_list(&organization, count);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.cohorts().len(), expected_cohorts, "count {count}");
        assert_eq!(plan.lane_fault_count(), count, "count {count}");
        if count == 65 {
            assert_eq!(plan.cohorts()[0], Cohort::Lanes((0..64).collect()));
            assert_eq!(plan.cohorts()[1], Cohort::Lanes(vec![64]));
        }
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            for background in [false, true] {
                let golden = sweep_report(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &faults,
                    SweepOptions {
                        background,
                        mode,
                        parallel: false,
                        backend: SweepBackend::PerFault,
                    },
                );
                let batched = sweep_report(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &faults,
                    SweepOptions {
                        background,
                        mode,
                        parallel: false,
                        backend: SweepBackend::LaneBatched,
                    },
                )
                .outcomes()
                .to_vec();
                assert_eq!(
                    golden.outcomes(),
                    batched.as_slice(),
                    "count {count} / {mode:?} / background {background}"
                );
            }
        }
    }
}

/// The degree-of-freedom experiment (which rides `SweepOptions::fast`,
/// now lane-batched) still reports order-independent coverage.
#[test]
fn dof_experiment_rides_the_batched_backend_unchanged() {
    use march_test::dof::verify_order_independence;
    let organization = ArrayOrganization::new(4, 4).unwrap();
    let faults = march_test::faults::static_fault_list(&organization);
    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor];
    for test in library::table1_algorithms() {
        let report = verify_order_independence(&test, &orders, &organization, &faults);
        assert!(
            report.coverage_is_order_independent(),
            "{} coverage changed with the address order",
            test.name()
        );
        assert!(report.guaranteed_coverage_preserved());
    }
}

/// A `LaneScratch` reused across cohorts of different shapes (different
/// sizes, unions, algorithms, backgrounds) must leave no trace between
/// runs: every scratch dispatch reports detections identical to a fresh
/// one-shot `run_march_lanes` call on the same cohort.
#[test]
fn scratch_reuse_across_cohorts_matches_fresh_dispatches() {
    use march_test::executor::{run_march_lanes_scratch, LaneScratch};
    use march_test::faults::LaneFaultKind;

    let mut scratch = LaneScratch::new();
    for organization in organizations() {
        for (test, count) in [
            (library::march_ss(), 64usize),
            (library::mats_plus(), 1),
            (library::march_c_minus(), 9),
        ] {
            let count = count.min(organization.capacity() as usize);
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            let faults = mixed_fault_list(&organization, count);
            for background in [false, true] {
                for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                    let lane_kinds = || -> Vec<LaneFaultKind> {
                        faults
                            .iter()
                            .map(|factory| {
                                factory().lane_kind().expect("mixed faults have lane kinds")
                            })
                            .collect()
                    };
                    let fresh = run_march_lanes(&walk, &mut lane_kinds(), background, mode);
                    let reused = run_march_lanes_scratch(
                        &walk,
                        &mut lane_kinds(),
                        background,
                        mode,
                        &mut scratch,
                    );
                    assert_eq!(
                        fresh,
                        reused,
                        "{} / {count} faults / background {background} / {mode:?}",
                        test.name()
                    );
                    assert_eq!(scratch.results(), fresh.as_slice());
                }
            }
        }
    }
}

// --- The word-parallel kernel against the per-owner reference ---------
//
// Every enum cohort of a sweep runs `run_march_lane_masks`, which lowers
// the cohort to per-slot lane masks and pair ops. The per-owner kernel
// (`run_march_lanes`, one `LaneFault` dispatch per owner lane and step)
// is the reference: both must report identical `LaneDetection`s —
// detected bit, mismatch count and first mismatch — lane for lane.

mod masks {
    use super::*;
    use march_test::address_order::PseudoRandomOrder;
    use march_test::executor::{run_march_lane_masks, LaneScratch};
    use march_test::faultgen::FaultGen;
    use march_test::faults::{
        AddressAliasFault, CouplingIdempotentFault, CouplingStateFault,
        DeceptiveReadDestructiveFault, IncorrectReadFault, LaneFaultKind, ReadDestructiveFault,
        StuckOpenFault,
    };
    use march_test::rng::SplitMix64;

    fn at(value: u32) -> Address {
        Address::new(value)
    }

    /// The nine single-cell models on `cell`.
    fn single_cell(cell: Address) -> Vec<LaneFaultKind> {
        vec![
            LaneFaultKind::StuckAt(StuckAtFault::new(cell, false)),
            LaneFaultKind::StuckAt(StuckAtFault::new(cell, true)),
            LaneFaultKind::Transition(TransitionFault::new(cell, true)),
            LaneFaultKind::Transition(TransitionFault::new(cell, false)),
            LaneFaultKind::StuckOpen(StuckOpenFault::new(cell)),
            LaneFaultKind::WriteDisturb(WriteDisturbFault::new(cell)),
            LaneFaultKind::ReadDestructive(ReadDestructiveFault::new(cell)),
            LaneFaultKind::DeceptiveReadDestructive(DeceptiveReadDestructiveFault::new(cell)),
            LaneFaultKind::IncorrectRead(IncorrectReadFault::new(cell)),
        ]
    }

    /// Every two-cell model variant with aggressor (or aliased cell)
    /// `first` and victim (or target) `second`: eleven lanes.
    fn two_cell(first: Address, second: Address) -> Vec<LaneFaultKind> {
        let mut lanes = vec![LaneFaultKind::AddressDecoder(AddressAliasFault::new(
            first, second,
        ))];
        for flag in [false, true] {
            lanes.push(LaneFaultKind::CouplingInversion(
                CouplingInversionFault::new(first, second, flag),
            ));
            for forced in [false, true] {
                lanes.push(LaneFaultKind::CouplingIdempotent(
                    CouplingIdempotentFault::new(first, second, flag, forced),
                ));
                lanes.push(LaneFaultKind::CouplingState(CouplingStateFault::new(
                    first, second, flag, forced,
                )));
            }
        }
        lanes
    }

    fn algorithms_and_orders() -> Vec<(march_test::algorithm::MarchTest, &'static dyn AddressOrder)>
    {
        let mut pairs = Vec::new();
        for test in library::all_algorithms() {
            for order in [
                &WordLineAfterWordLine as &'static dyn AddressOrder,
                &ColumnMajor,
            ] {
                pairs.push((test.clone(), order));
            }
        }
        pairs
    }

    /// Asserts both kernels agree on `lanes` under both backgrounds and
    /// both detection modes; returns the number of lanes compared.
    fn assert_kernels_agree(
        walk: &MarchWalk,
        lanes: &[LaneFaultKind],
        scratch: &mut LaneScratch,
        context: &str,
    ) -> usize {
        assert!(
            walk.locality_safe(),
            "{context}: library walks are locality-safe"
        );
        for background in [false, true] {
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let reference = run_march_lanes(walk, &mut lanes.to_vec(), background, mode);
                let masked = run_march_lane_masks(walk, lanes, background, mode, scratch);
                assert_eq!(
                    masked,
                    reference.as_slice(),
                    "{context} / {} / {} / background {background} / {mode:?}",
                    walk.test_name(),
                    walk.order_name(),
                );
            }
        }
        4 * lanes.len()
    }

    /// Runs `lanes` on `organization` under every algorithm and both
    /// orders.
    fn assert_everywhere(organization: ArrayOrganization, lanes: &[LaneFaultKind], context: &str) {
        assert!(!lanes.is_empty() && lanes.len() <= 64, "{context}");
        let mut scratch = LaneScratch::new();
        for (test, order) in algorithms_and_orders() {
            let walk = MarchWalk::new(&test, order, &organization);
            assert_kernels_agree(&walk, lanes, &mut scratch, context);
        }
    }

    #[test]
    fn sixty_four_lanes_on_one_cell() {
        let cell = at(5);
        let mut lanes = single_cell(cell);
        for partner in [4, 6, 1, 9, 15] {
            lanes.extend(two_cell(cell, at(partner)));
            lanes.extend(two_cell(at(partner), cell));
        }
        lanes.truncate(64);
        assert_eq!(lanes.len(), 64);
        assert!(lanes.iter().all(|lane| lane.involved().contains(&cell)));
        assert_everywhere(ArrayOrganization::new(4, 4).unwrap(), &lanes, "one cell");
    }

    #[test]
    fn state_coupling_onto_other_lanes_single_cell_victims() {
        let (aggressor, victim) = (at(2), at(7));
        let mut lanes = two_cell(aggressor, victim);
        lanes.retain(|lane| matches!(lane, LaneFaultKind::CouplingState(_)));
        // The reverse direction too: the shared victim as aggressor.
        lanes.extend(
            two_cell(victim, aggressor)
                .into_iter()
                .filter(|lane| matches!(lane, LaneFaultKind::CouplingState(_))),
        );
        lanes.extend(single_cell(victim));
        lanes.extend(single_cell(aggressor));
        assert_everywhere(ArrayOrganization::new(4, 4).unwrap(), &lanes, "CFst victim");
    }

    #[test]
    fn alias_target_that_is_also_a_coupling_aggressor() {
        let (aliased, target, victim) = (at(3), at(8), at(12));
        let mut lanes = vec![
            LaneFaultKind::AddressDecoder(AddressAliasFault::new(aliased, target)),
            LaneFaultKind::AddressDecoder(AddressAliasFault::new(victim, target)),
            LaneFaultKind::AddressDecoder(AddressAliasFault::new(target, aliased)),
        ];
        lanes.extend(two_cell(target, victim));
        lanes.extend(two_cell(target, aliased));
        lanes.extend(two_cell(aliased, target));
        lanes.extend(single_cell(target));
        assert_everywhere(ArrayOrganization::new(4, 4).unwrap(), &lanes, "AF target");
    }

    #[test]
    fn coupling_chains_through_shared_cells() {
        let ring = [at(0), at(5), at(10), at(15), at(6)];
        let mut lanes = Vec::new();
        for (index, &aggressor) in ring.iter().enumerate() {
            let victim = ring[(index + 1) % ring.len()];
            lanes.extend(
                two_cell(aggressor, victim)
                    .into_iter()
                    .filter(|lane| !matches!(lane, LaneFaultKind::AddressDecoder(_))),
            );
        }
        lanes.truncate(64);
        assert_everywhere(ArrayOrganization::new(4, 4).unwrap(), &lanes, "chain");
    }

    #[test]
    fn every_model_on_a_one_by_two_array() {
        let mut lanes = two_cell(at(0), at(1));
        lanes.extend(two_cell(at(1), at(0)));
        lanes.extend(single_cell(at(0)));
        lanes.extend(single_cell(at(1)));
        assert_eq!(lanes.len(), 40);
        let organization = ArrayOrganization::new(1, 2).unwrap();
        assert_everywhere(organization, &lanes, "1x2");
    }

    fn lane_kinds(faults: &[FaultFactory], indices: &[usize]) -> Vec<LaneFaultKind> {
        indices
            .iter()
            .map(|&index| {
                faults[index]()
                    .lane_kind()
                    .expect("generated faults have lane kinds")
            })
            .collect()
    }

    /// Seeded dense populations, run both as the planner packs them and
    /// as random 64-lane draws, on every algorithm, both orders, both
    /// backgrounds and both modes.
    fn assert_dense_cohorts_agree(
        organization: ArrayOrganization,
        seed: u64,
        target: usize,
    ) -> usize {
        let faults = FaultGen::new(organization, seed)
            .dense_profile(target)
            .factories;
        let mut rng = SplitMix64::new(seed ^ 0x1A4E);
        let mut cohorts: Vec<Vec<usize>> = Vec::new();
        for _ in 0..8 {
            cohorts.push(
                (0..64)
                    .map(|_| rng.next_below(faults.len() as u64) as usize)
                    .collect(),
            );
        }
        let mut scratch = LaneScratch::new();
        let mut compared = 0;
        for (test, order) in algorithms_and_orders() {
            let walk = MarchWalk::new(&test, order, &organization);
            let plan = FaultBatch::plan(&walk, &faults);
            let planned = plan.cohorts().iter().filter_map(|cohort| match cohort {
                Cohort::Lanes(indices) => Some(indices.clone()),
                _ => None,
            });
            for indices in planned.chain(cohorts.iter().cloned()) {
                let lanes = lane_kinds(&faults, &indices);
                let context = format!(
                    "{}x{} seed {seed}",
                    organization.rows(),
                    organization.cols()
                );
                compared += assert_kernels_agree(&walk, &lanes, &mut scratch, &context);
            }
        }
        compared
    }

    #[test]
    fn seeded_dense_cohorts_agree_on_small_arrays() {
        let mut compared = 0;
        for (rows, cols, seed, target) in [(16, 16, 1, 600), (8, 32, 7, 500), (16, 16, 0x2006, 900)]
        {
            let organization = ArrayOrganization::new(rows, cols).unwrap();
            compared += assert_dense_cohorts_agree(organization, seed, target);
        }
        assert!(compared > 100_000, "compared only {compared} lanes");
    }

    /// A larger array under pseudo-random orders, whose cohorts' unions
    /// scatter across the walk.
    #[test]
    fn seeded_dense_cohorts_agree_at_64x64_under_random_orders() {
        let organization = ArrayOrganization::new(64, 64).unwrap();
        let faults = FaultGen::new(organization, 11)
            .dense_profile(2000)
            .factories;
        let mut scratch = LaneScratch::new();
        for test in [library::march_ss(), library::march_c_minus()] {
            for seed in [3, 0xDEAD_BEEF] {
                let order = PseudoRandomOrder::new(seed);
                let walk = MarchWalk::new(&test, &order, &organization);
                for cohort in FaultBatch::plan(&walk, &faults).cohorts() {
                    if let Cohort::Lanes(indices) = cohort {
                        let lanes = lane_kinds(&faults, indices);
                        assert_kernels_agree(&walk, &lanes, &mut scratch, "64x64 random order");
                    }
                }
            }
        }
    }
}
