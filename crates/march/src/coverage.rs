//! Fault-coverage evaluation over a fault list.
//!
//! [`evaluate_coverage_interned_on_walk`] is the crate's one sweep driver
//! on top of the executor kernel: it takes one precomputed [`MarchWalk`]
//! per `(test, order, organization)`, reuses one scratch memory per
//! worker across the whole fault list, and — via [`SweepOptions`] —
//! optionally stops each simulation at the first mismatch and fans the
//! work out across threads. By default the sweep rides the lane-batched
//! backend ([`crate::batch`]): compatible faults are grouped into
//! ≤64-lane cohorts that share one walk dispatch each, with the per-fault
//! path kept as the golden reference ([`SweepBackend::PerFault`]). Every
//! backend, serial or parallel, produces an **identical** report:
//! outcomes are kept in fault-list order regardless of scheduling, and
//! interned into one [`InternedSweep`].
//!
//! [`evaluate_coverage`] is the seed API on top of it — build the walk,
//! sweep with the default options, [`materialize`](InternedSweep::materialize)
//! the string-bearing [`CoverageReport`].

use std::collections::BTreeMap;

use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::batch::{sweep_batched, CohortPlanner};
use crate::executor::MarchWalk;
use crate::fault_sim::{simulate_fault_counts_on_walk, DetectionMode, FaultSimOutcome};
use crate::faults::{FaultFactory, FaultKind};
use crate::intern::{InternedSweep, NameTable, OutcomeCode};
use crate::memory::GoodMemory;
use crate::parallel::{max_threads, par_chunk_map};
use crate::rng::Fnv1a;

/// Which sweep engine simulates the fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepBackend {
    /// The lane-batched backend: compatible faults grouped into ≤64-lane
    /// cohorts by the address-aware packer
    /// ([`CohortPlanner::AddressAware`]), lane forms stored inline as
    /// [`crate::faults::LaneFaultKind`] enum values executed in packed
    /// order, one word-parallel walk dispatch per cohort (each cohort
    /// lowered to per-cell lane masks), serial fallback for the rest
    /// ([`crate::batch::FaultBatch`]). The default.
    #[default]
    LaneBatched,
    /// The lane-batched backend with the list-order greedy planner
    /// ([`CohortPlanner::ListOrderGreedy`]) — the packing baseline dense
    /// benchmarks compare against. Results are identical to
    /// [`SweepBackend::LaneBatched`]; only the cohort schedules differ.
    LaneBatchedListOrder,
    /// One filtered walk per fault — the golden reference path that
    /// batched sweeps are verified against.
    PerFault,
}

/// Tuning knobs of a coverage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOptions {
    /// Initial value of every cell before each simulation.
    pub background: bool,
    /// Detail recorded per fault: [`DetectionMode::Full`] counts every
    /// mismatch, [`DetectionMode::FirstMismatch`] stops at the first one.
    pub mode: DetectionMode,
    /// Fan the work out across threads (whole cohorts per unit under the
    /// batched backend, fault-list chunks under the per-fault one). The
    /// outcome order (and thus the whole report) is identical to a serial
    /// sweep.
    pub parallel: bool,
    /// The sweep engine; [`SweepBackend::LaneBatched`] by default.
    pub backend: SweepBackend,
}

impl SweepOptions {
    /// The throughput configuration for detection-only experiments:
    /// early-exit simulations on the lane-batched backend, parallel
    /// across the cohorts.
    pub fn fast() -> Self {
        Self {
            background: false,
            mode: DetectionMode::FirstMismatch,
            parallel: true,
            backend: SweepBackend::LaneBatched,
        }
    }

    /// The serial per-fault reference configuration: full mismatch
    /// counts, no batching, no threads — the golden path batched sweeps
    /// are tested (and benchmarked) against.
    pub fn golden() -> Self {
        Self {
            background: false,
            mode: DetectionMode::Full,
            parallel: false,
            backend: SweepBackend::PerFault,
        }
    }
}

/// Coverage of a March test over a fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Name of the March test evaluated.
    pub test_name: String,
    /// Name of the address order used.
    pub order_name: String,
    /// Per-fault outcomes, in fault-list order.
    outcomes: Vec<FaultSimOutcome>,
    /// Number of detected faults, cached at construction.
    detected: usize,
}

impl CoverageReport {
    /// Builds a report from per-fault outcomes, caching the detection
    /// count so the accessors below are O(1).
    pub fn new(
        test_name: impl Into<String>,
        order_name: impl Into<String>,
        outcomes: Vec<FaultSimOutcome>,
    ) -> Self {
        let detected = outcomes.iter().filter(|o| o.detected).count();
        Self {
            test_name: test_name.into(),
            order_name: order_name.into(),
            outcomes,
            detected,
        }
    }

    /// Per-fault outcomes, in fault-list order.
    pub fn outcomes(&self) -> &[FaultSimOutcome] {
        &self.outcomes
    }

    /// Total number of faults simulated.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of detected faults (cached — no rescan).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Fault coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// The names of the faults this test detected (sorted), used to compare
    /// coverage sets across address orders. The names are borrowed from the
    /// report — no per-name allocation.
    pub fn detected_fault_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .outcomes
            .iter()
            .filter(|o| o.detected)
            .map(|o| o.fault_name.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// Total read mismatches across every outcome.
    pub fn total_mismatches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.mismatches as u64).sum()
    }

    /// A stable 64-bit digest of the whole report: test and order names
    /// plus every outcome's name, kind, detection bit and mismatch count,
    /// absorbed in fault-list order through [`Fnv1a`]. Two reports are
    /// digest-equal exactly when they would compare equal, so campaign
    /// journals can record (and later verify) a fixed-width fingerprint
    /// instead of megabytes of outcomes.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write(self.test_name.as_bytes());
        hasher.write_u8(0xFF);
        hasher.write(self.order_name.as_bytes());
        hasher.write_u8(0xFF);
        for outcome in &self.outcomes {
            hasher.write(outcome.fault_name.as_bytes());
            hasher.write_u8(0xFE);
            hasher.write(outcome.fault_kind.as_str().as_bytes());
            hasher.write_u8(u8::from(outcome.detected));
            hasher.write_u64(outcome.mismatches as u64);
        }
        hasher.finish()
    }

    /// Per-fault-kind `(detected, total)` counts.
    pub fn by_kind(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for outcome in &self.outcomes {
            let entry = map.entry(outcome.fault_kind.as_str()).or_insert((0, 0));
            entry.1 += 1;
            if outcome.detected {
                entry.0 += 1;
            }
        }
        map
    }
}

/// Per-fault result carried between the sweep workers and the final
/// intern pass: the rendered instance name plus the raw counts. One
/// string per fault, moved into the [`NameTable`] without reallocating.
type RawOutcome = (String, FaultKind, bool, usize);

/// Folds sweep-ordered raw outcomes into an [`InternedSweep`]: one
/// serial pass pushing each name into the table and compressing the
/// counts into 16-byte [`OutcomeCode`]s.
fn intern_outcomes(walk: &MarchWalk, raw: impl IntoIterator<Item = RawOutcome>) -> InternedSweep {
    let mut names = NameTable::new();
    let test = names.intern(walk.test_name());
    let order = names.intern(walk.order_name());
    let codes = raw
        .into_iter()
        .map(|(name, kind, detected, mismatches)| OutcomeCode {
            name: names.push(name),
            kind,
            detected,
            mismatches: u32::try_from(mismatches).expect("mismatch counts fit u32"),
        })
        .collect();
    InternedSweep::new(test, order, names, codes)
}

/// Simulates every fault in `faults` over a precomputed `walk` — the
/// crate's sweep driver.
///
/// Under the default [`SweepBackend::LaneBatched`] the list is planned
/// into ≤64-lane cohorts that each share one walk dispatch (threads take
/// whole cohorts when `parallel` is set; see [`sweep_batched`]). Under
/// [`SweepBackend::PerFault`] each worker reuses one scratch memory for a
/// contiguous chunk of the list. Either way the outcomes are reassembled
/// in fault-list order into an [`InternedSweep`] — one name string per
/// fault and a 16-byte code — so every backend/threading combination
/// yields an identical report; [`InternedSweep::materialize`] recovers the
/// string-bearing [`CoverageReport`] exactly.
///
/// # Panics
///
/// A panic inside a fault model or the kernel propagates to the caller
/// with its original payload, serial or parallel; campaign workers catch
/// it around the whole job.
pub fn evaluate_coverage_interned_on_walk(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    options: SweepOptions,
) -> InternedSweep {
    let threads = if options.parallel { max_threads() } else { 1 };
    let planner = match options.backend {
        SweepBackend::LaneBatched => CohortPlanner::AddressAware,
        SweepBackend::LaneBatchedListOrder => CohortPlanner::ListOrderGreedy,
        SweepBackend::PerFault => {
            let raw = par_chunk_map(faults, threads, |chunk| -> Vec<RawOutcome> {
                let mut scratch = GoodMemory::new(walk.capacity());
                chunk
                    .iter()
                    .map(|factory| {
                        let (fault, detected, mismatches) = simulate_fault_counts_on_walk(
                            walk,
                            &mut scratch,
                            factory(),
                            options.background,
                            options.mode,
                        );
                        (fault.name(), fault.kind(), detected, mismatches)
                    })
                    .collect()
            });
            return intern_outcomes(walk, raw);
        }
    };
    let swept = sweep_batched(
        walk,
        faults,
        options.background,
        options.mode,
        threads,
        planner,
    );
    intern_outcomes(
        walk,
        swept.into_iter().map(|(fault, detected, mismatches)| {
            (fault.name(), fault.kind(), detected, mismatches)
        }),
    )
}

/// Simulates every fault in `faults` under `test`/`order` and aggregates
/// the outcomes: the walk is built once, swept by
/// [`evaluate_coverage_interned_on_walk`] with the default options (full
/// mismatch counts, single-threaded, lane-batched — report-identical to
/// the seed API's serial per-fault sweep) and materialized.
pub fn evaluate_coverage(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    faults: &[FaultFactory],
) -> CoverageReport {
    let walk = MarchWalk::new(test, order, organization);
    evaluate_coverage_interned_on_walk(&walk, faults, SweepOptions::default()).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::faults::standard_fault_list;
    use crate::library;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    /// Sweeps `faults` under `test` in word-line order through the driver
    /// and materializes the string-bearing report.
    fn sweep(
        test: &MarchTest,
        organization: &ArrayOrganization,
        faults: &[FaultFactory],
        options: SweepOptions,
    ) -> CoverageReport {
        let walk = MarchWalk::new(test, &WordLineAfterWordLine, organization);
        evaluate_coverage_interned_on_walk(&walk, faults, options).materialize()
    }

    #[test]
    fn march_ss_covers_more_than_mats_plus() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let ss = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        let mats = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert!(ss.coverage() > mats.coverage());
        assert!(ss.coverage() > 0.8, "March SS coverage {}", ss.coverage());
        assert_eq!(ss.total(), faults.len());
        assert!(ss.detected() <= ss.total());
    }

    #[test]
    fn stuck_at_faults_are_fully_covered_by_every_table1_algorithm() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let report = evaluate_coverage(&test, &WordLineAfterWordLine, &organization, &faults);
            let by_kind = report.by_kind();
            let (detected, total) = by_kind["SAF"];
            assert_eq!(detected, total, "{} must detect every SAF", test.name());
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let report = evaluate_coverage(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert_eq!(report.detected_fault_names().len(), report.detected());
        let kind_total: usize = report.by_kind().values().map(|(_, t)| t).sum();
        assert_eq!(kind_total, report.total());
        assert!(report.coverage() > 0.0 && report.coverage() <= 1.0);
        assert_eq!(report.test_name, "March C-");
        assert_eq!(report.outcomes().len(), report.total());
    }

    #[test]
    fn every_backend_and_threading_combination_yields_the_same_report() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                let reference = sweep(
                    &test,
                    &organization,
                    &faults,
                    SweepOptions {
                        background: false,
                        mode,
                        parallel: false,
                        backend: SweepBackend::PerFault,
                    },
                );
                for backend in [
                    SweepBackend::PerFault,
                    SweepBackend::LaneBatched,
                    SweepBackend::LaneBatchedListOrder,
                ] {
                    for parallel in [false, true] {
                        let other = sweep(
                            &test,
                            &organization,
                            &faults,
                            SweepOptions {
                                background: false,
                                mode,
                                parallel,
                                backend,
                            },
                        );
                        // Structural equality and byte-identical debug
                        // rendering: outcome order must be the fault-list
                        // order in every combination.
                        assert_eq!(
                            reference,
                            other,
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                        assert_eq!(
                            format!("{reference:?}"),
                            format!("{other:?}"),
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interned_sweep_matches_the_string_path_across_every_combination() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                for backend in [
                    SweepBackend::PerFault,
                    SweepBackend::LaneBatched,
                    SweepBackend::LaneBatchedListOrder,
                ] {
                    for parallel in [false, true] {
                        let options = SweepOptions {
                            background: false,
                            mode,
                            parallel,
                            backend,
                        };
                        let classic = sweep(
                            &test,
                            &organization,
                            &faults,
                            SweepOptions {
                                backend: SweepBackend::PerFault,
                                parallel: false,
                                ..options
                            },
                        );
                        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
                        let interned = evaluate_coverage_interned_on_walk(&walk, &faults, options);
                        let context = format!(
                            "{} ({mode:?}, {backend:?}, parallel={parallel})",
                            test.name()
                        );
                        assert_eq!(interned.digest(), classic.digest(), "{context}");
                        assert_eq!(interned.materialize(), classic, "{context}");
                        assert_eq!(interned.detected(), classic.detected(), "{context}");
                        assert_eq!(interned.total(), classic.total(), "{context}");
                        assert_eq!(
                            interned.total_mismatches(),
                            classic.total_mismatches(),
                            "{context}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_sweep_detects_exactly_the_same_faults_as_the_golden_one() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let full = sweep(&test, &organization, &faults, SweepOptions::golden());
            let fast = sweep(&test, &organization, &faults, SweepOptions::fast());
            assert_eq!(
                full.detected_fault_names(),
                fast.detected_fault_names(),
                "{}",
                test.name()
            );
            assert_eq!(full.coverage(), fast.coverage(), "{}", test.name());
        }
    }

    #[test]
    fn generated_populations_flow_through_every_backend_identically() {
        use crate::faultgen::FaultGen;

        // A dense generated population (mixed kinds, shuffled) must sweep
        // through the batched backends exactly like the per-fault golden
        // path — the report is the contract, whatever the fault source.
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let population = FaultGen::new(organization, 0xD15E).dense_profile(300);
        assert!(population.len() >= 300);
        let golden = sweep(
            &library::march_ss(),
            &organization,
            &population,
            SweepOptions::golden(),
        );
        assert_eq!(golden.total(), population.len());
        assert!(golden.coverage() > 0.0);
        for backend in [
            SweepBackend::LaneBatched,
            SweepBackend::LaneBatchedListOrder,
        ] {
            for parallel in [false, true] {
                let batched = sweep(
                    &library::march_ss(),
                    &organization,
                    &population,
                    SweepOptions {
                        background: false,
                        mode: DetectionMode::Full,
                        parallel,
                        backend,
                    },
                );
                assert_eq!(golden, batched, "{backend:?} parallel={parallel}");
            }
        }
    }

    #[test]
    fn report_digest_is_stable_and_discriminating() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        let a = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        let b = evaluate_coverage(
            &library::march_ss(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        // Equal reports digest equally; a different algorithm (different
        // outcomes and test name) must diverge.
        assert_eq!(a.digest(), b.digest());
        let other = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &faults,
        );
        assert_ne!(a.digest(), other.digest());
        assert_eq!(
            a.total_mismatches(),
            a.outcomes()
                .iter()
                .map(|o| o.mismatches as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn caught_sweep_reports_a_panicking_fault_model_as_an_error() {
        use crate::faults::{standard_fault_list, Fault};
        use sram_model::address::Address;

        // A fault model with no lane kind that panics on its first read:
        // it runs as a serial singleton under the batched backends (next
        // to the standard list's lane cohorts, so parallel sweeps really
        // fan out) and through the per-fault path otherwise. Whichever
        // thread runs it, the caller must see the model's own payload.
        #[derive(Debug)]
        struct ExplodingFault;
        impl Fault for ExplodingFault {
            fn name(&self) -> String {
                "EXPLODE@0".to_string()
            }
            fn kind(&self) -> FaultKind {
                FaultKind::StuckAt
            }
            fn write(&mut self, _memory: &mut GoodMemory, _address: Address, _value: bool) {}
            fn read(&mut self, _memory: &mut GoodMemory, _address: Address) -> bool {
                panic!("exploding fault model")
            }
            fn involved_addresses(&self) -> Option<Vec<Address>> {
                Some(vec![Address::new(0)])
            }
        }

        let organization = org();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let mut faults = standard_fault_list(&organization);
        faults.push(Box::new(|| Box::new(ExplodingFault) as Box<dyn Fault>));
        faults.extend(standard_fault_list(&organization));
        for backend in [
            SweepBackend::LaneBatched,
            SweepBackend::LaneBatchedListOrder,
            SweepBackend::PerFault,
        ] {
            for parallel in [false, true] {
                for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
                    let options = SweepOptions {
                        background: false,
                        mode,
                        parallel,
                        backend,
                    };
                    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        evaluate_coverage_interned_on_walk(&walk, &faults, options)
                    }))
                    .expect_err("the exploding model must panic the sweep");
                    let message = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                    assert_eq!(
                        message,
                        Some("exploding fault model"),
                        "payload lost ({backend:?}, parallel={parallel}, {mode:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_fault_list_yields_zero_coverage() {
        let organization = org();
        let report = evaluate_coverage(
            &library::mats_plus(),
            &WordLineAfterWordLine,
            &organization,
            &[],
        );
        assert_eq!(report.total(), 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage(), 0.0);
    }
}
