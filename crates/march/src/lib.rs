//! March memory-test engine.
//!
//! March tests are the de-facto standard algorithms for testing random
//! access memories: a *March test* is a sequence of *March elements*, each
//! of which applies a short sequence of read/write operations to every cell
//! of the memory in a prescribed address order. This crate provides:
//!
//! * the test description types ([`operation::MarchOp`],
//!   [`element::MarchElement`], [`algorithm::MarchTest`]) and a
//!   [`library`] of the published algorithms used by the paper's Table 1
//!   (MATS+, March C-, March SS, March SR, March G) plus several other
//!   classics,
//! * [`address_order`] implementations of the first March degree of
//!   freedom: the *word-line-after-word-line* (row-major) order exploited
//!   by the paper, the column-major order, plain linear order and a seeded
//!   pseudo-random permutation,
//! * a behavioural [`memory`] model and a library of functional
//!   [`faults`] (stuck-at, transition, coupling, read-destructive,
//!   stuck-open, write-disturb, address-decoder, …),
//! * the [`executor`] that applies a March test to any memory model, and
//!   the [`fault_sim`]/[`coverage`] layers that measure which faults each
//!   algorithm detects — used to demonstrate that fixing the address order
//!   (the paper's prerequisite) does not change fault coverage
//!   ([`dof`]).
//!
//! # The fault-simulation kernel
//!
//! Coverage and degree-of-freedom experiments exhaustively simulate a
//! fault list under every March test × address order × array size — an
//! `O(faults × operations)` workload that dominates the repo's runtime.
//! The hot path is organised as a measured kernel with five ingredients:
//!
//! 1. **Walk caching** ([`executor::MarchWalk`], [`executor::AddressPlan`])
//!    — the `(test, order, organization)` traversal is described once in
//!    closed form (the ⇑ address permutation, its inverse and one
//!    descriptor per March element; ⇓ is served by index arithmetic) and
//!    shared, read-only, across every fault of a sweep. Steps are
//!    computed on demand, never stored, so a walk costs two `u32`s per
//!    cell whatever the test length. Nothing allocates per fault.
//! 2. **Bit-packed memory** ([`memory::GoodMemory`]) — cells live in
//!    `u64` words (64 per word) and [`memory::GoodMemory::fill`] resets the
//!    array with a few word stores, so one scratch allocation serves an
//!    entire fault list.
//! 3. **Early exit** ([`executor::run_march_until_detected`],
//!    [`fault_sim::DetectionMode::FirstMismatch`]) — sweeps that only need
//!    the detected/missed bit stop each simulation at the first
//!    mismatching read instead of finishing the walk.
//! 4. **Parallel sweeps** ([`coverage::SweepOptions`], [`parallel`]) —
//!    the sweep work fans out across scoped worker threads, one scratch
//!    memory per worker, with outcomes reassembled in fault-list order so
//!    parallel reports are byte-identical to serial ones.
//! 5. **Lane batching** ([`batch::FaultBatch`],
//!    [`executor::run_march_lane_masks`]) — up to sixty-four independent
//!    faults ride *one* walk dispatch, each owning a bit lane of one
//!    `u64` word per involved cell. Lane forms are stored **inline** as
//!    [`faults::LaneFaultKind`] enum values, and each cohort is
//!    **lowered** before it runs: every single-cell model sets its lane
//!    bit in masks of its cell (stuck, keep-on-write, complement-on-write,
//!    read-invert, read-flip, sensed-before), every two-cell model adds a
//!    small op holding its partner cell's slot. Each walk step is then a
//!    few whole-word `u64` operations with no per-lane dispatch and no
//!    address lookup; detection is lane-wise with mask tests driving the
//!    per-lane early exit. A fault with no lane kind runs as a serial
//!    singleton on the per-fault path. The per-owner kernel
//!    ([`executor::run_march_lanes`] over a sparse
//!    [`memory::LaneMemory`] and each model's per-lane
//!    [`faults::LaneFault`] spec) runs in no sweep; it is the reference
//!    the masked kernel is tested against. Sweeps execute in **packed
//!    order** with one streaming permutation for probes and outcomes, so
//!    shuffled populations sweep at generation-ordered speed. Coverage
//!    sweeps ride this backend by default and keep the per-fault path as
//!    the golden reference; every backend reaches the one sweep driver,
//!    [`coverage::evaluate_coverage_interned_on_walk`], which interns the
//!    results into one report shape ([`intern::InternedSweep`]).
//! 6. **Address-aware cohort packing** ([`batch::CohortPlanner`]) —
//!    cohorts are packed so faults sharing involved addresses land in the
//!    same walk dispatch, shrinking each cohort's merged step schedule on
//!    the dense populations synthesized by [`faultgen::FaultGen`]
//!    (per-row/per-column victims, neighbourhood coupling sets, mixed
//!    profiles of 100k+ faults); the list-order greedy planner
//!    ([`coverage::SweepBackend::LaneBatchedListOrder`]) is kept as the
//!    measured baseline.
//!
//! The `bench` crate's `fault_sim_throughput` benchmark measures the
//! kernel in faults/second against a frozen replica of the original
//! (per-fault allocating, always-full-walk, serial) implementation, and
//! the batched backend against the per-fault kernel.
//!
//! # Example
//!
//! ```
//! use march_test::prelude::*;
//! use sram_model::config::ArrayOrganization;
//!
//! let organization = ArrayOrganization::new(8, 8)?;
//! let test = library::march_c_minus();
//! assert_eq!(test.operation_count(), 10);
//!
//! // Run it on a fault-free memory: no failures.
//! let order = WordLineAfterWordLine;
//! let mut memory = GoodMemory::new(organization.capacity());
//! let result = run_march(&test, &order, &organization, &mut memory);
//! assert!(result.passed());
//!
//! // Sweep a fault list with the shared-walk kernel: early-exit
//! // detection, parallel across the list.
//! let faults = standard_fault_list(&organization);
//! let walk = MarchWalk::new(&test, &order, &organization);
//! let report = evaluate_coverage_interned_on_walk(&walk, &faults, SweepOptions::fast());
//! assert!(report.coverage() > 0.5);
//! # Ok::<(), sram_model::error::SramError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_order;
pub mod algorithm;
pub mod background;
pub mod batch;
pub mod coverage;
pub mod dof;
pub mod element;
pub mod executor;
pub mod fault_sim;
pub mod faultgen;
pub mod faults;
pub mod intern;
pub mod library;
pub mod memory;
pub mod operation;
pub mod parallel;
pub mod rng;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::address_order::{
        order_by_name, AddressOrder, ColumnMajor, PseudoRandomOrder, WordLineAfterWordLine,
    };
    pub use crate::algorithm::MarchTest;
    pub use crate::background::DataBackground;
    pub use crate::batch::{Cohort, CohortPlanner, FaultBatch};
    pub use crate::coverage::{
        evaluate_coverage, evaluate_coverage_interned_on_walk, CoverageReport, SweepBackend,
        SweepOptions,
    };
    pub use crate::element::{AddressDirection, MarchElement};
    pub use crate::executor::{
        run_march, run_march_until_detected, run_march_walk, AddressPlan, MarchResult, MarchStep,
        MarchWalk,
    };
    pub use crate::fault_sim::{
        simulate_fault, simulate_fault_on_walk, DetectionMode, FaultSimOutcome,
    };
    pub use crate::faultgen::{FaultGen, FaultGenError, FaultPopulation};
    pub use crate::faults::{standard_fault_list, Fault, LaneFault, LaneFaultKind};
    pub use crate::library;
    pub use crate::library::algorithm_by_name;
    pub use crate::memory::{GoodMemory, LaneMemory, MemoryModel};
    pub use crate::operation::MarchOp;
    pub use crate::rng::{Fnv1a, SplitMix64};
}
