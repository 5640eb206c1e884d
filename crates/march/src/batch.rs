//! Lane-batched multi-fault simulation: the [`FaultBatch`] planner and
//! cohort sweep driver.
//!
//! The per-fault kernel ([`crate::fault_sim::simulate_fault_on_walk`])
//! pays one walk dispatch — and one scratch-memory refill proportional to
//! the array capacity — per injected fault. The bit-packed store already
//! holds sixty-four cells per word, and the batched backend turns that
//! around: sixty-four *independent* faults ride one walk by giving each
//! bit lane of a word per involved cell its own faulty universe
//! ([`crate::executor::run_march_lane_masks`]).
//!
//! # Cohort lifecycle
//!
//! Every sweep runs the same five stages, in order; sequential passes are
//! marked `→`, the only permuted hop `⇢`:
//!
//! ```text
//!  fault list (factories, list order)
//!      │  probe: one instantiation per factory → inline lane kind
//!      │         (LaneFaultKind) or none, plus the sorted, deduplicated
//!      ▼         involved addresses
//!  probes (list order)
//!      │  plan: classify into lane / serial candidates, then group the
//!      │        lane candidates (CohortPlanner) into ≤64-lane cohorts
//!      ▼        closed at the kernel's address budget
//!  cohorts: Lanes(…) …, Serial(…) …
//!      │  pack: concatenate the lane cohorts' members into one
//!      ⇢        contiguous Vec<LaneFaultKind> — **packed order**, the
//!      │        kernel's native order — recording the fault→packed-slot
//!      ▼        inverse permutation as it goes
//!  packed lane array + per-cohort (start, len) ranges
//!      │  execute: one run_march_lane_masks dispatch per cohort over
//!      │           its slice of the packed array: the slice is lowered
//!      │           to per-cell lane masks and pair ops, its schedule
//!      │           computed from the union's walk positions, and every
//!      │           step runs as whole-word u64 operations; detections
//!      ▼           land in packed-order flat arrays (sequential writes)
//!  packed detections  +  parked serial counts (rare)
//!      │  scatter: one list-order pass pairs each probed instance with
//!      ▼           its detection, read through the inverse permutation
//!  (fault, detected, mismatches) in fault-list order — the driver
//!  (crate::coverage) interns them into a report byte-identical to the
//!  per-fault path
//! ```
//!
//! Shuffled populations therefore cost exactly one permutation hop (the
//! pack stage's 16-byte `Copy` moves and the assembly's indexed reads)
//! instead of scattering every probe access and every outcome write, which
//! is what used to make address-scattered populations sweep ~1.5× slower
//! than generation-ordered ones.
//!
//! # Planning rules
//!
//! [`FaultBatch::plan_with`] partitions a fault list into dispatchable
//! [`Cohort`]s:
//!
//! * a fault joins a **lane cohort** ([`Cohort::Lanes`]) when the walk is
//!   [`MarchWalk::locality_safe`] and the fault provides a
//!   [`Fault::lane_kind`] — its lane form stored inline and lowered to
//!   lane masks by the word-parallel kernel;
//! * lane cohorts close at [`LaneMemory::LANES`] (64) members or at the
//!   kernel's [`crate::executor::COHORT_ADDRESS_BUDGET`];
//! * everything else (no lane kind, or a non-locality-safe walk) becomes
//!   a serial singleton that runs the per-fault golden path.
//!
//! *Which* faults share a cohort is the [`CohortPlanner`]'s choice, and
//! it decides how much walk each cohort dispatches: a cohort's schedule
//! is every walk step at the union of its members' involved addresses
//! ([`MarchWalk::ops_per_address`] steps per address), so packing faults
//! that **share addresses** into the same cohort shrinks the union. The
//! default [`CohortPlanner::AddressAware`] packer clusters by involved
//! addresses (kind-homogeneous within an address group, so faults of one
//! model on shared cells merge into one lowered pair op) and never
//! plans a worse total schedule than list order — it keeps whichever
//! grouping dispatches fewer steps; [`CohortPlanner::ListOrderGreedy`] is
//! the PR 3 baseline, kept for comparison benchmarks. Because the
//! address-signature clustering is insensitive to the input order, a
//! shuffled copy of a population packs into cohorts with identical
//! merged schedules (up to cohort order) as the generation-ordered
//! original.
//!
//! Cohort membership never changes *results*: lanes are independent
//! universes and [`sweep_batched`] reassembles results in fault-list
//! order, so batched sweeps are byte-identical to per-fault ones under
//! every planner (the randomized differential harness in
//! `tests/dense_population_differential.rs` proves it seed by seed,
//! including shuffled-permutation seeds).

use sram_model::address::Address;

use crate::executor::{run_march_lane_masks, LaneScratch, MarchWalk};
use crate::fault_sim::{simulate_fault_counts_on_walk, DetectionMode};
use crate::faults::{Fault, FaultFactory, FaultKind, LaneFaultKind};
use crate::memory::{GoodMemory, LaneMemory};
use crate::parallel::par_chunk_flat_map_balanced_scratch;

/// One unit of sweep work produced by the [`FaultBatch`] planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cohort {
    /// Up to [`LaneMemory::LANES`] lane-compatible faults with inline
    /// [`LaneFaultKind`] forms, simulated in one walk dispatch off the
    /// packed cohort array; the values are indices into the planned fault
    /// list, and each fault's lane is its position in the vector.
    Lanes(Vec<usize>),
    /// A fault that must run the per-fault path: its index in the planned
    /// fault list.
    Serial(usize),
}

impl Cohort {
    /// Number of faults this cohort simulates.
    pub fn len(&self) -> usize {
        match self {
            Cohort::Lanes(indices) => indices.len(),
            Cohort::Serial(_) => 1,
        }
    }

    /// `true` when the cohort simulates no faults (never produced by the
    /// planner).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cohort-grouping strategy of a [`FaultBatch`] plan.
///
/// Every planner obeys the hard rules (lane-capable faults only, cohorts
/// close at [`LaneMemory::LANES`] members, each fault in exactly one
/// cohort); they differ only in *which* lane-capable faults share a
/// dispatch, which decides each cohort's merged-schedule size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CohortPlanner {
    /// Lane-capable faults are chunked in fault-list order — the PR 3
    /// baseline the address-aware packer is measured against.
    ListOrderGreedy,
    /// Lane-capable faults are sorted by their **victim-major**
    /// involved-address signature (the cell the fault is observed at
    /// leads the key, so a victim's single-cell models and its coupling
    /// pairs cluster together; fault kind is the tie-break, so cohorts
    /// also come out kind-homogeneous) before chunking: faults sharing
    /// victims land in the same cohort and their involved addresses
    /// deduplicate inside the union. The packer then keeps whichever
    /// grouping — clustered or list-order — yields the smaller total
    /// merged schedule, so it is never worse than the greedy baseline.
    /// The signature sort does not depend on list positions (beyond
    /// final tie-breaking), which is what makes packed schedules
    /// invariant under population shuffles. The default.
    #[default]
    AddressAware,
}

/// A fault list partitioned into ≤64-lane cohorts for one walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBatch {
    cohorts: Vec<Cohort>,
    faults: usize,
    planner: CohortPlanner,
    schedule_steps: u64,
}

/// Probed faults in struct-of-arrays layout: the instances, the inline
/// lane kinds (when the walk admits them) and a CSR of the sorted
/// involved addresses.
///
/// Probing happens in fault-list order, once, and serves planning,
/// packing and outcome assembly — re-instantiating 100k faults per phase
/// is measurable at dense-population scale. The arrays are deliberately
/// *dense* (16 bytes per kind, 4 bytes per involved address, no per-fault
/// heap spill): the packer visits them in clustered order and the pack
/// stage gathers through the packing permutation, and on shuffled
/// populations those permuted passes are what the sweep's throughput
/// hinges on.
struct ProbeSet {
    /// The probed instances, handed back with their results.
    faults: Vec<Box<dyn Fault>>,
    /// The inline lane forms — `Copy`, so the pack stage moves them into
    /// the packed cohort array without touching the heap.
    kinds: Vec<Option<LaneFaultKind>>,
    /// Involved addresses, ascending and distinct within each fault,
    /// concatenated in fault-list order.
    entries: Vec<u32>,
    /// CSR offsets into `entries`: fault `i` owns
    /// `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Clustering signature of each *kind-capable* fault (`0` otherwise):
    /// the semantic primary address — the victim, the cell the fault is
    /// observed at, which is the **last** entry of the model's
    /// [`LaneFaultKind::involved`] order — in the high half, the
    /// secondary address (or `u32::MAX` for single-cell faults) in the
    /// low half. Keying on the victim keeps a victim's single-cell
    /// models and its coupling pairs adjacent under the address-aware
    /// sort, matching the locality a generation-ordered qualification
    /// flow emits; a min-address key would strand half the pairs under
    /// their aggressors.
    sigs: Vec<u64>,
}

impl ProbeSet {
    fn len(&self) -> usize {
        self.faults.len()
    }

    /// The involved addresses of fault `index`.
    fn involved(&self, index: usize) -> &[u32] {
        &self.entries[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

/// Sorts and deduplicates an involved address set into the probe CSR.
fn push_involved(addresses: &[Address], entries: &mut Vec<u32>) {
    let start = entries.len();
    entries.extend(addresses.iter().map(|a| a.value()));
    entries[start..].sort_unstable();
    // Deduplicate the freshly pushed tail only (never across the CSR
    // boundary into the previous fault's entries).
    let mut write = start;
    for read in start..entries.len() {
        if write == start || entries[write - 1] != entries[read] {
            entries[write] = entries[read];
            write += 1;
        }
    }
    entries.truncate(write);
}

/// Sequentially probes every factory of `faults` over `walk`.
fn probe_faults(walk: &MarchWalk, faults: &[FaultFactory]) -> ProbeSet {
    let locality_safe = walk.locality_safe();
    let mut probes = ProbeSet {
        faults: Vec::with_capacity(faults.len()),
        kinds: Vec::with_capacity(faults.len()),
        entries: Vec::with_capacity(faults.len()),
        offsets: Vec::with_capacity(faults.len() + 1),
        sigs: Vec::with_capacity(faults.len()),
    };
    probes.offsets.push(0);
    for factory in faults {
        let fault = factory();
        let kind = fault.lane_kind().filter(|_| locality_safe);
        let mut sig = 0u64;
        if let Some(kind) = &kind {
            let involved = kind.involved();
            sig = match *involved {
                [only] => u64::from(only.value()) << 32 | u64::from(u32::MAX),
                [secondary, victim] => {
                    u64::from(victim.value()) << 32 | u64::from(secondary.value())
                }
                _ => unreachable!("enum lane kinds involve one or two cells"),
            };
            push_involved(&involved, &mut probes.entries);
        }
        probes.offsets.push(probes.entries.len() as u32);
        probes.faults.push(fault);
        probes.kinds.push(kind);
        probes.sigs.push(sig);
    }
    probes
}

/// Sentinel of the fault→packed-slot inverse permutation: the fault does
/// not ride a lane cohort (it runs serially and its counts park
/// instead).
const UNPACKED: u32 = u32::MAX;

/// One clustered-sort entry of the address-aware packer: the victim-major
/// signature, kind rank and fault index form the sort key, and the entry
/// also carries the inline lane form for direct packed emission — so the
/// post-sort pass never touches the permuted probe tables (the signature
/// itself holds the involved addresses the union cost needs).
#[derive(Debug, Clone, Copy)]
struct ClusterKey {
    sig: u64,
    rank: u8,
    index: u32,
    kind: LaneFaultKind,
}

/// The pack-stage output when the planner could emit it directly from
/// its clustered pass: the contiguous lane-form array in packed
/// (execution) order, the fault→packed-slot inverse permutation and the
/// per-cohort `(start, len)` ranges. Producing this inside the planner
/// means a shuffled population pays exactly one permuted store per fault
/// (the `of_fault` write) for the whole instantiation side.
struct PackedLanes {
    lanes: Vec<LaneFaultKind>,
    of_fault: Vec<u32>,
    ranges: Vec<(u32, u32)>,
}

/// The walk steps of a cohort union accumulated in `scratch` — its
/// distinct addresses times the walk's steps per address — clearing it
/// for the next cohort.
fn close_union(scratch: &mut Vec<u32>, ops_per_address: u64) -> u64 {
    scratch.sort_unstable();
    scratch.dedup();
    let steps = scratch.len() as u64 * ops_per_address;
    scratch.clear();
    steps
}

/// Chunks `positions` (indices into `involved`) into cohorts — closing at
/// 64 lanes or when the summed involved sets (an upper bound on the union
/// size) would exceed the kernel's address budget; today's ≤2-address
/// faults never trigger the latter, but the planner must not hand the
/// kernel a cohort it would reject — and computes the grouping's total
/// merged-schedule steps in the same pass, so a clustered evaluation
/// visits the (possibly permuted) involved slices exactly once.
fn chunk_and_cost(
    involved: &[&[u32]],
    positions: &[usize],
    scratch: &mut Vec<u32>,
    ops_per_address: u64,
) -> (Vec<Vec<usize>>, u64) {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut total = 0u64;
    scratch.clear();
    for &position in positions {
        let set = involved[position];
        if !pending.is_empty()
            && (pending.len() == LaneMemory::LANES
                || scratch.len() + set.len() > crate::executor::COHORT_ADDRESS_BUDGET)
        {
            total += close_union(scratch, ops_per_address);
            groups.push(std::mem::take(&mut pending));
        }
        pending.push(position);
        scratch.extend_from_slice(set);
    }
    if !pending.is_empty() {
        total += close_union(scratch, ops_per_address);
        groups.push(pending);
    }
    (groups, total)
}

/// Stable, order-invariant rank of a fault kind for the address-aware
/// tie-break (clusters same-kind faults adjacently inside an address
/// group so the kernel's owner-dispatch match runs the same arm in long
/// runs).
fn kind_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::StuckAt => 0,
        FaultKind::Transition => 1,
        FaultKind::CouplingInversion => 2,
        FaultKind::CouplingIdempotent => 3,
        FaultKind::CouplingState => 4,
        FaultKind::ReadDestructive => 5,
        FaultKind::DeceptiveReadDestructive => 6,
        FaultKind::IncorrectRead => 7,
        FaultKind::StuckOpen => 8,
        FaultKind::WriteDisturb => 9,
        FaultKind::AddressDecoder => 10,
    }
}

impl FaultBatch {
    /// Plans the cohorts of `faults` over `walk` with the default
    /// [`CohortPlanner::AddressAware`] packer. Planning instantiates one
    /// probe fault per factory to query its lane form and involved
    /// addresses.
    pub fn plan(walk: &MarchWalk, faults: &[FaultFactory]) -> Self {
        Self::plan_with(walk, faults, CohortPlanner::default())
    }

    /// Plans the cohorts of `faults` over `walk` under an explicit
    /// `planner` (see the module docs for the grouping rules).
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::batch::{CohortPlanner, FaultBatch};
    /// use march_test::executor::MarchWalk;
    /// use march_test::faults::standard_fault_list;
    /// use march_test::prelude::WordLineAfterWordLine;
    /// use march_test::library;
    /// use sram_model::config::ArrayOrganization;
    ///
    /// let organization = ArrayOrganization::new(8, 8)?;
    /// let walk = MarchWalk::new(
    ///     &library::march_ss(),
    ///     &WordLineAfterWordLine,
    ///     &organization,
    /// );
    /// let faults = standard_fault_list(&organization);
    ///
    /// let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
    /// let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
    ///
    /// // Both plans cover every fault; the address-aware packer keeps
    /// // whichever grouping dispatches fewer merged walk steps, so it is
    /// // never worse than the list-order baseline.
    /// assert_eq!(greedy.fault_count(), faults.len());
    /// assert_eq!(packed.fault_count(), faults.len());
    /// assert!(packed.merged_schedule_steps() <= greedy.merged_schedule_steps());
    /// # Ok::<(), sram_model::error::SramError>(())
    /// ```
    pub fn plan_with(walk: &MarchWalk, faults: &[FaultFactory], planner: CohortPlanner) -> Self {
        Self::plan_probed(walk, &probe_faults(walk, faults), planner, false).0
    }

    /// Plans from already-probed faults — the shared core of
    /// [`FaultBatch::plan_with`] and the sweep driver, which probes once
    /// and reuses the instances for packing and execution. With
    /// `want_packed`, the address-aware clustered pass also emits the
    /// packed lane array directly (see [`PackedLanes`]) — the kinds are
    /// already in hand there, in packed order, so the sweep skips a
    /// separate permuted gather; `None` comes back when the greedy
    /// grouping won (or was requested) and the sweep must pack by
    /// gathering.
    fn plan_probed(
        walk: &MarchWalk,
        probes: &ProbeSet,
        planner: CohortPlanner,
        want_packed: bool,
    ) -> (Self, Option<PackedLanes>) {
        let locality_safe = walk.locality_safe();
        let ops_per_address = walk.ops_per_address() as u64;
        // Candidate indices are kept as `u32` (half the bytes of `usize`)
        // because cohort assembly below gathers them in the planner's
        // clustered order — a permuted pass on shuffled populations.
        let mut lane_indices: Vec<u32> = Vec::new();
        let mut lane_kinds: Vec<u8> = Vec::new();
        let mut lane_kind_values: Vec<LaneFaultKind> = Vec::new();
        let mut lane_sigs: Vec<u64> = Vec::new();
        let mut involved: Vec<&[u32]> = Vec::new();
        let mut serial: Vec<usize> = Vec::new();
        let mut serial_steps = 0u64;
        for index in 0..probes.len() {
            if let Some(kind) = probes.kinds[index] {
                lane_indices.push(index as u32);
                lane_kinds.push(kind_rank(kind.kind()));
                lane_kind_values.push(kind);
                lane_sigs.push(probes.sigs[index]);
                involved.push(probes.involved(index));
            } else {
                let fault = &probes.faults[index];
                serial_steps += match fault.involved_addresses().filter(|_| locality_safe) {
                    Some(mut addresses) => {
                        addresses.sort_unstable();
                        addresses.dedup();
                        addresses.len() as u64 * ops_per_address
                    }
                    None => walk.len() as u64,
                };
                serial.push(index);
            }
        }

        let mut scratch: Vec<u32> = Vec::new();
        let list_order: Vec<usize> = (0..lane_indices.len()).collect();
        let (greedy, greedy_steps) =
            chunk_and_cost(&involved, &list_order, &mut scratch, ops_per_address);
        // Greedy groups hold candidate positions; resolve them to fault
        // indices (a sequential pass — greedy positions are in candidate
        // order).
        let greedy_to_indices = |groups: Vec<Vec<usize>>| -> Vec<Vec<usize>> {
            groups
                .into_iter()
                .map(|members| {
                    members
                        .into_iter()
                        .map(|position| lane_indices[position] as usize)
                        .collect()
                })
                .collect()
        };
        let mut packed_lanes: Option<PackedLanes> = None;
        let (lane_groups, lane_steps) = match planner {
            CohortPlanner::ListOrderGreedy => (greedy_to_indices(greedy), greedy_steps),
            CohortPlanner::AddressAware => {
                // Cluster by the victim-major involved-address signature
                // (see `ProbeSet::sigs`): a victim's single-cell models
                // and its coupling pairs sort adjacently (kind rank,
                // then fault index, break the remaining ties
                // deterministically — candidate positions are ascending
                // in fault index, so the two tie-breaks order
                // identically), and chunking the sorted order packs
                // overlapping faults into shared cohorts. Each key also
                // carries the fault index and the lane form, and its
                // signature holds the involved addresses, so after the
                // sort the chunk-and-cost pass below builds fault-index
                // cohorts (and, on request, the packed lane array) from
                // the keys *sequentially*: on a shuffled 100k population
                // it never chases the permuted `involved` slices (or the
                // candidate-index table) at all.
                let mut keyed: Vec<ClusterKey> = (0..involved.len())
                    .map(|position| ClusterKey {
                        sig: lane_sigs[position],
                        rank: lane_kinds[position],
                        index: lane_indices[position],
                        kind: lane_kind_values[position],
                    })
                    .collect();
                keyed.sort_unstable_by_key(|key| (key.sig, key.rank, key.index));
                let mut packed: Vec<Vec<usize>> = Vec::new();
                let mut pending: Vec<usize> = Vec::new();
                let mut packed_steps = 0u64;
                // The clustered order *is* packed execution order, so
                // when the caller wants the packed array this single
                // sequential pass emits it — lane forms in order, the
                // inverse permutation as the one scattered store.
                let mut emitted = want_packed.then(|| PackedLanes {
                    lanes: Vec::with_capacity(keyed.len()),
                    of_fault: vec![UNPACKED; probes.len()],
                    ranges: Vec::new(),
                });
                scratch.clear();
                for &ClusterKey {
                    sig, index, kind, ..
                } in &keyed
                {
                    // A second address of `u32::MAX` marks a one-cell
                    // involved set (real addresses are `< capacity`).
                    let len = if sig as u32 == u32::MAX { 1 } else { 2 };
                    if !pending.is_empty()
                        && (pending.len() == LaneMemory::LANES
                            || scratch.len() + len > crate::executor::COHORT_ADDRESS_BUDGET)
                    {
                        packed_steps += close_union(&mut scratch, ops_per_address);
                        packed.push(std::mem::take(&mut pending));
                    }
                    pending.push(index as usize);
                    if let Some(emitted) = &mut emitted {
                        emitted.of_fault[index as usize] = emitted.lanes.len() as u32;
                        emitted.lanes.push(kind);
                    }
                    scratch.push((sig >> 32) as u32);
                    if len == 2 {
                        scratch.push(sig as u32);
                    }
                }
                if !pending.is_empty() {
                    packed_steps += close_union(&mut scratch, ops_per_address);
                    packed.push(pending);
                }
                // Keep whichever grouping dispatches less walk: the
                // packer is never worse than the greedy baseline.
                if packed_steps <= greedy_steps {
                    if let Some(emitted) = &mut emitted {
                        let mut start = 0u32;
                        emitted.ranges = packed
                            .iter()
                            .map(|members| {
                                let range = (start, members.len() as u32);
                                start += members.len() as u32;
                                range
                            })
                            .collect();
                    }
                    packed_lanes = emitted;
                    (packed, packed_steps)
                } else {
                    // The greedy grouping won: the emitted clustered pack
                    // does not match it, so the sweep falls back to
                    // gather-packing off the cohort lists.
                    (greedy_to_indices(greedy), greedy_steps)
                }
            }
        };

        let mut cohorts: Vec<Cohort> = lane_groups.into_iter().map(Cohort::Lanes).collect();
        cohorts.extend(serial.into_iter().map(Cohort::Serial));
        (
            Self {
                cohorts,
                faults: probes.len(),
                planner,
                schedule_steps: lane_steps + serial_steps,
            },
            packed_lanes,
        )
    }

    /// The planned cohorts: lane cohorts first (in the planner's packing
    /// order), then the serial singletons in fault-list order.
    pub fn cohorts(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// The planner that produced this plan.
    pub fn planner(&self) -> CohortPlanner {
        self.planner
    }

    /// Total walk steps the plan dispatches: each lane cohort's merged
    /// (deduplicated) involved-step schedule plus each serial singleton's
    /// filtered slice — the metric the address-aware packer minimises,
    /// and the `speedup_packed_schedule` ratio the dense benchmark
    /// tracks against the greedy baseline.
    pub fn merged_schedule_steps(&self) -> u64 {
        self.schedule_steps
    }

    /// Number of faults the plan covers.
    pub fn fault_count(&self) -> usize {
        self.faults
    }

    /// Number of faults that ride lane cohorts (the rest run serially).
    pub fn lane_fault_count(&self) -> usize {
        self.cohorts
            .iter()
            .map(|cohort| match cohort {
                Cohort::Lanes(indices) => indices.len(),
                Cohort::Serial(_) => 0,
            })
            .sum()
    }
}

/// Simulates every fault in `faults` over `walk` through the lane-batched
/// backend under the cohort `planner`, returning each probed fault
/// instance with its `(detected, mismatches)` in fault-list order — the
/// sweep driver ([`crate::coverage::evaluate_coverage_interned_on_walk`])
/// interns them into the report.
///
/// Execution follows the packed-order lifecycle described in the module
/// docs: every fault is probed exactly once, in fault-list order; the
/// plan is built from the probes; the lane cohorts' inline (`Copy`)
/// forms are packed into one contiguous array in execution order while
/// the fault→packed-slot inverse permutation is recorded; the cohorts
/// execute off packed slices — serially, or fanned out across `threads`
/// worker threads with whole cohorts as the unit of work, load-balanced
/// because generated populations produce cohorts of very uneven cost.
/// Detections land in packed-order flat arrays (sequential writes), and
/// one final pass pairs them with the probes in list order through the
/// inverse permutation, so the result is identical to the per-fault path
/// regardless of population order, scheduling or planner.
///
/// The parallel path holds no locks on the hot path: the word-parallel
/// kernel only reads a cohort's inline lane forms, so workers lower them
/// straight from the shared packed array, and the rare serial singletons
/// re-instantiate from the `Sync` factories inside the worker. A panic in
/// a fault model or the kernel propagates with its original payload.
pub fn sweep_batched(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    background: bool,
    mode: DetectionMode,
    threads: usize,
    planner: CohortPlanner,
) -> Vec<(Box<dyn Fault>, bool, usize)> {
    let probes = probe_faults(walk, faults);
    let (plan, packed) = FaultBatch::plan_probed(walk, &probes, planner, true);

    // Pack stage: concatenate the lane cohorts' members into the kernel's
    // native execution order. The address-aware planner usually emitted
    // the packed array straight out of its clustered pass (one permuted
    // store per fault, everything else sequential); when it could not
    // (greedy grouping won, or was requested), one streaming pass over
    // the cohort lists gathers each member's inline (`Copy`) lane form
    // from the dense kind array and records the inverse permutation —
    // two independent accesses per fault that pipeline across iterations.
    let PackedLanes {
        lanes: packed_lanes,
        of_fault: packed_of_fault,
        ranges: lane_ranges,
    } = packed.unwrap_or_else(|| {
        let mut emitted = PackedLanes {
            lanes: Vec::with_capacity(plan.lane_fault_count()),
            of_fault: vec![UNPACKED; probes.len()],
            ranges: Vec::new(),
        };
        for cohort in plan.cohorts() {
            if let Cohort::Lanes(indices) = cohort {
                emitted
                    .ranges
                    .push((emitted.lanes.len() as u32, indices.len() as u32));
                for &index in indices {
                    emitted.of_fault[index] = emitted.lanes.len() as u32;
                    emitted
                        .lanes
                        .push(probes.kinds[index].expect("planned lane faults have kinds"));
                }
            }
        }
        emitted
    });

    // Lane cohorts occupy the packed array in plan order, so cohort `n`
    // is the `n`-th packed range; serial singletons follow them.
    enum Work<'a> {
        Lanes {
            start: usize,
            lanes: &'a [LaneFaultKind],
        },
        Serial(usize),
    }
    let mut ranges = lane_ranges.iter();
    let work: Vec<Work> = plan
        .cohorts()
        .iter()
        .map(|cohort| match cohort {
            Cohort::Lanes(_) => {
                let &(start, len) = ranges.next().expect("one packed range per lane cohort");
                let (start, len) = (start as usize, len as usize);
                Work::Lanes {
                    start,
                    lanes: &packed_lanes[start..start + len],
                }
            }
            Cohort::Serial(index) => Work::Serial(*index),
        })
        .collect();

    // One work item's results: a lane cohort's per-packed-slot mismatch
    // counts (the kernel's detection flag is exactly `mismatches > 0`),
    // or a serial singleton's `(index, detected, mismatches)`.
    enum Record {
        Lanes { start: usize, counts: Vec<u32> },
        Serial(usize, bool, usize),
    }
    let run =
        |item: &Work, lane_scratch: &mut LaneScratch, scratch: &mut Option<GoodMemory>| match *item
        {
            Work::Lanes { start, lanes } => Record::Lanes {
                start,
                counts: run_march_lane_masks(walk, lanes, background, mode, lane_scratch)
                    .iter()
                    .map(|detection| detection.mismatches as u32)
                    .collect(),
            },
            Work::Serial(index) => {
                let scratch = scratch.get_or_insert_with(|| GoodMemory::new(walk.capacity()));
                let (_, detected, mismatches) =
                    simulate_fault_counts_on_walk(walk, scratch, faults[index](), background, mode);
                Record::Serial(index, detected, mismatches)
            }
        };
    let records: Vec<Record> = if threads <= 1 {
        // One set of kernel dispatch buffers serves every cohort of the
        // sweep — the serial analogue of the per-worker scratch reuse
        // below.
        let mut lane_scratch = LaneScratch::new();
        let mut scratch = None;
        work.iter()
            .map(|item| run(item, &mut lane_scratch, &mut scratch))
            .collect()
    } else {
        // Lock-free fan-out: lane cohorts are read-only slices of the
        // packed array, which the kernel lowers in place. The dispatch
        // buffers live in the claiming worker's pool scratch, so every
        // chunk the worker claims reuses one set of allocations.
        par_chunk_flat_map_balanced_scratch(&work, threads, |chunk, worker| {
            let lane_scratch: &mut LaneScratch = worker.get_or_insert_with(LaneScratch::new);
            let mut scratch = None;
            chunk
                .iter()
                .map(|item| run(item, lane_scratch, &mut scratch))
                .collect()
        })
    };

    let mut counts_packed = vec![0u32; packed_lanes.len()];
    let mut parked: Vec<(usize, bool, usize)> = Vec::new();
    for record in records {
        match record {
            Record::Lanes { start, counts } => {
                counts_packed[start..start + counts.len()].copy_from_slice(&counts);
            }
            Record::Serial(index, detected, mismatches) => {
                parked.push((index, detected, mismatches));
            }
        }
    }

    // Scatter stage: one list-order pass; lane results are read through
    // the inverse permutation, parked serial results merge in by index.
    parked.sort_unstable_by_key(|&(index, ..)| index);
    let mut parked = parked.into_iter().peekable();
    probes
        .faults
        .into_iter()
        .enumerate()
        .map(|(index, fault)| {
            if let Some((_, detected, mismatches)) = parked.next_if(|&(i, ..)| i == index) {
                return (fault, detected, mismatches);
            }
            let position = packed_of_fault[index];
            debug_assert_ne!(position, UNPACKED, "non-parked faults ride lane cohorts");
            let count = counts_packed[position as usize];
            (fault, count > 0, count as usize)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::algorithm::MarchTest;
    use crate::element::MarchElement;
    use crate::executor::merged_step_indices;
    use crate::faults::{standard_fault_list, StuckAtFault};
    use crate::library;
    use crate::operation::MarchOp;
    use sram_model::address::Address;
    use sram_model::config::ArrayOrganization;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    fn saf_list(count: u32) -> Vec<FaultFactory> {
        (0..count)
            .map(|v| {
                let factory: FaultFactory =
                    Box::new(move || Box::new(StuckAtFault::new(Address::new(v), v % 2 == 0)));
                factory
            })
            .collect()
    }

    /// The batched sweep's results with each instance rendered by name,
    /// so runs can be compared.
    fn results(
        walk: &MarchWalk,
        faults: &[FaultFactory],
        mode: DetectionMode,
        threads: usize,
        planner: CohortPlanner,
    ) -> Vec<(String, bool, usize)> {
        sweep_batched(walk, faults, false, mode, threads, planner)
            .into_iter()
            .map(|(fault, detected, mismatches)| (fault.name(), detected, mismatches))
            .collect()
    }

    #[test]
    fn plan_groups_the_standard_library_into_one_cohort() {
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults = standard_fault_list(&organization);
        let plan = FaultBatch::plan(&walk, &faults);
        // Every standard fault — including the stuck-open family — has an
        // inline lane kind, and the list fits into one 64-lane cohort.
        assert_eq!(plan.fault_count(), faults.len());
        assert_eq!(plan.lane_fault_count(), faults.len());
        assert_eq!(plan.cohorts().len(), 1);
        assert_eq!(plan.cohorts()[0].len(), faults.len());
        assert!(!plan.cohorts()[0].is_empty());
        assert!(matches!(plan.cohorts()[0], Cohort::Lanes(_)));
    }

    #[test]
    fn plan_splits_at_sixty_four_lanes() {
        let organization = ArrayOrganization::new(16, 8).unwrap();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        for (count, expected) in [
            (1usize, vec![1]),
            (63, vec![63]),
            (64, vec![64]),
            (65, vec![64, 1]),
        ] {
            let faults = saf_list(count as u32);
            let plan = FaultBatch::plan(&walk, &faults);
            let sizes: Vec<usize> = plan.cohorts().iter().map(Cohort::len).collect();
            assert_eq!(sizes, expected, "count {count}");
        }
    }

    #[test]
    fn non_locality_safe_walks_plan_serial_singletons() {
        let organization = org();
        let reads_first = MarchTest::new(
            "reads-first",
            vec![MarchElement::ascending(vec![MarchOp::R1])],
        );
        let walk = MarchWalk::new(&reads_first, &WordLineAfterWordLine, &organization);
        assert!(!walk.locality_safe());
        let faults = saf_list(4);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 0);
        assert_eq!(plan.cohorts().len(), 4);
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| matches!(cohort, Cohort::Serial(_))));
        // The serial fallback still yields outcomes in list order.
        let outcomes = results(
            &walk,
            &faults,
            DetectionMode::Full,
            1,
            CohortPlanner::default(),
        );
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[3].0, "SAF0@3");
    }

    #[test]
    fn faults_without_a_lane_kind_fall_back_to_the_serial_path() {
        /// A fault that keeps the default `lane_kind` of `None`.
        #[derive(Debug)]
        struct Opaque;
        impl Fault for Opaque {
            fn name(&self) -> String {
                "OPAQUE".into()
            }
            fn kind(&self) -> crate::faults::FaultKind {
                crate::faults::FaultKind::StuckAt
            }
            fn write(&mut self, memory: &mut GoodMemory, address: Address, _value: bool) {
                memory.set(address, true);
            }
            fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
                memory.get(address)
            }
        }
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let mut faults = saf_list(2);
        faults.insert(1, Box::new(|| Box::new(Opaque)));
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 2);
        assert_eq!(
            plan.cohorts().len(),
            2,
            "one serial singleton + one lane cohort"
        );
        for threads in [1, 4] {
            let outcomes = results(
                &walk,
                &faults,
                DetectionMode::FirstMismatch,
                threads,
                CohortPlanner::default(),
            );
            assert_eq!(outcomes[1].0, "OPAQUE");
            assert!(outcomes[1].1, "stuck-at-1-everything is detected");
        }
    }

    #[test]
    fn address_aware_packing_clusters_shared_victims_and_never_loses_to_greedy() {
        use crate::faultgen::FaultGen;

        let organization = ArrayOrganization::new(16, 16).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        // Overlap-heavy and shuffled: the worst case for list-order
        // grouping, the best for address clustering.
        let mut gen = FaultGen::new(organization, 0xC0_FFEE);
        let mut faults = gen.overlapping_clusters(40, 2, 1);
        gen.shuffle(&mut faults);
        let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
        let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
        assert_eq!(greedy.planner(), CohortPlanner::ListOrderGreedy);
        assert_eq!(packed.planner(), CohortPlanner::AddressAware);
        assert_eq!(packed.fault_count(), greedy.fault_count());
        assert_eq!(packed.lane_fault_count(), greedy.lane_fault_count());
        assert!(
            packed.merged_schedule_steps() < greedy.merged_schedule_steps(),
            "packed {} must beat greedy {} on an overlap-heavy shuffle",
            packed.merged_schedule_steps(),
            greedy.merged_schedule_steps()
        );
        // Same results either way, in fault-list order.
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let a = results(&walk, &faults, mode, 1, CohortPlanner::AddressAware);
            let b = results(&walk, &faults, mode, 1, CohortPlanner::ListOrderGreedy);
            assert_eq!(a, b, "{mode:?}");
        }
    }

    #[test]
    fn schedule_steps_count_the_planned_dispatch_exactly() {
        // Two SAFs on the same victim + one on another cell: one cohort,
        // union of two addresses.
        let organization = org();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let victim_steps = merged_step_indices(&walk, &[Address::new(3)]).len() as u64;
        let other_steps = merged_step_indices(&walk, &[Address::new(7)]).len() as u64;
        let faults: Vec<FaultFactory> = vec![
            Box::new(|| Box::new(StuckAtFault::new(Address::new(3), false))),
            Box::new(|| Box::new(StuckAtFault::new(Address::new(3), true))),
            Box::new(|| Box::new(StuckAtFault::new(Address::new(7), true))),
        ];
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.cohorts().len(), 1);
        assert_eq!(plan.merged_schedule_steps(), victim_steps + other_steps);
    }

    #[test]
    fn batched_sweep_is_identical_serial_and_parallel() {
        let organization = org();
        let walk = MarchWalk::new(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
        );
        let faults = standard_fault_list(&organization);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let serial = results(&walk, &faults, mode, 1, CohortPlanner::default());
            let parallel = results(&walk, &faults, mode, 8, CohortPlanner::default());
            assert_eq!(serial, parallel, "{mode:?}");
        }
    }
}
