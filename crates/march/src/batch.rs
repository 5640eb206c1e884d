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
//!      │  probe: one instantiation per factory → lane kind (inline
//!      │         LaneFaultKind) | boxed lane form | neither, plus the
//!      ▼         sorted, deduplicated involved addresses
//!  probes (list order)
//!      │  plan: classify into lane / boxed / serial candidates, then
//!      │        group the lane candidates (CohortPlanner) into ≤64-lane
//!      ▼        cohorts closed at the kernel's address budget
//!  cohorts: Lanes(…) …, BoxedLanes(…) …, Serial(…) …
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
//!  packed detections  +  parked outcomes (boxed/serial, rare)
//!      │  scatter: one list-order assembly pass reads each fault's
//!      │           detection through the inverse permutation and its
//!      ▼           name/kind from the sequential probe array
//!  outcomes (fault-list order — byte-identical to the per-fault path)
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
//! * a fault joins an **enum lane cohort** ([`Cohort::Lanes`]) when the
//!   walk is [`MarchWalk::locality_safe`] and the fault provides a
//!   [`Fault::lane_kind`] — its lane form stored inline and lowered to
//!   lane masks by the word-parallel kernel;
//! * a fault with no inline kind but a boxed [`Fault::lane_form`] (the
//!   extensibility escape hatch for external fault types) joins a
//!   **boxed cohort** ([`Cohort::BoxedLanes`]), which runs the per-owner
//!   kernel ([`crate::executor::run_march_lanes`]) through virtual
//!   dispatch;
//! * lane cohorts close at [`LaneMemory::LANES`] (64) members or at the
//!   kernel's [`crate::executor::COHORT_ADDRESS_BUDGET`];
//! * everything else (no lane form at all, an over-budget involved set,
//!   or a non-locality-safe walk) becomes a serial singleton that runs
//!   the per-fault golden path.
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
//! universes and [`sweep_batched`] reassembles outcomes in fault-list
//! order, so batched sweeps are byte-identical to per-fault ones under
//! every planner (the randomized differential harness in
//! `tests/dense_population_differential.rs` proves it seed by seed,
//! including shuffled-permutation seeds).

use sram_model::address::Address;

use crate::executor::{run_march_lane_masks, run_march_lanes_scratch, LaneScratch, MarchWalk};
use crate::fault_sim::{simulate_fault_counts_on_walk, DetectionMode, FaultSimOutcome};
use crate::faults::{Fault, FaultFactory, FaultKind, LaneFault, LaneFaultKind};
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
    /// Up to [`LaneMemory::LANES`] faults whose lane form is only
    /// available boxed ([`Fault::lane_form`] — the external-fault escape
    /// hatch); the per-owner kernel, virtual dispatch.
    BoxedLanes(Vec<usize>),
    /// A fault that must run the per-fault path: its index in the planned
    /// fault list.
    Serial(usize),
}

impl Cohort {
    /// Number of faults this cohort simulates.
    pub fn len(&self) -> usize {
        match self {
            Cohort::Lanes(indices) | Cohort::BoxedLanes(indices) => indices.len(),
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
/// lane kinds (when the walk admits them), the boxed escape-hatch lane
/// forms (only probed when there is no kind) and a CSR of the sorted
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
    /// `None` once a boxed cohort or serial singleton consumed the
    /// instance (its outcome is then parked, name included, so the slot
    /// is never read again).
    faults: Vec<Option<Box<dyn Fault>>>,
    /// The inline lane forms — `Copy`, so the pack stage moves them into
    /// the packed cohort array without touching the heap.
    kinds: Vec<Option<LaneFaultKind>>,
    /// The boxed escape-hatch lane forms, probed only when the kind is
    /// `None`.
    boxed: Vec<Option<Box<dyn LaneFault>>>,
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
        boxed: Vec::with_capacity(faults.len()),
        entries: Vec::with_capacity(faults.len()),
        offsets: Vec::with_capacity(faults.len() + 1),
        sigs: Vec::with_capacity(faults.len()),
    };
    probes.offsets.push(0);
    for factory in faults {
        let fault = factory();
        let (kind, boxed) = if locality_safe {
            match fault.lane_kind() {
                Some(kind) => (Some(kind), None),
                None => (None, fault.lane_form()),
            }
        } else {
            (None, None)
        };
        let mut sig = 0u64;
        match (&kind, &boxed) {
            (Some(kind), _) => {
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
            (None, Some(form)) => push_involved(&form.involved(), &mut probes.entries),
            _ => {}
        }
        probes.offsets.push(probes.entries.len() as u32);
        probes.faults.push(Some(fault));
        probes.kinds.push(kind);
        probes.boxed.push(boxed);
        probes.sigs.push(sig);
    }
    probes
}

/// Sentinel of the fault→packed-slot inverse permutation: the fault does
/// not ride an enum lane cohort (boxed or serial — its outcome parks
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
        let mut boxed_indices: Vec<u32> = Vec::new();
        let mut boxed_involved: Vec<&[u32]> = Vec::new();
        let mut serial: Vec<usize> = Vec::new();
        let mut serial_steps = 0u64;
        for index in 0..probes.len() {
            let set = probes.involved(index);
            // A lane form whose involved set alone exceeds the kernel's
            // address budget can never share (or even fill) a cohort the
            // kernel would accept — it runs the per-fault path instead.
            let within_budget = set.len() <= crate::executor::COHORT_ADDRESS_BUDGET;
            if let Some(kind) = probes.kinds[index].filter(|_| within_budget) {
                lane_indices.push(index as u32);
                lane_kinds.push(kind_rank(kind.kind()));
                lane_kind_values.push(kind);
                lane_sigs.push(probes.sigs[index]);
                involved.push(set);
            } else if probes.boxed[index].is_some() && within_budget {
                boxed_indices.push(index as u32);
                boxed_involved.push(set);
            } else {
                let fault = probes.faults[index]
                    .as_ref()
                    .expect("fresh probes hold their fault");
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

        // Boxed escape-hatch cohorts are grouped in list order — external
        // fault types are rare by construction, so they take the simple
        // grouping under either planner.
        let boxed_positions: Vec<usize> = (0..boxed_indices.len()).collect();
        let (boxed_groups, boxed_steps) = chunk_and_cost(
            &boxed_involved,
            &boxed_positions,
            &mut scratch,
            ops_per_address,
        );

        let mut cohorts: Vec<Cohort> = lane_groups.into_iter().map(Cohort::Lanes).collect();
        cohorts.extend(boxed_groups.into_iter().map(|members| {
            Cohort::BoxedLanes(
                members
                    .into_iter()
                    .map(|position| boxed_indices[position] as usize)
                    .collect(),
            )
        }));
        cohorts.extend(serial.into_iter().map(Cohort::Serial));
        (
            Self {
                cohorts,
                faults: probes.len(),
                planner,
                schedule_steps: lane_steps + boxed_steps + serial_steps,
            },
            packed_lanes,
        )
    }

    /// The planned cohorts: enum lane cohorts first (in the planner's
    /// packing order), then boxed escape-hatch cohorts, then the serial
    /// singletons in fault-list order.
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

    /// Number of faults that ride lane cohorts — inline enum or boxed
    /// escape hatch (the rest run serially).
    pub fn lane_fault_count(&self) -> usize {
        self.cohorts
            .iter()
            .map(|cohort| match cohort {
                Cohort::Lanes(indices) | Cohort::BoxedLanes(indices) => indices.len(),
                Cohort::Serial(_) => 0,
            })
            .sum()
    }
}

/// Simulates every fault in `faults` over `walk` through the lane-batched
/// backend with the default [`CohortPlanner::AddressAware`] packer,
/// returning outcomes in fault-list order. See [`sweep_batched_with`].
pub fn sweep_batched(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    background: bool,
    mode: DetectionMode,
    threads: usize,
) -> Vec<FaultSimOutcome> {
    sweep_batched_with(
        walk,
        faults,
        background,
        mode,
        threads,
        CohortPlanner::default(),
    )
}

fn park_lane_outcome(
    walk: &MarchWalk,
    fault: &dyn Fault,
    detected: bool,
    mismatches: usize,
) -> FaultSimOutcome {
    FaultSimOutcome {
        fault_name: fault.name(),
        fault_kind: fault.kind(),
        test_name: walk.test_name().to_string(),
        order_name: walk.order_name().to_string(),
        detected,
        mismatches,
    }
}

/// Simulates every fault in `faults` over `walk` through the lane-batched
/// backend under an explicit cohort `planner`, returning outcomes in
/// fault-list order.
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
/// one final pass assembles outcomes in list order through the inverse
/// permutation, so the result is identical to the per-fault path
/// regardless of population order, scheduling or planner.
///
/// The parallel path holds no locks on the hot path: the word-parallel
/// kernel only reads a cohort's inline lane forms, so workers lower them
/// straight from the shared packed array, and the rare boxed/serial
/// stragglers re-instantiate from the `Sync` factories inside the worker.
pub fn sweep_batched_with(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    background: bool,
    mode: DetectionMode,
    threads: usize,
    planner: CohortPlanner,
) -> Vec<FaultSimOutcome> {
    sweep_batched_assemble(
        walk,
        faults,
        background,
        mode,
        threads,
        planner,
        &|fault, detected, mismatches| park_lane_outcome(walk, fault, detected, mismatches),
    )
}

/// [`sweep_batched_with`], generic over the per-fault outcome assembly:
/// `assemble(fault, detected, mismatches)` renders each fault's result
/// into whatever report entry the caller wants — the full string-bearing
/// [`FaultSimOutcome`] ([`sweep_batched_with`] itself), or the interned
/// [`OutcomeCode`](crate::intern::OutcomeCode) form that skips the
/// three-strings-per-fault allocation
/// ([`crate::coverage::evaluate_coverage_interned`]).
///
/// `assemble` runs once per fault, in no guaranteed order (workers call
/// it for their own cohorts), but the returned vector is always in
/// fault-list order. It must be a pure function of its arguments.
pub fn sweep_batched_assemble<O, A>(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    background: bool,
    mode: DetectionMode,
    threads: usize,
    planner: CohortPlanner,
    assemble: &A,
) -> Vec<O>
where
    O: Send + Sync,
    A: Fn(&dyn Fault, bool, usize) -> O + Sync,
{
    let mut probes = probe_faults(walk, faults);
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

    // Per-packed-slot mismatch counts: the kernel's detection flag is
    // exactly `mismatches > 0` (a lane is detected iff at least one of
    // its reads mismatched), so one dense `u32` array carries the whole
    // outcome and the assembly pass gathers four bytes per fault.
    let mut counts_packed = vec![0u32; packed_lanes.len()];
    let mut parked: Vec<(usize, O)> = Vec::new();

    if threads <= 1 {
        let mut scratch: Option<GoodMemory> = None;
        // One set of kernel dispatch buffers serves every cohort of the
        // sweep — the serial analogue of the per-worker scratch reuse of
        // the parallel path below.
        let mut lane_scratch = LaneScratch::new();
        let mut lane_cursor = 0usize;
        for cohort in plan.cohorts() {
            match cohort {
                Cohort::Lanes(_) => {
                    let (start, len) = lane_ranges[lane_cursor];
                    lane_cursor += 1;
                    let (start, len) = (start as usize, len as usize);
                    let detections = run_march_lane_masks(
                        walk,
                        &packed_lanes[start..start + len],
                        background,
                        mode,
                        &mut lane_scratch,
                    );
                    for (offset, detection) in detections.iter().enumerate() {
                        counts_packed[start + offset] = detection.mismatches as u32;
                    }
                }
                Cohort::BoxedLanes(indices) => {
                    let mut lanes: Vec<Box<dyn LaneFault>> = indices
                        .iter()
                        .map(|&index| {
                            probes.boxed[index]
                                .take()
                                .expect("planned boxed faults have lane forms")
                        })
                        .collect();
                    let detections = run_march_lanes_scratch(
                        walk,
                        &mut lanes,
                        background,
                        mode,
                        &mut lane_scratch,
                    );
                    for (&index, detection) in indices.iter().zip(detections) {
                        let fault = probes.faults[index].take().expect("probe holds its fault");
                        parked.push((
                            index,
                            assemble(fault.as_ref(), detection.detected, detection.mismatches),
                        ));
                    }
                }
                Cohort::Serial(index) => {
                    let scratch = scratch.get_or_insert_with(|| GoodMemory::new(walk.capacity()));
                    let fault = probes.faults[*index].take().expect("probe holds its fault");
                    let (fault, detected, mismatches) =
                        simulate_fault_counts_on_walk(walk, scratch, fault, background, mode);
                    parked.push((*index, assemble(fault.as_ref(), detected, mismatches)));
                }
            }
        }
    } else {
        // Lock-free fan-out: enum cohorts are read-only slices of the
        // packed array, which the kernel lowers in place — no copies, no
        // mutexes. Boxed cohorts and serial singletons re-instantiate from
        // their `Sync` factories inside the worker (both are rare by
        // construction).
        enum Work<'a> {
            Lanes {
                start: usize,
                lanes: &'a [LaneFaultKind],
            },
            Boxed(&'a [usize]),
            Serial(usize),
        }
        enum Record<O> {
            Lane { position: usize, mismatches: u32 },
            Parked((usize, O)),
        }
        let mut work: Vec<Work> = Vec::with_capacity(plan.cohorts().len());
        let mut lane_cursor = 0usize;
        for cohort in plan.cohorts() {
            match cohort {
                Cohort::Lanes(_) => {
                    let (start, len) = lane_ranges[lane_cursor];
                    lane_cursor += 1;
                    let (start, len) = (start as usize, len as usize);
                    work.push(Work::Lanes {
                        start,
                        lanes: &packed_lanes[start..start + len],
                    });
                }
                Cohort::BoxedLanes(indices) => work.push(Work::Boxed(indices)),
                Cohort::Serial(index) => work.push(Work::Serial(*index)),
            }
        }
        let tagged = par_chunk_flat_map_balanced_scratch(&work, threads, |chunk, worker| {
            let mut scratch: Option<GoodMemory> = None;
            let mut records: Vec<Record<O>> = Vec::new();
            // The kernel dispatch buffers live in the claiming worker's
            // pool scratch, so every chunk the worker claims — across the
            // whole sweep — reuses one set of allocations.
            let lane_scratch: &mut LaneScratch = worker.get_or_insert_with(LaneScratch::new);
            for item in chunk {
                match item {
                    Work::Lanes { start, lanes } => {
                        let detections =
                            run_march_lane_masks(walk, lanes, background, mode, lane_scratch);
                        records.extend(detections.iter().enumerate().map(|(offset, detection)| {
                            Record::Lane {
                                position: start + offset,
                                mismatches: detection.mismatches as u32,
                            }
                        }));
                    }
                    Work::Boxed(indices) => {
                        let mut lanes = Vec::with_capacity(indices.len());
                        let mut instances = Vec::with_capacity(indices.len());
                        for &index in *indices {
                            let fault = faults[index]();
                            lanes.push(
                                fault
                                    .lane_form()
                                    .expect("planned boxed faults have lane forms"),
                            );
                            instances.push(fault);
                        }
                        let detections = run_march_lanes_scratch(
                            walk,
                            &mut lanes,
                            background,
                            mode,
                            lane_scratch,
                        );
                        records.extend(indices.iter().zip(instances).zip(detections).map(
                            |((&index, fault), detection)| {
                                Record::Parked((
                                    index,
                                    assemble(
                                        fault.as_ref(),
                                        detection.detected,
                                        detection.mismatches,
                                    ),
                                ))
                            },
                        ));
                    }
                    Work::Serial(index) => {
                        let scratch =
                            scratch.get_or_insert_with(|| GoodMemory::new(walk.capacity()));
                        let (fault, detected, mismatches) = simulate_fault_counts_on_walk(
                            walk,
                            scratch,
                            faults[*index](),
                            background,
                            mode,
                        );
                        records.push(Record::Parked((
                            *index,
                            assemble(fault.as_ref(), detected, mismatches),
                        )));
                    }
                }
            }
            records
        });
        for record in tagged {
            match record {
                Record::Lane {
                    position,
                    mismatches,
                } => counts_packed[position] = mismatches,
                Record::Parked(entry) => parked.push(entry),
            }
        }
    }

    // Scatter stage: one list-order pass; lane outcomes are read through
    // the inverse permutation, parked (boxed/serial) outcomes merge in by
    // index.
    parked.sort_unstable_by_key(|(index, _)| *index);
    let mut parked = parked.into_iter().peekable();
    (0..probes.len())
        .map(|index| {
            if parked.peek().is_some_and(|(i, _)| *i == index) {
                return parked.next().expect("peeked").1;
            }
            let position = packed_of_fault[index];
            debug_assert_ne!(position, UNPACKED, "non-parked faults ride lane cohorts");
            let fault = probes.faults[index]
                .as_ref()
                .expect("lane probes keep their fault");
            let count = counts_packed[position as usize];
            assemble(fault.as_ref(), count > 0, count as usize)
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

    /// A delegating wrapper that hides its inner fault's inline lane kind
    /// and only exposes the boxed lane form — the external-fault escape
    /// hatch, as a test double.
    #[derive(Debug)]
    struct BoxedOnly(Box<dyn Fault>);

    impl Fault for BoxedOnly {
        fn name(&self) -> String {
            self.0.name()
        }
        fn kind(&self) -> crate::faults::FaultKind {
            self.0.kind()
        }
        fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
            self.0.write(memory, address, value);
        }
        fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
            self.0.read(memory, address)
        }
        fn involved_addresses(&self) -> Option<Vec<Address>> {
            self.0.involved_addresses()
        }
        fn lane_form(&self) -> Option<Box<dyn LaneFault>> {
            self.0.lane_form()
        }
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
        let outcomes = sweep_batched(&walk, &faults, false, DetectionMode::Full, 1);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[3].fault_name, "SAF0@3");
    }

    #[test]
    fn faults_without_a_lane_form_fall_back_to_the_serial_path() {
        /// A fault that keeps the default `lane_kind`/`lane_form` of
        /// `None`.
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
        let outcomes = sweep_batched(&walk, &faults, false, DetectionMode::FirstMismatch, 1);
        assert_eq!(outcomes[1].fault_name, "OPAQUE");
        assert!(outcomes[1].detected, "stuck-at-1-everything is detected");
    }

    #[test]
    fn boxed_escape_hatch_faults_ride_boxed_cohorts_with_identical_results() {
        // Faults that only expose the boxed lane form (external types)
        // batch into `Cohort::BoxedLanes` and produce outcomes identical
        // to the same faults riding inline enum cohorts — serial and
        // parallel.
        let organization = ArrayOrganization::new(8, 8).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let inline: Vec<FaultFactory> = standard_fault_list(&organization);
        let boxed: Vec<FaultFactory> = standard_fault_list(&organization)
            .into_iter()
            .map(|factory| {
                let wrapped: FaultFactory = Box::new(move || Box::new(BoxedOnly(factory())));
                wrapped
            })
            .collect();
        let plan = FaultBatch::plan(&walk, &boxed);
        assert_eq!(plan.lane_fault_count(), boxed.len());
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| matches!(cohort, Cohort::BoxedLanes(_))));
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let reference = sweep_batched(&walk, &inline, false, mode, 1);
            for threads in [1, 4] {
                let via_boxed = sweep_batched(&walk, &boxed, false, mode, threads);
                assert_eq!(reference, via_boxed, "{mode:?} threads={threads}");
            }
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
            let a = sweep_batched_with(&walk, &faults, false, mode, 1, CohortPlanner::AddressAware);
            let b = sweep_batched_with(
                &walk,
                &faults,
                false,
                mode,
                1,
                CohortPlanner::ListOrderGreedy,
            );
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
    fn lane_forms_exceeding_the_address_budget_fall_back_to_the_serial_path() {
        use crate::executor::COHORT_ADDRESS_BUDGET;
        use crate::memory::LaneMemory;

        /// A fault whose lane form claims more involved addresses than
        /// one cohort may span — the planner must not hand it to the
        /// kernel as a lane cohort.
        #[derive(Debug, Clone, Copy)]
        struct WideFault;
        impl Fault for WideFault {
            fn name(&self) -> String {
                "WIDE".into()
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
            fn lane_form(&self) -> Option<Box<dyn LaneFault>> {
                Some(Box::new(*self))
            }
        }
        impl LaneFault for WideFault {
            fn involved(&self) -> Vec<Address> {
                (0..COHORT_ADDRESS_BUDGET as u32 + 1)
                    .map(Address::new)
                    .collect()
            }
            fn lane_write(
                &mut self,
                memory: &mut LaneMemory,
                lane: u32,
                address: Address,
                _value: bool,
            ) {
                memory.set_lane(address, lane, true);
            }
            fn lane_read(
                &mut self,
                memory: &mut LaneMemory,
                lane: u32,
                address: Address,
                _sensed: bool,
            ) -> bool {
                memory.get_lane(address, lane)
            }
        }
        let organization = ArrayOrganization::new(32, 16).unwrap();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let mut faults = saf_list(2);
        faults.insert(1, Box::new(|| Box::new(WideFault)));
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 2, "the wide fault runs serially");
        assert!(plan
            .cohorts()
            .iter()
            .any(|cohort| matches!(cohort, Cohort::Serial(1))));
        // The sweep still completes (through the per-fault path) and
        // keeps fault-list order.
        let outcomes = sweep_batched(&walk, &faults, false, DetectionMode::Full, 1);
        assert_eq!(outcomes[1].fault_name, "WIDE");
        assert!(outcomes[1].detected, "stuck-at-1-everything is detected");
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
            let serial = sweep_batched(&walk, &faults, false, mode, 1);
            let parallel = sweep_batched(&walk, &faults, false, mode, 8);
            assert_eq!(serial, parallel, "{mode:?}");
        }
    }
}
