//! March test execution: the fault-simulation kernel.
//!
//! The hot path of every coverage/degree-of-freedom experiment is "run one
//! March test over one perturbed memory, thousands of times". The kernel
//! here is built for that workload:
//!
//! * [`AddressPlan`] computes the ⇑ permutation of an [`AddressOrder`]
//!   **once** and serves both directions by index arithmetic, so neither
//!   the executor nor the low-power scheduler re-allocates address
//!   sequences per element;
//! * [`MarchWalk`] describes a whole `(test, order, organization)`
//!   traversal in closed form (the ⇑ permutation, its inverse and one
//!   descriptor per March element, nothing per step) and is shared,
//!   read-only, across every fault of a sweep and across threads;
//! * [`run_march_walk`] executes a walk against any [`MemoryModel`] and
//!   reports every mismatch; [`run_march_until_detected`] is the early-exit
//!   variant for sweeps that only need the detected/missed bit — it stops
//!   at the first mismatching read;
//! * [`run_march`] keeps the original convenience signature by building a
//!   throw-away walk internally;
//! * the lane-batched sweep's *execute* stage runs up to sixty-four faults
//!   per walk scan, one bit lane each. [`run_march_lane_masks`] is the
//!   kernel every cohort of the crate's own fault models runs: it lowers
//!   the cohort to per-cell lane masks once, then runs each step as a few
//!   whole-word `u64` operations. [`run_march_lanes`] dispatches each
//!   owner lane's [`LaneFault`] form per step instead; no sweep runs it,
//!   it is the reference the masked kernel is tested against.
//!
//! [`MarchWalk::steps`] exposes the same traversal as an iterator of
//! [`MarchStep`]s so that higher layers (the low-power test engine in the
//! `lp-precharge` crate) can map each operation onto a memory clock cycle
//! without re-implementing the ordering rules.

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::element::AddressDirection;
use crate::fault_sim::DetectionMode;
use crate::faults::lowering::{splat, LoweredCohort};
use crate::faults::{LaneFault, LaneFaultKind};
use crate::memory::{LaneMemory, MemoryModel};
use crate::operation::MarchOp;

/// One operation of a March test applied to one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchStep {
    /// Index of the March element this step belongs to.
    pub element: usize,
    /// Index of the operation within the element.
    pub op_index: usize,
    /// The address the operation targets.
    pub address: Address,
    /// The operation itself.
    pub op: MarchOp,
    /// `true` if this is the last operation applied to this address within
    /// the current element (the next step moves to a new address or a new
    /// element).
    pub last_op_on_address: bool,
    /// `true` if this is the last operation of the element on the last
    /// address of the element's sequence.
    pub last_op_of_element: bool,
}

/// A detected mismatch: a read returned something other than its expected
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The element in which the failing read occurred.
    pub element: usize,
    /// The address that failed.
    pub address: Address,
    /// The value the March test expected.
    pub expected: bool,
    /// The value the memory returned.
    pub observed: bool,
}

/// Result of running a March test.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MarchResult {
    /// Every read mismatch, in occurrence order.
    pub mismatches: Vec<Mismatch>,
    /// Number of operations executed.
    pub operations: u64,
    /// Number of read operations executed.
    pub reads: u64,
    /// Number of write operations executed.
    pub writes: u64,
}

impl MarchResult {
    /// `true` when no read mismatched — the memory passes the test.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// `true` when at least one read mismatched — a fault was detected.
    pub fn detected_fault(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

/// The ⇑ permutation of an address order, computed once and indexable in
/// both directions.
///
/// A March ⇓ sequence is by definition the exact reverse of ⇑, so a single
/// materialised permutation serves every element of a test; descending
/// positions are resolved with index arithmetic instead of a reversed
/// copy. Both [`MarchWalk`] and the low-power scheduler in `lp-precharge`
/// build on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressPlan {
    ascending: Vec<Address>,
}

impl AddressPlan {
    /// Materialises the ⇑ permutation of `order` over `organization`.
    pub fn new(order: &dyn AddressOrder, organization: &ArrayOrganization) -> Self {
        Self {
            ascending: order.ascending(organization),
        }
    }

    /// Number of addresses in the permutation.
    pub fn len(&self) -> usize {
        self.ascending.len()
    }

    /// `true` when the plan covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.ascending.is_empty()
    }

    /// The address at `position` of an element running in `direction`
    /// (⇕ uses ⇑), or `None` past the end.
    #[inline]
    pub fn at(&self, direction: AddressDirection, position: usize) -> Option<Address> {
        match direction {
            AddressDirection::Ascending | AddressDirection::Either => {
                self.ascending.get(position).copied()
            }
            AddressDirection::Descending => {
                let len = self.ascending.len();
                if position < len {
                    Some(self.ascending[len - 1 - position])
                } else {
                    None
                }
            }
        }
    }

    /// Iterates the sequence of an element running in `direction`.
    pub fn iter(&self, direction: AddressDirection) -> impl ExactSizeIterator<Item = Address> + '_ {
        let len = self.ascending.len();
        (0..len).map(move |pos| self.at(direction, pos).expect("position < len"))
    }
}

// The code byte of a step: bits 0–1 the operation, bit 2
// `last_op_on_address`, bit 3 `last_op_of_element`, bit 4 the
// sensed-before value (see `SENSED_BEFORE`).
const OP_MASK: u8 = 0b0011;
const READ_BIT: u8 = 0b0010;
const VALUE_BIT: u8 = 0b0001;
const LAST_ON_ADDRESS: u8 = 0b0100;
const LAST_OF_ELEMENT: u8 = 0b1000;
/// For read steps: the value a fault-free-elsewhere sense amplifier holds
/// *before* this read, i.e. the expected value of the most recent earlier
/// read at an address **different from this step's address** (`0` when no
/// such read exists, matching the initial sense-amplifier state of
/// [`crate::faults::StuckOpenFault`]). This is what lets the
/// history-dependent stuck-open fault ride the lane-batched kernel without
/// replaying the full walk: in a locality-safe walk every non-victim read
/// returns its expected value, so the victim's bit-line history is a pure
/// function of the walk.
///
/// Every address runs its element's whole operation list, so the stamp
/// needs no history. Past an element's first address, the previous one ran
/// the element's last read. At the first address, the latest read
/// elsewhere is the last read of the nearest earlier element that has one,
/// run at its last *and* second-to-last addresses, one of which differs
/// from this one (on a single-cell array the stamp is always `0`).
const SENSED_BEFORE: u8 = 0b1_0000;

#[inline]
fn op_code(op: MarchOp) -> u8 {
    match op {
        MarchOp::W0 => 0b00,
        MarchOp::W1 => 0b01,
        MarchOp::R0 => 0b10,
        MarchOp::R1 => 0b11,
    }
}

#[inline]
fn decode_op(code: u8) -> MarchOp {
    match code & OP_MASK {
        0b00 => MarchOp::W0,
        0b01 => MarchOp::W1,
        0b10 => MarchOp::R0,
        _ => MarchOp::R1,
    }
}

/// One March element of a [`MarchWalk`], in closed form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ElementPlan {
    /// `true` for ⇓ elements; ⇑ and ⇕ run the ascending permutation.
    descending: bool,
    /// Walk index of the element's first step.
    offset: u32,
    /// Code byte of each operation at the element's first position, at
    /// every middle one and at its last one: the operation,
    /// `LAST_ON_ADDRESS` on the final operation (plus `LAST_OF_ELEMENT`
    /// at the last position) and, on reads, the sensed-before stamp.
    codes: [Vec<u8>; 3],
}

/// A `(test, order, organization)` traversal precomputed once and shared
/// across every fault of a sweep.
///
/// The walk stores the ⇑ address permutation, its inverse (two `u32`s per
/// cell) and one descriptor per March element, never a per-step array:
/// operation `i` of element `e` at address `a` is walk step
/// `offset[e] + pos_e(a) · ops_e + i`, where `pos_e(a)` is the address's ⇑
/// position, mirrored for a ⇓ element. Building a walk costs one
/// permutation, so per-job rebuilds and 4096×4096 arrays are cheap. The
/// walk is immutable and `Sync`, so parallel sweeps share one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchWalk {
    test_name: String,
    order_name: String,
    plan: AddressPlan,
    /// The inverse of `plan`: the ⇑ position of every address.
    positions: Vec<u32>,
    elements: Vec<ElementPlan>,
    reads: u64,
    writes: u64,
    locality_safe: bool,
}

impl MarchWalk {
    /// Precomputes the traversal of `test` over `organization` under
    /// `order`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the array, if the walk has
    /// more than `u32::MAX` steps, or if the test has more than `u16::MAX`
    /// elements or an element more than `u8::MAX` operations (the kernel's
    /// schedule entries reserve 16/8 bits for them).
    pub fn new(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) -> Self {
        let plan = AddressPlan::new(order, organization);
        let capacity = organization.capacity();
        let mut positions = vec![u32::MAX; capacity as usize];
        assert!(
            plan.len() == positions.len(),
            "address order is not a permutation"
        );
        for (position, address) in plan.ascending.iter().enumerate() {
            let slot = &mut positions[address.value() as usize];
            assert_eq!(*slot, u32::MAX, "address order is not a permutation");
            *slot = position as u32;
        }
        assert!(
            test.element_count() <= usize::from(u16::MAX),
            "march test has too many elements for the walk"
        );
        // `u32` step indices hold any practical walk (a 4096×4096 March SS
        // is ~369M steps).
        assert!(
            test.total_operations(u64::from(capacity)) <= u64::from(u32::MAX),
            "walk too large for 32-bit step indices"
        );
        let mut elements = Vec::with_capacity(test.element_count());
        let mut offset = 0u32;
        // Expected value of the latest read of the walk so far.
        let mut latest_read: Option<bool> = None;
        // Locality safety: every cell runs the same operation sequence, so
        // one symbolic pass decides whether a fault-free cell can mismatch.
        // The value starts unknown (background-dependent); a read in an
        // unknown or different state could mismatch on a good memory.
        let mut cell: Option<bool> = None;
        let mut locality_safe = true;
        for element in test.elements() {
            let ops = element.ops();
            assert!(
                ops.len() <= usize::from(u8::MAX),
                "march element has too many operations for the walk"
            );
            for &op in ops {
                match op.write_value() {
                    Some(value) => cell = Some(value),
                    None => locality_safe &= cell == op.expected_value(),
                }
            }
            let last_read = ops.iter().rev().find_map(|op| op.expected_value());
            let first_read = if capacity > 1 { latest_read } else { None };
            let codes_at = |sensed: Option<bool>, last: u8| -> Vec<u8> {
                let stamp = SENSED_BEFORE * u8::from(sensed == Some(true));
                let mut codes: Vec<u8> = ops
                    .iter()
                    .map(|&op| op_code(op) | (stamp * u8::from(op.is_read())))
                    .collect();
                *codes.last_mut().expect("elements have operations") |= LAST_ON_ADDRESS | last;
                codes
            };
            // On a one-cell array the first position is also the last.
            let first_is_last = LAST_OF_ELEMENT * u8::from(capacity == 1);
            elements.push(ElementPlan {
                descending: element.direction() == AddressDirection::Descending,
                offset,
                codes: [
                    codes_at(first_read, first_is_last),
                    codes_at(last_read, 0),
                    codes_at(last_read, LAST_OF_ELEMENT),
                ],
            });
            latest_read = last_read.or(latest_read);
            offset += ops.len() as u32 * capacity;
        }
        Self {
            test_name: test.name().to_string(),
            order_name: order.name().to_string(),
            plan,
            positions,
            elements,
            reads: test.read_count() as u64 * u64::from(capacity),
            writes: test.write_count() as u64 * u64::from(capacity),
            locality_safe,
        }
    }

    /// `true` when the filtered fast path
    /// ([`run_march_walk_filtered`]) is observationally equivalent to the
    /// full walk for faults confined to their involved addresses: a
    /// fault-free cell can never mismatch under this test, for any
    /// background. `false` for malformed or deliberately non-initialising
    /// tests (e.g. one that reads before any write), whose full runs
    /// mismatch on perfectly good cells — those must run unfiltered.
    pub fn locality_safe(&self) -> bool {
        self.locality_safe
    }

    /// Number of walk steps touching each address: the test's operation
    /// count, identical for every address.
    pub fn ops_per_address(&self) -> usize {
        self.len() / self.positions.len()
    }

    /// Name of the March test the walk was built from.
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// Name of the address order the walk was built from.
    pub fn order_name(&self) -> &str {
        &self.order_name
    }

    /// Number of addressable cells of the organization the walk covers.
    pub fn capacity(&self) -> u32 {
        self.positions.len() as u32
    }

    /// Total number of operations in the walk.
    pub fn len(&self) -> usize {
        (self.reads + self.writes) as usize
    }

    /// `true` when the walk contains no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of read operations in the walk.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write operations in the walk.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The traversal as fully described [`MarchStep`]s, in execution order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = MarchStep> + '_ {
        (0..self.len() as u32).map(move |index| {
            let (element, op_index, address, code) = self.step(index);
            MarchStep {
                element,
                op_index,
                address,
                op: decode_op(code),
                last_op_on_address: code & LAST_ON_ADDRESS != 0,
                last_op_of_element: code & LAST_OF_ELEMENT != 0,
            }
        })
    }

    /// Maps a position of `element` to the ⇑ position and back.
    #[inline]
    fn mirror(&self, element: &ElementPlan, position: u32) -> u32 {
        if element.descending {
            self.capacity() - 1 - position
        } else {
            position
        }
    }

    /// The code bytes of `element`'s operations at `position`.
    #[inline]
    fn codes<'a>(&self, element: &'a ElementPlan, position: u32) -> &'a [u8] {
        match position {
            0 => &element.codes[0],
            last if last == self.capacity() - 1 => &element.codes[2],
            _ => &element.codes[1],
        }
    }

    /// The element, op index, address and code byte of step `index`.
    fn step(&self, index: u32) -> (usize, usize, Address, u8) {
        let element_index = self.elements.partition_point(|e| e.offset <= index) - 1;
        let element = &self.elements[element_index];
        let codes = &element.codes[1];
        let position = (index - element.offset) / codes.len() as u32;
        let op = ((index - element.offset) % codes.len() as u32) as usize;
        let address = self.plan.ascending[self.mirror(element, position) as usize];
        let code = self.codes(element, position)[op];
        (element_index, op, address, code)
    }

    /// Visits every step in execution order as `(element, address, code)`
    /// until `visit` returns `false`; returns `false` when it stopped early.
    /// Only the operation bits of `code` are meaningful: every address gets
    /// its element's middle-position code bytes, which keeps the loop free
    /// of per-position checks.
    #[inline]
    fn try_for_each_step(&self, mut visit: impl FnMut(usize, Address, u8) -> bool) -> bool {
        self.elements.iter().enumerate().all(|(index, element)| {
            let codes = &element.codes[1];
            let run = |&address: &Address| codes.iter().all(|&code| visit(index, address, code));
            let mut addresses = self.plan.ascending.iter();
            if element.descending {
                addresses.rev().all(run)
            } else {
                addresses.all(run)
            }
        })
    }

    /// The key of `address` for [`MarchWalk::try_for_each_step_at`]: its
    /// ⇑ position in the high half, the caller's `tag` in the low.
    #[inline]
    fn position_key(&self, address: Address, tag: u32) -> u64 {
        u64::from(self.positions[address.value() as usize]) << 32 | u64::from(tag)
    }

    /// [`MarchWalk::try_for_each_step`] restricted to the addresses of
    /// `keys` (one [`MarchWalk::position_key`] each, ascending), visiting
    /// `(index, element, tag, code)`. Each element visits the keys forwards
    /// (⇑, ⇕) or backwards (⇓), so the indices ascend without a sort.
    #[inline]
    fn try_for_each_step_at(
        &self,
        keys: &[u64],
        mut visit: impl FnMut(u32, usize, u32, u8) -> bool,
    ) -> bool {
        self.elements.iter().enumerate().all(|(index, element)| {
            let ops = element.codes[1].len() as u32;
            let mut visit_key = |&key: &u64| {
                let position = self.mirror(element, (key >> 32) as u32);
                let first = element.offset + position * ops;
                let mut codes = self.codes(element, position).iter().enumerate();
                codes.all(|(op, &code)| visit(first + op as u32, index, key as u32, code))
            };
            if element.descending {
                keys.iter().rev().all(&mut visit_key)
            } else {
                keys.iter().all(&mut visit_key)
            }
        })
    }
}

/// Enumerates every `(element, address, operation)` step of `test` over
/// `organization` under `order`, in execution order.
///
/// Convenience wrapper over [`MarchWalk::steps`]; sweeps that run many
/// faults should build the [`MarchWalk`] once instead.
pub fn march_walk(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
) -> Vec<MarchStep> {
    MarchWalk::new(test, order, organization).steps().collect()
}

/// Applies one step to `memory`, returning the mismatch of a failing read.
#[inline]
fn apply_step<M: MemoryModel + ?Sized>(
    memory: &mut M,
    element: usize,
    address: Address,
    code: u8,
) -> Option<Mismatch> {
    let value = code & VALUE_BIT != 0;
    if code & READ_BIT == 0 {
        memory.write(address, value);
        return None;
    }
    let observed = memory.read(address);
    (observed != value).then_some(Mismatch {
        element,
        address,
        expected: value,
        observed,
    })
}

/// A [`MarchResult`] carrying `walk`'s full operation totals.
fn full_walk_result(walk: &MarchWalk, mismatches: Vec<Mismatch>) -> MarchResult {
    MarchResult {
        mismatches,
        operations: walk.reads + walk.writes,
        reads: walk.reads,
        writes: walk.writes,
    }
}

/// Runs a precomputed `walk` on `memory` and reports every read mismatch.
pub fn run_march_walk<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> MarchResult {
    let mut mismatches = Vec::new();
    walk.try_for_each_step(|element, address, code| {
        if let Some(mismatch) = apply_step(memory, element, address, code) {
            mismatches.push(mismatch);
        }
        true
    });
    full_walk_result(walk, mismatches)
}

/// Runs a precomputed `walk` on `memory`, stopping at the first mismatching
/// read. Returns `true` when the walk detected a fault.
///
/// This is the sweep kernel for coverage and degree-of-freedom experiments,
/// where only the detected/missed bit matters: a detected fault typically
/// mismatches within the first elements of the test, so the early exit
/// skips most of the remaining `O(ops × cells)` work.
pub fn run_march_until_detected<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> bool {
    !walk.try_for_each_step(|element, address, code| {
        apply_step(memory, element, address, code).is_none()
    })
}

/// Builds the involved-step schedule of `involved` over `walk`: every walk
/// step index touching at least one of the addresses, ascending, each
/// index exactly once (duplicate addresses collapse).
///
/// This is the step set the per-fault fast path
/// ([`run_march_walk_filtered`], [`run_march_until_detected_filtered`])
/// executes and the lane-batched cohort kernel ([`run_march_lanes`])
/// dispatches for the merged union of a whole cohort's involved sets.
///
/// # Panics
///
/// Panics if an involved address is outside the walk's capacity.
pub fn merged_step_indices(walk: &MarchWalk, involved: &[Address]) -> Vec<u32> {
    let mut merged = Vec::with_capacity(involved.len() * walk.ops_per_address());
    try_for_each_involved_step(walk, involved, |index, _, _, _| {
        merged.push(index);
        true
    });
    merged
}

/// [`MarchWalk::try_for_each_step_at`] over an arbitrary address set
/// (duplicates allowed), visiting `(index, element, address, code)`.
/// A single address, the most common fault, needs no allocation.
fn try_for_each_involved_step(
    walk: &MarchWalk,
    involved: &[Address],
    mut visit: impl FnMut(u32, usize, Address, u8) -> bool,
) -> bool {
    let key = |address: &Address| walk.position_key(*address, address.value());
    let (single, mut many);
    let keys: &[u64] = if let [address] = involved {
        single = [key(address)];
        &single
    } else {
        many = involved.iter().map(key).collect::<Vec<u64>>();
        many.sort_unstable();
        many.dedup();
        &many
    };
    walk.try_for_each_step_at(keys, |index, element, address, code| {
        visit(index, element, Address::new(address), code)
    })
}

/// Per-lane outcome of a batched cohort run ([`run_march_lane_masks`],
/// [`run_march_lanes`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaneDetection {
    /// Whether at least one read mismatched in this lane.
    pub detected: bool,
    /// Number of mismatching reads observed in this lane (capped at `1`
    /// under [`DetectionMode::FirstMismatch`]).
    pub mismatches: usize,
    /// The first mismatching read of this lane, when any — identical to
    /// the first entry of the serial per-fault [`MarchResult::mismatches`]
    /// list for the same fault.
    pub first_mismatch: Option<Mismatch>,
}

/// Largest number of distinct addresses one lane cohort may involve: the
/// packed schedule entry of both cohort kernels keeps the union slot in
/// eight bits. [`crate::batch::FaultBatch`] closes cohorts before their
/// summed involved sets can exceed this, so the limit only binds custom
/// callers assembling cohorts by hand (today's fault models involve at
/// most two addresses each — 64 lanes stay well under half the budget).
pub const COHORT_ADDRESS_BUDGET: usize = 256;

#[inline]
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LaneMemory::LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Runs up to sixty-four faults through one walk scan, one bit lane each,
/// dispatching every owner lane's [`LaneFault`] form per step — the
/// per-owner cohort kernel.
///
/// No sweep runs this kernel: cohorts of the crate's own models
/// (`[LaneFaultKind]`) run the word-parallel [`run_march_lane_masks`],
/// and this kernel over the same models' per-lane [`LaneFault`] specs is
/// the independent reference the masked kernel is tested against.
///
/// Each element of `lanes` owns the bit lane of its position in the slice:
/// a sparse [`LaneMemory`] over the cohort's merged involved addresses is
/// filled to `background`, the merged involved-step schedule (the same
/// steps [`merged_step_indices`] lists, computed here with pre-resolved
/// union slots) is dispatched once, and at every step the
/// lanes whose fault involves the step's address run their faulty form
/// while all remaining lanes take the fault-free whole-word `u64`
/// operation. Read steps compare all lanes at once: the observed word is
/// XORed against the splatted expected value and the resulting mismatch
/// mask updates per-lane detection state; under
/// [`DetectionMode::FirstMismatch`] the scan stops as soon as the
/// undetected-lane mask has zero bits left.
///
/// Per lane, the outcome (detected/escaped, mismatch count, first
/// mismatching read) is identical to running that fault alone through the
/// serial per-fault path: lanes are fully independent universes, and in a
/// locality-safe walk the steps outside a fault's involved set can neither
/// mismatch nor influence its cells.
///
/// # Panics
///
/// Panics if `lanes` is empty or longer than [`LaneMemory::LANES`], if
/// `walk` is not [`MarchWalk::locality_safe`] (such walks must run the
/// unfiltered per-fault path), if a lane involves no addresses, or if
/// the cohort's union spans more than [`COHORT_ADDRESS_BUDGET`] distinct
/// addresses.
pub fn run_march_lanes<L: LaneFault>(
    walk: &MarchWalk,
    lanes: &mut [L],
    background: bool,
    mode: DetectionMode,
) -> Vec<LaneDetection> {
    let mut scratch = LaneScratch::new();
    run_march_lanes_scratch(walk, lanes, background, mode, &mut scratch);
    scratch.results
}

/// Reusable dispatch buffers of the cohort kernels.
///
/// One cohort dispatch needs half a dozen transient arrays — the gathered
/// involved sets, the sorted union, per-slot ownership masks (or the
/// lowered cohort and its word array), the union in walk-position order,
/// the sparse [`LaneMemory`], the packed step schedule and the per-lane
/// results. Allocating them per cohort is pure overhead once a sweep runs
/// tens of thousands of cohorts, so [`run_march_lane_masks`] and
/// [`run_march_lanes_scratch`] take them from this scratch instead: every
/// buffer is cleared and regrown in place, and a scratch reused across
/// cohorts only allocates when a cohort is larger than any before it.
/// Sweeps keep one `LaneScratch` per worker inside the pool's
/// [`WorkerScratch`](crate::parallel::WorkerScratch).
///
/// A `LaneScratch` carries no cohort state between runs — reusing one is
/// observationally identical to constructing a fresh one per call (the
/// one-shot [`run_march_lanes`] does exactly that).
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// Flat gather of all lanes' involved addresses; lane `l` owns
    /// `involved[involved_ends[l - 1]..involved_ends[l]]` (from `0` for
    /// the first lane).
    involved: Vec<Address>,
    /// Per-lane end offsets into `involved`.
    involved_ends: Vec<u32>,
    /// The cohort's sorted, deduplicated involved-address union.
    union: Vec<Address>,
    /// Per-union-slot mask of the lanes whose fault involves the address.
    owned_masks: Vec<u64>,
    /// The union's walk position keys (⇑ position | slot), ascending.
    by_position: Vec<u64>,
    /// The sparse lane store, retargeted per cohort via
    /// [`LaneMemory::reset_sorted`]. `None` until the first run.
    memory: Option<LaneMemory>,
    /// Packed dispatch schedule, one `u32` per step in execution order:
    /// element (bits 16–31) | union slot (bits 8–15) | code byte (0–7).
    schedule: Vec<u32>,
    /// The enum cohort lowered to per-slot masks
    /// ([`run_march_lane_masks`]).
    lowered: LoweredCohort,
    /// One word per union slot of a lowered cohort; bit `l` is lane `l`.
    words: Vec<u64>,
    /// Per-lane outcomes of the most recent run.
    results: Vec<LaneDetection>,
}

impl LaneScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-lane outcomes of the most recent cohort run through this
    /// scratch (empty before the first).
    pub fn results(&self) -> &[LaneDetection] {
        &self.results
    }
}

/// [`run_march_lanes`] with caller-owned dispatch buffers: identical
/// algorithm, identical per-lane outcomes, but every transient array
/// lives in `scratch` so consecutive cohorts on one worker reuse their
/// allocations. Returns the per-lane detections as a borrow of
/// `scratch` (also available as [`LaneScratch::results`] until the next
/// run).
///
/// # Panics
///
/// Exactly as [`run_march_lanes`].
pub fn run_march_lanes_scratch<'s, L: LaneFault>(
    walk: &MarchWalk,
    lanes: &mut [L],
    background: bool,
    mode: DetectionMode,
    scratch: &'s mut LaneScratch,
) -> &'s [LaneDetection] {
    assert!(
        !lanes.is_empty() && lanes.len() <= LaneMemory::LANES,
        "a cohort holds 1..=64 lanes"
    );
    assert!(
        walk.locality_safe(),
        "lane batching requires a locality-safe walk"
    );
    scratch.involved.clear();
    scratch.involved_ends.clear();
    for lane in lanes.iter() {
        lane.involved_into(&mut scratch.involved);
        scratch.involved_ends.push(scratch.involved.len() as u32);
    }
    scratch.union.clear();
    scratch.union.extend_from_slice(&scratch.involved);
    scratch.union.sort_unstable();
    scratch.union.dedup();
    let union = &scratch.union;
    assert!(
        union.len() <= COHORT_ADDRESS_BUDGET,
        "a cohort may involve at most {COHORT_ADDRESS_BUDGET} distinct addresses \
         (the planner enforces this for its own plans)"
    );
    // Owner masks, aligned with the sorted union: which lanes' faults
    // involve each address. The whole-word ops skip these lanes and the
    // per-lane faulty dispatch iterates them straight off the mask bits.
    scratch.owned_masks.clear();
    scratch.owned_masks.resize(union.len(), 0);
    let mut start = 0usize;
    for (lane, &end) in scratch.involved_ends.iter().enumerate() {
        let addresses = &scratch.involved[start..end as usize];
        start = end as usize;
        assert!(
            !addresses.is_empty(),
            "lane {lane} fault involves no addresses"
        );
        for address in addresses {
            let slot = union
                .binary_search(address)
                .expect("union covers all lanes");
            scratch.owned_masks[slot] |= 1u64 << lane;
        }
    }
    match &mut scratch.memory {
        Some(memory) => memory.reset_sorted(walk.capacity(), union),
        slot @ None => *slot = Some(LaneMemory::from_sorted(walk.capacity(), union)),
    }
    let memory = scratch.memory.as_mut().expect("just initialised");
    memory.fill(background);
    cohort_schedule(walk, union, &mut scratch.by_position, &mut scratch.schedule);
    let mut tally = LaneTally::start(lanes.len(), &mut scratch.results);
    for &entry in &scratch.schedule {
        let code = entry as u8;
        let slot = (entry >> 8) as u8 as usize;
        let address = union[slot];
        if code & READ_BIT == 0 {
            let value = code & VALUE_BIT != 0;
            let mut owners = scratch.owned_masks[slot];
            while owners != 0 {
                let lane = owners.trailing_zeros();
                lanes[lane as usize].lane_write(memory, lane, address, value);
                owners &= owners - 1;
            }
            memory.write_word_at(slot, value, scratch.owned_masks[slot]);
        } else {
            let sensed_before = code & SENSED_BEFORE != 0;
            let mut observed = memory.word_at(slot);
            let mut owners = scratch.owned_masks[slot];
            while owners != 0 {
                let lane = owners.trailing_zeros();
                let bit = lanes[lane as usize].lane_read(memory, lane, address, sensed_before);
                observed = (observed & !(1u64 << lane)) | (u64::from(bit) << lane);
                owners &= owners - 1;
            }
            if !tally.read(&mut scratch.results, entry, address, observed, mode) {
                break;
            }
        }
    }
    tally.finish(&mut scratch.results, mode);
    &scratch.results
}

/// Fills `schedule` with the cohort's dispatch schedule: every walk step
/// touching an address of `union`, in execution order, packed as element
/// (bits 16–31) | union slot (bits 8–15) | code byte (bits 0–7).
/// Ordering the union by walk position (at most
/// [`COHORT_ADDRESS_BUDGET`] keys, in `by_position`) is the only sort.
fn cohort_schedule(
    walk: &MarchWalk,
    union: &[Address],
    by_position: &mut Vec<u64>,
    schedule: &mut Vec<u32>,
) {
    by_position.clear();
    by_position.extend(
        union
            .iter()
            .enumerate()
            .map(|(slot, &address)| walk.position_key(address, slot as u32)),
    );
    by_position.sort_unstable();
    schedule.clear();
    schedule.reserve(union.len() * walk.ops_per_address());
    walk.try_for_each_step_at(by_position, |_, element, slot, code| {
        schedule.push((element as u32) << 16 | slot << 8 | u32::from(code));
        true
    });
}

/// Lane-wise detection state of one cohort run, shared by both cohort
/// kernels.
struct LaneTally {
    /// One bit per lane of the cohort.
    active: u64,
    /// Lanes with at least one mismatching read so far.
    detected: u64,
}

impl LaneTally {
    /// Resets `results` to one default entry per lane.
    fn start(lanes: usize, results: &mut Vec<LaneDetection>) -> Self {
        results.clear();
        results.resize(lanes, LaneDetection::default());
        Self {
            active: lane_mask(lanes),
            detected: 0,
        }
    }

    /// Compares all lanes' `observed` values of the read scheduled as
    /// `entry` at `address` against its expectation at once. Returns
    /// `false` when the scan may stop: under
    /// [`DetectionMode::FirstMismatch`], once every lane is detected.
    #[inline]
    fn read(
        &mut self,
        results: &mut [LaneDetection],
        entry: u32,
        address: Address,
        observed: u64,
        mode: DetectionMode,
    ) -> bool {
        let expected = entry & u32::from(VALUE_BIT) != 0;
        let miss = (observed ^ splat(expected)) & self.active;
        if miss == 0 {
            return true;
        }
        let mut fresh = miss & !self.detected;
        while fresh != 0 {
            let lane = fresh.trailing_zeros() as usize;
            results[lane].first_mismatch = Some(Mismatch {
                element: (entry >> 16) as usize,
                address,
                expected,
                observed: observed >> lane & 1 == 1,
            });
            fresh &= fresh - 1;
        }
        self.detected |= miss;
        match mode {
            DetectionMode::Full => {
                let mut each = miss;
                while each != 0 {
                    results[each.trailing_zeros() as usize].mismatches += 1;
                    each &= each - 1;
                }
                true
            }
            DetectionMode::FirstMismatch => self.active & !self.detected != 0,
        }
    }

    /// Writes the detected flags (and, under
    /// [`DetectionMode::FirstMismatch`], the capped counts) into `results`.
    fn finish(self, results: &mut [LaneDetection], mode: DetectionMode) {
        for (lane, result) in results.iter_mut().enumerate() {
            result.detected = self.detected >> lane & 1 == 1;
            if mode == DetectionMode::FirstMismatch {
                result.mismatches = usize::from(result.detected);
            }
        }
    }
}

/// Runs up to sixty-four of the crate's own faults through one walk scan,
/// one bit lane each — the word-parallel kernel every enum cohort of the
/// lane-batched sweep runs.
///
/// The cohort is first lowered, each model by the `lower` method next to
/// its per-lane spec in [`crate::faults`]: a single-cell fault sets its
/// lane bit in the masks of its cell's union slot, and a two-cell fault
/// adds a small op holding its partner cell's slot. Every step of the
/// cohort's schedule (the same steps [`merged_step_indices`] lists) then
/// runs as a handful of `u64` operations on one word per union slot — no
/// per-lane match and no address lookup. A write stores the written value
/// in the passing lanes, the old value in the keeping lanes and the old
/// value's complement in the write-disturb lanes, then runs the slot's
/// ops; a read runs the slot's ops, forces the stuck lanes, and compares
/// all lanes' observed bits against the expectation at once.
///
/// Per lane, the outcome is identical to [`run_march_lanes`] (the
/// per-owner reference over the same models' [`LaneFault`] specs) and to
/// the serial per-fault path.
///
/// Takes its buffers from `scratch`, exactly like
/// [`run_march_lanes_scratch`], and returns the per-lane detections as a
/// borrow of it.
///
/// # Panics
///
/// Panics if `lanes` is empty or longer than [`LaneMemory::LANES`], if
/// `walk` is not [`MarchWalk::locality_safe`], or if the cohort's union
/// spans more than [`COHORT_ADDRESS_BUDGET`] distinct addresses.
pub fn run_march_lane_masks<'s>(
    walk: &MarchWalk,
    lanes: &[LaneFaultKind],
    background: bool,
    mode: DetectionMode,
    scratch: &'s mut LaneScratch,
) -> &'s [LaneDetection] {
    assert!(
        !lanes.is_empty() && lanes.len() <= LaneMemory::LANES,
        "a cohort holds 1..=64 lanes"
    );
    assert!(
        walk.locality_safe(),
        "lane batching requires a locality-safe walk"
    );
    let LaneScratch {
        by_position,
        schedule,
        lowered,
        words,
        results,
        ..
    } = scratch;
    lowered.lower(lanes);
    let union = lowered.union();
    cohort_schedule(walk, union, by_position, schedule);
    words.clear();
    words.resize(union.len(), splat(background));
    let mut tally = LaneTally::start(lanes.len(), results);
    for &entry in schedule.iter() {
        let code = entry as u8;
        let slot = (entry >> 8) as u8 as usize;
        if code & READ_BIT == 0 {
            lowered.write(words, slot, code & VALUE_BIT != 0);
        } else {
            let observed = lowered.read(words, slot, code & SENSED_BEFORE != 0);
            if !tally.read(results, entry, union[slot], observed, mode) {
                break;
            }
        }
    }
    tally.finish(results, mode);
    results
}

/// Runs only the steps of `walk` that touch one of the `involved`
/// addresses, reporting every read mismatch among them.
///
/// This is the locality fast path of the kernel: a fault whose behaviour
/// is confined to a few cells (see
/// [`crate::faults::Fault::involved_addresses`]) is observationally
/// equivalent under the full walk and under its filtered slice — skipped
/// cells behave fault-free, and a March read of a fault-free cell always
/// matches its expectation. Instead of `O(ops × cells)` the simulation
/// costs `O(ops × involved)`.
///
/// The returned operation/read/write totals are those of the **full**
/// walk, so the result is directly comparable (and equal, for a fault
/// confined to `involved`) to [`run_march_walk`] on the same memory.
pub fn run_march_walk_filtered<M: MemoryModel + ?Sized>(
    walk: &MarchWalk,
    memory: &mut M,
    involved: &[Address],
) -> MarchResult {
    let mut mismatches = Vec::new();
    try_for_each_involved_step(walk, involved, |_, element, address, code| {
        if let Some(mismatch) = apply_step(memory, element, address, code) {
            mismatches.push(mismatch);
        }
        true
    });
    full_walk_result(walk, mismatches)
}

/// Early-exit variant of [`run_march_walk_filtered`]: runs only the steps
/// touching `involved` addresses and returns `true` at the first
/// mismatching read.
pub fn run_march_until_detected_filtered<M: MemoryModel + ?Sized>(
    walk: &MarchWalk,
    memory: &mut M,
    involved: &[Address],
) -> bool {
    !try_for_each_involved_step(walk, involved, |_, element, address, code| {
        apply_step(memory, element, address, code).is_none()
    })
}

/// Runs `test` on `memory` and reports every read mismatch.
///
/// Builds a throw-away [`MarchWalk`] internally; callers that simulate
/// many faults under the same `(test, order, organization)` should build
/// the walk once and call [`run_march_walk`].
pub fn run_march(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    memory: &mut dyn MemoryModel,
) -> MarchResult {
    let walk = MarchWalk::new(test, order, organization);
    run_march_walk(&walk, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::{ColumnMajor, PseudoRandomOrder, WordLineAfterWordLine};
    use crate::element::MarchElement;
    use crate::faults::{standard_fault_list, FaultyMemory};
    use crate::library;
    use crate::memory::GoodMemory;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    #[test]
    fn fault_free_memory_passes_every_library_test() {
        let organization = org();
        for test in library::all_algorithms() {
            let mut memory = GoodMemory::new(organization.capacity());
            let result = run_march(&test, &WordLineAfterWordLine, &organization, &mut memory);
            assert!(result.passed(), "{} failed on a good memory", test.name());
            assert_eq!(
                result.operations,
                test.total_operations(u64::from(organization.capacity()))
            );
            assert_eq!(
                result.reads + result.writes,
                result.operations,
                "{}: reads + writes must equal operations",
                test.name()
            );
        }
    }

    #[test]
    fn coverage_independent_of_order_for_good_memory() {
        let organization = org();
        let test = library::march_c_minus();
        let mut m1 = GoodMemory::new(organization.capacity());
        let mut m2 = GoodMemory::new(organization.capacity());
        let r1 = run_march(&test, &WordLineAfterWordLine, &organization, &mut m1);
        let r2 = run_march(&test, &ColumnMajor, &organization, &mut m2);
        assert!(r1.passed() && r2.passed());
    }

    #[test]
    fn stuck_cell_is_detected() {
        // A crude inline stuck-at-0: a memory whose cell 5 never stores 1.
        struct StuckAt0(GoodMemory);
        impl MemoryModel for StuckAt0 {
            fn capacity(&self) -> u32 {
                self.0.capacity()
            }
            fn read(&mut self, address: Address) -> bool {
                self.0.read(address)
            }
            fn write(&mut self, address: Address, value: bool) {
                if address.value() == 5 {
                    self.0.write(address, false);
                } else {
                    self.0.write(address, value);
                }
            }
        }
        let organization = org();
        let mut memory = StuckAt0(GoodMemory::new(organization.capacity()));
        let result = run_march(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
            &mut memory,
        );
        assert!(result.detected_fault());
        assert!(result
            .mismatches
            .iter()
            .all(|m| m.address == Address::new(5)));
    }

    #[test]
    fn walk_enumerates_every_operation_in_order() {
        let organization = org();
        let test = library::mats_plus();
        let steps = march_walk(&test, &WordLineAfterWordLine, &organization);
        assert_eq!(
            steps.len(),
            test.operation_count() * organization.capacity() as usize
        );
        // First element is ⇕(w0): one op per address, each both last-on-
        // address; the final one is also last-of-element.
        assert!(steps[0].last_op_on_address);
        assert!(!steps[0].last_op_of_element);
        let first_element_steps = organization.capacity() as usize;
        assert!(steps[first_element_steps - 1].last_op_of_element);
        // Second element ⇑(r0,w1): alternating last_op_on_address.
        let s = &steps[first_element_steps];
        assert_eq!(s.element, 1);
        assert_eq!(s.op, MarchOp::R0);
        assert!(!s.last_op_on_address);
        assert!(steps[first_element_steps + 1].last_op_on_address);
        // Descending element ends on address 0.
        let last = steps.last().unwrap();
        assert_eq!(last.element, 2);
        assert_eq!(last.address, Address::new(0));
        assert!(last.last_op_of_element);
    }

    #[test]
    fn address_plan_serves_both_directions_from_one_permutation() {
        let organization = ArrayOrganization::new(4, 8).unwrap();
        let order = PseudoRandomOrder::new(99);
        let plan = AddressPlan::new(&order, &organization);
        assert_eq!(plan.len(), 32);
        assert!(!plan.is_empty());
        let up: Vec<Address> = plan.iter(AddressDirection::Ascending).collect();
        let either: Vec<Address> = plan.iter(AddressDirection::Either).collect();
        let mut down: Vec<Address> = plan.iter(AddressDirection::Descending).collect();
        assert_eq!(up, order.ascending(&organization));
        assert_eq!(up, either);
        down.reverse();
        assert_eq!(up, down, "⇓ must be the exact reverse of ⇑");
        assert_eq!(plan.at(AddressDirection::Ascending, 32), None);
        assert_eq!(plan.at(AddressDirection::Descending, 32), None);
    }

    #[test]
    fn walk_based_run_equals_legacy_signature_run() {
        let organization = org();
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
            assert_eq!(walk.test_name(), test.name());
            assert_eq!(walk.order_name(), "column major");
            assert_eq!(walk.capacity(), organization.capacity());
            assert_eq!(
                walk.len() as u64,
                test.total_operations(u64::from(organization.capacity()))
            );
            let mut m1 = GoodMemory::new(organization.capacity());
            let mut m2 = GoodMemory::new(organization.capacity());
            let from_walk = run_march_walk(&walk, &mut m1);
            let from_legacy = run_march(&test, &ColumnMajor, &organization, &mut m2);
            assert_eq!(from_walk, from_legacy, "{}", test.name());
        }
    }

    #[test]
    fn early_exit_agrees_with_the_full_run_on_every_standard_fault() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for factory in &faults {
                let mut full =
                    FaultyMemory::new(GoodMemory::new(organization.capacity()), factory());
                let mut early =
                    FaultyMemory::new(GoodMemory::new(organization.capacity()), factory());
                let full_result = run_march_walk(&walk, &mut full);
                let early_detected = run_march_until_detected(&walk, &mut early);
                assert_eq!(
                    full_result.detected_fault(),
                    early_detected,
                    "{} / {}",
                    test.name(),
                    factory().name()
                );
            }
        }
    }

    #[test]
    fn filtered_run_is_observationally_equivalent_to_the_full_walk() {
        // The locality fast path must agree with the unfiltered kernel on
        // the complete mismatch list — not just the detection bit — for
        // every localised fault, algorithm, order and background.
        for organization in [
            ArrayOrganization::new(4, 4).unwrap(),
            ArrayOrganization::new(3, 7).unwrap(),
        ] {
            let faults = standard_fault_list(&organization);
            for test in library::all_algorithms() {
                for order in [
                    &WordLineAfterWordLine as &dyn crate::address_order::AddressOrder,
                    &ColumnMajor,
                ] {
                    let walk = MarchWalk::new(&test, order, &organization);
                    for factory in &faults {
                        let Some(involved) = factory().involved_addresses() else {
                            continue; // global faults have no filtered path
                        };
                        for background in [false, true] {
                            let mut full_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                factory(),
                            );
                            let mut filtered_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                factory(),
                            );
                            let full = run_march_walk(&walk, &mut full_memory);
                            let filtered =
                                run_march_walk_filtered(&walk, &mut filtered_memory, &involved);
                            assert_eq!(
                                full,
                                filtered,
                                "{} / {} / {} / background {background}",
                                test.name(),
                                order.name(),
                                factory().name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_address_steps_partition_the_walk() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        let steps: Vec<MarchStep> = walk.steps().collect();
        let mut seen: Vec<u32> = Vec::new();
        for raw in 0..organization.capacity() {
            let indices = merged_step_indices(&walk, &[Address::new(raw)]);
            assert_eq!(indices.len(), test.operation_count());
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "ascending order");
            assert!(indices
                .iter()
                .all(|&index| steps[index as usize].address == Address::new(raw)));
            seen.extend(indices);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..walk.len() as u32).collect::<Vec<u32>>(),
            "every step belongs to exactly one cell"
        );
    }

    #[test]
    fn merged_step_indices_is_the_shared_involved_step_schedule() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        assert!(merged_step_indices(&walk, &[]).is_empty());
        // One address: the test's operation count, ascending, each step
        // touching that address.
        let single = merged_step_indices(&walk, &[Address::new(5)]);
        assert_eq!(single.len(), walk.ops_per_address());
        assert_eq!(walk.ops_per_address(), test.operation_count());
        assert!(single.windows(2).all(|w| w[0] < w[1]));
        let steps: Vec<MarchStep> = walk.steps().collect();
        assert!(single
            .iter()
            .all(|&index| steps[index as usize].address == Address::new(5)));
        // Several addresses (duplicates included): ascending, deduplicated
        // union of the single-address schedules.
        let involved = [Address::new(5), Address::new(2), Address::new(5)];
        let merged = merged_step_indices(&walk, &involved);
        let mut expected = merged_step_indices(&walk, &[Address::new(2)]);
        expected.extend(single);
        expected.sort_unstable();
        assert_eq!(merged, expected);
        // The whole array merges back into every step exactly once.
        let all: Vec<Address> = (0..organization.capacity()).map(Address::new).collect();
        let complete = merged_step_indices(&walk, &all);
        assert_eq!(complete, (0..walk.len() as u32).collect::<Vec<u32>>());
    }

    /// The sensed-before stamp of every step, in execution order (`None`
    /// for writes).
    fn sensed_stamps(walk: &MarchWalk) -> Vec<Option<bool>> {
        (0..walk.len() as u32)
            .map(|index| {
                let code = walk.step(index).3;
                (code & READ_BIT != 0).then_some(code & SENSED_BEFORE != 0)
            })
            .collect()
    }

    #[test]
    fn sensed_before_stamp_tracks_the_latest_distinct_read() {
        // One cell-pair walk with back-to-back reads: ⇑(w0); ⇑(r0,r0,w1,r1)
        // over two cells. The stamp of a read must be the expected value of
        // the latest earlier read at a *different* address (0 when none) —
        // exactly the bit-line history a stuck-open victim observes.
        let organization = ArrayOrganization::new(1, 2).unwrap();
        let walk = MarchWalk::new(&back_to_back_reads(), &WordLineAfterWordLine, &organization);
        assert_eq!(
            sensed_stamps(&walk),
            vec![
                None,        // w0 @0
                None,        // w0 @1
                Some(false), // r0 @0 — no earlier read at all
                Some(false), // r0 @0 — earlier reads only at @0 itself
                None,        // w1 @0
                Some(false), // r1 @0 — still no read at a different address
                Some(true),  // r0 @1 — latest distinct read is r1 @0, expecting 1
                Some(true),  // r0 @1 — @1's own reads don't refresh the history
                None,        // w1 @1
                Some(true),  // r1 @1 — latest distinct read is still r1 @0
            ],
            "sensed-before stamps"
        );
    }

    fn back_to_back_reads() -> MarchTest {
        MarchTest::new(
            "rr",
            vec![
                MarchElement::ascending(vec![MarchOp::W0]),
                MarchElement::ascending(vec![MarchOp::R0, MarchOp::R0, MarchOp::W1, MarchOp::R1]),
            ],
        )
    }

    /// Hand-built tests for the closed form's edge cases.
    fn edge_tests() -> Vec<MarchTest> {
        vec![
            back_to_back_reads(),
            // A ⇓ element followed by a ⇑ one, and back: consecutive
            // elements start on the address the previous one ended on.
            MarchTest::new(
                "down-up",
                vec![
                    MarchElement::ascending(vec![MarchOp::W1]),
                    MarchElement::descending(vec![MarchOp::R1, MarchOp::W0]),
                    MarchElement::ascending(vec![MarchOp::R0, MarchOp::W1, MarchOp::R1]),
                    MarchElement::descending(vec![MarchOp::R1]),
                ],
            ),
            // Elements without reads between reading ones, and a walk
            // ending in writes.
            MarchTest::new(
                "read-free",
                vec![
                    MarchElement::either(vec![MarchOp::W0]),
                    MarchElement::descending(vec![MarchOp::W1, MarchOp::W0]),
                    MarchElement::ascending(vec![MarchOp::R0, MarchOp::W1, MarchOp::R1]),
                    MarchElement::descending(vec![MarchOp::W0]),
                    MarchElement::ascending(vec![MarchOp::W1]),
                    MarchElement::descending(vec![MarchOp::R1, MarchOp::R1]),
                    MarchElement::either(vec![MarchOp::W0, MarchOp::W1]),
                ],
            ),
            // A read before any write: not locality safe.
            MarchTest::new(
                "reads-first",
                vec![
                    MarchElement::ascending(vec![MarchOp::R0, MarchOp::W1]),
                    MarchElement::descending(vec![MarchOp::R1]),
                ],
            ),
            // No reads at all.
            MarchTest::new(
                "writes-only",
                vec![
                    MarchElement::ascending(vec![MarchOp::W0, MarchOp::W1]),
                    MarchElement::descending(vec![MarchOp::W0]),
                ],
            ),
        ]
    }

    /// The materializing walk builder the closed form replaced, kept as
    /// the reference: one entry per operation per cell, the
    /// sensed-before stamp from a stateful scan of the whole walk, and a
    /// per-address bucketing of `(index, element, op index, code)`.
    struct Materialized {
        steps: Vec<(MarchStep, u8)>,
        by_address: Vec<Vec<(u32, usize, usize, u8)>>,
        reads: u64,
        writes: u64,
    }

    fn materialize(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) -> Materialized {
        let plan = AddressPlan::new(order, organization);
        let mut steps = Vec::new();
        let (mut reads, mut writes) = (0u64, 0u64);
        // The most recent read (address, expected value) and the expected
        // value of the most recent read at a different address than it.
        let mut last_read: Option<(Address, bool)> = None;
        let mut prior_distinct = false;
        for (element_index, element) in test.elements().iter().enumerate() {
            let ops = element.ops();
            for (position, address) in plan.iter(element.direction()).enumerate() {
                for (op_index, &op) in ops.iter().enumerate() {
                    let mut code = op_code(op);
                    if let Some(expected) = op.expected_value() {
                        reads += 1;
                        let sensed = match last_read {
                            Some((last, _)) if last == address => prior_distinct,
                            Some((_, value)) => value,
                            None => false,
                        };
                        if sensed {
                            code |= SENSED_BEFORE;
                        }
                        if let Some((last, value)) = last_read {
                            if last != address {
                                prior_distinct = value;
                            }
                        }
                        last_read = Some((address, expected));
                    } else {
                        writes += 1;
                    }
                    let last_op_on_address = op_index == ops.len() - 1;
                    let last_op_of_element = last_op_on_address && position == plan.len() - 1;
                    if last_op_on_address {
                        code |= LAST_ON_ADDRESS;
                    }
                    if last_op_of_element {
                        code |= LAST_OF_ELEMENT;
                    }
                    let step = MarchStep {
                        element: element_index,
                        op_index,
                        address,
                        op,
                        last_op_on_address,
                        last_op_of_element,
                    };
                    steps.push((step, code));
                }
            }
        }
        let mut by_address = vec![Vec::new(); organization.capacity() as usize];
        for (index, (step, code)) in steps.iter().enumerate() {
            by_address[step.address.value() as usize].push((
                index as u32,
                step.element,
                step.op_index,
                *code,
            ));
        }
        Materialized {
            steps,
            by_address,
            reads,
            writes,
        }
    }

    /// A memory that records every access as `(address, written value or
    /// None for a read)`, reading back the stored value.
    struct Recorder {
        cells: Vec<bool>,
        log: Vec<(Address, Option<bool>)>,
    }

    impl MemoryModel for Recorder {
        fn capacity(&self) -> u32 {
            self.cells.len() as u32
        }
        fn read(&mut self, address: Address) -> bool {
            self.log.push((address, None));
            self.cells[address.value() as usize]
        }
        fn write(&mut self, address: Address, value: bool) {
            self.log.push((address, Some(value)));
            self.cells[address.value() as usize] = value;
        }
    }

    fn assert_matches_oracle(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) {
        let context = format!("{} / {} / {organization:?}", test.name(), order.name());
        let walk = MarchWalk::new(test, order, organization);
        let oracle = materialize(test, order, organization);
        assert_eq!(walk.len(), oracle.steps.len(), "{context}: len");
        assert_eq!(walk.reads(), oracle.reads, "{context}: reads");
        assert_eq!(walk.writes(), oracle.writes, "{context}: writes");
        // Locality safety, replayed symbolically over the materialized
        // steps: every read finds its expected value last written there.
        let mut cells = vec![None; organization.capacity() as usize];
        let locality_safe = oracle.steps.iter().all(|(step, _)| {
            let cell = &mut cells[step.address.value() as usize];
            match step.op.write_value() {
                Some(value) => {
                    *cell = Some(value);
                    true
                }
                None => *cell == step.op.expected_value(),
            }
        });
        assert_eq!(walk.locality_safe(), locality_safe, "{context}: locality");
        assert!(
            walk.steps()
                .zip(&oracle.steps)
                .all(|(step, (expected, _))| step == *expected),
            "{context}: steps()"
        );
        // The per-step codes, sensed-before stamps included.
        assert!(
            (0..walk.len() as u32)
                .all(|index| walk.step(index).3 == oracle.steps[index as usize].1),
            "{context}: step codes"
        );
        // The full-walk runner visits the same accesses in the same order.
        let mut recorder = Recorder {
            cells: vec![false; organization.capacity() as usize],
            log: Vec::new(),
        };
        run_march_walk(&walk, &mut recorder);
        let expected_log: Vec<(Address, Option<bool>)> = oracle
            .steps
            .iter()
            .map(|(step, _)| (step.address, step.op.write_value()))
            .collect();
        assert_eq!(
            recorder.log, expected_log,
            "{context}: run_march_walk order"
        );
        // Per address: the ascending index list and the payload of every
        // step, through the position-keyed visitor the cohort kernel uses.
        for (raw, expected) in oracle.by_address.iter().enumerate() {
            let address = Address::new(raw as u32);
            let mut visited = Vec::new();
            walk.try_for_each_step_at(
                &[walk.position_key(address, 7)],
                |index, element, tag, code| {
                    assert_eq!(tag, 7);
                    let (_, op_index, at, _) = walk.step(index);
                    assert_eq!(at, address, "{context}: step {index} address");
                    visited.push((index, element, op_index, code));
                    true
                },
            );
            assert_eq!(&visited, expected, "{context}: address {raw}");
            let indices: Vec<u32> = expected.iter().map(|entry| entry.0).collect();
            assert_eq!(
                merged_step_indices(&walk, &[address]),
                indices,
                "{context}: address {raw}"
            );
        }
        // Several addresses, unsorted: the ascending union of their steps.
        let subset: Vec<Address> = (0..organization.capacity())
            .rev()
            .filter(|raw| raw % 3 != 1)
            .map(Address::new)
            .collect();
        let mut union: Vec<u32> = subset
            .iter()
            .flat_map(|address| oracle.by_address[address.value() as usize].iter())
            .map(|entry| entry.0)
            .collect();
        union.sort_unstable();
        assert_eq!(
            merged_step_indices(&walk, &subset),
            union,
            "{context}: union"
        );
    }

    #[test]
    fn closed_form_walk_equals_the_materialized_oracle() {
        let shapes = [(1, 1), (1, 2), (2, 1), (3, 7), (4, 4), (64, 64)];
        let mut tests = library::all_algorithms();
        tests.extend(edge_tests());
        for (rows, cols) in shapes {
            let organization = ArrayOrganization::new(rows, cols).unwrap();
            let mut orders: Vec<Box<dyn AddressOrder>> =
                vec![Box::new(WordLineAfterWordLine), Box::new(ColumnMajor)];
            orders.extend(
                [1, 7, 0xDEAD_BEEF]
                    .map(|seed| Box::new(PseudoRandomOrder::new(seed)) as Box<dyn AddressOrder>),
            );
            for test in &tests {
                for order in &orders {
                    assert_matches_oracle(test, order.as_ref(), &organization);
                }
            }
        }
    }

    #[test]
    fn closed_form_visits_the_shared_boundary_address_of_a_direction_change() {
        // ⇑ then ⇓ then ⇑: each element starts on the cell the previous
        // one ended on, so the first read of the new element must stamp
        // the previous element's last read (seen at its second-to-last
        // cell), not its own cell's history.
        let organization = ArrayOrganization::new(1, 3).unwrap();
        let test = &edge_tests()[1];
        let walk = MarchWalk::new(test, &WordLineAfterWordLine, &organization);
        let addresses: Vec<u32> = walk.steps().map(|step| step.address.value()).collect();
        assert_eq!(
            addresses,
            vec![0, 1, 2, 2, 2, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 1, 0]
        );
        let stamps = sensed_stamps(&walk);
        // ⇓(r1,w0) at @2: latest distinct read — none yet.
        assert_eq!(stamps[3], Some(false));
        // ⇓(r1,w0) at @0: the latest read elsewhere is r1 @1.
        assert_eq!(stamps[7], Some(true));
        // ⇑(r0,w1,r1) at @0, where the ⇓ element ended: its own r1 @0 is
        // skipped, r1 @1 before it counts.
        assert_eq!(stamps[9], Some(true));
        // ⇓(r1) at @2: the ⇑ element ended with r1 at @2 itself, but r1 @1
        // precedes it.
        assert_eq!(stamps[18], Some(true));
    }

    #[test]
    fn walk_reports_read_write_split() {
        let organization = org();
        let test = library::march_c_minus();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let cells = u64::from(organization.capacity());
        assert_eq!(walk.reads(), test.read_count() as u64 * cells);
        assert_eq!(walk.writes(), test.write_count() as u64 * cells);
        assert!(!walk.is_empty());
    }
}
