//! Word-parallel lowering of enum lane cohorts.
//!
//! A cohort of up to sixty-four [`LaneFaultKind`]s gives every fault one
//! bit lane of a word per involved cell. Every lane is an independent
//! universe with exactly one fault, so a cohort's behaviour at a cell is
//! fully described by *which* lanes carry *which* model there. Lowering
//! turns the cohort into exactly that description once, before the walk
//! runs:
//!
//! * single-cell models set their lane bit in the [`SlotMasks`] of their
//!   victim's union slot (stuck lanes, lanes that keep or complement the
//!   old value on a write, lanes whose reads invert, flip or return the
//!   sensed-before stamp);
//! * two-cell models push a [`PairOp`] on their trigger cells that holds
//!   the partner's union slot, resolved here once instead of hashed per
//!   step.
//!
//! The kernel ([`crate::executor::run_march_lane_masks`]) then runs each
//! walk step as a few `u64` operations on a plain word array. Each model's
//! lowering sits next to its per-lane [`LaneFault`](super::LaneFault)
//! spec in its own file; the per-owner kernel over those specs is the
//! reference the lowering is tested against.

use sram_model::address::Address;

use super::LaneFaultKind;
use crate::executor::COHORT_ADDRESS_BUDGET;

/// All-ones when `value`, else all-zeros.
#[inline]
pub(crate) fn splat(value: bool) -> u64 {
    0u64.wrapping_sub(u64::from(value))
}

/// The lanes of one union slot that deviate from a fault-free cell, by
/// behaviour. A lane appears in at most one mask of a slot (one fault per
/// lane); every lane in none of them behaves fault-free at this cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotMasks {
    /// Lanes that store the written value, indexed by that value —
    /// derived from the masks below when lowering finishes.
    pass: [u64; 2],
    /// Lanes whose write leaves the old value, indexed by the written
    /// value: a TF in its failing direction, an SOF cell, the aliased cell
    /// of an AF.
    pub(crate) keep: [u64; 2],
    /// Lanes whose write leaves the complement of the old value (WDF).
    pub(crate) flip: u64,
    /// Lanes stuck at `0` (SAF0).
    pub(crate) stuck0: u64,
    /// Lanes stuck at `1` (SAF1).
    pub(crate) stuck1: u64,
    /// Lanes whose read returns the complement of the stored value (RDF,
    /// IRF).
    pub(crate) read_invert: u64,
    /// Lanes whose read complements the stored value (RDF, DRDF).
    pub(crate) read_flip: u64,
    /// Lanes whose read returns the sensed-before stamp (SOF).
    pub(crate) sensed: u64,
    /// This slot's range of [`LoweredCohort::write_ops`].
    write_ops: (u16, u16),
    /// This slot's range of [`LoweredCohort::read_ops`].
    read_ops: (u16, u16),
}

/// What a two-cell fault does when its trigger cell is accessed. Partner
/// cells are union slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PairKind {
    /// CFin: a write in the `rising` direction inverts `victim`.
    Invert {
        /// Union slot of the victim.
        victim: u16,
        /// `true` for a 0→1 trigger, `false` for 1→0.
        rising: bool,
    },
    /// CFid: a write in the `rising` direction forces `victim` to
    /// `forced`.
    Force {
        /// Union slot of the victim.
        victim: u16,
        /// `true` for a 0→1 trigger, `false` for 1→0.
        rising: bool,
        /// The value the victim is forced to.
        forced: bool,
    },
    /// CFst: while `aggressor` holds `state`, `victim` is forced to
    /// `forced` — enforced after a write and before a read at either
    /// cell.
    Enforce {
        /// Union slot of the aggressor.
        aggressor: u16,
        /// Union slot of the victim.
        victim: u16,
        /// The aggressor state that couples.
        state: bool,
        /// The value the victim is forced to.
        forced: bool,
    },
    /// AF: accesses of this (aliased) cell land on `target`.
    Redirect {
        /// Union slot of the target cell.
        target: u16,
    },
}

/// A [`PairKind`] and the lanes it applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairOp {
    lanes: u64,
    kind: PairKind,
}

impl PairOp {
    /// Forces `victim` to `forced` in the lanes of `hit`.
    #[inline]
    fn force(words: &mut [u64], victim: u16, hit: u64, forced: bool) {
        let word = &mut words[usize::from(victim)];
        *word = (*word & !hit) | (splat(forced) & hit);
    }

    #[inline]
    fn enforce(&self, words: &mut [u64]) {
        if let PairKind::Enforce {
            aggressor,
            victim,
            state,
            forced,
        } = self.kind
        {
            let hit = self.lanes & !(words[usize::from(aggressor)] ^ splat(state));
            Self::force(words, victim, hit, forced);
        }
    }

    /// Applies this op after `value` was written at its cell, whose word
    /// held `old` before the write. Coupling triggers compare against the
    /// aggressor's pre-write word: the lanes of this op store `value`, so
    /// a lane transitions exactly where `old` differs from it.
    #[inline]
    pub(crate) fn after_write(&self, words: &mut [u64], old: u64, value: bool) {
        let transitioned = self.lanes & (old ^ splat(value));
        match self.kind {
            PairKind::Invert { victim, rising } => {
                if value == rising {
                    words[usize::from(victim)] ^= transitioned;
                }
            }
            PairKind::Force {
                victim,
                rising,
                forced,
            } => {
                if value == rising {
                    Self::force(words, victim, transitioned, forced);
                }
            }
            PairKind::Enforce { .. } => self.enforce(words),
            PairKind::Redirect { target } => Self::force(words, target, self.lanes, value),
        }
    }

    /// Applies this op before a read of its cell. Returns the lanes whose
    /// observed value it supplies and those values: an AF's aliased cell
    /// reads its target.
    #[inline]
    pub(crate) fn before_read(&self, words: &mut [u64]) -> (u64, u64) {
        match self.kind {
            PairKind::Redirect { target } => (self.lanes, words[usize::from(target)] & self.lanes),
            _ => {
                self.enforce(words);
                (0, 0)
            }
        }
    }
}

/// A lane cohort lowered to per-slot masks and pair ops, reused across
/// cohorts: every buffer is cleared and regrown in place.
#[derive(Debug, Default)]
pub(crate) struct LoweredCohort {
    /// The cohort's sorted, deduplicated involved-address union; an
    /// address's union slot is its rank here.
    union: Vec<Address>,
    /// One entry per union slot.
    slots: Vec<SlotMasks>,
    /// Ops run after a write, grouped by slot.
    write_ops: Vec<PairOp>,
    /// Ops run before a read, grouped by slot.
    read_ops: Vec<PairOp>,
    /// Ops as pushed by the models: `(slot, is_read, op)`.
    pending: Vec<(u16, bool, PairOp)>,
}

impl LoweredCohort {
    /// Lowers `lanes`, lane `l` owning bit `l`.
    ///
    /// # Panics
    ///
    /// Panics if the cohort's union spans more than
    /// [`COHORT_ADDRESS_BUDGET`] distinct addresses.
    pub(crate) fn lower(&mut self, lanes: &[LaneFaultKind]) {
        self.union.clear();
        for lane in lanes {
            self.union.extend_from_slice(&lane.involved());
        }
        self.union.sort_unstable();
        self.union.dedup();
        assert!(
            self.union.len() <= COHORT_ADDRESS_BUDGET,
            "a cohort may involve at most {COHORT_ADDRESS_BUDGET} distinct addresses \
             (the planner enforces this for its own plans)"
        );
        self.slots.clear();
        self.slots.resize(self.union.len(), SlotMasks::default());
        self.pending.clear();
        for (lane, fault) in lanes.iter().enumerate() {
            fault.lower(1u64 << lane, self);
        }
        // Group the ops by slot, merging the lanes of identical ops (the
        // address-aware planner packs faults on shared cells together).
        self.pending
            .sort_unstable_by_key(|&(slot, read, op)| (slot, read, op.kind));
        self.write_ops.clear();
        self.read_ops.clear();
        for &(slot, read, op) in &self.pending {
            let masks = &mut self.slots[usize::from(slot)];
            let (ops, range) = if read {
                (&mut self.read_ops, &mut masks.read_ops)
            } else {
                (&mut self.write_ops, &mut masks.write_ops)
            };
            match ops.last_mut() {
                // The slot's range ends at the list's end while it grows.
                Some(last) if range.0 < range.1 && last.kind == op.kind => last.lanes |= op.lanes,
                _ => {
                    if range.0 == range.1 {
                        *range = (ops.len() as u16, ops.len() as u16);
                    }
                    ops.push(op);
                    range.1 += 1;
                }
            }
        }
        for masks in &mut self.slots {
            let deviating = masks.flip | masks.stuck0 | masks.stuck1;
            masks.pass = [!(masks.keep[0] | deviating), !(masks.keep[1] | deviating)];
        }
    }

    /// The cohort's involved-address union.
    pub(crate) fn union(&self) -> &[Address] {
        &self.union
    }

    /// Writes `value` at union slot `slot` in every lane of `words` (one
    /// word per slot): the passing lanes store it, the keeping lanes the
    /// old value, the write-disturb lanes its complement, the stuck-at-1
    /// lanes a `1` (and the stuck-at-0 lanes, in none of these, a `0`);
    /// then the slot's pair ops run.
    #[inline]
    pub(crate) fn write(&self, words: &mut [u64], slot: usize, value: bool) {
        let masks = &self.slots[slot];
        let old = words[slot];
        let written = usize::from(value);
        words[slot] = (splat(value) & masks.pass[written])
            | (old & masks.keep[written])
            | (!old & masks.flip)
            | masks.stuck1;
        let (start, end) = masks.write_ops;
        for op in &self.write_ops[usize::from(start)..usize::from(end)] {
            op.after_write(words, old, value);
        }
    }

    /// Reads union slot `slot` in every lane of `words` and returns the
    /// observed word: the slot's pair ops run first, the stuck lanes are
    /// forced, and each lane observes its cell, its complement, the
    /// `sensed_before` stamp or its alias target's value.
    #[inline]
    pub(crate) fn read(&self, words: &mut [u64], slot: usize, sensed_before: bool) -> u64 {
        let masks = &self.slots[slot];
        // Lanes whose observed bit an op supplies, and those bits.
        let (mut supplied, mut supplied_bits) = (0u64, 0u64);
        let (start, end) = masks.read_ops;
        for op in &self.read_ops[usize::from(start)..usize::from(end)] {
            let (lanes, bits) = op.before_read(words);
            supplied |= lanes;
            supplied_bits |= bits;
        }
        let stored = (words[slot] & !masks.stuck0) | masks.stuck1;
        words[slot] = stored ^ masks.read_flip;
        ((stored ^ masks.read_invert) & !(masks.sensed | supplied))
            | (splat(sensed_before) & masks.sensed)
            | supplied_bits
    }

    /// The union slot of `address`, which must be involved by a lane.
    pub(crate) fn slot(&self, address: Address) -> u16 {
        self.union
            .binary_search(&address)
            .expect("lowered faults touch only their involved cells") as u16
    }

    /// The masks of `address`'s slot, for a model to set its lane in.
    pub(crate) fn masks_at(&mut self, address: Address) -> &mut SlotMasks {
        let slot = self.slot(address);
        &mut self.slots[usize::from(slot)]
    }

    /// Runs `kind` in the lanes of `lane` after every write of `address`.
    pub(crate) fn on_write(&mut self, address: Address, lane: u64, kind: PairKind) {
        let slot = self.slot(address);
        self.pending
            .push((slot, false, PairOp { lanes: lane, kind }));
    }

    /// Runs `kind` in the lanes of `lane` before every read of `address`.
    pub(crate) fn on_read(&mut self, address: Address, lane: u64, kind: PairKind) {
        let slot = self.slot(address);
        self.pending
            .push((slot, true, PairOp { lanes: lane, kind }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{
        AddressAliasFault, CouplingIdempotentFault, CouplingInversionFault, CouplingStateFault,
        DeceptiveReadDestructiveFault, IncorrectReadFault, ReadDestructiveFault, StuckAtFault,
        StuckOpenFault, TransitionFault, WriteDisturbFault,
    };
    use crate::memory::LaneMemory;
    use crate::rng::SplitMix64;

    /// Twenty model variants over the cells `first` and `second`: the
    /// nine single-cell models on `first`, the eleven two-cell variants
    /// from `first` to `second`.
    fn models(first: Address, second: Address) -> Vec<LaneFaultKind> {
        let mut lanes = vec![
            LaneFaultKind::StuckAt(StuckAtFault::new(first, false)),
            LaneFaultKind::StuckAt(StuckAtFault::new(first, true)),
            LaneFaultKind::Transition(TransitionFault::new(first, true)),
            LaneFaultKind::Transition(TransitionFault::new(first, false)),
            LaneFaultKind::StuckOpen(StuckOpenFault::new(first)),
            LaneFaultKind::WriteDisturb(WriteDisturbFault::new(first)),
            LaneFaultKind::ReadDestructive(ReadDestructiveFault::new(first)),
            LaneFaultKind::DeceptiveReadDestructive(DeceptiveReadDestructiveFault::new(first)),
            LaneFaultKind::IncorrectRead(IncorrectReadFault::new(first)),
            LaneFaultKind::AddressDecoder(AddressAliasFault::new(first, second)),
        ];
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

    /// The lowered step semantics equal the per-lane specs from *any*
    /// state, not only along March walks: random reads and writes over
    /// three shared cells, reads before any write included, starting from
    /// either background. (In a locality-safe walk every cell is written
    /// before it is read, which hides some orderings — e.g. a CFst lane
    /// already holds its coupling by the time of any read, so enforcing
    /// it before or after a read looks the same there.)
    #[test]
    fn lowered_steps_equal_the_per_lane_specs_on_random_accesses() {
        let cells = [Address::new(1), Address::new(4), Address::new(6)];
        let mut lanes = [
            models(cells[0], cells[1]),
            models(cells[1], cells[2]),
            models(cells[2], cells[0]),
            models(cells[0], cells[2]),
        ]
        .concat();
        lanes.truncate(64);
        let mut lowered = LoweredCohort::default();
        lowered.lower(&lanes);
        assert_eq!(lowered.union(), &cells);
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let background = seed % 2 == 1;
            let mut reference = LaneMemory::new(8, &cells);
            reference.fill(background);
            let mut specs = lanes.clone();
            let mut words = vec![splat(background); cells.len()];
            for step in 0..200 {
                let slot = rng.next_below(cells.len() as u64) as usize;
                let address = cells[slot];
                let value = rng.next_bool();
                if rng.next_bool() {
                    for (lane, spec) in specs.iter_mut().enumerate() {
                        if spec.involved().contains(&address) {
                            spec.lane_write(&mut reference, lane as u32, address, value);
                        } else {
                            reference.set_lane(address, lane as u32, value);
                        }
                    }
                    lowered.write(&mut words, slot, value);
                } else {
                    let mut expected = 0u64;
                    for (lane, spec) in specs.iter_mut().enumerate() {
                        let bit = if spec.involved().contains(&address) {
                            spec.lane_read(&mut reference, lane as u32, address, value)
                        } else {
                            reference.get_lane(address, lane as u32)
                        };
                        expected |= u64::from(bit) << lane;
                    }
                    let observed = lowered.read(&mut words, slot, value);
                    assert_eq!(
                        observed, expected,
                        "seed {seed} step {step}: read of {address}"
                    );
                }
                for (slot, &cell) in cells.iter().enumerate() {
                    assert_eq!(words[slot], reference.word(cell), "seed {seed} step {step}");
                }
            }
        }
    }

    #[test]
    fn identical_pair_ops_on_one_cell_merge_their_lanes() {
        let (aggressor, victim) = (Address::new(2), Address::new(3));
        let lanes = [
            LaneFaultKind::CouplingInversion(CouplingInversionFault::new(aggressor, victim, true)),
            LaneFaultKind::CouplingInversion(CouplingInversionFault::new(aggressor, victim, true)),
            LaneFaultKind::CouplingInversion(CouplingInversionFault::new(aggressor, victim, false)),
        ];
        let mut lowered = LoweredCohort::default();
        lowered.lower(&lanes);
        assert_eq!(lowered.write_ops.len(), 2);
        assert!(lowered.read_ops.is_empty());
        assert_eq!(lowered.slots[0].write_ops, (0, 2));
        assert_eq!(lowered.slots[1].write_ops, (0, 0));
        let rising = lowered
            .write_ops
            .iter()
            .find(|op| matches!(op.kind, PairKind::Invert { rising: true, .. }));
        assert_eq!(rising.map(|op| op.lanes), Some(0b011));
    }
}
