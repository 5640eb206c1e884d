//! Interned, index-based sweep reports.
//!
//! The classic [`CoverageReport`] carries
//! three heap strings per outcome — the fault's instance name plus a fresh
//! copy of the test and order names — which dominates outcome-assembly
//! cost once sweeps reach hundreds of thousands of faults and is pure
//! waste for consumers that only want a digest (campaign journals pin a
//! 64-bit fingerprint, not megabytes of outcomes).
//!
//! This module is the allocation-flat alternative: a sweep builds one
//! [`NameTable`] holding every rendered string exactly once, and each
//! fault's result compresses to a 16-byte [`OutcomeCode`] — a `u32` index
//! into the table, the [`FaultKind`], the detection bit and the mismatch
//! count. The [`InternedSweep`] report offers the same aggregate
//! accessors as `CoverageReport`, a [`digest`](InternedSweep::digest)
//! that is **bit-identical** to [`CoverageReport::digest`] on
//! the same results (the equivalence tests pin this), lazy per-outcome
//! [`Display`](std::fmt::Display) rendering, and a
//! [`materialize`](InternedSweep::materialize) escape hatch producing the
//! classic string-bearing report when a consumer really wants one.
//!
//! Every sweep produces it: the driver
//! [`evaluate_coverage_interned_on_walk`](crate::coverage::evaluate_coverage_interned_on_walk)
//! interns each backend's per-fault results into one, and
//! [`evaluate_coverage`](crate::coverage::evaluate_coverage) materializes
//! it for callers of the seed API.

use std::fmt;

use crate::coverage::CoverageReport;
use crate::fault_sim::FaultSimOutcome;
use crate::faults::FaultKind;
use crate::rng::Fnv1a;

/// An append-only string table: each pushed name gets a dense `u32`
/// index, and the bytes live here exactly once.
///
/// Fault instance names are unique by construction (they embed victim
/// addresses), so the hot path is the no-dedup [`NameTable::push`];
/// [`NameTable::intern`] additionally deduplicates and is meant for the
/// handful of shared names (test, order) a report mentions many times.
///
/// # Examples
///
/// ```
/// use march_test::intern::NameTable;
///
/// let mut names = NameTable::new();
///
/// // `intern` deduplicates: the report's test and order names get one
/// // slot no matter how many outcomes mention them.
/// let test = names.intern("March C-");
/// assert_eq!(names.intern("March C-"), test);
///
/// // `push` is the no-dedup hot path for per-fault instance names,
/// // which are unique by construction.
/// let fault = names.push("SAF0 @ (3,7)".to_string());
/// assert_ne!(fault, test);
/// assert_eq!(names.get(fault), "SAF0 @ (3,7)");
/// assert_eq!(names.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    strings: Vec<String>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `name` without looking for duplicates and returns its
    /// index — the hot path for per-fault instance names, which are
    /// unique anyway.
    pub fn push(&mut self, name: String) -> u32 {
        let index = u32::try_from(self.strings.len()).expect("name table indices fit u32");
        self.strings.push(name);
        index
    }

    /// Returns the index of `name`, appending it only if no equal string
    /// is present — for the few names shared across outcomes (test and
    /// order names). Linear scan: the dedup set stays tiny by design.
    pub fn intern(&mut self, name: &str) -> u32 {
        match self.strings.iter().position(|existing| existing == name) {
            Some(index) => index as u32,
            None => self.push(name.to_string()),
        }
    }

    /// The string at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not returned by this table.
    pub fn get(&self, index: u32) -> &str {
        &self.strings[index as usize]
    }

    /// Number of stored strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when the table holds no strings.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One fault's sweep result in interned form: 16 bytes, no owned
/// strings. The name lives in the sweep's [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCode {
    /// Index of the fault's instance name in the sweep's [`NameTable`].
    pub name: u32,
    /// Fault class.
    pub kind: FaultKind,
    /// Whether at least one read mismatched.
    pub detected: bool,
    /// Number of read mismatches observed.
    pub mismatches: u32,
}

/// A coverage sweep report with interned names: the index-based
/// equivalent of [`CoverageReport`], built without the three per-fault
/// string allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedSweep {
    test: u32,
    order: u32,
    names: NameTable,
    codes: Vec<OutcomeCode>,
    detected: usize,
}

impl InternedSweep {
    /// Builds a report from interned parts, caching the detection count.
    ///
    /// `test` and `order` must be indices into `names`, as must every
    /// code's `name` (enforced lazily: accessors panic on a dangling
    /// index).
    pub fn new(test: u32, order: u32, names: NameTable, codes: Vec<OutcomeCode>) -> Self {
        let detected = codes.iter().filter(|code| code.detected).count();
        Self {
            test,
            order,
            names,
            codes,
            detected,
        }
    }

    /// Name of the March test evaluated.
    pub fn test_name(&self) -> &str {
        self.names.get(self.test)
    }

    /// Name of the address order used.
    pub fn order_name(&self) -> &str {
        self.names.get(self.order)
    }

    /// The intern table backing this report.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Per-fault outcome codes, in fault-list order.
    pub fn codes(&self) -> &[OutcomeCode] {
        &self.codes
    }

    /// Total number of faults simulated.
    pub fn total(&self) -> usize {
        self.codes.len()
    }

    /// Number of detected faults (cached — no rescan).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Fault coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// Total read mismatches across every outcome.
    pub fn total_mismatches(&self) -> u64 {
        self.codes
            .iter()
            .map(|code| u64::from(code.mismatches))
            .sum()
    }

    /// A lazily rendered view of outcome `index`: its
    /// [`Display`](std::fmt::Display) writes straight out of the intern
    /// table, so printing a report entry allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn outcome(&self, index: usize) -> InternedOutcome<'_> {
        InternedOutcome {
            sweep: self,
            code: self.codes[index],
        }
    }

    /// A stable 64-bit digest of the whole report, **bit-identical** to
    /// [`CoverageReport::digest`] of the materialized report: campaign
    /// journals written from interned sweeps verify against journals
    /// written from classic reports and vice versa.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write(self.test_name().as_bytes());
        hasher.write_u8(0xFF);
        hasher.write(self.order_name().as_bytes());
        hasher.write_u8(0xFF);
        for code in &self.codes {
            hasher.write(self.names.get(code.name).as_bytes());
            hasher.write_u8(0xFE);
            hasher.write(code.kind.as_str().as_bytes());
            hasher.write_u8(u8::from(code.detected));
            hasher.write_u64(u64::from(code.mismatches));
        }
        hasher.finish()
    }

    /// Expands this report into the classic string-bearing
    /// [`CoverageReport`] — one string allocation per outcome plus the
    /// test/order copies, for consumers that want the old shape. The
    /// result compares equal (and digest-equal) to the report the string
    /// path would have produced for the same sweep.
    pub fn materialize(&self) -> CoverageReport {
        let outcomes = self
            .codes
            .iter()
            .map(|code| FaultSimOutcome {
                fault_name: self.names.get(code.name).to_string(),
                fault_kind: code.kind,
                test_name: self.test_name().to_string(),
                order_name: self.order_name().to_string(),
                detected: code.detected,
                mismatches: code.mismatches as usize,
            })
            .collect();
        CoverageReport::new(self.test_name(), self.order_name(), outcomes)
    }
}

/// One outcome of an [`InternedSweep`], rendered lazily: Display writes
/// `"<name> <kind> detected=<bool> mismatches=<n>"` without allocating.
#[derive(Debug, Clone, Copy)]
pub struct InternedOutcome<'a> {
    sweep: &'a InternedSweep,
    code: OutcomeCode,
}

impl InternedOutcome<'_> {
    /// The outcome's code (indices and counts).
    pub fn code(&self) -> OutcomeCode {
        self.code
    }

    /// The fault's instance name, borrowed from the intern table.
    pub fn name(&self) -> &str {
        self.sweep.names.get(self.code.name)
    }
}

impl fmt::Display for InternedOutcome<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} detected={} mismatches={}",
            self.name(),
            self.code.kind,
            self.code.detected,
            self.code.mismatches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_intern_share_one_table() {
        let mut table = NameTable::new();
        assert!(table.is_empty());
        let a = table.push("SAF1@0".to_string());
        let test = table.intern("March SS");
        let again = table.intern("March SS");
        assert_eq!(test, again, "intern deduplicates");
        assert_ne!(a, test);
        assert_eq!(table.get(a), "SAF1@0");
        assert_eq!(table.get(test), "March SS");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn lazy_display_renders_without_touching_the_codes() {
        let mut names = NameTable::new();
        let test = names.intern("March SS");
        let order = names.intern("word line after word line");
        let fault = names.push("TF↑@3".to_string());
        let sweep = InternedSweep::new(
            test,
            order,
            names,
            vec![OutcomeCode {
                name: fault,
                kind: FaultKind::Transition,
                detected: true,
                mismatches: 2,
            }],
        );
        assert_eq!(
            sweep.outcome(0).to_string(),
            "TF↑@3 TF detected=true mismatches=2"
        );
        assert_eq!(sweep.outcome(0).name(), "TF↑@3");
        assert_eq!(sweep.detected(), 1);
        assert_eq!(sweep.total(), 1);
        assert_eq!(sweep.total_mismatches(), 2);
        assert_eq!(sweep.test_name(), "March SS");
        assert_eq!(sweep.order_name(), "word line after word line");
    }

    #[test]
    fn empty_sweep_has_zero_coverage() {
        let mut names = NameTable::new();
        let test = names.intern("MATS+");
        let order = names.intern("column major");
        let sweep = InternedSweep::new(test, order, names, Vec::new());
        assert_eq!(sweep.coverage(), 0.0);
        assert_eq!(sweep.total(), 0);
        assert!(sweep.names().len() == 2);
    }
}
