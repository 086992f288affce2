//! Fault extents, persistence, and address-range intersection.
//!
//! Following FaultSim, a fault is represented by the *range* of device
//! addresses it corrupts: a specific bit, one 64-bit word, one column
//! (the same column of every row of a bank), one row, one bank, or the
//! whole chip. Two faults in different chips of the same ECC codeword
//! domain threaten the system only if their ranges *intersect* — i.e. some
//! cache-line address reads corrupted data from both chips at once.

use crate::geometry::DramGeometry;
use rand::Rng;
use std::fmt;

/// How much of the device a fault corrupts.
///
/// Table I's "multi-bank" and "multi-rank" modes are both modeled as
/// [`FaultExtent::Chip`]: a fault in shared device circuitry that corrupts
/// the entire device (the conservative single-device interpretation; see
/// DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultExtent {
    /// A single bit.
    Bit,
    /// A single on-die ECC word (64 bits on x8 devices).
    Word,
    /// One column of a bank (the same word index in every row).
    Column,
    /// One row of a bank.
    Row,
    /// One whole bank.
    Bank,
    /// The entire device (multi-bank and multi-rank modes).
    Chip,
}

impl FaultExtent {
    /// All extents, in increasing size order.
    pub const ALL: [FaultExtent; 6] = [
        FaultExtent::Bit,
        FaultExtent::Word,
        FaultExtent::Column,
        FaultExtent::Row,
        FaultExtent::Bank,
        FaultExtent::Chip,
    ];

    /// The extent's position in [`FaultExtent::ALL`], as a `const`
    /// O(1) lookup (`FaultExtent::ALL[e.index()] == e` for every extent).
    ///
    /// The Monte-Carlo driver indexes its per-extent failure counters with
    /// this on every failure; it replaces an `ALL.iter().position(..)`
    /// linear scan in that hot path.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// `true` if the extent corrupts more than one bit — i.e. defeats a
    /// per-word SECDED code.
    pub fn is_multi_bit(self) -> bool {
        !matches!(self, FaultExtent::Bit)
    }

    /// `true` if the extent spans multiple cache lines, so Inter-Line Fault
    /// Diagnosis (paper Section VI-A) can identify the faulty chip by
    /// streaming neighboring lines.
    pub fn spans_lines(self) -> bool {
        matches!(
            self,
            FaultExtent::Column | FaultExtent::Row | FaultExtent::Bank | FaultExtent::Chip
        )
    }
}

impl fmt::Display for FaultExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultExtent::Bit => "bit",
            FaultExtent::Word => "word",
            FaultExtent::Column => "column",
            FaultExtent::Row => "row",
            FaultExtent::Bank => "bank",
            FaultExtent::Chip => "chip",
        };
        f.write_str(s)
    }
}

/// Whether the underlying fault mechanism persists.
///
/// Note that even a *transient* fault leaves corrupted cells behind until
/// they are rewritten; the distinction matters for diagnosis (a transient
/// word fault cannot be reproduced by Intra-Line diagnosis, paper §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// One-shot upset (e.g. particle strike); not reproducible on re-read
    /// after correction.
    Transient,
    /// Hard fault; every access to the range returns corrupted data.
    Permanent,
}

/// The device-address range a fault corrupts. `None` fields are wildcards
/// ("all banks", "all rows", …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultRange {
    /// Bank index, or `None` for all banks.
    pub bank: Option<u32>,
    /// Row index within the bank, or `None` for all rows.
    pub row: Option<u32>,
    /// Column (word) index within the row, or `None` for all columns.
    pub col: Option<u32>,
    /// Bit index within the word, or `None` for all bits.
    pub bit: Option<u32>,
}

impl FaultRange {
    /// Samples a random concrete range of the given extent within `geom`.
    ///
    /// Constant draw shape: all four coordinates are drawn (in bank, row,
    /// column, bit order) for *every* extent, and the extent then selects
    /// which become wildcards. The wildcard draws are discarded, so the
    /// distribution is the same as drawing only the pinned fields — but
    /// the Monte-Carlo hot loop sees four cheap masked draws and four
    /// branch-free selects instead of a six-way dispatch that mispredicts
    /// on almost every (randomly distributed) event.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, extent: FaultExtent, geom: &DramGeometry) -> Self {
        // Bitmask per field over extent indices (Bit=0 … Chip=5): which
        // extents pin that coordinate.
        const PIN_BANK: u32 = 0b011111; // all but Chip
        const PIN_ROW: u32 = 0b001011; // Bit, Word, Row
        const PIN_COL: u32 = 0b000111; // Bit, Word, Column
        const PIN_BIT: u32 = 0b000001; // Bit
        let bank = rng.gen_range(0..geom.banks);
        let row = rng.gen_range(0..geom.rows);
        let col = rng.gen_range(0..geom.cols);
        let bit = rng.gen_range(0..geom.word_bits);
        let e = extent.index() as u32;
        FaultRange {
            bank: (PIN_BANK >> e & 1 != 0).then_some(bank),
            row: (PIN_ROW >> e & 1 != 0).then_some(row),
            col: (PIN_COL >> e & 1 != 0).then_some(col),
            bit: (PIN_BIT >> e & 1 != 0).then_some(bit),
        }
    }

    /// Intersection of two ranges, or `None` if they share no address.
    pub fn intersect(&self, other: &FaultRange) -> Option<FaultRange> {
        fn field(a: Option<u32>, b: Option<u32>) -> Result<Option<u32>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) if x == y => Ok(Some(x)),
                _ => Err(()),
            }
        }
        Some(FaultRange {
            bank: field(self.bank, other.bank).ok()?,
            row: field(self.row, other.row).ok()?,
            col: field(self.col, other.col).ok()?,
            bit: field(self.bit, other.bit).ok()?,
        })
    }

    /// `true` if the two ranges share at least one address.
    pub fn overlaps(&self, other: &FaultRange) -> bool {
        self.intersect(other).is_some()
    }

    /// `true` if the two ranges corrupt a common *cache line* (bank, row and
    /// column all overlap) — the condition under which two faulty chips
    /// contribute errors to the same ECC codeword, regardless of which bit
    /// within the word each corrupts.
    pub fn shares_line(&self, other: &FaultRange) -> bool {
        self.line().overlaps(&other.line())
    }

    /// The cache lines this range touches: the range without its bit.
    pub(crate) fn line(&self) -> FaultRange {
        FaultRange { bit: None, ..*self }
    }
}

/// A concrete fault in one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Extent class.
    pub extent: FaultExtent,
    /// Transient or permanent mechanism.
    pub persistence: Persistence,
    /// Concrete address range.
    pub range: FaultRange,
}

impl Fault {
    /// Samples a concrete fault of the given mode within `geom`.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        extent: FaultExtent,
        persistence: Persistence,
        geom: &DramGeometry,
    ) -> Self {
        Self {
            extent,
            persistence,
            range: FaultRange::sample(rng, extent, geom),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g() -> DramGeometry {
        DramGeometry::x8_2gb()
    }

    #[test]
    fn sampled_range_shape_matches_extent() {
        let mut rng = StdRng::seed_from_u64(1);
        let geom = g();
        for _ in 0..50 {
            let r = FaultRange::sample(&mut rng, FaultExtent::Bit, &geom);
            assert!(r.bank.is_some() && r.row.is_some() && r.col.is_some() && r.bit.is_some());
            let r = FaultRange::sample(&mut rng, FaultExtent::Row, &geom);
            assert!(r.bank.is_some() && r.row.is_some() && r.col.is_none() && r.bit.is_none());
            let r = FaultRange::sample(&mut rng, FaultExtent::Chip, &geom);
            assert_eq!(r, FaultRange::default());
        }
    }

    #[test]
    fn chip_range_overlaps_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let geom = g();
        let chip = FaultRange::sample(&mut rng, FaultExtent::Chip, &geom);
        for extent in FaultExtent::ALL {
            let r = FaultRange::sample(&mut rng, extent, &geom);
            assert!(chip.overlaps(&r));
            assert!(r.overlaps(&chip), "overlap must be symmetric");
        }
    }

    #[test]
    fn overlap_is_reflexive_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let geom = g();
        for _ in 0..200 {
            let e1 = FaultExtent::ALL[rng.gen_range(0..6)];
            let e2 = FaultExtent::ALL[rng.gen_range(0..6)];
            let a = FaultRange::sample(&mut rng, e1, &geom);
            let b = FaultRange::sample(&mut rng, e2, &geom);
            assert!(a.overlaps(&a));
            assert_eq!(a.overlaps(&b), b.overlaps(&a));
            assert_eq!(a.intersect(&b), b.intersect(&a));
        }
    }

    #[test]
    fn rows_in_same_bank_do_not_overlap() {
        let a = FaultRange {
            bank: Some(1),
            row: Some(10),
            col: None,
            bit: None,
        };
        let b = FaultRange {
            bank: Some(1),
            row: Some(11),
            col: None,
            bit: None,
        };
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn row_and_column_cross_in_same_bank() {
        let row = FaultRange {
            bank: Some(2),
            row: Some(7),
            col: None,
            bit: None,
        };
        let col = FaultRange {
            bank: Some(2),
            row: None,
            col: Some(99),
            bit: None,
        };
        let x = row.intersect(&col).unwrap();
        assert_eq!(
            x,
            FaultRange {
                bank: Some(2),
                row: Some(7),
                col: Some(99),
                bit: None
            }
        );
        let other_bank = FaultRange {
            bank: Some(3),
            row: None,
            col: Some(99),
            bit: None,
        };
        assert!(!row.overlaps(&other_bank));
    }

    #[test]
    fn bits_in_same_word_share_line_but_not_address() {
        let a = FaultRange {
            bank: Some(0),
            row: Some(0),
            col: Some(0),
            bit: Some(3),
        };
        let b = FaultRange {
            bank: Some(0),
            row: Some(0),
            col: Some(0),
            bit: Some(5),
        };
        assert!(!a.overlaps(&b));
        assert!(a.shares_line(&b));
    }

    #[test]
    fn intersection_is_associative_on_samples() {
        let mut rng = StdRng::seed_from_u64(4);
        let geom = g();
        for _ in 0..200 {
            let (e1, e2, e3) = (
                FaultExtent::ALL[rng.gen_range(0..6)],
                FaultExtent::ALL[rng.gen_range(0..6)],
                FaultExtent::ALL[rng.gen_range(0..6)],
            );
            let a = FaultRange::sample(&mut rng, e1, &geom);
            let b = FaultRange::sample(&mut rng, e2, &geom);
            let c = FaultRange::sample(&mut rng, e3, &geom);
            let ab_c = a.intersect(&b).and_then(|x| x.intersect(&c));
            let a_bc = b.intersect(&c).and_then(|x| x.intersect(&a));
            assert_eq!(ab_c, a_bc);
        }
    }

    #[test]
    fn extent_index_round_trips_all() {
        for (i, e) in FaultExtent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e}: index must match ALL position");
            assert_eq!(FaultExtent::ALL[e.index()], *e);
        }
        // Compile-time guarantee the hot path leans on.
        const _: () = assert!(FaultExtent::Chip.index() == 5);
    }

    #[test]
    fn extent_predicates() {
        assert!(!FaultExtent::Bit.is_multi_bit());
        assert!(FaultExtent::Word.is_multi_bit());
        assert!(!FaultExtent::Word.spans_lines());
        assert!(FaultExtent::Column.spans_lines());
        assert!(FaultExtent::Chip.spans_lines());
    }

    #[test]
    fn display_names() {
        assert_eq!(FaultExtent::Bank.to_string(), "bank");
        assert_eq!(FaultExtent::Chip.to_string(), "chip");
    }
}
