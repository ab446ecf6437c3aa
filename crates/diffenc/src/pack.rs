//! EW-bit lane packing (paper §4, §4.2 `smx.pack`).
//!
//! SMX packs `VL` elements of `EW` bits into a 64-bit word: 32×2-bit,
//! 16×4-bit, 10×6-bit, or 8×8-bit. Both sequence characters (in
//! `smx_query` / `smx_reference`) and shifted DP-deltas (in general-purpose
//! registers) use this layout, lane 0 in the least-significant bits.

use smx_align_core::{AlignError, ElementWidth};

/// A single 64-bit word holding up to `VL` lanes of `EW` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedVec {
    word: u64,
    ew_bits: u8,
}

impl PackedVec {
    /// Packs `lanes` (at most `ew.vl()` values, each < 2^EW) into a word.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] if more than `VL` lanes are given
    /// or any value does not fit `EW` bits.
    pub fn from_lanes(ew: ElementWidth, lanes: &[u8]) -> Result<PackedVec, AlignError> {
        if lanes.len() > ew.vl() {
            return Err(AlignError::Internal(format!(
                "{} lanes exceed VL={} for {ew}",
                lanes.len(),
                ew.vl()
            )));
        }
        let mut word = 0u64;
        for (k, &v) in lanes.iter().enumerate() {
            if u32::from(v) > ew.max_value() {
                return Err(AlignError::Internal(format!("lane value {v} overflows {ew}")));
            }
            word |= u64::from(v) << (k as u32 * u32::from(ew.bits()));
        }
        Ok(PackedVec { word, ew_bits: ew.bits() })
    }

    /// Wraps a raw register value (no validation; hardware semantics).
    #[must_use]
    pub fn from_word(ew: ElementWidth, word: u64) -> PackedVec {
        PackedVec { word, ew_bits: ew.bits() }
    }

    /// The raw 64-bit register value.
    #[must_use]
    pub fn word(self) -> u64 {
        self.word
    }

    /// The element width this vector was packed with.
    #[must_use]
    pub fn ew(self) -> ElementWidth {
        match self.ew_bits {
            2 => ElementWidth::W2,
            4 => ElementWidth::W4,
            6 => ElementWidth::W6,
            _ => ElementWidth::W8,
        }
    }

    /// Extracts lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= VL`.
    #[must_use]
    pub fn lane(self, k: usize) -> u8 {
        let ew = self.ew();
        assert!(k < ew.vl(), "lane {k} out of range for {ew}");
        ((self.word >> (k as u32 * u32::from(self.ew_bits))) & u64::from(ew.max_value())) as u8
    }

    /// Replaces lane `k`, returning the new vector.
    ///
    /// # Panics
    ///
    /// Panics if `k >= VL` or `v` does not fit `EW` bits.
    #[must_use]
    pub fn with_lane(self, k: usize, v: u8) -> PackedVec {
        let ew = self.ew();
        assert!(k < ew.vl(), "lane {k} out of range for {ew}");
        assert!(u32::from(v) <= ew.max_value(), "value {v} overflows {ew}");
        let shift = k as u32 * u32::from(self.ew_bits);
        let mask = u64::from(ew.max_value()) << shift;
        PackedVec { word: (self.word & !mask) | (u64::from(v) << shift), ew_bits: self.ew_bits }
    }

    /// Unpacks the first `count` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `count > VL`.
    #[must_use]
    pub fn to_lanes(self, count: usize) -> Vec<u8> {
        (0..count).map(|k| self.lane(k)).collect()
    }

    /// Unpacks the first `out.len()` lanes into `out` without allocating
    /// (the allocation-free counterpart of [`to_lanes`](Self::to_lanes)).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() > VL`.
    pub fn unpack_into(self, out: &mut [u8]) {
        let ew = self.ew();
        assert!(out.len() <= ew.vl(), "{} lanes exceed VL={} for {ew}", out.len(), ew.vl());
        let bits = u32::from(self.ew_bits);
        let mask = u64::from(ew.max_value());
        for (k, v) in out.iter_mut().enumerate() {
            *v = ((self.word >> (k as u32 * bits)) & mask) as u8;
        }
    }

    /// Sum of the first `count` lanes (the `smx.redsum` datapath).
    ///
    /// # Panics
    ///
    /// Panics if `count > VL`.
    #[must_use]
    pub fn lane_sum(self, count: usize) -> u64 {
        (0..count).map(|k| u64::from(self.lane(k))).sum()
    }
}

/// A whole sequence packed `VL` symbols per 64-bit word.
///
/// This is the memory representation the SMX-2D coprocessor streams
/// through cache lines, and the source of `smx_query`/`smx_reference`
/// register loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeq {
    ew: ElementWidth,
    len: usize,
    words: Vec<u64>,
}

impl PackedSeq {
    /// Packs `codes` (each < 2^EW) into words.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] if a code overflows `EW` bits.
    pub fn from_codes(ew: ElementWidth, codes: &[u8]) -> Result<PackedSeq, AlignError> {
        let vl = ew.vl();
        let mut words = Vec::with_capacity(codes.len().div_ceil(vl));
        for chunk in codes.chunks(vl) {
            words.push(PackedVec::from_lanes(ew, chunk)?.word());
        }
        Ok(PackedSeq { ew, len: codes.len(), words })
    }

    /// The element width.
    #[must_use]
    pub fn ew(&self) -> ElementWidth {
        self.ew
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-bit words used.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Memory footprint in bytes (what the coprocessor transfers).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }

    /// Symbol at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[must_use]
    pub fn get(&self, idx: usize) -> u8 {
        assert!(idx < self.len, "index {idx} out of range");
        let vl = self.ew.vl();
        PackedVec::from_word(self.ew, self.words[idx / vl]).lane(idx % vl)
    }

    /// Unpacks the whole sequence back to one code per byte.
    #[must_use]
    pub fn unpack(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// A contiguous segment `[start, start+count)` unpacked to codes
    /// (clamped at the sequence end).
    #[must_use]
    pub fn segment(&self, start: usize, count: usize) -> Vec<u8> {
        let end = (start + count).min(self.len);
        (start.min(self.len)..end).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_roundtrip_all_widths() {
        for ew in ElementWidth::ALL {
            let modulus = ew.max_value() as u16 + 1;
            let lanes: Vec<u8> = (0..ew.vl() as u16).map(|k| (k % modulus) as u8).collect();
            let v = PackedVec::from_lanes(ew, &lanes).unwrap();
            assert_eq!(v.to_lanes(lanes.len()), lanes, "{ew}");
        }
    }

    #[test]
    fn rejects_overflow_lane() {
        assert!(PackedVec::from_lanes(ElementWidth::W2, &[4]).is_err());
        assert!(PackedVec::from_lanes(ElementWidth::W6, &[64]).is_err());
    }

    #[test]
    fn rejects_too_many_lanes() {
        let lanes = vec![0u8; 33];
        assert!(PackedVec::from_lanes(ElementWidth::W2, &lanes).is_err());
    }

    #[test]
    fn with_lane_replaces_only_target() {
        let v = PackedVec::from_lanes(ElementWidth::W4, &[1, 2, 3, 4]).unwrap();
        let v2 = v.with_lane(2, 15);
        assert_eq!(v2.to_lanes(4), vec![1, 2, 15, 4]);
        assert_eq!(v.to_lanes(4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn lane_sum_is_redsum() {
        let v = PackedVec::from_lanes(ElementWidth::W8, &[10, 20, 30]).unwrap();
        assert_eq!(v.lane_sum(3), 60);
        assert_eq!(v.lane_sum(8), 60);
    }

    #[test]
    fn w6_uses_only_60_bits() {
        let lanes = vec![63u8; 10];
        let v = PackedVec::from_lanes(ElementWidth::W6, &lanes).unwrap();
        assert_eq!(v.word() >> 60, 0);
    }

    #[test]
    fn seq_footprint_matches_paper_reduction() {
        // 32-bit per element baseline vs 2-bit packing: 16x fewer bytes
        // for the same symbol count (paper: 2-8x vs 8-bit, more vs 32-bit).
        let codes = vec![1u8; 320];
        let packed = PackedSeq::from_codes(ElementWidth::W2, &codes).unwrap();
        assert_eq!(packed.byte_len(), 80);
        assert_eq!(packed.words().len(), 10);
    }

    #[test]
    fn unpack_into_matches_to_lanes() {
        let v = PackedVec::from_lanes(ElementWidth::W6, &[1, 63, 0, 42, 7]).unwrap();
        let mut out = [0xFFu8; 5];
        v.unpack_into(&mut out);
        assert_eq!(out.to_vec(), v.to_lanes(5));
        let mut none: [u8; 0] = [];
        v.unpack_into(&mut none);
    }

    proptest! {
        #[test]
        fn seq_roundtrip(codes in proptest::collection::vec(0u8..4, 0..200)) {
            let p = PackedSeq::from_codes(ElementWidth::W2, &codes).unwrap();
            prop_assert_eq!(p.unpack(), codes);
        }

        #[test]
        fn seq_segment_matches_slice(
            codes in proptest::collection::vec(0u8..26, 1..120),
            start in 0usize..140,
            count in 0usize..60,
        ) {
            let p = PackedSeq::from_codes(ElementWidth::W6, &codes).unwrap();
            let end = (start + count).min(codes.len());
            let expect: Vec<u8> =
                if start >= codes.len() { vec![] } else { codes[start..end].to_vec() };
            prop_assert_eq!(p.segment(start, count), expect);
        }
    }
}
